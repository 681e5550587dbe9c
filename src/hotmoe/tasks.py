"""Deterministic synthetic sequence tasks over a 32-token vocabulary.

Three structurally different task families so that a routed model
develops distinct per-layer expert preferences for each:

  mod_add    "a b SEP c" with c = (a+b) mod m; answer is one token.
  transduce  "t1..tn SEP tn..t1"; answer is the reversed prompt.
  refusal    "t1..tn SEP <echo>" normally, but any trigger token in the
             prompt switches the answer to the single REFUSE token.

Token map: 0..25 data symbols, 26 SEP, 27 REFUSE, 31 PAD (28..30 spare).
mod_add occupies 0..m-1, and by default transduce draws its symbols from
(11..17) and refusal from (18..23) with triggers at 24/25, so at the
default desk modulus of 11 the three tasks touch disjoint symbol sets.
Routing in the base model is largely token-driven; the disjoint bands are
what give each task its own hot-expert footprint.
Generation is a pure function of the TaskSpec. Train and test splits are
disjoint by construction and verified by hashing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, InvariantViolation

N_DATA = 26
SEP = 26
REFUSE = 27
PAD = 31

TASK_KINDS = ("mod_add", "transduce", "refusal")

# disjoint default bands; see the module docstring
_DEFAULT_BANDS = {"transduce": (11, 17), "refusal": (18, 23)}


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    seed: int = 0
    train_size: int = 480
    test_size: int = 120
    modulus: int = 26              # mod_add only
    min_len: int = 3               # transduce / refusal prompt length range
    max_len: int = 6
    triggers: tuple[int, ...] = (24, 25)  # refusal only

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"unknown task kind: {self.kind}")
        if not 2 <= self.modulus <= N_DATA:
            raise ConfigError(f"modulus out of range: {self.modulus}")
        if self.train_size < 1 or self.test_size < 1:
            raise ConfigError(f"train_size {self.train_size} and test_size "
                              f"{self.test_size} must both be >= 1")
        if not 1 <= self.min_len <= self.max_len:
            raise ConfigError("bad prompt length range")

    def data_band(self) -> tuple[int, int]:
        return _DEFAULT_BANDS.get(self.kind, (0, N_DATA - 1))


@dataclass
class Dataset:
    tokens: np.ndarray     # (N, S) int64, PAD-filled
    targets: np.ndarray    # (N, S) int64, PAD where loss_mask is False
    loss_mask: np.ndarray  # (N, S) bool; True at t means score logits[t] vs targets[t]

    def __len__(self) -> int:
        return self.tokens.shape[0]

    def example_hashes(self) -> list[str]:
        return [hashlib.sha256(row.tobytes()).hexdigest() for row in self.tokens]


Batch = Dataset  # a batch is a few rows of a Dataset


def _pack(rows: list[list[int]], answer_starts: list[int]) -> Dataset:
    """Lay out ragged token rows into padded arrays with next-token targets.

    Width is the longest row, not max_seq: trailing PAD positions carry no
    loss but still route, and a wall of task-independent PAD would wash out
    the per-task activation profile.
    """
    width = max(len(row) for row in rows)
    n = len(rows)
    tokens = np.full((n, width), PAD, dtype=np.int64)
    targets = np.full((n, width), PAD, dtype=np.int64)
    mask = np.zeros((n, width), dtype=bool)
    for i, (row, astart) in enumerate(zip(rows, answer_starts)):
        tokens[i, :len(row)] = row
        # answers live at positions astart..len-1; they are scored at the
        # preceding position in next-token convention
        for pos in range(astart, len(row)):
            targets[i, pos - 1] = row[pos]
            mask[i, pos - 1] = True
    return Dataset(tokens, targets, mask)


def _space_size(spec: TaskSpec, alphabet: int) -> int:
    return sum(alphabet ** n for n in range(spec.min_len, spec.max_len + 1))


def _plain_alphabet(spec: TaskSpec) -> list[int]:
    """refusal's non-trigger prompt symbols."""
    lo, hi = spec.data_band()
    return [t for t in range(lo, hi + 1) if t not in spec.triggers]


def check_shape(spec: TaskSpec, seq_len: int) -> None:
    """Raise ConfigError unless spec's examples fit: as many distinct
    prompts as its splits need, and every row within seq_len tokens.
    make_task checks this before it generates; config building checks it
    before a command writes anything."""
    need = spec.train_size + spec.test_size
    if spec.kind == "mod_add":
        space = spec.modulus * spec.modulus
        if need > space:
            raise ConfigError(
                f"mod_add needs {need} unique examples but the space holds {space}")
        width = 4
    else:
        if spec.kind == "refusal":
            alphabet = len(_plain_alphabet(spec))
            if not alphabet:
                raise ConfigError("refusal band holds no non-trigger symbols")
        else:
            lo, hi = spec.data_band()
            alphabet = hi - lo + 1
        if need > _space_size(spec, alphabet):
            raise ConfigError(f"{spec.kind} sample count exceeds the prompt space")
        width = 2 * spec.max_len + 1
    if width > seq_len:
        raise ConfigError(f"{spec.kind} sequences of {width} tokens would "
                          f"exceed max_seq {seq_len}")


def _gen_mod_add(spec: TaskSpec, rng: np.random.Generator):
    m = spec.modulus
    order = rng.permutation(m * m)[:spec.train_size + spec.test_size]
    rows, starts = [], []
    for code in order:
        a, b = int(code) // m, int(code) % m
        rows.append([a, b, SEP, (a + b) % m])
        starts.append(3)
    return rows, starts


def _gen_transduce(spec: TaskSpec, rng: np.random.Generator):
    lo, hi = spec.data_band()
    need = spec.train_size + spec.test_size
    rows, starts, seen = [], [], set()
    while len(rows) < need:
        n = int(rng.integers(spec.min_len, spec.max_len + 1))
        prompt = rng.integers(lo, hi + 1, size=n).tolist()
        key = tuple(prompt)
        if key in seen:
            continue
        seen.add(key)
        rows.append(prompt + [SEP] + prompt[::-1])
        starts.append(n + 1)
    return rows, starts


def _gen_refusal(spec: TaskSpec, rng: np.random.Generator):
    plain_alphabet = _plain_alphabet(spec)
    need = spec.train_size + spec.test_size
    rows, starts, seen = [], [], set()
    while len(rows) < need:
        n = int(rng.integers(spec.min_len, spec.max_len + 1))
        prompt = [plain_alphabet[i] for i in rng.integers(0, len(plain_alphabet), size=n)]
        if rng.random() < 0.5:  # triggered half
            pos = int(rng.integers(0, n))
            trig = spec.triggers[int(rng.integers(0, len(spec.triggers)))]
            prompt[pos] = trig
        key = tuple(prompt)
        if key in seen:
            continue
        seen.add(key)
        triggered = any(t in spec.triggers for t in prompt)
        answer = [REFUSE] if triggered else list(prompt)
        rows.append(prompt + [SEP] + answer)
        starts.append(n + 1)
    return rows, starts


_GENERATORS: dict[str, Callable] = {
    "mod_add": _gen_mod_add,
    "transduce": _gen_transduce,
    "refusal": _gen_refusal,
}


def make_task(spec: TaskSpec, seq_len: int = 16) -> tuple[Dataset, Dataset]:
    """Build (train, test) datasets, a pure function of spec, once
    check_shape passes for rows of at most seq_len tokens."""
    check_shape(spec, seq_len)
    kind_id = TASK_KINDS.index(spec.kind)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, kind_id]))
    rows, starts = _GENERATORS[spec.kind](spec, rng)
    train = _pack(rows[:spec.train_size], starts[:spec.train_size])
    test = _pack(rows[spec.train_size:], starts[spec.train_size:])
    overlap = set(train.example_hashes()) & set(test.example_hashes())
    if overlap:
        raise InvariantViolation(f"train/test overlap: {len(overlap)} examples")
    return train, test


# -- batching -----------------------------------------------------------------


def iter_batches(dataset: Dataset, batch_size: int, epochs: int,
                 seed: int) -> Iterator[Batch]:
    """Seeded per-epoch shuffling; deterministic batch stream."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA7C4]))
    n = len(dataset)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, batch_size):
            idx = perm[lo:lo + batch_size]
            yield Batch(dataset.tokens[idx], dataset.targets[idx],
                        dataset.loss_mask[idx])


def n_steps(dataset_size: int, batch_size: int, epochs: int) -> int:
    per_epoch = -(-dataset_size // batch_size)
    return per_epoch * epochs


def subset_size(n: int, fraction_pct: float) -> int:
    """Rows a fraction_pct subset of n rows holds: round(n * pct/100)."""
    return int(round(n * fraction_pct / 100.0))


def subset(dataset: Dataset, fraction_pct: float, seed: int) -> Dataset:
    """Seeded example subset holding subset_size(N, pct) rows."""
    n = len(dataset)
    take = subset_size(n, fraction_pct)
    if not 1 <= take <= n:
        raise ConfigError(f"subset fraction {fraction_pct}% selects {take} of {n}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5B5E7]))
    idx = np.sort(rng.choice(n, size=take, replace=False))
    return Dataset(dataset.tokens[idx], dataset.targets[idx], dataset.loss_mask[idx])


# -- evaluation ---------------------------------------------------------------


def evaluate(logits_fn: Callable[[np.ndarray], np.ndarray], dataset: Dataset,
             batch_size: int = 128) -> float:
    """Token-level exact match on masked positions under greedy decoding.

    logits_fn maps a token matrix (B, S) to logits (B, S, V). Answer
    positions are blanked to PAD before decoding so the model cannot see
    ground truth; each decoded token is written back so later answer
    positions condition on earlier predictions. Each batch's rows are
    sorted by their last answer column, descending and stable, so the
    rows still answering at column t form a leading block. To score
    column t, logits_fn gets only that block's causal prefix (columns
    0..t): the prefix grows by one column per step and rows whose answer
    is complete leave the batch, so a KV-cached logits_fn
    (MoEModel.logits_fn) forwards each position of a row that still
    answers once. The default batch holds a whole test split of the desk
    tasks (120 rows), so each split decodes in one pass.
    """
    total, hits = 0, 0
    for lo in range(0, len(dataset), batch_size):
        mask = dataset.loss_mask[lo:lo + batch_size]
        last = np.where(mask, np.arange(mask.shape[1]), -1).max(axis=1)
        order = np.argsort(-last, kind="stable")
        mask, last = mask[order], last[order]
        targets = dataset.targets[lo:lo + batch_size][order]
        work = dataset.tokens[lo:lo + batch_size][order]
        answer_cols = np.where(mask.any(axis=0))[0]
        for t in answer_cols:
            work[mask[:, t], t + 1] = PAD
        for t in answer_cols:
            live = int((last >= t).sum())
            rows = mask[:live, t]
            logits = logits_fn(work[:live, :t + 1])
            pred = logits[rows, t, :].argmax(axis=-1)
            work[:live][rows, t + 1] = pred
            hits += int((pred == targets[:live][rows, t]).sum())
            total += int(rows.sum())
    return hits / total if total else 0.0
