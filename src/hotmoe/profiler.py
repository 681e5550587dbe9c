"""Activation profiles, hot-expert selection strategies, and plan metrics.

A profile is the per-layer histogram of routed-expert selection events,
counted over content positions (PAD carries no task signal and is
skipped). Plans are per-layer k-subsets of expert indices chosen from a
profile by one of four strategies. Ties always resolve toward the lower
expert index via stable sorting.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvariantViolation, read_file, write_file
from .tasks import PAD

STRATEGIES = ("layer_hot", "model_hot", "cold", "random")


@dataclass
class ActivationProfile:
    counts: np.ndarray          # (n_layers, n_experts) int64
    tokens_seen: int = 0
    source: str = ""

    @staticmethod
    def empty(n_layers: int, n_experts: int, source: str = "") -> "ActivationProfile":
        return ActivationProfile(np.zeros((n_layers, n_experts), dtype=np.int64),
                                 0, source)

    @property
    def n_layers(self) -> int:
        return self.counts.shape[0]

    @property
    def n_experts(self) -> int:
        return self.counts.shape[1]

    def check_conservation(self, k_route: int) -> None:
        sums = self.counts.sum(axis=1)
        expect = self.tokens_seen * k_route
        if not (sums == expect).all():
            raise InvariantViolation(
                f"profile count sums {sums.tolist()} != tokens*k {expect}")


@dataclass
class PlacementPlan:
    hot: list[list[int]]        # per layer, ascending expert indices
    k: int
    strategy: str
    seed: int | None = None

    def __post_init__(self):
        for layer, experts in enumerate(self.hot):
            if len(experts) != self.k:
                raise InvariantViolation(
                    f"layer {layer} has {len(experts)} hot experts, expected {self.k}")
            if len(set(experts)) != self.k:
                raise InvariantViolation(f"duplicate hot experts in layer {layer}")
        self.hot = [sorted(int(e) for e in experts) for experts in self.hot]

    def sets(self) -> list[set[int]]:
        return [set(h) for h in self.hot]

    def check_fits(self, n_layers: int, n_experts: int) -> None:
        """Raise ConfigError unless the plan has one row per layer and
        names only experts in [0, n_experts)."""
        if len(self.hot) != n_layers:
            raise ConfigError(f"plan covers {len(self.hot)} layers, model has {n_layers}")
        for experts in self.hot:
            for e in experts:
                if not 0 <= e < n_experts:
                    raise ConfigError(f"plan expert index {e} not in [0, {n_experts})")


def record(profile: ActivationProfile, trace) -> ActivationProfile:
    """Fold one RoutingTrace into the profile; each selection = one increment.

    Traces that carry input ids are filtered to content positions; a trace
    without them (built by hand, or merged) is counted whole.
    """
    if not trace.layers:
        return profile
    if len(trace.layers) != profile.n_layers:
        raise ConfigError(
            f"trace has {len(trace.layers)} layers, profile {profile.n_layers}")
    if trace.n_experts != profile.n_experts:
        raise ConfigError(
            f"trace n_experts {trace.n_experts} != profile {profile.n_experts}")
    keep = None
    if trace.tokens is not None:
        keep = trace.tokens != PAD
    for l, lt in enumerate(trace.layers):
        idx = lt.indices if keep is None else lt.indices[keep]
        profile.counts[l] += np.bincount(idx.reshape(-1),
                                         minlength=profile.n_experts)
    profile.tokens_seen += trace.n_tokens if keep is None else int(keep.sum())
    return profile


def select(profile: ActivationProfile, k: int, strategy: str,
           seed: int | None = None) -> PlacementPlan:
    """Per-layer k-subsets by strategy. Only random reads the seed, and only
    a random plan records it."""
    n_e = profile.n_experts
    if not 1 <= k <= n_e:
        raise ConfigError(f"k {k} out of [1, n_experts={n_e}]")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy: {strategy}")
    counts = profile.counts
    if strategy == "layer_hot":
        hot = [np.argsort(-counts[l], kind="stable")[:k].tolist()
               for l in range(profile.n_layers)]
    elif strategy == "model_hot":
        pooled = counts.sum(axis=0)
        top = np.argsort(-pooled, kind="stable")[:k].tolist()
        hot = [list(top) for _ in range(profile.n_layers)]
    elif strategy == "cold":
        hot = [np.argsort(counts[l], kind="stable")[:k].tolist()
               for l in range(profile.n_layers)]
    else:
        if seed is None:
            raise ConfigError("random strategy requires a seed")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9A2D]))
        hot = [rng.choice(n_e, size=k, replace=False).tolist()
               for _ in range(profile.n_layers)]
    return PlacementPlan(hot=hot, k=k, strategy=strategy,
                         seed=seed if strategy == "random" else None)


def jaccard(plan_a: PlacementPlan, plan_b: PlacementPlan) -> tuple[list[float], float]:
    if len(plan_a.hot) != len(plan_b.hot):
        raise ConfigError("plans cover different layer counts")
    if plan_a.k != plan_b.k:
        raise ConfigError("plans have different k")
    per_layer = []
    for a, b in zip(plan_a.sets(), plan_b.sets()):
        per_layer.append(len(a & b) / len(a | b))
    return per_layer, float(np.mean(per_layer))


def coverage(partial_plan: PlacementPlan, full_plan: PlacementPlan) -> float:
    """Percentage of the full plan's hot slots recovered by the partial plan."""
    if len(partial_plan.hot) != len(full_plan.hot):
        raise ConfigError("plans cover different layer counts")
    inter = sum(len(a & b) for a, b in zip(partial_plan.sets(), full_plan.sets()))
    denom = sum(len(b) for b in full_plan.sets())
    return 100.0 * inter / denom


# -- serialization ------------------------------------------------------------

_HEATMAP_HEADER = ["layer", "expert", "count", "ratio"]


def export_heatmap(profile: ActivationProfile, path: str | Path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_HEATMAP_HEADER)
    for layer in range(profile.n_layers):
        row_sum = int(profile.counts[layer].sum())
        for expert in range(profile.n_experts):
            c = int(profile.counts[layer, expert])
            ratio = c / row_sum if row_sum else 0.0
            writer.writerow([layer, expert, c, repr(ratio)])
    write_file(path, buf.getvalue())


def load_heatmap(path: str | Path,
                 k_route: int | None = None) -> ActivationProfile:
    """Rebuild a profile from its CSV. The file stores only counts, so
    tokens_seen stays 0 unless k_route is supplied to derive it; with
    k_route, every layer's counts must sum to one multiple of it (count
    conservation), or the file is malformed."""
    blob = read_file(path)
    cells: dict[tuple[int, int], int] = {}
    try:
        reader = csv.reader(io.StringIO(blob.decode("utf-8"), newline=""))
        if next(reader, None) != _HEATMAP_HEADER:
            raise ConfigError(f"unexpected heatmap header in {path}")
        for row in reader:
            if len(row) != len(_HEATMAP_HEADER):
                raise ValueError(f"{len(row)} fields, not {len(_HEATMAP_HEADER)}")
            cell = (int(row[0]), int(row[1]))
            if cell in cells:
                raise ConfigError(f"repeated heatmap cell {cell} in {path}")
            cells[cell] = np.int64(row[2])   # the grid's type
            float(row[3])   # the ratio is derived from the counts, but must parse
    except (ValueError, OverflowError, csv.Error) as exc:
        raise ConfigError(f"malformed heatmap row in {path}: {exc}") from exc
    if not cells:
        return ActivationProfile.empty(0, 0, source=str(path))
    n_layers = max(l for l, _ in cells) + 1
    n_experts = max(e for _, e in cells) + 1
    if min(min(cell) for cell in cells) < 0 or len(cells) != n_layers * n_experts:
        raise ConfigError(f"heatmap cells in {path} do not fill a layer x expert grid")
    if min(cells.values()) < 0:
        raise ConfigError(f"negative count in heatmap {path}")
    counts = np.zeros((n_layers, n_experts), dtype=np.int64)
    for (l, e), c in cells.items():
        counts[l, e] = c
    tokens = 0
    if k_route is not None:
        sums = counts.sum(axis=1)
        if (sums % k_route).any() or (sums != sums[0]).any():
            raise ConfigError(
                f"heatmap {path} row sums {sums.tolist()} are not one "
                f"multiple of k={k_route}")
        tokens = int(sums[0]) // k_route
    return ActivationProfile(counts, tokens_seen=tokens, source=str(path))


def save_plan(plan: PlacementPlan, path: str | Path) -> None:
    seed_tag = "none" if plan.seed is None else str(plan.seed)
    lines = [f"strategy={plan.strategy} k={plan.k} seed={seed_tag}"]
    for experts in plan.hot:
        lines.append(",".join(str(e) for e in experts))
    write_file(path, "\n".join(lines) + "\n")


def load_plan(path: str | Path) -> PlacementPlan:
    blob = read_file(path)
    try:
        lines = blob.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"malformed plan file {path}: {exc}") from exc
    if not lines:
        raise ConfigError(f"empty plan file: {path}")
    at = 0   # the index of the line being parsed
    try:
        pairs = [part.split("=", 1) for part in lines[0].split()]
        fields = dict(pairs)
        # each of the three fields once and nothing else, as save_plan writes it
        if len(pairs) != 3 or fields.keys() != {"strategy", "k", "seed"}:
            raise ValueError(lines[0])
        k = int(fields["k"])
        strategy = fields["strategy"]
        seed = None if fields["seed"] == "none" else int(fields["seed"])
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy in plan file {path}: {strategy}")
        if (seed is None) == (strategy == "random"):   # only random has a seed
            raise ValueError(fields["seed"])
        hot = []
        for at, line in enumerate(lines[1:], start=1):
            if line.strip():
                hot.append([int(e) for e in line.split(",")])
        # a row of the wrong size or with a repeated expert is a bad file here
        return PlacementPlan(hot=hot, k=k, strategy=strategy, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"malformed plan file {path}: line {at + 1} does not "
                          f"parse: {lines[at]!r}") from exc
    except InvariantViolation as exc:
        raise ConfigError(f"malformed plan file {path}: {exc}") from exc
