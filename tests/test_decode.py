"""KV-cached, live-row greedy decoding against its oracles.

evaluate sorts each batch's rows by their last answer column and hands
logits_fn only the rows still answering; MoEModel.logits_fn forwards only
the columns that a growing causal prefix adds, on a leading block of the
rows it has consumed. The oracles here are the decodes they replaced: one
full forward of the whole token matrix per answer column, and the
drop-nothing decode that forwards every row of the batch at every answer
column. Sums over the shorter key axis run in another order, and an
expert's block of rows shrinks with the batch, so logits may move in the
last bits; predictions may not.
"""

import inspect
import itertools

import numpy as np
import pytest

from hotmoe import tensor as T
from hotmoe.errors import ConfigError, InvariantViolation
from hotmoe.model import KVCache, ModelConfig, MoEModel
from hotmoe.tasks import PAD, SEP, TaskSpec, evaluate, make_task

LOGIT_TOL = 1e-12
EVAL_BATCH = inspect.signature(evaluate).parameters["batch_size"].default


def prompt_key(row):
    return row[:list(row).index(SEP) + 1].tobytes()


def spy_on(fn, dataset):
    """fn wrapped to record each call as (width, scored): scored maps
    (dataset row, t) to the logits of each row that evaluate scores at t,
    the call's last column. A row scored at t has its prompt and SEP in
    the prefix; the prompt names its dataset row."""
    index = {prompt_key(row): i for i, row in enumerate(dataset.tokens)}
    assert len(index) == len(dataset)
    calls = []

    def spy(tokens):
        logits = fn(tokens)
        t = tokens.shape[1] - 1
        scored = {}
        for b, row in enumerate(tokens):
            if SEP in row:
                i = index[prompt_key(row)]
                if dataset.loss_mask[i, t]:
                    scored[i, t] = logits[b, t].copy()
        calls.append((tokens.shape[1], scored))
        return logits
    return spy, calls


def full_recompute_decode(model, dataset, batch_size=EVAL_BATCH):
    """Per answer column in decode order: (t, dataset rows, predictions,
    scored logits)."""
    steps = []
    for lo in range(0, len(dataset), batch_size):
        mask = dataset.loss_mask[lo:lo + batch_size]
        work = dataset.tokens[lo:lo + batch_size].copy()
        answer_cols = np.where(mask.any(axis=0))[0]
        for t in answer_cols:
            work[mask[:, t], t + 1] = PAD
        for t in answer_cols:
            rows = mask[:, t]
            with T.no_grad():
                logits = model.forward(work).logits.data
            pred = logits[rows, t, :].argmax(axis=-1)
            work[rows, t + 1] = pred
            steps.append((t, lo + np.where(rows)[0], pred, logits[rows, t, :]))
    return steps


def drop_nothing_decode(logits_fn, dataset, batch_size=EVAL_BATCH):
    """The decode evaluate replaced: every row of the batch at every answer
    column. Returns the accuracy and the predictions by (dataset row, t)."""
    total, hits, preds = 0, 0, {}
    for lo in range(0, len(dataset), batch_size):
        tokens = dataset.tokens[lo:lo + batch_size]
        targets = dataset.targets[lo:lo + batch_size]
        mask = dataset.loss_mask[lo:lo + batch_size]
        work = tokens.copy()
        answer_cols = np.where(mask.any(axis=0))[0]
        for t in answer_cols:
            work[mask[:, t], t + 1] = PAD
        for t in answer_cols:
            rows = mask[:, t]
            logits = logits_fn(work[:, :t + 1])
            pred = logits[rows, t, :].argmax(axis=-1)
            work[rows, t + 1] = pred
            hits += int((pred == targets[rows, t]).sum())
            total += int(rows.sum())
            preds.update({(lo + r, t): p for r, p in zip(np.where(rows)[0], pred)})
    return hits / total, preds


def test_cached_decode_matches_full_recompute(pretrained, task_splits):
    for (seed, result), (kind, (_, test)) in itertools.product(
            pretrained.items(), task_splits.items()):
        model = result.model
        spy, calls = spy_on(model.logits_fn(), test)
        evaluate(spy, test)
        steps = full_recompute_decode(model, test)
        assert len(calls) == len(steps), (seed, kind)
        for (width, scored), (t, rows, pred, oracle) in zip(calls, steps):
            assert width == t + 1
            assert sorted(scored) == [(r, t) for r in rows], (seed, kind, t)
            got = np.stack([scored[r, t] for r in rows])
            assert np.array_equal(got.argmax(axis=-1), pred), (seed, kind, t)
            assert np.abs(got - oracle).max() <= LOGIT_TOL, (seed, kind, t)


def test_live_rows_match_drop_nothing_decode(pretrained, task_splits):
    for (seed, result), (kind, (_, test)) in itertools.product(
            pretrained.items(), task_splits.items()):
        acc_all, preds_all = drop_nothing_decode(result.model.logits_fn(), test)
        spy, calls = spy_on(result.model.logits_fn(), test)
        acc = evaluate(spy, test)
        preds = {key: int(logits.argmax()) for _, scored in calls
                 for key, logits in scored.items()}
        assert acc == acc_all, (seed, kind)
        assert preds == preds_all, (seed, kind)


def decode_steps(model, dataset, batch_size):
    """evaluate's accuracy at batch_size, its batch count, and the logits
    it scored, keyed by (dataset row, column)."""
    spy, calls = spy_on(model.logits_fn(), dataset)
    acc = evaluate(spy, dataset, batch_size=batch_size)
    scored, batches, prev = {}, 0, None
    for width, at in calls:
        t = width - 1
        if prev is None or t <= prev:   # the prefix restarted: a new batch
            batches += 1
        prev = t
        scored.update(at)
    return acc, batches, scored


def test_default_batch_matches_batch_64(pretrained, task_splits):
    # a one-row matmul (an expert holding one slot) runs through BLAS gemv,
    # which rounds differently from gemm, so a logit may move in its last
    # bits when rows are batched differently; predictions may not
    for (seed, result), (kind, (_, test)) in itertools.product(
            pretrained.items(), task_splits.items()):
        acc64, _, at64 = decode_steps(result.model, test, 64)
        acc, batches, at_default = decode_steps(result.model, test, EVAL_BATCH)
        assert batches == 1, (seed, kind)   # a desk test split is one batch
        assert acc == acc64, (seed, kind)
        assert at_default.keys() == at64.keys()
        for key, logits in at_default.items():
            assert logits.argmax() == at64[key].argmax(), (seed, kind, key)
            assert np.abs(logits - at64[key]).max() <= LOGIT_TOL, (seed, kind, key)


def expected_calls(dataset, batch_size, answer):
    """The token matrices evaluate should forward when every prediction is
    `answer`: per batch and answer column t, the batch's rows whose last
    answer column is >= t, in stably sorted order of that column
    (descending), with the answers before column t + 1 decoded."""
    calls = []
    for lo in range(0, len(dataset), batch_size):
        mask = dataset.loss_mask[lo:lo + batch_size]
        last = [int(np.where(m)[0].max()) for m in mask]
        order = sorted(range(len(mask)), key=lambda r: -last[r])
        for t in np.where(mask.any(axis=0))[0]:
            live = [r for r in order if last[r] >= t]
            tokens = dataset.tokens[lo + np.array(live), :t + 1].copy()
            tokens[:, 1:][mask[live, :t]] = answer
            calls.append(tokens)
    return calls


@pytest.mark.parametrize("batch_size", (EVAL_BATCH, 7))
@pytest.mark.parametrize("kind", ("transduce", "refusal", "mod_add"))
def test_evaluate_forwards_only_rows_still_answering(kind, batch_size):
    _, test = make_task(TaskSpec(kind, seed=5, modulus=11, train_size=40, test_size=30))
    answer = 3
    seen = []

    def constant(tokens):
        seen.append(tokens.copy())
        logits = np.zeros(tokens.shape + (32,))
        logits[..., answer] = 1.0
        return logits

    evaluate(constant, test, batch_size=batch_size)
    calls = expected_calls(test, batch_size, answer)
    assert len(seen) == len(calls)
    for got, want in zip(seen, calls):
        assert np.array_equal(got, want)
    if kind != "mod_add":   # ragged answers: some steps forward fewer rows
        assert min(len(c) for c in calls) < min(batch_size, len(test))


def small_model():
    cfg = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=12, n_experts=4,
                      k_route=2)
    return MoEModel(cfg, seed=3)


def tokens_of(seed, shape=(5, 9)):
    return np.random.default_rng(seed).integers(0, 32, size=shape)


def test_fresh_logits_fn_equals_forward():
    model = small_model()
    tokens = tokens_of(0)
    expected = model.forward(tokens).logits.data
    assert model.logits_fn()(tokens).tobytes() == expected.tobytes()


def test_logits_fn_restarts_when_prefix_differs():
    model = small_model()
    a = tokens_of(1)
    fn = model.logits_fn()
    fn(a[:, :3])
    grown = fn(a[:, :6])   # extends the consumed prefix: incremental
    full = model.forward(a[:, :6]).logits.data
    assert np.abs(grown - full).max() <= LOGIT_TOL
    b = a.copy()
    b[:, 1] = (b[:, 1] + 1) % 32   # same width as a, different leading columns
    assert fn(b).tobytes() == model.forward(b).logits.data.tobytes()
    fewer = b[:3]                   # same leading tokens, fewer rows
    assert fn(fewer).tobytes() == model.forward(fewer).logits.data.tobytes()


def test_cache_needs_no_grad():
    model = small_model()
    with pytest.raises(InvariantViolation):
        model.forward(tokens_of(2), cache=KVCache())


def test_cache_counts_toward_max_seq():
    model = small_model()
    cache = KVCache()
    with T.no_grad():
        model.forward(tokens_of(3, (2, 10)), cache=cache)
        with pytest.raises(ConfigError):
            model.forward(tokens_of(4, (2, 7)), cache=cache)


def forward_widths(model, monkeypatch):
    """Record the width of every token matrix model.forward gets."""
    widths = []
    forward = model.forward

    def spy(tokens, **kw):
        widths.append(tokens.shape[1])
        return forward(tokens, **kw)

    monkeypatch.setattr(model, "forward", spy)
    return widths


def test_logits_fn_keeps_cache_for_a_leading_block(monkeypatch):
    model = small_model()
    a = tokens_of(5)
    expected = model.forward(a[:3, :6]).logits.data
    widths = forward_widths(model, monkeypatch)
    fn = model.logits_fn()
    fn(a[:, :5])
    got = fn(a[:3, :6])
    assert widths == [5, 1]
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= LOGIT_TOL
    got = fn(a[:1, :7])   # and again, down to one row
    assert widths == [5, 1, 1]
    assert np.abs(got - model.forward(a[:1, :7]).logits.data).max() <= LOGIT_TOL


def changed_prefix(a):
    b = a[:3, :6].copy()
    b[:, 1] = (b[:, 1] + 1) % 32
    return b


@pytest.mark.parametrize("follow", [
    lambda a: a[[1, 0, 2], :6],    # reordered rows
    lambda a: a[1:4, :6],          # not a leading block
    changed_prefix,
    lambda a: a[:, :6],            # more rows than consumed
], ids=("reordered", "not-leading", "changed-prefix", "more-rows"))
def test_logits_fn_restarts_for_other_rows(follow, monkeypatch):
    model = small_model()
    a = tokens_of(6)
    b = follow(a)
    expected = model.forward(b).logits.data
    widths = forward_widths(model, monkeypatch)
    fn = model.logits_fn()
    fn(a[:4, :5])
    assert fn(b).tobytes() == expected.tobytes()
    assert widths == [5, 6]
