"""KV-cached greedy decoding against the full-recompute oracle.

MoEModel.logits_fn forwards only the columns that a growing causal prefix
adds. The oracle here is the decode it replaced: one full forward of the
whole token matrix per answer column. Sums over the shorter key axis run
in another order, so logits may move in the last bits; predictions may not.
"""

import inspect
import itertools

import numpy as np
import pytest

from hotmoe import tensor as T
from hotmoe.errors import ConfigError, InvariantViolation
from hotmoe.model import KVCache, ModelConfig, MoEModel
from hotmoe.tasks import PAD, evaluate

LOGIT_TOL = 1e-12
EVAL_BATCH = inspect.signature(evaluate).parameters["batch_size"].default


def full_recompute_decode(model, dataset, batch_size=EVAL_BATCH):
    """Per answer column in decode order: (t, rows, predictions, scored logits)."""
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
            steps.append((t, rows, pred, logits[rows, t, :]))
    return steps


def test_cached_decode_matches_full_recompute(pretrained, task_splits):
    for (seed, result), (kind, (_, test)) in itertools.product(
            pretrained.items(), task_splits.items()):
        model = result.model
        fn = model.logits_fn()
        calls = []

        def spy(tokens):
            logits = fn(tokens)
            calls.append((tokens.shape[1], logits.copy()))
            return logits

        evaluate(spy, test)
        steps = full_recompute_decode(model, test)
        assert len(calls) == len(steps), (seed, kind)
        for (width, logits), (t, rows, pred, scored) in zip(calls, steps):
            assert width == t + 1
            got = logits[rows, t, :]
            assert np.array_equal(got.argmax(axis=-1), pred), (seed, kind, t)
            assert np.abs(got - scored).max() <= LOGIT_TOL, (seed, kind, t)


def decode_steps(model, dataset, batch_size):
    """evaluate's accuracy at batch_size, its batch count, and the logits
    it scored, keyed by (dataset row, column)."""
    fn = model.logits_fn()
    calls = []

    def spy(tokens):
        logits = fn(tokens)
        calls.append(logits.copy())
        return logits

    acc = evaluate(spy, dataset, batch_size=batch_size)
    scored, lo, prev = {}, -batch_size, None
    for logits in calls:
        t = logits.shape[1] - 1
        if prev is None or t <= prev:   # the prefix restarted: a new batch
            lo += batch_size
        prev = t
        for r in np.where(dataset.loss_mask[lo:lo + batch_size, t])[0]:
            scored[lo + r, t] = logits[r, t]
    return acc, lo // batch_size + 1, scored


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


def small_model():
    cfg = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=12, n_experts=4,
                      k_route=2, vocab=32, max_seq=16)
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
