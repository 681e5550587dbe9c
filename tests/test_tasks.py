"""Task generation, batching, and greedy evaluation contracts."""

import numpy as np
import pytest

from hotmoe.errors import ConfigError
from hotmoe.tasks import (PAD, REFUSE, SEP, Dataset, TaskSpec, evaluate,
                          iter_batches, make_task, n_steps, subset)


def row_tokens(ds, i):
    row = ds.tokens[i]
    return row[row != PAD].tolist()


class TestGeneration:
    def test_same_spec_bitwise_identical(self):
        for kind in ("mod_add", "transduce", "refusal"):
            spec = TaskSpec(kind, seed=5, train_size=30, test_size=10)
            tr1, te1 = make_task(spec)
            tr2, te2 = make_task(spec)
            assert tr1.tokens.tobytes() == tr2.tokens.tobytes()
            assert te1.targets.tobytes() == te2.targets.tobytes()
            assert te1.loss_mask.tobytes() == te2.loss_mask.tobytes()

    def test_mod_add_three_plus_five_mod_seven(self):
        spec = TaskSpec("mod_add", seed=0, modulus=7, train_size=40, test_size=9)
        train, test = make_task(spec)
        rows = [row_tokens(train, i) for i in range(len(train))]
        rows += [row_tokens(test, i) for i in range(len(test))]
        hit = [r for r in rows if r[0] == 3 and r[1] == 5]
        assert len(hit) == 1  # 49 examples = the full 7x7 space
        assert hit[0] == [3, 5, SEP, 1]

    def test_mod_add_all_sums_correct(self):
        train, test = make_task(TaskSpec("mod_add", seed=1, train_size=100, test_size=20))
        for ds in (train, test):
            for i in range(len(ds)):
                a, b, sep, c = row_tokens(ds, i)
                assert sep == SEP
                assert c == (a + b) % 26

    def test_transduce_reverses(self):
        train, _ = make_task(TaskSpec("transduce", seed=2, train_size=50, test_size=10))
        for i in range(len(train)):
            row = row_tokens(train, i)
            n = row.index(SEP)
            assert row[n + 1:] == row[:n][::-1]

    def test_refusal_semantics(self):
        spec = TaskSpec("refusal", seed=3, train_size=80, test_size=20)
        train, _ = make_task(spec)
        saw_refuse = saw_echo = False
        for i in range(len(train)):
            row = row_tokens(train, i)
            n = row.index(SEP)
            prompt, answer = row[:n], row[n + 1:]
            if any(t in spec.triggers for t in prompt):
                assert answer == [REFUSE]
                saw_refuse = True
            else:
                assert answer == prompt
                saw_echo = True
        assert saw_refuse and saw_echo

    def test_train_test_disjoint_by_hash(self):
        for kind in ("mod_add", "transduce", "refusal"):
            train, test = make_task(TaskSpec(kind, seed=4))
            assert not set(train.example_hashes()) & set(test.example_hashes())

    def test_space_exhaustion_raises(self):
        with pytest.raises(ConfigError):
            make_task(TaskSpec("mod_add", modulus=2, train_size=3, test_size=2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            TaskSpec("mystery")

    def test_bad_length_range_rejected(self):
        for lens in ({"min_len": 7}, {"min_len": 0}, {"min_len": 4, "max_len": 3}):
            with pytest.raises(ConfigError, match="length range"):
                TaskSpec("transduce", **lens)

    def test_row_longer_than_seq_len_rejected(self):
        # a prompt of max_len tokens, SEP and its answer: 2 * 7 + 1 = 15 tokens
        make_task(TaskSpec("transduce", max_len=7), 15)
        for kind in ("transduce", "refusal"):
            with pytest.raises(ConfigError, match="exceed max_seq 16"):
                make_task(TaskSpec(kind, max_len=8), 16)
        with pytest.raises(ConfigError, match="4 tokens would exceed"):
            make_task(TaskSpec("mod_add", train_size=20, test_size=5), 3)

    def test_empty_split_rejected(self):
        # an empty split would reach _pack's max() over zero rows
        for sizes in ({"train_size": 0}, {"test_size": 0}, {"train_size": -3}):
            with pytest.raises(ConfigError):
                TaskSpec("mod_add", **sizes)

    def test_targets_pad_off_mask(self):
        train, _ = make_task(TaskSpec("mod_add", seed=0, train_size=20, test_size=5))
        assert (train.targets[~train.loss_mask] == PAD).all()
        assert (train.targets[train.loss_mask] != PAD).all()

    def test_mask_aligns_next_token(self):
        # scored position t must predict the token stored at t+1
        train, _ = make_task(TaskSpec("transduce", seed=1, train_size=20, test_size=5))
        rows, cols = np.where(train.loss_mask)
        np.testing.assert_array_equal(train.targets[rows, cols],
                                      train.tokens[rows, cols + 1])


class TestBatching:
    def test_epoch_covers_every_example_once(self):
        train, _ = make_task(TaskSpec("mod_add", seed=0, train_size=48, test_size=12))
        seen = []
        for batch in iter_batches(train, batch_size=16, epochs=1, seed=9):
            seen.extend(batch.tokens[:, 0] * 1000 + batch.tokens[:, 1])
        assert len(seen) == 48 and len(set(seen)) == 48

    def test_stream_deterministic(self):
        train, _ = make_task(TaskSpec("transduce", seed=0, train_size=32, test_size=8))
        a = [b.tokens.tobytes() for b in iter_batches(train, 8, 2, seed=4)]
        b = [b.tokens.tobytes() for b in iter_batches(train, 8, 2, seed=4)]
        assert a == b

    def test_n_steps(self):
        assert n_steps(480, 16, 10) == 300
        assert n_steps(48, 16, 10) == 30
        assert n_steps(50, 16, 1) == 4  # ragged tail still yields a batch

    def test_subset_seeded_and_sized(self):
        train, _ = make_task(TaskSpec("refusal", seed=0, train_size=200, test_size=40))
        sub1 = subset(train, 10.0, seed=3)
        sub2 = subset(train, 10.0, seed=3)
        assert len(sub1) == 20
        assert sub1.tokens.tobytes() == sub2.tokens.tobytes()
        full_hashes = set(train.example_hashes())
        assert set(sub1.example_hashes()) <= full_hashes

    def test_subset_bad_fraction(self):
        train, _ = make_task(TaskSpec("mod_add", seed=0, train_size=20, test_size=5))
        with pytest.raises(ConfigError):
            subset(train, 0.1, seed=0)  # rounds to zero examples


class TestEvaluate:
    def test_chance_baseline_uniform_model(self):
        _, test = make_task(TaskSpec("mod_add", seed=0))
        rng = np.random.default_rng(11)

        def noise_logits(tokens):
            return rng.normal(size=(tokens.shape[0], tokens.shape[1], 32))

        acc = evaluate(noise_logits, test)
        assert abs(acc - 1.0 / 32) < 0.05

    def test_memorizing_model_scores_one(self):
        _, test = make_task(TaskSpec("transduce", seed=1, train_size=40, test_size=10))

        def prompt_key(row):
            return row[:list(row).index(SEP) + 1].tobytes()

        lookup = {prompt_key(test.tokens[i]): i for i in range(len(test))}
        # keyed answer sheet: emit one-hot of the true target at every position.
        # evaluate passes causal prefixes; a row whose prefix has no SEP yet
        # is not scored at this column, so it gets no answer.

        def oracle_logits(tokens):
            out = np.zeros((tokens.shape[0], tokens.shape[1], 32))
            for b in range(tokens.shape[0]):
                if SEP not in tokens[b]:
                    continue
                i = lookup[prompt_key(tokens[b])]
                for t in range(tokens.shape[1]):
                    out[b, t, test.targets[i, t]] = 10.0
            return out

        assert evaluate(oracle_logits, test) == 1.0

    def test_answers_blanked_before_decode(self):
        # a copycat that reads the token at the scored position would ace the
        # task if ground truth leaked; it must not
        _, test = make_task(TaskSpec("mod_add", seed=2, train_size=40, test_size=10))

        def copycat_logits(tokens):
            out = np.zeros((tokens.shape[0], tokens.shape[1], 32))
            for t in range(tokens.shape[1] - 1):
                out[np.arange(tokens.shape[0]), t, tokens[:, t + 1]] = 5.0
            return out

        assert evaluate(copycat_logits, test) < 0.2

    def test_batch_size_independent(self):
        _, test = make_task(TaskSpec("refusal", seed=3, train_size=60, test_size=20))

        def pure_logits(tokens):
            out = np.zeros((tokens.shape[0], tokens.shape[1], 32))
            out[:, :, 0] = 1.0  # constant prediction
            return out

        assert evaluate(pure_logits, test, batch_size=64) == \
            evaluate(pure_logits, test, batch_size=7)

    def test_row_order_independent(self):
        _, test = make_task(TaskSpec("transduce", seed=4, train_size=40, test_size=16))

        def pure_logits(tokens):
            out = np.zeros((tokens.shape[0], tokens.shape[1], 32))
            nxt = (tokens + 1) % 32
            for t in range(tokens.shape[1]):
                out[np.arange(tokens.shape[0]), t, nxt[:, t]] = 2.0
            return out

        perm = np.random.default_rng(5).permutation(len(test))
        shuffled = Dataset(test.tokens[perm], test.targets[perm], test.loss_mask[perm])
        assert evaluate(pure_logits, test) == evaluate(pure_logits, shuffled)

