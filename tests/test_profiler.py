"""Profile recording, strategy selection oracles, plan metrics, serialization."""

import numpy as np
import pytest

from hotmoe.errors import ConfigError, InvariantViolation, IoError
from hotmoe.model import LayerTrace, RoutingTrace
from hotmoe.profiler import (ActivationProfile, PlacementPlan, coverage,
                             export_heatmap, jaccard, load_heatmap, load_plan,
                             record, save_plan, select)

RNG = np.random.default_rng(606)


def trace_from_indices(per_layer_indices, n_experts):
    tr = RoutingTrace(n_experts=n_experts, k_route=per_layer_indices[0].shape[1])
    for idx in per_layer_indices:
        tr.layers.append(LayerTrace(indices=idx, weights=np.zeros(idx.shape)))
    return tr


class TestRecord:
    def test_empty_trace_no_change(self):
        prof = ActivationProfile.empty(2, 4)
        record(prof, RoutingTrace(n_experts=4, k_route=2))
        assert prof.counts.sum() == 0 and prof.tokens_seen == 0

    def test_one_token_conservation(self):
        prof = ActivationProfile.empty(4, 16)
        idx = [np.array([[0, 5, 9, 13]]) for _ in range(4)]
        record(prof, trace_from_indices(idx, 16))
        assert prof.counts.sum() == 16
        assert prof.tokens_seen == 1
        prof.check_conservation(k_route=4)

    def test_double_record_doubles(self):
        prof = ActivationProfile.empty(2, 8)
        idx = [RNG.integers(0, 8, size=(10, 2)) for _ in range(2)]
        tr = trace_from_indices(idx, 8)
        record(prof, tr)
        once = prof.counts.copy()
        record(prof, tr)
        np.testing.assert_array_equal(prof.counts, 2 * once)
        assert prof.tokens_seen == 20

    def test_architecture_mismatch(self):
        prof = ActivationProfile.empty(2, 8)
        idx = [RNG.integers(0, 4, size=(3, 2)) for _ in range(3)]
        with pytest.raises(ConfigError):
            record(prof, trace_from_indices(idx, 4))

    def test_conservation_violation_detected(self):
        prof = ActivationProfile(np.array([[3, 1], [2, 2]]), tokens_seen=2)
        with pytest.raises(InvariantViolation):
            prof.check_conservation(k_route=1)


class TestSelect:
    def test_layer_hot_hand_case(self):
        prof = ActivationProfile(np.array([[5, 1, 7, 7]]), tokens_seen=5)
        plan = select(prof, 2, "layer_hot")
        assert plan.hot[0] == [2, 3]

    def test_tie_rule_hand_case(self):
        prof = ActivationProfile(np.array([[3, 3, 1]]), tokens_seen=7)
        assert select(prof, 1, "layer_hot").hot[0] == [0]

    def test_model_hot_pools_layers(self):
        counts = np.array([[9, 0, 1], [0, 9, 1]])
        plan = select(ActivationProfile(counts), 1, "model_hot")
        assert plan.hot == [[0], [0]]  # pooled [9,9,2], tie toward 0

    def test_cold_is_bottom_k(self):
        prof = ActivationProfile(np.array([[5, 1, 7, 0]]))
        assert select(prof, 2, "cold").hot[0] == [1, 3]

    def test_random_requires_seed_and_replays(self):
        prof = ActivationProfile(RNG.integers(0, 50, size=(4, 16)))
        with pytest.raises(ConfigError):
            select(prof, 4, "random")
        p1 = select(prof, 4, "random", seed=8)
        p2 = select(prof, 4, "random", seed=8)
        assert p1.hot == p2.hot

    def test_only_random_records_its_seed(self):
        prof = ActivationProfile(RNG.integers(0, 50, size=(4, 16)))
        for strategy in ("layer_hot", "model_hot", "cold"):
            plan = select(prof, 4, strategy, seed=8)
            assert plan.seed is None
            assert plan.hot == select(prof, 4, strategy).hot
        assert select(prof, 4, "random", seed=8).seed == 8

    def test_random_seeds_differ(self):
        prof = ActivationProfile(np.zeros((4, 16), dtype=np.int64))
        plans = [select(prof, 4, "random", seed=s).hot for s in range(5)]
        assert any(plans[i] != plans[j]
                   for i in range(5) for j in range(i + 1, 5))

    def test_strategies_match_brute_force_oracles(self):
        # mirrors the acceptance sweep at smaller volume; full volume in AC-8
        for _ in range(100):
            counts = RNG.integers(0, 30, size=(3, 8))
            prof = ActivationProfile(counts)
            k = int(RNG.integers(1, 9))
            lh = select(prof, k, "layer_hot")
            for l in range(3):
                ranked = sorted(range(8), key=lambda i: (-counts[l, i], i))
                assert lh.hot[l] == sorted(ranked[:k])
            cold = select(prof, k, "cold")
            for l in range(3):
                ranked = sorted(range(8), key=lambda i: (counts[l, i], i))
                assert cold.hot[l] == sorted(ranked[:k])
            mh = select(prof, k, "model_hot")
            pooled = counts.sum(axis=0)
            ranked = sorted(range(8), key=lambda i: (-pooled[i], i))
            assert mh.hot == [sorted(ranked[:k])] * 3

    def test_cold_disjoint_from_layer_hot(self):
        # holds when counts are distinct at the k-boundary (2k <= N_E);
        # permutations guarantee unique counts per layer
        for trial in range(20):
            counts = np.stack([RNG.permutation(100)[:16] for _ in range(4)])
            prof = ActivationProfile(counts)
            hot = select(prof, 4, "layer_hot")
            cold = select(prof, 4, "cold")
            for a, b in zip(hot.sets(), cold.sets()):
                assert not a & b

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            select(ActivationProfile.empty(1, 4), 5, "layer_hot")

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        with pytest.raises(ConfigError):
            select(ActivationProfile.empty(1, 4), k, "layer_hot")


class TestPlanMetrics:
    def test_self_jaccard_and_coverage(self):
        plan = PlacementPlan(hot=[[0, 1], [2, 3]], k=2, strategy="layer_hot")
        per_layer, mean = jaccard(plan, plan)
        assert per_layer == [1.0, 1.0] and mean == 1.0
        assert coverage(plan, plan) == 100.0

    def test_jaccard_hand_case(self):
        a = PlacementPlan(hot=[[1, 2, 3, 4]], k=4, strategy="layer_hot")
        b = PlacementPlan(hot=[[3, 4, 5, 6]], k=4, strategy="layer_hot")
        per_layer, mean = jaccard(a, b)
        assert per_layer[0] == pytest.approx(2 / 6)
        assert mean == pytest.approx(2 / 6)

    def test_coverage_hand_case(self):
        partial = PlacementPlan(hot=[[1, 2, 3]], k=3, strategy="layer_hot")
        full = PlacementPlan(hot=[[2, 3, 4]], k=3, strategy="layer_hot")
        assert coverage(partial, full) == pytest.approx(100 * 2 / 3)

    def test_shape_mismatch(self):
        a = PlacementPlan(hot=[[0]], k=1, strategy="cold")
        b = PlacementPlan(hot=[[0], [1]], k=1, strategy="cold")
        with pytest.raises(ConfigError):
            jaccard(a, b)
        c = PlacementPlan(hot=[[0, 1]], k=2, strategy="cold")
        with pytest.raises(ConfigError):
            jaccard(a, c)

    def test_plan_invariants(self):
        with pytest.raises(InvariantViolation):
            PlacementPlan(hot=[[0, 1, 2]], k=2, strategy="layer_hot")
        with pytest.raises(InvariantViolation):
            PlacementPlan(hot=[[1, 1]], k=2, strategy="layer_hot")


class TestSerialization:
    def test_heatmap_round_trip_exact(self, tmp_path):
        prof = ActivationProfile(RNG.integers(0, 999, size=(4, 16)), tokens_seen=0)
        path = tmp_path / "heat.csv"
        export_heatmap(prof, path)
        loaded = load_heatmap(path)
        np.testing.assert_array_equal(loaded.counts, prof.counts)

    def test_heatmap_ratios_sum_per_layer(self, tmp_path):
        prof = ActivationProfile(np.array([[2, 2], [1, 3]]), tokens_seen=2)
        path = tmp_path / "h.csv"
        export_heatmap(prof, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "layer,expert,count,ratio"
        assert len(rows) == 5
        ratios = [float(r.split(",")[3]) for r in rows[1:]]
        assert ratios[0] + ratios[1] == pytest.approx(1.0)
        assert ratios[2] + ratios[3] == pytest.approx(1.0)

    def test_empty_profile_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_heatmap(ActivationProfile.empty(0, 0), path)
        assert path.read_text().strip() == "layer,expert,count,ratio"
        loaded = load_heatmap(path)
        assert loaded.counts.size == 0

    def test_plan_round_trip_exact(self, tmp_path):
        plan = PlacementPlan(hot=[[3, 1, 2, 0], [4, 5, 6, 7]], k=4,
                             strategy="random", seed=17)
        path = tmp_path / "plan.txt"
        save_plan(plan, path)
        loaded = load_plan(path)
        assert loaded.hot == plan.hot  # canonical ascending order
        assert (loaded.k, loaded.strategy, loaded.seed) == (4, "random", 17)
        save_plan(loaded, tmp_path / "plan2.txt")
        assert (tmp_path / "plan2.txt").read_bytes() == path.read_bytes()

    def test_plan_seed_none_round_trip(self, tmp_path):
        plan = PlacementPlan(hot=[[0, 1]], k=2, strategy="layer_hot")
        save_plan(plan, tmp_path / "p.txt")
        assert load_plan(tmp_path / "p.txt").seed is None

    def test_missing_files(self, tmp_path):
        with pytest.raises(IoError):
            load_plan(tmp_path / "nope.txt")
        with pytest.raises(IoError):
            load_heatmap(tmp_path / "nope.csv")

    def test_bad_plan_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("strategy=layer_hot\n0,1\n")
        with pytest.raises(ConfigError):
            load_plan(path)
