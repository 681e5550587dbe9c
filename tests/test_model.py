"""MoE model contracts: routing, load balancing, losses, pretraining.

Oracles: top-k selection vs a brute-force full sort; MoE layer output
(route and routed_experts, through test_moe_fused.moe_half) vs a straight
replay recomputed from the trace with plain numpy; LB loss vs
hand-made traces; CE at init vs the maximum-entropy baseline;
profile_counts' routing passes vs record over full-width full forwards.
"""

import re
import weakref

import numpy as np
import pytest
from scipy.special import erf

from hotmoe import model as model_mod
from hotmoe import tensor as T
from hotmoe.errors import ConfigError, NumericalError
from hotmoe.model import (LayerTrace, ModelConfig, MoEModel, RoutingTrace,
                          concat_datasets, forward_backward,
                          load_balancing_loss, pretrain_base,
                          profile_counts, route_topk)
from hotmoe.optim import Adam
from hotmoe.profiler import ActivationProfile, record
from hotmoe.tasks import PAD, Dataset, TaskSpec, iter_batches, make_task
from test_moe_fused import moe_half

RNG = np.random.default_rng(2024)


def tiny_config(**kw):
    base = dict(n_layers=2, d_model=8, n_heads=2, d_ff=12, n_experts=4,
                k_route=2)
    base.update(kw)
    return ModelConfig(**base)


def fractions(lt, n_experts):
    """A layer's assignment fractions: its selections per expert over all."""
    return np.bincount(lt.indices.reshape(-1), minlength=n_experts) / lt.indices.size


class TestConfig:
    def test_k_route_bounds(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_experts=4, k_route=5)
        with pytest.raises(ConfigError):
            ModelConfig(k_route=0)

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=30, n_heads=4)


class TestRouteTopk:
    def test_tie_goes_to_lower_index(self):
        idx, w = route_topk(np.array([0.1, 3.0, 3.0, -1.0]), 2)
        assert set(idx.tolist()) == {1, 2}
        assert idx.tolist() == [1, 2]
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_single_winner(self):
        idx, w = route_topk(np.array([5.0, 1.0, 0.0, 0.0]), 1)
        assert idx.tolist() == [0]
        np.testing.assert_allclose(w, [1.0], atol=1e-15)

    def test_matches_brute_force_sort(self):
        for _ in range(200):
            logits = RNG.normal(size=8)
            idx, _ = route_topk(logits, 3)
            ranked = sorted(range(8), key=lambda i: (-logits[i], i))
            assert idx.tolist() == ranked[:3]

    def test_weights_sum_to_one(self):
        logits = RNG.normal(size=(40, 16))
        _, w = route_topk(logits, 4)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)
        assert (w > 0).all()

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            route_topk(np.zeros(4), 5)


class TestMoELayer:
    def test_forced_single_expert(self):
        # a huge router bias toward expert 0 makes the layer act as E_0
        cfg = tiny_config(k_route=1)
        model = MoEModel(cfg, seed=0)
        w = model.registry["layer0.router.w"].tensor
        w.data = np.zeros_like(w.data)
        w.data[:, 0] = 100.0  # with positive activations, expert 0 always wins
        x = T.Tensor(np.abs(RNG.normal(size=(2, 3, 8))) + 0.1)
        y, lt = moe_half(model, 0, x)
        f = fractions(lt, cfg.n_experts)
        xf = x.data.reshape(-1, 8)
        up = model.registry["layer0.expert0.w_up"].tensor.data
        down = model.registry["layer0.expert0.w_down"].tensor.data
        h = xf @ up
        expected = (h * 0.5 * (1 + erf(h / np.sqrt(2)))) @ down
        np.testing.assert_allclose(y.data.reshape(-1, 8), expected, atol=1e-12)
        assert f[0] == 1.0 and f[1:].sum() == 0.0

    def test_replay_oracle(self):
        # recompute the layer output from the trace with plain numpy; each
        # shared expert adds gelu(x W_up) W_down at weight 1
        for n_shared in (0, 1):
            cfg = tiny_config(n_shared=n_shared)
            model = MoEModel(cfg, seed=3)
            x = T.Tensor(RNG.normal(size=(4, 5, 8)))
            y, lt = moe_half(model, 1, x)
            xf = x.data.reshape(-1, 8)

            def expert(tag, t):
                up = model.registry[f"layer1.{tag}.w_up"].tensor.data
                down = model.registry[f"layer1.{tag}.w_down"].tensor.data
                h = xf[t] @ up
                return (h * 0.5 * (1 + erf(h / np.sqrt(2)))) @ down

            replay = np.zeros_like(xf)
            shared = np.zeros_like(xf)
            for t in range(xf.shape[0]):
                for j in range(n_shared):
                    shared[t] += expert(f"shared{j}", t)
                for slot in range(cfg.k_route):
                    replay[t] += lt.weights[t, slot] * expert(f"expert{lt.indices[t, slot]}", t)
            np.testing.assert_allclose(shared + replay, y.data.reshape(-1, 8), atol=1e-12)
            assert (np.abs(shared).max() > 1e-6) == (n_shared > 0)

    def test_dense_when_k_equals_n(self):
        cfg = tiny_config(k_route=4)
        model = MoEModel(cfg, seed=1)
        x = T.Tensor(RNG.normal(size=(1, 4, 8)))
        _, lt = moe_half(model, 0, x)
        assert sorted(lt.indices[0].tolist()) == [0, 1, 2, 3]
        assert fractions(lt, cfg.n_experts).sum() == pytest.approx(1.0)

    def test_routing_conservation(self):
        cfg = tiny_config()
        model = MoEModel(cfg, seed=2)
        out = model.forward(RNG.integers(0, 32, size=(3, 7)), want_trace=True)
        for lt in out.trace.layers:
            assert lt.indices.shape == (21, cfg.k_route)
            assert len(set(map(tuple, np.sort(lt.indices, axis=1)))) >= 1
            per_token = np.sort(lt.indices, axis=1)
            assert all(len(set(row)) == cfg.k_route for row in per_token.tolist())
            np.testing.assert_allclose(lt.weights.sum(axis=1), 1.0, atol=1e-12)
            assert (lt.weights > 0).all()

    def test_shared_experts_outside_trace(self):
        cfg = tiny_config(n_shared=2, k_route=2)
        model = MoEModel(cfg, seed=4)
        out = model.forward(RNG.integers(0, 32, size=(2, 6)), want_trace=True)
        for lt in out.trace.layers:
            assert lt.indices.max() < cfg.n_experts
            assert lt.indices.shape[1] == cfg.k_route  # unaffected by n_shared

    def test_shared_experts_add_to_output(self):
        base_cfg = tiny_config(n_shared=0)
        shared_cfg = tiny_config(n_shared=1)
        m0 = MoEModel(base_cfg, seed=7)
        m1 = MoEModel(shared_cfg, seed=7)
        # m0's weights in m1 (seeded draws diverge after the first shared
        # param), and the shared expert's down projection zeroed
        for name, _ in m1.registry.items():
            if ".shared0.w_down" in name:
                m1.registry[name].tensor.data[:] = 0.0
        for name, entry in m0.registry.items():
            m1.registry[name].tensor.data = entry.tensor.data.copy()
        tokens = RNG.integers(0, 32, size=(2, 5))
        np.testing.assert_allclose(m0.forward(tokens).logits.data,
                                   m1.forward(tokens).logits.data, atol=1e-12)


def hand_trace(layer_indices, layer_ps, n_experts=2):
    """A trace whose layer l routes each token to the experts of row t of
    layer_indices[l], with P layer_ps[l]."""
    layers = [np.array(idx) for idx in layer_indices]
    trace = RoutingTrace(n_experts, k_route=layers[0].shape[1])
    for idx, p in zip(layers, layer_ps):
        trace.layers.append(LayerTrace(indices=idx, weights=np.ones(idx.shape) / idx.shape[1],
                                       p=T.Tensor(p)))
    return trace


def one_each(counts):
    """k_route 1 indices routing counts[e] tokens to expert e."""
    return np.repeat(np.arange(len(counts)), counts)[:, None]


class TestLoadBalancingLoss:
    def test_uniform_floor(self):
        trace = hand_trace([[[0], [1]]], [[0.5, 0.5]])
        assert load_balancing_loss(trace).item() == pytest.approx(1.0)

    def test_collapse_doubles(self):
        trace = hand_trace([[[0], [0]]], [[1.0, 0.0]])
        assert load_balancing_loss(trace).item() == pytest.approx(2.0)

    def test_f_counts_every_selection_of_a_token(self):
        # k_route 2: each token selects both experts, so f is uniform
        trace = hand_trace([[[0, 1], [1, 0]]], [[0.5, 0.5]])
        assert load_balancing_loss(trace).item() == pytest.approx(1.0)

    def test_cancelling_skew_global_vs_per_layer(self):
        # layer 0 prefers expert 0, layer 1 prefers expert 1, symmetrically:
        # pooled usage is uniform, so the loss sits at its floor of 1 although
        # each layer alone is skewed
        trace = hand_trace([one_each([9, 1]), one_each([1, 9])],
                           [[0.9, 0.1], [0.1, 0.9]])
        assert load_balancing_loss(trace).item() == pytest.approx(1.0)

    def test_floor_property_when_f_equals_p(self):
        # N_E * sum p_i^2 >= 1 with equality iff uniform (Cauchy-Schwarz)
        for _ in range(50):
            counts = RNG.integers(1, 40, size=8)
            trace = hand_trace([one_each(counts)], [counts / counts.sum()], n_experts=8)
            assert load_balancing_loss(trace).item() >= 1.0 - 1e-12
        trace = hand_trace([one_each([3] * 8)], [np.full(8, 1 / 8)], n_experts=8)
        assert load_balancing_loss(trace).item() == pytest.approx(1.0)

    def test_empty_trace_raises(self):
        with pytest.raises(ConfigError):
            load_balancing_loss(RoutingTrace(n_experts=4, k_route=1))

    @pytest.mark.parametrize("lb_weight", [0.0, 0.01])
    def test_only_a_balancing_model_builds_p(self, lb_weight):
        model = MoEModel(tiny_config(lb_weight=lb_weight), seed=5)
        tokens = RNG.integers(0, 32, size=(2, 5))
        taped = model.forward(tokens, want_trace=True).trace
        with T.no_grad():
            free = model.forward(tokens, want_trace=True).trace
        for trace in (taped, free):
            assert [lt.p is None for lt in trace.layers] == [lb_weight == 0.0] * 2
        if lb_weight == 0.0:
            with pytest.raises(ConfigError):
                load_balancing_loss(taped)

    def test_forward_without_trace_builds_no_p(self, monkeypatch):
        # decoding (evaluate) forwards a balancing model without its trace
        model = MoEModel(tiny_config(), seed=5)
        tokens = RNG.integers(0, 32, size=(2, 5))
        balances = []
        real_route = model_mod.route

        def spy(x, router, k_route, balance):
            balances.append(balance)
            return real_route(x, router, k_route, balance)

        monkeypatch.setattr(model_mod, "route", spy)
        with T.no_grad():
            bare = model.forward(tokens).logits.data
        assert balances == [False, False]
        balances.clear()
        traced = model.forward(tokens, want_trace=True)
        assert balances == [True, True]
        assert all(lt.p is not None for lt in traced.trace.layers)
        assert bare.tobytes() == traced.logits.data.tobytes()

    def test_gradient_reaches_router(self):
        cfg = tiny_config()
        model = MoEModel(cfg, seed=5)
        out = model.forward(RNG.integers(0, 32, size=(2, 4)), want_trace=True)
        lb = load_balancing_loss(out.trace)
        model.registry.zero_grads()
        lb.backward()
        assert model.registry["layer0.router.w"].tensor.grad is not None


class TestTapeRelease:
    """forward_backward consumes its tape: what a step returns pins no graph."""

    def step(self, model):
        train, _ = make_task(TaskSpec("mod_add", seed=0, train_size=20, test_size=5))
        return forward_backward(model, next(iter_batches(train, 8, 1, seed=0)))

    def test_loss_and_p_keep_no_parents(self):
        model = MoEModel(tiny_config(lb_weight=0.01), seed=6)
        result = self.step(model)
        assert result.loss._parents is None
        assert [lt.p._parents for lt in result.trace.layers] == [None] * 2
        assert all(e.tensor._parents == [] for _, e in model.registry.items())

    def test_saved_arrays_die_with_the_step(self, monkeypatch):
        # the bank saves gelu's cdf for its backward; nothing after holds it
        saved = []
        real = T.normal_cdf

        def recording(x):
            out = real(x)
            saved.append(weakref.ref(out))
            return out

        monkeypatch.setattr(T, "normal_cdf", recording)
        result = self.step(MoEModel(tiny_config(lb_weight=0.01), seed=6))
        assert len(saved) == 2 and result.loss.item() > 0
        assert [ref() is None for ref in saved] == [True, True]


class TestLmLoss:
    def test_lb_weight_zero_is_pure_ce(self):
        model = MoEModel(tiny_config(lb_weight=0.0), seed=6)
        train, _ = make_task(TaskSpec("mod_add", seed=0, train_size=20, test_size=5))
        batch = next(iter_batches(train, 8, 1, seed=0))
        r0 = model.loss(batch)
        assert r0.loss.item() == pytest.approx(r0.ce, abs=0)
        assert r0.lb == 0.0
        # same weights at the default lb_weight: the same ce plus the term
        r1 = MoEModel(tiny_config(), seed=6).loss(batch)
        assert r1.ce == r0.ce and r1.lb > 0.0
        assert r1.loss.item() == pytest.approx(r1.ce + 0.01 * r1.lb, rel=1e-14)

    def test_untrained_ce_near_max_entropy(self):
        model = MoEModel(ModelConfig(lb_weight=0.0), seed=0)
        train, _ = make_task(TaskSpec("transduce", seed=1, train_size=40, test_size=8))
        batch = next(iter_batches(train, 16, 1, seed=0))
        assert model.loss(batch).ce == pytest.approx(np.log(32), abs=0.1)

    def test_loss_decreases_over_first_50_steps(self):
        # windowed means over a fixed held-out batch: strictly decreasing
        cfg = ModelConfig()
        model = MoEModel(cfg, seed=0)
        mix = [TaskSpec(k, seed=0) for k in ("mod_add", "transduce", "refusal")]
        combined = concat_datasets([make_task(s, cfg.max_seq)[0] for s in mix])
        fixed = next(iter_batches(combined, 64, 1, seed=99))
        opt = Adam(model.registry, 1e-3)
        vals = []
        stream = iter_batches(combined, 16, 5, seed=0)
        for _ in range(50):
            forward_backward(model, next(stream))
            opt.step()
            with T.no_grad():
                vals.append(model.loss(fixed).loss.item())
        windows = [np.mean(vals[i:i + 10]) for i in range(0, 50, 10)]
        assert all(b < a for a, b in zip(windows, windows[1:]))
        assert vals[-1] < vals[0]

    def test_nan_raises_numerical(self):
        cfg = tiny_config()
        model = MoEModel(cfg, seed=0)
        model.registry["head.w"].tensor.data[:] = np.nan
        train, _ = make_task(TaskSpec("mod_add", seed=0, train_size=20, test_size=5))
        batch = next(iter_batches(train, 4, 1, seed=0))
        with pytest.raises(NumericalError):
            model.loss(batch)


def full_forward_profile(model, ds, batch_size=16):
    """The oracle: record over full-width, full forwards' traces in row order."""
    c = model.config
    profile = ActivationProfile.empty(c.n_layers, c.n_experts)
    for lo in range(0, len(ds), batch_size):
        with T.no_grad():
            record(profile, model.forward(ds.tokens[lo:lo + batch_size],
                                          want_trace=True).trace)
    return profile


def hand_dataset(rows, width):
    """A dataset of token rows right-padded to width; targets and mask unused."""
    tokens = np.full((len(rows), width), PAD, dtype=np.int64)
    for i, row in enumerate(rows):
        tokens[i, :len(row)] = row
    return Dataset(tokens=tokens, targets=np.full_like(tokens, PAD),
                   loss_mask=np.zeros(tokens.shape, dtype=bool))


class TestRoutingPass:
    """profile_counts runs routing passes on length-sorted, trimmed batches."""

    def spied_profile(self, model, ds, batch_size, monkeypatch):
        """profile_counts of ds, and the (rows, width) of every routing pass."""
        shapes = []
        real = MoEModel.routing_trace

        def spy(self, tokens):
            shapes.append(tokens.shape)
            return real(self, tokens)

        monkeypatch.setattr(MoEModel, "routing_trace", spy)
        return profile_counts(model, ds, batch_size), shapes

    def check_oracle(self, model, got, ds):
        want = full_forward_profile(model, ds)
        assert got.counts.tobytes() == want.counts.tobytes()
        assert got.tokens_seen == want.tokens_seen
        got.check_conservation(model.config.k_route)

    def test_ragged_rows_in_batches_smaller_than_the_split(self, monkeypatch):
        model = MoEModel(tiny_config(), seed=0)
        train, _ = make_task(TaskSpec("transduce", seed=0, train_size=20,
                                      test_size=4, min_len=2, max_len=5))
        prof, shapes = self.spied_profile(model, train, 8, monkeypatch)
        self.check_oracle(model, prof, train)
        assert [n for n, _ in shapes] == [8, 8, 4]
        widths = [w for _, w in shapes]
        assert widths == sorted(widths) and widths[0] < train.tokens.shape[1]

    def test_split_without_pad_runs_full_width(self, monkeypatch):
        model = MoEModel(tiny_config(), seed=1)
        train, _ = make_task(TaskSpec("mod_add", seed=0, train_size=30, test_size=5))
        assert (train.tokens != PAD).all()
        prof, shapes = self.spied_profile(model, train, 8, monkeypatch)
        self.check_oracle(model, prof, train)
        assert prof.tokens_seen == train.tokens.size
        assert shapes == [(8, 4)] * 3 + [(6, 4)]

    def test_interior_pad_trims_at_the_last_content_position(self, monkeypatch):
        model = MoEModel(tiny_config(), seed=2)
        # lengths 4, 2, 0 (all PAD) and 6: interior PAD does not end a row
        ds = hand_dataset([[3, PAD, 5, 6], [4, 7], [], [1, PAD, PAD, 2, 9, 8]], 8)
        prof, shapes = self.spied_profile(model, ds, 2, monkeypatch)
        self.check_oracle(model, prof, ds)
        assert prof.tokens_seen == 3 + 2 + 4
        # sorted by length: (all PAD, len 2) then (len 4, len 6)
        assert shapes == [(2, 2), (2, 6)]

    def test_an_all_pad_batch_runs_no_pass(self, monkeypatch):
        model = MoEModel(tiny_config(), seed=2)
        ds = hand_dataset([[], [], [5, 6, 7]], 5)
        prof, shapes = self.spied_profile(model, ds, 2, monkeypatch)
        self.check_oracle(model, prof, ds)
        assert shapes == [(1, 3)]

    @pytest.mark.parametrize("n_layers", [1, 3])
    def test_pass_stops_at_the_last_router(self, n_layers, monkeypatch):
        model = MoEModel(tiny_config(n_layers=n_layers), seed=3)
        assert model.config.lb_weight > 0.0
        head = model.registry["head.w"].tensor
        calls = {"bank": 0, "head": 0, "balance": []}
        real_bank, real_route, real_matmul = (model_mod.routed_experts,
                                              model_mod.route, T.matmul)

        def bank(*args):
            calls["bank"] += 1
            return real_bank(*args)

        def route(x, router, k_route, balance):
            calls["balance"].append(balance)
            return real_route(x, router, k_route, balance)

        def matmul(a, b):
            calls["head"] += b is head
            return real_matmul(a, b)

        monkeypatch.setattr(model_mod, "routed_experts", bank)
        monkeypatch.setattr(model_mod, "route", route)
        monkeypatch.setattr(T, "matmul", matmul)
        train, _ = make_task(TaskSpec("transduce", seed=0, train_size=20,
                                      test_size=4, min_len=2, max_len=5))
        profile_counts(model, train, 8)
        assert calls == {"bank": 3 * (n_layers - 1), "head": 0,
                         "balance": [False] * 3 * n_layers}
        trace = model.routing_trace(train.tokens[:2])
        assert len(trace.layers) == n_layers
        assert all(lt.p is None for lt in trace.layers)
        # the counters see a full forward's bank calls and head matmul
        calls.update(bank=0, head=0, balance=[])
        with T.no_grad():
            model.forward(train.tokens[:2])
        assert (calls["bank"], calls["head"]) == (n_layers, 1)


class TestSites:
    @pytest.mark.parametrize("n_shared", [0, 2])
    def test_sites_are_the_layer_weights_their_names_spell(self, n_shared):
        model = MoEModel(tiny_config(n_shared=n_shared), seed=0)
        names = [name for name, _ in model.registry.items()]
        assert list(model.sites) == [n for n in names
                                     if n not in ("embed.tok", "embed.pos", "head.w")]
        kinds = {"attn": "attention", "router": "gate", "expert": "experts",
                 "shared": "shared"}
        for name, site in model.sites.items():
            layer, tag, index = re.fullmatch(r"layer(\d+)\.([a-z]+)(\d*)\.\w+", name).groups()
            assert site == (kinds[tag], int(layer),
                            int(index) if tag == "expert" else None), name
        # the layer loop's table names the same weights, in the same order
        assert [n for attn, router, experts, shared in model.layer_names
                for n in attn + [router] + [n for pair in experts + shared for n in pair]
                ] == list(model.sites)
        loaded = MoEModel(model.config, seed=1, state=model.registry.state_arrays())
        assert list(loaded.sites.items()) == list(model.sites.items())
        assert loaded.layer_names == model.layer_names


class TestDeterminism:
    def test_same_seed_same_weights_and_losses(self):
        cfg = tiny_config()
        spec = TaskSpec("mod_add", seed=0, train_size=32, test_size=8)
        r1 = pretrain_base(cfg, [spec], steps=10, seed=42)
        r2 = pretrain_base(cfg, [spec], steps=10, seed=42)
        assert r1.losses == r2.losses
        for name, entry in r1.model.registry.items():
            assert entry.tensor.data.tobytes() == \
                r2.model.registry[name].tensor.data.tobytes()

    def test_zero_steps_equals_seeded_init(self, tmp_path):
        cfg = tiny_config()
        spec = TaskSpec("transduce", seed=1, train_size=16, test_size=4)
        result = pretrain_base(cfg, [spec], steps=0, seed=7, out_dir=tmp_path)
        fresh = MoEModel(cfg, seed=7)
        from hotmoe.checkpoint import load_checkpoint
        saved = load_checkpoint(result.checkpoint_path)
        for name, entry in fresh.registry.items():
            assert saved[name].tobytes() == entry.tensor.data.tobytes()

    def test_forward_bitwise_repeatable(self):
        model = MoEModel(tiny_config(), seed=9)
        tokens = RNG.integers(0, 32, size=(3, 8))
        a = model.forward(tokens).logits.data
        b = model.forward(tokens).logits.data
        assert a.tobytes() == b.tobytes()


class TestPretrain:
    def test_empty_mixture_rejected(self):
        with pytest.raises(ConfigError):
            pretrain_base(tiny_config(), [], steps=1, seed=0)

    def test_profiles_emitted_per_task(self):
        cfg = tiny_config()
        specs = [TaskSpec("mod_add", seed=0, train_size=24, test_size=6),
                 TaskSpec("refusal", seed=0, train_size=24, test_size=6)]
        result = pretrain_base(cfg, specs, steps=5, seed=1)
        assert set(result.profiles) == {"mod_add", "refusal"}
        for counts in result.profiles.values():
            assert counts.shape == (cfg.n_layers, cfg.n_experts)
            # conservation: every token contributes k_route selections
            sums = counts.sum(axis=1)
            assert (sums == sums[0]).all() and sums[0] > 0

    def test_profile_counts_conservation(self):
        cfg = tiny_config()
        model = MoEModel(cfg, seed=0)
        train, _ = make_task(TaskSpec("mod_add", seed=0, train_size=30, test_size=5))
        prof = profile_counts(model, train, batch_size=8)
        # mod_add rows are "a b SEP c": packed four wide, no PAD positions
        assert prof.tokens_seen == 30 * 4
        prof.check_conservation(cfg.k_route)

    def test_profile_counts_skip_padding(self):
        cfg = tiny_config()
        model = MoEModel(cfg, seed=0)
        # ragged prompts (length 2..5) pack with PAD; only content counts
        train, _ = make_task(TaskSpec("transduce", seed=0, train_size=20,
                                      test_size=4, min_len=2, max_len=5))
        prof = profile_counts(model, train, batch_size=8)
        content = int((train.tokens != PAD).sum())
        assert prof.tokens_seen == content < train.tokens.size
        prof.check_conservation(cfg.k_route)

    def test_profile_counts_batch_invariant_on_pretrained_bases(self, pretrained,
                                                                task_splits):
        # pretrain_base profiles at its training batch (16); the counts it
        # reported before were taken at 64
        for seed, res in pretrained.items():
            for kind, (train, _) in task_splits.items():
                at_64 = profile_counts(res.model, train, 64).counts
                at_16 = profile_counts(res.model, train, 16).counts
                assert at_16.tobytes() == at_64.tobytes(), (seed, kind)
                assert res.profiles[kind].tobytes() == at_64.tobytes(), (seed, kind)

    def test_profile_counts_equal_full_forward_oracle_on_pretrained_bases(
            self, pretrained, task_splits):
        for seed, res in pretrained.items():
            for kind, splits in task_splits.items():
                for split, ds in zip(("train", "test"), splits):
                    want = full_forward_profile(res.model, ds)
                    got = profile_counts(res.model, ds, 16)
                    assert got.counts.tobytes() == want.counts.tobytes(), (seed, kind, split)
                    assert got.tokens_seen == want.tokens_seen, (seed, kind, split)

    def test_competence_stop(self):
        cfg = tiny_config()
        specs = [TaskSpec("mod_add", seed=0, train_size=24, test_size=6)]
        fixed = pretrain_base(cfg, specs, steps=40, seed=1)
        assert len(fixed.losses) == 40         # bar unset: exact step count
        # a bar below zero is beaten at the first check
        res = pretrain_base(cfg, specs, steps=40, seed=1,
                            competence_acc=-1.0, check_every=10)
        assert len(res.losses) == 10
        assert res.losses == fixed.losses[:10]  # same seeded stream
        # an unreachable bar runs to the cap
        capped = pretrain_base(cfg, specs, steps=15, seed=1,
                               competence_acc=1.1, check_every=10)
        assert len(capped.losses) == 15

