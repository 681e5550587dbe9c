"""INI config parsing: strict keys, typed values, override plumbing."""

import pytest

from hotmoe.config import (FullConfig, TaskConfig, apply_overrides,
                           load_config, render_resolved)
from hotmoe.errors import ConfigError, IoError


def write(tmp_path, text):
    p = tmp_path / "c.cfg"
    p.write_text(text)
    return p


def test_none_path_gives_defaults():
    full = load_config(None)
    assert full == FullConfig()
    assert full.model.n_experts == 16
    assert full.run.lr == 4e-3
    assert full.pretrain.lr == 1e-3


def test_missing_file_is_io_error():
    with pytest.raises(IoError):
        load_config("/no/such/file.cfg")


def test_unknown_section_rejected(tmp_path):
    p = write(tmp_path, "[optimizer]\nlr = 0.1\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_unknown_empty_section_rejected(tmp_path):
    p = write(tmp_path, "[model]\nn_shared = 1\n\n[optimizer]\n")
    with pytest.raises(ConfigError, match="optimizer"):
        load_config(p)


def test_unknown_key_rejected(tmp_path):
    p = write(tmp_path, "[model]\nn_layerz = 4\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_bad_int_rejected(tmp_path):
    p = write(tmp_path, "[model]\nn_layers = four\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_bad_bool_rejected(tmp_path):
    p = write(tmp_path, "[run]\nattention = maybe\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_partial_sections_merge_with_defaults(tmp_path):
    p = write(tmp_path, "[model]\nn_shared = 2\nk_route = 3\n")
    full = load_config(p)
    assert full.model.n_shared == 2
    assert full.model.k_route == 3
    assert full.model.n_experts == 16     # untouched default
    assert full.run == FullConfig().run


def test_mixture_parsing_and_target_check(tmp_path):
    p = write(tmp_path, "[task]\nmixture = mod_add, refusal\ntarget = refusal\n")
    full = load_config(p)
    assert full.task.mixture == ("mod_add", "refusal")
    bad = write(tmp_path, "[task]\nmixture = mod_add\ntarget = refusal\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_unknown_mixture_kind_rejected():
    with pytest.raises(ConfigError):
        TaskConfig(mixture=("mod_add", "sorting"), target="mod_add")


def test_repeated_mixture_kind_rejected(tmp_path):
    # tasks are keyed by kind downstream, so a repeat would silently collapse
    with pytest.raises(ConfigError, match="repeated"):
        TaskConfig(mixture=("mod_add", "mod_add"), target="mod_add")
    p = write(tmp_path, "[task]\nmixture = mod_add, transduce, mod_add\n")
    with pytest.raises(ConfigError, match="repeated"):
        load_config(p)


def test_task_specs_share_sizes():
    tc = TaskConfig(train_size=50, test_size=10, modulus=9,
                    mixture=("mod_add", "transduce"), target="mod_add")
    specs = tc.specs()
    assert [s.kind for s in specs] == ["mod_add", "transduce"]
    assert all(s.train_size == 50 and s.test_size == 10 for s in specs)


def test_mod_add_sizes_capped_to_example_space():
    tc = TaskConfig(train_size=480, test_size=120, modulus=9,
                    mixture=("mod_add", "transduce"), target="mod_add")
    by_kind = {s.kind: s for s in tc.specs()}
    # 81 possible pairs: 80% to train, the remainder bounds test
    assert by_kind["mod_add"].train_size == 64
    assert by_kind["mod_add"].test_size == 17
    assert by_kind["transduce"].train_size == 480
    assert by_kind["transduce"].test_size == 120
    # defaults stay self-consistent
    default = {s.kind: s for s in TaskConfig().specs()}
    assert default["mod_add"].train_size + default["mod_add"].test_size \
        <= default["mod_add"].modulus ** 2


def test_apply_overrides_and_echo():
    full, applied = apply_overrides(FullConfig(), {"run.epochs": "7",
                                                   "model.d_ff": "128"})
    assert full.run.epochs == 7
    assert full.model.d_ff == 128
    assert applied == ["run.epochs=7", "model.d_ff=128"]


def test_apply_overrides_rejects_unknown():
    with pytest.raises(ConfigError):
        apply_overrides(FullConfig(), {"run.momentum": "0.9"})
    with pytest.raises(ConfigError):
        apply_overrides(FullConfig(), {"seed": "1"})


def test_render_round_trip(tmp_path):
    full, applied = apply_overrides(FullConfig(), {"run.seed": "3"})
    text = render_resolved(full, applied)
    p = write(tmp_path, text)
    assert load_config(p) == full
    assert text == render_resolved(full, applied)   # stable bytes
    assert "# override: run.seed=3" in text


def test_pretrain_validation():
    from hotmoe.config import PretrainConfig
    with pytest.raises(ConfigError):
        PretrainConfig(steps=-1)
    with pytest.raises(ConfigError):
        PretrainConfig(lr=0.0)


@pytest.mark.parametrize("key", ["n_layers", "d_model", "n_heads", "d_ff",
                                 "n_experts", "vocab", "max_seq"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_model_size_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        apply_overrides(FullConfig(), {f"model.{key}": value})


def test_negative_shared_experts_rejected():
    with pytest.raises(ConfigError, match="n_shared"):
        apply_overrides(FullConfig(), {"model.n_shared": "-1"})


def test_vocab_must_cover_task_tokens(tmp_path):
    with pytest.raises(ConfigError, match="vocab"):
        apply_overrides(FullConfig(), {"model.vocab": "31"})
    with pytest.raises(ConfigError, match="vocab"):
        load_config(write(tmp_path, "[model]\nvocab = 5\n"))
    full, _ = apply_overrides(FullConfig(), {"model.vocab": "32"})
    assert full.model.vocab == 32


@pytest.mark.parametrize("section", ["task", "run", "pretrain"])
def test_negative_seed_rejected(section):
    with pytest.raises(ConfigError, match="seed"):
        apply_overrides(FullConfig(), {f"{section}.seed": "-1"})
    full, _ = apply_overrides(FullConfig(), {f"{section}.seed": "0"})
    assert getattr(full, section).seed == 0


def test_plan_k_above_n_experts_rejected(tmp_path):
    with pytest.raises(ConfigError, match="plan_k"):
        apply_overrides(FullConfig(), {"run.plan_k": "17"})
    with pytest.raises(ConfigError, match="plan_k"):
        load_config(write(tmp_path, "[model]\nn_experts = 3\nk_route = 2\n"))
    full = load_config(write(tmp_path, "[model]\nn_experts = 3\nk_route = 2\n"
                                        "[run]\nplan_k = 3\n"))
    assert full.run.plan_k == full.model.n_experts == 3

