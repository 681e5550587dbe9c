"""INI config parsing: strict keys, typed values, override plumbing."""

import configparser
from dataclasses import fields
from pathlib import Path

import pytest

from hotmoe.config import (FullConfig, TaskConfig, apply_overrides,
                           load_config, render_resolved)
from hotmoe.errors import ConfigError, IoError
from hotmoe.model import ModelConfig
from hotmoe.tasks import PAD


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


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nrank = 99\n",                  # was ignored: rank stayed 4
    "[DEFAULT]\nseed = 3\n\n[run]\nrank = 2\n",  # was run.seed = 3
    "[DEFAULT]\nbogus = 1\n",                  # was "unknown key in [task]"
], ids=["alone", "next-to-run", "unknown-key"])
def test_default_section_rejected(tmp_path, text):
    # configparser mixes [DEFAULT]'s keys into every section it reads
    p = write(tmp_path, text)
    with pytest.raises(ConfigError, match=r"^unknown config section: \[DEFAULT\]$"):
        load_config(p)


def test_empty_default_section_sets_nothing(tmp_path):
    assert load_config(write(tmp_path, "[DEFAULT]\n\n[run]\nrank = 2\n")) == \
        apply_overrides(FullConfig(), {"run.rank": "2"})[0]


def test_unknown_key_rejected(tmp_path):
    # keys are case-sensitive in a file as in --set: N_layers is not n_layers
    for text in ("[model]\nn_layerz = 4\n", "[model]\nN_layers = 4\n"):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write(tmp_path, text))


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
                                 "n_experts"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_model_size_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        apply_overrides(FullConfig(), {f"model.{key}": value})


def test_negative_shared_experts_rejected():
    with pytest.raises(ConfigError, match="n_shared"):
        apply_overrides(FullConfig(), {"model.n_shared": "-1"})


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
    # rank 3: the default 4 does not fit the (d_model, 3) gate
    full = load_config(write(tmp_path, "[model]\nn_experts = 3\nk_route = 2\n"
                                        "[run]\nplan_k = 3\nrank = 3\n"))
    assert full.run.plan_k == full.model.n_experts == 3



@pytest.mark.parametrize("path", sorted(
    (Path(__file__).parent.parent / "configs").glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_config_loads(path):
    # a key dropped from the schema but left in a shipped config fails here
    assert isinstance(load_config(path), FullConfig)


def test_rank_bounded_by_the_smallest_adapted_weight():
    tiny = {"model.d_model": "8", "model.n_heads": "2", "model.d_ff": "12",
            "model.n_experts": "4", "model.k_route": "2", "run.plan_k": "2"}
    # the gate is (d_model, n_experts): adapted when gate is set, and by a
    # trained warm-up whatever gate says
    for extra in ({}, {"run.gate": "false"}):
        with pytest.raises(ConfigError, match="rank 5 exceeds"):
            apply_overrides(FullConfig(), {**tiny, **extra, "run.rank": "5"})
        apply_overrides(FullConfig(), {**tiny, **extra, "run.rank": "4"})
    # without either, min(d_model, d_ff) = 8 bounds it
    bare = {**tiny, "run.gate": "false", "run.warmup_forward_only": "true"}
    full, _ = apply_overrides(FullConfig(), {**bare, "run.rank": "8"})
    assert full.run.rank == 8
    with pytest.raises(ConfigError, match="rank 9 exceeds"):
        apply_overrides(FullConfig(), {**bare, "run.rank": "9"})
    with pytest.raises(ConfigError, match="rank 13 exceeds"):
        apply_overrides(FullConfig(), {**bare, "model.d_model": "16",
                                       "run.rank": "13"})


def test_warmup_pct_must_select_a_row_of_every_train_split():
    # 40 rows: 1.25% rounds to 0.5 -> 0 (round half to even), 1.3% to 1
    sizes = {"task.train_size": "40", "task.mixture": "transduce,refusal",
             "task.target": "transduce"}
    with pytest.raises(ConfigError, match="selects 0 of the 40 transduce"):
        apply_overrides(FullConfig(), {**sizes, "run.warmup_pct": "1.25"})
    full, _ = apply_overrides(FullConfig(), {**sizes, "run.warmup_pct": "1.3"})
    assert full.run.warmup_pct == 1.3
    # a non-target task's split counts too: mod_add's is capped at 0.8 * 5**2
    with pytest.raises(ConfigError, match="selects 0 of the 20 mod_add"):
        apply_overrides(FullConfig(), {"task.modulus": "5", "run.warmup_pct": "2"})


def test_default_cfg_lists_every_key():
    # the README points to configs/default.cfg for the full set of keys
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(Path(__file__).resolve().parent.parent / "configs" / "default.cfg")
    sections = {f.name: f.default_factory for f in fields(FullConfig)}
    assert parser.sections() == list(sections)
    for name, cls in sections.items():
        assert list(parser[name]) == [f.name for f in fields(cls)], name


def test_default_cfg_is_the_built_in_defaults():
    # `hotmoe pretrain` without --config trained a fixed 2000 steps while
    # the file stops at competence within a 3000-step cap
    path = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"
    assert load_config(path) == load_config(None)


def test_model_sizes_fixed_by_the_tasks_are_constants():
    cfg = ModelConfig(n_layers=1)
    assert (cfg.vocab, cfg.max_seq) == (PAD + 1, 16)
    assert not {"vocab", "max_seq"} & {f.name for f in fields(ModelConfig)}
