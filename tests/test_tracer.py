"""The benchmark's span tracer still finds every hotmoe name it wraps.

perfbench/tracing.py wraps hotmoe functions by name: every tape op in
hotmoe.tensor (index_add_rows among them, though the model no longer
calls it), the model, pipeline, optimizer and checkpoint entry points. A name renamed or deleted in src/ makes a traced benchmark
run fail with KeyError. This installs the tracer on the live modules, runs
a two-step pretrain and one adapted fine-tune step under it, derives the
per-pass statistics, and checks that uninstalling puts every original
back. The fine-tune step guards that model.adapted_forward, which the
tracer wraps by name, is what adds the adapter terms.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import hotmoe.checkpoint
import hotmoe.model
import hotmoe.optim
import hotmoe.pipeline
import hotmoe.tensor
from hotmoe.adapters import Scheme, TargetSet, attach, set_trainability
from hotmoe.model import ModelConfig
from hotmoe.tasks import TaskSpec, iter_batches, make_task

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_runs_and_uninstalls():
    tracing = load_tracing()
    hm = SimpleNamespace(tensor=hotmoe.tensor, model=hotmoe.model,
                         pipeline=hotmoe.pipeline, optim=hotmoe.optim,
                         checkpoint=hotmoe.checkpoint)
    owners = [hm.tensor, hm.tensor.Tensor, hm.model, hm.model.MoEModel,
              hm.model.RoutingTrace, hm.pipeline, hm.optim.Adam, hm.checkpoint]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracer.install(hm)
    try:
        assert hm.tensor.gelu is not before[0]["gelu"]
        cfg = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=12,
                          n_experts=4, k_route=2)
        spec = TaskSpec(kind="mod_add", seed=0, train_size=8, test_size=4, modulus=5)
        base = hm.model.pretrain_base(cfg, [spec], steps=2, seed=0, batch_size=4)
        spans = tracer.reset()
        attach(base.model, TargetSet(True, True, "all"), None, Scheme("lora"), r=2,
               alpha=4.0, seed=0)
        set_trainability(base.model, Scheme("lora"))
        batch = next(iter_batches(make_task(spec, cfg.max_seq)[0], 4, 1, 0))
        hm.model.forward_backward(base.model, batch)
        hm.optim.Adam(base.model.registry, 1e-3).step()
    finally:
        tracer.uninstall()
    finetune = tracer.reset()
    names = {span[0] for span in spans}
    assert {"pretrain_base", "forward_backward", "Tensor.backward",
            "MoEModel.forward", "Adam.step", "matmul"} <= names
    stats = tracing.pass_stats(spans)
    assert len(stats["samples"]["step_ms"]) == 2
    calls = sum(span[0] == "adapted_forward" for span in finetune)
    assert calls > 0
    assert tracing.pass_stats(finetune)["counts"][
        "adapters.adapted_forward_calls_per_step"] == calls
    for owner, old in zip(owners, before):
        now = vars(owner)
        assert now.keys() == old.keys()
        assert all(now[name] is old[name] for name in old), owner
