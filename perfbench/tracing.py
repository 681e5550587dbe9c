"""Outside-in span tracer for the hotmoe benchmark.

The tracer wraps public functions of the hotmoe modules at the place each
name is looked up, records one span per call (name, start, end, parent id
and an optional payload) in memory, and puts every original back when it
is uninstalled. Nothing inside the program changes. The per-layer metrics
are derived from the spans after the traced pass is over.
"""

from __future__ import annotations

import os
import time
import weakref

# Functions in hotmoe.tensor that put a node on the tape. tmean is left out:
# it is tsum followed by mul, and both of those are counted.
TAPE_OPS = ("add", "sub", "mul", "div", "power", "exp", "log", "gelu",
            "reshape", "swapaxes", "tsum", "matmul", "softmax", "log_softmax",
            "gather_rows", "take_along_last", "gather_pairs", "index_add_rows")

# Op kinds reported one by one per train step.
COUNTED_OPS = ("matmul", "gelu", "gather_rows", "gather_pairs",
               "index_add_rows", "take_along_last", "softmax")

# Span name -> layer, for the self-time table.
LAYER_OF = {op: "tensor" for op in TAPE_OPS}
LAYER_OF.update({
    "Tensor.backward": "tensor",
    "MoEModel.forward": "model", "MoEModel.loss": "model",
    "forward_backward": "model", "route_topk": "model",
    "RoutingTrace.merge": "model", "pretrain_base": "model",
    "Adam.step": "optim",
    "evaluate": "tasks", "make_task": "tasks",
    "attach": "adapters", "adapted_forward": "adapters",
    "record": "profiler", "select": "profiler",
    "run_end_to_end": "pipeline", "run_warmup": "pipeline",
    "finetune": "pipeline", "frozen_param_hashes": "pipeline",
    "adapter_flops": "accounting", "count_params": "accounting",
    "exec_counters": "accounting",
    "save_checkpoint": "checkpoint", "load_checkpoint": "checkpoint",
})

# Counts that must repeat exactly for one seed and one program version.
EXACT_COUNTS = (
    ["tensor.ops_per_step"]
    + [f"tensor.ops_per_step.{op}" for op in COUNTED_OPS]
    + ["tensor.ops_per_nograd_forward", "model.forward_nograd_calls",
       "model.route_topk_calls", "tasks.evaluate_calls",
       "tasks.evaluate_useful_ratio", "optim.trainable_coords",
       "adapters.adapted_forward_calls_per_step", "checkpoint.bytes"])


class Tracer:
    """Patches hotmoe's public functions and records their calls as spans.

    A span is a tuple (name, start_ns, end_ns, parent, info). Span ids are
    list positions and a parent is always opened before its children, so
    a parent's id is lower than its children's.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._optimizers: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def reset(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, info=None):
        stack, clock = self._stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, None)
            if info is not None:
                spans[sid] = (name, t0, t1, parent, info(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, name, info=None):
        original = owner.__dict__[attr]
        if isinstance(original, staticmethod):
            wrapped = staticmethod(self._wrap(name, original.__func__, info))
        else:
            wrapped = self._wrap(name, original, info)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self, hm) -> None:
        """Wrap every traced name; hm holds the hotmoe modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        tensor, model, pipeline = hm.tensor, hm.model, hm.pipeline
        for op in TAPE_OPS:
            self._patch(tensor, op, op)
        self._patch(tensor.Tensor, "backward", "Tensor.backward")

        def forward_info(args, _result):
            return (tensor.grad_enabled(), int(args[1].size))

        self._patch(model.MoEModel, "forward", "MoEModel.forward", forward_info)
        self._patch(model.MoEModel, "loss", "MoEModel.loss")
        self._patch(model.RoutingTrace, "merge", "RoutingTrace.merge")
        self._patch(hm.optim.Adam, "step", "Adam.step", self._adam_info)
        for mod in (model, pipeline):
            self._patch(mod, "evaluate", "evaluate",
                        lambda args, _r: int(args[1].loss_mask.sum()))
            self._patch(mod, "forward_backward", "forward_backward")
            self._patch(mod, "make_task", "make_task")
        for name in ("adapted_forward", "route_topk", "pretrain_base"):
            self._patch(model, name, name)
        self._patch(model, "save_checkpoint", "save_checkpoint",
                    lambda args, _r: os.path.getsize(args[0]))
        self._patch(hm.checkpoint, "load_checkpoint", "load_checkpoint")
        for name in ("record", "select", "adapter_flops", "count_params",
                     "exec_counters", "attach", "run_warmup", "finetune",
                     "frozen_param_hashes", "run_end_to_end"):
            self._patch(pipeline, name, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _adam_info(self, args, _result):
        """Trainable coordinates, reported once per optimizer object."""
        opt = args[0]
        if opt in self._optimizers:
            return None
        self._optimizers[opt] = True
        return opt.registry.n_trainable()


# -- deriving the metrics -------------------------------------------------------

_MARKERS = ("forward_backward", "MoEModel.forward", "evaluate", "finetune")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _median(values: list[float]) -> float:
    return percentile(values, 50.0)


def self_times(spans: list) -> dict[str, dict]:
    """Per span name: calls, total ms and self ms (span minus its children)."""
    child_ns = [0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    table: dict[str, dict] = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        row = table.setdefault(name, {"layer": LAYER_OF.get(name, "?"),
                                      "calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (t1 - t0) / 1e6
        row["self_ms"] += (t1 - t0 - child_ns[i]) / 1e6
    return table


def pass_stats(spans: list) -> dict:
    """Samples, per-pass totals and exact counts of one traced pass."""
    n = len(spans)
    anc = {m: [-1] * n for m in _MARKERS}   # nearest marker ancestor-or-self
    by_name: dict[str, list[int]] = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        for m in _MARKERS:
            a = anc[m]
            a[i] = i if name == m else (a[parent] if parent >= 0 else -1)

    def dur(i):
        return (spans[i][2] - spans[i][1]) / 1e9

    def ids(name):
        return by_name.get(name, [])

    roots = [i for i in ids("pretrain_base") + ids("run_end_to_end") if spans[i][3] < 0]
    pass_s = sum(dur(i) for i in roots)

    steps_ms, pending = [], None
    for name, t0, t1, _, _ in spans:
        if name == "forward_backward":
            pending = t1 - t0
        elif name == "Adam.step" and pending is not None:
            steps_ms.append((pending + t1 - t0) / 1e6)
            pending = None

    step_ops = {op: 0 for op in COUNTED_OPS}
    step_ops_total = 0
    nograd_ops = 0
    forwards = ids("MoEModel.forward")
    nograd = {i for i in forwards if not spans[i][4][0]}
    for op in TAPE_OPS:
        for i in ids(op):
            if anc["forward_backward"][i] >= 0:
                step_ops_total += 1
                if op in step_ops:
                    step_ops[op] += 1
            if anc["MoEModel.forward"][i] in nograd:
                nograd_ops += 1
    adapted_in_step = sum(1 for i in ids("adapted_forward")
                          if anc["forward_backward"][i] >= 0)

    evals = ids("evaluate")
    eval_s = sum(dur(i) for i in evals)
    answers = sum(spans[i][4] for i in evals)
    forwarded = sum(spans[i][4][1] for i in forwards
                    if anc["evaluate"][i] >= 0)
    finetune_s = sum(dur(i) for i in ids("finetune"))
    eval_in_finetune = sum(dur(i) for i in evals if anc["finetune"][i] >= 0)
    saves = ids("save_checkpoint")
    coords = [spans[i][4] for i in ids("Adam.step") if spans[i][4] is not None]
    n_steps = max(len(ids("forward_backward")), 1)

    def total_ms(name):
        return sum(dur(i) for i in ids(name)) * 1e3

    return {
        "pass_s": pass_s,
        "samples": {
            "backward_ms": [dur(i) * 1e3 for i in ids("Tensor.backward")],
            "step_ms": steps_ms,
            "loss_ms": [dur(i) * 1e3 for i in ids("MoEModel.loss")],
            "forward_nograd_ms": [dur(i) * 1e3 for i in sorted(nograd)],
            "adam_ms": [dur(i) * 1e3 for i in ids("Adam.step")],
            "save_ms": [dur(i) * 1e3 for i in saves],
            "load_ms": [dur(i) * 1e3 for i in ids("load_checkpoint")],
        },
        "totals": {
            "model.route_topk_s": total_ms("route_topk") / 1e3,
            "model.trace_merge_ms": total_ms("RoutingTrace.merge"),
            "model.step_share_pct": 100.0 * sum(steps_ms) / 1e3 / pass_s if pass_s else 0.0,
            "tasks.evaluate_s": eval_s,
            "tasks.answers_per_s": answers / eval_s if eval_s else 0.0,
            "tasks.make_task_ms": total_ms("make_task"),
            "tasks.evaluate_share_pct": 100.0 * eval_s / pass_s if pass_s else 0.0,
            "adapters.attach_ms": total_ms("attach"),
            "profiler.record_ms": total_ms("record"),
            "profiler.select_ms": total_ms("select"),
            "pipeline.run_warmup_s": total_ms("run_warmup") / 1e3,
            "pipeline.finetune_self_s": finetune_s - eval_in_finetune,
            "pipeline.frozen_hash_ms": total_ms("frozen_param_hashes"),
            "accounting.adapter_flops_ms": total_ms("adapter_flops"),
            "accounting.count_params_ms": total_ms("count_params"),
            "accounting.exec_counters_ms": total_ms("exec_counters"),
        },
        "counts": {
            "tensor.ops_per_step": step_ops_total / n_steps,
            **{f"tensor.ops_per_step.{op}": c / n_steps for op, c in step_ops.items()},
            "tensor.ops_per_nograd_forward": nograd_ops / len(nograd) if nograd else 0.0,
            "model.forward_nograd_calls": len(nograd),
            "model.route_topk_calls": len(ids("route_topk")),
            "tasks.evaluate_calls": len(evals),
            "tasks.evaluate_useful_ratio": answers / forwarded if forwarded else 0.0,
            "optim.trainable_coords": sum(coords),
            "adapters.adapted_forward_calls_per_step": adapted_in_step / n_steps,
            "checkpoint.bytes": sum(spans[i][4] for i in saves),
        },
    }


def layer_metrics(setup_spans: list, passes: list[dict],
                  untraced_s: list[float], traced_s: list[float]) -> dict[str, float]:
    """Per-layer metrics from the traced setup and the traced passes' stats.

    Per-call timings pool their samples over every traced pass; per-pass
    totals take the median over traced passes; exact counts come from the
    first traced pass (the caller checks that the others agree).
    checkpoint.save_ms times the write a pass makes (adapted.ckpt, or
    base.ckpt for pretrain); checkpoint.load_ms times loading a base
    checkpoint (in set-up, or pretrain's check of its base.ckpt).
    """
    setup_loads = [(t1 - t0) / 1e6 for name, t0, t1, _, _ in setup_spans
                   if name == "load_checkpoint"]

    def pooled(key):
        return [v for p in passes for v in p["samples"][key]]

    out = {
        "tensor.backward_ms_p50": percentile(pooled("backward_ms"), 50),
        "tensor.backward_ms_p90": percentile(pooled("backward_ms"), 90),
        "model.step_ms_p50": percentile(pooled("step_ms"), 50),
        "model.step_ms_p90": percentile(pooled("step_ms"), 90),
        "model.loss_ms_p50": percentile(pooled("loss_ms"), 50),
        "model.forward_nograd_ms_p50": percentile(pooled("forward_nograd_ms"), 50),
        "optim.adam_step_ms_p50": percentile(pooled("adam_ms"), 50),
        "checkpoint.save_ms": _median(pooled("save_ms")),
        "checkpoint.load_ms": _median(setup_loads or pooled("load_ms")),
    }
    for key in passes[0]["totals"]:
        out[key] = _median([p["totals"][key] for p in passes])
    out.update(passes[0]["counts"])
    out["trace.overhead_pct"] = 100.0 * (_median(traced_s) / _median(untraced_s) - 1.0)
    return out
