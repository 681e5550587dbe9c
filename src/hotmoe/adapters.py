"""Low-rank adapter schemes, their arithmetic, and their attachment to targets.

Every scheme computes h = xW + s*(xA)B, s = alpha/r, over the same (A, B)
pair shape; a scheme decides only what trains:

  lora    A and B trainable
  lori_d  A frozen at its random init, B dense-trainable
  lori_s  A frozen, B trainable only on a fixed bool mask built from the
          magnitudes of a prior lori_d run's B; the optimizer alone keeps
          B at its zero init off the mask

B always starts at zero, so a freshly adapted model computes bit-identical
outputs to the base model. Cold experts get no adapter objects at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantViolation
from .tensor import Tensor, _unbroadcast

SCHEME_NAMES = ("lora", "lori_d", "lori_s")
EXPERT_MODES = ("all", "plan", "none")


@dataclass
class Scheme:
    name: str
    rho: float = 0.10  # lori_s trainable density on B

    def __post_init__(self):
        if self.name not in SCHEME_NAMES:
            raise ConfigError(f"unknown adapter scheme: {self.name}")
        if not 0.0 < self.rho <= 1.0:
            raise ConfigError(f"sparsity density out of (0,1]: {self.rho}")


@dataclass(frozen=True)
class TargetSet:
    attention: bool = True
    gate: bool = True
    experts: str = "plan"  # all | plan | none

    def __post_init__(self):
        if self.experts not in EXPERT_MODES:
            raise ConfigError(f"unknown expert target mode: {self.experts}")
        if not (self.attention or self.gate or self.experts != "none"):
            raise ConfigError("target set enables nothing")


@dataclass
class AdapterPair:
    A: Tensor                      # d_in x r, r the rank
    B: Tensor                      # r x d_out
    alpha: float
    mask: np.ndarray | None = None  # bool r x d_out, fixed for the pair's lifetime
    scheme: str = ""               # lora | lori_d | lori_s, set by attach

    def __post_init__(self):
        d_in, d_out = self.A.shape[0], self.B.shape[1]
        if self.r > min(d_in, d_out):
            raise ConfigError(f"rank {self.r} exceeds min(d_in={d_in}, d_out={d_out})")
        if self.B.shape[0] != self.r:
            raise InvariantViolation("adapter pair shape mismatch")
        if self.mask is not None:
            self.mask = np.asarray(self.mask)
            if self.mask.dtype != np.bool_ or self.mask.shape != self.B.shape:
                raise InvariantViolation("adapter mask must be bool with B's shape")

    @property
    def r(self) -> int:
        return self.A.shape[1]

    @property
    def scale(self) -> float:
        return self.alpha / self.r


def adapted_forward(inp: np.ndarray, pair: AdapterPair, out: np.ndarray) -> np.ndarray:
    """Add the adapter term s * (inp A) B into out, which holds inp @ W,
    and return inp A for adapted_backward."""
    xa = inp @ pair.A.data
    out += (xa @ pair.B.data) * pair.scale
    return xa


def adapted_backward(g_out: np.ndarray, inp: np.ndarray, pair: AdapterPair,
                     xa: np.ndarray, want_in: bool) -> tuple[np.ndarray | None, list]:
    """Backward of adapted_forward for out's gradient g_out: (the adapter's
    term of inp's gradient if want_in, else None; [A's gradient, B's
    gradient]), None for a tensor that does not require one."""
    g_t = g_out * pair.scale
    g_B = _unbroadcast(xa.swapaxes(-1, -2) @ g_t, pair.B.shape) if pair.B.requires_grad else None
    if not (want_in or pair.A.requires_grad):
        return None, [None, g_B]
    g_xa = g_t @ pair.B.data.swapaxes(-1, -2)
    g_A = _unbroadcast(inp.swapaxes(-1, -2) @ g_xa, pair.A.shape) if pair.A.requires_grad else None
    return (g_xa @ pair.A.data.swapaxes(-1, -2) if want_in else None), [g_A, g_B]


def build_mask(b_ref: np.ndarray, rho: float) -> np.ndarray:
    """Top-ceil(rho*numel) |entries| of b_ref; ties go to the lower flat index."""
    if not 0.0 < rho <= 1.0:
        raise ConfigError(f"sparsity density out of (0,1]: {rho}")
    flat = np.abs(np.asarray(b_ref, dtype=np.float64).reshape(-1))
    count = math.ceil(rho * flat.size)
    order = np.argsort(-flat, kind="stable")
    mask = np.zeros(flat.size, dtype=bool)
    mask[order[:count]] = True
    return mask.reshape(np.asarray(b_ref).shape)


def _target_sites(model, targets: TargetSet, plan) -> list[str]:
    """The weight names of every adapter target, in model.sites' order; the
    shared experts are always active, so they are adapted with any experts."""
    wanted = {"attention": targets.attention, "gate": targets.gate,
              "experts": targets.experts != "none", "shared": targets.experts != "none"}
    return [name for name, (kind, layer, expert) in model.sites.items()
            if wanted[kind] and (kind != "experts" or targets.experts == "all"
                                 or expert in plan.hot[layer])]


def attach(model, targets: TargetSet, plan, scheme: Scheme, r: int, alpha: float,
           seed: int, masks: dict[str, np.ndarray] | None = None):
    """Create zero-update adapters on the designated targets, or none: every
    site's pair is built and checked (rank bound, lori_s mask present, bool
    and of B's shape) before the first one is registered.

    masks: required for lori_s — target name -> bool mask over B, normally
    produced by build_mask on a lori_d run's B tensors.
    """
    if model.adapters:
        raise InvariantViolation("model already has adapters attached")
    if targets.experts == "plan":
        if plan is None:
            raise ConfigError("experts=plan requires a placement plan")
        plan.check_fits(model.config.n_layers, model.config.n_experts)
    if scheme.name == "lori_s" and masks is None:
        raise ConfigError("lori_s needs masks built from a prior lori_d run")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xADA]))
    pairs: dict[str, AdapterPair] = {}
    for name in _target_sites(model, targets, plan):
        if scheme.name == "lori_s" and name not in masks:
            raise ConfigError(f"lori_s mask missing for target {name}")
        d_in, d_out = model.registry[name].tensor.shape
        pairs[name] = AdapterPair(
            A=Tensor(rng.normal(0.0, 0.02, size=(d_in, r))),
            B=Tensor(np.zeros((r, d_out))), alpha=alpha,
            mask=masks[name] if scheme.name == "lori_s" else None,
            scheme=scheme.name)
    # every site passed its checks, so a refusal above left the model as it was
    for name, pair in pairs.items():
        model.registry.add(f"{name}.adapter.A", pair.A, trainable=False)
        model.registry.add(f"{name}.adapter.B", pair.B, trainable=False)
    model.adapters.update(pairs)
    return model


def set_trainability(model, scheme: Scheme):
    """Freeze the base model; open each pair's adapter params according to
    the scheme attach gave it, which `scheme` must name."""
    for target, pair in model.adapters.items():
        if pair.scheme != scheme.name:
            raise InvariantViolation(
                f"adapter on {target} was attached as {pair.scheme}, not {scheme.name}")
    reg = model.registry
    for name, _ in reg.items():
        reg.set_trainable(name, False)
    for target, pair in model.adapters.items():
        if pair.scheme == "lora":
            reg.set_trainable(f"{target}.adapter.A", True)
        reg.set_trainable(f"{target}.adapter.B", True)
        if pair.mask is not None:
            reg.set_mask(f"{target}.adapter.B", pair.mask)
    return reg
