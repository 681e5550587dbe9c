"""Finite-difference gradient verification against the autodiff tape."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import tensor as T
from .registry import ParamRegistry
from .tensor import Tensor

_MACHINE_EPS = float(np.finfo(np.float64).eps)


@dataclass
class GradCheckReport:
    eps: float
    per_param: dict[str, float] = field(default_factory=dict)   # normwise err past round-off
    coords_checked: dict[str, int] = field(default_factory=dict)

    @property
    def max_rel_err(self) -> float:
        if not self.per_param:
            return 0.0
        return max(self.per_param.values())

    def passes(self, tol: float) -> bool:
        return self.max_rel_err < tol

    def format(self) -> str:
        lines = [f"gradcheck eps={self.eps:g} max_rel_err={self.max_rel_err:.3e}"
                 " (|g-n| past FD round-off over the param's max |g|)"]
        for name, err in self.per_param.items():
            lines.append(f"  {name}: err={err:.3e} coords={self.coords_checked[name]}")
        return "\n".join(lines)


def finite_diff_check(
    loss_fn: Callable[[], Tensor],
    registry: ParamRegistry,
    eps: float = 1e-5,
    max_coords_per_param: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare tape gradients with central differences on trainable coords.

    The error is allclose-style (an absolute plus a relative term, as in
    torch.autograd.gradcheck) and normwise per parameter. A central
    difference n = (f+ - f-)/(2 eps) cannot resolve a gradient below its
    own round-off floor tau = u * max(|f+|, |f-|, 1) / eps, u the float64
    machine epsilon. Each sampled coordinate therefore contributes only its
    excess over that floor, max(0, |g - n| - tau), divided by the
    parameter's scale, max(||g||_inf over its trainable coords, tau). The
    per-parameter error is the largest such ratio: a gradient off by a
    relative d at the parameter's largest coordinate reports about d.

    loss_fn must rebuild the loss from the registry's current tensors on
    every call (the perturbation loop mutates them in place). Masked-out
    coordinates are skipped and left out of the scale: the tape gives them
    a gradient like any other, but Adam never writes them.
    """
    if not 0.0 < eps <= 1e-3:
        raise ValueError(f"eps out of range: {eps}")
    registry.zero_grads()
    loss = loss_fn()
    loss.backward()
    report = GradCheckReport(eps=eps)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFD]))
    for name, entry in registry.trainable_items():
        data = entry.tensor.data
        grad = entry.tensor.grad
        if grad is None:
            grad = np.zeros_like(data)
        flat = data.reshape(-1)
        coords = np.arange(flat.size)
        if entry.mask is not None:
            coords = coords[entry.mask.reshape(-1)]
        if max_coords_per_param is not None and coords.size > max_coords_per_param:
            coords = rng.choice(coords, size=max_coords_per_param, replace=False)
            coords.sort()
        worst = 0.0
        gflat = grad.reshape(-1)
        live = gflat if entry.mask is None else gflat[entry.mask.reshape(-1)]
        g_scale = float(np.max(np.abs(live), initial=0.0))
        with T.no_grad():
            for idx in coords:
                keep = flat[idx]
                flat[idx] = keep + eps
                f_plus = loss_fn().item()
                flat[idx] = keep - eps
                f_minus = loss_fn().item()
                flat[idx] = keep
                numeric = (f_plus - f_minus) / (2.0 * eps)
                tau = _MACHINE_EPS * max(abs(f_plus), abs(f_minus), 1.0) / eps
                excess = max(0.0, abs(gflat[idx] - numeric) - tau)
                worst = max(worst, excess / max(g_scale, tau))
        report.per_param[name] = float(worst)
        report.coords_checked[name] = int(coords.size)
    return report
