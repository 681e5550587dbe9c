"""Adam over a ParamRegistry.

Freeze contract: frozen parameters are never visited; masked-off
coordinates are restored bitwise with np.where after the update, so no
arithmetic path can drift them.
"""

from __future__ import annotations

import numpy as np

from .registry import ParamRegistry

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, registry: ParamRegistry, lr: float):
        self.registry = registry
        self.lr = lr
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, entry in self.registry.trainable_items():
            p = entry.tensor
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if entry.mask is not None:
                g = np.where(entry.mask, g, 0.0)
            m = self._m.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(p.data)
                self._v[name] = np.zeros_like(p.data)
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            new = p.data - self.lr * m_hat / (np.sqrt(v_hat) + EPS)
            if entry.mask is not None:
                new = np.where(entry.mask, new, p.data)
            p.data = new
