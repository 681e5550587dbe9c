"""Adam over a ParamRegistry.

The trainable set is fixed when the optimizer is built: every trainable
tensor's data becomes a view into one flat float64 buffer, beside flat
buffers for the moments, and `step` updates that buffer in place, one
cache-sized chunk at a time, with the per-tensor update expression.

Freeze contract: frozen parameters are not in the buffer, and masked-off
coordinates are never written: the final subtraction runs under the
mask, and their moments are kept but never read. After construction,
replacing a trainable tensor's data (as `load_state` does) or changing
which tensors are trainable or masked makes the next `step` raise
InvariantViolation instead of updating a stale buffer.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation
from .registry import ParamRegistry

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
CHUNK = 1 << 16    # coordinates per pass, so one chunk's operands stay in cache


class Adam:
    def __init__(self, registry: ParamRegistry, lr: float):
        self.registry = registry
        self.lr = lr
        self.t = 0
        items = list(registry.trainable_items())
        tensors = [entry.tensor for _, entry in items]
        sizes = [p.size for p in tensors]
        self._p = np.concatenate([np.empty(0)] + [p.data.ravel() for p in tensors])
        self._g = np.empty_like(self._p)
        self._m = np.zeros_like(self._p)
        self._v = np.zeros_like(self._p)
        self._a = np.empty(min(self._p.size, CHUNK))
        self._b = np.empty_like(self._a)
        self._zeros = np.zeros(max(sizes, default=0))
        self._keep = None
        if any(entry.mask is not None for _, entry in items):
            self._keep = np.concatenate([
                np.ones(size, dtype=bool) if entry.mask is None else entry.mask.ravel()
                for (_, entry), size in zip(items, sizes)])
        offsets = np.cumsum([0] + sizes)
        for p, lo, hi in zip(tensors, offsets, offsets[1:]):
            p.data = self._p[lo:hi].reshape(p.shape)
        # what the buffers were built from; step checks the registry still holds it
        self._built = [(name, entry, entry.tensor.data, entry.mask) for name, entry in items]

    def _check_unchanged(self) -> None:
        live = list(self.registry.trainable_items())
        for (name, entry), (_, old, data, mask) in zip(live, self._built):
            if entry is not old or entry.tensor.data is not data or entry.mask is not mask:
                raise InvariantViolation(
                    f"parameter {name} changed since the optimizer was built")
        if len(live) != len(self._built):
            raise InvariantViolation("the trainable set changed since the optimizer was built")

    def step(self) -> None:
        self._check_unchanged()
        n = self._p.size
        if n == 0:
            return
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        np.concatenate([entry.tensor.grad.ravel() if entry.tensor.grad is not None
                        else self._zeros[:entry.tensor.size]
                        for _, entry, _, _ in self._built], out=self._g)
        for lo in range(0, n, CHUNK):
            hi = min(lo + CHUNK, n)
            p, g = self._p[lo:hi], self._g[lo:hi]
            m, v = self._m[lo:hi], self._v[lo:hi]
            a, b = self._a[:hi - lo], self._b[:hi - lo]
            keep = True if self._keep is None else self._keep[lo:hi]
            # m = BETA1 m + (1 - BETA1) g; v = BETA2 v + (1 - BETA2) g g
            m *= BETA1
            np.multiply(1.0 - BETA1, g, out=a)
            m += a
            v *= BETA2
            np.multiply(1.0 - BETA2, g, out=a)
            a *= g
            v += a
            # p = p - lr (m / bc1) / (sqrt(v / bc2) + EPS), left to right
            np.divide(m, bc1, out=a)
            np.multiply(self.lr, a, out=a)
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += EPS
            a /= b
            np.subtract(p, a, out=p, where=keep)
