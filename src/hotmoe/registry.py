"""Named parameter registry with trainability flags and update masks.

The registry is the single source of truth for what the optimizer may
touch. Frozen tensors and masked-out coordinates carry a bitwise
preservation guarantee that the optimizer enforces via the mask, so the
invariants here are checked eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InvariantViolation
from .tensor import Tensor


@dataclass
class ParamEntry:
    tensor: Tensor
    mask: np.ndarray | None = None  # bool, True = coordinate may update

    @property
    def trainable(self) -> bool:
        """The tensor's requires_grad: the bit the tape reads."""
        return self.tensor.requires_grad

    @property
    def n_trainable(self) -> int:
        """Coordinates the optimizer may update."""
        if not self.trainable:
            return 0
        return int(self.mask.sum()) if self.mask is not None else self.tensor.size


class ParamRegistry:
    def __init__(self) -> None:
        self._entries: dict[str, ParamEntry] = {}

    def add(self, name: str, tensor: Tensor, trainable: bool = True) -> Tensor:
        if name in self._entries:
            raise InvariantViolation(f"duplicate parameter name: {name}")
        if any(ch.isspace() for ch in name):
            raise InvariantViolation(f"parameter name contains whitespace: {name!r}")
        self._entries[name] = ParamEntry(tensor=tensor)
        tensor.requires_grad = trainable
        return tensor

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> ParamEntry:
        return self._entries[name]

    def items(self) -> Iterator[tuple[str, ParamEntry]]:
        return iter(self._entries.items())

    def trainable_items(self) -> Iterator[tuple[str, ParamEntry]]:
        return ((n, e) for n, e in self._entries.items() if e.trainable)

    def set_trainable(self, name: str, flag: bool) -> None:
        entry = self._entries[name]
        entry.tensor.requires_grad = flag
        if not flag:
            entry.mask = None

    def set_mask(self, name: str, mask: np.ndarray) -> None:
        entry = self._entries[name]
        if not entry.trainable:
            raise InvariantViolation(f"mask on frozen parameter: {name}")
        mask = np.asarray(mask)
        if mask.dtype != np.bool_:
            raise InvariantViolation(f"mask for {name} must be boolean")
        if mask.shape != entry.tensor.shape:
            raise InvariantViolation(
                f"mask shape {mask.shape} != param shape {entry.tensor.shape} for {name}")
        entry.mask = mask

    def zero_grads(self) -> None:
        for entry in self._entries.values():
            entry.tensor.grad = None

    def n_params(self) -> int:
        return sum(e.tensor.size for e in self._entries.values())

    def n_trainable(self) -> int:
        return sum(e.n_trainable for e in self._entries.values())

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of every tensor, in registry order."""
        return {n: e.tensor.data.copy() for n, e in self._entries.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Copy state into the tensors; it must hold exactly this registry's
        names and shapes, or nothing is loaded."""
        for name, arr in state.items():
            if name not in self._entries:
                raise InvariantViolation(f"unknown parameter in state: {name}")
            if arr.shape != self._entries[name].tensor.shape:
                raise InvariantViolation(f"state shape {arr.shape} != param shape "
                                         f"{self._entries[name].tensor.shape} for {name}")
        missing = [n for n in self._entries if n not in state]
        if missing:
            raise InvariantViolation(f"state missing parameters: {missing[:4]}")
        for name, arr in state.items():
            self._entries[name].tensor.data = np.asarray(arr, dtype=np.float64).copy()
