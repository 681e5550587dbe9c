"""Exception taxonomy shared across the package, and the package's only
filesystem access.

Each class maps to one CLI exit code (see cli.py), so raising the right
type is part of the operator contract, not just diagnostics. Every file
the package reads or writes goes through read_file and write_file, which
turn any OSError into IoError; callers decode and check the bytes
themselves.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


class HotmoeError(Exception):
    """Base class for all package errors."""


class ConfigError(HotmoeError):
    """Invalid configuration, arguments, or preconditions."""


class NumericalError(HotmoeError):
    """Non-finite values or divergence during computation."""


class InvariantViolation(HotmoeError):
    """A hard internal contract was broken (e.g. frozen weights changed)."""


class IoError(HotmoeError):
    """Filesystem read/write failure for run artifacts."""


def read_file(path: str | Path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e


def write_file(path: str | Path, *parts: str | bytes) -> None:
    """Write the parts in order, str as UTF-8 and bytes as they are,
    creating parent directories."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for part in parts:
                fh.write(part.encode("utf-8") if isinstance(part, str) else part)
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e


def silence_stdout() -> None:
    """Point fd 1 at the null device. Bytes a closed pipe refused stay in
    stdout's buffer, and shutdown would flush them into a second error."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
