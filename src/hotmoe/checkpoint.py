"""Single-file tensor checkpoint: UTF-8 manifest, then raw float64 payload.

Layout:
    line 1: magic "hotmoe-checkpoint v1"
    line 2: "ntensors <N>"
    N records: "<name> f64 <d0>x<d1>x... <byte offset into payload>"
    one blank line, then little-endian float64 bytes, row-major,
    concatenated in manifest order: each name once, each offset where the
    previous tensor ended, and no byte after the last.

Round-trips are bit-exact by construction: bytes in, identical bytes out.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import IoError, read_file, write_file

_MAGIC = "hotmoe-checkpoint v1"


def _shape_tag(shape: tuple[int, ...]) -> str:
    if shape == ():
        return "0d"
    return "x".join(str(d) for d in shape)


def _parse_shape(tag: str) -> tuple[int, ...]:
    if tag == "0d":
        return ()
    shape = tuple(int(d) for d in tag.split("x"))
    if min(shape) < 0:
        raise ValueError(f"negative dimension in shape {tag!r}")
    return shape


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    lines = [_MAGIC, f"ntensors {len(arrays)}"]
    payload_parts: list[bytes] = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        raw = arr.astype("<f8", copy=False).tobytes(order="C")
        lines.append(f"{name} f64 {_shape_tag(arr.shape)} {offset}")
        payload_parts.append(raw)
        offset += len(raw)
    write_file(path, "\n".join(lines) + "\n\n", *payload_parts)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    blob = read_file(path)
    # every ValueError below (bad UTF-8, a non-integer field, a record
    # without four fields) is a malformed file
    try:
        nl = blob.find(b"\n")
        if nl < 0 or blob[:nl].decode("utf-8") != _MAGIC:
            raise IoError(f"bad checkpoint magic in {path}")
        pos = nl + 1
        nl = blob.find(b"\n", pos)
        count_line = blob[pos:nl].decode("utf-8")
        if not count_line.startswith("ntensors "):
            raise IoError(f"bad checkpoint header in {path}")
        ntensors = int(count_line.split(" ", 1)[1])
        pos = nl + 1
        records: list[tuple[str, tuple[int, ...], int]] = []
        for _ in range(ntensors):
            nl = blob.find(b"\n", pos)
            name, dtype_tag, shape_tag, off = blob[pos:nl].decode("utf-8").split(" ")
            if dtype_tag != "f64":
                raise IoError(f"unsupported dtype tag {dtype_tag} in {path}")
            records.append((name, _parse_shape(shape_tag), int(off)))
            pos = nl + 1
    except ValueError as e:
        raise IoError(f"malformed checkpoint manifest in {path}: {e}") from e
    if blob[pos:pos + 1] != b"\n":
        raise IoError(f"missing manifest terminator in {path}")
    payload = blob[pos + 1:]
    out: dict[str, np.ndarray] = {}
    end = 0
    for name, shape, off in records:
        n = math.prod(shape)
        if name in out:
            raise IoError(f"repeated tensor {name} in checkpoint {path}")
        if off != end:
            raise IoError(f"checkpoint tensor {name} in {path} starts at byte "
                          f"{off}, not {end}")
        end += 8 * n
        if end > len(payload):
            raise IoError(f"checkpoint payload in {path} too short for {name}")
        arr = np.frombuffer(payload, dtype="<f8", count=n, offset=off)
        out[name] = arr.astype(np.float64).reshape(shape)
    if end != len(payload):
        raise IoError(f"checkpoint payload in {path} runs {len(payload) - end} "
                      f"bytes past its last tensor")
    return out
