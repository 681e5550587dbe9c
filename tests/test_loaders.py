"""Malformed artifacts map to the error taxonomy, never to a raw exception.

Each loader reads bytes derived from a valid artifact by truncation, byte
overwrites or one replaced line. It must either load them or raise its
own error class: IoError for checkpoints, ConfigError for plans and
heatmaps. Any other exception would escape the CLI as a traceback. A file
that cannot be read or written at all is an IoError for every loader and
writer.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hotmoe.checkpoint import load_checkpoint, save_checkpoint
from hotmoe.config import FullConfig, load_config, write_resolved
from hotmoe.errors import ConfigError, IoError
from hotmoe.pipeline import write_rows_csv, write_rows_markdown
from hotmoe.profiler import (ActivationProfile, PlacementPlan, export_heatmap,
                             load_heatmap, load_plan, save_plan)

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _overwrite(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for pos, value in edits:
        out[pos] = value
    return bytes(out)


def _replace_line(lines: list[bytes], at: int, text: str) -> bytes:
    return b"\n".join(lines[:at] + [text.encode("utf-8")] + lines[at + 1:])


def corrupted(blob: bytes):
    """Strategy: blob truncated, with a few bytes overwritten, or one line replaced."""
    lines = blob.split(b"\n")
    positions = st.integers(0, len(blob) - 1)
    return st.one_of(
        positions.map(lambda i: blob[:i]),
        st.lists(st.tuples(positions, st.integers(0, 255)), min_size=1,
                 max_size=4).map(lambda edits: _overwrite(blob, edits)),
        st.tuples(st.integers(0, len(lines) - 1), st.text(max_size=40)).map(
            lambda t: _replace_line(lines, *t)),
    )


def _checkpoint(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3),
                           "b": np.ones(4), "s": np.array(2.5)})
    return path


def _plan(tmp_path):
    path = tmp_path / "plan.csv"
    save_plan(PlacementPlan(hot=[[0, 2], [1, 3]], k=2, strategy="layer_hot"), path)
    return path


def _heatmap(tmp_path):
    path = tmp_path / "heatmap.csv"
    export_heatmap(ActivationProfile(np.arange(8).reshape(2, 4)), path)
    return path


def _rewrite(path, old: bytes, new: bytes):
    blob = path.read_bytes()
    assert old in blob
    path.write_bytes(blob.replace(old, new, 1))


class TestReproducedFaults:
    def test_checkpoint_truncated_payload(self, tmp_path):
        path = _checkpoint(tmp_path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(IoError):
            load_checkpoint(path)

    @pytest.mark.parametrize("old,new", [(b"w f64 2x3 0\n", b"w f64 2x3\n"),
                                         (b"ntensors 3", b"ntensors two"),
                                         (b"w f64 2x3 0", b"w f64 -1x6 0"),
                                         (b"w f64 2x3 0", b"w f32 2x3 0")])
    def test_checkpoint_bad_manifest(self, tmp_path, old, new):
        path = _checkpoint(tmp_path)
        _rewrite(path, old, new)
        with pytest.raises(IoError):
            load_checkpoint(path)

    @pytest.mark.parametrize("manifest,tail,match", [
        (b"ntensors 4\nw f64 2x3 0\nb f64 4 48\ns f64 0d 80\nw f64 2x3 88\n", 48,
         "repeated tensor w"),
        (b"ntensors 3\nw f64 2x3 0\nb f64 4 0\ns f64 0d 80\n", 0,
         "b .* starts at byte 0, not 48"),
        (b"ntensors 3\nw f64 2x3 0\nb f64 4 48\ns f64 0d 80\n", 8,
         "runs 8 bytes past its last tensor")],
        ids=["repeated-name", "shared-offset", "trailing-bytes"])
    def test_checkpoint_manifest_must_tile_payload(self, tmp_path, manifest, tail, match):
        # each loaded before: the second w replaced the first, b read w's
        # bytes, and the appended bytes went unread
        path = _checkpoint(tmp_path)
        _rewrite(path, b"ntensors 3\nw f64 2x3 0\nb f64 4 48\ns f64 0d 80\n", manifest)
        path.write_bytes(path.read_bytes() + b"\0" * tail)
        with pytest.raises(IoError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("old,new", [(b"0,2", b"0,x"),
                                         (b"k=2", b"k2")])
    def test_plan_bad_cell_or_header_token(self, tmp_path, old, new):
        path = _plan(tmp_path)
        _rewrite(path, old, new)
        with pytest.raises(ConfigError):
            load_plan(path)

    @pytest.mark.parametrize("old,new,where", [
        (b"0,2", b"0,x", "line 2 does not parse: '0,x'"),
        (b"k=2", b"k2", "line 1 does not parse: 'strategy=layer_hot k2 seed=none'"),
        (b" seed=none", b"", "line 1 does not parse: 'strategy=layer_hot k=2'"),
        # each loaded before: with a seed, random without one, an unknown
        # field ignored, and the last of two strategies winning
        (b"seed=none", b"seed=5", "line 1 does not parse: 'strategy=layer_hot k=2 seed=5'"),
        (b"layer_hot", b"random", "line 1 does not parse: 'strategy=random k=2 seed=none'"),
        (b"seed=none", b"seed=none bogus=1",
         "line 1 does not parse: 'strategy=layer_hot k=2 seed=none bogus=1'"),
        (b"strategy=layer_hot", b"strategy=cold k=2 seed=none strategy=layer_hot",
         "line 1 does not parse: "
         "'strategy=cold k=2 seed=none strategy=layer_hot k=2 seed=none'")])
    def test_plan_error_names_the_line(self, tmp_path, old, new, where):
        path = _plan(tmp_path)
        _rewrite(path, old, new)
        with pytest.raises(ConfigError) as info:
            load_plan(path)
        assert str(info.value) == f"malformed plan file {path}: {where}"

    def test_plan_unknown_strategy(self, tmp_path):
        path = _plan(tmp_path)
        _rewrite(path, b"strategy=layer_hot", b"strategy=bogus")
        with pytest.raises(ConfigError, match="unknown strategy"):
            load_plan(path)

    def test_heatmap_negative_count(self, tmp_path):
        path = _heatmap(tmp_path)
        _rewrite(path, b"0,1,1,", b"0,1,-999,")
        with pytest.raises(ConfigError, match="negative count"):
            load_heatmap(path)

    def test_heatmap_repeated_cell(self, tmp_path):
        # the last copy used to win, so 0,3 loaded as 999
        path = _heatmap(tmp_path)
        path.write_bytes(path.read_bytes() + b"0,3,999,0.5\n")
        with pytest.raises(ConfigError, match=r"repeated heatmap cell \(0, 3\)"):
            load_heatmap(path)

    def test_heatmap_count_beyond_int64(self, tmp_path):
        # was an OverflowError traceback from storing it in the int64 grid
        path = _heatmap(tmp_path)
        _rewrite(path, b"0,1,1,", b"0,1,99999999999999999999,")
        with pytest.raises(ConfigError, match="malformed heatmap row"):
            load_heatmap(path)

    @pytest.mark.parametrize("old,new", [(b"0,1,1,", b"0,1,one,"),
                                         (b"0,1,1,", b"0,"),
                                         (None, b""),
                                         (b"1,3,7,", b"-1,3,7,"),
                                         (b"1,3,7,", b"1000000,3,7,"),
                                         # each loaded before: a row of five
                                         # fields, of three, a ratio not a float
                                         (b"\n0,0,0,0.0", b"\n0,0,1,x,y"),
                                         (b"\n0,0,0,0.0", b"\n0,0,0"),
                                         (b"\n0,0,0,0.0", b"\n0,0,0,zero")])
    def test_heatmap_malformed(self, tmp_path, old, new):
        path = _heatmap(tmp_path)
        if old is None:
            path.write_bytes(new)
        else:
            _rewrite(path, old, new)
        with pytest.raises(ConfigError):
            load_heatmap(path)


@FUZZ
@given(data=st.data())
def test_checkpoint_fuzz(tmp_path, data):
    path = _checkpoint(tmp_path)
    path.write_bytes(data.draw(corrupted(path.read_bytes())))
    try:
        load_checkpoint(path)
    except IoError:
        pass


@FUZZ
@given(data=st.data())
def test_plan_fuzz(tmp_path, data):
    path = _plan(tmp_path)
    path.write_bytes(data.draw(corrupted(path.read_bytes())))
    try:
        load_plan(path)
    except ConfigError:
        pass


@FUZZ
@given(data=st.data())
def test_heatmap_fuzz(tmp_path, data):
    path = _heatmap(tmp_path)
    path.write_bytes(data.draw(corrupted(path.read_bytes())))
    try:
        load_heatmap(path)
    except ConfigError:
        pass


@pytest.mark.parametrize("load", [load_checkpoint, load_config, load_plan, load_heatmap],
                         ids=lambda f: f.__name__)
def test_loader_given_a_directory_raises_io_error(load, tmp_path):
    with pytest.raises(IoError):
        load(tmp_path)


WRITERS = {
    "save_checkpoint": lambda path: save_checkpoint(path, {"w": np.ones(2)}),
    "write_resolved": lambda path: write_resolved(path, FullConfig()),
    "write_rows_csv": lambda path: write_rows_csv(path, [{"a": 1.5}]),
    "write_rows_markdown": lambda path: write_rows_markdown(path, [{"a": 1.5}]),
    "export_heatmap": lambda path: export_heatmap(
        ActivationProfile(np.ones((1, 2), dtype=np.int64)), path),
    "save_plan": lambda path: save_plan(
        PlacementPlan(hot=[[0]], k=1, strategy="layer_hot"), path),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_under_a_file_raises_io_error(name, tmp_path):
    blocker = tmp_path / "afile"
    blocker.write_text("x\n")
    with pytest.raises(IoError):
        WRITERS[name](blocker / "out" / "artifact")
    assert blocker.read_text() == "x\n"


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_makes_missing_directories(name, tmp_path):
    path = tmp_path / "a" / "b" / "artifact"
    WRITERS[name](path)
    assert path.stat().st_size > 0
