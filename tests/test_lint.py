"""Static checks on the library source: no unused imports, no dead
definitions, no test-only definitions, no filesystem access outside
errors.py, no assert statements, no **kwargs parameters, and no adapter
registry names and no adapter scale outside adapters.py in src/hotmoe.

Pure stdlib `ast` and `re`, so it runs wherever the tests run. An import
counts as used when its name appears anywhere in the module body,
annotations included, also inside string annotations such as
-> "RoutingTrace". A function, method or class counts as used when its
name appears as a word anywhere in src/, tests/ or perfbench/ besides its
definitions, strings included (the benchmark's tracer patches functions
by name). One that only tests/ names is library surface kept for its
tests, and fails the test-only check. errors.py's read_file and
write_file are the package's only file access, so that every OSError
becomes an IoError in one place. python -O strips assert statements, so
an invariant raises InvariantViolation instead. A **kwargs parameter
passes on arguments its signature does not name, so every parameter of a
library function is spelled out. adapters.py registers each adapter's
tensors as `<target>.adapter.{A,B}`; every other module reaches them
through the AdapterPair that owns them, never by parsing names. The
adapter arithmetic (the scale and its backward) lives in adapters.py
alone: no other module reads an attribute named `scale`. That arithmetic
is one formula for every scheme: adapted_forward and adapted_backward
read no attribute named `scheme` or holding `mask`, since a scheme
decides only what trains.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hotmoe"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside the string parts of an annotation; ast.walk sees the rest."""
    return {name.id
            for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            for name in ast.walk(ast.parse(sub.value, mode="eval"))
            if isinstance(name, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in used)


def test_checker_flags_unused_and_reads_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from pathlib import Path\n"
        "from typing import Iterator\n"
        "def f(p: 'Path') -> Iterator[int]:\n"
        "    return np.arange(3)\n")
    assert unused_imports(source) == ["line 2: os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_definitions(defining: dict[str, str], corpus: list[str]) -> list[str]:
    """Functions, methods and classes defined in `defining` (name -> source)
    whose name is no word of `corpus` beyond their own definitions.
    Dunder methods are called by the language, not by name, and are skipped."""
    words = Counter(w for text in corpus for w in re.findall(r"[A-Za-z_]\w*", text))
    defs: dict[str, list[str]] = {}
    for module, source in defining.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                defs.setdefault(node.name, []).append(f"{module}:{node.lineno}")
    return sorted(f"{where[0]}: {name}" for name, where in defs.items()
                  if words[name] <= len(where))


def test_dead_definition_checker_hand_case():
    lib = ("class Used:\n"
           "    def __init__(self): pass\n"
           "    def method(self): return helper()\n"
           "def helper(): return 1\n"
           "def orphan(): return 2\n"
           "def by_name(): return 3\n")
    tests = "from lib import Used\nUsed().method()\npatch(lib, 'by_name')\n"
    assert dead_definitions({"lib.py": lib}, [lib, tests]) == ["lib.py:5: orphan"]


def _sources(*dirs: str) -> list[str]:
    return [p.read_text(encoding="utf-8")
            for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]


def _library() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_no_dead_definitions():
    assert dead_definitions(_library(), _sources("src", "tests", "perfbench")) == []


def only_tested_definitions(defining: dict[str, str], library: list[str],
                            tests: list[str]) -> list[str]:
    """Definitions that `tests` name but `library` does not, beyond their
    own definitions. Ones nothing names are dead_definitions' to report."""
    dead = set(dead_definitions(defining, library + tests))
    return [d for d in dead_definitions(defining, library) if d not in dead]


def test_test_only_checker_hand_case():
    lib = ("def used(): return 1\n"
           "def tested(): return used()\n"
           "def orphan(): return 2\n")
    tests = "from lib import tested\nassert tested() == 1\n"
    assert only_tested_definitions({"lib.py": lib}, [lib], [tests]) == ["lib.py:2: tested"]


def test_no_test_only_definitions():
    assert only_tested_definitions(_library(), _sources("src", "perfbench"),
                                   _sources("tests")) == []


FILE_CALLS = {"open", "read_bytes", "read_text", "write_text", "write_bytes", "mkdir"}


def filesystem_calls(source: str) -> list[str]:
    """Calls of open (bare or as an attribute) and of the pathlib methods
    that read, write or make directories."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            out.append(f"line {node.lineno}: open")
        elif isinstance(func, ast.Attribute) and func.attr in FILE_CALLS:
            out.append(f"line {node.lineno}: {func.attr}")
    return sorted(out)


def test_filesystem_checker_hand_case():
    source = ("from pathlib import Path\n"
              "def f(p: Path, read_text):\n"
              "    with open(p) as fh:\n"
              "        fh.read()\n"
              "    p.parent.mkdir(parents=True)\n"
              "    p.write_text(read_text(p))\n"
              "    return p.read_bytes(), Path(p).open()\n")
    assert filesystem_calls(source) == ["line 3: open", "line 5: mkdir",
                                        "line 6: write_text", "line 7: open",
                                        "line 7: read_bytes"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "errors.py"),
                         ids=lambda p: p.name)
def test_only_errors_touches_files(path):
    assert filesystem_calls(path.read_text(encoding="utf-8")) == []


def assert_statements(source: str) -> list[str]:
    """assert statements, which python -O strips: an invariant the package
    keeps must raise InvariantViolation instead."""
    return [f"line {node.lineno}: assert" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_assert_checker_hand_case():
    source = ("def f(n):\n"
              "    assert n > 0, 'positive'\n"
              "    if n != 3:\n"
              "        raise ValueError('assert n == 3')\n"
              "    assert_ok = True\n"
              "    assert (n, 'reason')\n")
    assert assert_statements(source) == ["line 2: assert", "line 6: assert"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(path.read_text(encoding="utf-8")) == []


def var_keyword_parameters(source: str) -> list[str]:
    """Function definitions that take a **kwargs parameter."""
    return [f"line {node.lineno}: {node.name}(**{node.args.kwarg.arg})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.args.kwarg is not None]


def test_var_keyword_checker_hand_case():
    source = ("def f(a, *args, key=1):\n"
              "    return g(a, **{'key': key})\n"
              "def g(a, **kw):\n"
              "    return a\n"
              "class C:\n"
              "    async def h(self, *, b, **options):\n"
              "        return dict(**options)\n")
    assert var_keyword_parameters(source) == ["line 3: g(**kw)", "line 6: h(**options)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_var_keyword_parameters(path):
    assert var_keyword_parameters(path.read_text(encoding="utf-8")) == []


def adapter_name_users(library: dict[str, str]) -> list[str]:
    """Modules other than adapters.py whose text contains ".adapter."."""
    return sorted(name for name, source in library.items()
                  if name != "adapters.py" and ".adapter." in source)


def test_adapter_name_checker_hand_case():
    library = {"adapters.py": 'reg.add(f"{target}.adapter.A", A)\n',
               "accounting.py": 'if ".adapter." in name:\n    pass\n',
               "model.py": "from .adapters import adapted_forward\n",
               "pipeline.py": "# frozen .adapter.A tensors are hashed\n"}
    assert adapter_name_users(library) == ["accounting.py", "pipeline.py"]


def test_only_adapters_names_adapter_entries():
    assert adapter_name_users(_library()) == []


def scale_readers(library: dict[str, str]) -> list[str]:
    """Modules other than adapters.py that read an attribute named scale;
    a local or a word in a string does not count."""
    return sorted(name for name, source in library.items()
                  if name != "adapters.py"
                  and any(isinstance(node, ast.Attribute) and node.attr == "scale"
                          for node in ast.walk(ast.parse(source))))


def test_scale_checker_hand_case():
    library = {"adapters.py": "out += (xa @ pair.B.data) * pair.scale\n",
               "model.py": ('ms, scale, xn = _norm(xd)\n'
                            'g = g_xn * scale  # not pair.scale\n'
                            '"""adapted as s * (x A) B, s = pair.scale"""\n'),
               "accounting.py": "flops = 2 * self.adapters[t].scale\n"}
    assert scale_readers(library) == ["accounting.py"]


def test_only_adapters_reads_adapter_scale():
    assert scale_readers(_library()) == []


ADAPTER_ARITHMETIC = ("adapted_forward", "adapted_backward")


def scheme_reads(source: str, functions: tuple[str, ...]) -> list[str]:
    """Attributes read inside the named functions whose name is scheme or
    contains mask (mask, mask_f, ...), and each named function the source
    does not define."""
    tree = ast.parse(source)
    defs = [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in functions]
    out = [f"{name}: not defined" for name in functions
           if name not in {node.name for node in defs}]
    return out + sorted(f"line {sub.lineno}: {node.name} reads .{sub.attr}"
                        for node in defs for sub in ast.walk(node)
                        if isinstance(sub, ast.Attribute)
                        and (sub.attr == "scheme" or "mask" in sub.attr))


def test_scheme_free_checker_hand_case():
    source = ("def adapted_forward(inp, pair, out):\n"
              "    xa = inp @ pair.A.data  # no mask here\n"
              "    out += (xa @ (pair.B.data * pair.mask_f.data)) * pair.scale\n"
              "    return xa\n"
              "def set_trainability(model, scheme):\n"
              "    return pair.mask, scheme.name\n"
              "def adapted_backward(g, inp, pair, xa, want_in, grads):\n"
              "    mask = None\n"
              "    if pair.scheme == 'lora':\n"
              "        return mask\n")
    assert scheme_reads(source, ADAPTER_ARITHMETIC) == [
        "line 3: adapted_forward reads .mask_f", "line 9: adapted_backward reads .scheme"]
    assert scheme_reads(source, ("set_trainability", "_b_eff")) == [
        "_b_eff: not defined", "line 6: set_trainability reads .mask"]


def test_adapter_arithmetic_is_scheme_free():
    source = (SRC / "adapters.py").read_text(encoding="utf-8")
    assert scheme_reads(source, ADAPTER_ARITHMETIC) == []
