"""INI-file configuration with strict key checking.

Four sections: model, task, run, pretrain. Every key must be known and
parse to the type of its default; unknown sections or keys are hard errors
so a typo cannot silently fall back to a default. A file and --set
overrides take the same path, apply_overrides, and each section checks its
values when it is built. The resolved configuration
(file values merged with command-line overrides) can be written back out
in a fixed key order, so two runs with the same inputs produce the same
bytes.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError, read_file, write_file
from .model import ModelConfig
from .pipeline import RunConfig
from .tasks import TASK_KINDS, TaskSpec, check_shape, subset_size


@dataclass
class TaskConfig:
    mixture: tuple[str, ...] = TASK_KINDS
    target: str = "mod_add"
    seed: int = 0
    train_size: int = 480
    test_size: int = 120
    modulus: int = 11

    def __post_init__(self):
        for kind in self.mixture:
            if kind not in TASK_KINDS:
                raise ConfigError(f"unknown task kind in mixture: {kind}")
        if not self.mixture:
            raise ConfigError("task mixture is empty")
        if len(set(self.mixture)) != len(self.mixture):
            raise ConfigError(f"repeated task kind in mixture: {','.join(self.mixture)}")
        if self.target not in self.mixture:
            raise ConfigError(f"target task {self.target} not in mixture")
        if self.seed < 0:
            raise ConfigError(f"task seed must be >= 0: {self.seed}")
        self.specs()            # each TaskSpec checks its sizes and ranges

    def _sizes(self, kind: str) -> tuple[int, int]:
        if kind != "mod_add":
            return self.train_size, self.test_size
        # mod_add holds only modulus^2 distinct examples; cap its split at
        # an 80/20 carve-up of that space instead of failing
        space = self.modulus * self.modulus
        train = min(self.train_size, int(0.8 * space))
        test = min(self.test_size, space - train)
        return train, test

    def specs(self) -> list[TaskSpec]:
        out = []
        for k in self.mixture:
            train, test = self._sizes(k)
            out.append(TaskSpec(kind=k, seed=self.seed, train_size=train,
                                test_size=test, modulus=self.modulus))
        return out


@dataclass
class PretrainConfig:
    steps: int = 3000
    lr: float = 1e-3
    batch_size: int = 16
    seed: int = 0
    until_acc: float = 0.09375     # > 0: steps becomes a cap, training stops
    check_every: int = 500         # once every task's held-out acc beats the bar

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError(f"pretrain steps must be >= 0: {self.steps}")
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"pretrain lr must be finite and > 0: {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"pretrain batch_size must be >= 1: {self.batch_size}")
        if not 0.0 <= self.until_acc < 1.0:
            raise ConfigError(f"until_acc out of [0, 1): {self.until_acc}")
        if self.check_every < 1:
            raise ConfigError(f"check_every must be >= 1: {self.check_every}")
        if self.seed < 0:
            raise ConfigError(f"pretrain seed must be >= 0: {self.seed}")


@dataclass
class FullConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    task: TaskConfig = field(default_factory=TaskConfig)
    run: RunConfig = field(default_factory=RunConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)

    def __post_init__(self):
        m, r = self.model, self.run
        if r.plan_k > m.n_experts:
            raise ConfigError(f"plan_k {r.plan_k} out of [1, n_experts={m.n_experts}]")
        # a rank fits a weight's min(d_in, d_out); a trained warm-up adapts the gate
        gate = r.gate or not r.warmup_forward_only
        bound = min(m.d_model, m.d_ff, m.n_experts if gate else m.d_ff)
        if r.rank > bound:
            raise ConfigError(f"rank {r.rank} exceeds {bound}, the least "
                              f"min(d_in, d_out) of an adapted weight")
        # crosstask warms up on every mixture task
        for spec in self.task.specs():
            check_shape(spec, m.max_seq)
            if subset_size(spec.train_size, r.warmup_pct) < 1:
                raise ConfigError(f"warmup_pct {r.warmup_pct}% selects 0 of the "
                                  f"{spec.train_size} {spec.kind} train rows")


_SECTIONS = {
    "model": ModelConfig,
    "task": TaskConfig,
    "run": RunConfig,
    "pretrain": PretrainConfig,
}

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _parse_value(section: str, key: str, raw: str, typ):
    raw = raw.strip()
    try:
        if typ is bool:
            if raw.lower() not in _BOOL:
                raise ValueError(raw)
            return _BOOL[raw.lower()]
        if typ is tuple:
            return tuple(p.strip() for p in raw.split(",") if p.strip())
        return typ(raw)
    except ValueError as e:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from e


def _field_types(cls) -> dict[str, type]:
    """Each field's type is its default's: int, float, bool, str or tuple."""
    return {f.name: type(f.default) for f in fields(cls)}


def load_config(path: str | Path | None) -> FullConfig:
    """Parse an INI file into a FullConfig; None means all defaults."""
    if path is None:
        return FullConfig()
    blob = read_file(path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str   # keys are case-sensitive, as --set keys are
    try:
        # newline=None reads \r\n and \r line ends as a text-mode file does
        parser.read_file(io.StringIO(blob.decode("utf-8"), newline=None),
                         source=str(path))
    except (UnicodeDecodeError, configparser.Error) as e:
        raise ConfigError(f"cannot parse config {path}: {e}") from e
    if parser.defaults():   # items(section) would mix its keys into every section
        raise ConfigError("unknown config section: [DEFAULT]")
    pairs = {}
    for section in parser.sections():
        # checked here too: a section with no keys gives apply_overrides no pair
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section: [{section}]")
        for key, raw in parser.items(section):
            pairs[f"{section}.{key}"] = raw
    return apply_overrides(FullConfig(), pairs)[0]


def apply_overrides(full: FullConfig,
                    overrides: dict[str, str]) -> tuple[FullConfig, list[str]]:
    """Apply "section.key=value" style overrides; returns the applied list.

    Every section, and then the FullConfig, checks itself when it is built,
    so an invalid value fails here and not when a run first reads it.
    """
    applied = []
    by_section: dict[str, dict] = {}
    for dotted, raw in overrides.items():
        if "." not in dotted:
            raise ConfigError(f"override key must be section.key: {dotted}")
        section, key = dotted.split(".", 1)
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section: [{section}]")
        types = _field_types(_SECTIONS[section])
        if key not in types:
            raise ConfigError(f"unknown key in [{section}]: {key}")
        by_section.setdefault(section, {})[key] = _parse_value(
            section, key, raw, types[key])
        applied.append(f"{section}.{key}={raw}")
    new = FullConfig(**{name: replace(getattr(full, name), **by_section.get(name, {}))
                        for name in _SECTIONS})
    return new, applied


def _render_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_resolved(full: FullConfig, applied: list[str] | None = None) -> str:
    """Deterministic INI text of the fully resolved configuration."""
    lines = []
    for section in _SECTIONS:
        obj = getattr(full, section)
        lines.append(f"[{section}]")
        for f in fields(obj):
            lines.append(f"{f.name} = {_render_value(getattr(obj, f.name))}")
        lines.append("")
    for entry in applied or []:
        lines.append(f"# override: {entry}")
    return "\n".join(lines).rstrip("\n") + "\n"


def write_resolved(path: str | Path, full: FullConfig,
                   applied: list[str] | None = None) -> None:
    write_file(path, render_resolved(full, applied))
