"""Run configuration: a flat key = value document with dotted section names.

The format is intentionally plain. One assignment per line, full-line
comments starting with #, at most one dot of nesting (section.key), no
quoting, no escapes. Unknown keys are rejected by name so typos cannot
silently fall back to defaults. parse_config and serialize_config are exact
inverses on every valid configuration, because one key table drives both:
each row names a key, the RunConfig field it sets, and how its value is
parsed and formatted.

Seeds are deliberately optional at parse time: a document without them is a
valid template, but actually running it is an error. Randomness must always
be traceable to an explicit seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

from .engine import BlockCacheConfig, StepCacheConfig
from .errors import ConfigError, DimensionError, FlowCacheError
from .predictors import ToyBlockNet, structured_mixture
from .sampler import Predictor, TimestepSchedule, make_schedule
from .tensor import DownsampleFactors

MODES = ("baseline", "lfcache", "lfcache+block", "open-loop")
PREDICTOR_KINDS = ("mixture", "toy-block")
LATENT_AXES = ("frames", "height", "width", "channels")
_LATENT_KEYS = tuple(f"latent.{axis}" for axis in LATENT_AXES)
#: Fewest bytes one schedule step holds: its float and tuple slot in the
#: schedule (32) and its decision row, a StepRecord of nine slots (96).
_STEP_BYTES = 128


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass(frozen=True)
class PredictorConfig:
    """Which score model to build and its parameters; seed is resolved at run time.

    The mixture bounds keep every accepted mixture's log-densities finite.
    log(2 pi s2), with s2 at most max(var, 1), needs var <= 2.86e307, just
    under the largest float64 over 2 pi. Squaring a residual x - (1 - t) mu
    the size of a mean value, an amplitude times a unit-rms field peaking at
    sqrt(cells) at most, needs |smooth_amp|, |rough_amp| <= 1e150: a factor
    of 1e4, for up to 1e8 cells, below 1.34e154, sqrt(largest float64).
    """

    kind: str = "mixture"
    seed: Optional[int] = None
    components: int = 2
    smooth_amp: float = 1.5
    rough_amp: float = 1.2
    var: float = 45.0
    blocks: int = 6

    def __post_init__(self):
        if self.kind not in PREDICTOR_KINDS:
            raise ConfigError(f"unknown predictor kind {self.kind!r}, expected one of {PREDICTOR_KINDS}")
        if self.components < 1:
            raise ConfigError(f"predictor.components must be >= 1, got {self.components}")
        if not 0 < self.var <= 2.86e307:
            raise ConfigError(f"predictor.var must be > 0 and at most 2.86e307, got {self.var}")
        for name in ("smooth_amp", "rough_amp"):
            if abs(getattr(self, name)) > 1e150:
                raise ConfigError(f"predictor.{name} must lie in [-1e150, 1e150], got {getattr(self, name)}")
        if self.blocks < 1:
            raise ConfigError(f"predictor.blocks must be >= 1, got {self.blocks}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"predictor.seed must be >= 0, got {self.seed}", ("predictor.seed",))


@dataclass(frozen=True)
class ScheduleConfig:
    """Timestep schedule parameters, validated eagerly via make_schedule."""

    n: int = 50
    kind: str = "uniform"
    shift: float = 1.0
    terminal: float = 0.0

    def __post_init__(self):
        if isinstance(self.n, int) and self.n * _STEP_BYTES > _physical_memory():
            raise ConfigError(f"schedule.n = {self.n} needs {self.n * _STEP_BYTES} bytes ({_STEP_BYTES} a step) for "
                              f"the schedule and its step rows, more than the {_physical_memory()} bytes of "
                              f"physical memory")
        make_schedule(self.n, self.kind, self.shift, self.terminal)


@dataclass(frozen=True)
class OutputConfig:
    """Artifact destinations; None means the subcommand's default or skip."""

    report: Optional[str] = None
    trace: Optional[str] = None
    table: Optional[str] = None
    figures: Optional[str] = None


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs except wall-clock time."""

    mode: str = "lfcache"
    seeds: tuple[int, ...] = ()
    latent: tuple[int, int, int, int] = (4, 16, 16, 2)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    cache: StepCacheConfig = field(default_factory=StepCacheConfig)
    block: BlockCacheConfig = field(default_factory=BlockCacheConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    input_trace: Optional[str] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}, expected one of {MODES}", ("mode",))
        for extent, axis in zip(self.latent, LATENT_AXES):
            if not isinstance(extent, int) or extent < 1:
                raise ConfigError(f"latent.{axis} must be an integer >= 1, got {extent!r}", (f"latent.{axis}",))
        if self.mode in ("lfcache", "lfcache+block"):
            require_divisible(self.latent, self.cache.downsample, "cache.downsample", ("mode",))
        # A mixture evaluation holds the (K, *latent) mean stack and two more
        # K-sized buffers; a toy-block forward holds at least four latent-sized
        # arrays: the step's latent, a block's input, its projection and its
        # output.
        cells = math.prod(self.latent)
        if self.predictor.kind == "mixture":
            need = 3 * self.predictor.components * cells * 8
            if need > _physical_memory():
                raise ConfigError(f"predictor.components = {self.predictor.components} needs {need} bytes "
                                  f"(3 x K x {cells} cells x 8) for the mean stack and an evaluation's two K-sized "
                                  f"buffers, more than the {_physical_memory()} bytes of physical memory",
                                  ("predictor.components", *_LATENT_KEYS, "predictor.kind"))
        elif 4 * cells * 8 > _physical_memory():
            raise ConfigError(f"a toy-block latent of {cells} cells needs {4 * cells * 8} bytes (4 x {cells} cells "
                              f"x 8) for a block forward's four latent-sized arrays, more than the "
                              f"{_physical_memory()} bytes of physical memory", (*_LATENT_KEYS, "predictor.kind"))
        if self.mode == "lfcache+block" and self.predictor.kind != "toy-block":
            raise ConfigError(f"mode = lfcache+block needs predictor.kind = toy-block (the block cache needs a "
                              f"block-decomposed predictor), got predictor.kind = {self.predictor.kind}",
                              ("mode", "predictor.kind"))
        for s in self.seeds:
            if not isinstance(s, int) or s < 0:
                raise ConfigError(f"seeds must be integers >= 0, got {s!r}", ("seeds",))


def _parse_text(where: str, raw: str) -> str:
    return raw


def _parse_int(where: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None


def parse_float(where: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ConfigError(f"{where}: expected a finite number, got {raw!r}")
    return value


def parse_downsample(where: str, raw: str) -> DownsampleFactors:
    parts = raw.lower().split("x")
    if len(parts) != 3:
        raise ConfigError(f"{where}: expected FRAMESxHEIGHTxWIDTH like 2x4x4, got {raw!r}")
    frames, height, width = (_parse_int(where, p) for p in parts)
    try:
        return DownsampleFactors(frames=frames, height=height, width=width)
    except DimensionError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def format_downsample(factors: DownsampleFactors) -> str:
    return f"{factors.frames}x{factors.height}x{factors.width}"


def _parse_seeds(where: str, raw: str) -> tuple[int, ...]:
    tokens = raw.replace(",", " ").split()
    if not tokens:
        raise ConfigError(f"{where}: expected at least one integer")
    return tuple(_parse_int(where, tok) for tok in tokens)


def _format_seeds(seeds: tuple[int, ...]) -> str:
    return " ".join(str(s) for s in seeds)


#: (key, section, field, parser, formatter) in canonical document order; a parser
#: takes (where, raw), where naming the value's origin in errors. section None is a
#: RunConfig field itself; section "latent" names an axis of the latent tuple; any
#: other section is a RunConfig field holding a config dataclass. A value that is
#: None or () is left out of the document.
_KEYS = (
    ("mode", None, "mode", _parse_text, str),
    ("seeds", None, "seeds", _parse_seeds, _format_seeds),
    ("input.trace", None, "input_trace", _parse_text, str),
    *((f"latent.{axis}", "latent", axis, _parse_int, str) for axis in LATENT_AXES),
    ("predictor.kind", "predictor", "kind", _parse_text, str),
    ("predictor.seed", "predictor", "seed", _parse_int, str),
    ("predictor.components", "predictor", "components", _parse_int, str),
    ("predictor.smooth_amp", "predictor", "smooth_amp", parse_float, repr),
    ("predictor.rough_amp", "predictor", "rough_amp", parse_float, repr),
    ("predictor.var", "predictor", "var", parse_float, repr),
    ("predictor.blocks", "predictor", "blocks", _parse_int, str),
    ("schedule.n", "schedule", "n", _parse_int, str),
    ("schedule.kind", "schedule", "kind", _parse_text, str),
    ("schedule.shift", "schedule", "shift", parse_float, repr),
    ("schedule.terminal", "schedule", "terminal", parse_float, repr),
    ("cache.alpha", "cache", "alpha", parse_float, repr),
    ("cache.warmup", "cache", "warmup_steps", _parse_int, str),
    ("cache.downsample", "cache", "downsample", parse_downsample, format_downsample),
    ("cache.reuse", "cache", "reuse", _parse_text, str),
    ("cache.mask_scale", "cache", "mask_scale", parse_float, repr),
    ("block.cache_rate", "block", "cache_rate", parse_float, repr),
    ("block.interval", "block", "interval", _parse_int, str),
    *((f"output.{name}", "output", name, _parse_text, str) for name in ("report", "trace", "table", "figures")),
)
_ROWS = {row[0]: row for row in _KEYS}
#: The RunConfig fields that hold a config dataclass, in declaration order,
#: which is the order parse_config builds and so validates them in.
_SECTIONS = tuple(f.name for f in fields(RunConfig) if f.default_factory is not MISSING)


def parse_config(text: str) -> RunConfig:
    """Parse a key = value document into a validated RunConfig.

    Unknown keys, duplicate keys, malformed values, and keys nested deeper
    than one section all raise ConfigError naming the offender and its line,
    and so does a value its section's config class rejects. A check that
    spans keys (RunConfig's) blames the last line among the keys it read and
    names those of them the document leaves at their defaults. An empty
    document yields the default configuration.
    """
    acc: dict = {section: {} for _, section, _, _, _ in _KEYS}
    where: dict = {section: {} for section in acc}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        value = raw.strip()
        if key.count(".") > 1:
            raise ConfigError(f"line {lineno}: key {key!r} nests deeper than section.key")
        if not value:
            raise ConfigError(f"line {lineno}: key {key!r} has an empty value")
        row = _ROWS.get(key)
        if row is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        _, section, name, parse, _ = row
        if name in acc[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        lines[key] = lineno
        where[section][name] = f"line {lineno}: key {key!r}"
        acc[section][name] = parse(where[section][name], value)

    defaults = RunConfig.__dataclass_fields__
    latent = acc["latent"]
    try:
        return RunConfig(
            **acc[None],
            latent=tuple(latent.get(axis, default) for axis, default in zip(LATENT_AXES, defaults["latent"].default)),
            **{section: _build_section(defaults[section].default_factory, acc[section], where[section])
               for section in _SECTIONS},
        )
    except ConfigError as exc:
        given = [key for key in exc.keys if key in lines]
        if not given:
            raise
        key = max(given, key=lines.get)
        left = [k for k in exc.keys if k not in lines]
        note = f"; {' and '.join(left)} left at the default" if left else ""
        raise ConfigError(f"line {lines[key]}: key {key!r}: {exc}{note}") from None


def _build_section(factory, values: dict, where: dict):
    """Build a section from its values in document order, blaming a rejection on the first key that causes it."""
    try:
        return factory(**values)
    except FlowCacheError:
        names = list(values)
    for i, name in enumerate(names):
        try:
            factory(**{n: values[n] for n in names[: i + 1]})
        except FlowCacheError as exc:
            raise ConfigError(f"{where[name]}: {exc}") from None


def serialize_config(cfg: RunConfig) -> str:
    """Render a RunConfig as the canonical document parse_config inverts."""
    lines = []
    for key, section, name, _, fmt in _KEYS:
        if section is None:
            value = getattr(cfg, name)
        elif section == "latent":
            value = cfg.latent[LATENT_AXES.index(name)]
        else:
            value = getattr(getattr(cfg, section), name)
        if value is not None and value != ():
            lines.append(f"{key} = {fmt(value)}")
    return "\n".join(lines) + "\n"


def require_divisible(latent: tuple[int, ...], factors: DownsampleFactors, source: str,
                      also: tuple[str, ...] = ()) -> None:
    """Raise ConfigError naming latent.<axis> when a pooling factor does not divide that extent.

    source names the setting the factors come from, in the message; the
    error's keys are latent.<axis>, source and also, the other keys that
    made the check apply.
    """
    for extent, factor, axis in zip(latent, factors.as_tuple(), LATENT_AXES):
        if extent % factor != 0:
            raise ConfigError(f"latent.{axis} = {extent} is not divisible by its {source} factor {factor} "
                              f"({source} = {format_downsample(factors)})", (*also, f"latent.{axis}", source))


def require_seeds(cfg: RunConfig) -> tuple[int, ...]:
    """Return the run seeds, or fail loudly; randomness is never implicit."""
    if not cfg.seeds:
        raise ConfigError("no seeds configured; set 'seeds = ...' (an omitted seed is an error, not a random default)")
    return cfg.seeds


def build_predictor(cfg: RunConfig) -> Predictor:
    """Instantiate the configured predictor; the predictor seed is mandatory here."""
    p = cfg.predictor
    if p.seed is None:
        raise ConfigError("predictor.seed is not set; model randomness needs an explicit seed")
    if p.kind == "mixture":
        return structured_mixture(cfg.latent, p.seed, components=p.components,
                                  smooth_amp=p.smooth_amp, rough_amp=p.rough_amp, var=p.var)
    return ToyBlockNet(p.blocks, cfg.latent[3], p.seed)


def build_schedule(cfg: RunConfig) -> TimestepSchedule:
    s = cfg.schedule
    return make_schedule(s.n, s.kind, s.shift, s.terminal)
