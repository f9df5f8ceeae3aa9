"""Run configuration: a flat key = value document with dotted section names.

The format is intentionally plain. One assignment per line, full-line
comments starting with #, at most one dot of nesting (section.key), no
quoting, no escapes. Unknown keys are rejected by name so typos cannot
silently fall back to defaults. parse_config and serialize_config are exact
inverses on every valid configuration.

Seeds are deliberately optional at parse time: a document without them is a
valid template, but actually running it is an error. Randomness must always
be traceable to an explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .engine import REUSE_STRATEGIES, BlockCacheConfig, StepCacheConfig
from .errors import ConfigError
from .predictors import MixturePredictor, ToyBlockNet, structured_mixture
from .sampler import SCHEDULE_KINDS, Predictor, TimestepSchedule, make_schedule
from .spectral import DEFAULT_RADIUS_SCALE
from .tensor import DownsampleFactors

MODES = ("baseline", "lfcache", "lfcache+block", "open-loop")
PREDICTOR_KINDS = ("mixture", "toy-block")


@dataclass(frozen=True)
class PredictorConfig:
    """Which score model to build and its parameters; seed is resolved at run time."""

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
        if self.var <= 0:
            raise ConfigError(f"predictor.var must be > 0, got {self.var}")
        if self.blocks < 1:
            raise ConfigError(f"predictor.blocks must be >= 1, got {self.blocks}")


@dataclass(frozen=True)
class ScheduleConfig:
    """Timestep schedule parameters, validated eagerly via make_schedule."""

    n: int = 50
    kind: str = "uniform"
    shift: float = 1.0
    terminal: float = 0.0

    def __post_init__(self):
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
            raise ConfigError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        for extent, axis in zip(self.latent, ("frames", "height", "width", "channels")):
            if not isinstance(extent, int) or extent < 1:
                raise ConfigError(f"latent.{axis} must be an integer >= 1, got {extent!r}")
        for s in self.seeds:
            if not isinstance(s, int):
                raise ConfigError(f"seeds must be integers, got {s!r}")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ConfigError(f"key {key!r}: expected a finite number, got {raw!r}")
    return value


def parse_downsample(key: str, raw: str) -> DownsampleFactors:
    parts = raw.lower().split("x")
    if len(parts) != 3:
        raise ConfigError(f"key {key!r}: expected FRAMESxHEIGHTxWIDTH like 2x4x4, got {raw!r}")
    frames, height, width = (_parse_int(key, p) for p in parts)
    return DownsampleFactors(frames=frames, height=height, width=width)


def format_downsample(factors: DownsampleFactors) -> str:
    return f"{factors.frames}x{factors.height}x{factors.width}"


def _parse_seeds(key: str, raw: str) -> tuple[int, ...]:
    tokens = raw.replace(",", " ").split()
    if not tokens:
        raise ConfigError(f"key {key!r}: expected at least one integer")
    return tuple(_parse_int(key, tok) for tok in tokens)


_SETTERS: dict[str, Callable[[dict, str], None]] = {
    "mode": lambda acc, v: acc.__setitem__("mode", v),
    "seeds": lambda acc, v: acc.__setitem__("seeds", _parse_seeds("seeds", v)),
    "input.trace": lambda acc, v: acc.__setitem__("input_trace", v),
    "latent.frames": lambda acc, v: acc["latent"].__setitem__("frames", _parse_int("latent.frames", v)),
    "latent.height": lambda acc, v: acc["latent"].__setitem__("height", _parse_int("latent.height", v)),
    "latent.width": lambda acc, v: acc["latent"].__setitem__("width", _parse_int("latent.width", v)),
    "latent.channels": lambda acc, v: acc["latent"].__setitem__("channels", _parse_int("latent.channels", v)),
    "predictor.kind": lambda acc, v: acc["predictor"].__setitem__("kind", v),
    "predictor.seed": lambda acc, v: acc["predictor"].__setitem__("seed", _parse_int("predictor.seed", v)),
    "predictor.components": lambda acc, v: acc["predictor"].__setitem__("components", _parse_int("predictor.components", v)),
    "predictor.smooth_amp": lambda acc, v: acc["predictor"].__setitem__("smooth_amp", _parse_float("predictor.smooth_amp", v)),
    "predictor.rough_amp": lambda acc, v: acc["predictor"].__setitem__("rough_amp", _parse_float("predictor.rough_amp", v)),
    "predictor.var": lambda acc, v: acc["predictor"].__setitem__("var", _parse_float("predictor.var", v)),
    "predictor.blocks": lambda acc, v: acc["predictor"].__setitem__("blocks", _parse_int("predictor.blocks", v)),
    "schedule.n": lambda acc, v: acc["schedule"].__setitem__("n", _parse_int("schedule.n", v)),
    "schedule.kind": lambda acc, v: acc["schedule"].__setitem__("kind", v),
    "schedule.shift": lambda acc, v: acc["schedule"].__setitem__("shift", _parse_float("schedule.shift", v)),
    "schedule.terminal": lambda acc, v: acc["schedule"].__setitem__("terminal", _parse_float("schedule.terminal", v)),
    "cache.alpha": lambda acc, v: acc["cache"].__setitem__("alpha", _parse_float("cache.alpha", v)),
    "cache.warmup": lambda acc, v: acc["cache"].__setitem__("warmup_steps", _parse_int("cache.warmup", v)),
    "cache.downsample": lambda acc, v: acc["cache"].__setitem__("downsample", parse_downsample("cache.downsample", v)),
    "cache.reuse": lambda acc, v: acc["cache"].__setitem__("reuse", v),
    "cache.mask_scale": lambda acc, v: acc["cache"].__setitem__("mask_scale", _parse_float("cache.mask_scale", v)),
    "block.cache_rate": lambda acc, v: acc["block"].__setitem__("cache_rate", _parse_float("block.cache_rate", v)),
    "block.interval": lambda acc, v: acc["block"].__setitem__("interval", _parse_int("block.interval", v)),
    "output.report": lambda acc, v: acc["output"].__setitem__("report", v),
    "output.trace": lambda acc, v: acc["output"].__setitem__("trace", v),
    "output.table": lambda acc, v: acc["output"].__setitem__("table", v),
    "output.figures": lambda acc, v: acc["output"].__setitem__("figures", v),
}


def parse_config(text: str) -> RunConfig:
    """Parse a key = value document into a validated RunConfig.

    Unknown keys, duplicate keys, malformed values, and keys nested deeper
    than one section all raise ConfigError naming the offender. An empty
    document yields the default configuration.
    """
    acc: dict = {"latent": {}, "predictor": {}, "schedule": {}, "cache": {}, "block": {}, "output": {}}
    seen: set[str] = set()
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
        setter = _SETTERS.get(key)
        if setter is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        setter(acc, value)

    latent_kw = acc["latent"]
    default_latent = RunConfig.__dataclass_fields__["latent"].default
    latent = (
        latent_kw.get("frames", default_latent[0]),
        latent_kw.get("height", default_latent[1]),
        latent_kw.get("width", default_latent[2]),
        latent_kw.get("channels", default_latent[3]),
    )
    return RunConfig(
        mode=acc.get("mode", "lfcache"),
        seeds=acc.get("seeds", ()),
        latent=latent,
        predictor=PredictorConfig(**acc["predictor"]),
        schedule=ScheduleConfig(**acc["schedule"]),
        cache=StepCacheConfig(**acc["cache"]),
        block=BlockCacheConfig(**acc["block"]),
        output=OutputConfig(**acc["output"]),
        input_trace=acc.get("input_trace"),
    )


def serialize_config(cfg: RunConfig) -> str:
    """Render a RunConfig as the canonical document parse_config inverts."""
    lines = [f"mode = {cfg.mode}"]
    if cfg.seeds:
        lines.append("seeds = " + " ".join(str(s) for s in cfg.seeds))
    if cfg.input_trace is not None:
        lines.append(f"input.trace = {cfg.input_trace}")
    for axis, extent in zip(("frames", "height", "width", "channels"), cfg.latent):
        lines.append(f"latent.{axis} = {extent}")
    p = cfg.predictor
    lines.append(f"predictor.kind = {p.kind}")
    if p.seed is not None:
        lines.append(f"predictor.seed = {p.seed}")
    lines.append(f"predictor.components = {p.components}")
    lines.append(f"predictor.smooth_amp = {p.smooth_amp!r}")
    lines.append(f"predictor.rough_amp = {p.rough_amp!r}")
    lines.append(f"predictor.var = {p.var!r}")
    lines.append(f"predictor.blocks = {p.blocks}")
    s = cfg.schedule
    lines.append(f"schedule.n = {s.n}")
    lines.append(f"schedule.kind = {s.kind}")
    lines.append(f"schedule.shift = {s.shift!r}")
    lines.append(f"schedule.terminal = {s.terminal!r}")
    c = cfg.cache
    lines.append(f"cache.alpha = {c.alpha!r}")
    lines.append(f"cache.warmup = {c.warmup_steps}")
    lines.append(f"cache.downsample = {format_downsample(c.downsample)}")
    lines.append(f"cache.reuse = {c.reuse}")
    lines.append(f"cache.mask_scale = {c.mask_scale!r}")
    b = cfg.block
    lines.append(f"block.cache_rate = {b.cache_rate!r}")
    lines.append(f"block.interval = {b.interval}")
    o = cfg.output
    for name, value in (("report", o.report), ("trace", o.trace), ("table", o.table), ("figures", o.figures)):
        if value is not None:
            lines.append(f"output.{name} = {value}")
    return "\n".join(lines) + "\n"


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
        spec = structured_mixture(cfg.latent, p.seed, components=p.components,
                                  smooth_amp=p.smooth_amp, rough_amp=p.rough_amp, var=p.var)
        return MixturePredictor(spec)
    return ToyBlockNet(p.blocks, cfg.latent[3], p.seed)


def build_schedule(cfg: RunConfig) -> TimestepSchedule:
    s = cfg.schedule
    return make_schedule(s.n, s.kind, s.shift, s.terminal)
