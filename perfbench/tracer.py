"""Outside-in tracing: spans recorded by wrappers installed on the package's names.

A hook replaces one attribute of a module or class with a wrapper that opens
a span around each call. Hooks sit where callers resolve the name: the engine
binds ``avg_downsample``, ``axpy``, ``circular_mask``, ``lowfreq_diff`` and
``euler_step`` at import, so those are wrapped on ``flowcache.engine``;
pooling inside the predictor resolves ``flowcache.predictors.avg_downsample``,
which stays unwrapped and therefore counts as predictor time. A hook whose
target no longer exists fails by name instead of reporting zero.

Spans are kept in memory and reduced to per-name totals at the end. A span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence


class HookMissing(Exception):
    """A hook's target attribute does not exist where callers resolve it."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int


class Tracer:
    """Records nested spans; spans of one thread nest strictly."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if not self._open or self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self.spans[index].end = self.clock()

    def wrap(self, fn: Callable, name: str | Callable[..., str]) -> Callable:
        """``fn`` recording a span per call; ``name`` may pick the span name from the arguments."""
        pick = name if callable(name) else (lambda *args, **kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(pick(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced


@dataclass
class Totals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0

    def add(self, other: "Totals") -> None:
        self.calls += other.calls
        self.seconds += other.seconds
        self.self_seconds += other.self_seconds


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def totals(spans: Sequence[Span]) -> dict[str, Totals]:
    """Calls, total seconds and self seconds per span name."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[str, Totals] = {}
    for index, span in enumerate(spans):
        duration = span.end - span.start
        entry = out.setdefault(span.name, Totals())
        entry.calls += 1
        entry.seconds += duration
        entry.self_seconds += duration - _covered(children.get(index, []), span.start, span.end)
    return out


@dataclass(frozen=True)
class Hook:
    """Wrap ``owner.attribute`` and name its spans ``name`` (or ``name(*args)``)."""

    name: str | Callable[..., str]
    owner: object
    attribute: str

    def describe(self) -> str:
        return f"{getattr(self.owner, '__name__', self.owner)}.{self.attribute}"


@contextmanager
def installed(tracer: Tracer, hooks: Sequence[Hook]) -> Iterator[Tracer]:
    """Install every hook for the duration of the block, restore the originals after.

    Raises HookMissing, before installing anything, if a target is not bound
    on its owner.
    """
    missing = [h.describe() for h in hooks if h.attribute not in vars(h.owner)]
    if missing:
        raise HookMissing("hook targets no longer exist: " + ", ".join(missing))
    originals: list[tuple[Hook, object]] = []
    try:
        for hook in hooks:
            original = vars(hook.owner)[hook.attribute]
            setattr(hook.owner, hook.attribute, tracer.wrap(original, hook.name))
            originals.append((hook, original))
        yield tracer
    finally:
        for hook, original in reversed(originals):
            setattr(hook.owner, hook.attribute, original)


def package_hooks(full_shape: tuple) -> list[Hook]:
    """The hooks of the traced run; predictor evaluations split by input shape."""
    from flowcache import config, engine, predictors, report, sampler, traceio

    def evaluation(self, z, t):
        return "predictors.full_eval" if z.shape == tuple(full_shape) else "predictors.trial_eval"

    return [
        Hook("config.parse_config", config, "parse_config"),
        Hook("config.build_predictor", config, "build_predictor"),
        Hook("traceio.write_trace", traceio, "write_trace"),
        Hook("traceio.read_trace", traceio, "read_trace"),
        Hook("sampler.sample_baseline", sampler, "sample_baseline"),
        Hook("sampler.euler_step", sampler, "euler_step"),
        Hook("tensor.axpy", sampler, "axpy"),
        Hook("engine.sample_cached", engine, "sample_cached"),
        Hook("engine.trial_lowfreq_diff", engine, "trial_lowfreq_diff"),
        Hook("engine.block_cached_forward", engine, "block_cached_forward"),
        Hook("engine.recorded_increments", engine, "recorded_increments"),
        Hook("engine.replay_decisions", engine, "replay_decisions"),
        Hook("sampler.euler_step", engine, "euler_step"),
        Hook("tensor.avg_downsample", engine, "avg_downsample"),
        Hook("tensor.axpy", engine, "axpy"),
        Hook("spectral.circular_mask", engine, "circular_mask"),
        Hook("spectral.lowfreq_diff", engine, "lowfreq_diff"),
        Hook("report.validate", report.RunReport, "validate"),
        Hook(evaluation, predictors.MixturePredictor, "evaluate"),
        Hook(evaluation, predictors.ToyBlockNet, "evaluate"),
        Hook("predictors.apply_block", predictors.ToyBlockNet, "apply_block"),
    ]
