"""Metric names, units and directions, and their reduction from one run's samples.

``END_TO_END`` and ``PER_LAYER`` are the metrics of the final JSON line, with
tracing off and on; they must agree with BENCHMARK.json, which bounds the
end-to-end ones. ``WALL_TIMES`` are end-to-end metrics printed on every
workload but left out of the JSON line: from one run to the next they drift
with the load on the machine by up to a quarter, which no bound can hold,
while the interleaved ``wall_ratio`` stays within a few percent.
``TRACE_ONLY`` are printed on trace-replay alone, because the JSON line
carries the same metrics on every workload. Times are medians; per-layer
calls and seconds are per operation, except the ``config`` layer, which is
per set-up.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


END_TO_END = (
    Metric("wall_ratio", "ratio", "lower"),
    Metric("cost_ratio", "ratio", "lower"),
    Metric("terminal_psnr_db", "dB", "higher"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)

WALL_TIMES = (
    Metric("baseline_wall_s", "s", "lower"),
    Metric("cached_wall_s", "s", "lower"),
    Metric("cached_wall_tail_s", "s", "lower"),
)

TRACE_ONLY = (
    Metric("replay_wall_s", "s", "lower"),
    Metric("analyze_wall_s", "s", "lower"),
    Metric("trace_io_s", "s", "lower"),
)

#: Span totals reported as (span name, calls, seconds, self seconds) flags.
_SPAN_METRICS = (
    ("predictors.full_eval", True, True, False),
    ("predictors.trial_eval", True, True, False),
    ("predictors.apply_block", True, True, False),
    ("tensor.avg_downsample", True, True, False),
    ("tensor.axpy", True, True, False),
    ("spectral.circular_mask", True, True, False),
    ("spectral.lowfreq_diff", True, True, False),
    ("engine.trial_lowfreq_diff", True, True, True),
    ("engine.block_cached_forward", True, True, True),
    ("engine.sample_cached", False, False, True),
    ("engine.recorded_increments", False, True, False),
    ("engine.replay_decisions", False, True, False),
    ("sampler.euler_step", True, True, False),
    ("sampler.sample_baseline", False, False, True),
    ("report.validate", False, True, False),
    ("traceio.write_trace", False, True, False),
    ("traceio.read_trace", False, True, False),
)
_SETUP_SPANS = ("config.parse_config", "config.build_predictor")


def _layer_metrics() -> tuple[Metric, ...]:
    out = []
    for span, calls, seconds, self_seconds in _SPAN_METRICS:
        if calls:
            out.append(Metric(f"{span}.calls", "count", "lower"))
        if seconds:
            out.append(Metric(f"{span}.s", "s", "lower"))
        if self_seconds:
            out.append(Metric(f"{span}.self_s", "s", "lower"))
    out += [Metric(f"{span}.s", "s", "lower") for span in _SETUP_SPANS]
    out += [
        Metric("predictors.trial_full_ratio", "ratio", "lower"),
        Metric("engine.skip_fraction", "ratio", "higher"),
        Metric("engine.trial_yield", "ratio", "higher"),
        Metric("engine.block_partial_fraction", "ratio", "higher"),
        Metric("traceio.file_bytes", "bytes", "lower"),
        Metric("tracer.overhead_ratio", "ratio", "lower"),
    ]
    return tuple(out)


PER_LAYER = _layer_metrics()

#: Samples a run needs so that its tail has ten beyond it.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """The highest sample with ``TAIL_BEYOND`` samples above it, its percentile, and the count.

    With fewer samples the maximum is returned; its percentile is 100.
    """
    ordered = sorted(values)
    index = len(ordered) - 1 - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def rounds(ops) -> list[tuple]:
    """Consecutive operations paired so that each sampler runs once first and once second.

    Whichever run comes first after an operation's checks pays for memory the
    allocator handed back in between, so a single pair is biased by its order;
    a round is not.
    """
    by_index = {op.index: op for op in ops}
    return [(by_index[i], by_index[i + 1]) for i in sorted(by_index) if i % 2 and i + 1 in by_index]


def end_to_end(ops, setup_seconds: Sequence[float], peak_rss_mb: float) -> dict[str, float]:
    """End-to-end values of a timed run.

    Wall times are medians over rounds of the round's mean, the ratio is the
    median over rounds of cached over baseline seconds, and the tail is taken
    over single cached runs. Over the run's distinct seeds, the cost ratio is
    the mean and the PSNR the median.
    """
    per_seed = {op.seed: op for op in ops}
    paired = rounds(ops)
    values = {
        "baseline_wall_s": statistics.median((a.baseline_s + b.baseline_s) / 2 for a, b in paired),
        "cached_wall_s": statistics.median((a.cached_s + b.cached_s) / 2 for a, b in paired),
        "cached_wall_tail_s": tail([op.cached_s for op in ops])[0],
        "wall_ratio": statistics.median((a.cached_s + b.cached_s) / (a.baseline_s + b.baseline_s)
                                        for a, b in paired),
        "cost_ratio": statistics.fmean(op.cost_ratio for op in per_seed.values()),
        "terminal_psnr_db": statistics.median(op.psnr_db for op in per_seed.values()),
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": peak_rss_mb,
    }
    if ops[0].file_bytes:
        values["replay_wall_s"] = statistics.median(op.replay_s for op in ops)
        values["analyze_wall_s"] = statistics.median(op.analyze_s for op in ops)
        values["trace_io_s"] = statistics.median(op.write_s + op.read_s for op in ops)
    return values


def per_layer(span_totals: dict, op_count: int, setup_totals: dict, setup_count: int,
              ops, untraced_cached_s: Sequence[float]) -> dict[str, float]:
    """Per-layer values of a traced run: span totals per operation plus exact count ratios."""
    values: dict[str, float] = {}
    for span, calls, seconds, self_seconds in _SPAN_METRICS:
        entry = span_totals.get(span)
        if calls:
            values[f"{span}.calls"] = entry.calls / op_count if entry else 0.0
        if seconds:
            values[f"{span}.s"] = entry.seconds / op_count if entry else 0.0
        if self_seconds:
            values[f"{span}.self_s"] = entry.self_seconds / op_count if entry else 0.0
    for span in _SETUP_SPANS:
        entry = setup_totals.get(span)
        values[f"{span}.s"] = entry.seconds / setup_count if entry else 0.0
    values["predictors.trial_full_ratio"] = _ratio(
        _ratio(values["predictors.trial_eval.s"], values["predictors.trial_eval.calls"]),
        _ratio(values["predictors.full_eval.s"], values["predictors.full_eval.calls"]))
    skips = sum(op.skips for op in ops)
    values["engine.skip_fraction"] = _ratio(skips, sum(op.post_warmup for op in ops))
    values["engine.trial_yield"] = _ratio(skips, sum(op.trials for op in ops))
    values["engine.block_partial_fraction"] = _ratio(sum(op.partial_forwards for op in ops),
                                                     sum(op.block_forwards for op in ops))
    values["traceio.file_bytes"] = float(ops[0].file_bytes)
    values["tracer.overhead_ratio"] = (statistics.median(op.cached_s for op in ops)
                                       / statistics.median(untraced_cached_s))
    return values
