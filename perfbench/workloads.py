"""Workloads: the inputs each run generates and the operation it times on them.

The package sees only generated inputs: a config document, a latent seed list
drawn from the benchmark's seed argument and, on trace-replay, a trace file
written from a recorded baseline run. Every call into the package goes through
a module attribute (``fc_sampler.sample_baseline``, ...), so the tracer can
wrap the names where callers resolve them.

One operation is one latent seed: its uncached and its cached sampling run,
back to back, plus the trace round trip on trace-replay. Every output is
checked; a failed check raises CheckFailed.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from flowcache import config as fc_config
from flowcache import engine as fc_engine
from flowcache import harness as fc_harness
from flowcache import predictors as fc_predictors
from flowcache import sampler as fc_sampler
from flowcache import tensor as fc_tensor
from flowcache import traceio as fc_traceio
from flowcache.report import DECISION_FULL, DECISION_SKIP

ANALYSIS_ALPHAS = (0.3, 0.5, 0.7, 0.9)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str
    latent: tuple[int, int, int, int]
    cached_mode: str
    #: Lowest PSNR of a cached terminal against its baseline terminal that
    #: still counts as a correct run; set well below the 15 dB (mixtures) and
    #: 50 dB (toy-block net) the samplers reached when the benchmark was made.
    psnr_floor_db: float
    #: Distinct latent seeds per run. Operations cycle through them, so every
    #: operation after the first cycle is also a determinism check. Where an
    #: operation is cheap, more seeds keep the cost ratio and the PSNR, which
    #: differ from seed to seed, steady from run to run.
    latent_seeds: int = 5
    trace: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("mixture-default",
             "README default shape: tiny calls, so step-loop and trial-path overhead dominate the cached run",
             "mixture", (4, 16, 16, 2), "lfcache", 8.0, latent_seeds=30),
    Workload("mixture-large",
             "predictor-bound mixture: trial evaluation re-pools every component mean, so it costs near a full one",
             "mixture", (8, 64, 64, 4), "lfcache", 8.0),
    Workload("toyblock-large",
             "toy-block net with the block cache: apply_block and block_cached_forward dominate, trial is cheap",
             "toy-block", (8, 64, 64, 16), "lfcache+block", 40.0),
    Workload("trace-replay",
             "trace write, read, open-loop replay and four-alpha analysis of a recorded mixture baseline run",
             "mixture", (8, 32, 32, 4), "lfcache", 8.0, latent_seeds=15, trace=True),
)}


def config_text(workload: Workload) -> str:
    """The config document of a workload. Every cache setting is spelled out,
    so a change of the package defaults does not change the benchmark."""
    frames, height, width, channels = workload.latent
    lines = [
        f"mode = {workload.cached_mode}",
        f"latent.frames = {frames}",
        f"latent.height = {height}",
        f"latent.width = {width}",
        f"latent.channels = {channels}",
        f"predictor.kind = {workload.kind}",
        "predictor.seed = 7",
        "predictor.components = 2",
        "predictor.blocks = 6",
        "schedule.n = 50",
        "cache.alpha = 0.5",
        "cache.warmup = 5",
        "cache.downsample = 2x4x4",
        "cache.reuse = prediction",
        "block.cache_rate = 0.4",
        "block.interval = 3",
    ]
    return "\n".join(lines) + "\n"


def latent_seeds(seed: int, count: int) -> tuple[int, ...]:
    """Distinct latent seeds drawn from the benchmark's seed argument."""
    rng = np.random.default_rng(seed)
    return tuple(int(s) for s in rng.choice(2**31 - 1, size=count, replace=False))


@dataclass
class Prepared:
    """Everything set-up builds; operations only read it."""

    workload: Workload
    cfg: fc_config.RunConfig
    predictor: object
    schedule: fc_sampler.TimestepSchedule
    seeds: tuple[int, ...]
    latents: dict
    archive: Optional[fc_predictors.TraceArchive] = None
    trace_terminal: Optional[fc_tensor.Tensor4] = None

    @property
    def block(self):
        return self.cfg.block if self.cfg.mode == "lfcache+block" else None


def set_up(workload: Workload, seed: int) -> Prepared:
    """Parse the config, build predictor and schedule, draw the latents and,
    on trace-replay, record the baseline run of the first seed."""
    cfg = fc_config.parse_config(config_text(workload))
    predictor = fc_config.build_predictor(cfg)
    schedule = fc_config.build_schedule(cfg)
    seeds = latent_seeds(seed, workload.latent_seeds)
    latents = {s: fc_tensor.seeded_normal(cfg.latent, s) for s in seeds}
    prep = Prepared(workload, cfg, predictor, schedule, seeds, latents)
    if workload.trace:
        predictions = []
        prep.trace_terminal, _ = fc_sampler.sample_baseline(
            predictor, latents[seeds[0]], schedule, observer=lambda k, t, z, f: predictions.append(f))
        prep.archive = fc_predictors.TraceArchive.from_run(schedule, predictions)
    return prep


class CheckFailed(Exception):
    """An output of the package failed one of the benchmark's checks."""


@dataclass
class OpResult:
    index: int
    seed: int
    baseline_s: float
    cached_s: float
    cost_ratio: float
    psnr_db: float
    #: Exact counts of the cached run: skips, post-warmup steps, trial
    #: evaluations, partial block forwards, all block forwards.
    skips: int
    post_warmup: int
    trials: int
    partial_forwards: int
    block_forwards: int
    write_s: float = 0.0
    read_s: float = 0.0
    replay_s: float = 0.0
    analyze_s: float = 0.0
    file_bytes: int = 0


def check_report(prep: Prepared, terminal, report, what: str) -> None:
    """Counts add up to the schedule and the cost units match the decisions."""
    n = prep.schedule.n_steps
    if len(report.steps) != n:
        raise CheckFailed(f"{what}: {len(report.steps)} step rows for {n} steps")
    if report.full_eval_count + report.skip_count + report.warmup_full_count != n:
        raise CheckFailed(f"{what}: full + skip + warmup counts do not add up to {n}")
    cells = terminal.cells
    full_cells = float(cells)
    trial_cells = float(cells // prep.cfg.cache.downsample.volume)
    trials = 0
    total = 0.0
    for row in report.steps:
        expected = 0.0
        if row.trial_delta is not None:
            trials += 1
            expected += trial_cells
        if row.decision != DECISION_SKIP:
            if row.block_partial:
                expected += full_cells * (row.pivotal_size / prep.predictor.num_blocks)
            else:
                expected += full_cells
        if not math.isclose(row.cost_units, expected, rel_tol=1e-12):
            raise CheckFailed(f"{what}: step {row.step} costs {row.cost_units} units, its decisions make {expected}")
        total += row.cost_units
    if trials != report.trial_eval_count:
        raise CheckFailed(f"{what}: {report.trial_eval_count} trial evaluations reported, {trials} rows have one")
    if not math.isclose(total, report.cost_units, rel_tol=1e-12):
        raise CheckFailed(f"{what}: cost units {report.cost_units} differ from the step sum {total}")
    if not np.all(np.isfinite(terminal.data)):
        raise CheckFailed(f"{what}: terminal is not finite")


def check_repeat(seen: dict, key, terminal, report) -> None:
    """The same seed must give the same terminal checksum and decision sequence."""
    digest = (hashlib.sha256(terminal.data.tobytes()).hexdigest(), tuple(r.decision for r in report.steps))
    if seen.setdefault(key, digest) != digest:
        raise CheckFailed(f"{key[0]} run of seed {key[1]} differs from its first run")


def cached_run(prep: Prepared, seed: int):
    return fc_engine.sample_cached(prep.predictor, prep.latents[seed], prep.schedule, prep.cfg.cache, prep.block)


def sampling_pair(prep: Prepared, index: int, seen: dict) -> OpResult:
    """Uncached and cached sampling of the operation's latent seed, timed one
    after the other; odd operations run the cached sampler first."""
    seed = prep.seeds[index % len(prep.seeds)]
    z0 = prep.latents[seed]
    runs = {}
    for mode in ("cached", "baseline") if index % 2 else ("baseline", "cached"):
        start = time.perf_counter()
        if mode == "baseline":
            terminal, report = fc_sampler.sample_baseline(prep.predictor, z0, prep.schedule)
        else:
            terminal, report = cached_run(prep, seed)
        runs[mode] = (time.perf_counter() - start, terminal, report)
    for mode, (_, terminal, report) in runs.items():
        check_report(prep, terminal, report, f"{mode} run of seed {seed}")
        check_repeat(seen, (mode, seed), terminal, report)
    baseline_s, baseline_terminal, baseline_report = runs["baseline"]
    cached_s, cached_terminal, cached_report = runs["cached"]
    psnr_db = fc_harness.psnr(cached_terminal, baseline_terminal)
    if psnr_db < prep.workload.psnr_floor_db:
        raise CheckFailed(f"seed {seed}: terminal PSNR {psnr_db:.2f} dB is below {prep.workload.psnr_floor_db} dB")
    block_rows = [row.block_partial for row in cached_report.steps if row.block_partial is not None]
    return OpResult(index, seed, baseline_s, cached_s, cached_report.cost_units / baseline_report.cost_units, psnr_db,
                    cached_report.skip_count, cached_report.skip_count + cached_report.full_eval_count,
                    cached_report.trial_eval_count, sum(block_rows), len(block_rows))


def analyze(archive: fc_predictors.TraceArchive, cache) -> list[int]:
    """Full-evaluation counts of the counterfactual policy at each analysis alpha."""
    increments = fc_engine.recorded_increments([rec.prediction for rec in archive.records], cache)
    split = max(cache.warmup_steps - 1, 0)
    warmup, post = increments[:split], increments[split:]
    return [fc_engine.replay_decisions(post, fc_engine.relative_threshold(warmup, alpha)).count(DECISION_FULL)
            for alpha in ANALYSIS_ALPHAS]


def trace_round_trip(prep: Prepared, result: OpResult, path: str) -> None:
    """Write and read the recorded trace, replay it open-loop, analyze it."""
    start = time.perf_counter()
    fc_traceio.write_trace(path, prep.archive)
    written = time.perf_counter()
    archive = fc_traceio.read_trace(path)
    read = time.perf_counter()
    terminal, report = fc_sampler.sample_baseline(
        fc_predictors.TraceReplayPredictor(archive), prep.latents[prep.seeds[0]], archive.schedule)
    replayed = time.perf_counter()
    full_counts = analyze(archive, prep.cfg.cache)
    analyzed = time.perf_counter()
    check_report(prep, terminal, report, "open-loop replay")
    if terminal.tobytes() != prep.trace_terminal.tobytes():
        raise CheckFailed("open-loop replay terminal differs from the recorded baseline terminal")
    if any(a < b for a, b in zip(full_counts, full_counts[1:])):
        raise CheckFailed(f"full counts {full_counts} over alphas {ANALYSIS_ALPHAS} are not monotone")
    result.write_s = written - start
    result.read_s = read - written
    result.replay_s = replayed - read
    result.analyze_s = analyzed - replayed
    result.file_bytes = os.path.getsize(path)


def operation(prep: Prepared, index: int, seen: dict, trace_path: str) -> OpResult:
    """Operation ``index`` of a run: the sampling pair, then the trace round trip."""
    result = sampling_pair(prep, index, seen)
    if prep.workload.trace:
        trace_round_trip(prep, result, trace_path)
    return result
