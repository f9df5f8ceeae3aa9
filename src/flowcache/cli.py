"""Command-line artifact generator for sampling runs and their analyses.

Subcommands:

    generate       one run, JSON report, optional binary trace dump
    bench          baseline vs cached variants (base, turbo), CSV table
    sweep          one-axis grid (downsample, alpha, cache_rate or mask_scale), CSV table
    analyze-trace  counterfactual threshold analysis of a recorded trace
    figures        CSV series (and optional SVG plots) for the four analyses of one
                   recorded no-cache run; a mixture config's blocks.csv profiles
                   ToyBlockNet(predictor.blocks, latent.channels, predictor.seed)
                   from that net's own run

Artifacts are deterministic functions of (config, seed): JSON reports carry
their volatile parts (wall time, timestamp) in a single isolated "timing"
field, CSV tables carry none at all, so byte comparison modulo that one field
is a valid reproducibility check. Floats are rendered with repr, which
round-trips exactly.

CSV columns are part of the contract and stay stable:

    bench.csv   variant,seed,alpha,n_steps,skip_count,skip_fraction,
                full_evals,warmup_fulls,trial_evals,cost_units,
                speedup_units,mse_vs_baseline,psnr_db
    sweep.csv   run_id,axis,value,seed,skip_count,skip_fraction,
                speedup_units,cost_units,mse_vs_baseline,psnr_db
    figures/    influence.csv, adjacent_diff.csv, resolution.csv,
                resolution_series.csv, blocks.csv
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from .config import (RunConfig, build_predictor, build_schedule, format_downsample, parse_config, parse_downsample,
                     parse_float, require_divisible, require_seeds, serialize_config)
from .engine import calibrate, recorded_increments, replay_decisions, sample_cached
from .errors import ConfigError, DimensionError, FlowCacheError
from .harness import (
    DEFAULT_RESOLUTION_FACTORS,
    VARIANT_FULL,
    VARIANT_HIGH,
    VARIANT_LOW,
    adjacent_diff_profile,
    block_profile,
    cost_accounting,
    psnr,
    resolution_sensitivity,
    run_trajectory,
    single_step_skip_influence,
)
from .predictors import TraceArchive, TraceReplayPredictor, ToyBlockNet
from .report import DECISION_SKIP, DECISION_WARMUP, RunReport, StepRecord, step_cost, token_count
from .sampler import Predictor, StepObserver, sample_baseline
from .tensor import mse, pooled_shape, seeded_normal
from .traceio import read_trace, write_trace

SCHEMA_VERSION = 1
BENCH_VARIANTS = (("base", 0.5), ("turbo", 0.7))
SWEEP_AXES = ("downsample", "alpha", "cache_rate", "mask_scale")
DEFAULT_SWEEP_ALPHAS = (0.3, 0.5, 0.7, 0.9)
DEFAULT_SWEEP_CACHE_RATES = (0.0, 0.2, 0.4, 0.6, 0.8)
#: On the default 4x4 trial plane these keep 1, 5, 11 and all 16 frequency bins.
DEFAULT_SWEEP_MASK_SCALES = (0.2, 0.3, 0.5, 1.0)
SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _write_text(path, text: str) -> None:
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")


def _write_json(path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    _write_text(path, "\n".join(lines) + "\n")


def _timing(started: float) -> dict:
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": time.perf_counter() - started,
    }


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    else:
        cfg = parse_config("")
    if getattr(args, "mode", None):
        cfg = replace(cfg, mode=args.mode)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    if getattr(args, "input_trace", None):
        cfg = replace(cfg, input_trace=args.input_trace)
    return cfg


def _sample(cfg: RunConfig, seed: int, observer: Optional[StepObserver] = None, pred: Optional[Predictor] = None):
    """One run of cfg.mode from seed, on pred or a predictor built from cfg; returns (terminal, report, schedule)."""
    if cfg.mode == "open-loop":
        if cfg.input_trace is None:
            raise ConfigError("open-loop mode needs a recorded trace; set input.trace or --input-trace")
        archive = read_trace(cfg.input_trace)
        z0 = seeded_normal(archive.records[0].prediction.shape, seed)
        terminal, report = sample_baseline(TraceReplayPredictor(archive), z0, archive.schedule, observer)
        return terminal, report, archive.schedule
    schedule = build_schedule(cfg)
    pred = build_predictor(cfg) if pred is None else pred
    z0 = seeded_normal(cfg.latent, seed)
    if cfg.mode == "baseline":
        terminal, report = sample_baseline(pred, z0, schedule, observer)
    else:
        block = cfg.block if cfg.mode == "lfcache+block" else None
        terminal, report = sample_cached(pred, z0, schedule, cfg.cache, block, observer)
    return terminal, report, schedule


def _compared_runs(cfg: RunConfig, seed: int, variants: Sequence[RunConfig]) -> list:
    """The seed's baseline run, then each variant: (report, cost, mse, psnr) against the baseline's terminal.

    A variant changes only the mode and the cache settings, so every run samples one predictor and reuses its
    memos.
    """
    pred = build_predictor(cfg)
    reference, base_report, _ = _sample(replace(cfg, mode="baseline"), seed, pred=pred)
    runs = [(reference, base_report)] + [_sample(variant, seed, pred=pred)[:2] for variant in variants]
    return [(report, cost_accounting(report), mse(terminal, reference), psnr(terminal, reference))
            for terminal, report in runs]


def _cmd_generate(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args)
    seed = require_seeds(cfg)[0]
    trace_path = args.trace or cfg.output.trace
    preds: list = []
    observer = (lambda k, t, z, f: preds.append(f)) if trace_path is not None else None
    cached = cfg.mode in ("lfcache", "lfcache+block")
    pred = build_predictor(cfg) if cached else None
    terminal, report, schedule = _sample(cfg, seed, observer, pred)

    quality = None
    if cached:
        reference = _sample(replace(cfg, mode="baseline"), seed, pred=pred)[0]
        quality = {"mse": mse(terminal, reference), "psnr_db": psnr(terminal, reference)}

    if trace_path is not None:
        write_trace(trace_path, TraceArchive.from_run(schedule, preds))

    out = args.out or cfg.output.report or "report.json"
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "generate",
        "mode": cfg.mode,
        "seed": seed,
        "config": serialize_config(cfg),
        "report": {name: value for name, value in asdict(report).items() if name != "wall_time"},
        "cost": asdict(cost_accounting(report)),
        "quality": quality,
        "terminal_checksum": hashlib.sha256(terminal.tobytes()).hexdigest(),
        "timing": _timing(started),
    }
    _write_json(out, payload)
    print(f"wrote {out}" + (f" and {trace_path}" if trace_path else ""))
    return 0


def _cmd_bench(args) -> int:
    cfg = _load_config(args)
    seeds = require_seeds(cfg)
    header = ("variant", "seed", "alpha", "n_steps", "skip_count", "skip_fraction",
              "full_evals", "warmup_fulls", "trial_evals", "cost_units",
              "speedup_units", "mse_vs_baseline", "psnr_db")
    variants = [_cached_variant(cfg, "alpha", alpha) for _, alpha in BENCH_VARIANTS]
    rows = []
    for seed in seeds:
        runs = _compared_runs(cfg, seed, variants)
        for (name, alpha), (report, cost, err, db) in zip((("baseline", None), *BENCH_VARIANTS), runs):
            rows.append((name, seed, alpha, report.n_steps, report.skip_count,
                         cost.skip_fraction, report.full_eval_count, report.warmup_full_count,
                         report.trial_eval_count, report.cost_units, cost.speedup_units, err, db))
    out = args.out or cfg.output.table or "bench.csv"
    _write_csv(out, header, rows)
    print(f"wrote {out}")
    return 0


def _parse_sweep_values(axis: str, tokens: Optional[Sequence[str]]):
    if axis == "downsample":
        return tuple(parse_downsample("--values", tok) for tok in tokens) if tokens else DEFAULT_RESOLUTION_FACTORS
    defaults = {"alpha": DEFAULT_SWEEP_ALPHAS, "cache_rate": DEFAULT_SWEEP_CACHE_RATES,
                "mask_scale": DEFAULT_SWEEP_MASK_SCALES}[axis]
    return tuple(parse_float(f"sweep --axis {axis} --values", tok) for tok in tokens) if tokens else defaults


def _cached_variant(cfg: RunConfig, axis: str, value) -> RunConfig:
    """The cached run of one bench or sweep value; building it validates the value against the rest of the config.

    downsample, alpha and mask_scale name StepCacheConfig fields and keep the configured cached mode, the
    block cache included; cache_rate runs the block cache.
    """
    if axis == "cache_rate":
        if cfg.predictor.kind != "toy-block":
            raise ConfigError(f"sweep --axis cache_rate needs predictor.kind = toy-block (the block cache needs a "
                              f"block-decomposed predictor), got predictor.kind = {cfg.predictor.kind}")
        return replace(cfg, mode="lfcache+block", block=replace(cfg.block, cache_rate=value))
    mode = "lfcache+block" if cfg.mode == "lfcache+block" else "lfcache"
    return replace(cfg, mode=mode, cache=replace(cfg.cache, **{axis: value}))


def _sweep_label(axis: str, value) -> str:
    if axis == "downsample":
        return format_downsample(value)
    return repr(value)


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    seeds = require_seeds(cfg)
    axis = args.axis
    values = _parse_sweep_values(axis, args.values)
    labels = [_sweep_label(axis, value) for value in values]
    variants = [_cached_variant(cfg, axis, value) for value in values]
    header = ("run_id", "axis", "value", "seed", "skip_count", "skip_fraction",
              "speedup_units", "cost_units", "mse_vs_baseline", "psnr_db")
    rows = []
    for seed in seeds:
        for label, (report, cost, err, db) in zip(labels, _compared_runs(cfg, seed, variants)[1:]):
            rows.append((f"{axis}={label}:seed={seed}", axis, label, seed, report.skip_count,
                         cost.skip_fraction, cost.speedup_units, report.cost_units, err, db))
    out = args.out or cfg.output.table or "sweep.csv"
    _write_csv(out, header, rows)
    print(f"wrote {out}")
    return 0


def _cmd_analyze_trace(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args)
    alphas = tuple(parse_float("--alphas", tok) for tok in args.alphas) if args.alphas else DEFAULT_SWEEP_ALPHAS
    archive = read_trace(args.trace)
    cache = cfg.cache
    shape = archive.records[0].prediction.shape
    try:
        trial_tokens = token_count(pooled_shape(shape, cache.downsample))
    except DimensionError as exc:
        raise DimensionError(f"trace {args.trace}: {exc}") from None
    increments = recorded_increments([rec.prediction for rec in archive.records], cache)
    n = archive.schedule.n_steps
    warmup = cache.warmup_steps
    latent_tokens = token_count(shape)

    analyses = []
    for alpha in alphas:
        threshold, post_increments = calibrate(increments, warmup, alpha)
        decisions = replay_decisions(post_increments, threshold)
        # The rows of a live run that made these decisions: warmup first, a trial at every step after step 0.
        run = [DECISION_WARMUP] * (n - len(decisions)) + decisions
        rows = [StepRecord(step=k, t=t, decision=d, trial_delta=delta, err_before=None, err_after=None,
                           cost_units=step_cost(latent_tokens, trial_tokens, delta is not None,
                                                0.0 if d == DECISION_SKIP else 1.0))
                for k, (t, d, delta) in enumerate(zip(archive.schedule.values, run, [None, *increments]))]
        report = RunReport.from_rows(rows, shape, trial_tokens)
        projected = cost_accounting(report)
        analyses.append({
            "alpha": alpha,
            "threshold": threshold,
            "full_count": report.full_eval_count,
            "skip_count": report.skip_count,
            "skip_fraction": projected.skip_fraction,
            "projected_cost_units": projected.cost_units,
            "projected_speedup_units": projected.speedup_units,
            "decisions": decisions,
        })
    ordered = sorted(analyses, key=lambda a: a["alpha"])
    monotone = all(earlier["full_count"] >= later["full_count"]
                   for earlier, later in zip(ordered, ordered[1:]))

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze-trace",
        "trace": str(args.trace),
        "n_steps": n,
        "latent_shape": list(shape),
        "schedule": list(archive.schedule.values),
        "warmup_steps": warmup,
        "increments": increments,
        "alphas": analyses,
        "monotone_full_counts": monotone,
        "timing": _timing(started),
    }
    out = args.out or "analysis.json"
    _write_json(out, payload)
    print(f"wrote {out}")
    return 0


def _svg_lines(path, title: str, xs: Sequence[float], series: Sequence[tuple[str, Sequence[float]]]) -> None:
    """Minimal polyline plot; no plotting library, fixed 640x400 canvas."""
    width, height, pad = 640.0, 400.0, 48.0
    xs = list(xs)
    all_ys = [y for _, ys in series for y in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_ys), max(all_ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{pad}" y="24" font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height - pad + 16}" font-family="sans-serif" font-size="10">{x_lo:.3g}</text>',
        f'<text x="{width - pad - 24}" y="{height - pad + 16}" font-family="sans-serif" font-size="10">{x_hi:.3g}</text>',
        f'<text x="4" y="{height - pad}" font-family="sans-serif" font-size="10">{y_lo:.3g}</text>',
        f'<text x="4" y="{pad}" font-family="sans-serif" font-size="10">{y_hi:.3g}</text>',
    ]
    for idx, (label, ys) in enumerate(series):
        color = SVG_PALETTE[idx % len(SVG_PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 14 * idx + 10}" font-family="sans-serif" font-size="10" fill="{color}">{label}</text>')
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def _cmd_figures(args) -> int:
    cfg = _load_config(args)
    seed = require_seeds(cfg)[0]
    for factors in DEFAULT_RESOLUTION_FACTORS:
        require_divisible(cfg.latent, factors, "resolution")
    if cfg.schedule.n < 3:
        raise ConfigError(f"figures needs schedule.n >= 3 (the resolution correlations need drift at two or more "
                          f"steps), got schedule.n = {cfg.schedule.n}")
    schedule = build_schedule(cfg)
    pred = build_predictor(cfg)
    z0 = seeded_normal(cfg.latent, seed)
    out_dir = Path(args.out or cfg.output.figures or "figures")
    out_dir.mkdir(parents=True, exist_ok=True)

    mask_scale = cfg.cache.mask_scale
    traj = run_trajectory(pred, z0, schedule)
    profiles = {variant: single_step_skip_influence(traj, variant, mask_scale)
                for variant in (VARIANT_FULL, VARIANT_LOW, VARIANT_HIGH)}
    base = profiles[VARIANT_FULL]
    _write_csv(out_dir / "influence.csv",
               ("step", "t", "full_prediction", "lf_only", "hf_only"),
               [(k, t, profiles[VARIANT_FULL].mses[i], profiles[VARIANT_LOW].mses[i], profiles[VARIANT_HIGH].mses[i])
                for i, (k, t) in enumerate(zip(base.step_indices, base.t_values))])

    adj = adjacent_diff_profile(traj, mask_scale)
    _write_csv(out_dir / "adjacent_diff.csv",
               ("step", "t", "raw", "low", "high"),
               [(k, t, adj.raw[i], adj.low[i], adj.high[i])
                for i, (k, t) in enumerate(zip(adj.step_indices, adj.t_values))])

    res = resolution_sensitivity(traj, mask_scale=mask_scale)
    labels = [format_downsample(f) for f in res.factors]
    _write_csv(out_dir / "resolution.csv",
               ("factor", "pearson", "spearman"),
               [(labels[i], res.pearson_by_factor[i], res.spearman_by_factor[i]) for i in range(len(labels))])
    _write_csv(out_dir / "resolution_series.csv",
               ("step", "reference", *labels),
               [(k, res.reference[i], *(res.series[j][i] for j in range(len(labels))))
                for i, k in enumerate(res.step_indices)])

    block_run = traj if isinstance(pred, ToyBlockNet) else run_trajectory(
        ToyBlockNet(cfg.predictor.blocks, cfg.latent[3], cfg.predictor.seed), z0, schedule)
    n = schedule.n_steps
    probes = sorted(set(p for p in (0, n // 4, n // 2, (3 * n) // 4) if p < n))
    blocks = block_profile(block_run, probes)
    _write_csv(out_dir / "blocks.csv",
               ("probe_step", "t", "block", "importance"),
               [(p, blocks.t_values[i], j, blocks.importances[i][j])
                for i, p in enumerate(blocks.probe_steps)
                for j in range(len(blocks.importances[i]))])

    written = ["influence.csv", "adjacent_diff.csv", "resolution.csv", "resolution_series.csv", "blocks.csv"]
    if args.svg:
        _svg_lines(out_dir / "influence.svg", "single-step substitution influence",
                   base.t_values, [(v, profiles[v].mses) for v in (VARIANT_FULL, VARIANT_LOW, VARIANT_HIGH)])
        _svg_lines(out_dir / "adjacent_diff.svg", "adjacent prediction difference by band",
                   adj.t_values, [("raw", adj.raw), ("low", adj.low), ("high", adj.high)])
        written += ["influence.svg", "adjacent_diff.svg"]
    print(f"wrote {', '.join(written)} in {out_dir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowcache", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="path to a key = value config document")
        p.add_argument("--seed", type=int, help="override the configured seed list with one seed")

    gen = sub.add_parser("generate", help="run once and write a JSON report")
    common(gen)
    gen.add_argument("--mode", choices=("baseline", "lfcache", "lfcache+block", "open-loop"))
    gen.add_argument("--out", help="report path (default report.json)")
    gen.add_argument("--trace", help="also dump the used predictions as a binary trace")
    gen.add_argument("--input-trace", dest="input_trace", help="recorded trace to replay (open-loop mode)")
    gen.set_defaults(func=_cmd_generate)

    bench = sub.add_parser("bench", help="baseline vs base/turbo cached runs, CSV")
    common(bench)
    bench.add_argument("--mode", choices=("lfcache", "lfcache+block"))
    bench.add_argument("--out", help="table path (default bench.csv)")
    bench.set_defaults(func=_cmd_bench)

    sweep = sub.add_parser("sweep", help="one-axis parameter grid, CSV")
    common(sweep)
    sweep.add_argument("--axis", choices=SWEEP_AXES, default="downsample")
    sweep.add_argument("--values", nargs="+", help="axis values (downsample: 2x4x4 style)")
    sweep.add_argument("--out", help="table path (default sweep.csv)")
    sweep.set_defaults(func=_cmd_sweep)

    analyze = sub.add_parser("analyze-trace", help="counterfactual threshold analysis of a trace file")
    common(analyze)
    analyze.add_argument("trace", help="binary trace file to analyze")
    analyze.add_argument("--alphas", nargs="+", help="threshold multipliers to evaluate")
    analyze.add_argument("--out", help="analysis path (default analysis.json)")
    analyze.set_defaults(func=_cmd_analyze_trace)

    figures = sub.add_parser("figures", help="CSV series for the main analyses")
    common(figures)
    figures.add_argument("--out", help="output directory (default figures)")
    figures.add_argument("--svg", action="store_true", help="also emit SVG line plots")
    figures.set_defaults(func=_cmd_figures)
    return parser


def run_command(argv: Sequence[str]) -> int:
    """Parse argv, run the subcommand, map package, OS and allocation errors to exit status 1."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0 if code is None else 2
    try:
        return args.func(args)
    except (FlowCacheError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
