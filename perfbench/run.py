"""Benchmark of the flowcache samplers: cached against uncached wall time.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload mixture-default --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics; ``--trace 1`` runs it with wrappers on the package's names and
prints the per-layer metrics. Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 31
#: One process, one BLAS thread: the machine's load comes from this run alone.
BLAS_THREADS = "1"
#: Tracebacks printed per run; later failures are only counted.
SHOWN_FAILURES = 3
#: A timed run goes on past ``--seconds`` until its tail has ten samples
#: beyond it, but never measures longer than this.
MAX_MEASURE_S = 120.0


def environment() -> dict:
    """What the numbers were measured on."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(ROOT / ".git"),
    }


def git_commit(git_dir: Path) -> str:
    """HEAD's commit read from the git directory, or "unknown" outside a repository."""
    try:
        head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git_dir / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git_dir / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_setups(workload, seed: int):
    """Set up SETUP_REPEATS times; returns the durations and the last set-up."""
    from perfbench.workloads import set_up

    durations = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prep = set_up(workload, seed)
        durations.append(time.perf_counter() - start)
    return durations, prep


def run_operations(step, seconds: float, min_ops: int):
    """An untimed warm-up operation, then operations until ``seconds`` have passed
    and ``min_ops`` succeeded, or MAX_MEASURE_S have passed.

    A failed operation is counted and its traceback printed; the run goes on,
    but no longer than ``seconds``: a failing run does not wait for samples.
    """
    ops, attempted, failed = [], 0, 0
    start = time.perf_counter()
    for index in itertools.count():
        attempted += 1
        try:
            result = step(index)
        except Exception:
            failed += 1
            if failed <= SHOWN_FAILURES:
                print(f"operation {index} failed:", file=sys.stderr)
                traceback.print_exc()
        else:
            if index > 0:
                ops.append(result)
        if index == 0:
            start = time.perf_counter()
            continue
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and (len(ops) >= min_ops or failed)) or elapsed >= MAX_MEASURE_S:
            return ops, attempted, failed


def timed_run(workload, seed: int, seconds: float, trace_path: str):
    from perfbench import metrics, workloads

    setup_seconds, prep = timed_setups(workload, seed)
    seen: dict = {}
    ops, attempted, failed = run_operations(
        lambda index: workloads.operation(prep, index, seen, trace_path), seconds, metrics.TAIL_BEYOND + 1)
    if not metrics.rounds(ops):
        return {}, [], attempted, failed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = metrics.end_to_end(ops, setup_seconds, peak_rss_mb)
    _, percentile, count = metrics.tail([op.cached_s for op in ops])
    notes = [
        f"cached_wall_tail_s is p{percentile:.1f} of {count} cached runs, {metrics.TAIL_BEYOND} beyond it",
        f"failed_fraction = {failed / attempted!r} ratio ({failed} failed of {attempted} attempted)",
    ]
    shown = [*metrics.END_TO_END, *metrics.WALL_TIMES, *(metrics.TRACE_ONLY if workload.trace else ())]
    return {m.name: (values[m.name], m.unit) for m in shown}, notes, attempted, failed


def traced_run(workload, seed: int, seconds: float, trace_path: str):
    from perfbench import metrics, tracer, workloads

    trace = tracer.Tracer()
    hooks = tracer.package_hooks(workload.latent)
    with tracer.installed(trace, hooks):
        _, prep = timed_setups(workload, seed)
    setup_totals = tracer.totals(trace.spans)
    span_totals: dict[str, tracer.Totals] = {}
    untraced_cached_s: list[float] = []
    seen: dict = {}

    def step(index: int):
        start = time.perf_counter()
        workloads.cached_run(prep, prep.seeds[index % len(prep.seeds)])
        untraced = time.perf_counter() - start
        trace.spans.clear()
        with tracer.installed(trace, hooks):
            result = workloads.operation(prep, index, seen, trace_path)
        if index > 0:
            untraced_cached_s.append(untraced)
            for name, entry in tracer.totals(trace.spans).items():
                span_totals.setdefault(name, tracer.Totals()).add(entry)
        return result

    ops, attempted, failed = run_operations(step, seconds, 2)
    if not ops:
        return {}, [], attempted, failed
    values = metrics.per_layer(span_totals, len(ops), setup_totals, SETUP_REPEATS, ops, untraced_cached_s)
    notes = [f"per-layer calls and seconds are per operation over {len(ops)} traced operations; "
             f"config.* are per set-up over {SETUP_REPEATS}"]
    return {m.name: (values[m.name], m.unit) for m in metrics.PER_LAYER}, notes, attempted, failed


def main(argv=None) -> int:
    if not (ROOT / "src" / "flowcache" / "__init__.py").is_file():
        print(f"perfbench: no flowcache sources under {ROOT / 'src'}; run it from a repository checkout",
              file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported, so numpy, the
    # package and the benchmark's own modules are imported only after this.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.tracer import HookMissing
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        run = traced_run if args.trace else timed_run
        try:
            shown, notes, attempted, failed = run(workload, args.seed, args.seconds, os.path.join(work, "run.trace"))
        except HookMissing as exc:
            print(f"perfbench: traced run failed: {exc}", file=sys.stderr)
            return 3
    for name, (value, unit) in shown.items():
        print(f"{name} = {value!r} {unit}")
    for note in notes:
        print(note)
    gated = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0 and bool(shown),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": shown[m.name][0], "unit": m.unit} for m in gated if m.name in shown},
    }
    print(json.dumps(result))
    return 0 if shown else 1


if __name__ == "__main__":
    sys.exit(main())
