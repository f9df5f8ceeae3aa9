"""Tests of the benchmark itself; none asserts on wall time.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import metrics, tracer, workloads  # noqa: E402


def _span(name, start, end, parent=-1):
    return tracer.Span(name, start, end, parent)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),      # overlaps a: the union 1..6 covers 5
        _span("leaf", 2.0, 3.0, parent=1),   # grandchild: counts for a, not for root
        _span("c", 9.0, 12.0, parent=0),     # runs past its parent: only 9..10 counts
    ]
    out = tracer.totals(spans)
    assert out["root"].seconds == 10.0
    assert out["root"].self_seconds == 10.0 - 5.0 - 1.0
    assert out["a"].self_seconds == 3.0 - 1.0
    assert out["leaf"].self_seconds == out["leaf"].seconds == 1.0
    assert out["c"].self_seconds == 3.0


def test_repeated_names_accumulate_calls_and_times():
    spans = [_span("loop", 0.0, 4.0), _span("step", 0.5, 1.5, 0), _span("step", 2.0, 3.0, 0)]
    out = tracer.totals(spans)
    assert (out["step"].calls, out["step"].seconds, out["step"].self_seconds) == (2, 2.0, 2.0)
    assert out["loop"].self_seconds == 2.0


def test_wrapped_calls_nest_under_the_open_span():
    ticks = iter(range(100))
    trace = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = trace.wrap(lambda x: x + 1, "inner")
    outer = trace.wrap(lambda x: inner(inner(x)), lambda x: f"outer{x}")
    assert outer(1) == 3
    names = [(s.name, s.parent) for s in trace.spans]
    assert names == [("outer1", -1), ("inner", 0), ("inner", 0)]
    out = tracer.totals(trace.spans)
    assert out["outer1"].seconds == 5.0
    assert out["outer1"].self_seconds == 3.0
    assert out["inner"].calls == 2


def test_missing_hook_fails_by_name_and_installs_nothing():
    owner = types.SimpleNamespace(present=lambda: 1)
    owner.__name__ = "fake"
    original = owner.present
    hooks = [tracer.Hook("present", owner, "present"), tracer.Hook("gone", owner, "renamed_away")]
    with pytest.raises(tracer.HookMissing, match=r"fake\.renamed_away"):
        with tracer.installed(tracer.Tracer(), hooks):
            pass
    assert owner.present is original


def test_package_hooks_exist_and_are_restored():
    hooks = tracer.package_hooks((4, 16, 16, 2))
    before = [vars(h.owner)[h.attribute] for h in hooks]
    trace = tracer.Tracer()
    with tracer.installed(trace, hooks):
        assert all(vars(h.owner)[h.attribute] is not b for h, b in zip(hooks, before))
    assert [vars(h.owner)[h.attribute] for h in hooks] == before


def test_inputs_are_a_pure_function_of_the_seed():
    workload = workloads.WORKLOADS["trace-replay"]
    assert workloads.latent_seeds(11, 5) == workloads.latent_seeds(11, 5)
    assert workloads.latent_seeds(11, 5) != workloads.latent_seeds(12, 5)
    assert len(set(workloads.latent_seeds(11, 30))) == 30
    first, second = workloads.set_up(workload, 11), workloads.set_up(workload, 11)
    assert first.seeds == second.seeds
    assert all(first.latents[s].tobytes() == second.latents[s].tobytes() for s in first.seeds)
    assert first.trace_terminal.tobytes() == second.trace_terminal.tobytes()
    assert [r.prediction.tobytes() for r in first.archive.records] == \
           [r.prediction.tobytes() for r in second.archive.records]


def test_config_document_pins_the_issue_settings():
    for workload in workloads.WORKLOADS.values():
        cfg = workloads.fc_config.parse_config(workloads.config_text(workload))
        assert cfg.latent == workload.latent
        assert (cfg.schedule.n, cfg.predictor.seed, cfg.cache.alpha, cfg.cache.warmup_steps) == (50, 7, 0.5, 5)
        assert cfg.cache.downsample.as_tuple() == (2, 4, 4)
        assert (cfg.cache.reuse, cfg.block.cache_rate, cfg.block.interval) == ("prediction", 0.4, 3)


def test_operation_checks_catch_a_doctored_report():
    prep = workloads.set_up(workloads.WORKLOADS["mixture-default"], 3)
    seed = prep.seeds[0]
    terminal, report = workloads.cached_run(prep, seed)
    workloads.check_report(prep, terminal, report, "cached")
    doctored = dataclasses.replace(report, steps=[dataclasses.replace(report.steps[0], cost_units=0.0)]
                                   + report.steps[1:])
    with pytest.raises(workloads.CheckFailed, match="costs"):
        workloads.check_report(prep, terminal, doctored, "cached")
    seen: dict = {}
    workloads.check_repeat(seen, ("cached", seed), terminal, report)
    other, _ = workloads.cached_run(prep, prep.seeds[1])
    with pytest.raises(workloads.CheckFailed, match="differs"):
        workloads.check_repeat(seen, ("cached", seed), other, report)


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(40)]
    value, percentile, count = metrics.tail(values)
    assert value == 29.0 and sum(v > value for v in values) == metrics.TAIL_BEYOND
    assert (percentile, count) == (75.0, 40)


def test_metric_names_agree_with_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    for key, declared in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == \
               [(m.name, m.unit, m.better) for m in declared]
    all_names = [m.name for m in (*metrics.END_TO_END, *metrics.WALL_TIMES, *metrics.TRACE_ONLY,
                                  *metrics.PER_LAYER)]
    assert all(name.fullmatch(n) for n in all_names)
    assert len(set(all_names)) == len(all_names)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
           {w.name: w.why for w in workloads.WORKLOADS.values()}
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
