"""End-to-end tests of the command-line interface, driven through run_command."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from flowcache import cli, harness
from flowcache.cli import BENCH_VARIANTS, SCHEMA_VERSION, run_command
from flowcache.config import parse_config
from flowcache.engine import calibrate, recorded_increments
from flowcache.tensor import mse
from flowcache.traceio import read_trace

CONFIG_TEXT = "\n".join(
    [
        "seeds = 3",
        "latent.frames = 4",
        "latent.height = 8",
        "latent.width = 8",
        "latent.channels = 1",
        "predictor.seed = 3",
        "schedule.n = 16",
        "cache.warmup = 3",
        "cache.downsample = 1x2x2",
    ]
) + "\n"


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    return path


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_generate_writes_report(tmp_path, config_path):
    out = tmp_path / "report.json"
    assert run_command(["generate", "--config", str(config_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["mode"] == "lfcache"
    assert payload["seed"] == 3
    report = payload["report"]
    assert report["n_steps"] == 16
    assert report["full_eval_count"] + report["skip_count"] + report["warmup_full_count"] == 16
    assert len(report["steps"]) == 16
    assert payload["quality"] is not None and payload["quality"]["mse"] >= 0.0
    assert len(payload["terminal_checksum"]) == 64
    assert set(payload["timing"]) == {"timestamp", "wall_time_s"}


def test_generate_is_deterministic_modulo_timing(tmp_path, config_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run_command(["generate", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert run_command(["generate", "--config", str(config_path), "--out", str(out_b)]) == 0
    a = json.loads(out_a.read_text(encoding="utf-8"))
    b = json.loads(out_b.read_text(encoding="utf-8"))
    a.pop("timing")
    b.pop("timing")
    assert a == b


@pytest.mark.parametrize("extra", ["", "mode = lfcache+block\npredictor.kind = toy-block\n"],
                         ids=["mixture", "toy-block"])
def test_generate_samples_the_run_and_its_reference_on_one_predictor(tmp_path, monkeypatch, extra):
    """A cached generate builds one predictor; its report is the one a fresh predictor per run gives."""
    path, out = tmp_path / "run.cfg", tmp_path / "report.json"
    path.write_text(CONFIG_TEXT + extra, encoding="utf-8")
    cfg = parse_config(CONFIG_TEXT + extra)
    terminal, report, _ = cli._sample(cfg, 3)
    reference = cli._sample(replace(cfg, mode="baseline"), 3)[0]
    built = []
    original = cli.build_predictor
    monkeypatch.setattr(cli, "build_predictor", lambda c: built.append(original(c)) or built[-1])
    assert run_command(["generate", "--config", str(path), "--out", str(out)]) == 0
    assert len(built) == 1
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["terminal_checksum"] == hashlib.sha256(terminal.tobytes()).hexdigest()
    assert payload["quality"] == {"mse": mse(terminal, reference), "psnr_db": harness.psnr(terminal, reference)}
    expected = {name: value for name, value in asdict(report).items() if name != "wall_time"}
    assert payload["report"] == json.loads(json.dumps(expected))
    assert payload["cost"] == asdict(harness.cost_accounting(report))


def test_generate_report_and_cost_keys(tmp_path, config_path):
    out = tmp_path / "report.json"
    assert run_command(["generate", "--config", str(config_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert set(payload["report"]) == {
        "steps", "full_eval_count", "skip_count", "warmup_full_count", "trial_eval_count", "cost_units",
        "baseline_cost_units", "trial_cost_units", "open_loop", "latent_shape", "n_steps", "threshold",
        "warmup_max_delta",
    }
    for row in payload["report"]["steps"]:
        assert set(row) == {"step", "t", "decision", "trial_delta", "err_before", "err_after", "cost_units",
                            "pivotal_size", "block_partial"}
    assert set(payload["cost"]) == {"cost_units", "baseline_cost_units", "speedup_units", "skip_fraction",
                                    "trial_overhead_fraction"}


def test_recorded_trace_replays_to_identical_terminal(tmp_path, config_path):
    trace = tmp_path / "run.trace"
    out_a = tmp_path / "baseline.json"
    out_b = tmp_path / "replay.json"
    assert run_command(["generate", "--config", str(config_path), "--mode", "baseline",
                        "--trace", str(trace), "--out", str(out_a)]) == 0
    assert run_command(["generate", "--config", str(config_path), "--mode", "open-loop",
                        "--input-trace", str(trace), "--out", str(out_b)]) == 0
    a = json.loads(out_a.read_text(encoding="utf-8"))
    b = json.loads(out_b.read_text(encoding="utf-8"))
    assert a["terminal_checksum"] == b["terminal_checksum"]
    assert b["report"]["open_loop"] is True
    assert a["report"]["open_loop"] is False


RUN_CASES = {case["name"]: case for case in
             json.loads((Path(__file__).parent / "data" / "run_checksums.json").read_text(encoding="utf-8"))}
#: sha256 of the trace generate --trace writes for three of the configs in data/run_checksums.json
TRACE_SHA256 = {
    "mixture-baseline": "0f1a1b8f643fd48fffca9f87bfc5bb0a95b98ac30c5f08367925271e493685d1",
    "mixture-lfcache": "b67b3ed401132246b5903f34e0156a705576f1c14d753c15d65642aa3528e0fc",
    "toyblock-lfcache-block": "8cec2226739ec6d628daae7ba4c78a61e4059cf3b9e455b770c74794450ebd1c",
}


def generated_trace(tmp_path, name):
    """Write the config of RUN_CASES[name] and the trace generate records for it; return both paths."""
    config, trace = tmp_path / "run.cfg", tmp_path / "run.trace"
    config.write_text("\n".join(RUN_CASES[name]["config"]) + "\n", encoding="utf-8")
    assert run_command(["generate", "--config", str(config), "--trace", str(trace),
                        "--out", str(tmp_path / "run.json")]) == 0
    return config, trace


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_generate_writes_the_pinned_trace_bytes(tmp_path, name):
    _, trace = generated_trace(tmp_path, name)
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == TRACE_SHA256[name]


def test_open_loop_replay_of_the_pinned_baseline_trace_reproduces_its_terminal(tmp_path):
    config, trace = generated_trace(tmp_path, "mixture-baseline")
    out = tmp_path / "replay.json"
    assert run_command(["generate", "--config", str(config), "--mode", "open-loop", "--input-trace", str(trace),
                        "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["terminal_checksum"] == \
        RUN_CASES["mixture-baseline"]["terminal_checksum"]


def test_generate_without_seed_fails(tmp_path, capsys):
    cfg = tmp_path / "no_seed.cfg"
    cfg.write_text("predictor.seed = 1\n", encoding="utf-8")
    assert run_command(["generate", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 1
    assert "no seeds configured" in capsys.readouterr().err


def test_a_negative_seed_fails_before_any_run(tmp_path, config_path, capsys):
    out = tmp_path / "r.json"
    assert run_command(["generate", "--config", str(config_path), "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seeds must be integers >= 0, got -1") and "Traceback" not in err
    assert not out.exists()


def test_open_loop_without_trace_fails(config_path, tmp_path, capsys):
    code = run_command(["generate", "--config", str(config_path), "--mode", "open-loop",
                        "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "trace" in capsys.readouterr().err


def test_bench_emits_variant_rows(tmp_path, config_path):
    out = tmp_path / "bench.csv"
    assert run_command(["bench", "--config", str(config_path), "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[:6] == ["variant", "seed", "alpha", "n_steps", "skip_count", "skip_fraction"]
    assert [r["variant"] for r in rows] == ["baseline", "base", "turbo"]
    assert BENCH_VARIANTS == (("base", 0.5), ("turbo", 0.7))
    baseline = rows[0]
    assert baseline["alpha"] == ""
    assert baseline["speedup_units"] == "1.0"
    assert rows[1]["alpha"] == "0.5"
    assert rows[2]["alpha"] == "0.7"
    for row in rows[1:]:
        assert int(row["skip_count"]) >= 0
        assert float(row["psnr_db"]) > 0.0


def test_bench_and_sweep_sample_one_predictor_per_seed(tmp_path, config_path, monkeypatch):
    """The baseline and every variant of a seed run on one predictor, so they share its coefficient memo."""
    built = []
    original = cli.build_predictor
    monkeypatch.setattr(cli, "build_predictor", lambda cfg: built.append(original(cfg)) or built[-1])
    assert run_command(["bench", "--config", str(config_path), "--out", str(tmp_path / "bench.csv")]) == 0
    assert len(built) == 1
    schedule = cli.build_schedule(parse_config(CONFIG_TEXT))
    assert list(built[0]._coefficient_memo) == list(schedule.values[:-1])
    assert run_command(["sweep", "--config", str(config_path), "--axis", "alpha", "--values", "0.3", "0.9",
                        "--out", str(tmp_path / "sweep.csv")]) == 0
    assert len(built) == 2


def test_bench_is_deterministic(tmp_path, config_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_command(["bench", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert run_command(["bench", "--config", str(config_path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_downsample_axis(tmp_path, config_path):
    out = tmp_path / "sweep.csv"
    code = run_command(["sweep", "--config", str(config_path), "--values", "1x2x2", "2x2x2",
                        "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["run_id", "axis", "value", "seed", "skip_count", "skip_fraction",
                      "speedup_units", "cost_units", "mse_vs_baseline", "psnr_db"]
    assert [r["value"] for r in rows] == ["1x2x2", "2x2x2"]
    assert all(r["axis"] == "downsample" for r in rows)
    assert rows[0]["run_id"] == "downsample=1x2x2:seed=3"


def test_sweep_alpha_axis(tmp_path, config_path):
    out = tmp_path / "sweep.csv"
    code = run_command(["sweep", "--config", str(config_path), "--axis", "alpha",
                        "--values", "0.3", "0.9", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    assert [r["value"] for r in rows] == ["0.3", "0.9"]
    # a looser threshold can only allow more skips
    assert int(rows[1]["skip_count"]) >= int(rows[0]["skip_count"])


def test_sweep_malformed_downsample_value_fails(tmp_path, config_path, capsys):
    code = run_command(["sweep", "--config", str(config_path), "--values", "2x4",
                        "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert "2x4" in capsys.readouterr().err


def test_sweep_downsample_value_not_dividing_the_latent_fails_before_any_run(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "sample_baseline", lambda *args, **kwargs: runs.append(args))
    config = tmp_path / "run.cfg"
    out = tmp_path / "s.csv"
    for extra_config, argv in (("", ["sweep", "--values", "1x2x2", "3x2x2"]),
                               ("mode = baseline\ncache.downsample = 3x2x2\n", ["bench"])):
        config.write_text(CONFIG_TEXT.replace("cache.downsample = 1x2x2\n", "") + extra_config, encoding="utf-8")
        code = run_command([*argv, "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "latent.frames" in err and "cache.downsample" in err
        assert runs == []
        assert not out.exists()


def test_sweep_mask_scale_axis(tmp_path, config_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_command(["sweep", "--config", str(config_path), "--axis", "mask_scale",
                        "--values", "0.2", "1.0", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    assert [r["value"] for r in rows] == ["0.2", "1.0"]
    assert all(r["axis"] == "mask_scale" for r in rows)
    assert rows[0]["run_id"] == "mask_scale=0.2:seed=3"
    for bad in ("wide", "0"):
        assert run_command(["sweep", "--config", str(config_path), "--axis", "mask_scale",
                            "--values", bad, "--out", str(tmp_path / "bad.csv")]) == 1
        assert "mask_scale" in capsys.readouterr().err


def test_sweep_cache_rate_needs_block_predictor(tmp_path, config_path, capsys):
    code = run_command(["sweep", "--config", str(config_path), "--axis", "cache_rate",
                        "--out", str(tmp_path / "s.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "sweep --axis cache_rate needs predictor.kind = toy-block" in err
    assert "mode" not in err, "the config never set a mode"


def test_sweep_keeps_the_configured_block_cache(tmp_path):
    """On an lfcache+block config, sweep's alpha rows are bench's base and turbo rows, block replays included."""
    config = tmp_path / "block.cfg"
    config.write_text("mode = lfcache+block\nseeds = 0\npredictor.kind = toy-block\npredictor.seed = 7\n",
                      encoding="utf-8")
    bench_out, sweep_out = tmp_path / "bench.csv", tmp_path / "sweep.csv"
    assert run_command(["bench", "--config", str(config), "--out", str(bench_out)]) == 0
    assert run_command(["sweep", "--config", str(config), "--axis", "alpha", "--values", "0.5", "0.7",
                        "--out", str(sweep_out)]) == 0
    _, bench_rows = read_csv(bench_out)
    _, sweep_rows = read_csv(sweep_out)
    assert [r["variant"] for r in bench_rows[1:]] == ["base", "turbo"]
    assert [r["value"] for r in sweep_rows] == [r["alpha"] for r in bench_rows[1:]] == ["0.5", "0.7"]
    for swept, benched in zip(sweep_rows, bench_rows[1:]):
        for column in ("cost_units", "mse_vs_baseline", "psnr_db"):
            assert swept[column] == benched[column], column
    assert float(sweep_rows[0]["cost_units"]) < float(bench_rows[0]["cost_units"]), "the block cache saves at alpha 0.5"


def test_sweep_cache_rate_rows_against_the_plain_cached_run(tmp_path):
    """At cache_rate 0 the block cache is bitwise the plain forward, so its row is the alpha 0.5 row; 0.4 saves."""
    config = tmp_path / "block.cfg"
    config.write_text("seeds = 0\npredictor.kind = toy-block\npredictor.seed = 7\nlatent.frames = 4\n"
                      "latent.height = 8\nlatent.width = 8\nlatent.channels = 4\nschedule.n = 12\n"
                      "cache.warmup = 3\ncache.downsample = 1x2x2\n", encoding="utf-8")
    rate_out, alpha_out = tmp_path / "rate.csv", tmp_path / "alpha.csv"
    assert run_command(["sweep", "--config", str(config), "--axis", "cache_rate", "--values", "0.0", "0.4",
                        "--out", str(rate_out)]) == 0
    assert run_command(["sweep", "--config", str(config), "--axis", "alpha", "--values", "0.5",
                        "--out", str(alpha_out)]) == 0
    header, rate_rows = read_csv(rate_out)
    _, alpha_rows = read_csv(alpha_out)
    assert [r["value"] for r in rate_rows] == ["0.0", "0.4"]
    assert rate_rows[0]["run_id"] == "cache_rate=0.0:seed=0"
    for column in header[header.index("skip_count"):]:
        assert rate_rows[0][column] == alpha_rows[0][column], column
    assert [float(r["cost_units"]) for r in rate_rows] == pytest.approx([2752.0, 2240.0])


def test_analyze_trace_projects_thresholds(tmp_path, config_path):
    trace = tmp_path / "run.trace"
    assert run_command(["generate", "--config", str(config_path), "--mode", "baseline",
                        "--trace", str(trace), "--out", str(tmp_path / "r.json")]) == 0
    out = tmp_path / "analysis.json"
    code = run_command(["analyze-trace", "--config", str(config_path), str(trace),
                        "--alphas", "0.2", "0.6", "1.0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["n_steps"] == 16
    assert len(payload["increments"]) == 15
    assert payload["monotone_full_counts"] is True
    rows = payload["alphas"]
    assert [r["alpha"] for r in rows] == [0.2, 0.6, 1.0]
    post = 15 - (3 - 1)  # increments beyond the warmup window
    for row in rows:
        assert row["full_count"] + row["skip_count"] == post
        assert row["projected_speedup_units"] > 0.0
    assert rows[0]["threshold"] < rows[2]["threshold"]
    cache = parse_config(CONFIG_TEXT).cache
    increments = recorded_increments([rec.prediction for rec in read_trace(trace).records], cache)
    assert payload["increments"] == increments
    for row in rows:
        assert row["threshold"] == calibrate(increments, cache.warmup_steps, row["alpha"])[0]


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_number_flags_reject_what_the_config_rejects(tmp_path, config_path, capsys, bad):
    """--values and --alphas take config's finite-number parser: a non-finite value exits 1 and is named.

    analyze-trace checks --alphas before it opens the trace, which here does not exist.
    """
    for axis in ("alpha", "cache_rate", "mask_scale"):
        out = tmp_path / "sweep.csv"
        assert run_command(["sweep", "--config", str(config_path), "--axis", axis,
                            "--values", "0.5", bad, "--out", str(out)]) == 1
        assert f"sweep --axis {axis} --values: expected a finite number, got {bad!r}" in capsys.readouterr().err
        assert not out.exists()
    out = tmp_path / "analysis.json"
    assert run_command(["analyze-trace", "--config", str(config_path), str(tmp_path / "missing.trace"),
                        "--alphas", "0.5", bad, "--out", str(out)]) == 1
    assert f"--alphas: expected a finite number, got {bad!r}" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_trace_downsample_not_dividing_the_trace_latent_fails_first(tmp_path, capsys, monkeypatch):
    """The config's own 8x8 latent takes 1x8x8 pooling; the 12x12 trace it analyzes does not."""
    recorder = tmp_path / "record.cfg"
    recorder.write_text(CONFIG_TEXT.replace("latent.height = 8", "latent.height = 12")
                        .replace("latent.width = 8", "latent.width = 12"), encoding="utf-8")
    trace = tmp_path / "run.trace"
    assert run_command(["generate", "--config", str(recorder), "--mode", "baseline",
                        "--trace", str(trace), "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT.replace("cache.downsample = 1x2x2", "cache.downsample = 1x8x8"), encoding="utf-8")
    monkeypatch.setattr(cli, "recorded_increments", lambda *args: pytest.fail("analysis ran"))
    out = tmp_path / "analysis.json"
    assert run_command(["analyze-trace", "--config", str(config), str(trace), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"trace {trace}: axis height of extent 12 is not divisible by factor 8" in err
    assert not out.exists()


def test_analyze_trace_names_the_trace_not_a_config_key_when_its_shape_does_not_pool(tmp_path, capsys):
    """A 4x10x10x2 trace under the default 2x4x4 pooling fails on the trace's array shape, not on latent.height."""
    recorder = tmp_path / "record.cfg"
    recorder.write_text("seeds = 0\npredictor.seed = 1\nmode = baseline\n"
                        "latent.height = 10\nlatent.width = 10\nschedule.n = 6\n", encoding="utf-8")
    trace = tmp_path / "run.trace"
    assert run_command(["generate", "--config", str(recorder), "--trace", str(trace),
                        "--out", str(tmp_path / "r.json")]) == 0
    assert read_trace(trace).records[0].prediction.shape == (4, 10, 10, 2)
    capsys.readouterr()
    out = tmp_path / "analysis.json"
    assert run_command(["analyze-trace", str(trace), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: trace {trace}: axis height of extent 10 is not divisible by factor 4\n"
    assert not out.exists()


def test_figures_writes_csv_series(tmp_path, config_path):
    out_dir = tmp_path / "figs"
    code = run_command(["figures", "--config", str(config_path), "--out", str(out_dir), "--svg"])
    assert code == 0
    names = ["influence.csv", "adjacent_diff.csv", "resolution.csv", "resolution_series.csv", "blocks.csv"]
    for name in names:
        assert (out_dir / name).exists()
    header, rows = read_csv(out_dir / "influence.csv")
    assert header == ["step", "t", "full_prediction", "lf_only", "hf_only"]
    assert len(rows) == 15
    header, rows = read_csv(out_dir / "adjacent_diff.csv")
    assert header == ["step", "t", "raw", "low", "high"]
    header, rows = read_csv(out_dir / "resolution.csv")
    assert header == ["factor", "pearson", "spearman"]
    assert len(rows) == 5
    header, rows = read_csv(out_dir / "blocks.csv")
    assert header == ["probe_step", "t", "block", "importance"]
    assert sorted({r["probe_step"] for r in rows}) == ["0", "12", "4", "8"]
    for name in ("influence.svg", "adjacent_diff.svg"):
        text = (out_dir / name).read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert "polyline" in text


def test_figures_cut_every_band_at_the_configured_mask_scale(tmp_path, config_path):
    wide = tmp_path / "wide.cfg"
    wide.write_text(CONFIG_TEXT + "cache.mask_scale = 0.35\n", encoding="utf-8")
    assert run_command(["figures", "--config", str(config_path), "--out", str(tmp_path / "narrow")]) == 0
    assert run_command(["figures", "--config", str(wide), "--out", str(tmp_path / "wide")]) == 0
    for name, unbanded in (("influence.csv", "full_prediction"), ("adjacent_diff.csv", "raw")):
        narrow_header, narrow = read_csv(tmp_path / "narrow" / name)
        wide_header, wide_rows = read_csv(tmp_path / "wide" / name)
        assert narrow_header == wide_header and narrow != wide_rows
        assert [r[unbanded] for r in narrow] == [r[unbanded] for r in wide_rows]


@pytest.mark.parametrize("kind, runs", [("toy-block", 1 + 3 * 4), ("mixture", 2 + 3 * 4)])
def test_figures_samples_each_predictor_once(tmp_path, monkeypatch, kind, runs):
    """One recorded run of the predictor (and of the toy net a mixture's blocks.csv profiles), then n - 1
    continuations per influence variant: 1 + 3(n - 1) runs for a toy-block config, 2 + 3(n - 1) for a mixture."""
    calls = []
    sample = harness.sample_baseline
    monkeypatch.setattr(harness, "sample_baseline", lambda *args, **kwargs: calls.append(1) or sample(*args, **kwargs))
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT.replace("schedule.n = 16", "schedule.n = 5") + f"predictor.kind = {kind}\n",
                      encoding="utf-8")
    assert run_command(["figures", "--config", str(config), "--out", str(tmp_path / "figs")]) == 0
    assert len(calls) == runs


def test_figures_resolution_factor_not_dividing_the_latent_fails_before_any_output(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT.replace("latent.height = 8", "latent.height = 12")
                      .replace("latent.width = 8", "latent.width = 12"), encoding="utf-8")
    out_dir = tmp_path / "figs"
    assert run_command(["figures", "--config", str(config), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "latent.height = 12" in err and "factor 8" in err
    assert not out_dir.exists()


def test_figures_with_fewer_than_three_steps_fails_before_any_output(tmp_path, capsys, monkeypatch):
    """The resolution correlations need drift at two or more steps, so schedule.n = 2 fails before any run."""
    from flowcache import engine, sampler

    runs = []
    monkeypatch.setattr(sampler, "run_steps", lambda *args, **kwargs: runs.append(args))
    monkeypatch.setattr(engine, "run_steps", lambda *args, **kwargs: runs.append(args))
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT.replace("schedule.n = 16", "schedule.n = 2"), encoding="utf-8")
    out_dir = tmp_path / "figs"
    assert run_command(["figures", "--config", str(config), "--out", str(out_dir)]) == 1
    assert "schedule.n" in capsys.readouterr().err
    assert runs == []
    assert not out_dir.exists()


@pytest.mark.parametrize("message, shown", [("Unable to allocate 1.49 TiB for an array", "Unable to allocate 1.49 TiB"),
                                            ("", "MemoryError")])
def test_a_failed_allocation_exits_1_with_an_error_line(tmp_path, config_path, capsys, monkeypatch, message, shown):
    def exhausted(cfg):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "build_predictor", exhausted)
    out = tmp_path / "r.json"
    assert run_command(["generate", "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and shown in err and "Traceback" not in err
    assert not out.exists()


def test_unknown_config_key_fails_loudly(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("cache.alhpa = 0.5\n", encoding="utf-8")
    assert run_command(["generate", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_corrupt_trace_fails_loudly(tmp_path, config_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_bytes(b"not a trace at all, just text padding to pass nothing")
    assert run_command(["analyze-trace", "--config", str(config_path), str(bad)]) == 1
    assert "bad magic" in capsys.readouterr().err


def test_missing_trace_file_fails_loudly(tmp_path, config_path, capsys):
    missing = tmp_path / "nope.trace"
    assert run_command(["analyze-trace", "--config", str(config_path), str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    assert run_command([]) == 2


def test_python_dash_m_runs_the_command_line(tmp_path, config_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = tmp_path / "m.json"
    done = subprocess.run([sys.executable, "-m", "flowcache.cli", "generate", "--config", str(config_path),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["command"] == "generate"
    assert subprocess.run([sys.executable, "-m", "flowcache.cli"], env=env, capture_output=True).returncode == 2


@pytest.mark.parametrize("case", ["config", "trace"])
def test_validation_holds_under_python_dash_o(tmp_path, config_path, case):
    """With asserts stripped, a rejected config and a truncated trace still exit 1 with an error line."""
    if case == "config":
        config = tmp_path / "bad.cfg"
        config.write_text("seeds = 1\npredictor.var = 1e308\n", encoding="utf-8")
        args, shown = ["--config", str(config)], "error: line 2: key 'predictor.var'"
    else:
        trace = tmp_path / "run.trace"
        assert run_command(["generate", "--config", str(config_path), "--mode", "baseline", "--trace", str(trace),
                            "--out", str(tmp_path / "base.json")]) == 0
        size = trace.stat().st_size
        trace.write_bytes(trace.read_bytes()[:-10])
        args = ["--config", str(config_path), "--mode", "open-loop", "--input-trace", str(trace)]
        shown = f"error: expected {size} bytes for shape (4, 8, 8, 1) and 16 steps, got {size - 10}"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = tmp_path / "r.json"
    done = subprocess.run([sys.executable, "-O", "-m", "flowcache.cli", "generate", *args, "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 1 and shown in done.stderr and "Traceback" not in done.stderr
    assert not out.exists()


def test_the_package_holds_no_assert_statement():
    """Invariants are explicit errors, so python -O strips no check: no module under flowcache has an assert."""
    package = Path(cli.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


#: engine imports euler_step only so the benchmark's tracer can hook it there.
ALLOWED_UNUSED_IMPORTS = {("engine.py", "euler_step")}


def test_the_package_imports_no_unused_name():
    """Every name a module's imports bind is referenced in that module, except the allowed tracer hook."""
    package = Path(cli.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    found = set()
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        bound = {alias.asname or alias.name.split(".")[0] for node in imports for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found |= {(path.name, name) for name in bound - used}
    assert found == ALLOWED_UNUSED_IMPORTS
