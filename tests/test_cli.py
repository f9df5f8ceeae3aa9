"""End-to-end tests of the command-line interface, driven through run_command."""

import json

import pytest

from flowcache import cli
from flowcache.cli import BENCH_VARIANTS, SCHEMA_VERSION, run_command

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


def test_generate_without_seed_fails(tmp_path, capsys):
    cfg = tmp_path / "no_seed.cfg"
    cfg.write_text("predictor.seed = 1\n", encoding="utf-8")
    assert run_command(["generate", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 1
    assert "no seeds configured" in capsys.readouterr().err


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
    assert "latent.height = 12" in err and "cache.downsample = 1x8x8" in err
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


def test_figures_resolution_factor_not_dividing_the_latent_fails_before_any_output(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT.replace("latent.height = 8", "latent.height = 12")
                      .replace("latent.width = 8", "latent.width = 12"), encoding="utf-8")
    out_dir = tmp_path / "figs"
    assert run_command(["figures", "--config", str(config), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "latent.height = 12" in err and "factor 8" in err
    assert not out_dir.exists()


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
