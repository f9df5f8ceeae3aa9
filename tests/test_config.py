"""Tests for the flat key = value configuration format."""

import os
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcache import cli, config
from flowcache.cli import run_command
from flowcache.config import (
    MODES,
    PREDICTOR_KINDS,
    OutputConfig,
    PredictorConfig,
    RunConfig,
    ScheduleConfig,
    build_predictor,
    build_schedule,
    parse_config,
    require_seeds,
    serialize_config,
)
from flowcache.engine import REUSE_RULES, BlockCacheConfig, StepCacheConfig
from flowcache.errors import ConfigError
from flowcache.predictors import MixturePredictor, ToyBlockNet
from flowcache.sampler import SCHEDULE_KINDS
from flowcache.tensor import DownsampleFactors


def test_empty_document_gives_defaults():
    cfg = parse_config("")
    assert cfg.mode == "lfcache"
    assert cfg.seeds == ()
    assert cfg.latent == (4, 16, 16, 2)
    assert cfg.schedule.n == 50
    assert cfg.cache.alpha == 0.5
    assert cfg.cache.warmup_steps == 5
    assert cfg.cache.downsample == DownsampleFactors(2, 4, 4)
    assert cfg.block.cache_rate == 0.40
    assert cfg.block.interval == 3
    assert cfg.predictor.kind == "mixture"
    assert cfg.predictor.seed is None
    assert cfg.input_trace is None


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\n  # indented comment\nmode = baseline\n")
    assert cfg.mode == "baseline"


def test_all_sections_parse():
    text = "\n".join(
        [
            "mode = lfcache+block",
            "seeds = 1 2 3",
            "latent.frames = 2",
            "latent.height = 8",
            "latent.width = 8",
            "latent.channels = 1",
            "predictor.kind = toy-block",
            "predictor.seed = 9",
            "predictor.blocks = 4",
            "schedule.n = 20",
            "schedule.kind = shifted",
            "schedule.shift = 3.0",
            "cache.alpha = 0.7",
            "cache.warmup = 3",
            "cache.downsample = 1x2x2",
            "cache.mask_scale = 0.25",
            "block.cache_rate = 0.5",
            "block.interval = 2",
            "output.report = out/report.json",
        ]
    )
    cfg = parse_config(text)
    assert cfg.mode == "lfcache+block"
    assert cfg.seeds == (1, 2, 3)
    assert cfg.latent == (2, 8, 8, 1)
    assert cfg.predictor.kind == "toy-block"
    assert cfg.predictor.seed == 9
    assert cfg.predictor.blocks == 4
    assert cfg.schedule.kind == "shifted"
    assert cfg.schedule.shift == 3.0
    assert cfg.cache.alpha == 0.7
    assert cfg.cache.warmup_steps == 3
    assert cfg.cache.downsample == DownsampleFactors(1, 2, 2)
    assert cfg.cache.mask_scale == 0.25
    assert cfg.block.cache_rate == 0.5
    assert cfg.block.interval == 2
    assert cfg.output.report == "out/report.json"


def test_seeds_accept_commas():
    assert parse_config("seeds = 4, 8, 15\n").seeds == (4, 8, 15)


def test_the_readme_configuration_parses():
    """README's documented ini block is a valid document, so the docs cannot drift from the parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0])
    assert (cfg.mode, cfg.seeds, cfg.latent) == ("lfcache", (0, 1, 2), (4, 16, 16, 2))
    assert (cfg.predictor.kind, cfg.predictor.seed) == ("mixture", 7)
    assert cfg.cache == StepCacheConfig(alpha=0.5, warmup_steps=5, downsample=DownsampleFactors(2, 4, 4),
                                        reuse="prediction", mask_scale=0.2)
    assert cfg.block == BlockCacheConfig(cache_rate=0.4, interval=3)


def test_round_trip_parse_serialize_parse():
    text = "mode = baseline\nseeds = 3 5\npredictor.seed = 3\ncache.alpha = 0.25\n"
    cfg = parse_config(text)
    rendered = serialize_config(cfg)
    assert parse_config(rendered) == cfg


def test_round_trip_serialize_parse_serialize():
    cfg = parse_config("seeds = 7\npredictor.seed = 7\nschedule.n = 12\ncache.downsample = 1x4x4\n")
    rendered = serialize_config(cfg)
    assert serialize_config(parse_config(rendered)) == rendered


def test_unknown_key_names_line_and_key():
    with pytest.raises(ConfigError, match="line 2: unknown key 'cache.alhpa'"):
        parse_config("mode = baseline\ncache.alhpa = 0.5\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key 'mode'"):
        parse_config("mode = baseline\nmode = lfcache\n")


def test_deep_nesting_rejected():
    with pytest.raises(ConfigError, match="nests deeper"):
        parse_config("cache.downsample.frames = 2\n")


def test_empty_value_rejected():
    with pytest.raises(ConfigError, match="empty value"):
        parse_config("cache.alpha =\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="line 1: expected key = value"):
        parse_config("just some words\n")


def test_bad_numbers_rejected():
    with pytest.raises(ConfigError, match="line 1: key 'schedule.n': expected an integer"):
        parse_config("schedule.n = fifty\n")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config("cache.alpha = big\n")
    with pytest.raises(ConfigError, match="finite"):
        parse_config("cache.alpha = inf\n")


def test_bad_downsample_string_rejected():
    with pytest.raises(ConfigError, match="2x4x4"):
        parse_config("cache.downsample = 2x4\n")


def test_invalid_alpha_value_rejected():
    with pytest.raises(ConfigError):
        parse_config("cache.alpha = -1\n")


def test_sub_config_rejections_name_the_key_and_its_line():
    cases = (
        ("cache.alpha = -1\n", "line 1: key 'cache.alpha': alpha must be > 0"),
        ("mode = baseline\ncache.warmup = 1\n", "line 2: key 'cache.warmup': warmup_steps must be"),
        ("seeds = 1\n\ncache.downsample = 0x4x4\n", "line 3: key 'cache.downsample': downsample factor for axis frames"),
        ("predictor.kind = toy-block\npredictor.seed = -1\n", "line 2: key 'predictor.seed': predictor.seed must be >= 0"),
        ("seeds = 1\npredictor.components = 0\n", "line 2: key 'predictor.components': predictor.components must be >= 1"),
        ("seeds = 1\npredictor.var = 0\n", "line 2: key 'predictor.var': predictor.var must be > 0"),
        ("predictor.kind = toy-block\npredictor.blocks = 0\n", "line 2: key 'predictor.blocks': predictor.blocks must be >= 1"),
        ("seeds = 1\nblock.cache_rate = 1.5\n", "line 2: key 'block.cache_rate': cache_rate must lie in [0, 1], got 1.5"),
        ("seeds = 1\nblock.interval = -1\n", "line 2: key 'block.interval': interval must be an integer >= 0, got -1"),
        ("seeds = ,\n", "line 1: key 'seeds': expected at least one integer"),
        ("seeds = 1\npredictor.smooth_amp = 1e300\n", "line 2: key 'predictor.smooth_amp': predictor.smooth_amp must lie in"),
        ("seeds = 1\npredictor.rough_amp = 1e200\n", "line 2: key 'predictor.rough_amp': predictor.rough_amp must lie in"),
        ("seeds = 1\npredictor.var = 1e308\n", "line 2: key 'predictor.var': predictor.var must be > 0 and at most"),
    )
    for text, message in cases:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value).startswith(message)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sign", [1, -1])
def test_a_mixture_at_its_bounds_runs(tmp_path, sign):
    """The largest amplitudes and a variance near the bound run cached and uncached at the README shape."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"predictor.seed = 0\npredictor.smooth_amp = {sign * 1e150}\n"
                   f"predictor.rough_amp = {-sign * 1e150}\npredictor.var = 1e300\n", encoding="utf-8")
    for seed in (0, 1, 2):
        assert run_command(["generate", "--config", str(cfg), "--seed", str(seed), "--out", str(tmp_path / "r.json")]) == 0


def test_invalid_mode_rejected():
    with pytest.raises(ConfigError, match="unknown mode"):
        parse_config("mode = warp\n")
    assert MODES == ("baseline", "lfcache", "lfcache+block", "open-loop")


def test_invalid_predictor_kind_rejected():
    with pytest.raises(ConfigError, match="unknown predictor kind"):
        PredictorConfig(kind="oracle")
    assert PREDICTOR_KINDS == ("mixture", "toy-block")


def test_invalid_schedule_rejected_at_parse_time():
    with pytest.raises(ConfigError):
        parse_config("schedule.n = 0\n")


def test_require_seeds():
    with pytest.raises(ConfigError, match="no seeds configured"):
        require_seeds(parse_config(""))
    assert require_seeds(parse_config("seeds = 11 13\n")) == (11, 13)


def test_build_predictor_needs_seed():
    with pytest.raises(ConfigError, match="predictor.seed"):
        build_predictor(parse_config(""))


def test_build_predictor_kinds():
    mix = build_predictor(parse_config("predictor.seed = 1\n"))
    assert isinstance(mix, MixturePredictor)
    toy = build_predictor(parse_config("predictor.kind = toy-block\npredictor.seed = 1\npredictor.blocks = 3\n"))
    assert isinstance(toy, ToyBlockNet)
    assert toy.num_blocks == 3


def test_build_schedule_matches_config():
    sched = build_schedule(parse_config("schedule.n = 4\n"))
    assert sched.values == (1.0, 0.75, 0.5, 0.25, 0.0)


def test_default_config_serializes_and_reparses():
    cfg = RunConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_cached_modes_reject_a_latent_the_downsample_does_not_divide():
    """latent.height = 6 under the default 2x4x4 pooling used to parse and then fail at step 1."""
    for mode in ("lfcache", "lfcache+block"):
        with pytest.raises(ConfigError) as err:
            parse_config(f"mode = {mode}\nlatent.height = 6\n")
        assert "latent.height" in str(err.value) and "cache.downsample" in str(err.value)
    assert parse_config("mode = baseline\nlatent.height = 6\n").latent == (4, 6, 16, 2)
    assert parse_config("latent.height = 6\ncache.downsample = 2x2x4\n").latent == (4, 6, 16, 2)
    with pytest.raises(ConfigError, match="latent.frames"):
        parse_config("latent.frames = 3\n")
    with pytest.raises(ConfigError, match="latent.height"):
        replace(parse_config("mode = baseline\nlatent.height = 6\n"), mode="lfcache")


def test_a_mixture_too_large_for_physical_memory_is_rejected_at_parse_time(tmp_path, capsys):
    """predictor.components = 1000000000000 used to parse, and generate then failed mid-run allocating 14.6 PiB."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seeds = 1\npredictor.components = 1000000000000\n", encoding="utf-8")
    assert run_command(["generate", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 1
    assert "line 2: key 'predictor.components'" in capsys.readouterr().err
    assert parse_config("predictor.kind = toy-block\npredictor.components = 1000000000000\n").predictor.kind == "toy-block"


def test_the_mixture_memory_bound_counts_three_k_sized_stacks(monkeypatch):
    """With 98304 bytes of physical memory the default 2048-cell latent fits K = 2 exactly (3 x 2 x 2048 x 8)."""
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 24}.__getitem__)
    assert parse_config("predictor.components = 2\n").predictor.components == 2
    with pytest.raises(ConfigError, match="^line 1: key 'predictor.components': predictor.components = 3 needs "
                                          r"147456 bytes \(3 x K x 2048 cells x 8\)"):
        parse_config("predictor.components = 3\n")
    with pytest.raises(ConfigError, match="^line 2: key 'latent.height': predictor.components = 2 needs 196608 bytes"):
        parse_config("predictor.components = 2\nlatent.height = 32\n")


def test_a_toy_block_latent_too_large_for_physical_memory_is_rejected_at_parse_time(monkeypatch):
    """A 64x65536x65536x16 toy-block latent, 35 TB an array, used to parse; the same latent as a mixture did not."""
    huge = "latent.frames = 64\nlatent.height = 65536\nlatent.width = 65536\nlatent.channels = 16\n"
    with pytest.raises(ConfigError, match="^line 5: key 'latent.channels': a toy-block latent of 4398046511104 "
                                          "cells needs .* bytes of physical memory$"):
        parse_config("predictor.kind = toy-block\n" + huge)
    with pytest.raises(ConfigError, match="^line 5: key 'latent.channels': .* bytes of physical memory"):
        parse_config("predictor.kind = mixture\n" + huge)
    # 4 x 2048 cells x 8 bytes: the default latent fits 65536 bytes exactly.
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}.__getitem__)
    assert parse_config("predictor.kind = toy-block\n").latent == (4, 16, 16, 2)
    with pytest.raises(ConfigError, match=r"^line 2: key 'latent.channels': a toy-block latent of 4096 cells "
                                          r"needs 131072 bytes \(4 x 4096 cells x 8\)"):
        parse_config("predictor.kind = toy-block\nlatent.channels = 4\n")


def test_a_schedule_too_long_for_physical_memory_is_rejected_before_it_is_built(monkeypatch):
    """schedule.n = 100000000000 used to hang parsing while make_schedule built every value."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}.__getitem__)
        assert ScheduleConfig(n=32).n == 32
        with pytest.raises(ConfigError, match=r"^schedule.n = 33 needs 4224 bytes"):
            ScheduleConfig(n=33)

    def refuse(*args, **kwargs):
        raise AssertionError("make_schedule was called")

    monkeypatch.setattr(config, "make_schedule", refuse)
    with pytest.raises(ConfigError, match=r"^line 2: key 'schedule.n': schedule.n = 100000000000 needs "
                                          r"12800000000000 bytes \(128 a step\) for the schedule and its step rows, "
                                          r"more than the \d+ bytes of physical memory$"):
        parse_config("seeds = 1\nschedule.n = 100000000000\n")
    with pytest.raises(ConfigError, match="schedule.n = 100000000000 needs"):
        ScheduleConfig(n=100_000_000_000)


def test_block_cache_mode_rejects_a_predictor_without_blocks():
    """mode = lfcache+block with the default mixture predictor used to parse and then fail inside the run."""
    with pytest.raises(ConfigError) as err:
        parse_config("mode = lfcache+block\n")
    assert "mode = lfcache+block" in str(err.value) and "predictor.kind = mixture" in str(err.value)
    assert parse_config("mode = lfcache+block\npredictor.kind = toy-block\n").mode == "lfcache+block"
    with pytest.raises(ConfigError, match="predictor.kind"):
        replace(parse_config("mode = baseline\n"), mode="lfcache+block")


def test_cross_section_rejections_name_the_last_line_they_read_and_the_keys_left_at_default():
    cases = [
        ("mode = lfcache+block\n", "line 1: key 'mode': mode = lfcache+block needs", "predictor.kind left at the default"),
        ("seeds = 1\nlatent.height = 6\n", "line 2: key 'latent.height': latent.height = 6 is not divisible",
         "mode and cache.downsample left at the default"),
        ("latent.height = 6\nmode = lfcache\n", "line 2: key 'mode': latent.height = 6",
         "cache.downsample left at the default"),
        ("cache.downsample = 3x4x4\n", "line 1: key 'cache.downsample': latent.frames = 4",
         "mode and latent.frames left at the default"),
        ("mode = lfcache+block\npredictor.kind = mixture\n", "line 2: key 'predictor.kind': mode = lfcache+block", ""),
        ("\nmode = fast\n", "line 2: key 'mode': unknown mode 'fast'", ""),
        ("latent.width = 0\n", "line 1: key 'latent.width': latent.width must be an integer >= 1", ""),
        ("mode = baseline\nseeds = 2, -3\n", "line 2: key 'seeds': seeds must be integers >= 0, got -3", ""),
        ("seeds = 1\npredictor.components = 1000000000000\n",
         "line 2: key 'predictor.components': predictor.components = 1000000000000 needs 49152000000000000 bytes",
         "latent.frames and latent.height and latent.width and latent.channels and predictor.kind left at the default"),
    ]
    for text, prefix, note in cases:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        message = str(err.value)
        assert message.startswith(prefix), message
        assert message.endswith(note) and ("left at" in message) == bool(note), message


#: Every key of the document set away from its default, in canonical order.
EVERY_KEY_DOCUMENT = """\
mode = lfcache+block
seeds = 7 11 13
input.trace = runs/in.trace
latent.frames = 2
latent.height = 8
latent.width = 12
latent.channels = 3
predictor.kind = toy-block
predictor.seed = 19
predictor.components = 3
predictor.smooth_amp = 0.75
predictor.rough_amp = 2.5
predictor.var = 12.5
predictor.blocks = 4
schedule.n = 24
schedule.kind = shifted
schedule.shift = 3.0
schedule.terminal = 0.05
cache.alpha = 0.35
cache.warmup = 4
cache.downsample = 1x2x4
cache.reuse = residual
cache.mask_scale = 0.45
block.cache_rate = 0.6
block.interval = 2
output.report = out/report.json
output.trace = out/run.trace
output.table = out/table.csv
output.figures = out/figs
"""


def test_serialize_pins_every_key_in_canonical_order():
    cfg = RunConfig(
        mode="lfcache+block",
        seeds=(7, 11, 13),
        latent=(2, 8, 12, 3),
        predictor=PredictorConfig(kind="toy-block", seed=19, components=3, smooth_amp=0.75, rough_amp=2.5,
                                  var=12.5, blocks=4),
        schedule=ScheduleConfig(n=24, kind="shifted", shift=3.0, terminal=0.05),
        cache=StepCacheConfig(alpha=0.35, warmup_steps=4, downsample=DownsampleFactors(1, 2, 4),
                              reuse="residual", mask_scale=0.45),
        block=BlockCacheConfig(cache_rate=0.6, interval=2),
        output=OutputConfig(report="out/report.json", trace="out/run.trace", table="out/table.csv",
                            figures="out/figs"),
        input_trace="runs/in.trace",
    )
    default_lines = set(serialize_config(RunConfig(seeds=(1,), input_trace="x")).splitlines())
    assert not default_lines & set(EVERY_KEY_DOCUMENT.splitlines())
    assert serialize_config(cfg) == EVERY_KEY_DOCUMENT
    assert parse_config(EVERY_KEY_DOCUMENT) == cfg


_paths = st.text(alphabet="abXY09/._-=# ", min_size=1, max_size=12).map(str.strip).filter(bool)
_small = st.integers(min_value=1, max_value=4)


@st.composite
def run_configs(draw):
    mode = draw(st.sampled_from(MODES))
    downsample = DownsampleFactors(draw(_small), draw(_small), draw(_small))
    if mode in ("lfcache", "lfcache+block"):
        latent = tuple(f * draw(_small) for f in downsample.as_tuple()) + (draw(_small),)
    else:
        latent = tuple(draw(st.integers(min_value=1, max_value=16)) for _ in range(4))
    kind = "toy-block" if mode == "lfcache+block" else draw(st.sampled_from(PREDICTOR_KINDS))
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    amplitude = st.floats(min_value=-1e150, max_value=1e150)
    variance = st.floats(min_value=0.0, exclude_min=True, max_value=2.86e307)
    return RunConfig(
        mode=mode,
        seeds=tuple(draw(st.lists(st.integers(0, 10**6), max_size=3))),
        latent=latent,
        predictor=PredictorConfig(kind=kind,
                                  seed=draw(st.none() | st.integers(0, 10**6)),
                                  components=draw(_small), smooth_amp=draw(amplitude), rough_amp=draw(amplitude),
                                  var=draw(variance), blocks=draw(_small)),
        schedule=ScheduleConfig(n=draw(st.integers(min_value=2, max_value=64)),
                                kind=draw(st.sampled_from(SCHEDULE_KINDS)),
                                shift=draw(st.floats(min_value=1 / 16, max_value=16.0)),
                                terminal=draw(st.integers(min_value=0, max_value=63)) / 64),
        cache=StepCacheConfig(alpha=draw(positive), warmup_steps=draw(st.integers(min_value=2, max_value=9)),
                              downsample=downsample, reuse=draw(st.sampled_from(tuple(REUSE_RULES))),
                              mask_scale=draw(positive)),
        block=BlockCacheConfig(cache_rate=draw(st.floats(min_value=0.0, max_value=1.0)),
                               interval=draw(st.integers(min_value=0, max_value=5))),
        output=OutputConfig(*(draw(st.none() | _paths) for _ in range(4))),
        input_trace=draw(st.none() | _paths),
    )


@settings(max_examples=300, deadline=None)
@given(run_configs())
def test_serialize_and_parse_are_inverses(cfg):
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


@settings(max_examples=150, deadline=None, derandomize=True)
@given(run_configs().filter(lambda cfg: cfg.mode != "open-loop"), st.integers(0, 10**6))
def test_every_configuration_that_parses_runs(cfg, seed):
    """A closed-loop config that serializes and parses back runs to a finite terminal, with a report that adds up."""
    cfg = parse_config(serialize_config(replace(cfg, predictor=replace(cfg.predictor, seed=seed))))
    terminal, report, schedule = cli._sample(cfg, seed)
    assert terminal.shape == cfg.latent
    assert len(report.steps) == schedule.n_steps == cfg.schedule.n
