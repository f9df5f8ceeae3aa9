"""Tests for the flat key = value configuration format."""

from dataclasses import replace

import pytest

from flowcache.config import (
    MODES,
    PREDICTOR_KINDS,
    PredictorConfig,
    RunConfig,
    build_predictor,
    build_schedule,
    parse_config,
    require_seeds,
    serialize_config,
)
from flowcache.errors import ConfigError
from flowcache.predictors import MixturePredictor, ToyBlockNet
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
    with pytest.raises(ConfigError, match="expected an integer"):
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
