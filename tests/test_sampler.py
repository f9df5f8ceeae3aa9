"""Timestep schedules and the baseline Euler sampler."""

import dataclasses
import json
from dataclasses import replace

import numpy as np
import pytest

from flowcache.errors import ConfigError, DimensionError, DomainError, ScheduleError, StateError
from flowcache.engine import StepCacheConfig, sample_cached
from flowcache.predictors import MixturePredictor, structured_mixture
from flowcache.report import StepRecord
from flowcache.sampler import TimestepSchedule, euler_step, make_schedule, sample_baseline
from flowcache.tensor import Tensor4, seeded_normal


def test_uniform_schedule_example():
    sched = make_schedule(4)
    assert sched.values == (1.0, 0.75, 0.5, 0.25, 0.0)
    assert sched.n_steps == 4
    assert sched.values[-1] == 0.0


def test_shifted_schedule_midpoint_example():
    """shift = 3 warps u = 0.5 to 3*0.5 / (1 + 2*0.5) = 0.75."""
    sched = make_schedule(2, kind="shifted", shift=3.0)
    assert sched.values[0] == 1.0
    assert sched.values[1] == pytest.approx(0.75)
    assert sched.values[2] == 0.0


def test_shifted_schedule_starts_at_exactly_one_for_small_shifts():
    """The warp at u = 1 is shift / shift only up to rounding: 0.1 gave 1.0000000000000002, 1e-17 divided by zero."""
    for shift in (0.1, 0.3, 1e-17):
        sched = make_schedule(50, kind="shifted", shift=shift)
        assert sched.values[0] == 1.0
        assert sched.values[1] < 1.0 and sched.values[-1] == 0.0


def test_shift_one_is_identity():
    assert make_schedule(5, kind="shifted", shift=1.0).values == make_schedule(5).values


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        TimestepSchedule((1.0, 0.5, 0.5, 0.0))
    with pytest.raises(ScheduleError):
        TimestepSchedule((0.9, 0.5, 0.0))
    with pytest.raises(ScheduleError):
        TimestepSchedule((1.0,))
    with pytest.raises(ScheduleError, match=r"terminal value must lie in \[0, 1\), got -0.5"):
        TimestepSchedule((1.0, -0.5))
    with pytest.raises(ConfigError):
        make_schedule(1)
    with pytest.raises(ConfigError):
        make_schedule(10, kind="cosine")
    with pytest.raises(ConfigError):
        make_schedule(10, shift=0.0)
    with pytest.raises(ConfigError):
        make_schedule(10, terminal=1.0)


def test_schedule_pairs_traversal():
    sched = make_schedule(3)
    pairs = sched.pairs()
    assert pairs[0] == (0, 1.0, pytest.approx(2.0 / 3.0))
    assert [k for k, _, _ in pairs] == [0, 1, 2]
    assert pairs[-1][2] == 0.0


def test_nonzero_terminal_maps_endpoints():
    sched = make_schedule(4, terminal=0.2)
    assert sched.values[0] == 1.0
    assert sched.values[-1] == pytest.approx(0.2)


def test_euler_step_arithmetic():
    z = np.full((1, 2, 2, 1), 1.0)
    f = np.full((1, 2, 2, 1), 2.0)
    out = euler_step(z, f, 1.0, 0.75)
    assert np.all(out == 0.5)
    assert not out.flags.writeable
    assert z.flags.writeable and f.flags.writeable, "the inputs are only read"


def test_euler_step_rejects_a_latent_that_overflows():
    """Every latent is scanned at the step that makes it: finite z and f whose update overflows raise."""
    shape = (1, 2, 2, 1)
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="tensor contains non-finite values"):
        euler_step(np.full(shape, 1e308), np.full(shape, -1e308), 1.0, 0.0)


def test_euler_step_requires_decreasing_t():
    z = np.zeros((1, 2, 2, 1))
    with pytest.raises(ScheduleError):
        euler_step(z, z, 0.5, 0.5)
    with pytest.raises(ScheduleError):
        euler_step(z, z, 0.5, 0.6)


def test_euler_step_shape_guard():
    with pytest.raises(DimensionError):
        euler_step(np.zeros((1, 2, 2, 1)), np.zeros((1, 2, 4, 1)), 1.0, 0.5)


def _single_gaussian(shape, mean=0.0, var=2.0):
    return MixturePredictor(shape, (1.0,), (var,), np.full((1,) + shape, mean))


def test_baseline_is_deterministic_bitwise():
    shape = (2, 4, 4, 1)
    pred = _single_gaussian(shape)
    sched = make_schedule(10)
    z0 = seeded_normal(shape, seed=4)
    a, _ = sample_baseline(pred, z0, sched)
    b, _ = sample_baseline(pred, z0, sched)
    assert np.array_equal(a.data, b.data)


def test_baseline_report_counts_and_cost():
    shape = (2, 4, 4, 3)
    pred = _single_gaussian(shape)
    sched = make_schedule(7)
    z0 = seeded_normal(shape, seed=0)
    _, report = sample_baseline(pred, z0, sched)
    assert report.n_steps == 7
    assert report.full_eval_count == 7
    assert report.skip_count == 0
    assert report.trial_eval_count == 0
    assert report.cost_units == 7 * 2 * 4 * 4
    assert report.baseline_cost_units == report.cost_units
    assert not report.open_loop
    assert [r.decision for r in report.steps] == ["full"] * 7


def test_report_validate_rejects_counts_that_do_not_add_up():
    shape = (1, 4, 4, 1)
    _, report = sample_baseline(_single_gaussian(shape), seeded_normal(shape, seed=0), make_schedule(4))
    with pytest.raises(StateError):
        replace(report, skip_count=1).validate()
    with pytest.raises(StateError, match="report has 3 step rows for 4 steps"):
        replace(report, steps=report.steps[:-1]).validate()
    with pytest.raises(StateError, match="report counts 0 full steps but its rows hold 4"):
        replace(report, full_eval_count=report.skip_count, skip_count=report.full_eval_count).validate()


def test_observer_sees_steps_in_order():
    shape = (1, 4, 4, 1)
    pred = _single_gaussian(shape)
    sched = make_schedule(5)
    seen = []
    sample_baseline(pred, seeded_normal(shape, seed=2), sched,
                    observer=lambda k, t, z, f: seen.append((k, t)))
    assert [k for k, _ in seen] == [0, 1, 2, 3, 4]
    assert [t for _, t in seen] == list(sched.values[:-1])


def test_refinement_ladder_converges_first_order():
    """Halving the step size should roughly halve the terminal error."""
    shape = (1, 4, 4, 1)
    pred = _single_gaussian(shape, mean=1.5, var=2.0)
    z0 = seeded_normal(shape, seed=9)
    reference, _ = sample_baseline(pred, z0, make_schedule(1600))
    errors = []
    for n in (25, 50, 100, 200):
        terminal, _ = sample_baseline(pred, z0, make_schedule(n))
        errors.append(float(np.sqrt(np.mean((terminal.data - reference.data) ** 2))))
    assert errors[-1] < errors[0]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine < 0.75 * coarse


def test_symmetric_mixture_gives_antisymmetric_flow():
    """Negating the latent negates the trajectory when the mixture is sign-symmetric."""
    shape = (1, 4, 4, 1)
    pred = MixturePredictor(shape, (0.5, 0.5), (0.5, 0.5), np.stack([np.full(shape, 2.0), np.full(shape, -2.0)]))
    sched = make_schedule(40)
    z0 = seeded_normal(shape, seed=3)
    pos, _ = sample_baseline(pred, z0, sched)
    neg, _ = sample_baseline(pred, Tensor4(-z0.data), sched)
    assert np.allclose(neg.data, -pos.data, atol=1e-10)


def test_single_gaussian_terminal_variance_matches_data():
    """512 cellwise-independent runs at n = 500 recover the data variance within 15%.

    With a scalar-mean single-component spec every cell evolves independently,
    so one wide tensor integrates many runs at once.
    """
    var = 2.0
    shape = (512, 4, 4, 1)
    pred = _single_gaussian(shape, mean=0.0, var=var)
    z0 = seeded_normal(shape, seed=123)
    terminal, _ = sample_baseline(pred, z0, make_schedule(500))
    sample_var = float(np.var(terminal.data))
    assert abs(sample_var - var) <= 0.15 * var


def test_predictor_shape_mismatch_is_caught():
    class WrongShape:
        def evaluate(self, x, t):
            return np.zeros((1, 2, 2, 1))

    with pytest.raises(DimensionError):
        sample_baseline(WrongShape(), Tensor4(np.zeros((1, 4, 4, 1))), make_schedule(2))


def test_step_records_are_slotted_frozen_and_report_the_bytes_of_an_unslotted_row():
    """A row holds no __dict__ and refuses assignment; asdict of a run's report reads as it did before the slots."""
    unslotted = dataclasses.make_dataclass(
        "StepRecord", [(f.name, f.type, f.default) for f in dataclasses.fields(StepRecord)], frozen=True)
    shape = (4, 8, 8, 2)
    _, report = sample_cached(structured_mixture(shape, seed=3), seeded_normal(shape, seed=4), make_schedule(20),
                              StepCacheConfig(alpha=0.9, warmup_steps=3))
    row = report.steps[-1]
    assert not hasattr(row, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.decision = "skip"
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
        row.extra = 1
    plain = replace(report, steps=[unslotted(**{f.name: getattr(r, f.name) for f in dataclasses.fields(r)})
                                   for r in report.steps])
    assert json.dumps(dataclasses.asdict(report)).encode() == json.dumps(dataclasses.asdict(plain)).encode()

