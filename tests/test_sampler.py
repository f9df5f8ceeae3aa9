"""Timestep schedules and the baseline Euler sampler."""

from dataclasses import replace

import numpy as np
import pytest

from flowcache.errors import ConfigError, DimensionError, ScheduleError, StateError
from flowcache.predictors import GaussianMixtureSpec, MixtureComponent, MixturePredictor
from flowcache.sampler import TimestepSchedule, euler_step, make_schedule, sample_baseline
from flowcache.tensor import Tensor4, seeded_normal


def test_uniform_schedule_example():
    sched = make_schedule(4)
    assert sched.values == (1.0, 0.75, 0.5, 0.25, 0.0)
    assert sched.n_steps == 4
    assert sched.terminal == 0.0


def test_shifted_schedule_midpoint_example():
    """shift = 3 warps u = 0.5 to 3*0.5 / (1 + 2*0.5) = 0.75."""
    sched = make_schedule(2, kind="shifted", shift=3.0)
    assert sched.values[0] == 1.0
    assert sched.values[1] == pytest.approx(0.75)
    assert sched.values[2] == 0.0


def test_shift_one_is_identity():
    assert make_schedule(5, kind="shifted", shift=1.0).values == make_schedule(5).values


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        TimestepSchedule((1.0, 0.5, 0.5, 0.0))
    with pytest.raises(ScheduleError):
        TimestepSchedule((0.9, 0.5, 0.0))
    with pytest.raises(ScheduleError):
        TimestepSchedule((1.0,))
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
    z = Tensor4.full((1, 2, 2, 1), 1.0)
    f = Tensor4.full((1, 2, 2, 1), 2.0)
    out = euler_step(z, f, 1.0, 0.75)
    assert np.all(out.data == 0.5)


def test_euler_step_requires_decreasing_t():
    z = Tensor4.zeros((1, 2, 2, 1))
    with pytest.raises(ScheduleError):
        euler_step(z, z, 0.5, 0.5)
    with pytest.raises(ScheduleError):
        euler_step(z, z, 0.5, 0.6)


def test_euler_step_shape_guard():
    with pytest.raises(DimensionError):
        euler_step(Tensor4.zeros((1, 2, 2, 1)), Tensor4.zeros((1, 2, 4, 1)), 1.0, 0.5)


def _single_gaussian(shape, mean=0.0, var=2.0):
    return GaussianMixtureSpec(shape, (MixtureComponent(1.0, mean, var),))


def test_baseline_is_deterministic_bitwise():
    shape = (2, 4, 4, 1)
    pred = MixturePredictor(_single_gaussian(shape))
    sched = make_schedule(10)
    z0 = seeded_normal(shape, seed=4)
    a, _ = sample_baseline(pred, z0, sched)
    b, _ = sample_baseline(pred, z0, sched)
    assert np.array_equal(a.data, b.data)


def test_baseline_report_counts_and_cost():
    shape = (2, 4, 4, 3)
    pred = MixturePredictor(_single_gaussian(shape))
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
    _, report = sample_baseline(MixturePredictor(_single_gaussian(shape)), seeded_normal(shape, seed=0), make_schedule(4))
    with pytest.raises(StateError):
        replace(report, skip_count=1).validate()


def test_observer_sees_steps_in_order():
    shape = (1, 4, 4, 1)
    pred = MixturePredictor(_single_gaussian(shape))
    sched = make_schedule(5)
    seen = []
    sample_baseline(pred, seeded_normal(shape, seed=2), sched,
                    observer=lambda k, t, z, f: seen.append((k, t)))
    assert [k for k, _ in seen] == [0, 1, 2, 3, 4]
    assert [t for _, t in seen] == list(sched.values[:-1])


def test_refinement_ladder_converges_first_order():
    """Halving the step size should roughly halve the terminal error."""
    shape = (1, 4, 4, 1)
    spec = _single_gaussian(shape, mean=1.5, var=2.0)
    pred = MixturePredictor(spec)
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
    spec = GaussianMixtureSpec(shape, (
        MixtureComponent(0.5, 2.0, 0.5),
        MixtureComponent(0.5, -2.0, 0.5),
    ))
    pred = MixturePredictor(spec)
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
    pred = MixturePredictor(_single_gaussian(shape, mean=0.0, var=var))
    z0 = seeded_normal(shape, seed=123)
    terminal, _ = sample_baseline(pred, z0, make_schedule(500))
    sample_var = float(np.var(terminal.data))
    assert abs(sample_var - var) <= 0.15 * var


def test_predictor_shape_mismatch_is_caught():
    class WrongShape:
        def evaluate(self, z, t):
            return Tensor4.zeros((1, 2, 2, 1))

    with pytest.raises(DimensionError):
        sample_baseline(WrongShape(), Tensor4.zeros((1, 4, 4, 1)), make_schedule(2))
