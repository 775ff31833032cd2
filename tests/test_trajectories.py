"""Backward agent paths and their planning diagnostics.

Closed forms used below, both for the target field (x - x0)/t with drift
F = p: the backward path from (t1, x1) is x(t) = x0 + (x1 - x0) t/t1, and for
the source G = K x with K = 1 the limit field is coth(t) x - x0/sinh(t),
whose paths are x(t) = x0 cosh(t) + C sinh(t).
"""

import numpy as np
import pytest

from mfgplan import (AnalyticField, ConfigError, Trajectory,
                     TrajectoryExitError, check_planning_convergence,
                     check_value_consistency, integrate_backward)
from conftest import (X0, baseline_model, box1d, closed_form, coupled_model,
                      jump_model)


def limit_field(box=None):
    return AnalyticField(lambda t, x: closed_form(t, x), box=box)


def test_path_matches_closed_form():
    m = baseline_model()
    traj = integrate_backward(limit_field(), m, [1.0], 1.0, 0.05, steps=200)
    assert traj.times[0] == 1.0
    assert traj.times[-1] == pytest.approx(0.05)
    want = X0 + (1.0 - X0) * traj.times / 1.0
    assert float(np.max(np.abs(traj.states[:, 0] - want))) <= 1e-3
    x_near = float(np.interp(0.1, traj.times[::-1], traj.states[::-1, 0]))
    assert abs(x_near - 0.55) <= 1e-3
    # the carried value (x(t) - x0)/t is constant along this path
    assert float(np.ptp(traj.values)) <= 1e-6


def test_final_distance_halves_with_t_min():
    m = baseline_model()
    U = limit_field()
    d1 = integrate_backward(U, m, [1.0], 1.0, 0.1, steps=400).final_distance([X0])
    d2 = integrate_backward(U, m, [1.0], 1.0, 0.05, steps=400).final_distance([X0])
    assert abs(d1 - 0.05) <= 2e-3
    assert abs(d2 - 0.025) <= 2e-3
    assert 1.8 <= d1 / d2 <= 2.2


def test_planning_convergence_report():
    m = baseline_model()
    traj = integrate_backward(limit_field(), m, [1.0], 1.0, 0.05, steps=200)
    rep = check_planning_convergence(traj, [X0])
    assert rep.passed
    assert abs(rep.slope - 0.5) <= 1e-2  # |x(t) - x0| = 0.5 t on this path
    assert abs(rep.distance - 0.025) <= 2e-3


def test_value_defect_tiny_without_source():
    m = baseline_model()
    traj = integrate_backward(limit_field(), m, [1.0], 1.0, 0.05, steps=200)
    assert check_value_consistency(traj, m) <= 1e-3


def test_value_defect_refines_with_source():
    m = coupled_model(K=1.0)

    def fn(t, x):
        return np.cosh(t) / np.sinh(t) * x - X0 / np.sinh(t)

    U = AnalyticField(fn)
    coarse = check_value_consistency(
        integrate_backward(U, m, [1.2], 1.0, 0.1, steps=100), m)
    fine = check_value_consistency(
        integrate_backward(U, m, [1.2], 1.0, 0.1, steps=200), m)
    assert fine < coarse
    # centered differencing of smooth values is second order
    assert coarse / fine >= 3.0


def test_numeric_field_path(lq0_solution):
    # eps = 0.1 grid solve: paths follow x0 + (x1 - x0)(t + eps)/(t1 + eps)
    m = baseline_model()
    traj = integrate_backward(lq0_solution.field(), m, [1.0], 1.0, 0.1,
                              steps=200)
    want = X0 + (1.0 - X0) * (traj.times + 0.1) / 1.1
    assert float(np.max(np.abs(traj.states[:, 0] - want))) <= 1e-2
    assert check_value_consistency(traj, m) <= 5e-2


def test_guards():
    m = baseline_model()
    U = limit_field()
    with pytest.raises(ConfigError, match="lambda"):
        integrate_backward(U, jump_model(), [0.5], 1.0, 0.1)
    with pytest.raises(ConfigError):
        integrate_backward(U, m, [1.0], 0.5, 0.5)
    with pytest.raises(ConfigError):
        integrate_backward(U, m, [1.0], 0.5, -0.1)
    with pytest.raises(ConfigError):
        integrate_backward(U, m, [1.0], 1.0, 0.1, steps=0)
    short = Trajectory(times=np.array([1.0, 0.5]),
                       states=np.zeros((2, 1)), values=np.zeros((2, 1)))
    with pytest.raises(ConfigError):
        check_value_consistency(short, m)


def test_box_exit_keeps_partial_path():
    # a repelling field: backward paths blow outward like 1/t
    m = baseline_model()
    U = AnalyticField(lambda t, x: -(x - X0) / t, box=box1d(n=50))
    with pytest.raises(TrajectoryExitError) as exc:
        integrate_backward(U, m, [1.5], 1.0, 0.05, steps=400)
    err = exc.value
    assert 0.05 < err.t_exit < 1.0
    part = err.partial
    assert part.times[0] == 1.0
    assert len(part.times) >= 2
    assert np.all(part.states[:, 0] <= 2.0)
    # exit happens where x0 + 1/t crosses the box lid at 2.0
    assert abs(err.t_exit - 1.0 / 1.5) <= 0.05


def test_one_field_evaluation_per_recorded_point_and_stage():
    # RK4 takes four drift stages a step; the first reuses the value recorded
    # at the step's start, so a march costs 4 * steps + 1 evaluations
    base = limit_field()
    calls = []

    class Counted:
        def eval(self, t, pts):
            calls.append(t)
            return base.eval(t, pts)

    steps = 50
    traj = integrate_backward(Counted(), baseline_model(), [1.0], 1.0, 0.05, steps=steps)
    assert len(calls) == 4 * steps + 1
    ref = integrate_backward(base, baseline_model(), [1.0], 1.0, 0.05, steps=steps)
    assert np.array_equal(traj.states, ref.states)
    assert np.array_equal(traj.values, ref.values)
