"""Backward agent paths and their planning diagnostics.

Closed forms used below, both for the target field (x - x0)/t with drift
F = p: the backward path from (t1, x1) is x(t) = x0 + (x1 - x0) t/t1, and for
the source G = K x with K = 1 the limit field is coth(t) x - x0/sinh(t),
whose paths are x(t) = x0 cosh(t) + C sinh(t).
"""

import numpy as np
import pytest

from mfgplan import (Box, ConfigError, FieldSpec,
                     IntegrationError, ModelSpec, SolverParams, Trajectory,
                     TrajectoryExitError, check_planning_convergence, check_value_consistency,
                     integrate_backward, penalized_slice, solve_master)
from conftest import (X0, AnalyticField, baseline_model, box1d, closed_form, coupled_model,
                      final_distance, identity_noise, jump_model, sample_solution)


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
    d1 = final_distance(integrate_backward(U, m, [1.0], 1.0, 0.1, steps=400), [X0])
    d2 = final_distance(integrate_backward(U, m, [1.0], 1.0, 0.05, steps=400), [X0])
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


def test_grid_field_path_stays_in_the_recorded_times(lq0_solution):
    m = baseline_model()
    field = lq0_solution.field()  # recorded on [0, 1]
    with pytest.raises(ConfigError, match="outside the recorded times"):
        integrate_backward(field, m, [1.0], 1.5, 0.1, steps=20)
    # 0.9 - 7 * (0.9 / 7) is -1.1e-16: the last step still lands on t = 0
    traj = integrate_backward(field, m, [1.0], 0.9, 0.0, steps=7)
    assert -1e-15 < traj.times[-1] < 0.0
    assert traj.values[-1].tobytes() == field.eval(0.0, traj.states[-1]).tobytes()


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
    # at the step's start, so a march costs 4 * steps + 1 evaluations, each
    # taking every path
    base = limit_field()
    steps = 50
    for starts in ([1.0], [[1.0], [0.2], [1.4]]):
        calls = []

        class Counted:
            def eval(self, t, pts):
                calls.append(len(pts))
                return base.eval(t, pts)

        traj = integrate_backward(Counted(), baseline_model(), starts, 1.0, 0.05, steps=steps)
        assert calls == [np.size(starts)] * (4 * steps + 1)
        ref = integrate_backward(base, baseline_model(), starts, 1.0, 0.05, steps=steps)
        assert np.array_equal(traj.states, ref.states)
        assert np.array_equal(traj.values, ref.values)


def assert_columns_are_serial_paths(U, m, starts, t1, t_min, steps):
    batch = integrate_backward(U, m, starts, t1, t_min, steps=steps)
    assert batch.states.shape == batch.values.shape == (steps + 1, *starts.shape)
    for i, x1 in enumerate(starts):
        one = integrate_backward(U, m, x1, t1, t_min, steps=steps)
        assert one.states.shape == (steps + 1, m.d)
        assert one.times.tobytes() == batch.times.tobytes()
        path = batch.path(i)
        assert one.states.tobytes() == np.ascontiguousarray(path.states).tobytes()
        assert one.values.tobytes() == np.ascontiguousarray(path.values).tobytes()
        row = integrate_backward(U, m, x1[None, :], t1, t_min, steps=steps)
        assert row.states.shape == (steps + 1, 1, m.d)
        assert row.states.tobytes() == one.states.tobytes()
        assert row.values.tobytes() == one.values.tobytes()


def test_batch_equals_serial_paths_1d(lq0_solution):
    starts = np.array([[1.0], [-0.25], [1.7], [0.45]])
    assert_columns_are_serial_paths(limit_field(), baseline_model(), starts, 1.0, 0.05, 60)
    assert_columns_are_serial_paths(lq0_solution.field(), baseline_model(), starts,
                                    1.0, 0.1, 80)


def test_batch_equals_serial_paths_2d():
    m = coupled_model(K=1.0, d=2)
    box = Box(np.full(2, -1.0), np.full(2, 2.0), np.full(2, 30))
    sol = solve_master(m, penalized_slice(m, box, 0.1), SolverParams(t_end=0.5, n_rec=26))
    starts = np.array([[0.9, 0.2], [0.1, 1.1], [1.3, 1.3], [-0.2, 0.4]])
    assert_columns_are_serial_paths(sol.field(), m, starts, 0.5, 0.05, 50)
    # a non-diagonal affine F in 3-D: one row of its product rounds like many
    rng = np.random.default_rng(3)
    F = FieldSpec.affine(rng.uniform(-0.3, 0.3, (3, 3)),
                         np.eye(3) + rng.uniform(-0.2, 0.2, (3, 3)), c=rng.uniform(-0.5, 0.5, 3), d=3)
    m3 = ModelSpec(d=3, F=F, G=FieldSpec.affine(0.0, 0.0, d=3), lam=0.0,
                   noise=identity_noise(3), x0=np.full(3, 0.5))
    U = AnalyticField(lambda t, x: (x - m3.x0) / (t + 0.5))
    assert_columns_are_serial_paths(U, m3, rng.uniform(-0.5, 1.5, (9, 3)), 1.0, 0.05, 40)


def test_batch_exit_names_first_start_and_keeps_every_path():
    # repelling field: x - x0 = (x1 - x0)/t backward, so the start at 1.8
    # reaches the lid at 2.0 first (t = 1.3/1.5), before the one at 1.5
    m = baseline_model()
    U = AnalyticField(lambda t, x: -(x - X0) / t, box=box1d(n=50))
    starts = np.array([[0.6], [1.5], [1.8], [1.8], [-0.2]])
    with pytest.raises(TrajectoryExitError, match=r"^trajectory 2 \(start 1\.8\) left") as exc:
        integrate_backward(U, m, starts, 1.0, 0.05, steps=400)
    err = exc.value
    assert abs(err.t_exit - 1.3 / 1.5) <= 0.01
    part = err.partial
    assert part.states.shape == part.values.shape == (len(part.times), 5, 1)
    assert np.all((part.states >= -1.0) & (part.states <= 2.0))
    for i in (1, 2):
        with pytest.raises(TrajectoryExitError) as one:
            integrate_backward(U, m, starts[i], 1.0, 0.05, steps=400)
        if i == 2:
            assert one.value.t_exit == err.t_exit
            assert one.value.partial.states.tobytes() == \
                np.ascontiguousarray(part.states[:, i]).tobytes()
        else:  # this start is still inside when the batch stops
            assert one.value.t_exit < err.t_exit
            k = len(part.times)
            assert one.value.partial.states[:k].tobytes() == \
                np.ascontiguousarray(part.states[:, i]).tobytes()


def test_single_path_checks_refuse_a_batch():
    # on (K, N, d) states final_distance used to return the norm over every
    # path together, and the two checks broadcast the batch against x0 or G
    m = baseline_model()
    starts = np.array([[1.0], [0.2], [0.8]])
    paths = integrate_backward(limit_field(), m, starts, 1.0, 0.05, steps=40)
    for call, what in ((lambda: final_distance(paths, [X0]), "final_distance"),
                       (lambda: check_planning_convergence(paths, [X0]),
                        "check_planning_convergence"),
                       (lambda: check_value_consistency(paths, m), "check_value_consistency")):
        with pytest.raises(ConfigError, match=rf"^{what} takes one path, not a batch of 3: "
                                              r"pass path\(i\)"):
            call()
    for i, x1 in enumerate(starts):
        one = integrate_backward(limit_field(), m, x1, 1.0, 0.05, steps=40)
        assert final_distance(paths.path(i), [X0]) == final_distance(one, [X0])
        assert check_planning_convergence(paths.path(i), [X0]) == \
            check_planning_convergence(one, [X0])
        assert check_value_consistency(paths.path(i), m) == check_value_consistency(one, m)


def test_nonfinite_path_raises_with_last_state():
    # U = 1 above x = 0.7 and nan below: backward paths move down at unit
    # speed until a stage lands at or below 0.7
    m = baseline_model()
    U = AnalyticField(lambda t, x: np.where(x > 0.7, 1.0, np.nan))
    for starts in (np.array([1.0]), np.array([[1.0], [3.0]])):
        with pytest.raises(IntegrationError, match="non-finite") as exc:
            integrate_backward(U, m, starts, 1.0, 0.1, steps=9)
        t, x = exc.value.last_state
        assert x.shape == starts.shape
        assert np.all(np.isfinite(x)) and np.all(x > 0.7)
        assert t == pytest.approx(np.ravel(x)[0])  # x(t) = t on the first path


def test_nonfinite_path_on_a_boxed_grid_field_is_not_an_exit():
    # a nan state compares False against the box like a state outside it:
    # on a grid field, whose box bounds the march, it must still raise
    # IntegrationError and not TrajectoryExitError
    m, box = baseline_model(), box1d(n=30)
    U = sample_solution(box, [0.0, 0.5, 1.0], lambda t, x: np.where(x > 0.7, 1.0, np.nan))
    for starts in (np.array([1.5]), np.array([[1.5], [1.8]])):
        with pytest.raises(IntegrationError, match="non-finite") as exc:
            integrate_backward(U.field(), m, starts, 1.0, 0.1, steps=9)
        t, x = exc.value.last_state
        assert x.shape == starts.shape and np.all(np.isfinite(x)) and np.all(x > 0.7)


def test_starts_must_have_d_coordinates():
    with pytest.raises(ConfigError, match="coordinates"):
        integrate_backward(limit_field(), baseline_model(d=2), [[1.0, 0.5, 0.2]], 1.0, 0.1)
