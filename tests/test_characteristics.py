"""Characteristic flow and shooting oracle.

COSH1/SINH1 are the value and slope of the linear flow dx/dt = u, du/dt = x
after unit time, from the matrix exponential of [[0,1],[1,0]] (independent
RK4 cross-check in tests/oracles/derive_values.py).
"""

import numpy as np
import pytest

from mfgplan import (Box, ConfigError, NewtonError, flow_forward, penalized_data,
                     solve_by_shooting, solve_master, penalized_slice,
                     SolverParams)
from conftest import baseline_model, box1d, coupled_model, jump_model

COSH1 = 1.543080634815244
SINH1 = 1.175201193643801
# closed-form value of the coupled field (source = x, eps = 0.1) at t=0.3, x=1
COUPLED_VALUE = 1.407614494825863


def test_flow_forward_linear_system():
    m = coupled_model(K=1.0)
    state = flow_forward(m, np.array([1.0]), np.array([0.0]), 1.0, rk_steps=256)
    assert abs(state.x[0] - COSH1) <= 1e-9
    assert abs(state.u[0] - SINH1) <= 1e-9
    assert state.s == 1.0


def test_flow_forward_rk4_order():
    m = coupled_model(K=1.0)
    errs = []
    for steps in (2, 4, 8):
        st = flow_forward(m, np.array([1.0]), np.array([0.0]), 1.0,
                          rk_steps=steps)
        errs.append(abs(st.x[0] - COSH1) + abs(st.u[0] - SINH1))
    order_a = np.log2(errs[0] / errs[1])
    order_b = np.log2(errs[1] / errs[2])
    assert order_a >= 3.5
    assert order_b >= 3.5


def test_flow_forward_guards():
    with pytest.raises(ConfigError):
        flow_forward(jump_model(), np.array([0.5]), np.array([0.0]), 0.5)
    m = baseline_model()
    with pytest.raises(ConfigError):
        flow_forward(m, np.array([0.5]), np.array([0.0]), -0.1)
    st = flow_forward(m, np.array([0.5]), np.array([0.25]), 0.0)
    assert st.x[0] == 0.5 and st.u[0] == 0.25


def test_shooting_baseline_closed_form():
    m = baseline_model()
    U0 = penalized_data(m.x0, 0.1)
    got = solve_by_shooting(m, U0, 0.4, np.array([1.0]))
    assert abs(got[0] - 1.0) <= 1e-8  # (1.0 - 0.5)/(0.1 + 0.4)
    got = solve_by_shooting(m, U0, 0.9, np.array([-0.5]))
    assert abs(got[0] - (-1.0)) <= 1e-8


def test_shooting_small_time_expansion():
    m = baseline_model()
    U0 = penalized_data(m.x0, 0.1)
    t = 1e-4
    got = solve_by_shooting(m, U0, t, np.array([1.0]))
    # below the shooting threshold the first-order expansion U0 + t G is exact
    # for this model (G = 0)
    assert got[0] == pytest.approx((1.0 - 0.5) / 0.1, abs=1e-12)


def test_shooting_matches_coupled_closed_form():
    m = coupled_model(K=1.0)
    U0 = penalized_data(m.x0, 0.1)
    got = solve_by_shooting(m, U0, 0.3, np.array([1.0]), rk_steps=400)
    assert abs(got[0] - COUPLED_VALUE) <= 1e-6


def test_shooting_cross_checks_grid(coupled_solution):
    m = coupled_model(K=1.0)
    U0 = penalized_data(m.x0, 0.1)
    field = coupled_solution.field()
    probes = np.linspace(-0.3, 1.3, 10)[:, None]
    grid_val = field.eval(0.3, probes)
    char_val = solve_by_shooting(m, U0, 0.3, probes)
    assert np.max(np.abs(grid_val - char_val)) <= 2e-2


def test_shooting_two_dimensional():
    m = baseline_model(d=2, x0=[0.3, 0.1])
    U0 = penalized_data(m.x0, 0.2)
    x = np.array([0.9, -0.4])
    got = solve_by_shooting(m, U0, 0.5, x)
    want = (x - m.x0) / 0.7
    assert np.allclose(got, want, atol=1e-8)


def test_shooting_batch_matches_single_points():
    m = coupled_model(K=1.0, d=2)
    U0 = penalized_data(m.x0, 0.1)
    pts = np.random.default_rng(3).uniform(-0.5, 1.5, size=(12, 2))
    batch = solve_by_shooting(m, U0, 0.4, pts)
    assert batch.shape == (12, 2)
    single = [solve_by_shooting(m, U0, 0.4, x) for x in pts]
    assert all(v.shape == (2,) for v in single)
    assert np.max(np.abs(batch - np.array(single))) <= 1e-9
    # below SMALL_T the expansion takes batches too
    small = solve_by_shooting(m, U0, 1e-4, pts)
    assert np.allclose(small, U0(pts) + 1e-4 * pts, rtol=0, atol=1e-12)


def _whole_grid_gaps(m, boxes, lo, hi, t=0.4, eps=0.1):
    """Sup gap between the grid slice at t and shooting, over nodes in [lo, hi]^d."""
    gaps = []
    for box in boxes:
        sol = solve_master(m, penalized_slice(m, box, eps), SolverParams(t_end=t, n_rec=2))
        nodes = box.node_list()
        inner = np.all((nodes >= lo - 1e-12) & (nodes <= hi + 1e-12), axis=1)
        char = solve_by_shooting(m, penalized_data(m.x0, eps), t, nodes[inner])
        grid = sol.values[-1].reshape(-1, m.d)[inner]
        gaps.append(float(np.max(np.abs(grid - char))))
    return np.array(gaps)


def test_whole_grid_oracle_first_order_1d():
    # first-order upwind: the sup gap on the whole interior halves per doubling
    gaps = _whole_grid_gaps(coupled_model(K=1.0), [box1d(n=n) for n in (100, 200, 400)],
                            -0.3, 1.3)
    assert np.all(gaps[:-1] / gaps[1:] >= 1.8)


def test_whole_grid_oracle_first_order_2d():
    ns = (20, 40, 80)
    boxes = [Box(np.full(2, -1.0), np.full(2, 2.0), np.full(2, n)) for n in ns]
    gaps = _whole_grid_gaps(coupled_model(K=1.0, d=2), boxes, 0.0, 1.0)
    cells = gaps / np.array([b.dx[0] for b in boxes])
    assert np.all(cells <= 0.25)
    assert np.all(gaps[:-1] / gaps[1:] >= 1.6)


def test_shooting_guards_and_failure():
    with pytest.raises(ConfigError):
        solve_by_shooting(jump_model(), penalized_data(np.zeros(1), 0.1), 0.5,
                          np.array([0.2]))
    m = baseline_model()
    with pytest.raises(NewtonError):
        solve_by_shooting(m, penalized_data(m.x0, 0.1), 0.5, np.array([1.8]),
                          tol=1e-14, max_iter=1)


def test_forward_map_injective():
    # the flow z -> x(t) of a monotone field must preserve order in d=1
    m = baseline_model()
    U0 = penalized_data(m.x0, 0.1)
    z = np.linspace(-0.9, 1.9, 100)[:, None]
    from mfgplan.characteristics import _rk4_batch
    xe, _ = _rk4_batch(m, z.copy(), np.asarray(U0(z)), 0.6, 200)
    assert np.all(np.diff(xe[:, 0]) > 0)
