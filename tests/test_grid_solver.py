"""Marcher, interpolation, residual and norm diagnostics.

Frozen constants derive from tests/oracles/derive_values.py (closed forms
cross-checked there by independent fine-step RK4 integration).
"""

import numpy as np
import pytest

from mfgplan import (AffineNoiseMap, BlowupError, Box, ConfigError, FieldSpec,
                     GridSolution, ModelSpec, Slice, SolverParams, check_monotone_map,
                     lipschitz_norm, node_jacobians, penalized_slice, residual,
                     sample_solution, solve_master, write_solution_csv)
from conftest import baseline_model, box1d, closed_form, jump_model

# slope of the jump model (lambda=1, S=0.5, eps=0.1) at t=0.5, from the
# logistic closed form kappa/((kappa/a0+1)e^{kappa t}-1) with kappa=0.75
JUMP_SLOPE_HALF = 1.329514328326566


def test_box_geometry():
    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]), np.array([4, 8]))
    assert box.dim == 2
    assert np.allclose(box.dx, [0.5, 0.25])
    assert box.shape == (5, 9)
    assert box.nodes().shape == (5, 9, 2)
    assert box.node_list().shape == (45, 2)
    assert box.contains(np.array([[0.0, 1.0]]))[0]
    assert not box.contains(np.array([[1.5, 1.0]]))[0]
    # margin in cells to the nearest face
    assert box.margin_cells(np.array([0.0, 1.0])) == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        Box(np.array([1.0]), np.array([0.0]), np.array([4]))
    with pytest.raises(ConfigError):
        Box(np.array([0.0]), np.array([1.0]), np.array([0]))


def test_interp_exact_on_linear_including_extrapolation():
    box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([5, 5]))
    A = np.array([[2.0, -1.0], [0.5, 3.0]])
    lin = lambda x: x @ A.T + np.array([0.3, -0.7])
    sl = Slice.from_fn(box, lin)
    inside = np.array([[0.31, 0.77], [0.5, 0.5]])
    outside = np.array([[-0.4, 0.5], [1.3, 1.9]])  # linear extension applies
    for pts in (inside, outside):
        assert np.allclose(sl.eval(pts), lin(pts), atol=1e-12)
    single = sl.eval(np.array([0.25, 0.5]))
    assert single.shape == (2,)
    assert np.allclose(single, lin(np.array([[0.25, 0.5]]))[0], atol=1e-12)


def test_solver_params_validation():
    with pytest.raises(ConfigError, match="cfl"):
        SolverParams(cfl=0.0)
    with pytest.raises(ConfigError, match="cfl"):
        SolverParams(cfl=1.5)
    with pytest.raises(ConfigError, match="t_end"):
        SolverParams(t_end=0.0)
    with pytest.raises(ConfigError, match="n_rec"):
        SolverParams(n_rec=1)
    with pytest.raises(ConfigError, match="visc"):
        SolverParams(visc=-0.1)


def test_baseline_closed_form_and_refinement():
    # U(t,x) = (x - x0)/(eps + t); error must be <= 2e-2 at 400 cells and
    # roughly halve when the grid is doubled (first order upwind)
    m = baseline_model()
    params = SolverParams(t_end=0.5, n_rec=51)
    probes = np.linspace(-0.5, 1.5, 21)[:, None]
    errs = {}
    for n in (400, 800):
        sol = solve_master(m, penalized_slice(m, box1d(n=n), 0.1), params)
        got = sol.field().eval(0.4, probes)
        want = closed_form(0.4, probes, eps=0.1)
        errs[n] = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
    assert errs[400] <= 2e-2
    assert errs[400] / errs[800] >= 1.7


def test_identity_relabeling_matches_no_jump():
    # S = Id, e = 0 makes the jump term vanish identically
    m0 = baseline_model()
    m1 = ModelSpec(d=1, F=m0.F, G=m0.G, lam=2.0,
                   noise=AffineNoiseMap.identity(1), x0=m0.x0, alpha=1.0,
                   lip_Fp=1.0)
    params = SolverParams(t_end=0.3, n_rec=31)
    box = box1d(n=100)
    a = solve_master(m0, penalized_slice(m0, box, 0.2), params)
    b = solve_master(m1, penalized_slice(m1, box, 0.2), params)
    assert float(np.max(np.abs(a.values - b.values))) <= 1e-12


def test_jump_model_closed_form():
    m = jump_model(lam=1.0, S=0.5)
    box = Box(np.array([-2.0]), np.array([2.0]), np.array([400]))
    params = SolverParams(t_end=0.5, n_rec=51)
    sol = solve_master(m, penalized_slice(m, box, 0.1), params)
    probes = np.linspace(-1.0, 1.0, 9)[:, None]
    got = sol.field().eval(0.5, probes)
    want = JUMP_SLOPE_HALF * probes
    rel = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
    assert rel <= 2e-2


def test_pure_source_is_time_exact():
    # F = 0 removes advection; forward Euler integrates dU/dt = x exactly
    m = ModelSpec(d=1, F=FieldSpec.affine(0.0, 0.0, d=1),
                  G=FieldSpec.affine(1.0, 0.0, d=1), lam=0.0,
                  noise=AffineNoiseMap.identity(1), x0=np.zeros(1), alpha=0.0,
                  lip_Gx=1.0)
    box = box1d(n=50)
    u0 = Slice.from_fn(box, lambda x: 0.5 * x)
    sol = solve_master(m, u0, SolverParams(t_end=0.4, n_rec=5))
    X = box.nodes()
    for i, t in enumerate(sol.times):
        want = 0.5 * X + t * X
        assert float(np.max(np.abs(sol.values[i] - want))) <= 1e-10


def test_residual_small_and_refining_on_analytic_solution():
    m = baseline_model()
    fn = lambda t, x: closed_form(t, x, eps=0.1)
    res = {}
    for n, n_rec in ((200, 51), (400, 101)):
        sol = sample_solution(box1d(n=n), np.linspace(0.0, 0.5, n_rec), fn)
        res[n] = float(np.max(residual(m, sol, 0.25)))
    assert res[200] <= 0.1
    assert res[200] / res[400] >= 1.5


def test_residual_of_numeric_solution_refines(lq0_solution):
    m = baseline_model()
    params = SolverParams(t_end=1.0, n_rec=101)
    coarse = solve_master(m, penalized_slice(m, box1d(n=200), 0.1), params)
    r_fine = float(np.max(residual(m, lq0_solution, 0.5)))
    r_coarse = float(np.max(residual(m, coarse, 0.5)))
    assert r_fine <= 0.1
    assert r_coarse / r_fine >= 1.5


def test_lipschitz_norm_of_analytic_field():
    # DxU = Id/t for the limit field, so the norm at t=0.25 is 4
    sol = sample_solution(box1d(n=200), np.linspace(0.2, 0.3, 5),
                          lambda t, x: closed_form(t, x))
    val = lipschitz_norm(sol, 0.25)
    assert abs(val - 4.0) <= 0.08


def test_monotonicity_propagates(lq0_solution):
    field = lq0_solution.field()
    box = box1d()
    for t in (0.2, 0.5, 1.0):
        mn = check_monotone_map(lambda x: field.eval(t, x), box, rng_seed=3)
        assert mn >= -1e-4


def test_viscosity_continuity():
    # needs curvature: the penalized slice is linear and diffusion-invariant,
    # so march a bent monotone profile instead
    m = baseline_model()
    box = box1d(n=100)
    u0 = Slice.from_fn(box, lambda x: x + 0.3 * np.sin(2.0 * x))
    ref = solve_master(m, u0, SolverParams(t_end=0.3, n_rec=31))
    diffs = []
    for visc in (0.02, 0.01):
        p = SolverParams(t_end=0.3, n_rec=31, visc=visc)
        sol = solve_master(m, u0, p)
        diffs.append(float(np.max(np.abs(sol.values - ref.values))))
    assert diffs[1] < diffs[0] <= 5e-2


def test_two_dimensional_solve():
    m = baseline_model(d=2, x0=[0.3, 0.1])
    box = Box(np.array([-1.0, -1.0]), np.array([1.5, 1.5]), np.array([80, 80]))
    params = SolverParams(t_end=0.4, n_rec=41)
    sol = solve_master(m, penalized_slice(m, box, 0.1), params)
    pts = np.array([[0.5, 0.5], [-0.2, 0.8], [0.9, -0.3]])
    got = sol.field().eval(0.4, pts)
    want = (pts - m.x0) / 0.5
    assert float(np.max(np.abs(got - want))) <= 5e-2


def test_blowup_guard_reports_partial():
    m = baseline_model()
    with pytest.raises(BlowupError) as exc:
        solve_master(m, penalized_slice(m, box1d(n=50), 1e-15),
                     SolverParams(t_end=0.1, n_rec=11))
    assert exc.value.t_last == 0.0
    assert exc.value.partial is not None
    assert exc.value.partial.meta["aborted"]


def test_time_interpolation_is_linear_between_records(lq0_solution):
    field = lq0_solution.field()
    times = lq0_solution.times
    t0, t1 = times[40], times[41]
    mid = 0.5 * (t0 + t1)
    pts = np.array([[0.2], [1.1]])
    avg = 0.5 * (field.eval(t0, pts) + field.eval(t1, pts))
    assert np.allclose(field.eval(mid, pts), avg, atol=1e-12)


def test_node_jacobians_exact_on_linear():
    box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([6, 6]))
    A = np.array([[1.5, -0.5], [2.0, 0.25]])
    sl = Slice.from_fn(box, lambda x: x @ A.T)
    J = node_jacobians(sl)
    assert J.shape == (7, 7, 2, 2)
    assert np.allclose(J, A, atol=1e-12)


def test_solution_csv_round_trip(tmp_path, lq0_solution):
    path = tmp_path / "sol.csv"
    write_solution_csv(lq0_solution, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x_1,U_1"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    n_nodes = lq0_solution.box.shape[0]
    assert data.shape == (len(lq0_solution.times) * n_nodes, 3)
    # first block is the t=0 slice in node order
    assert np.allclose(data[:n_nodes, 2],
                       lq0_solution.values[0].reshape(-1), rtol=1e-10)


def _per_cell_csv(sol, path):
    """The per-cell f-string writer that write_solution_csv must match byte for byte."""
    d, dim = sol.d, sol.box.dim
    header = "t," + ",".join(f"x_{a+1}" for a in range(dim)) \
        + "," + ",".join(f"U_{i+1}" for i in range(d))
    nodes = sol.box.node_list()
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k, t in enumerate(sol.times):
            vals = sol.values[k].reshape(-1, d)
            for row in range(nodes.shape[0]):
                cells = [f"{t:.12g}"]
                cells += [f"{v:.12g}" for v in nodes[row]]
                cells += [f"{v:.12g}" for v in vals[row]]
                fh.write(",".join(cells) + "\n")


@pytest.mark.parametrize("dim, d", [(1, 1), (1, 2), (2, 2)])
def test_solution_csv_matches_per_cell_format(tmp_path, dim, d):
    special = np.array([-0.0, 5e-324, 1e-300, np.inf, -np.inf, np.nan,
                        123456789012345.0, 0.1 + 0.2, 1e16, -2.5])
    box = Box(np.full(dim, -0.3), np.full(dim, 1.0 / 3.0), np.full(dim, 4))
    times = np.array([0.0, 0.1 + 0.2, 1.0 / 3.0])
    n_vals = len(times) * int(np.prod(box.shape)) * d
    vals = np.resize(special, n_vals).reshape(len(times), *box.shape, d)
    sol = GridSolution(box=box, times=times, values=vals)
    write_solution_csv(sol, tmp_path / "bulk.csv")
    _per_cell_csv(sol, tmp_path / "cells.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_margin_validation():
    m = baseline_model()  # x0 = 0.5
    tight = Box(np.array([0.45]), np.array([2.0]), np.array([40]))
    with pytest.raises(ConfigError, match="margin"):
        solve_master(m, penalized_slice(m, tight, 0.1),
                     SolverParams(t_end=0.1, n_rec=11))
