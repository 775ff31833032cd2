"""Marcher, interpolation, residual and norm diagnostics.

Frozen constants derive from tests/oracles/derive_values.py (closed forms
cross-checked there by independent fine-step RK4 integration).
"""

import bisect
import dataclasses
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mfgplan import (AffineNoiseMap, BlowupError, Box, ConfigError, FieldSpec,
                     GridSolution, HalfspaceModel, ModelSpec, Slice, SolverParams,
                     eqV_residual, lipschitz_norm, node_jacobians, penalized_slice,
                     register_field, run_penalization, solve_master, transformed_model,
                     write_solution_csv)
from mfgplan import grid_solver
from mfgplan.cli import load_config
from mfgplan.grid_solver import InterpPlan, write_table
from mfgplan.model import _parse_field
from conftest import (assert_batch_matches_single_solves, assert_same_bits, baseline_model,
                      box1d, check_monotone_map, closed_form, digest12,
                      identity_noise, jump_model, perfbench_child, sample_solution,
                      slice_from_fn)

# slope of the jump model (lambda=1, S=0.5, eps=0.1) at t=0.5, from the
# logistic closed form kappa/((kappa/a0+1)e^{kappa t}-1) with kappa=0.75
JUMP_SLOPE_HALF = 1.329514328326566

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_box_geometry():
    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]), np.array([4, 8]))
    assert box.dim == 2
    assert np.allclose(box.dx, [0.5, 0.25])
    assert box.shape == (5, 9)
    assert box.nodes().shape == (5, 9, 2)
    assert box.node_list().shape == (45, 2)
    assert np.array_equal(box.lo, [-1.0, 0.0])
    assert np.array_equal(box.hi, [1.0, 2.0])
    # margin in cells to the nearest face
    assert box.margin_cells(np.array([0.0, 1.0])) == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        Box(np.array([1.0]), np.array([0.0]), np.array([4]))
    with pytest.raises(ConfigError):
        Box(np.array([0.0]), np.array([1.0]), np.array([0]))


def test_box_dx_is_read_only_and_its_layout_built_once(monkeypatch):
    # plans read the box's cached dx and layout: a write to dx would move
    # every later query, and a rebuilt layout would cost every query again
    builds = []
    build = grid_solver._interp_layout
    monkeypatch.setattr(grid_solver, "_interp_layout",
                        lambda *args: builds.append(args) or build(*args))
    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]), np.array([4, 8]))
    with pytest.raises(ValueError, match="read-only"):
        box.dx *= 2
    layout = box.layout
    strides, offsets, *_, cell_max = layout
    for arr in (box.dx, strides, offsets, cell_max):
        assert not arr.flags.writeable
    assert np.array_equal(box.dx, [0.5, 0.25])
    lin = lambda t, x: x @ np.array([[2.0, -1.0], [0.5, 3.0]]).T + t
    slc = slice_from_fn(box, lambda x: lin(0.0, x))
    field = sample_solution(box, [0.0, 0.5, 1.0], lin).field()
    pts = np.random.default_rng(0).uniform(-1.5, 2.5, size=(20, 2))
    for i, x in enumerate(pts):
        assert np.allclose(slc.eval(x), lin(0.0, x[None])[0], atol=1e-12)
        assert np.allclose(field.eval(i / 19, pts), lin(i / 19, pts), atol=1e-12)
    assert len(builds) == 1 and box.layout is layout


def test_box_and_solution_copy_the_callers_arrays():
    # a Box freezes its own lo/hi/n, not the caller's; a GridSolution keeps
    # its own read-only times, so a field's cached time bracket cannot go
    # stale, and no two members of a batch share them
    lo, hi, n = np.array([-1.0, 0.0]), np.array([1.0, 2.0]), np.array([4, 8])
    box = Box(lo, hi, n)
    for mine, its in ((lo, box.lo), (hi, box.hi), (n, box.n)):
        assert mine.flags.writeable and not its.flags.writeable
        mine[0] += 1
    assert box.lo.tolist() == [-1.0, 0.0] and box.hi.tolist() == [1.0, 2.0]
    assert box.n.tolist() == [4, 8]
    times = np.array([0.0, 0.5, 1.0])
    lin = lambda t, x: x @ np.array([[2.0, -1.0], [0.5, 3.0]]).T + t
    sol = sample_solution(box, times, lin)
    field = sol.field()
    want = field.eval(0.75, [0.3, 0.4])
    times[1] = 0.25
    assert times.flags.writeable and not sol.times.flags.writeable
    assert sol.times.tolist() == [0.0, 0.5, 1.0]
    assert field.eval(0.75, [0.3, 0.4]).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        sol.times[1] = 0.25
    m, box = baseline_model(), box1d(n=40)
    batch = solve_master(m, [penalized_slice(m, box, e) for e in (0.4, 0.2)],
                         SolverParams(t_end=0.2, n_rec=5))
    a, b = (s.times for s in batch.members)
    assert not np.shares_memory(a, b) and not a.flags.writeable


def _reference_plan(box, pts):
    """Corner indices and weights of each point, axis by axis in Python floats."""
    dim, lo, n = box.dim, box.lo.tolist(), box.n.tolist()
    dx = [(h - l) / k for l, h, k in zip(lo, box.hi.tolist(), n)]
    stride = [int(np.prod([k + 1 for k in n[a + 1:]])) for a in range(dim)]
    idx = np.empty((2 ** dim, len(pts)), dtype=np.int64)
    wts = np.empty((2 ** dim, len(pts)))
    for i, x in enumerate(pts.tolist()):
        w = [(x[a] - lo[a]) / dx[a] for a in range(dim)]
        cell = [float(min(max(math.floor(w[a]), 0), n[a] - 1)) for a in range(dim)]
        frac = [w[a] - cell[a] for a in range(dim)]
        for c in range(2 ** dim):  # corner c has bit dim-1-a set when high on axis a
            high = [(c >> (dim - 1 - a)) & 1 for a in range(dim)]
            idx[c, i] = sum((int(cell[a]) + high[a]) * stride[a] for a in range(dim))
            prod = frac[0] if high[0] else 1.0 - frac[0]
            for a in range(1, dim):
                prod *= frac[a] if high[a] else 1.0 - frac[a]
            wts[c, i] = prod
    return idx, wts


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_interp_plan_bits_match_a_per_axis_reference(dim):
    # points on the top face (the cell clamps to n - 1), 1e12 off the box and
    # -0.0 on an axis starting at 0 (the weight keeps its sign) included
    rng = np.random.default_rng(30 + dim)
    box = Box(np.array([0.0, -1.0, 0.5])[:dim], np.array([1.0, 2.0, 1.75])[:dim],
              np.array([5, 7, 3])[:dim])
    pts = rng.uniform(-1.5, 2.5, size=(60, dim))
    top = rng.uniform(box.lo, box.hi, size=(3 * dim, dim))
    for a in range(dim):
        top[3 * a:3 * a + 3, a] = box.hi[a]
    far = np.array([1e12, -1e12, 1e12])[:dim] * np.array([[1.0], [-1.0]])
    zeros = np.tile(box.lo, (4, 1))
    zeros[:, 0] = -0.0
    zeros[1:, 1:] = rng.uniform(box.lo[1:], box.hi[1:], size=(3, dim - 1))
    pts = np.concatenate([pts, top, far, zeros, box.lo[None], box.hi[None]])
    plan = InterpPlan(box, pts)
    want_idx, want_wts = _reference_plan(box, pts)
    assert plan.idx.dtype == np.int64 and plan.idx.tobytes() == want_idx.tobytes()
    assert plan.wts.tobytes() == want_wts.tobytes()
    assert np.array_equal(np.signbit(plan.wts), np.signbit(want_wts))
    assert np.signbit(plan.wts[-1, -6:-2]).all()  # the zeros rows: -0.0 on the high side of axis 0


def test_interp_exact_on_linear_including_extrapolation():
    box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([5, 5]))
    A = np.array([[2.0, -1.0], [0.5, 3.0]])
    lin = lambda x: x @ A.T + np.array([0.3, -0.7])
    sl = slice_from_fn(box, lin)
    inside = np.array([[0.31, 0.77], [0.5, 0.5]])
    outside = np.array([[-0.4, 0.5], [1.3, 1.9]])  # linear extension applies
    for pts in (inside, outside):
        assert np.allclose(sl.eval(pts), lin(pts), atol=1e-12)
    single = sl.eval(np.array([0.25, 0.5]))
    assert single.shape == (2,)
    assert np.allclose(single, lin(np.array([[0.25, 0.5]]))[0], atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_interp_apply_matches_einsum_gather(dim):
    # the package's fields have d = dim components; signed zeros included
    rng = np.random.default_rng(dim)
    box = Box(np.full(dim, -1.0), np.full(dim, 2.0), np.full(dim, 6))
    vals = rng.normal(size=box.shape + (dim,)) * 10.0 ** rng.integers(-6, 6, box.shape + (dim,))
    vals.reshape(-1)[::5] = -0.0
    plan = InterpPlan(box, rng.uniform(-1.5, 2.5, size=(300, dim)))
    want = np.einsum("cn,cnd->nd", plan.wts, vals.reshape(-1, dim)[plan.idx])
    got = plan.apply(vals)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # per-value weights (widen) give the same bytes, for d = 1 and d = dim, with
    # a leading member axis, into given buffers as the march does, and at
    # points far off the box
    pts = np.concatenate([rng.uniform(-1.5, 2.5, size=(300, dim)),
                          rng.uniform(-1e6, 1e6, size=(20, dim)), np.full((1, dim), -1e12)])
    for d in sorted({1, dim}):
        members = rng.normal(size=(3,) + box.shape + (d,)) \
            * 10.0 ** rng.integers(-6, 6, (3,) + box.shape + (d,))
        members.reshape(-1)[::5] = -0.0
        members[1] = -0.0
        plain = InterpPlan(box, pts)
        want = plain.apply(members)
        wide = InterpPlan(box, pts).widen(d)
        out, tmp = np.full(want.shape, np.nan), np.empty(want.shape)
        for got in (wide.apply(members), wide.apply(members, out=out, tmp=tmp)):
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(np.signbit(got), np.signbit(want))
        for e in range(3):
            assert wide.apply(members[e]).tobytes() == want[e].tobytes()
        # a widened plan refuses values with another d instead of broadcasting
        with pytest.raises(ValueError, match="widened"):
            wide.apply(np.zeros(box.shape + (d + 1,)))
        if d > 1:
            with pytest.raises(ValueError, match="widened"):
                wide.apply(members[..., :1])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_interp_apply_both_gather_branches_match_a_per_corner_sum(dim):
    # on a 1-D or 2-D box a gather of at most ONE_TAKE_MAX values takes every
    # corner at once and reduces; a larger one, or any 3-D one, takes a corner
    # at a time. Both must equal the per-corner sum from +0.0 byte for byte:
    # an all -0.0 block is +0.0, not the -0.0 a sum from the first term gives
    rng = np.random.default_rng(dim)
    box = Box(np.full(dim, -1.0), np.full(dim, 2.0), np.full(dim, 4))
    for d in (1, 2, 3):
        values = rng.normal(size=(3,) + box.shape + (d,)) \
            * 10.0 ** rng.integers(-6, 6, size=(3,) + box.shape + (d,))
        values.reshape(-1)[::3] = -0.0
        values[1] = -0.0
        for lead in ((), (2,), (3,)):
            vals = values[0] if lead == () else values[:lead[0]]
            fit = grid_solver.ONE_TAKE_MAX // (math.prod(lead) * 2 ** dim * d)
            # one point at a time too: with no other axis, the reduce runs
            # along the corners alone, where 8 of them would be summed pairwise
            nodes = box.node_list()
            for N in (1,) * 12 + (fit, fit + 1):
                pts = rng.uniform(-2.0, 3.0, size=(N, dim))
                pts[1::4] = nodes[rng.integers(0, len(nodes), size=len(pts[1::4]))]
                pts[2::5] = -0.0
                pts[3::7] = 1e12 * np.sign(rng.normal(size=(dim,)))
                for plan in (InterpPlan(box, pts), InterpPlan(box, pts).widen(d)):
                    flat = vals.reshape(lead + (-1, d))
                    want = np.empty(lead + (N, d))
                    want.fill(0.0)
                    for idx, wts in zip(plan.idx, plan.value_wts):
                        want += flat[..., idx, :] * wts
                    out, tmp = np.full(want.shape, np.nan), np.empty(want.shape)
                    got = plan.apply(vals, out=out, tmp=tmp)
                    assert got is out and got.tobytes() == want.tobytes()
                    assert plan.apply(vals).tobytes() == want.tobytes()
                    assert (want.size * 2 ** dim <= grid_solver.ONE_TAKE_MAX) == (N <= fit)


def test_interp_apply_scalar_field_on_2d_box():
    # d = 1 on a 2-D box, where einsum sums in another order: the reference is
    # a point-major loop over the corners, signed zeros included
    rng = np.random.default_rng(7)
    box = Box(np.full(2, -1.0), np.full(2, 2.0), np.full(2, 6))
    vals = rng.normal(size=box.shape + (1,)) * 10.0 ** rng.integers(-6, 6, box.shape + (1,))
    vals.reshape(-1)[::5] = -0.0
    plan = InterpPlan(box, rng.uniform(-1.5, 2.5, size=(300, 2)))
    idx, wts, flat = plan.idx.T.copy(), plan.wts.T.copy(), vals.reshape(-1, 1)
    want = np.zeros((300, 1))
    for c in range(idx.shape[1]):
        want += wts[:, c:c + 1] * flat[idx[:, c]]
    got = plan.apply(vals)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_interp_indices_stay_on_the_grid_far_outside(dim):
    # apply reads the corners without a bounds check, so the plan must clamp
    # every cell; points off the box extrapolate linearly off the edge cell
    rng = np.random.default_rng(dim)
    box = Box(np.full(dim, -1.0), np.full(dim, 2.0), np.full(dim, 5))
    near = rng.uniform(-100.0, 100.0, size=(200, dim))
    pts = np.concatenate([near, rng.uniform(-1e6, 1e6, size=(50, dim)),
                          np.full((1, dim), -1e12), np.full((1, dim), 1e12)])
    plan = InterpPlan(box, pts)
    assert plan.idx.shape == plan.wts.shape == (2 ** dim, len(pts))
    assert plan.idx.min() >= 0 and plan.idx.max() < np.prod(box.shape)
    A = rng.normal(size=(dim, dim))
    lin = lambda x: x @ A.T + 0.25
    got = plan.apply(slice_from_fn(box, lin).values)
    assert np.all(np.isfinite(got))
    assert np.allclose(got[:len(near)], lin(near), rtol=1e-9, atol=1e-9)


def test_solver_params_validation():
    with pytest.raises(ConfigError, match="cfl"):
        SolverParams(cfl=0.0)
    with pytest.raises(ConfigError, match="cfl"):
        SolverParams(cfl=1.5)
    with pytest.raises(ConfigError, match="t_end"):
        SolverParams(t_end=0.0)
    with pytest.raises(ConfigError, match="n_rec"):
        SolverParams(n_rec=1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_nonfinite_solver_and_box_numbers_are_config_errors(value):
    # nan passes every comparison the checks make, a nan or infinite t_end lands
    # no record (the march never ends), and a nan dt_max drops the step cap:
    # each is refused before any solve
    for key in ("t_end", "dt_max"):
        with pytest.raises(ConfigError, match=rf"^solver\.{key} must be finite"):
            SolverParams(**{key: value})
    for lo, hi in (([value, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, value])):
        with pytest.raises(ConfigError, match="^box lo and hi must be finite"):
            Box(np.array(lo), np.array(hi), np.array([4, 4]))


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
                   noise=identity_noise(1), x0=m0.x0, alpha=1.0,
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
                  noise=identity_noise(1), x0=np.zeros(1), alpha=0.0,
                  lip_Gx=1.0)
    box = box1d(n=50)
    u0 = slice_from_fn(box, lambda x: 0.5 * x)
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
        res[n] = float(np.max(eqV_residual(m, sol, 0.0, 0.25).values))
    assert res[200] <= 0.1
    assert res[200] / res[400] >= 1.5


def test_residual_of_numeric_solution_refines(lq0_solution):
    m = baseline_model()
    params = SolverParams(t_end=1.0, n_rec=101)
    coarse = solve_master(m, penalized_slice(m, box1d(n=200), 0.1), params)
    r_fine = float(np.max(eqV_residual(m, lq0_solution, 0.0, 0.5).values))
    r_coarse = float(np.max(eqV_residual(m, coarse, 0.0, 0.5).values))
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


def test_two_dimensional_solve():
    m = baseline_model(d=2, x0=[0.3, 0.1])
    box = Box(np.array([-1.0, -1.0]), np.array([1.5, 1.5]), np.array([80, 80]))
    params = SolverParams(t_end=0.4, n_rec=41)
    sol = solve_master(m, penalized_slice(m, box, 0.1), params)
    pts = np.array([[0.5, 0.5], [-0.2, 0.8], [0.9, -0.3]])
    got = sol.field().eval(0.4, pts)
    want = (pts - m.x0) / 0.5
    assert float(np.max(np.abs(got - want))) <= 5e-2


# sha256 of the marched values at 12 significant digits (conftest.digest12)
MARCH_2D_SHA256 = "b6c88fa5e0a41557556a542d1a60a5a65995553e4e23a78fbfd181e7a16e8fac"
MARCH_3D_SHA256 = "12fa95148fce7ab457ad80586328252b592eef14d5d0a016e57a45a746ad94ac"


def march_2d_model():
    """Non-diagonal Mp and S, e != 0, nonzero c (one entry -0.0), lambda > 0."""
    return ModelSpec(d=2, F=FieldSpec.affine(np.array([[0.2, 0.0], [0.1, 0.1]]),
                                             np.array([[1.0, 0.3], [-0.2, 0.8]]),
                                             c=np.array([0.05, -0.1])),
                     G=FieldSpec.affine(np.array([[1.0, 0.2], [0.2, 1.0]]), 0.1,
                                        c=np.array([0.02, -0.0]), d=2),
                     lam=1.5, noise=AffineNoiseMap(np.array([[0.5, 0.1], [-0.1, 0.6]]),
                                                   np.array([0.05, -0.02])),
                     x0=np.array([0.5, 0.5]))


def march_3d_model():
    return ModelSpec(d=3, F=FieldSpec.affine(0.0, np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.1],
                                                            [0.1, 0.0, 1.0]]),
                                             c=np.array([0.01, -0.02, 0.03])),
                     G=FieldSpec.affine(1.0, 0.0, d=3), lam=1.0,
                     noise=AffineNoiseMap(np.array([[0.5, 0.1, 0.0], [0.0, 0.6, -0.1],
                                                    [0.1, 0.0, 0.4]]), np.array([0.1, 0.0, -0.1])),
                     x0=np.zeros(3))


def test_march_2d_jump_bits_pinned():
    # the bound affine fields, the 2-axis speed sum, the upwind pick and the
    # 4-corner gather
    m = march_2d_model()
    box = Box(np.full(2, -1.0), np.full(2, 2.0), np.full(2, 40))
    sol = solve_master(m, penalized_slice(m, box, 0.2), SolverParams(t_end=0.3, n_rec=4))
    assert sol.meta["steps"] == 50
    assert digest12(sol.values) == MARCH_2D_SHA256


def test_march_3d_jump_bits_pinned():
    # the 8-corner gather and the 3-axis speed sum; n = 20 is the smallest
    # grid that keeps the target TARGET_MARGIN_CELLS from every face
    m = march_3d_model()
    box = Box(np.full(3, -1.0), np.full(3, 1.0), np.full(3, 20))
    sol = solve_master(m, penalized_slice(m, box, 0.25), SolverParams(t_end=0.1, n_rec=3))
    assert sol.meta["steps"] == 16
    assert digest12(sol.values) == MARCH_3D_SHA256


# sha256 of the raw bytes of marched values, signs of zeros included, which
# digest12 cannot see. Computed before the affine short forms and the scalar
# jump existed, with every F and G evaluated densely and every jump by matmul,
# so they pin that both leave every bit of a march unchanged.
RAW_2D_SCALAR_JUMP = "259b4e87d73ea2c10ae26f51ec29570cc7533b91fb3fa53964263b5cfd67fb81"
RAW_LQ0_SMALLEST = "a08feac17994b01ded0869065cf501ee7bf75dd19dd1ee389796869f1883347f"
RAW_LQ0_GAPS = "e3e0aa7b9106fb8bc64b942fc69a1584a6694d584d7df19e86aa6e760562a3c9"
RAW_2D_ZEROS = "0eff4f0986617795a0d824bac00cdd9bef9621ee4cf8079572781dc4de2dbb14"


def raw_sha256(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def scalar_jump_model(s, x0):
    """F = p (identity form), G = x (p-free form), jumps at rate 1 by x -> s x."""
    return ModelSpec(d=2, F=FieldSpec.affine(0.0, 1.0, d=2), G=FieldSpec.affine(1.0, 0.0, d=2),
                     lam=1.0, noise=AffineNoiseMap(s * np.eye(2), np.zeros(2)),
                     x0=np.asarray(x0, dtype=float))


def test_march_scalar_jump_raw_bits_pinned():
    m = scalar_jump_model(0.5, (0.5, 0.5))
    assert (m.F.form, m.G.form, m.noise.scale) == ("identity", "p-free", 0.5)
    box = Box(np.full(2, -1.0), np.full(2, 2.0), np.full(2, 40))
    sol = solve_master(m, penalized_slice(m, box, 0.2), SolverParams(t_end=0.3, n_rec=4))
    assert sol.meta["steps"] == 49
    assert raw_sha256(sol.values) == RAW_2D_SCALAR_JUMP


def test_march_exact_zeros_raw_bits_pinned():
    # S = -I and x0 = 0 on a node: U stays odd, so its axes hold exact zeros,
    # where a -0.0 from the jump's multiply would show if it reached U
    m = scalar_jump_model(-1.0, (0.0, 0.0))
    box = Box(np.full(2, -1.0), np.full(2, 1.0), np.full(2, 40))
    sol = solve_master(m, penalized_slice(m, box, 0.2), SolverParams(t_end=0.3, n_rec=6))
    assert sol.meta["steps"] == 54
    assert int(np.count_nonzero(sol.values == 0.0)) == 492
    assert not np.signbit(sol.values[sol.values == 0.0]).any()
    assert raw_sha256(sol.values) == RAW_2D_ZEROS


def test_lq0_continuation_raw_bits_pinned():
    cfg = load_config(CONFIGS / "lq0.cfg")
    assert (cfg.model.F.form, cfg.model.G.form) == ("identity", "p-free")
    run = run_penalization(cfg.model, cfg.box, cfg.eps_schedule, cfg.params, t_min=cfg.t_min,
                           conv_tol=cfg.conv_tol)
    assert sum(meta["steps"] for meta in run.metas) == 8246
    assert raw_sha256(run.smallest_eps_solution.values) == RAW_LQ0_SMALLEST
    assert raw_sha256(run.gaps) == RAW_LQ0_GAPS


# eps out of order, so that members short of a record are not always the last ones
BATCH_CASES = {
    "1d-baseline": (baseline_model(), box1d(n=200), (0.1, 0.4, 0.00625, 0.025),
                    SolverParams(t_end=0.5, n_rec=26)),
    "1d-jump": (jump_model(lam=1.0, S=0.5), box1d(n=150), (0.4, 0.2, 0.05, 0.1),
                SolverParams(t_end=0.4, n_rec=21)),
    "2d-jump": (march_2d_model(), Box(np.full(2, -1.0), np.full(2, 2.0), np.full(2, 40)),
                (0.2, 0.05, 0.1), SolverParams(t_end=0.3, n_rec=7)),
    "3d-jump": (march_3d_model(), Box(np.full(3, -1.0), np.full(3, 1.0), np.full(3, 20)),
                (0.5, 0.25), SolverParams(t_end=0.1, n_rec=3)),
    "2d-scalar-jump": (scalar_jump_model(-1.0, (0.0, 0.0)),
                       Box(np.full(2, -1.0), np.full(2, 1.0), np.full(2, 40)),
                       (0.2, 0.05, 0.1), SolverParams(t_end=0.3, n_rec=7)),
    # a registered F, evaluated every step, before and after each compaction
    "2d-registered": (ModelSpec(d=2, F=FieldSpec.registered("capped_x1_burgers"),
                                G=FieldSpec.affine(0.0, 0.0, d=2), lam=0.0,
                                noise=identity_noise(2), x0=np.array([0.5, 0.0])),
                      Box(np.array([0.0, -1.0]), np.array([2.0, 1.0]), np.array([40, 20])),
                      (0.2, 0.05, 0.1), SolverParams(t_end=0.3, n_rec=7)),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batch_matches_single_solves(case):
    assert_batch_matches_single_solves(*BATCH_CASES[case])


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_on_record_sees_every_record_once(case):
    # the hook sees each member's records in order as they land, bit for bit
    # those a keep-all batch keeps; the hooked batch keeps its last member's alone
    m, box, eps, params = BATCH_CASES[case]
    slices = [penalized_slice(m, box, e) for e in eps]
    keep_all = solve_master(m, slices, params)
    seen = {}

    def on_record(e, k, row):
        assert (e, k) not in seen
        seen[e, k] = row.copy()

    batch = solve_master(m, slices, params, on_record=on_record)
    for e in range(len(eps)):
        assert [k for f, k in seen if f == e] == list(range(params.n_rec))
    for (e, k), row in seen.items():
        assert row.tobytes() == keep_all.values[e, k].tobytes()
    assert len(batch.members) == 1 and batch.values.shape == (1, *keep_all.values.shape[1:])
    assert_same_bits(batch.members[0], keep_all.members[-1])
    assert batch.metas == [s.meta for s in keep_all.members] == keep_all.metas
    assert batch.meta == keep_all.meta and batch.failure is None


def test_jump_plan_widened_once_per_solve(monkeypatch):
    # one plan and one widen per λ > 0 solve, whatever its step count; none
    # for λ = 0; queries build their plans but never widen them, and a field
    # query of few points builds none
    calls = {"init": 0, "widen": 0}
    init, widen = InterpPlan.__init__, InterpPlan.widen

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(InterpPlan, "__init__", counted("init", init))
    monkeypatch.setattr(InterpPlan, "widen", counted("widen", widen))

    def count(fn, *args):
        calls.update(init=0, widen=0)
        result = fn(*args)
        return result, dict(calls)

    m, box, eps, _ = BATCH_CASES["2d-jump"]
    slices = [penalized_slice(m, box, e) for e in eps]
    steps = set()
    for t_end in (0.1, 0.3):
        batch, n = count(solve_master, m, slices, SolverParams(t_end=t_end, n_rec=3))
        assert batch.failure is None and len(batch.members) == 3
        assert n == {"init": 1, "widen": 1}
        steps.add(batch.meta["steps"])
    assert len(steps) == 2
    m0, box0, eps0, params0 = BATCH_CASES["1d-baseline"]
    batch, n = count(solve_master, m0, [penalized_slice(m0, box0, e) for e in eps0], params0)
    assert batch.meta["steps"] > 0 and n == {"init": 0, "widen": 0}
    sol = batch.members[0]
    pts = np.linspace(0.1, 5.0, grid_solver.FEW_POINTS + 1).reshape(-1, 1)
    for query in (sol.field().eval, lambda t, x: sol.slice_at(t).eval(x)):
        _, n = count(query, 0.5, pts)
        assert n == {"init": 1, "widen": 0}
    # a field query of at most FEW_POINTS points builds no plan
    _, n = count(sol.field().eval, 0.5, pts[:-1])
    assert n == {"init": 0, "widen": 0}


def test_p_free_source_evaluated_once_per_solve(monkeypatch):
    # a p-free G is one constant on the nodes, evaluated when the march starts
    # whatever its step count; F = p is read in place, never evaluated; any
    # other F (dense or registered), and a G that reads p, every iteration
    calls = {}
    eval_field = grid_solver.eval_field

    def counted(f, x, p):
        calls[f] = calls.get(f, 0) + 1
        return eval_field(f, x, p)

    monkeypatch.setattr(grid_solver, "eval_field", counted)
    cases = [(*BATCH_CASES[case], F_each, G_each) for case, F_each, G_each in (
        ("3d-jump", True, False), ("2d-scalar-jump", False, False),
        ("2d-jump", True, True), ("2d-registered", True, False))]
    # the benchmark's models (lq0.cfg's, halfspace.cfg's straightened one, and the
    # 2-D coupled model with and without jumps) evaluate no field per step
    lq0 = load_config(CONFIGS / "lq0.cfg")
    hs = load_config(CONFIGS / "halfspace.cfg")
    straightened = transformed_model(HalfspaceModel(
        base=hs.model, ftilde=_parse_field(hs.cp["halfspace"], "ftilde", hs.model.d)))
    coupled = perfbench_child().coupled_model
    square = Box(np.full(2, -1.0), np.full(2, 2.0), np.full(2, 20))
    short = SolverParams(t_end=0.1, n_rec=3)
    cases += [(m, box, eps, short, False, False) for m, box, eps in (
        (lq0.model, lq0.box, lq0.eps_schedule[:3]), (straightened, hs.box, hs.eps_schedule),
        (coupled((0.5, 0.5), lam=1.0, S=0.5), square, (0.2, 0.1)),
        (coupled((0.5, 0.5), lam=0.0, S=1.0), square, (0.2, 0.1)))]
    for m, box, eps, params, F_each, G_each in cases:
        calls.clear()
        batch = solve_master(m, [penalized_slice(m, box, e) for e in eps], params)
        iterations = max(meta["steps"] for meta in batch.metas)
        assert batch.failure is None and iterations > 1
        assert calls.get(m.F, 0) == (iterations if F_each else 0)
        assert calls[m.G] == (iterations if G_each else 1)


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_identity_drift_read_in_place_keeps_the_bits(case):
    # F = p is read as U itself, which differs from p + 0.0 only in the sign of
    # a zero; the same F with c = -0.0 stays dense and is evaluated every step.
    # The initial slices hold -0.0 entries and exact zeros, so both signs reach F
    m, box, eps, params = BATCH_CASES[case]
    runs = []
    for form, c in (("identity", 0.0), ("dense", -0.0)):
        F = FieldSpec.affine(0.0, 1.0, c=c, d=m.d)
        assert F.form == form
        slices = []
        for e in eps:
            values = penalized_slice(m, box, e).values.copy()
            values.reshape(-1)[::5], values.reshape(-1)[2::7] = -0.0, 0.0
            slices.append(Slice(box, values))
        runs.append(solve_master(dataclasses.replace(m, F=F), slices, params))
    got, want = runs
    assert got.failure is None and want.failure is None
    assert np.signbit(got.values[got.values == 0.0]).any()
    assert got.values.tobytes() == want.values.tobytes()
    assert got.metas == want.metas and got.meta == want.meta


def test_step_views_built_once_per_compaction(monkeypatch):
    # the step's views are built when the march starts and again each time
    # members leave, whatever the step count; 1d-baseline's members leave one
    # at a time, each at its own step
    builds = []
    step_views = grid_solver._step_views

    def counted(ws, U):
        builds.append(len(U))
        return step_views(ws, U)

    monkeypatch.setattr(grid_solver, "_step_views", counted)
    m, box, eps, _ = BATCH_CASES["1d-baseline"]
    slices = [penalized_slice(m, box, e) for e in eps]
    steps = set()
    for t_end, n_rec in ((0.25, 14), (0.5, 26)):
        builds.clear()
        batch = solve_master(m, slices, SolverParams(t_end=t_end, n_rec=n_rec))
        assert batch.failure is None
        compactions = len({s.meta["steps"] for s in batch.members})
        assert len(builds) == 1 + compactions
        assert builds == list(range(len(eps), -1, -1))
        steps.add(batch.meta["steps"])
    assert len(steps) == 2


def test_operator_built_once_per_solve(monkeypatch):
    # L binds F and G, evaluates a p-free G and plans the jump gather when the
    # march starts, whatever its step and compaction count
    builds = []
    operator = grid_solver._operator
    monkeypatch.setattr(grid_solver, "_operator",
                        lambda *args: builds.append(args) or operator(*args))
    for case in ("1d-baseline", "2d-jump", "2d-registered"):
        m, box, eps, params = BATCH_CASES[case]
        slices = [penalized_slice(m, box, e) for e in eps]
        for u0 in (slices, slices[0]):
            builds.clear()
            sol = solve_master(m, u0, params)
            assert sol.meta["steps"] > params.n_rec
            assert len(builds) == 1


# The step's operator L applied to a smooth non-affine U* without marching,
# against the exact (F(x, U*) . grad) U* - G(x, U*) + lam (U* - S^T U*(S x + e)).
# Every part of L is exact on a field affine in x; on U* the upwind
# differences and the face ghosts are first order, and the jump gather is second
# order while S x + e stays inside the box. The 2-D case (F = p) misses by
# 0.0500 / 0.0556 (interior / all nodes) at n = 40 and by 0.0265 / 0.0280 at
# n = 80.

def _manufactured(x):
    """U*(x) and its Jacobian J[..., i, a] = dU*_i/dx_a, for dim 1 to 3."""
    x1 = x[..., 0]
    if x.shape[-1] == 1:
        U, J = [np.sin(x1) + 0.3 * x1 ** 2], [[np.cos(x1) + 0.6 * x1]]
    elif x.shape[-1] == 2:
        x2 = x[..., 1]
        U = [np.sin(x1) + 0.3 * x2 ** 2, x1 * x2]
        J = [[np.cos(x1), 0.6 * x2], [x2, x1]]
    else:
        x2, x3 = x[..., 1], x[..., 2]
        z = np.zeros_like(x1)
        U = [np.sin(x1) + 0.3 * x2 ** 2, x1 * x3, np.cos(x3) + 0.2 * x2 * x3]
        J = [[np.cos(x1), 0.6 * x2, z], [x3, z, x1], [z, 0.2 * x3, 0.2 * x2 - np.sin(x3)]]
    return np.stack(U, -1), np.stack([np.stack(row, -1) for row in J], -2)


def _operator_model(F, lam, S, e):
    """A model with drift F, a dense G with Gp != 0, and jumps at rate lam to S x + e."""
    d = len(e)
    rng = np.random.default_rng(d)
    G = FieldSpec.affine(rng.uniform(-1, 1, (d, d)), rng.uniform(-1, 1, (d, d)),
                         c=rng.uniform(-1, 1, d), d=d)
    assert G.form == "dense"
    return ModelSpec(d=d, F=F, G=G, lam=lam, noise=AffineNoiseMap(np.array(S, float), e),
                     x0=np.full(d, 0.5))


def _apply_operator(m, n):
    """L(U*) and the CFL rate from _operator on [-1, 2]^d with n cells per axis, and the box."""
    box = Box(np.full(m.d, -1.0), np.full(m.d, 2.0), np.full(m.d, n))
    U = _manufactured(box.nodes())[0][None]
    w = grid_solver._step_views(grid_solver._workspace(1, box.shape, m.d), U)
    rhs, rate = grid_solver._operator(m, box, m.d)(w)
    return rhs[0].copy(), rate, box


def _operator_errors(m, n):
    """Max |L(U*) - exact| over the interior nodes and over all nodes."""
    rhs, rate, box = _apply_operator(m, n)
    x = box.nodes()
    U, J = _manufactured(x)
    F = m.eval_F(x, U)
    assert rate.shape == (1,)
    assert rate[0] == pytest.approx(np.max(np.sum(np.abs(F) / box.dx, axis=-1)), rel=1e-15)
    exact = (np.einsum("...ia,...a->...i", J, F) - m.eval_G(x, U)
             + m.lam * (U - _manufactured(m.noise(x))[0] @ m.noise.S))
    err = np.abs(rhs - exact).max(axis=-1)
    return err[(slice(1, -1),) * m.d].max(), err.max()


S_2D = [[0.5, 0.1], [-0.1, 0.5]]
# (F, lam, S, e, the two cell counts compared): S x + e inside the box in each
OPERATOR_CASES = {
    "1d-jump": (FieldSpec.affine(0.3, 1.0, c=0.1, d=1), 1.5, [[0.6]], [0.2], (40, 80)),
    "2d-jump": (FieldSpec.affine(0.0, 1.0, d=2), 2.0, S_2D, [0.1, -0.05], (40, 80)),
    "3d-jump": (FieldSpec.affine([[0.1, 0.0, 0.05], [0.0, -0.1, 0.0], [0.05, 0.0, 0.1]],
                                 [[1.0, 0.1, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 1.0]], d=3),
                1.0, [[0.5, 0.1, 0.0], [-0.1, 0.4, 0.1], [0.0, 0.1, 0.5]], [0.1, -0.05, 0.05],
                (20, 40)),
    "2d-registered": (FieldSpec.registered("capped_x1_burgers"), 2.0, S_2D, [0.1, -0.05],
                      (40, 80)),
}


@pytest.mark.parametrize("case", sorted(OPERATOR_CASES))
def test_operator_is_first_order_on_a_smooth_field(case):
    F, lam, S, e, (n, n2) = OPERATOR_CASES[case]
    m = _operator_model(F, lam, S, np.array(e))
    box = Box(np.full(m.d, -1.0), np.full(m.d, 2.0), np.full(m.d, n))
    y = m.noise(box.nodes())
    assert np.all((y >= box.lo) & (y <= box.hi))
    (inner, whole), (inner2, whole2) = _operator_errors(m, n), _operator_errors(m, n2)
    assert inner / inner2 >= 1.8 and whole / whole2 >= 1.9
    if case == "2d-jump":
        assert (round(inner, 4), round(whole, 4), round(inner2, 4), round(whole2, 4)) == \
            (0.0500, 0.0556, 0.0265, 0.0280)


def test_operator_jump_off_the_box_reads_the_clamped_extrapolation():
    # relabeled points off the box read U through the clamped linear
    # extrapolation, a boundary rule that does not converge to U*(S x + e): the
    # all-node miss of L(U*) stays at 0.90, 0.80, 0.76 and 0.73 for n = 20 to
    # 160. What L adds for the jump is lam (U - S^T Slice(box, U).eval(S x + e))
    S = np.array([[1.2, 0.1], [-0.1, 1.1]])
    m = _operator_model(FieldSpec.affine(0.0, 1.0, d=2), 2.0, S, np.array([0.3, -0.2]))
    no_jump = dataclasses.replace(m, lam=0.0)
    for n in (20, 40):
        rhs, _, box = _apply_operator(m, n)
        y = m.noise(box.nodes())
        assert not np.all((y >= box.lo) & (y <= box.hi))
        U = _manufactured(box.nodes())[0]
        jump = m.lam * (U - Slice(box, U).eval(y) @ S)
        np.testing.assert_allclose(rhs - _apply_operator(no_jump, n)[0], jump,
                                   rtol=0.0, atol=1e-14 * np.abs(rhs).max())


def test_solve_refuses_a_jump_off_the_box(monkeypatch):
    # the same relabeling in a solve is refused before the operator is built,
    # naming how many nodes leave the box and how many cells past a face the
    # farthest lands; without the jump the box is fine
    S, e = np.array([[1.2, 0.1], [-0.1, 1.1]]), np.array([0.3, -0.2])
    m = _operator_model(FieldSpec.affine(0.0, 1.0, d=2), 2.0, S, e)
    box = Box(np.full(2, -1.0), np.full(2, 2.0), np.full(2, 40))
    y = box.node_list() @ S.T + e
    below, above = (box.lo - y) / box.dx, (y - box.hi) / box.dx
    off = ((below > 0) | (above > 0)).any(axis=1)
    far = max(below.max(), above.max())
    assert 0 < off.sum() < len(off) and far > 1
    u0, params = penalized_slice(m, box, 0.1), SolverParams(t_end=0.05, n_rec=3)

    def no_operator(*args):
        raise AssertionError("built the operator of a refused solve")

    with monkeypatch.context() as patch:
        patch.setattr(grid_solver, "_operator", no_operator)
        for start in (u0, [u0, u0]):
            with pytest.raises(ConfigError, match=(
                    f"relabels {off.sum()} of {len(off)} nodes off the box, "
                    f"up to {far:.3g} cells past a face")):
                solve_master(m, start, params)
    assert solve_master(dataclasses.replace(m, lam=0.0), u0, params).meta["steps"] > 0


@register_field("mixed_drift")
def _mixed_drift(x, p):
    # F_a = (1 - 0.75 a) p_(a mod d): both signs, and both signs of zero, on every axis
    d = p.shape[-1]
    return np.stack([(1.0 - 0.75 * a) * p[..., a % d] for a in range(x.shape[-1])], -1)


def _small_box_members(rng, shape, d):
    """Members on shape's nodes: random; flat at every face (U[0] = U[1] and
    U[-1] = U[-2] along each axis); all +-0.0; and random with half its values +-0.0."""
    U = rng.uniform(-1.0, 1.0, shape + (d,))
    flat = U.copy()
    for ax in range(len(shape)):
        flat[(slice(None),) * ax + (0,)] = flat[(slice(None),) * ax + (1,)]
        flat[(slice(None),) * ax + (-1,)] = flat[(slice(None),) * ax + (-2,)]
    zeros = np.where(rng.random(U.shape) < 0.5, -0.0, 0.0)
    return np.stack([U, flat, zeros, np.where(rng.random(U.shape) < 0.5, zeros, U)])


def _reference_operator(U, F, dx):
    """rhs and rate by the README's formulas, axis by axis: D[0] = U[0] - (2 U[0] - U[1]),
    D[i] = U[i] - U[i-1] and D[n] = (2 U[n-1] - U[n-2]) - U[n-1], each over dx; a node
    takes its backward difference D[i] where F_a > 0 and its forward one D[i+1] elsewhere."""
    rhs = np.zeros(U.shape)
    for a in range(len(dx)):
        u, Fa = np.moveaxis(U, a + 1, 0), np.moveaxis(F[..., a], a + 1, 0)[..., None]
        lo, hi = u[0] - (2.0 * u[0] - u[1]), (2.0 * u[-1] - u[-2]) - u[-1]
        D = np.concatenate([lo[None], u[1:] - u[:-1], hi[None]]) / dx[a]
        rhs += np.moveaxis(np.where(Fa > 0, D[:-1], D[1:]) * Fa, 0, a + 1)
    speed = sum(np.abs(F[..., a]) / dx[a] for a in range(len(dx)))
    return rhs, speed.reshape(len(U), -1).max(axis=1)


@pytest.mark.parametrize("dim, d", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3)])
def test_operator_bits_on_the_smallest_boxes(dim, d):
    # 2 to 5 cells per axis, where no march runs (TARGET_MARGIN_CELLS): with 2
    # cells both faces' ghosts read the same middle node. rhs and rate match
    # the reference byte for byte, signs of zeros included
    m = ModelSpec(d=dim, F=FieldSpec.registered("mixed_drift"),
                  G=FieldSpec.affine(0.0, 0.0, d=dim), lam=0.0, noise=identity_noise(dim),
                  x0=np.zeros(dim))
    rng = np.random.default_rng(10 * dim + d)
    sizes = [(k,) * dim for k in (2, 3, 4, 5)] + ([(2, 5, 3)[:dim]] if dim > 1 else [])
    for n in sizes:
        box = Box(np.full(dim, -1.0), (2.0, 1.5, 0.7)[:dim], n)
        U = _small_box_members(rng, box.shape, d)
        w = grid_solver._step_views(grid_solver._workspace(len(U) + 1, box.shape, d), U)
        L = grid_solver._operator(m, box, d)
        want_rhs, want_rate = _reference_operator(U, _mixed_drift(box.nodes(), U), box.dx)
        for _ in range(2):  # a second call reuses every buffer
            rhs, rate = L(w)
            assert rhs.tobytes() == want_rhs.tobytes(), n
            assert rate.tobytes() == want_rate.tobytes(), n


def test_batch_members_wait_on_every_record():
    # members step at different rates, each on its own clock, yet each lands
    # on every record time and takes its own serial step count
    m, box, eps, params = BATCH_CASES["1d-baseline"]
    batch = assert_batch_matches_single_solves(m, box, eps, params)
    steps = [s.meta["steps"] for s in batch.members]
    assert len(set(steps)) == len(steps)
    for s in batch.members:
        assert np.shares_memory(s.values, batch.values)


@register_field("nan_below")
def _nan_below(x, p):
    return np.where(p < -1.0, np.nan, 0.0)


def test_waiting_member_is_not_stepped():
    # F = -p and G = nan wherever p < -1. The constant member (U = 5) takes two
    # steps per record and the linear one a single step, so the two land on
    # the records at different iterations of the batch, also on the one where
    # the linear member's G turns nan; it must fail in its own next step, with
    # the records its own solve keeps, and the constant member run on
    m = ModelSpec(d=1, F=FieldSpec.affine(0.0, -1.0, d=1),
                  G=FieldSpec.registered("nan_below"), lam=0.0,
                  noise=identity_noise(1), x0=np.array([0.5]))
    box = box1d(n=60)
    params = SolverParams(t_end=0.3, n_rec=31)
    fast = Slice(box, np.full((61, 1), 5.0))
    slow = slice_from_fn(box, lambda x: 0.6 * (x - 0.5))
    batch = solve_master(m, [fast, slow], params)
    assert [s.meta["steps"] for s in batch.members] == [60]
    assert_same_bits(batch.members[0], solve_master(m, fast, params))
    with pytest.raises(BlowupError) as exc:
        solve_master(m, slow, params)
    assert 0 < exc.value.t_last < 0.3
    assert str(batch.failure) == str(exc.value)
    assert_same_bits(batch.failure.partial, exc.value.partial)
    assert np.all(np.isfinite(batch.failure.partial.values))


def test_batch_needs_one_box():
    m = baseline_model()
    params = SolverParams(t_end=0.1, n_rec=3)
    with pytest.raises(ConfigError, match="all on one box"):
        solve_master(m, [penalized_slice(m, box1d(n=50), 0.1),
                         penalized_slice(m, box1d(n=50), 0.2)], params)
    with pytest.raises(ConfigError, match="all on one box"):
        solve_master(m, [], params)


def test_blowup_guard_reports_partial():
    m = baseline_model()
    with pytest.raises(BlowupError) as exc:
        solve_master(m, penalized_slice(m, box1d(n=50), 1e-15),
                     SolverParams(t_end=0.1, n_rec=11))
    assert exc.value.t_last == 0.0
    assert exc.value.partial is not None
    assert exc.value.partial.meta["aborted"]
    assert exc.value.steps == 0
    assert exc.value.dt is None and exc.value.limit is None


def test_blowup_partial_counts_its_steps():
    # F = -p: the slope (x - x0)/(eps - t) blows up near t = eps
    m = ModelSpec(d=1, F=FieldSpec.affine(0.0, -1.0, d=1), G=FieldSpec.affine(0.0, 0.0, d=1),
                  lam=0.0, noise=identity_noise(1), x0=np.array([0.5]))
    box, params = box1d(n=60), SolverParams(t_end=0.3, n_rec=31)
    with pytest.raises(BlowupError) as exc:
        solve_master(m, penalized_slice(m, box, 0.1), params)
    err = exc.value
    assert err.steps > 0
    assert err.partial.meta["steps"] == err.steps
    batch = solve_master(m, [penalized_slice(m, box, e) for e in (0.8, 0.1)], params)
    assert batch.failure.partial.meta == err.partial.meta
    # eps 0.1 blows up first (t near 0.1), 0.2 later (t near 0.2): the later
    # failure of the larger eps replaces the earlier one and drops 0.1 with it
    with pytest.raises(BlowupError) as exc:
        solve_master(m, penalized_slice(m, box, 0.2), params)
    want = exc.value
    assert err.steps < want.steps and err.t_last < want.t_last
    batch = solve_master(m, [penalized_slice(m, box, e) for e in (0.5, 0.2, 0.1)], params)
    assert len(batch.members) == 1
    assert_same_bits(batch.members[0], solve_master(m, penalized_slice(m, box, 0.5), params))
    assert str(batch.failure) == str(want)
    assert (batch.failure.steps, batch.failure.dt, batch.failure.limit) == \
        (want.steps, want.dt, want.limit)
    assert batch.failure.partial.meta == want.partial.meta
    # a hooked batch keeps the last member's records alone: the failure of the
    # middle one carries no partial solution, and no member's records are kept
    seen = []
    hooked = solve_master(m, [penalized_slice(m, box, e) for e in (0.5, 0.2, 0.1)], params,
                          on_record=lambda e, k, row: seen.append(e))
    assert str(hooked.failure) == str(want) and hooked.failure.partial is None
    assert hooked.members == [] and hooked.values.shape[0] == 0
    assert hooked.metas == batch.metas and hooked.meta == batch.meta
    assert seen.count(0) == params.n_rec and set(seen) == {0, 1, 2}


def growth_model(K, speed=0.0):
    """F = speed, G = K p: carried at a constant speed, U grows by the factor 1 + K dt a step."""
    return ModelSpec(d=1, F=FieldSpec.affine(0.0, 0.0, c=speed, d=1),
                     G=FieldSpec.affine(0.0, K, d=1),
                     lam=0.0, noise=identity_noise(1), x0=np.array([0.5]))


# (dt_max, speed F, limit that sets the failing step, its dt, steps per record interval):
# records are 0.01 apart and dx = 0.05, so the cfl row's speed F = 5 limits dt to
# 0.75 dx / 5
STEP_LIMITS = [(0.01, 0.0, "record", 0.01, 1), (0.004, 0.0, "dt_max", 0.004, 3),
               (0.01, 5.0, "cfl", 0.75 * 0.05 / 5, 2)]


@pytest.mark.parametrize("dt_max, speed, limit, dt, per_record", STEP_LIMITS)
def test_blowup_reports_steps_dt_and_limit(dt_max, speed, limit, dt, per_record):
    m = growth_model(100.0, speed=speed)
    params = SolverParams(t_end=1.0, n_rec=101, dt_max=dt_max)
    with pytest.raises(BlowupError, match="^solution exceeded the overflow guard at t=") as exc:
        solve_master(m, penalized_slice(m, box1d(n=60), 0.1), params)
    err = exc.value
    assert err.limit == limit
    assert err.dt == pytest.approx(dt, rel=1e-12)
    # here the failing step is the first after the last record
    assert err.t_last == err.partial.times[-1]
    assert err.steps == per_record * (len(err.partial.times) - 1) + 1


def test_solution_times_must_increase():
    box = box1d(n=4)
    vals = np.zeros((3, *box.shape, 1))
    for times in ([0.0, 0.2, 0.1], [0.0, 0.1, 0.1], [[0.0, 0.1, 0.2]], [0.0, np.nan, 0.2]):
        with pytest.raises(ConfigError, match="increase strictly"):
            GridSolution(box=box, times=np.asarray(times), values=vals)


@pytest.mark.parametrize("shape", [(2, 5, 1), (3, 6, 1)], ids=["records", "nodes"])
def test_solution_values_must_fit_times_and_box(tmp_path, shape):
    # two records for three times used to write a short CSV without a word,
    # and six nodes on a 5-node box a bare TypeError from the writer
    box, times = box1d(n=4), np.array([0.0, 0.1, 0.2])
    with pytest.raises(ConfigError, match=r"not \(3, 5, d\) for its times and box"):
        write_solution_csv(GridSolution(box=box, times=times, values=np.zeros(shape)),
                           tmp_path / "sol.csv")
    # values are held as float64, and float64 values without a copy
    vals = np.zeros((3, 5, 1))
    assert GridSolution(box=box, times=times, values=vals).values is vals
    held = GridSolution(box=box, times=times, values=vals.astype(int)).values
    assert held.dtype == np.float64 and np.array_equal(held, vals)


def test_snap_keeps_the_order_given(lq0_solution):
    # records every 0.01: each time goes to its nearest record, duplicates kept
    got = lq0_solution.snap([0.8, 0.404, 0.2, 0.396, -1.0, 7.0])
    assert got == [lq0_solution.times[k] for k in (80, 40, 20, 40, 0, 100)]
    assert all(type(t) is float for t in got)


def test_time_interpolation_is_linear_between_records(lq0_solution):
    field = lq0_solution.field()
    times = lq0_solution.times
    t0, t1 = times[40], times[41]
    mid = 0.5 * (t0 + t1)
    pts = np.array([[0.2], [1.1]])
    avg = 0.5 * (field.eval(t0, pts) + field.eval(t1, pts))
    assert np.allclose(field.eval(mid, pts), avg, atol=1e-12)


@pytest.mark.parametrize("dim, d", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3)])
def test_field_eval_is_the_blend_of_two_gathers(dim, d):
    # one gather of both slices, blended in time, equals two separate
    # InterpPlan.apply calls byte for byte; signed zeros included
    rng = np.random.default_rng(10 * dim + d)
    box = Box(np.full(dim, -1.0), np.full(dim, 2.0), np.full(dim, 5))
    times = np.array([0.0, 0.3, 0.7, 1.0])
    vals = rng.normal(size=(len(times),) + box.shape + (d,))
    vals.reshape(-1)[::4] = -0.0
    field = GridSolution(box=box, times=times, values=vals).field()
    pts = rng.uniform(-1.5, 2.5, size=(40, dim))
    for t in (0.0, 0.1, 0.3, 0.55, 0.7, 0.95, 1.0):
        k = min(int(np.searchsorted(times, t, side="right")) - 1, len(times) - 2)
        w = (t - times[k]) / (times[k + 1] - times[k])
        plan = InterpPlan(box, pts)
        want = (1.0 - w) * plan.apply(vals[k]) + w * plan.apply(vals[k + 1])
        got = field.eval(t, pts)
        assert got.tobytes() == want.tobytes()
        assert field.eval(t, pts[3]).tobytes() == field.eval(t, pts[3:4])[0].tobytes()


def _plan_blend(sol, t, rows):
    """GridField.eval's plan path at t within the records: one InterpPlan over both
    records of t's bracket (one record twice for a one-record solution), blended in t."""
    times = sol.times.tolist()
    k = min(max(bisect.bisect_right(times, t) - 1, 0), len(times) - 2)
    w = 0.0 if k < 0 else (t - times[k]) / (times[k + 1] - times[k])
    pair = InterpPlan(sol.box, rows).apply(sol.values[k:k + 2])
    return (1.0 - w) * pair[0] + w * pair[-1]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_few_point_queries_match_the_plan_path_bit_for_bit(dim, monkeypatch):
    # a query of at most FEW_POINTS finite points is computed in Python floats and
    # gives the plan path's bytes, signed zeros included: points inside, on faces
    # and off the box, t on a record and between, a one-record solution; each of
    # its rows is its own one-point query. A larger query, or one with a nan or
    # inf coordinate, takes the plan path
    few, results = grid_solver._few_points, []
    monkeypatch.setattr(grid_solver, "_few_points",
                        lambda *args: results.append(few(*args)) or results[-1])
    rng = np.random.default_rng(40 + dim)
    box = Box(np.array([0.0, -1.0, 0.5])[:dim], np.array([1.0, 2.0, 1.75])[:dim],
              np.array([5, 7, 3])[:dim])
    faces = rng.uniform(box.lo, box.hi, size=(2 * dim, dim))
    for a in range(dim):
        faces[2 * a, a], faces[2 * a + 1, a] = box.lo[a], box.hi[a]
    off = rng.uniform(box.lo - 1.5, box.hi + 1.5, size=(6, dim))
    off[0], off[1, 0] = 1e12, -0.0  # far off; -0.0 on the face x_1 = 0
    pts = np.concatenate([rng.uniform(box.lo, box.hi, size=(6, dim)), faces, off])
    for d in sorted({1, dim}):
        for times in ([0.0, 0.25, 0.7, 1.0], [0.25]):
            shape = (len(times), *box.shape, d)
            vals = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, shape)
            vals.reshape(-1)[::3] = -0.0
            vals[0, ..., -1] = -0.0
            sol = GridSolution(box=box, times=np.array(times), values=vals)
            field = sol.field()
            for t in times + ([0.1, 0.5, 0.95] if len(times) > 1 else []):
                for n in (1, grid_solver.FEW_POINTS, grid_solver.FEW_POINTS + 1):
                    for rows in np.split(pts[:len(pts) // n * n], len(pts) // n):
                        results.clear()
                        got = field.eval(t, rows)
                        assert got.tobytes() == _plan_blend(sol, t, rows).tobytes()
                        assert [r is not None for r in results] == \
                            [True] * (n <= grid_solver.FEW_POINTS)
                        for x, row in zip(rows, got):
                            assert field.eval(t, x).tobytes() == row.tobytes()
            for bad in (np.nan, np.inf, -np.inf):
                rows = pts[:2].copy()
                rows[1, -1] = bad
                results.clear()
                with np.errstate(invalid="ignore"):  # the plan casts the nan cell to int
                    got = field.eval(times[0], rows)
                    assert got.tobytes() == _plan_blend(sol, times[0], rows).tobytes()
                assert results == [None]


def test_field_eval_refuses_times_outside_the_records(lq0_solution):
    # t_end = 1: t = 5 used to return the t = 1 slice (0.6324 at x = 1.2,
    # where the closed form at t = 5 is 0.137)
    field = lq0_solution.field()
    for t in (5.0, 1.0 + 1e-9, -1e-9):
        with pytest.raises(ConfigError, match="outside the recorded times"):
            field.eval(t, [1.2])
    # an overshoot of an ulp or two, as a march landing on an end makes, is an end
    ulp = np.spacing(1.0)
    assert field.eval(1.0 + 2 * ulp, [1.2]).tobytes() == field.eval(1.0, [1.2]).tobytes()
    assert field.eval(-ulp, [1.2]).tobytes() == field.eval(0.0, [1.2]).tobytes()
    # the slack bound itself is accepted, and the next float beyond it refused
    slack = 4 * np.spacing(1.0 - 0.0)
    for end, bound, away in ((1.0, 1.0 + slack, np.inf), (0.0, 0.0 - slack, -np.inf)):
        assert field.eval(bound, [1.2]).tobytes() == field.eval(end, [1.2]).tobytes()
        with pytest.raises(ConfigError, match="outside the recorded times"):
            field.eval(np.nextafter(bound, away), [1.2])


def test_field_and_slice_eval_take_any_leading_shape(lq0_solution):
    # (..., dim) points give (..., d) values, the bits of the same points as rows;
    # a last axis that is not the box dimension is a ConfigError, not a numpy error
    pts = np.linspace(-1.5, 2.5, 8).reshape(4, 2, 1)
    field, slc = lq0_solution.field(), lq0_solution.slice_at(0.5)
    for at in (lambda p: field.eval(0.5, p), slc.eval):
        got = at(pts)
        assert got.shape == (4, 2, 1)
        assert got.tobytes() == at(pts.reshape(-1, 1)).tobytes()
        assert at(np.full((4, 2, 1), 0.5)).shape == (4, 2, 1)
        assert at(pts[0, 0]).shape == (1,)
        for bad in (np.zeros((4, 2)), np.zeros((4, 2, 3)), 0.5):
            with pytest.raises(ConfigError, match="do not end in the box dimension 1"):
                at(bad)


def test_node_jacobians_exact_on_linear():
    box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([6, 6]))
    A = np.array([[1.5, -0.5], [2.0, 0.25]])
    sl = slice_from_fn(box, lambda x: x @ A.T)
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


def _csv_value_cases(rng, K, shape):
    """(name, values) inputs for the solution writer: records that repeat,
    records at and just past half of their values distinct, distinct ones,
    and values that are not contiguous or not float."""
    m = int(np.prod(shape))
    nan_a, nan_b = np.array([0x7FF8000000000001, 0xFFF8000000000002]).view(np.float64)
    pool = np.array([0.0, -0.0, nan_a, nan_b, 0.1 + 0.2, -2.5, 1e16, 5e-324])

    def with_distinct(n):  # a record of m values, n of them distinct
        values = rng.normal(size=n)
        return rng.permutation(np.concatenate([values, rng.choice(values, m - n)]))

    def records(*rows):
        return np.stack(rows).reshape(K, *shape)

    def pooled():  # every record holds both zeros and both nan payloads
        return rng.permutation(np.concatenate([pool[:4], rng.choice(pool[:m // 2], m - 4)]))

    yield "signed zeros and nan payloads", records(*[pooled() for _ in range(K)])
    yield "half distinct", records(*[with_distinct(m // 2) for _ in range(K)])
    yield "one past half", records(*[with_distinct(m // 2 + 1) for _ in range(K)])
    yield "all distinct", rng.normal(size=(K, *shape))
    yield "mixed records", records(with_distinct(m // 2), rng.normal(size=m), pooled())
    wide = records(*[rng.choice(pool[:5], m) for _ in range(K)]).repeat(2, axis=-1)
    yield "not contiguous", wide[..., ::2]
    ints = rng.integers(-3, 3, size=(K, *shape))
    yield "integers", ints * 10 ** rng.integers(0, 15, ints.shape)


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
    # 8**dim * d values per record: exactly half can be distinct, and half
    # holds both zeros and both nan payloads
    box = Box(np.full(dim, -0.3), np.full(dim, 1.0 / 3.0), np.full(dim, 7))
    rng = np.random.default_rng(10 * dim + d)
    for name, vals in _csv_value_cases(rng, len(times), (*box.shape, d)):
        sol = GridSolution(box=box, times=times, values=vals)
        write_solution_csv(sol, tmp_path / "bulk.csv")
        _per_cell_csv(sol, tmp_path / "cells.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes(), name


@pytest.mark.parametrize("repeating", [True, False], ids=["repeating", "distinct"])
def test_solution_csv_holds_one_record_at_a_time(tmp_path, repeating):
    # the halfspace run's 61 records of 2 values a node, on 31 x 11 nodes, not
    # its 121 x 41. Separable records hold 42 distinct values each; the writer's
    # peak stays near one record's worth, far from the 333 kB of one index per
    # value (the bound is the 4 MB that held on 121 x 41 nodes, scaled to these)
    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]), np.array([30, 10]))
    times = np.linspace(0.0, 1.0, 61)
    if repeating:
        vals = np.empty((61, *box.shape, 2))
        vals[..., 0] = np.sin(box.nodes()[..., 0]) * np.exp(-times)[:, None, None]
        vals[..., 1] = np.cos(box.nodes()[..., 1] + times[:, None, None])
    else:
        vals = np.random.default_rng(5).normal(size=(61, *box.shape, 2))
    sol = GridSolution(box=box, times=times, values=vals)
    tracemalloc.start()
    try:
        write_solution_csv(sol, tmp_path / "sol.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6 * (31 * 11) / (121 * 41)
    assert (tmp_path / "sol.csv").stat().st_size > 61 * 31 * 11 * 20


def test_table_matches_per_cell_format(tmp_path):
    # the per-row f-strings the command tables were written with before
    rng = np.random.default_rng(3)
    nodes = rng.uniform(-2.0, 2.0, size=(7, 2))
    nodes[0] = [-0.0, 1e16]
    vals = np.array([0.1 + 0.2, 5e-324, np.inf, np.nan, -2.5, 123456789012345.0, 0.0])
    excluded = np.array([True, False, False, True, False, False, True])
    write_table(tmp_path / "t.csv", "x_1,x_2,residual,excluded", nodes, vals, excluded)
    rows = [",".join([f"{v:.12g}" for v in nodes[i]] + [f"{vals[i]:.12g}",
                                                          str(int(excluded[i]))])
            for i in range(7)]
    want = "x_1,x_2,residual,excluded\n" + "".join(r + "\n" for r in rows)
    assert (tmp_path / "t.csv").read_text() == want


def test_table_without_rows_is_its_header(tmp_path):
    write_table(tmp_path / "t.csv", "eps_coarse,eps_fine,gap", (), (), [])
    assert (tmp_path / "t.csv").read_text() == "eps_coarse,eps_fine,gap\n"


def test_margin_validation():
    m = baseline_model()  # x0 = 0.5
    tight = Box(np.array([0.45]), np.array([2.0]), np.array([40]))
    with pytest.raises(ConfigError, match="margin"):
        solve_master(m, penalized_slice(m, tight, 0.1),
                     SolverParams(t_end=0.1, n_rec=11))
