"""Nonlinear resolvent, its transported twin, and the regularized equation.

The cubic inversion values are checked in-test against np.roots, an
independent polynomial solver; see also tests/oracles/derive_values.py.
"""

import numpy as np
import pytest

from mfgplan import (AffineNoiseMap, Box, ConfigError, FieldSpec, ModelSpec,
                     NewtonError, Slice, SolverParams, eqV_residual, extract_limit,
                     invert_shift, node_jacobians, penalized_slice, resolvent,
                     solve_master, yosida_apply,
                     yosida_by_transport, yosida_field)
from mfgplan import yosida
from mfgplan.yosida import _newton_batch
from conftest import (baseline_model, box1d, closed_form, identity_noise, jump_model,
                      sample_solution, slice_from_fn)

X0 = 0.5


def test_resolvent_linear_hand_value():
    # y + 0.25 (y - 0.5)/0.5 = 2  ->  y = (0.5*2 + 0.25*0.5)/0.75 = 1.5
    U = lambda y: (y - X0) / 0.5
    y, _ = resolvent(U, 0.25, np.array([[2.0]]))
    assert abs(y[0, 0] - 1.5) <= 1e-10
    V = yosida_apply(U, 0.25, np.array([[2.0]]))
    assert abs(V[0, 0] - (2.0 - X0) / 0.75) <= 1e-10  # (x - x0)/(t + delta)


def test_resolvent_cubic_against_roots():
    delta = 0.5
    U = lambda y: y ** 3 + y
    for x in (2.0, 3.0, -1.7):
        got = resolvent(U, delta, np.array([[x]]))[0][0, 0]
        roots = np.roots([delta, 0.0, 1.0 + delta, -x])
        want = float(roots[np.abs(roots.imag) < 1e-9].real[0])
        assert abs(got - want) <= 1e-9
        assert abs(yosida_apply(U, delta, np.array([[x]]))[0, 0]
                   - (want ** 3 + want)) <= 1e-8


def test_resolvent_delta_zero_is_identity():
    U = lambda y: 2.0 * y
    x = np.array([[0.3], [-1.2]])
    assert np.allclose(resolvent(U, 0.0, x)[0], x)
    assert np.allclose(yosida_apply(U, 0.0, x), U(x))


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
def test_resolvent_nan_is_not_converged():
    # a nan residual fails the tolerance: from a nan field, and from a nan
    # query point, which multilinear interpolation turns into a nan value
    x = np.array([[0.3], [-1.2]])
    with pytest.raises(NewtonError, match="1 points"):
        resolvent(lambda y: np.where(y > 0, np.nan, y), 0.25, x)
    sl = slice_from_fn(box1d(n=40), lambda y: y ** 3)
    with pytest.raises(NewtonError, match="1 points"):
        resolvent(sl, 0.25, np.array([[0.3], [np.nan]]))


def test_resolvent_nonexpansive():
    # (Id + delta U)^{-1} contracts distances for monotone U
    U = lambda y: y ** 3 + 0.5 * y
    rng = np.random.default_rng(5)
    x = rng.uniform(-2.0, 2.0, size=(200, 1))
    y = rng.uniform(-2.0, 2.0, size=(200, 1))
    Rx, _ = resolvent(U, 0.4, x)
    Ry, _ = resolvent(U, 0.4, y)
    assert np.all(np.abs(Rx - Ry) <= np.abs(x - y) + 1e-9)


def test_transport_matches_apply_on_numeric_slice():
    # the two constructions share no code path: one inverts by Newton, the
    # other transports along the vector conservation flow
    box = box1d(n=200)
    sl = slice_from_fn(box, lambda x: (x - X0) / 0.6)
    for delta in (0.1, 0.25):
        direct = yosida_apply(sl, delta, box.node_list())
        moved = yosida_by_transport(sl, delta)
        gap = float(np.max(np.abs(direct - moved.values.reshape(direct.shape))))
        assert gap <= 1e-9


def test_transport_multistep_exact_on_affine():
    box = box1d(n=100)
    sl = slice_from_fn(box, lambda x: (x - X0) / 0.4)
    for steps in (1, 2, 5):
        out = yosida_by_transport(sl, 0.3, burgers_steps=steps)
        want = (box.nodes() - X0) / 0.7
        assert float(np.max(np.abs(out.values - want))) <= 1e-9


@pytest.mark.parametrize("slope", [10, 25, 100])
def test_transport_divergence_fails_cleanly(slope):
    # s * Lip = delta * slope > 1 with one substep: the iteration diverges.
    # At slopes 25 and 100 it overflows before the iteration cap; that must
    # raise no numpy warning (pyproject turns warnings into errors) and still
    # report a finite last gap.
    steep = slice_from_fn(box1d(n=100), lambda x: (x - X0) * slope)
    with pytest.raises(NewtonError) as err:
        yosida_by_transport(steep, 0.2, burgers_steps=1)
    assert np.isfinite(err.value.residual)


def test_transport_needs_contraction():
    # s * Lip = delta * 10 > 1 with one substep (test_transport_divergence_fails_cleanly);
    # four substeps contract
    box = box1d(n=100)
    steep = slice_from_fn(box, lambda x: (x - X0) / 0.1)
    out = yosida_by_transport(steep, 0.2, burgers_steps=4)
    want = (box.nodes() - X0) / 0.3
    assert float(np.max(np.abs(out.values - want))) <= 1e-8


def test_regularized_slope_capped_by_inverse_delta():
    # slope of the input is 100; the output slope must stay below 1/delta
    box = box1d(n=400)
    steep = slice_from_fn(box, lambda x: (x - X0) / 0.01)
    delta = 0.25
    V = yosida_by_transport(steep, delta, burgers_steps=40)
    J = node_jacobians(V)
    assert float(np.max(J)) <= 1.0 / delta + 1e-3
    assert float(np.max(J)) >= 1.0 / (delta + 0.01) - 1e-3


def test_yosida_field_time_zero_slice(lq0_solution):
    # at t = 0 the regularization of (x-x0)/eps is (x-x0)/(eps+delta)
    V = yosida_field(lq0_solution, 0.25, times=[0.0, 0.5, 1.0])
    sl = V.slice_at(0.0)
    want = (V.box.nodes() - X0) / (0.1 + 0.25)
    assert float(np.max(np.abs(sl.values - want))) <= 1e-8
    mid = V.slice_at(0.5)
    want_mid = (V.box.nodes() - X0) / (0.5 + 0.1 + 0.25)
    # inherits the first-order marching error of the 400-cell input
    assert float(np.max(np.abs(mid.values - want_mid))) <= 1e-2


def test_invert_shift_round_trip():
    box = box1d(n=100)
    v = slice_from_fn(box, lambda x: (x - X0) / 0.5)
    targets = np.linspace(-0.5, 1.5, 7)[:, None]
    w, ok, _ = invert_shift(v, 0.3, targets)
    assert np.all(ok)
    back = w - 0.3 * v.eval(w)
    assert np.allclose(back, targets, atol=1e-9)


def test_newton_batch_keeps_best_point_and_stops_early():
    # y^2 + 1 = 0 has no real root: no row may end worse than a point it
    # reached, and the iteration stops once no row improves
    seen = []

    def f(y):
        out = y ** 2 + 1.0
        if len(y) in (2, 6):  # the start (leading its FD probes), the iterates and the trials
            seen.append(out[:2, 0].copy())
        return out, y.copy()

    y, rn, _ = _newton_batch(f, 0.0, np.array([[0.7], [3.0]]), 1e-10, 60)
    assert np.array_equal(rn, np.min(seen, axis=0))
    assert len(seen) < 400  # 60 iterations of 30 failed halvings would be 1800


def test_newton_batch_reverted_row_keeps_its_payload():
    # y^2 + 1 = 0 has no root, so the line search reverts rows; each row must
    # return the payload computed at the point it kept, not at its last trial
    trials = []

    def f(y):
        if len(y) == 2:
            trials.append(y[:, 0].copy())
        return y ** 2 + 1.0, np.sin(y) + 2.0 * y

    y, rn, pay = _newton_batch(f, 0.0, np.array([[0.7], [3.0]]), 1e-10, 60)
    assert np.any(trials[-1] != y[:, 0])  # a row kept a point from before its last trial
    assert pay.tobytes() == (np.sin(y) + 2.0 * y).tobytes()
    assert rn.tobytes() == np.linalg.norm(y ** 2 + 1.0, axis=1).tobytes()


def _unmerged_newton(f, target, y0, tol, max_iter, fd_h=1e-7):
    """Reference damped Newton: the start and its finite-difference copies in separate calls."""
    y = np.atleast_2d(np.asarray(y0, dtype=float)).copy()
    n, d = y.shape
    r, pay = f(y)
    r = r - target
    rn = np.linalg.norm(r, axis=1)
    for _ in range(max_iter):
        if np.all(rn <= tol):
            break
        h = fd_h * (1.0 + np.abs(y))
        probes = np.repeat(y[None], 2 * d, axis=0)
        for j in range(d):
            probes[j, :, j] += h[:, j]
            probes[d + j, :, j] -= h[:, j]
        fp = f(probes.reshape(-1, d))[0].reshape(2 * d, n, d) - target
        J = np.moveaxis(fp[:d] - fp[d:], 0, -1) / (2.0 * h[:, None, :])
        step = np.linalg.solve(J, -r[..., None])[..., 0]
        alpha = np.ones(n)
        for _ in range(30):
            y_try = y + alpha[:, None] * step
            r_try, pay_try = f(y_try)
            r_try = r_try - target
            rn_try = np.linalg.norm(r_try, axis=1)
            bad = (rn_try > rn) & (rn > tol)
            if not np.any(bad):
                break
            alpha = np.where(bad, alpha * 0.5, alpha)
        y_try[bad], r_try[bad], rn_try[bad], pay_try[bad] = y[bad], r[bad], rn[bad], pay[bad]
        improved = np.any((rn_try < rn) & (rn > tol))
        y, r, rn, pay = y_try, r_try, rn_try, pay_try
        if not improved:
            break
    return y, rn, pay


def test_resolvent_and_invert_shift_match_an_unmerged_newton():
    # the start rides in the call of its probes; on a 2-D slice, where the
    # field is interpolated row by row, every byte stays as in separate calls
    box = Box(np.full(2, -1.0), np.full(2, 2.0), np.full(2, 24))
    v = slice_from_fn(box, lambda x: np.stack([x[:, 0] ** 3 + x[:, 0] + 0.2 * x[:, 1],
                                               np.sinh(x[:, 1]) - 0.1 * x[:, 0]], axis=1))
    x = np.concatenate([box.node_list()[::7],
                        np.random.default_rng(4).uniform(-1.5, 2.5, size=(40, 2))])
    for delta in (0.1, 0.5):
        y, rn, u = _unmerged_newton(lambda y: (y + delta * v.eval(y), v.eval(y)),
                                    x, x, 1e-10, 60)
        assert np.all(rn <= 1e-10)
        assert resolvent(v, delta, x)[0].tobytes() == y.tobytes()
        assert yosida_apply(v, delta, x).tobytes() == v.eval(y).tobytes()
        w0 = x + delta * v.eval(x)
        w, rn, _ = _unmerged_newton(lambda w: (w - delta * v.eval(w), v.eval(w)),
                                    x, w0, 1e-10, 60)
        got, ok, vw = invert_shift(v, delta, x)
        assert got.tobytes() == w.tobytes()
        assert vw.tobytes() == v.eval(w).tobytes()
        assert ok.tobytes() == (rn <= 1e-8).tobytes()


def test_field_values_come_from_the_newton_payload(monkeypatch, lq0_run):
    # the resolvent and the shift inversion return the field values their
    # Newton evaluated, so the callers interpolate no accepted point again:
    # the only Slice.eval outside a Newton is the shift inversion's start
    calls = {"outside": 0}
    inside = []
    newton, slice_eval = yosida._newton_batch, Slice.eval

    def flagged(*args, **kwargs):
        inside.append(True)
        try:
            return newton(*args, **kwargs)
        finally:
            inside.pop()

    def counted(self, pts):
        if not inside:
            calls["outside"] += 1
        return slice_eval(self, pts)

    monkeypatch.setattr(yosida, "_newton_batch", flagged)
    monkeypatch.setattr(Slice, "eval", counted)

    def outside(fn, *args):
        calls["outside"] = 0
        fn(*args)
        return calls["outside"]

    sol = lq0_run.smallest_eps_solution
    assert outside(yosida_apply, sol.slice_at(0.5), lq0_run.delta, sol.box.node_list()) == 0
    assert outside(extract_limit, lq0_run, 0.5) == 1
    times = np.linspace(0.2, 0.6, 21)
    V = _analytic_V_field(box1d(n=100), times, 0.2, lambda t, x: (x - X0) / (t + 0.2))
    assert outside(eqV_residual, jump_model(lam=1.0, S=0.5), V, 0.2, times[10]) == 1


def test_newton_batch_converged_start_returns_it_unchanged():
    # every row of the start already solves f(y) = target: one call of f (the
    # start and its probes), and y0 and its payload come back as they were
    y0 = np.array([[0.3, -1.2], [2.0, 0.0], [-0.0, 5e-3]])
    calls = []

    def f(y):
        calls.append(len(y))
        return 2.0 * y, np.sin(y) + y

    y, rn, pay = _newton_batch(f, 2.0 * y0, y0, 1e-10, 60)
    assert calls == [5 * len(y0)]
    assert y.tobytes() == y0.tobytes() and not np.shares_memory(y, y0)
    assert rn.tobytes() == np.zeros(len(y0)).tobytes()
    assert pay.tobytes() == (np.sin(y0) + y0).tobytes()


def _analytic_V_field(box, times, delta, slope_fn):
    return sample_solution(box, times, slope_fn)


def test_eqv_residual_refines_on_analytic_field():
    # V(t,x) = (x - x0)/(t + delta) solves the regularized equation exactly
    m = baseline_model()
    delta = 0.25
    res = {}
    for n, n_rec in ((200, 26), (400, 51)):
        times = np.linspace(0.2, 0.7, n_rec)
        V = _analytic_V_field(box1d(n=n), times, delta,
                              lambda t, x: (x - X0) / (t + delta))
        res[n] = eqV_residual(m, V, delta, times[n_rec // 2]).max()
    assert res[200] <= 0.1
    assert res[200] / res[400] >= 1.8


def test_eqv_residual_identity_relabeling_bracket_vanishes():
    # with S = Id, e = 0 the w-inversion returns x and the bracket cancels,
    # so the lambda > 0 residual must match the lambda = 0 one
    from mfgplan import AffineNoiseMap, FieldSpec, ModelSpec
    m0 = baseline_model()
    m1 = ModelSpec(d=1, F=m0.F, G=m0.G, lam=2.0,
                   noise=identity_noise(1), x0=m0.x0, alpha=1.0,
                   lip_Fp=1.0)
    delta = 0.25
    times = np.linspace(0.2, 0.6, 21)
    V = _analytic_V_field(box1d(n=100), times, delta,
                          lambda t, x: (x - X0) / (t + delta))
    r0 = eqV_residual(m0, V, delta, times[10])
    r1 = eqV_residual(m1, V, delta, times[10])
    assert not np.any(r1.excluded)
    assert float(np.max(np.abs(r0.values - r1.values))) <= 1e-7


def test_eqv_residual_with_scalar_relabeling():
    # jump model slope a(t) from the logistic closed form; the regularized
    # field is A(t) x with A = a/(1 + delta a) and solves the transported
    # equation, so the residual is pure discretization error
    m = jump_model(lam=1.0, S=0.5)
    kappa = 0.75
    a0 = 10.0
    delta = 0.2

    def slope(t):
        return kappa / ((kappa / a0 + 1.0) * np.exp(kappa * t) - 1.0)

    def V_fn(t, x):
        a = slope(t)
        return (a / (1.0 + delta * a)) * x

    box = Box(np.array([-2.0]), np.array([2.0]), np.array([400]))
    res = {}
    for n, n_rec in ((200, 26), (400, 51)):
        b = Box(np.array([-2.0]), np.array([2.0]), np.array([n]))
        times = np.linspace(0.2, 0.7, n_rec)
        V = _analytic_V_field(b, times, delta, V_fn)
        r = eqV_residual(m, V, delta, times[n_rec // 2])
        assert not np.any(r.excluded)
        res[n] = r.max()
    assert res[200] <= 0.1
    assert res[200] / res[400] >= 1.5


def test_eqv_residual_boundary_time_rejected():
    m = baseline_model()
    times = np.linspace(0.2, 0.4, 5)
    V = _analytic_V_field(box1d(n=50), times, 0.25,
                          lambda t, x: (x - X0) / (t + 0.25))
    with pytest.raises(ConfigError):
        eqV_residual(m, V, 0.25, 0.2)


def test_yosida_field_on_numeric_solution(lq0_solution):
    delta = 0.25
    times = [0.4, 0.5, 0.6]
    V = yosida_field(lq0_solution, delta, times=times)
    m = baseline_model()
    r = eqV_residual(m, V, delta, 0.5)
    assert r.max() <= 0.1


def test_residual_is_the_master_equation_defect():
    # the defect written out directly: centered dU/dt + (F . grad) U - G
    # + lambda (U - S^T U(S x + e)); eqV_residual reaches it as the delta = 0
    # regularized defect
    S2 = np.array([[0.5, 0.1], [-0.1, 0.5]])
    models = [
        (baseline_model(), box1d(n=200)),
        (jump_model(lam=1.0, S=0.5), Box(np.array([-2.0]), np.array([2.0]), np.array([200]))),
        (ModelSpec(d=2, F=FieldSpec.affine(0.0, 1.0, d=2), G=FieldSpec.affine(0.5, 0.0, d=2),
                   lam=0.8, noise=AffineNoiseMap(S2, np.array([0.05, -0.02])),
                   x0=np.array([0.5, 0.4])),
         Box(np.full(2, -1.0), np.full(2, 2.0), np.full(2, 30))),
    ]
    for m, box in models:
        sol = solve_master(m, penalized_slice(m, box, 0.2), SolverParams(t_end=0.4, n_rec=9))
        X = box.nodes()
        for k in (1, 4, 7):
            U = sol.values[k]
            dUdt = (sol.values[k + 1] - sol.values[k - 1]) / (sol.times[k + 1] - sol.times[k - 1])
            adv = np.einsum("...ia,...a->...i", node_jacobians(Slice(box, U)), m.eval_F(X, U))
            relabeled = Slice(box, U).eval(m.noise(box.node_list())).reshape(U.shape)
            want = np.linalg.norm(dUdt + adv - m.eval_G(X, U)
                                  + m.lam * (U - relabeled @ m.noise.S), axis=-1)
            got = eqV_residual(m, sol, 0.0, sol.times[k]).values
            assert float(np.max(np.abs(got - want))) <= 1e-14
    with pytest.raises(ConfigError, match="interior"):
        eqV_residual(m, sol, 0.0, sol.times[0]).values


def test_yosida_field_rejects_unordered_times(lq0_solution):
    # eqV_residual differences V across neighbouring slices, so they must be in time order
    with pytest.raises(ConfigError, match="increase strictly"):
        yosida_field(lq0_solution, 0.25, times=[0.5, 0.3, 0.4])
    with pytest.raises(ConfigError, match="increase strictly"):
        yosida_field(lq0_solution, 0.25, times=[0.3, 0.3, 0.4])
