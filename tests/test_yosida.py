"""Nonlinear resolvent, its transported twin, and the regularized equation.

The cubic inversion values are checked in-test against np.roots, an
independent polynomial solver; see also tests/oracles/derive_values.py.
"""

import numpy as np
import pytest

from mfgplan import (AffineNoiseMap, Box, ConfigError, FieldSpec, ModelSpec,
                     NewtonError, Slice, SolverParams, YosidaField, eqV_residual,
                     invert_shift, node_jacobians, penalized_slice, residual,
                     resolvent, sample_solution, solve_master, yosida_apply,
                     yosida_by_transport, yosida_field)
from mfgplan.yosida import _newton_batch
from conftest import baseline_model, box1d, closed_form, jump_model

X0 = 0.5


def test_resolvent_linear_hand_value():
    # y + 0.25 (y - 0.5)/0.5 = 2  ->  y = (0.5*2 + 0.25*0.5)/0.75 = 1.5
    U = lambda y: (y - X0) / 0.5
    y = resolvent(U, 0.25, np.array([[2.0]]))
    assert abs(y[0, 0] - 1.5) <= 1e-10
    V = yosida_apply(U, 0.25, np.array([[2.0]]))
    assert abs(V[0, 0] - (2.0 - X0) / 0.75) <= 1e-10  # (x - x0)/(t + delta)


def test_resolvent_cubic_against_roots():
    delta = 0.5
    U = lambda y: y ** 3 + y
    for x in (2.0, 3.0, -1.7):
        got = resolvent(U, delta, np.array([[x]]))[0, 0]
        roots = np.roots([delta, 0.0, 1.0 + delta, -x])
        want = float(roots[np.abs(roots.imag) < 1e-9].real[0])
        assert abs(got - want) <= 1e-9
        assert abs(yosida_apply(U, delta, np.array([[x]]))[0, 0]
                   - (want ** 3 + want)) <= 1e-8


def test_resolvent_delta_zero_is_identity():
    U = lambda y: 2.0 * y
    x = np.array([[0.3], [-1.2]])
    assert np.allclose(resolvent(U, 0.0, x), x)
    assert np.allclose(yosida_apply(U, 0.0, x), U(x))


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
def test_resolvent_nan_is_not_converged():
    # a nan residual fails the tolerance: from a nan field, and from a nan
    # query point, which multilinear interpolation turns into a nan value
    x = np.array([[0.3], [-1.2]])
    with pytest.raises(NewtonError, match="1 points"):
        resolvent(lambda y: np.where(y > 0, np.nan, y), 0.25, x)
    sl = Slice.from_fn(box1d(n=40), lambda y: y ** 3)
    with pytest.raises(NewtonError, match="1 points"):
        resolvent(sl, 0.25, np.array([[0.3], [np.nan]]))


def test_resolvent_nonexpansive():
    # (Id + delta U)^{-1} contracts distances for monotone U
    U = lambda y: y ** 3 + 0.5 * y
    rng = np.random.default_rng(5)
    x = rng.uniform(-2.0, 2.0, size=(200, 1))
    y = rng.uniform(-2.0, 2.0, size=(200, 1))
    Rx = resolvent(U, 0.4, x)
    Ry = resolvent(U, 0.4, y)
    assert np.all(np.abs(Rx - Ry) <= np.abs(x - y) + 1e-9)


def test_transport_matches_apply_on_numeric_slice():
    # the two constructions share no code path: one inverts by Newton, the
    # other transports along the vector conservation flow
    box = box1d(n=200)
    sl = Slice.from_fn(box, lambda x: (x - X0) / 0.6)
    for delta in (0.1, 0.25):
        direct = yosida_apply(sl, delta, box.node_list())
        moved = yosida_by_transport(sl, delta)
        gap = float(np.max(np.abs(direct - moved.values.reshape(direct.shape))))
        assert gap <= 1e-9


def test_transport_multistep_exact_on_affine():
    box = box1d(n=100)
    sl = Slice.from_fn(box, lambda x: (x - X0) / 0.4)
    for steps in (1, 2, 5):
        out = yosida_by_transport(sl, 0.3, burgers_steps=steps)
        want = (box.nodes() - X0) / 0.7
        assert float(np.max(np.abs(out.values - want))) <= 1e-9


def test_transport_needs_contraction():
    # s * Lip = delta * 10 > 1 with one substep; four substeps contract
    box = box1d(n=100)
    steep = Slice.from_fn(box, lambda x: (x - X0) / 0.1)
    with pytest.raises(NewtonError):
        yosida_by_transport(steep, 0.2, burgers_steps=1, max_iter=50)
    out = yosida_by_transport(steep, 0.2, burgers_steps=4)
    want = (box.nodes() - X0) / 0.3
    assert float(np.max(np.abs(out.values - want))) <= 1e-8


def test_regularized_slope_capped_by_inverse_delta():
    # slope of the input is 100; the output slope must stay below 1/delta
    box = box1d(n=400)
    steep = Slice.from_fn(box, lambda x: (x - X0) / 0.01)
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
    v = Slice.from_fn(box, lambda x: (x - X0) / 0.5)
    targets = np.linspace(-0.5, 1.5, 7)[:, None]
    w, ok = invert_shift(v, 0.3, targets)
    assert np.all(ok)
    back = w - 0.3 * v.eval(w)
    assert np.allclose(back, targets, atol=1e-9)


def test_newton_batch_keeps_best_point_and_stops_early():
    # y^2 + 1 = 0 has no real root: no row may end worse than a point it
    # reached, and the iteration stops once no row improves
    seen = []

    def f(y):
        out = y ** 2 + 1.0
        if len(y) == 2:  # the iterates and line-search trials, not the FD probes
            seen.append(out[:, 0].copy())
        return out

    y, rn = _newton_batch(f, 0.0, np.array([[0.7], [3.0]]), 1e-10, 60)
    assert np.array_equal(rn, np.min(seen, axis=0))
    assert len(seen) < 400  # 60 iterations of 30 failed halvings would be 1800


def _analytic_V_field(box, times, delta, slope_fn):
    sol = sample_solution(box, times, slope_fn)
    return YosidaField(delta=delta, sol=sol)


def test_eqv_residual_refines_on_analytic_field():
    # V(t,x) = (x - x0)/(t + delta) solves the regularized equation exactly
    m = baseline_model()
    delta = 0.25
    res = {}
    for n, n_rec in ((200, 26), (400, 51)):
        times = np.linspace(0.2, 0.7, n_rec)
        V = _analytic_V_field(box1d(n=n), times, delta,
                              lambda t, x: (x - X0) / (t + delta))
        res[n] = eqV_residual(m, V, times[n_rec // 2]).max()
    assert res[200] <= 0.1
    assert res[200] / res[400] >= 1.8


def test_eqv_residual_identity_relabeling_bracket_vanishes():
    # with S = Id, e = 0 the w-inversion returns x and the bracket cancels,
    # so the lambda > 0 residual must match the lambda = 0 one
    from mfgplan import AffineNoiseMap, FieldSpec, ModelSpec
    m0 = baseline_model()
    m1 = ModelSpec(d=1, F=m0.F, G=m0.G, lam=2.0,
                   noise=AffineNoiseMap.identity(1), x0=m0.x0, alpha=1.0,
                   lip_Fp=1.0)
    delta = 0.25
    times = np.linspace(0.2, 0.6, 21)
    V = _analytic_V_field(box1d(n=100), times, delta,
                          lambda t, x: (x - X0) / (t + delta))
    r0 = eqV_residual(m0, V, times[10])
    r1 = eqV_residual(m1, V, times[10])
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
        r = eqV_residual(m, V, times[n_rec // 2])
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
        eqV_residual(m, V, 0.2)


def test_yosida_field_on_numeric_solution(lq0_solution):
    delta = 0.25
    times = [0.4, 0.5, 0.6]
    V = yosida_field(lq0_solution, delta, times=times)
    m = baseline_model()
    r = eqV_residual(m, V, 0.5)
    assert r.max() <= 0.1


def test_residual_is_the_master_equation_defect():
    # the defect written out directly: centered dU/dt + (F . grad) U - G
    # + lambda (U - S^T U(S x + e)); residual reaches it as the delta = 0
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
            assert float(np.max(np.abs(residual(m, sol, sol.times[k]) - want))) <= 1e-14
    with pytest.raises(ConfigError, match="interior"):
        residual(m, sol, sol.times[0])
