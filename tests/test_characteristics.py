"""Characteristic flow and shooting oracle.

COSH1/SINH1 are the value and slope of the linear flow dx/dt = u, du/dt = x
after unit time, from the matrix exponential of [[0,1],[1,0]] (independent
RK4 cross-check in tests/oracles/derive_values.py).
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from mfgplan import characteristics
from mfgplan import (Box, ConfigError, FieldSpec, HalfspaceModel,
                     IntegrationError, ModelSpec, NewtonError, flow_forward, penalized_data,
                     register_field, solve_by_shooting, solve_master, penalized_slice,
                     SolverParams, transformed_model)
from mfgplan.characteristics import rk4_step
from conftest import (baseline_model, box1d, coupled_model, digest12, identity_noise,
                      jump_model)

COSH1 = 1.543080634815244
SINH1 = 1.175201193643801
# closed-form value of the coupled field (source = x, eps = 0.1) at t=0.3, x=1
COUPLED_VALUE = 1.407614494825863


def test_flow_forward_linear_system():
    m = coupled_model(K=1.0)
    x, u = flow_forward(m, np.array([1.0]), np.array([0.0]), 1.0, rk_steps=256)
    assert x.shape == u.shape == (1,)
    assert abs(x[0] - COSH1) <= 1e-9
    assert abs(u[0] - SINH1) <= 1e-9


def test_flow_forward_rk4_order():
    m = coupled_model(K=1.0)
    errs = []
    for steps in (2, 4, 8):
        x, u = flow_forward(m, np.array([1.0]), np.array([0.0]), 1.0,
                            rk_steps=steps)
        errs.append(abs(x[0] - COSH1) + abs(u[0] - SINH1))
    order_a = np.log2(errs[0] / errs[1])
    order_b = np.log2(errs[1] / errs[2])
    assert order_a >= 3.5
    assert order_b >= 3.5


def test_flow_forward_guards():
    with pytest.raises(ConfigError):
        flow_forward(jump_model(), np.array([0.5]), np.array([0.0]), 0.5, rk_steps=8)
    m = baseline_model()
    for t in (-0.1, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="finite t >= 0"):
            flow_forward(m, np.array([0.5]), np.array([0.0]), t, rk_steps=8)
    with pytest.raises(ConfigError):
        flow_forward(m, np.array([0.5]), np.array([0.0]), 0.5, rk_steps=0)
    z, u0 = np.array([0.5]), np.array([0.25])
    x, u = flow_forward(m, z, u0, 0.0, rk_steps=8)
    assert x[0] == 0.5 and u[0] == 0.25
    assert not np.shares_memory(x, z) and not np.shares_memory(u, u0)


def test_rk4_step_is_the_classical_step():
    # for dy/dt = y one RK4 step multiplies by the degree-4 Taylor polynomial
    # of e^h, forward and backward; a known first stage is used as given
    f = lambda t, y: y
    for h in (0.1, -0.1):
        want = 1 + h + h ** 2 / 2 + h ** 3 / 6 + h ** 4 / 24
        assert rk4_step(f, 0.0, np.array([1.0]), h)[0] == pytest.approx(want, abs=1e-15)
        assert rk4_step(f, 0.0, np.array([1.0]), h, k1=np.array([1.0]))[0] == \
            rk4_step(f, 0.0, np.array([1.0]), h)[0]
    # dy/dt = t^3 backward from t = 1: Simpson's rule, which RK4 reduces to
    # here, is exact for cubics
    got = rk4_step(lambda t, y: t ** 3, 1.0, np.array([0.0]), -0.5)[0]
    assert got == pytest.approx((0.5 ** 4 - 1.0) / 4, abs=1e-15)


def nondiagonal_model(d):
    """Affine F and G with full Mx and Mp and a -0.0 in each c."""
    rng = np.random.default_rng(d)
    c = rng.uniform(-0.5, 0.5, d)
    c[0] = -0.0
    F = FieldSpec.affine(rng.uniform(-0.3, 0.3, (d, d)),
                         np.eye(d) + rng.uniform(-0.2, 0.2, (d, d)), c=c, d=d)
    G = FieldSpec.affine(0.5 * np.eye(d) + rng.uniform(-0.2, 0.2, (d, d)),
                         rng.uniform(-0.1, 0.1, (d, d)), c=-c, d=d)
    return ModelSpec(d=d, F=F, G=G, lam=0.0, noise=identity_noise(d),
                     x0=np.full(d, 0.5))


@pytest.mark.parametrize("d, kind", [(1, "coupled"), (2, "coupled"),
                                     (2, "nondiagonal"), (3, "nondiagonal")],
                         ids=["1", "2", "nondiagonal-2", "nondiagonal-3"])
def test_flow_forward_batch_equals_rows(d, kind):
    m = coupled_model(K=1.0, d=d) if kind == "coupled" else nondiagonal_model(d)
    z = np.random.default_rng(5).uniform(-0.5, 1.5, size=(7, d))
    u0 = penalized_data(m.x0, 0.1)(z)
    x, u = flow_forward(m, z, u0, 0.37, rk_steps=40)
    assert x.shape == u.shape == (7, d)
    for i in range(7):
        xi, ui = flow_forward(m, z[i], u0[i], 0.37, rk_steps=40)
        assert xi.shape == ui.shape == (d,)
        assert xi.tobytes() == x[i].tobytes() and ui.tobytes() == u[i].tobytes()
        xr, ur = flow_forward(m, z[i:i + 1], u0[i:i + 1], 0.37, rk_steps=40)
        assert xr.shape == (1, d)
        assert xr.tobytes() == xi.tobytes() and ur.tobytes() == ui.tobytes()


def test_registered_flow_goes_through_eval_and_keeps_its_bits(monkeypatch):
    # every flow fills its stages by eval_F/eval_G, four a step; the digest of
    # the endpoint bytes of capped_x1_burgers is pinned
    calls = []
    orig = ModelSpec.eval_F
    monkeypatch.setattr(ModelSpec, "eval_F",
                        lambda self, x, p: calls.append(len(x)) or orig(self, x, p))
    rng = np.random.default_rng(11)
    G = FieldSpec.affine(np.array([[0.4, -0.3], [0.2, 0.1]]),
                         np.array([[0.0, 0.5], [-0.25, 0.0]]), c=np.array([-0.0, 0.3]), d=2)
    m = ModelSpec(d=2, F=FieldSpec.registered("capped_x1_burgers"), G=G, lam=0.0,
                  noise=identity_noise(2), x0=np.zeros(2))
    z = rng.uniform(0.0, 1.5, size=(5, 2))
    u0 = rng.uniform(-1.0, 1.0, size=(5, 2))
    x, u = flow_forward(m, z, u0, 0.3, rk_steps=20)
    assert calls == [5] * (4 * 20)
    assert hashlib.sha256(x.tobytes() + u.tobytes()).hexdigest() == \
        "729061a38ffc5c34e1118fbc7f1a5ebd876a3f2323a8567928741a4782321ef4"
    # affine F and G take the same fill
    calls.clear()
    flow_forward(coupled_model(K=1.0, d=2), z, u0, 0.3, rk_steps=20)
    assert calls == [5] * (4 * 20)


def shifted_model():
    """d = 1 affine F and G, each with a nonzero c."""
    return ModelSpec(d=1, F=FieldSpec.affine(0.3, 1.0, c=0.2, d=1),
                     G=FieldSpec.affine(1.0, -0.5, c=-0.4, d=1), lam=0.0,
                     noise=identity_noise(1), x0=np.array([0.5]))


@pytest.mark.parametrize("kind, d", [("coupled", 1), ("coupled", 2), ("coupled", 3),
                                     ("nondiagonal", 2), ("nondiagonal", 3), ("shifted", 1)])
def test_composed_endpoint_map_matches_flow_forward(kind, d):
    m = {"coupled": lambda: coupled_model(K=1.0, d=d), "nondiagonal": lambda: nondiagonal_model(d),
         "shifted": shifted_model}[kind]()
    z = np.random.default_rng(d).uniform(-0.5, 1.5, size=(9, d))
    u0 = penalized_data(m.x0, 0.1)(z)
    M, b = characteristics._affine_endpoint_map(m, 0.4, 80)
    assert M.shape == (2 * d, 2 * d) and b.shape == (2 * d,)
    y = np.concatenate([z, u0], axis=1) @ M + b
    want = np.concatenate(flow_forward(m, z, u0, 0.4, rk_steps=80), axis=1)
    assert np.all(np.abs(y - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_affine_shooting_takes_one_rk4_step(monkeypatch):
    # the endpoint map is built from one RK4 step of the basis rows, and
    # Newton never flows a row step by step
    steps, flows = [], []
    orig_step, orig_flow = rk4_step, flow_forward
    monkeypatch.setattr(characteristics, "rk4_step",
                        lambda *a, **k: steps.append(1) or orig_step(*a, **k))
    monkeypatch.setattr(characteristics, "flow_forward",
                        lambda *a, **k: flows.append(1) or orig_flow(*a, **k))
    m = nondiagonal_model(2)
    pts = np.random.default_rng(4).uniform(0.0, 1.0, size=(6, 2))
    got = solve_by_shooting(m, penalized_data(m.x0, 0.1), 0.4, pts)
    assert steps == [1] and flows == []
    assert np.isfinite(got).all()


def test_registered_shooting_flows_forward(monkeypatch):
    flows = []
    orig = flow_forward
    monkeypatch.setattr(characteristics, "flow_forward",
                        lambda *a, **k: flows.append(np.shape(a[1])) or orig(*a, **k))
    m = ModelSpec(d=2, F=FieldSpec.registered("capped_x1_burgers"),
                  G=FieldSpec.affine(0.0, 0.0, d=2), lam=0.0,
                  noise=identity_noise(2), x0=np.array([0.5, 0.5]))
    U0 = penalized_data(m.x0, 0.2)
    x = np.array([[2.0, 0.7], [2.5, 0.2]])
    got = solve_by_shooting(m, U0, 0.3, x)
    assert flows[0] == (10, 2) and len(flows) >= 2
    # these feet have z_1 > 1, where the drift is p and G = 0 keeps it
    # constant, so U(t, x) = (x - x0)/(eps + t)
    assert np.allclose(got, (x - m.x0) / 0.5, rtol=0, atol=1e-9)


def exploding_model():
    """G = 5000 p: e^(5000 t) overflows long before t = 0.4."""
    return ModelSpec(d=1, F=FieldSpec.affine(0.0, 1.0, d=1),
                     G=FieldSpec.affine(0.0, 5000.0, d=1), lam=0.0,
                     noise=identity_noise(1), x0=np.array([0.5]))


def test_exploding_affine_shooting_raises(monkeypatch):
    # the composed map overflows, so the call flows its rows step by step and
    # raises where flow_forward does, with its last finite state
    m = exploding_model()
    assert characteristics._affine_endpoint_map(m, 0.4, 80) == (None, None)
    flows = []
    orig = flow_forward
    monkeypatch.setattr(characteristics, "flow_forward",
                        lambda *a, **k: flows.append(a[1:]) or orig(*a, **k))
    with pytest.raises(IntegrationError, match="after step 71 of 80") as exc:
        solve_by_shooting(m, penalized_data(m.x0, 0.1), 0.4, np.array([0.6]))
    with pytest.raises(IntegrationError) as want:
        orig(m, *flows[0])
    assert len(flows) == 1 and np.shape(flows[0][0]) == (3, 1)
    s, x, u = exc.value.last_state
    assert s == want.value.last_state[0] == pytest.approx(0.355)
    assert np.array_equal(x, want.value.last_state[1])
    assert np.array_equal(u, want.value.last_state[2])
    assert np.isfinite(u).all() and np.all(u > 1e300)


def test_overflowing_endpoint_flows_step_by_step():
    # G = 500 p keeps the composed map finite (about 1e83), but start values
    # near 1e228 overflow the endpoint, so the call flows its rows instead
    m = dataclasses.replace(exploding_model(), G=FieldSpec.affine(0.0, 500.0, d=1))
    M, b = characteristics._affine_endpoint_map(m, 0.4, 80)
    assert np.isfinite(M).all() and 1e80 < np.abs(M).max() < 1e90
    with pytest.raises(IntegrationError, match="characteristic blew up"):
        solve_by_shooting(m, penalized_data(m.x0, 1e-228), 0.4, np.array([0.6]))


@register_field("nan_above_one")
def _nan_above_one(x, p):
    return np.where(p > 1.0, np.nan, 1.0)


# U(0.3, y) of the straightened model below at y = (0.3, 0.2) and (-0.5, 0.1),
# shot through flow_forward when the straightened fields were wrapped
# registered fields; the composed affine map gave 0.0447 and -1.5945 for u_1
STRAIGHTENED_SHOT = [[0.03833129510321324, 0.41549654455895824],
                     [-1.5846755134393713, 0.20774827227947915]]


def test_shooting_reads_a_straightened_model_at_x_of_y():
    # G = x/2 read at x(y) is affine in x, not in y: the composed RK4 map of
    # the affine blocks would be a wrong answer, so shooting flows the rows
    base = ModelSpec(d=2, F=FieldSpec.registered("capped_x1_burgers"),
                     G=FieldSpec.affine(0.5, 0.0, d=2), lam=0.0,
                     noise=identity_noise(2), x0=np.array([0.5, 0.0]))
    m = transformed_model(HalfspaceModel(base=base, ftilde=FieldSpec.affine(0.0, 1.0, d=2)))
    assert characteristics._affine_endpoint_map(m, 0.3, 64) == (None, None)
    u = solve_by_shooting(m, penalized_data(m.x0, 0.2), 0.3, np.array([[0.3, 0.2], [-0.5, 0.1]]))
    assert np.max(np.abs(u - STRAIGHTENED_SHOT)) <= 1e-12


def test_flow_forward_nonfinite_keeps_last_state():
    # dx/ds = 0, du/ds = 1 while u <= 1 and nan beyond: with h = 0.25 the
    # first row's step from u = 1 is the first to turn non-finite
    m = ModelSpec(d=1, F=FieldSpec.affine(0.0, 0.0, d=1),
                  G=FieldSpec.registered("nan_above_one"), lam=0.0,
                  noise=identity_noise(1), x0=np.array([0.5]))
    z, u0 = np.array([[0.3], [0.7]]), np.array([[0.0], [-5.0]])
    with pytest.raises(IntegrationError, match="after step 4 of 8") as exc:
        flow_forward(m, z, u0, 2.0, rk_steps=8)
    s, x, u = exc.value.last_state
    assert s == 1.0
    assert np.array_equal(x, z)
    assert np.array_equal(u, [[1.0], [-4.0]])


def test_shooting_baseline_closed_form():
    m = baseline_model()
    U0 = penalized_data(m.x0, 0.1)
    got = solve_by_shooting(m, U0, 0.4, np.array([1.0]))
    assert abs(got[0] - 1.0) <= 1e-8  # (1.0 - 0.5)/(0.1 + 0.4)
    got = solve_by_shooting(m, U0, 0.9, np.array([-0.5]))
    assert abs(got[0] - (-1.0)) <= 1e-8


def test_shooting_small_time_expansion():
    # small t is shot like any other: G = 0 but F = p carries U0 along, so
    # U(t, x) = (x - x0)/(eps + t), where the expansion U0(x) + t G(x, U0(x))
    # would read (x - x0)/eps, off by about t |F| / eps
    m = baseline_model()
    x = np.array([1.0])
    for eps in (0.1, 0.0125, 0.0001953125):
        U0 = penalized_data(m.x0, eps)
        assert np.array_equal(solve_by_shooting(m, U0, 0.0, x), U0(x))
        for t in (1e-9, 1e-6, 1e-4, 9e-4, 1e-3):
            got = solve_by_shooting(m, U0, t, x)
            assert got[0] == pytest.approx((1.0 - 0.5) / (eps + t), rel=1e-10, abs=0)


def test_shooting_matches_coupled_closed_form():
    m = coupled_model(K=1.0)
    U0 = penalized_data(m.x0, 0.1)
    got = solve_by_shooting(m, U0, 0.3, np.array([1.0]))
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
    # digest of the values the serial per-point RK4 produced
    assert digest12(batch) == \
        "0a0c5e9c75e10e4deb832abe3bdb634b88e3addec265c373dece27c1ed8e59c7"
    single = [solve_by_shooting(m, U0, 0.4, x) for x in pts]
    assert all(v.shape == (2,) for v in single)
    assert np.max(np.abs(batch - np.array(single))) <= 1e-9
    # short horizons shoot too: flowing the points forward in 4000 fine steps
    # and shooting back onto the endpoints gives the flowed u
    for t in (1e-4, 5e-4):
        x, u = flow_forward(m, pts, U0(pts), t, rk_steps=4000)
        assert np.max(np.abs(solve_by_shooting(m, U0, t, x) - u)) <= 1e-10


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
    # F = p, G = 0 and U0(z) = -10 z send every foot point to x(0.1) = 0, so
    # the endpoint map is singular and no foot point lands on x = 0.2
    m = baseline_model()
    with pytest.raises(NewtonError, match=r"shooting left 1 points above tolerance "
                                          r"\(worst residual 2\.000e-01\)"):
        solve_by_shooting(m, lambda z: -10.0 * z, 0.1, np.array([0.2]))


@pytest.mark.parametrize("t", [-0.5, -1e-4, np.nan, np.inf])
def test_shooting_refuses_a_bad_horizon(t):
    # refused before U0 is called, so a bad t never reaches the step count or
    # the flow
    calls = []
    m = baseline_model()
    U0 = penalized_data(m.x0, 0.1)
    with pytest.raises(ConfigError, match="finite t >= 0"):
        solve_by_shooting(m, lambda z: calls.append(1) or U0(z), t, np.array([1.0]))
    assert calls == []


def test_forward_map_injective():
    # the flow z -> x(t) of a monotone field must preserve order in d=1
    m = baseline_model()
    U0 = penalized_data(m.x0, 0.1)
    z = np.linspace(-0.9, 1.9, 100)[:, None]
    xe, _ = flow_forward(m, z, U0(z), 0.6, rk_steps=200)
    assert np.all(np.diff(xe[:, 0]) > 0)
