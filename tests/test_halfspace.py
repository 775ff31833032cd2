"""Wall-adapted planning through the logarithmic straightening.

The derived model used throughout: drift with first component x_1 p_1 below
the seam (registered as capped_x1_burgers), factored partner p, no source, no
jumps. Its straightened system is the baseline quadratic model in y, so the
pulled-back first component is (1 + ln x_1 - y01)/(t + eps) for x_1 < 1 and
the log-fit coefficient is exactly 1/(t + eps).
"""

import numpy as np
import pytest

import mfgplan.halfspace
from mfgplan import (AffineNoiseMap, AnalyticField, Box, ConfigError,
                     FieldSpec, HalfspaceModel, ModelSpec, SolverParams,
                     chain_rule_defect, check_factorization, check_inward_flow,
                     check_log_blowup, from_log_coordinates, integrate_backward,
                     solve_halfspace, to_log_coordinates, transformed_model)

E_INV = 0.36787944117144233


def capped_model(d=2, x0_1=0.5, lam=0.0, noise=None):
    x0 = np.zeros(d)
    x0[0] = x0_1
    return ModelSpec(d=d, F=FieldSpec.registered("capped_x1_burgers"),
                     G=FieldSpec.affine(0.0, 0.0, d=d), lam=lam,
                     noise=noise if noise is not None else AffineNoiseMap.identity(d),
                     x0=x0, alpha=1.0, lip_Fx=1.0, lip_Fp=1.0)


def derived_halfspace(d=2, x0_1=0.5, lam=0.0, noise=None):
    return HalfspaceModel(base=capped_model(d, x0_1, lam, noise),
                          ftilde=FieldSpec.affine(0.0, 1.0, d=d))


@pytest.fixture(scope="module")
def derived_solution():
    hm = derived_halfspace()
    box_y = Box(np.array([-5.0, -1.0]), np.array([2.0, 1.0]),
                np.array([100, 20]))
    params = SolverParams(t_end=0.6, n_rec=31, dt_max=0.01)
    return solve_halfspace(hm, box_y, (0.05, 0.0125), params, t_min=0.2,
                           conv_tol=10.0)


def test_transformed_model_bind_matches_eval():
    rng = np.random.default_rng(8)
    my = transformed_model(derived_halfspace())
    y = rng.uniform(-4.0, 2.0, size=(9, 5, 2))
    F_at, G_at = my.bind(y)
    for _ in range(2):
        p = rng.uniform(-3.0, 3.0, size=y.shape)
        assert np.array_equal(F_at(p), my.eval_F(y, p))
        assert np.array_equal(G_at(p), my.eval_G(y, p))


def test_straightening_not_repeated_per_step(monkeypatch):
    calls = []

    def counted(y):
        calls.append(1)
        return from_log_coordinates(y)

    monkeypatch.setattr(mfgplan.halfspace, "from_log_coordinates", counted)
    hm = derived_halfspace()
    box_y = Box(np.array([-3.0, -1.0]), np.array([2.0, 1.0]), np.array([50, 20]))
    counts = []
    for t_end in (0.1, 0.6):
        calls.clear()
        hsol = solve_halfspace(hm, box_y, (0.1,), SolverParams(t_end=t_end, n_rec=5),
                               t_min=0.0, conv_tol=10.0)
        counts.append((len(calls), hsol.run.solutions[0].meta["steps"]))
    (short_calls, short_steps), (long_calls, long_steps) = counts
    assert long_steps > 2 * short_steps
    assert long_calls == short_calls <= 4


def test_log_map_pointwise():
    assert to_log_coordinates(np.array([1.0, 0.3]))[0] == 1.0  # seam fixed
    assert abs(to_log_coordinates(np.array([E_INV]))[0]) <= 1e-15
    assert abs(from_log_coordinates(np.array([0.0]))[0] - E_INV) <= 1e-15
    # identity above the seam
    assert to_log_coordinates(np.array([1.7, -0.4]))[0] == 1.7
    # continuous with unit slope on both sides of the seam
    h = 1e-7
    below = to_log_coordinates(np.array([1.0 - h]))[0]
    above = to_log_coordinates(np.array([1.0 + h]))[0]
    assert abs((above - below) / (2 * h) - 1.0) <= 1e-6


def test_log_map_round_trip():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2.0, 2.0, size=(100, 3))
    x[:, 0] = rng.uniform(1e-4, 5.0, size=100)
    back = from_log_coordinates(to_log_coordinates(x))
    assert float(np.max(np.abs(back - x))) <= 1e-12


def test_log_map_rejects_wall():
    with pytest.raises(ValueError, match="x_1 > 0"):
        to_log_coordinates(np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="x_1 > 0"):
        to_log_coordinates(np.array([[0.5, 0.0], [-0.1, 0.0]]))


def test_factorization_and_inward_flow():
    hm = derived_halfspace()
    assert check_factorization(hm) <= 1e-12
    assert check_inward_flow(hm.base) >= -1e-9
    # constant outward drift fails the wall condition
    bad = ModelSpec(d=1, F=FieldSpec.affine(0.0, 0.0, c=-1.0, d=1),
                    G=FieldSpec.affine(0.0, 0.0, d=1), lam=0.0,
                    noise=AffineNoiseMap.identity(1), x0=np.ones(1), alpha=1.0)
    assert check_inward_flow(bad) == pytest.approx(-1.0)


def test_halfspace_model_validation():
    with pytest.raises(ConfigError, match="x0_1"):
        derived_halfspace(x0_1=-0.5)
    # jumps must leave the first coordinate fixed
    ok = AffineNoiseMap(S=np.diag([1.0, 0.8]), e=np.zeros(2))
    derived_halfspace(lam=1.0, noise=ok)
    for S, e in [(np.diag([0.9, 1.0]), np.zeros(2)),
                 (np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2)),
                 (np.diag([1.0, 1.0]), np.array([0.1, 0.0]))]:
        with pytest.raises(ConfigError, match="x_1 fixed"):
            derived_halfspace(lam=1.0, noise=AffineNoiseMap(S=S, e=e))


def test_transformed_model_is_plain_drift():
    m_y = transformed_model(derived_halfspace())
    y = np.array([[-2.0, 0.3], [1.5, -0.2]])
    p = np.array([[0.7, -0.4], [1.2, 0.5]])
    assert np.allclose(m_y.eval_F(y, p), p, atol=1e-14)
    assert np.allclose(m_y.eval_G(y, p), 0.0)
    assert np.allclose(m_y.x0, [1.0 + np.log(0.5), 0.0])


def test_pullback_matches_closed_form(derived_solution):
    hs = derived_solution
    eps = 0.0125
    y0 = to_log_coordinates(hs.hm.base.x0)
    rng = np.random.default_rng(1)
    x = np.column_stack([rng.uniform(0.02, 0.9, 40),
                         rng.uniform(-0.5, 0.5, 40)])
    for t in (0.3, 0.5):
        got = hs.u_eval(t, x)
        want1 = (1.0 + np.log(x[:, 0]) - y0[0]) / (t + eps)
        want2 = (x[:, 1] - y0[1]) / (t + eps)
        assert float(np.max(np.abs(got[:, 0] - want1))) <= 2e-2 * np.max(np.abs(want1))
        assert float(np.max(np.abs(got[:, 1] - want2))) <= 2e-2


def test_log_fit_recovers_coefficient(derived_solution):
    hs = derived_solution
    eps = 0.0125
    tail = np.geomspace(0.02, 0.9, 12)
    for t in (0.5, 0.25):
        fit = check_log_blowup(hs.u_eval, t, tail, [0.0])
        assert fit.passed(1e-3)
        assert abs(fit.a - 1.0 / (t + eps)) <= 0.02 / t
    a_half = check_log_blowup(hs.u_eval, 0.25, tail, [0.0]).a
    a_full = check_log_blowup(hs.u_eval, 0.5, tail, [0.0]).a
    assert abs(a_half / a_full - (0.5 + eps) / (0.25 + eps)) <= 0.05


def test_log_fit_flat_without_straightening():
    # an affine field restricted to the half space carries no log term
    U = AnalyticField(lambda t, x: (x - 0.5) / t)
    tail = np.geomspace(1e-3, 0.5, 12)
    a_lin = check_log_blowup(lambda t, p: U.eval(t, p), 0.5, tail, []).a
    assert abs(a_lin) <= 0.15  # the derived model gives 2/t = 4 here


def test_log_fit_rejects_bad_tail(derived_solution):
    with pytest.raises(ConfigError):
        check_log_blowup(derived_solution.u_eval, 0.5, [0.5, 1.5], [0.0])
    with pytest.raises(ConfigError):
        check_log_blowup(derived_solution.u_eval, 0.5, [-0.1, 0.5], [0.0])


def test_chain_rule_identity(derived_solution):
    rng = np.random.default_rng(4)
    probes = np.column_stack([rng.uniform(0.05, 0.9, 50),
                              rng.uniform(-0.5, 0.5, 50)])
    assert chain_rule_defect(derived_solution, 0.4, probes) <= 2e-2
    with pytest.raises(ConfigError):
        chain_rule_defect(derived_solution, 0.4, np.array([[1.2, 0.0]]))


def test_seam_region_matches_direct_solve():
    # target above the seam: on {x_1 >= 1} the straightening is the identity,
    # so the pulled-back field and a plain x-space solve of the same capped
    # model must agree there to grid tolerance
    from mfgplan import run_penalization
    hm = derived_halfspace(d=1, x0_1=1.3)
    params = SolverParams(t_end=0.6, n_rec=31, dt_max=0.01)
    box_y = Box(np.array([-2.0]), np.array([3.0]), np.array([150]))
    hs = solve_halfspace(hm, box_y, (0.1, 0.05), params, t_min=0.2,
                         conv_tol=10.0)
    box_x = Box(np.array([0.05]), np.array([3.0]), np.array([150]))
    direct = run_penalization(hm.base, box_x, (0.1, 0.05), params, t_min=0.2,
                              conv_tol=10.0)
    dfield = direct.smallest_eps_solution.field()
    x = np.linspace(1.1, 2.5, 15)[:, None]
    for t in (0.3, 0.5):
        gap = float(np.max(np.abs(hs.u_eval(t, x) - dfield.eval(t, x))))
        assert gap <= 2e-2
        # both sit on the affine closed form (x - x0)/(t + eps) up there
        want = (x[:, 0] - 1.3) / (t + 0.05)
        rel = float(np.max(np.abs(hs.u_eval(t, x)[:, 0] - want)))
        assert rel <= 2e-2 * float(np.max(np.abs(want)))


def test_trajectories_stay_off_wall(derived_solution):
    hs = derived_solution
    m_flow = ModelSpec(d=2, F=hs.hm.base.F, G=hs.hm.base.G, lam=0.0,
                       noise=AffineNoiseMap.identity(2), x0=hs.hm.base.x0,
                       alpha=1.0)
    traj = integrate_backward(hs.u_field(), m_flow, [0.08, 0.4], 0.6, 0.05,
                              steps=300)
    assert float(np.min(traj.states[:, 0])) > 0.0
    # backward paths pull toward the target (0.5, 0)
    assert traj.final_distance(hs.hm.base.x0) < np.linalg.norm(
        np.array([0.08, 0.4]) - hs.hm.base.x0)
