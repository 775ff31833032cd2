"""Continuation toward the planning limit and its diagnostics.

Gap-law and certificate constants come from tests/oracles/derive_values.py:
the sup-gap between consecutive eps solutions of the baseline model is
max|x-x0| * (1/(t_min+e2) - 1/(t_min+e1)) and the certificate horizon of the
stiff model below is 1.5/|DpF| from the second compatibility inequality.
"""

import numpy as np
import pytest

from mfgplan import (AffineNoiseMap, AnalyticField, Box, ConfigError,
                     FieldSpec, ModelSpec, SolverParams, certificate_bound,
                     certificate_horizon, cross_monotonicity,
                     estimate_certificate, extract_limit, extracted_field,
                     graph_limit_diagnostic, penalized_slice, run_penalization,
                     solve_master, yosida_apply)
from conftest import (X0, baseline_model, box1d, closed_form, coupled_model,
                      digest12, jump_model)

# gap law for the 4-term schedule at t_min = 0.2 (box [-1, 2], x0 = 0.5)
GAP_LAW = (1.25, 1.25, 1.0)
# horizon of the stiff certificate model: second inequality root 1.5/1000
STIFF_T_F = 1.5e-3
STIFF_INEQ1_ROOT = 0.02211207727381336


def test_schedule_validation():
    m = baseline_model()
    box = box1d(n=50)
    params = SolverParams(t_end=0.3, n_rec=4)
    with pytest.raises(ConfigError):
        run_penalization(m, box, (), params)
    with pytest.raises(ConfigError):
        run_penalization(m, box, (0.2, 0.4), params)
    with pytest.raises(ConfigError):
        run_penalization(m, box, (0.4, 0.4), params)
    with pytest.raises(ConfigError):
        run_penalization(m, box, (0.4, 0.2, 0.3), params)
    with pytest.raises(ConfigError):
        run_penalization(m, box, (0.4, -0.1), params)


def test_gap_law(lq0_run):
    assert len(lq0_run.gaps) == 3
    for got, law in zip(lq0_run.gaps, GAP_LAW):
        assert abs(got - law) / law <= 0.1
    assert not lq0_run.converged  # 1.0 is far above the default 1e-2
    assert lq0_run.failed_eps is None


def test_deep_schedule_converges():
    m = baseline_model()
    box = box1d(n=100)
    params = SolverParams(t_end=0.5, n_rec=26)
    eps = tuple(0.2 * 0.5 ** k for k in range(12))
    run = run_penalization(m, box, eps, params, t_min=0.2)
    assert run.converged
    assert run.gaps[-1] <= 1e-2
    # asymptotically the gap is proportional to eps: deep ratios near 2
    tail = np.array(run.gaps[-3:])
    assert np.all(tail[:-1] / tail[1:] >= 1.5)


def test_failed_eps_recorded():
    m = baseline_model()
    box = box1d(n=50)
    params = SolverParams(t_end=0.2, n_rec=3)
    run = run_penalization(m, box, (0.2, 1e-15), params, t_min=0.1)
    assert run.failed_eps == 1e-15
    assert run.failure is not None
    assert len(run.solutions) == 1
    assert not run.converged


def test_extraction_round_trip(lq0_run):
    # regularize-then-extract must reproduce the stored slice; both
    # directions are independent Newton solves
    sol = lq0_run.smallest_eps_solution
    for t in (0.2, 0.5, 1.0):
        ext = extract_limit(lq0_run, t)
        assert not np.any(ext.failed)
        gap = float(np.max(np.abs(ext.values - sol.slice_at(t).values)))
        assert gap <= 1e-6
    # re-regularizing the extracted slice returns the regularized values
    box = lq0_run.box
    ext = extract_limit(lq0_run, 0.5)
    V_direct = yosida_apply(sol.slice_at(0.5), lq0_run.delta, box.node_list())
    V_back = yosida_apply(ext.slice, lq0_run.delta, box.node_list())
    assert float(np.max(np.abs(V_direct - V_back))) <= 1e-8


def test_extraction_delta_independent(lq0_run):
    a = extract_limit(lq0_run, 0.5, delta=0.1)
    b = extract_limit(lq0_run, 0.5, delta=0.25)
    assert float(np.max(np.abs(a.values - b.values))) <= 1e-6


def test_extraction_approaches_closed_form(lq0_run):
    # the smallest eps of the fixture is 0.05; extraction returns the
    # penalized field (x - x0)/(t + eps), not yet the eps -> 0 limit
    ext = extract_limit(lq0_run, 0.5)
    probes = np.linspace(-0.2, 1.2, 11)[:, None]
    got = ext.slice.eval(probes)
    want = closed_form(0.5, probes, eps=0.05)
    assert float(np.max(np.abs(got - want))) <= 5e-3


def test_extract_below_t_min_rejected(lq0_run):
    with pytest.raises(ConfigError):
        extract_limit(lq0_run, 0.05)


def test_extracted_field_assembly(lq0_run):
    field = extracted_field(lq0_run, [0.4, 0.2, 0.8])
    assert np.allclose(field.times, [0.2, 0.4, 0.8])
    sol = lq0_run.smallest_eps_solution
    for t in (0.2, 0.4, 0.8):
        gap = float(np.max(np.abs(field.slice_at(t).values
                                  - sol.slice_at(t).values)))
        assert gap <= 1e-6


def test_graph_diagnostic_exact_on_limit_field():
    U = AnalyticField(lambda t, x: closed_form(t, x), box=box1d(n=600))
    times = (0.4, 0.2, 0.1, 0.05)
    diag = graph_limit_diagnostic(U, np.array([X0]), 2.0, times)
    # sublevel set is exactly {|x - x0| <= M t}: diameters 0.8, 0.4, 0.2, 0.1
    want = 2.0 * np.asarray(sorted(times, reverse=True))
    assert np.allclose(diag.diameters, want, atol=2e-2)
    assert diag.passed
    assert len(diag.halving_ratios) == 3
    assert np.all(np.abs(diag.halving_ratios - 2.0) <= 0.1)
    assert abs(diag.slope - 2.0) <= 0.05
    # doubling the level doubles every diameter
    diag2 = graph_limit_diagnostic(U, np.array([X0]), 4.0, (0.2, 0.1))
    assert np.allclose(diag2.diameters, 2.0 * diag.diameters[1:3], atol=4e-2)


def test_graph_diagnostic_flags_nonshrinking():
    U = AnalyticField(lambda t, x: np.zeros_like(x), box=box1d(n=100))
    diag = graph_limit_diagnostic(U, np.array([X0]), 2.0, (0.4, 0.2))
    assert not diag.passed  # sublevel set is the whole box at every t


def test_certificate_bound_baseline():
    m = baseline_model()
    assert abs(certificate_bound(m, 0.5) - 4.0) <= 1e-12  # 2/t with gamma = 0
    assert certificate_horizon(m, 1.0) == pytest.approx(1.0)  # never violated


def test_certificate_horizon_stiff_model():
    m = ModelSpec(d=1, F=FieldSpec.affine(0.0, 1.0, d=1),
                  G=FieldSpec.affine(1.0, 0.0, d=1), lam=0.0,
                  noise=AffineNoiseMap.identity(1), x0=np.zeros(1), alpha=1.0,
                  lip_Fx=0.0, lip_Fp=1000.0, lip_Gx=1.0, lip_Gp=0.0)
    t_f = certificate_horizon(m, 1.0)
    assert abs(t_f - STIFF_T_F) <= 1e-6
    assert t_f < STIFF_INEQ1_ROOT  # the second inequality binds first


def test_certificate_requires_alpha():
    m = ModelSpec(d=1, F=FieldSpec.affine(0.0, 1.0, d=1),
                  G=FieldSpec.affine(0.0, 0.0, d=1), lam=0.0,
                  noise=AffineNoiseMap.identity(1), x0=np.zeros(1), alpha=0.0,
                  lip_Fp=1.0)
    with pytest.raises(ConfigError):
        certificate_horizon(m, 1.0)
    report = estimate_certificate(m, None, [0.5])
    assert not report.applicable
    assert not report.passed


def test_estimate_certificate_baseline(lq0_solution):
    m = baseline_model()
    rep = estimate_certificate(m, lq0_solution, [0.25, 0.5, 1.0])
    assert rep.applicable
    assert rep.t_f == pytest.approx(1.0)
    assert np.all(rep.checked)
    # measured slope 1/(t + eps) sits under the certified 2/t
    assert np.all(rep.measured <= rep.bound)
    assert rep.passed


def test_cross_monotonicity_identical_and_shifted():
    box = box1d(n=100)
    U = AnalyticField(lambda t, x: closed_form(t, x), box=box)
    same = cross_monotonicity(U, U, 0.5, n_pairs=4000, rng_seed=2)
    assert same >= -1e-9
    V = AnalyticField(lambda t, x: (x - X0 - 0.3) / t, box=box)
    crossed = cross_monotonicity(U, V, 0.5, n_pairs=4000, rng_seed=2)
    assert crossed < -1e-3


def test_cross_monotonicity_solver_vs_extraction(lq0_run):
    sol = lq0_run.smallest_eps_solution
    ext = extracted_field(lq0_run, [0.3, 0.5, 0.8])
    val = cross_monotonicity(sol.field(), ext.field(), 0.5, n_pairs=10000,
                             rng_seed=0)
    assert val >= -1e-3


def test_coupled_two_dimensional_gaps_decrease():
    # no closed form: continuation with source 0.2 x in d = 2
    m = ModelSpec(d=2, F=FieldSpec.affine(0.0, 1.0, d=2),
                  G=FieldSpec.affine(0.2, 0.0, d=2), lam=0.0,
                  noise=AffineNoiseMap.identity(2),
                  x0=np.array([0.3, 0.1]), alpha=1.0,
                  lip_Fx=0.0, lip_Fp=1.0, lip_Gx=0.2, lip_Gp=0.0)
    box = Box(np.array([-1.0, -1.0]), np.array([1.5, 1.5]), np.array([60, 60]))
    params = SolverParams(t_end=0.6, n_rec=31)
    eps = (0.2, 0.1, 0.05, 0.025)
    run = run_penalization(m, box, eps, params, t_min=0.2)
    gaps = np.asarray(run.gaps)
    assert np.all(np.diff(gaps) < 0)
    ext = extract_limit(run, 0.4)
    from mfgplan import check_monotone_map
    mono = check_monotone_map(ext.slice.eval, box, rng_seed=1)
    assert mono >= -1e-4


# sha256 of the extracted 2-D jump limit below at 12 significant digits; it
# pins the jump gather and both Newton solves of the extraction on a 2-D grid
JUMP_2D_LIMIT_SHA256 = "acde6d7d6d5d4e94a019ebe420ddf69c6cdea1b9e7ece3764536cb86ec2c92e4"


def test_extract_limit_2d_jump_bits_pinned():
    # F = p, G = x, relabeling x -> 0.5 x at rate 1
    m = ModelSpec(d=2, F=FieldSpec.affine(0.0, 1.0, d=2), G=FieldSpec.affine(1.0, 0.0, d=2),
                  lam=1.0, noise=AffineNoiseMap(0.5 * np.eye(2), np.zeros(2)),
                  x0=np.array([0.5, 0.5]), alpha=1.0, lip_Fp=1.0, lip_Gx=1.0)
    box = Box(np.full(2, -1.0), np.full(2, 2.0), np.full(2, 40))
    run = run_penalization(m, box, (0.2, 0.1), SolverParams(t_end=0.5, n_rec=6), t_min=0.2)
    lim = extract_limit(run, 0.4)
    assert not np.any(lim.failed)
    assert digest12(lim.values) == JUMP_2D_LIMIT_SHA256
