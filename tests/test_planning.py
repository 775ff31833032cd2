"""Continuation toward the planning limit and its diagnostics.

Gap-law and certificate constants come from tests/oracles/derive_values.py:
the sup-gap between consecutive eps solutions of the baseline model is
max|x-x0| * (1/(t_min+e2) - 1/(t_min+e1)) and the certificate horizon of the
stiff model below is 1.5/|DpF| from the second compatibility inequality.
"""

import dataclasses
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mfgplan import planning
from mfgplan import (AffineNoiseMap, BlowupError, Box, ConfigError,
                     FieldSpec, GridSolution, HalfspaceModel, ModelSpec, NewtonError,
                     SolverParams, certificate_horizon, cross_monotonicity,
                     estimate_certificate, extract_limit,
                     eqV_residual, graph_limit_diagnostic, penalized_slice,
                     run_penalization, solve_master, transformed_model, yosida_apply,
                     yosida_field)
from mfgplan.cli import load_config, main
from mfgplan.model import CoupleConstants
from conftest import (X0, AnalyticField, assert_same_bits, baseline_model, box1d,
                      check_monotone_map, closed_form, coupled_model, digest12, identity_noise,
                      jump_model)

# gap law for the 4-term schedule at t_min = 0.2 (box [-1, 2], x0 = 0.5)
GAP_LAW = (1.25, 1.25, 1.0)
# horizon of the stiff certificate model: second inequality root 1.5/1000
STIFF_T_F = 1.5e-3
STIFF_INEQ1_ROOT = 0.02211207727381336
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    with pytest.raises(ConfigError, match="> 0"):  # refused, not marched to a blowup
        run_penalization(m, box, (0.4, float("nan")), params)
    with pytest.raises(ConfigError, match="no recorded times"):  # checked before any march
        run_penalization(m, box, (0.4, 1e-15), params, t_min=0.5)


@pytest.mark.parametrize("conv_tol", [math.nan, math.inf, -1.0])
def test_conv_tol_must_be_finite_and_nonnegative(monkeypatch, conv_tol):
    # refused before any march: a nan tolerance would make every run unconverged
    monkeypatch.setattr(planning, "solve_master", lambda *args, **kwargs: pytest.fail("marched"))
    with pytest.raises(ConfigError, match="conv_tol must be finite and >= 0"):
        run_penalization(baseline_model(), box1d(n=50), (0.4, 0.2),
                         SolverParams(t_end=0.3, n_rec=4), conv_tol=conv_tol)


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
    box = sol.box
    ext = extract_limit(lq0_run, 0.5)
    V_direct = yosida_apply(sol.slice_at(0.5), lq0_run.delta, box.node_list())
    V_back = yosida_apply(ext.slice, lq0_run.delta, box.node_list())
    assert float(np.max(np.abs(V_direct - V_back))) <= 1e-8


def test_extraction_delta_independent(lq0_run):
    a = extract_limit(dataclasses.replace(lq0_run, delta=0.1), 0.5)
    b = extract_limit(dataclasses.replace(lq0_run, delta=0.25), 0.5)
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


def test_unrecorded_time_is_config_error_naming_the_nearest_record():
    # every entry point that reads a recorded slice refuses a time between two
    # records with the package's own error, and points to the nearest record
    m = baseline_model()
    run = run_penalization(m, box1d(n=50), (0.2, 0.1), SolverParams(t_end=1.0, n_rec=11))
    sol = run.smallest_eps_solution
    for call in (lambda: extract_limit(run, 0.57), lambda: eqV_residual(m, sol, 0.0, 0.57).values,
                 lambda: estimate_certificate(m, sol, [0.57]),
                 lambda: yosida_field(sol, 0.25, [0.5, 0.57, 0.7])):
        with pytest.raises(ConfigError,
                           match=r"^t=0\.57 is not a recorded time; the nearest is 0\.6$"):
            call()


def test_verify_runs_no_extraction(tmp_path, monkeypatch):
    # verify checks the field it solved: no resolvent or shift inversion runs,
    # so neither can fail it
    def refuse(*args, **kwargs):
        raise NewtonError("verify must not extract")

    monkeypatch.setattr(planning, "yosida_apply", refuse)
    monkeypatch.setattr(planning, "invert_shift", refuse)
    out = tmp_path / "verify"
    assert main(["verify", "--config", str(CONFIGS / "lq0.cfg"), "--quiet",
                 "--out", str(out)]) == 0
    assert hashlib.sha256((out / "curves.csv").read_bytes()).hexdigest() == \
        "f128ed5f8fade2754fbd7cc69278c641a94780b902eb63f52a04263f8680c513"


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


def test_graph_diagnostic_skips_a_zero_time():
    # t = 0 pairs with no other time and adds nothing to the slope fit
    U = AnalyticField(lambda t, x: closed_form(t, x, eps=0.01), box=box1d(n=600))
    x0 = np.array([X0])
    with_zero = graph_limit_diagnostic(U, x0, 2.0, (0.4, 0.2, 0.0))
    without = graph_limit_diagnostic(U, x0, 2.0, (0.4, 0.2))
    assert with_zero.halving_ratios.tobytes() == without.halving_ratios.tobytes()
    assert with_zero.slope == without.slope and with_zero.passed and without.passed
    assert with_zero.diameters[:2].tobytes() == without.diameters.tobytes()
    alone = graph_limit_diagnostic(U, x0, 2.0, (0.0,))
    assert math.isnan(alone.slope) and alone.halving_ratios.size == 0 and not alone.passed


@pytest.mark.parametrize("M", [math.nan, math.inf, 0.0, -2.0])
def test_graph_diagnostic_level_must_be_finite_and_positive(M):
    # a nan level would pass an M <= 0 check and measure every diameter as 0
    U = AnalyticField(lambda t, x: closed_form(t, x), box=box1d(n=100))
    with pytest.raises(ConfigError, match="level M must be finite and > 0"):
        graph_limit_diagnostic(U, np.array([X0]), M, (0.4, 0.2))


def test_graph_diagnostic_flags_nonshrinking():
    U = AnalyticField(lambda t, x: np.zeros_like(x), box=box1d(n=100))
    diag = graph_limit_diagnostic(U, np.array([X0]), 2.0, (0.4, 0.2))
    assert not diag.passed  # sublevel set is the whole box at every t


def test_certificate_bound_baseline(lq0_solution):
    m = baseline_model()
    bound = estimate_certificate(m, lq0_solution, [0.5]).bound
    assert abs(bound[0] - 4.0) <= 1e-12  # 2/t with gamma = 0
    assert certificate_horizon(m.consts, 0.0, 1.0) == pytest.approx(1.0)  # never violated


def test_certificate_horizon_stiff_model():
    t_f = certificate_horizon(CoupleConstants(alpha=1.0, lip_Fx=0.0, lip_Fp=1000.0,
                                              lip_Gx=1.0, lip_Gp=0.0), 0.0, 1.0)
    assert abs(t_f - STIFF_T_F) <= 1e-6
    assert t_f < STIFF_INEQ1_ROOT  # the second inequality binds first


def test_certificate_horizon_pinned_on_the_stress_model():
    # perfbench's 2-D stress model (F = p, G = x, lambda = 1, S = 0.5 I): the
    # first inequality's root 2 / (A + sqrt(A^2 + 8k)) with A = 0.25, k = 1,
    # exactly (tests/oracles/derive_values.py prints it), with the derived constants
    m = ModelSpec(d=2, F=FieldSpec.affine(0.0, 1.0, d=2), G=FieldSpec.affine(1.0, 0.0, d=2),
                  lam=1.0, noise=AffineNoiseMap(0.5 * np.eye(2), np.zeros(2)),
                  x0=np.full(2, 0.5))
    damp = m.lam * (1.0 - m.noise.norm_S ** 2)
    assert certificate_horizon(m.consts, damp, 1.0) == 0.6473635432250342


def _certificate_terms(lam, s, alpha, fx, fp, gx, gp, t):
    """The two certificate inequalities written out at t, with the size of their terms."""
    beta, gamma = 0.5 * alpha * t, gx * alpha * t ** 2
    damp = lam * (1.0 - s ** 2)
    terms1 = (alpha, -beta * (gx + 2.0 * fx - damp), -0.5 * alpha, -gamma * fp)
    terms2 = (2.0 * gx * alpha * t, gamma * (damp - fp - 2.0 * gp), -beta * gx)
    return [(sum(terms), sum(np.abs(x) for x in terms)) for terms in (terms1, terms2)]


def test_certificate_horizon_is_the_first_failure():
    # over random constant sets, some of them 0: both inequalities hold on
    # [0, t_f] (to round-off of their terms), and unless t_f is t_max one of
    # them fails just past it
    rng = np.random.default_rng(11)
    ended = 0
    for _ in range(200):
        lam, s, alpha = rng.uniform(0.0, 3.0), rng.uniform(0.0, 1.5), rng.uniform(0.1, 3.0)
        fx, fp, gx, gp = rng.uniform(0.0, 5.0, 4) * (rng.random(4) > 0.3)
        t_max = rng.uniform(0.2, 2.0)
        t_f = certificate_horizon(CoupleConstants(alpha, fx, fp, gx, gp), lam * (1.0 - s ** 2),
                                  t_max)
        assert 0.0 < t_f <= t_max
        for value, size in _certificate_terms(lam, s, alpha, fx, fp, gx, gp,
                                              np.linspace(0.0, t_f, 2001)):
            assert np.all(value >= -1e-12 * size)
        if t_f < t_max:
            ended += 1
            past = _certificate_terms(lam, s, alpha, fx, fp, gx, gp, t_f * (1.0 + 1e-9))
            assert min(value for value, _ in past) < 0.0
    assert ended >= 50 and 200 - ended >= 20  # both outcomes are exercised


def test_certificate_requires_alpha():
    # F = 0, G = x: monotone, with no modulus in p
    m = ModelSpec(d=1, F=FieldSpec.affine(0.0, 0.0, d=1),
                  G=FieldSpec.affine(1.0, 0.0, d=1), lam=0.0,
                  noise=identity_noise(1), x0=np.zeros(1))
    assert m.consts.alpha == 0.0
    with pytest.raises(ConfigError, match="alpha > 0"):
        certificate_horizon(m.consts, 0.0, 1.0)
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


@pytest.mark.parametrize("n_pairs", [0, -1])
def test_cross_monotonicity_needs_a_pair(n_pairs):
    # no pair has no minimum: numpy's empty min would escape as a bare ValueError
    U = AnalyticField(lambda t, x: closed_form(t, x), box=box1d(n=100))
    with pytest.raises(ConfigError, match=f"n_pairs must be >= 1, got {n_pairs}"):
        cross_monotonicity(U, U, 0.5, n_pairs=n_pairs)


def test_cross_monotonicity_solver_vs_extraction(lq0_run):
    sol = lq0_run.smallest_eps_solution
    ext = GridSolution(box=sol.box, times=[0.5],
                       values=extract_limit(lq0_run, 0.5).values[None])
    val = cross_monotonicity(sol.field(), ext.field(), 0.5, n_pairs=10000,
                             rng_seed=0)
    assert val >= -1e-3


def test_coupled_two_dimensional_gaps_decrease():
    # no closed form: continuation with source 0.2 x in d = 2
    m = ModelSpec(d=2, F=FieldSpec.affine(0.0, 1.0, d=2),
                  G=FieldSpec.affine(0.2, 0.0, d=2), lam=0.0,
                  noise=identity_noise(2),
                  x0=np.array([0.3, 0.1]), alpha=1.0,
                  lip_Fx=0.0, lip_Fp=1.0, lip_Gx=0.2, lip_Gp=0.0)
    box = Box(np.array([-1.0, -1.0]), np.array([1.5, 1.5]), np.array([60, 60]))
    params = SolverParams(t_end=0.6, n_rec=31)
    eps = (0.2, 0.1, 0.05, 0.025)
    run = run_penalization(m, box, eps, params, t_min=0.2)
    gaps = np.asarray(run.gaps)
    assert np.all(np.diff(gaps) < 0)
    ext = extract_limit(run, 0.4)
    mono = check_monotone_map(ext.slice.eval, box, rng_seed=1)
    assert mono >= -1e-4


# sha256 of the extracted 2-D jump limit below at 12 significant digits; it
# pins the jump gather and both Newton solves of the extraction on a 2-D grid
JUMP_2D_LIMIT_SHA256 = "acde6d7d6d5d4e94a019ebe420ddf69c6cdea1b9e7ece3764536cb86ec2c92e4"


def jump_2d_model():
    """F = p, G = x, relabeling x -> 0.5 x at rate 1, on R^2."""
    return ModelSpec(d=2, F=FieldSpec.affine(0.0, 1.0, d=2), G=FieldSpec.affine(1.0, 0.0, d=2),
                     lam=1.0, noise=AffineNoiseMap(0.5 * np.eye(2), np.zeros(2)),
                     x0=np.array([0.5, 0.5]), alpha=1.0, lip_Fp=1.0, lip_Gx=1.0)


def test_extract_limit_2d_jump_bits_pinned():
    m = jump_2d_model()
    box = Box(np.full(2, -1.0), np.full(2, 2.0), np.full(2, 40))
    run = run_penalization(m, box, (0.2, 0.1), SolverParams(t_end=0.5, n_rec=6), t_min=0.2)
    lim = extract_limit(run, 0.4)
    assert not np.any(lim.failed)
    assert digest12(lim.values) == JUMP_2D_LIMIT_SHA256


def focusing_model():
    """F = -p, G = 0 in d = 1: the slope (x - x0)/(eps - t) blows up near t = eps."""
    return ModelSpec(d=1, F=FieldSpec.affine(0.0, -1.0, d=1), G=FieldSpec.affine(0.0, 0.0, d=1),
                     lam=0.0, noise=identity_noise(1), x0=np.array([X0]))


def test_failure_semantics_are_serial():
    # the 0.1 member blows up near t = 0.1, before the 0.2 member does near t = 0.2;
    # the schedule still stops at 0.2, keeping only the 0.8 solution
    m = focusing_model()
    box = box1d(n=60)
    params = SolverParams(t_end=0.3, n_rec=31)
    run = run_penalization(m, box, (0.8, 0.2, 0.1), params)
    assert run.failed_eps == 0.2
    assert not run.gaps and not run.converged
    done = solve_master(m, penalized_slice(m, box, 0.8), params)
    assert len(run.solutions) == 1
    assert np.array_equal(run.solutions[0].times, done.times)
    assert np.array_equal(run.solutions[0].values, done.values)
    assert run.solutions[0].meta == done.meta
    fails = {}
    for eps in (0.2, 0.1):
        with pytest.raises(BlowupError) as exc:
            solve_master(m, penalized_slice(m, box, eps), params)
        fails[eps] = exc.value
    assert fails[0.1].t_last < fails[0.2].t_last
    want = fails[0.2]
    assert str(run.failure) == str(want)
    assert run.failure.t_last == want.t_last
    assert np.array_equal(run.failure.partial.times, want.partial.times)
    assert np.array_equal(run.failure.partial.values, want.partial.values)
    assert run.failure.partial.meta == want.partial.meta
    assert (run.failure.steps, run.failure.dt, run.failure.limit) == \
        (want.steps, want.dt, want.limit)
    assert want.limit == "cfl"


def test_failure_of_the_first_eps_leaves_no_survivor():
    m = focusing_model()
    box = box1d(n=60)
    params = SolverParams(t_end=0.3, n_rec=31)
    run = run_penalization(m, box, (0.2, 0.1), params)
    assert run.failed_eps == 0.2
    assert run.solutions == [] and run.metas == [] and run.gaps == []
    assert not run.converged
    with pytest.raises(ConfigError, match="no completed solutions"):
        run.smallest_eps_solution
    with pytest.raises(BlowupError) as exc:
        solve_master(m, penalized_slice(m, box, 0.2), params)
    assert str(run.failure) == str(exc.value)
    assert_same_bits(run.failure.partial, exc.value.partial)


def test_failure_of_a_middle_eps_in_2d_is_serial():
    # F = -p in 2-D: eps 0.2 and 0.1 blow up before t_end, 1.0 and 0.8 do not
    m = ModelSpec(d=2, F=FieldSpec.affine(0.0, -1.0, d=2), G=FieldSpec.affine(0.0, 0.0, d=2),
                  lam=0.0, noise=identity_noise(2), x0=np.array([0.5, 0.5]))
    box = Box(np.full(2, -1.0), np.full(2, 2.0), np.full(2, 20))
    params = SolverParams(t_end=0.3, n_rec=16)
    run = run_penalization(m, box, (1.0, 0.8, 0.2, 0.1), params, t_min=0.1)
    assert run.failed_eps == 0.2 and not run.converged
    singles = [solve_master(m, penalized_slice(m, box, e), params) for e in (1.0, 0.8)]
    assert len(run.solutions) == 2
    for got, want in zip(run.solutions, singles):
        assert_same_bits(got, want)
    assert run.metas == [s.meta for s in singles]
    k0 = int(np.searchsorted(singles[0].times, 0.1 - 1e-12))
    assert run.gaps == [float(np.max(np.abs(singles[0].values[k0:] - singles[1].values[k0:])))]
    with pytest.raises(BlowupError) as exc:
        solve_master(m, penalized_slice(m, box, 0.2), params)
    assert str(run.failure) == str(exc.value)
    assert run.failure.t_last == exc.value.t_last
    assert_same_bits(run.failure.partial, exc.value.partial)


def _lq0_case():
    cfg = load_config(CONFIGS / "lq0.cfg")
    return cfg.model, cfg.box, cfg.eps_schedule, cfg.params, cfg.t_min


def _jump_2d_case():
    return (jump_2d_model(), Box(np.full(2, -1.0), np.full(2, 2.0), np.full(2, 24)),
            (0.2, 0.1, 0.05), SolverParams(t_end=0.5, n_rec=11), 0.2)


def _halfspace_case():
    base = ModelSpec(d=2, F=FieldSpec.registered("capped_x1_burgers"),
                     G=FieldSpec.affine(0.0, 0.0, d=2), lam=0.0,
                     noise=identity_noise(2), x0=np.array([0.5, 0.0]),
                     alpha=1.0, lip_Fx=1.0, lip_Fp=1.0)
    hm = HalfspaceModel(base=base, ftilde=FieldSpec.affine(0.0, 1.0, d=2))
    return (transformed_model(hm), Box(np.array([-3.0, -1.0]), np.array([2.0, 1.0]),
                                       np.array([50, 20])),
            (0.1, 0.05, 0.025), SolverParams(t_end=0.6, n_rec=13), 0.2)


@pytest.mark.parametrize("case", [_lq0_case, _jump_2d_case, _halfspace_case],
                         ids=["lq0-12-eps", "2d-jump", "halfspace"])
def test_streamed_gaps_are_those_of_the_keep_all_batch(case):
    m, box, eps, params, t_min = case()
    run = run_penalization(m, box, eps, params, t_min=t_min)
    batch = solve_master(m, [penalized_slice(m, box, e) for e in eps], params)
    k0 = int(np.searchsorted(params.record_times(), t_min - 1e-12))
    want = [float(np.max(np.abs(a[k0:] - b[k0:]))) for a, b in zip(batch.values, batch.values[1:])]
    assert len(run.gaps) == len(eps) - 1
    assert np.array(run.gaps).tobytes() == np.array(want).tobytes()
    assert len(run.solutions) == 1
    assert_same_bits(run.smallest_eps_solution, batch.members[-1])
    assert run.metas == batch.metas


def _traced_peak(fn):
    """tracemalloc's peak, in bytes, of the memory allocated while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_continuation_retains_few_records():
    # a 2-D 3-eps run holds the smallest eps's records, the rows a slower
    # member has not reached yet and the step workspace: 0.65 of the keep-all
    # records when measured (a keep-all run peaks at 1.27 of them)
    m, box, eps = jump_2d_model(), Box(np.full(2, -1.0), np.full(2, 2.0), np.full(2, 20)), \
        (0.2, 0.1, 0.05)
    params = SolverParams(t_end=1.0, n_rec=101)
    record_bytes = len(eps) * params.n_rec * math.prod(box.shape) * m.d * 8
    peak = _traced_peak(lambda: run_penalization(m, box, eps, params))
    assert peak <= 0.8 * record_bytes
    # lq0 from 4 to 12 eps: the peak grew 1.40 times when measured (keep-all: 2.82)
    m, box, eps, params, t_min = _lq0_case()
    peaks = [_traced_peak(lambda: run_penalization(m, box, eps[:E], params, t_min=t_min))
             for E in (4, 12)]
    assert peaks[1] <= 1.75 * peaks[0]
