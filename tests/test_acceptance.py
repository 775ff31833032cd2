"""Acceptance suite: eleven go/no-go checks, one printed verdict line each.

Each test prints its verdict before asserting, so `pytest -s` (or the
captured output of a failure) always shows the full scoreboard. Solutions
produced along the way are registered and swept by the final monotonicity
check, which also adds a jump-driven two-dimensional run of its own.
"""

import dataclasses
import time

import numpy as np
import pytest

from mfgplan import (AffineNoiseMap, Box, FieldSpec, GridSolution, ModelSpec,
                     PullbackField, SolverParams, chain_rule_defect,
                     check_inward_flow, check_log_blowup,
                     check_value_consistency, cross_monotonicity, eqV_residual,
                     extract_limit, flow_forward,
                     graph_limit_diagnostic, integrate_backward,
                     lipschitz_norm, node_jacobians, penalized_data,
                     penalized_slice, run_penalization,
                     solve_by_shooting, solve_master, transformed_model,
                     yosida_apply, yosida_by_transport, HalfspaceModel)
from conftest import (LQ0_RUN_PARAMS, X0, AnalyticField, baseline_model, box1d,
                      check_monotone_map, closed_form, coupled_model, final_distance,
                      identity_noise, sample_solution)

T_MIN = 0.2

# every solve the suite produces, swept by the final criterion
_REGISTRY = []


def _register(label, box, sol):
    if not any(s is sol for _, _, s in _REGISTRY):
        _REGISTRY.append((label, box, sol))


def _register_schedule(label, m, run, params):
    """Register every eps solution of run, a run of model m. A run keeps the smallest
    eps's alone; the keep-all batch of the schedule gives each one's bits."""
    box = run.smallest_eps_solution.box
    batch = solve_master(m, [penalized_slice(m, box, e) for e in run.eps_schedule], params)
    assert batch.values[-1].tobytes() == run.smallest_eps_solution.values.tobytes()
    for k, sol in enumerate(batch.members):
        _register(f"{label} {k}", box, sol)


def _verdict(num, name, ok, detail=""):
    tag = "pass" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {tag}{suffix}")
    assert ok, f"acceptance {num:02d} {name}{suffix}"


def test_criterion_01_penalized_closed_form():
    t_start = time.perf_counter()
    m = baseline_model()
    eps = 0.1
    errs = {}
    for n in (400, 800):
        box = box1d(n=n)
        sol = solve_master(m, penalized_slice(m, box, eps),
                           SolverParams(t_end=1.0, n_rec=101))
        _register(f"closed form n={n}", box, sol)
        worst = 0.0
        nodes = box.node_list()
        for t in (0.2, 0.4, 0.8):
            got = sol.slice_at(t).values.reshape(-1)
            want = closed_form(t, nodes, eps=eps).reshape(-1)
            worst = max(worst, float(np.max(np.abs(got - want))
                                     / np.max(np.abs(want))))
        errs[n] = worst
    elapsed = time.perf_counter() - t_start
    ratio = errs[400] / errs[800]
    ok = errs[400] <= 2e-2 and ratio >= 1.7 and elapsed <= 10.0
    _verdict(1, "penalized closed form", ok,
             f"rel err {errs[400]:.2e}, refinement ratio {ratio:.2f}, "
             f"{elapsed:.1f}s")


def test_criterion_02_regularizing_estimate(lq0_solution):
    m = baseline_model()
    worst = 0.0
    for eps in (0.4, 0.1, 0.025):
        if eps == 0.1:
            sol = lq0_solution
        else:
            box = box1d(n=400)
            sol = solve_master(m, penalized_slice(m, box, eps),
                               SolverParams(t_end=1.0, n_rec=101))
            _register(f"steepness eps={eps}", box, sol)
        for t in sol.times[(sol.times >= 0.05) & (sol.times <= 1.0)]:
            t = float(t)
            worst = max(worst, lipschitz_norm(sol, t) * t / 2.0)
    _register("reference eps=0.1", lq0_solution.box, lq0_solution)
    ok = worst <= 1.05
    _verdict(2, "regularizing estimate", ok,
             f"max slope/(bound) {worst:.3f} over eps in {{0.4, 0.1, 0.025}}")


@pytest.fixture(scope="module")
def coupled_flat_solution():
    m = coupled_model(K=0.2)
    box = box1d(n=200)
    sol = solve_master(m, penalized_slice(m, box, 0.1),
                       SolverParams(t_end=0.6, n_rec=31, dt_max=0.01))
    _register("coupled K=0.2", box, sol)
    return m, box, sol


@pytest.fixture(scope="module")
def coupled_plane_solution():
    m = ModelSpec(d=2, F=FieldSpec.affine(0.0, 1.0, d=2),
                  G=FieldSpec.affine(0.2, 0.0, d=2), lam=0.0,
                  noise=identity_noise(2), x0=np.array([0.3, 0.1]),
                  alpha=1.0, lip_Fp=1.0, lip_Gx=0.2)
    box = Box(np.array([-1.0, -1.0]), np.array([1.5, 1.5]),
              np.array([60, 60]))
    sol = solve_master(m, penalized_slice(m, box, 0.1),
                       SolverParams(t_end=0.6, n_rec=31, dt_max=0.01))
    _register("coupled d=2", box, sol)
    return m, box, sol


def test_criterion_03_dual_route_regularization(lq0_solution,
                                                coupled_flat_solution,
                                                coupled_plane_solution):
    cases = [("plain", lq0_solution),
             ("coupled", coupled_flat_solution[2]),
             ("plane", coupled_plane_solution[2])]
    worst_gap = 0.0
    worst_slack = np.inf
    for _, sol in cases:
        u = sol.slice_at(0.5)
        d = u.values.shape[-1]
        nodes = sol.box.node_list()
        for delta in (0.1, 0.25):
            va = yosida_apply(u, delta, nodes)
            vt = yosida_by_transport(u, delta, burgers_steps=1)
            worst_gap = max(worst_gap, float(
                np.max(np.abs(va - vt.values.reshape(-1, d)))))
            J = node_jacobians(vt).reshape(-1, d, d)
            smax = float(np.max(np.linalg.svd(J, compute_uv=False)))
            worst_slack = min(worst_slack, 1.0 / delta + 1e-3 - smax)
    ok = worst_gap <= 1e-6 and worst_slack >= 0.0
    _verdict(3, "dual-route regularization", ok,
             f"route gap {worst_gap:.2e}, slope margin {worst_slack:.3f}")


def test_criterion_04_regularized_equation_residual():
    m = baseline_model()
    eps, delta = 0.1, 0.25

    def fn(t, x):
        return (x - X0) / (t + delta + eps)

    res = {}
    for n, n_t in ((400, 51), (800, 101)):
        box = box1d(n=n)
        times = np.linspace(0.2, 0.7, n_t)
        V = sample_solution(box, times, fn)
        r = eqV_residual(m, V, delta, float(times[n_t // 2]))
        assert not np.any(r.excluded)
        res[n] = r.max()
    ratio = res[400] / res[800]
    ok = res[400] <= 0.1 and ratio >= 1.7
    _verdict(4, "regularized-field equation residual", ok,
             f"residual {res[400]:.2e}, refinement ratio {ratio:.2f}")


def test_criterion_05_graph_limit_diameters():
    U = AnalyticField(lambda t, x: closed_form(t, x), box=box1d(n=600))
    diag = graph_limit_diagnostic(U, np.array([X0]), 2.0,
                                  (0.4, 0.2, 0.1, 0.05))
    want = 2.0 * diag.times
    rel = float(np.max(np.abs(diag.diameters - want) / want))
    ratios_ok = (len(diag.halving_ratios) == 3
                 and bool(np.all((diag.halving_ratios >= 1.8)
                                 & (diag.halving_ratios <= 2.2))))
    ok = rel <= 0.1 and ratios_ok and diag.passed
    _verdict(5, "graph limit diameters", ok,
             f"max diameter misfit {rel:.2%}, halving ratios "
             + "/".join(f"{r:.2f}" for r in diag.halving_ratios))


def test_criterion_06_penalization_cauchy_gaps():
    m = coupled_model(K=0.2)
    box = box1d(n=200)
    params = SolverParams(t_end=0.5, n_rec=26, dt_max=0.01)
    run = run_penalization(m, box, tuple(0.2 * 0.5 ** k for k in range(12)), params,
                           t_min=T_MIN, conv_tol=1e-2)
    _register_schedule("cauchy eps index", m, run, params)
    gaps = np.asarray(run.gaps)
    ok = bool(np.all(np.diff(gaps) < 0)) and gaps[-1] <= 1e-2
    _verdict(6, "penalization Cauchy gaps", ok,
             f"{len(gaps)} gaps, first {gaps[0]:.3g}, last {gaps[-1]:.3g}")


def test_criterion_07_uniqueness_cross_checks(lq0_run):
    sol = lq0_run.smallest_eps_solution
    _register_schedule("reference schedule index", baseline_model(), lq0_run, LQ0_RUN_PARAMS)
    a = extract_limit(dataclasses.replace(lq0_run, delta=0.1), 0.5)
    b = extract_limit(dataclasses.replace(lq0_run, delta=0.25), 0.5)
    ext = GridSolution(box=sol.box, times=[0.5], values=b.values[None])
    cross = cross_monotonicity(sol.field(), ext.field(), 0.5, n_pairs=10000,
                               rng_seed=0)
    dgap = float(np.max(np.abs(a.values - b.values)))
    ok = cross >= -1e-3 and dgap <= 1e-3
    _verdict(7, "uniqueness cross checks", ok,
             f"cross pairing {cross:.2e}, delta split {dgap:.2e}")


def test_criterion_08_backward_trajectories():
    m = baseline_model()
    U = AnalyticField(lambda t, x: closed_form(t, x))
    ok = True
    details = []
    for t_min in (0.1, 0.05):
        traj = integrate_backward(U, m, [1.0], 1.0, t_min, steps=400)
        dist = final_distance(traj, [X0])
        want = 0.5 * t_min
        defect = check_value_consistency(traj, m)
        ok = ok and abs(dist - want) <= 0.1 * want and defect <= 1e-3
        details.append(f"t_min={t_min:g}: dist {dist:.4f} vs {want:.4f}, "
                       f"defect {defect:.1e}")
    _verdict(8, "backward trajectories", ok, "; ".join(details))


def test_criterion_09_characteristics_cross_oracle(lq0_solution,
                                                   coupled_solution):
    _register("coupled K=1", coupled_solution.box, coupled_solution)
    cases = [(baseline_model(), lq0_solution, 0.4),
             (coupled_model(K=1.0), coupled_solution, 0.3)]
    worst = 0.0
    for m, sol, t in cases:
        probes = np.linspace(-0.4, 1.4, 10)[:, None]
        grid = sol.field().eval(t, probes)
        char = solve_by_shooting(m, penalized_data(m.x0, 0.1), t, probes)
        worst = max(worst, float(np.max(np.abs(grid - char))))
    # self-convergence of the path integrator on the coupled model
    mc = coupled_model(K=1.0)
    u0 = penalized_data(mc.x0, 0.1)
    z = np.array([1.2])
    ref_x, ref_u = flow_forward(mc, z, u0(z[None, :])[0], 0.4, rk_steps=256)
    errs = []
    for steps in (2, 4, 8):
        x, u = flow_forward(mc, z, u0(z[None, :])[0], 0.4, rk_steps=steps)
        errs.append(max(float(np.max(np.abs(x - ref_x))),
                        float(np.max(np.abs(u - ref_u)))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = worst <= 2e-2 and min(orders) >= 3.5
    _verdict(9, "characteristics cross oracle", ok,
             f"probe gap {worst:.2e}, integrator order {min(orders):.2f}")


def test_criterion_10_halfspace_straightening():
    base = ModelSpec(d=2, F=FieldSpec.registered("capped_x1_burgers"),
                     G=FieldSpec.affine(0.0, 0.0, d=2), lam=0.0,
                     noise=identity_noise(2),
                     x0=np.array([0.5, 0.0]), alpha=1.0, lip_Fx=1.0,
                     lip_Fp=1.0)
    hm = HalfspaceModel(base=base, ftilde=FieldSpec.affine(0.0, 1.0, d=2))
    box_y = Box(np.array([-5.0, -1.0]), np.array([2.0, 1.0]),
                np.array([100, 20]))
    params = SolverParams(t_end=0.6, n_rec=31, dt_max=0.01)
    my = transformed_model(hm)
    run = run_penalization(my, box_y, (0.1, 0.025, 0.00625), params, t_min=T_MIN, conv_tol=10.0)
    u = PullbackField(run.smallest_eps_solution.field())
    _register_schedule("straightened eps index", my, run, params)
    tail = np.geomspace(0.02, 0.9, 12)
    fit_ok = True
    fits = []
    for t in (0.5, 0.25):
        fit = check_log_blowup(u.eval, t, tail, [0.0])
        fit_ok = fit_ok and abs(fit.a * t - 1.0) <= 0.05 and fit.residual <= 1e-3
        fits.append(f"a({t:g})={fit.a:.3f}")
    inflow = check_inward_flow(base)
    rng = np.random.default_rng(4)
    probes = np.column_stack([rng.uniform(0.05, 0.9, 50),
                              rng.uniform(-0.5, 0.5, 50)])
    chain = chain_rule_defect(u, 0.25, probes)
    ok = fit_ok and inflow >= -1e-9 and chain <= 2e-2
    _verdict(10, "half-space straightening", ok,
             ", ".join(fits) + f", wall flux {inflow:.1e}, "
             f"chain defect {chain:.1e}")


def test_criterion_11_monotonicity_propagation():
    # a jump-driven plane run with a rotating contraction as relabeling. The
    # box must contain S(box): 0.7 (cos 30 + sin 30) = 0.96 < 1 maps [-1.5, 1.5]^2
    # into itself, where no box contains the image of 0.8 R(30) (its max-norm is 1.09)
    th = np.deg2rad(30.0)
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    m = ModelSpec(d=2, F=FieldSpec.affine(0.0, 1.0, d=2),
                  G=FieldSpec.affine(0.0, 0.0, d=2), lam=0.5,
                  noise=AffineNoiseMap(S=0.7 * R, e=np.zeros(2)),
                  x0=np.array([0.3, 0.1]), alpha=1.0, lip_Fp=1.0)
    box = Box(np.array([-1.5, -1.5]), np.array([1.5, 1.5]),
              np.array([100, 100]))
    sol = solve_master(m, penalized_slice(m, box, 0.1),
                       SolverParams(t_end=0.6, n_rec=31, dt_max=0.01))
    _register("jump-driven d=2", box, sol)
    assert len(_REGISTRY) >= 10  # the sweep must actually cover the suite
    worst = 0.0
    n_checks = 0
    for label, bx, s in _REGISTRY:
        field = s.field()
        for t in s.times[s.times >= T_MIN - 1e-12]:
            val = check_monotone_map(
                lambda pts, tt=float(t): field.eval(tt, pts), bx, rng_seed=3)
            worst = min(worst, val)
            n_checks += 1
    ok = worst >= -1e-4
    _verdict(11, "monotonicity propagation", ok,
             f"{n_checks} slices over {len(_REGISTRY)} solves, "
             f"worst pairing {worst:.2e}")
