"""Penalization pipeline for the planning problem.

The planning constraint (hit the target distribution concentrated at x0 when
the remaining time runs out) is approximated by the penalized initial data
U0(x) = (x - x0)/eps. This module drives the marcher along a decreasing eps
schedule, measures the Cauchy gaps between consecutive solutions away from
t = 0, reconstructs the limit field from its regularization, and evaluates
the structural diagnostics: the gradient-bound certificate, the sublevel
diameter of the field near the target, and cross monotonicity of two fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .characteristics import penalized_data
from .errors import BlowupError, ConfigError
from .grid_solver import (Box, GridSolution, Slice, SolverParams, lipschitz_norm,
                          solve_master)
from .model import ModelSpec
from .yosida import invert_shift, yosida_apply


@dataclass(eq=False)
class PenalizationRun:
    """Solutions along an eps schedule plus the Cauchy-gap table."""

    model: ModelSpec
    box: Box
    eps_schedule: tuple
    delta: float
    t_min: float
    conv_tol: float
    solutions: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    converged: bool = False
    failed_eps: float | None = None
    failure: BlowupError | None = None

    @property
    def smallest_eps_solution(self) -> GridSolution:
        if not self.solutions:
            raise ConfigError("run holds no completed solutions")
        return self.solutions[-1]


def penalized_slice(m: ModelSpec, box: Box, eps) -> Slice:
    """Initial slice (x - x0)/eps on the box nodes."""
    return Slice(box, penalized_data(m.x0, eps)(box.nodes()))


def run_penalization(m: ModelSpec, box: Box, eps_schedule, params: SolverParams,
                     t_min=0.2, delta=0.25, conv_tol=1e-2) -> PenalizationRun:
    """Solve for each eps and record sup gaps between consecutive solutions.

    The whole schedule marches in lockstep, as one batch. Gaps are taken over
    all recorded times >= t_min and all nodes. The run is converged when the
    last gap is at most conv_tol. A marcher abort stops the schedule as if the
    eps were solved in turn: the failing eps and every smaller one are
    dropped, completed solutions are retained and failed_eps records where.
    """
    eps_schedule = tuple(float(e) for e in eps_schedule)
    if not eps_schedule:
        raise ConfigError("eps schedule must be nonempty")
    if any(e <= 0 for e in eps_schedule):
        raise ConfigError("eps values must be > 0")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ConfigError("eps schedule must be strictly decreasing")
    run = PenalizationRun(model=m, box=box, eps_schedule=eps_schedule,
                          delta=float(delta), t_min=float(t_min),
                          conv_tol=float(conv_tol))
    batch = solve_master(m, [penalized_slice(m, box, eps) for eps in eps_schedule], params)
    run.solutions = batch.members
    if run.solutions:  # times >= t_min are the records from k0 on
        k0 = int(np.searchsorted(run.solutions[0].times, t_min - 1e-12))
        if k0 == params.n_rec:
            raise ConfigError("no recorded times at or above t_min")
        recs, diff = batch.values[:, k0:], np.empty_like(batch.values[0, k0:])
        run.gaps = [float(np.abs(np.subtract(a, b, out=diff), out=diff).max())
                    for a, b in zip(recs, recs[1:])]
    if batch.failure is not None:
        run.failed_eps, run.failure = eps_schedule[len(run.solutions)], batch.failure
    run.converged = batch.failure is None and bool(run.gaps) and run.gaps[-1] <= conv_tol
    return run


@dataclass(eq=False)
class ExtractedLimit:
    """Limit field slice reconstructed from the regularized field."""

    slice: Slice
    failed: np.ndarray  # mask of nodes whose inversion did not converge

    @property
    def values(self) -> np.ndarray:
        return self.slice.values


def extract_limit(run: PenalizationRun, t, delta=None, tol=1e-10) -> ExtractedLimit:
    """Undo the regularization of the smallest-eps solution at time t.

    With V the regularized slice, the field is recovered as
    U(x) = V((Id - delta V)^{-1} x). Nodes whose inversion fails are flagged.
    """
    if t < run.t_min - 1e-12:
        raise ConfigError(f"t={t} is below the run's t_min={run.t_min}")
    d = run.delta if delta is None else float(delta)
    base = run.smallest_eps_solution
    u_slice = base.slice_at(t)
    nodes = base.box.node_list()
    V = yosida_apply(u_slice, d, nodes, tol=tol)
    v_slice = Slice(base.box, V.reshape(*base.box.shape, -1))
    w, ok = invert_shift(v_slice, d, nodes, tol=tol)
    U = v_slice.eval(w).reshape(*base.box.shape, -1)
    return ExtractedLimit(slice=Slice(base.box, U), failed=(~ok).reshape(base.box.shape))


def extracted_field(run: PenalizationRun, times, delta=None) -> GridSolution:
    """Assemble extracted limit slices at several times into one solution."""
    times = np.asarray(sorted(float(t) for t in times))
    vals = [extract_limit(run, t, delta=delta).values for t in times]
    return GridSolution(box=run.box, times=times, values=np.stack(vals),
                        meta={"kind": "extracted", "delta": run.delta if delta is None else delta})


@dataclass(eq=False)
class GraphLimitDiagnostic:
    """Sublevel diameters sup{|x - x0| : |U(t,x)| <= M} over a time list."""

    M: float
    times: np.ndarray
    diameters: np.ndarray
    slope: float
    halving_ratios: np.ndarray
    passed: bool


def graph_limit_diagnostic(U, x0, M, times) -> GraphLimitDiagnostic:
    """Measure how the M-sublevel set of |U(t, .)| shrinks onto the target.

    For fields converging to the planning limit the diameter decays linearly
    in t; the diagnostic fits diameter ~ slope * t and passes when every
    consecutive halving of t at least halves the diameter (ratio >= 1.8).
    """
    if M <= 0:
        raise ConfigError("level M must be > 0")
    box = getattr(U, "box", None)
    if box is None:
        raise ConfigError("a box is required (field has none attached)")
    x0 = np.asarray(x0, dtype=float)
    nodes = box.node_list()
    dist = np.linalg.norm(nodes - x0, axis=1)
    times = np.asarray(sorted((float(t) for t in times), reverse=True))
    diams = np.empty_like(times)
    for i, t in enumerate(times):
        vals = U.eval(t, nodes)
        sub = np.linalg.norm(vals, axis=1) <= M
        diams[i] = float(np.max(dist[sub])) if np.any(sub) else 0.0
    slope = float(np.sum(diams * times) / np.sum(times ** 2))
    ratios = []
    for i in range(len(times) - 1):
        if abs(times[i] / times[i + 1] - 2.0) <= 0.05 and diams[i + 1] > 0:
            ratios.append(diams[i] / diams[i + 1])
    ratios = np.asarray(ratios)
    passed = bool(ratios.size) and bool(np.all(ratios >= 1.8))
    return GraphLimitDiagnostic(M=float(M), times=times, diameters=diams,
                                slope=slope, halving_ratios=ratios, passed=passed)


# ---------------------------------------------------------------------------
# Gradient-bound certificate. With beta(t) = alpha t / 2 and
# gamma(t) = |DxG| alpha t^2, the comparison argument requires
#
#   alpha - beta (|DxG| + 2 |DxF| - lambda (1 - |S|^2)) - beta' - gamma |DpF| >= 0
#   gamma' + gamma (lambda (1 - |S|^2) - |DpF| - 2 |DpG|) - beta |DxG| >= 0
#
# on [0, t_f]; on that window the certified bound is sqrt(1 + 4 beta gamma)/beta.
# t_f: a scan of CERT_SCAN steps, then CERT_BISECT_ITERS bisections. A measured
# norm passes within a relative CERT_REL_SLACK of the bound.
CERT_SCAN, CERT_BISECT_ITERS, CERT_REL_SLACK = 1000, 60, 0.05


def _beta_gamma(m: ModelSpec, t):
    return 0.5 * m.alpha * t, m.lip_Gx * m.alpha * t ** 2


def _bound(t, beta, gamma):
    """The certified bound at t; infinite at t = 0."""
    return np.where(t > 0, np.sqrt(1.0 + 4.0 * beta * gamma) / np.maximum(beta, 1e-300), np.inf)


def _condition_values(m: ModelSpec, t, nS2):
    """Both inequality left-hand sides at t; nS2 is |S|^2."""
    beta, gamma = _beta_gamma(m, t)
    dbeta = 0.5 * m.alpha
    dgamma = 2.0 * m.lip_Gx * m.alpha * t
    i1 = m.alpha - beta * (m.lip_Gx + 2.0 * m.lip_Fx - m.lam * (1.0 - nS2)) \
        - dbeta - gamma * m.lip_Fp
    i2 = dgamma + gamma * (m.lam * (1.0 - nS2) - m.lip_Fp - 2.0 * m.lip_Gp) \
        - beta * m.lip_Gx
    return i1, i2


def certificate_bound(m: ModelSpec, t) -> float:
    return float(_bound(t, *_beta_gamma(m, t)))


def certificate_horizon(m: ModelSpec, t_max) -> float:
    """Largest t <= t_max on which both certificate inequalities hold.

    Scans a uniform grid for the first violation, then bisects the bracket.
    """
    if m.alpha <= 0:
        raise ConfigError("certificate requires alpha > 0")
    nS2 = m.noise.norm_S ** 2
    ts = np.linspace(0.0, t_max, CERT_SCAN + 1)
    ok_prev = 0.0
    for t in ts[1:]:
        i1, i2 = _condition_values(m, t, nS2)
        if i1 < 0 or i2 < -1e-14:
            lo, hi = ok_prev, t
            for _ in range(CERT_BISECT_ITERS):
                mid = 0.5 * (lo + hi)
                j1, j2 = _condition_values(m, mid, nS2)
                if j1 < 0 or j2 < -1e-14:
                    hi = mid
                else:
                    lo = mid
            return float(lo)
        ok_prev = t
    return float(t_max)


@dataclass(eq=False)
class EstimateReport:
    """Outcome of checking measured gradient norms against the certificate."""

    applicable: bool
    alpha: float
    norm_S: float
    t_f: float
    times: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    bound: np.ndarray
    measured: np.ndarray
    checked: np.ndarray
    ok: np.ndarray

    @property
    def passed(self) -> bool:
        if not self.applicable:
            return False
        if not np.any(self.checked):
            return False
        return bool(np.all(self.ok[self.checked]))


def estimate_certificate(m: ModelSpec, sol: GridSolution, times) -> EstimateReport:
    """Compare measured Lipschitz norms of a solution against the bound.

    Times beyond the certificate window t_f (or the recorded horizon) are
    reported unchecked. A time passes when
    measured <= bound * (1 + CERT_REL_SLACK).
    """
    times = np.asarray([float(t) for t in times])
    if m.alpha <= 0:
        z = np.zeros_like(times)
        return EstimateReport(applicable=False, alpha=m.alpha, norm_S=m.noise.norm_S,
                              t_f=0.0, times=times, beta=z, gamma=z, bound=z,
                              measured=np.full_like(times, np.nan),
                              checked=np.zeros_like(times, dtype=bool),
                              ok=np.zeros_like(times, dtype=bool))
    horizon = float(sol.times[-1])
    t_f = certificate_horizon(m, horizon)
    beta, gamma = _beta_gamma(m, times)
    bound = _bound(times, beta, gamma)
    measured = np.full_like(times, np.nan)
    checked = (times > 0) & (times <= t_f + 1e-12) & (times <= horizon + 1e-12)
    measured[checked] = [lipschitz_norm(sol, t) for t in times[checked]]
    ok = measured <= bound * (1.0 + CERT_REL_SLACK)  # False where unchecked (nan)
    return EstimateReport(applicable=True, alpha=m.alpha, norm_S=m.noise.norm_S,
                          t_f=t_f, times=times, beta=beta, gamma=gamma,
                          bound=bound, measured=measured, checked=checked, ok=ok)


def cross_monotonicity(U, V, t, n_pairs=10000, rng_seed=0) -> float:
    """Minimum of <U(t,x) - V(t,y), x - y> over sampled pairs.

    Nonnegative for two fields that are selections of one monotone graph; a
    systematic negative value witnesses genuinely different fields.
    """
    box = getattr(U, "box", None) or getattr(V, "box", None)
    if box is None:
        raise ConfigError("a box is required (neither field has one attached)")
    rng = np.random.default_rng(rng_seed)
    x = box.sample_points(rng, n_pairs)
    y = box.sample_points(rng, n_pairs)
    vals = np.sum((U.eval(t, x) - V.eval(t, y)) * (x - y), axis=-1)
    return float(np.min(vals))
