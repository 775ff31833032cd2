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
from .model import CoupleConstants, ModelSpec
from .yosida import invert_shift, yosida_apply


@dataclass(eq=False)
class PenalizationRun:
    """Solutions along an eps schedule plus the Cauchy-gap table.

    metas holds the solver meta of every completed eps. solutions holds the
    completed solutions a caller reads: after a success only the smallest
    eps's, whose records are the only ones kept; after a failure every
    completed one, as solving the eps in turn leaves them.
    """

    eps_schedule: tuple
    delta: float
    t_min: float
    conv_tol: float
    solutions: list = field(default_factory=list)
    metas: list = field(default_factory=list)
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


class _CauchyFold:
    """The Cauchy gaps of a schedule of E members, folded as their records land.

    Called as on_record(e, k, row). Gap i is the max of |a - b| over the
    records k >= k0 of members i and i + 1; it is folded at record k as soon
    as both members have landed there, through one reused one-record buffer.
    A row is copied only if a neighbour has not landed on its record yet, and
    the copy is dropped once both neighbours have. Records land in order for
    each member, so landed[e] counts member e's.
    """

    def __init__(self, E, k0, shape):
        self.k0, self.gaps, self.landed = k0, [0.0] * (E - 1), [0] * E
        self.held, self.diff = {}, np.empty(shape)

    def __call__(self, e, k, row):
        landed = self.landed
        landed[e] = k + 1
        if k < self.k0:
            return
        held, diff, E = self.held, self.diff, len(landed)
        waits = False
        for n in (e - 1, e + 1):
            if n < 0 or n == E:
                continue
            if landed[n] <= k:
                waits = True
                continue
            # n landed first, so its row was held; it goes once n's far neighbour has landed too
            far = 2 * n - e
            other = held.pop((n, k)) if far < 0 or far == E or landed[far] > k else held[n, k]
            if n < e:
                np.subtract(other, row, out=diff)
            else:
                np.subtract(row, other, out=diff)
            gap = float(np.maximum.reduce(np.abs(diff, out=diff), axis=None))
            i = min(n, e)
            self.gaps[i] = max(self.gaps[i], gap)
        if waits:
            held[e, k] = row.copy()


def check_eps_schedule(eps_schedule) -> tuple:
    """The schedule as floats; ConfigError unless it is nonempty, finite, > 0 and strictly
    decreasing."""
    eps_schedule = tuple(float(e) for e in eps_schedule)
    if not eps_schedule:
        raise ConfigError("[planning] eps must list at least one eps")
    if not all(np.isfinite(e) and e > 0 for e in eps_schedule):
        raise ConfigError("[planning] eps values must be finite and > 0")
    if not all(b < a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ConfigError("[planning] eps schedule must be strictly decreasing")
    return eps_schedule


def run_penalization(m: ModelSpec, box: Box, eps_schedule, params: SolverParams,
                     t_min=0.2, delta=0.25, conv_tol=1e-2) -> PenalizationRun:
    """Solve for each eps and record sup gaps between consecutive solutions.

    The whole schedule marches in lockstep, as one batch. Gaps are taken over
    all recorded times >= t_min and all nodes, each folded as the records of
    its two members land, so the run holds the records of the smallest eps
    alone. The run is converged when the last gap is at most conv_tol. A
    marcher abort stops the schedule as if the eps were solved in turn: the
    failing eps and every smaller one are dropped, completed solutions are
    retained and failed_eps records where. To keep those solutions and the
    failure's partial solution, a failing schedule is marched a second time,
    keeping every record; its gaps are the first march's between completed eps.
    """
    eps_schedule = check_eps_schedule(eps_schedule)
    if not (np.isfinite(conv_tol) and conv_tol >= 0):  # a nan would decide converged alone
        raise ConfigError(f"conv_tol must be finite and >= 0, got {conv_tol:.12g}")
    k0 = int(np.searchsorted(params.record_times(), t_min - 1e-12))  # records >= t_min
    if k0 == params.n_rec:
        raise ConfigError("no recorded times at or above t_min")
    run = PenalizationRun(eps_schedule=eps_schedule, delta=float(delta), t_min=float(t_min),
                          conv_tol=float(conv_tol))
    slices = [penalized_slice(m, box, eps) for eps in eps_schedule]
    fold = _CauchyFold(len(slices), k0, slices[0].values.shape)
    batch = solve_master(m, slices, params, on_record=fold)
    gaps = fold.gaps
    if batch.failure is not None:
        batch = solve_master(m, slices, params)
        gaps = gaps[:max(len(batch.members) - 1, 0)]  # between members that both completed
        run.failed_eps, run.failure = eps_schedule[len(batch.members)], batch.failure
    run.solutions, run.metas, run.gaps = batch.members, batch.metas, gaps
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


def extract_limit(run: PenalizationRun, t) -> ExtractedLimit:
    """Undo the regularization of the smallest-eps solution at time t.

    With V the regularized slice, the field is recovered as
    U(x) = V((Id - delta V)^{-1} x). Nodes whose inversion fails are flagged.
    """
    if t < run.t_min - 1e-12:
        raise ConfigError(f"t={t} is below the run's t_min={run.t_min}")
    base = run.smallest_eps_solution
    u_slice = base.slice_at(t)
    nodes = base.box.node_list()
    V = yosida_apply(u_slice, run.delta, nodes)
    v_slice = Slice(base.box, V.reshape(*base.box.shape, -1))
    _, ok, U = invert_shift(v_slice, run.delta, nodes)
    U = U.reshape(*base.box.shape, -1)
    return ExtractedLimit(slice=Slice(base.box, U), failed=(~ok).reshape(base.box.shape))


# verify's level: any M > 0 works, as the limit's M-sublevel set has diameter ~ M t.
SUBLEVEL_M = 2.0


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
    A time t = 0 is measured but pairs with no other and adds nothing to the
    fit; with no positive time the slope is nan.
    """
    if not (np.isfinite(M) and M > 0):
        raise ConfigError(f"level M must be finite and > 0, got {M:.12g}")
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
    slope = float(np.sum(diams * times) / np.sum(times ** 2)) if np.any(times > 0) else np.nan
    ratios = []
    for i in range(len(times) - 1):
        if times[i + 1] > 0 and abs(times[i] / times[i + 1] - 2.0) <= 0.05 and diams[i + 1] > 0:
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
# With A = |DxG| + 2 |DxF| - lambda (1 - |S|^2), B = lambda (1 - |S|^2) - |DpF| - 2 |DpG|
# and k = |DxG| |DpF| the two read
#
#   alpha (1/2 - A t / 2 - k t^2) >= 0    and    alpha |DxG| t (3/2 + B t) >= 0,
#
# so t_f is the first positive root of either polynomial, or t_max. A measured
# norm passes within a relative CERT_REL_SLACK of the bound.
CERT_REL_SLACK = 0.05


def _beta_gamma(c: CoupleConstants, t):
    return 0.5 * c.alpha * t, c.lip_Gx * c.alpha * t ** 2


def _bound(t, beta, gamma):
    """The certified bound at t; infinite at t = 0."""
    return np.where(t > 0, np.sqrt(1.0 + 4.0 * beta * gamma) / np.maximum(beta, 1e-300), np.inf)


def certificate_horizon(c: CoupleConstants, damp, t_max) -> float:
    """Largest t <= t_max on which both certificate inequalities hold, for the
    constants c and damp = lambda (1 - |S|^2).

    The first inequality's root 2 k t^2 + A t - 1 = 0 is taken in the form
    free of cancellation for the sign of A; the constants are >= 0, so k >= 0
    and the second inequality fails only past -3 / (2 B), when |DxG| > 0 > B.
    """
    if c.alpha <= 0:
        raise ConfigError("certificate requires alpha > 0")
    A = c.lip_Gx + 2.0 * c.lip_Fx - damp
    B = damp - c.lip_Fp - 2.0 * c.lip_Gp
    k = c.lip_Gx * c.lip_Fp
    root = np.sqrt(A * A + 8.0 * k)
    roots = [float(t_max)]
    if A + root > 0:
        roots.append(2.0 / (A + root) if A >= 0 else (root - A) / (4.0 * k))
    if c.lip_Gx > 0 > B:
        roots.append(-1.5 / B)
    return float(min(roots))


@dataclass(eq=False)
class EstimateReport:
    """Outcome of checking measured gradient norms against the certificate."""

    applicable: bool
    t_f: float
    times: np.ndarray
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
    c = m.consts
    if c.alpha <= 0:
        return EstimateReport(applicable=False, t_f=0.0, times=times,
                              bound=np.zeros_like(times),
                              measured=np.full_like(times, np.nan),
                              checked=np.zeros_like(times, dtype=bool),
                              ok=np.zeros_like(times, dtype=bool))
    horizon = float(sol.times[-1])
    t_f = certificate_horizon(c, m.lam * (1.0 - m.noise.norm_S ** 2), horizon)
    bound = _bound(times, *_beta_gamma(c, times))
    measured = np.full_like(times, np.nan)
    checked = (times > 0) & (times <= t_f + 1e-12)
    measured[checked] = [lipschitz_norm(sol, t) for t in times[checked]]
    ok = measured <= bound * (1.0 + CERT_REL_SLACK)  # False where unchecked (nan)
    return EstimateReport(applicable=True, t_f=t_f, times=times, bound=bound,
                          measured=measured, checked=checked, ok=ok)


# Sampled pairs (x, y) behind cross_monotonicity, and the slack verify grants
# its minimum: a grid field is monotone up to its discretization error.
CROSS_PAIRS, CROSS_TOL = 2000, 1e-3


def cross_monotonicity(U, V, t, n_pairs=CROSS_PAIRS, rng_seed=0) -> float:
    """Minimum of <U(t,x) - V(t,y), x - y> over n_pairs sampled pairs.

    Nonnegative for two fields that are selections of one monotone graph; a
    systematic negative value witnesses genuinely different fields.
    """
    box = getattr(U, "box", None) or getattr(V, "box", None)
    if box is None:
        raise ConfigError("a box is required (neither field has one attached)")
    if n_pairs < 1:
        raise ConfigError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = np.random.default_rng(rng_seed)
    x = box.sample_points(rng, n_pairs)
    y = box.sample_points(rng, n_pairs)
    vals = np.sum((U.eval(t, x) - V.eval(t, y)) * (x - y), axis=-1)
    return float(np.min(vals))
