"""Planning on the half space {x_1 > 0} via logarithmic straightening.

The wall is never crossed when the first drift component factors as
F_1(x, p) = x_1 * Ftilde_1(x, p) near the boundary (inward flow: F_1 = 0 on
the wall). The change of variable

    y_1 = 1 + ln(x_1)  for x_1 < 1,    y_1 = x_1  otherwise,

with the remaining coordinates untouched, has unit slope on both sides of the
seam at x_1 = 1 and maps the half space onto all of R^d. Writing
V(t, y) = U(t, x(y)), the chain rule x_1 d/dx_1 U = d/dy_1 V turns the
half-space system into a full-space one whose first drift component is
Ftilde_1(x(y), p); the relabeling map must leave x_1 fixed for this to
commute with the jump term. Solutions inherit a ln(x_1) profile near the
wall from the affine-in-y limit field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid_solver import Box, GridField, SolverParams
from .model import FieldSpec, ModelSpec, bind_field, eval_field
from .planning import PenalizationRun, run_penalization


def to_log_coordinates(x) -> np.ndarray:
    """Straightening map; requires x_1 > 0."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x).copy()
    if np.any(X[:, 0] <= 0):
        raise ValueError("log coordinates need x_1 > 0")
    low = X[:, 0] < 1.0
    X[low, 0] = 1.0 + np.log(X[low, 0])
    return X[0] if single else X


def from_log_coordinates(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    Y = np.atleast_2d(y).copy()
    low = Y[:, 0] < 1.0
    Y[low, 0] = np.exp(Y[low, 0] - 1.0)
    return Y[0] if single else Y


@dataclass(frozen=True, eq=False)
class HalfspaceModel:
    """Half-space problem data: the wall-adapted model plus its factored drift.

    base.F is the drift on the half space (F_1 = x_1 * Ftilde_1 for x_1 <= 1);
    ftilde is the factored drift (Ftilde_1, F_2, ..., F_d). The declared
    structural constants of base describe ftilde, which is the map the
    straightened system runs on.
    """

    base: ModelSpec
    ftilde: FieldSpec

    def __post_init__(self):
        m = self.base
        if m.x0[0] <= 0:
            raise ConfigError("planning target must satisfy x0_1 > 0")
        if m.lam > 0:
            S, e = m.noise.S, m.noise.e
            keeps_wall = (abs(S[0, 0] - 1.0) < 1e-12
                          and np.all(np.abs(S[0, 1:]) < 1e-12)
                          and np.all(np.abs(S[1:, 0]) < 1e-12)
                          and abs(e[0]) < 1e-12)
            if not keeps_wall:
                raise ConfigError("relabeling must leave x_1 fixed: S block "
                                  "diag(1, T') and e_1 = 0")


def check_factorization(hm: HalfspaceModel, n_samples=2000, rng_seed=0,
                        halfwidth=2.0) -> float:
    """Max defect of F_1 = x_1 Ftilde_1 (x_1 in (0,1]) and F_j = Ftilde_j (j>=2)."""
    m = hm.base
    rng = np.random.default_rng(rng_seed)
    x = rng.uniform(-halfwidth, halfwidth, size=(n_samples, m.d))
    x[:, 0] = rng.uniform(1e-6, 1.0, size=n_samples)
    p = rng.uniform(-halfwidth, halfwidth, size=(n_samples, m.d))
    F = m.eval_F(x, p)
    Ft = eval_field(hm.ftilde, x, p)
    defect = np.abs(F[:, 0] - x[:, 0] * Ft[:, 0])
    if m.d > 1:
        defect = np.maximum(defect, np.max(np.abs(F[:, 1:] - Ft[:, 1:]), axis=1))
    return float(np.max(defect))


def check_inward_flow(m: ModelSpec, n_samples=2000, rng_seed=0, halfwidth=2.0) -> float:
    """Min of F_1(x, p) over samples on the wall {x_1 = 0}.

    The inward-pointing condition <F, n> <= 0 with outward normal n = -e_1
    reads F_1 >= 0 there.
    """
    rng = np.random.default_rng(rng_seed)
    x = rng.uniform(-halfwidth, halfwidth, size=(n_samples, m.d))
    x[:, 0] = 0.0
    p = rng.uniform(-halfwidth, halfwidth, size=(n_samples, m.d))
    return float(np.min(m.eval_F(x, p)[:, 0]))


def transformed_model(hm: HalfspaceModel) -> ModelSpec:
    """Full-space model in straightened coordinates.

    Drift and source are the factored maps evaluated at x(y); their binders
    compute x(y) once per solve. The relabeling, target and declared constants
    carry over (the relabeling commutes with the straightening because it
    leaves the first coordinate fixed).
    """
    base = hm.base
    d = base.d

    def straightened(name, f):
        def fn(y, p):
            return eval_field(f, from_log_coordinates(y.reshape(-1, d)),
                              p.reshape(-1, d)).reshape(p.shape)

        def binder(y):
            at = bind_field(f, from_log_coordinates(y.reshape(-1, d)))
            return lambda p: at(p.reshape(-1, d)).reshape(p.shape)

        return FieldSpec.registered(name, fn=fn, binder=binder)

    return ModelSpec(
        d=d,
        F=straightened("halfspace_straightened_drift", hm.ftilde),
        G=straightened("halfspace_straightened_source", base.G),
        lam=base.lam, noise=base.noise,
        x0=to_log_coordinates(base.x0),
        alpha=base.alpha, lip_Fx=base.lip_Fx, lip_Fp=base.lip_Fp,
        lip_Gx=base.lip_Gx, lip_Gp=base.lip_Gp)


class PullbackField:
    """Half-space view U(t, x) = V(t, y(x)) of a straightened field."""

    def __init__(self, v_field, box_y: Box):
        self.v_field = v_field
        lo = from_log_coordinates(box_y.lo)
        hi = from_log_coordinates(box_y.hi)
        self.box = Box(lo, hi, box_y.n)  # the straightening is monotone per axis

    def eval(self, t, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        y = to_log_coordinates(np.atleast_2d(pts))
        out = self.v_field.eval(t, y)
        return out[0] if single else out


@dataclass(eq=False)
class HalfspaceSolution:
    """Straightened penalization run plus half-space evaluation helpers."""

    hm: HalfspaceModel
    model_y: ModelSpec
    box_y: Box
    run: PenalizationRun

    def v_field(self) -> GridField:
        return self.run.smallest_eps_solution.field()

    def u_field(self) -> PullbackField:
        return PullbackField(self.v_field(), self.box_y)

    def u_eval(self, t, pts) -> np.ndarray:
        return self.u_field().eval(t, pts)


def solve_halfspace(hm: HalfspaceModel, box_y: Box, eps_schedule,
                    params: SolverParams, t_min=0.2, delta=0.25,
                    conv_tol=1e-2) -> HalfspaceSolution:
    """Run the penalization pipeline on the straightened model."""
    model_y = transformed_model(hm)
    run = run_penalization(model_y, box_y, eps_schedule, params, t_min=t_min,
                           delta=delta, conv_tol=conv_tol)
    return HalfspaceSolution(hm=hm, model_y=model_y, box_y=box_y, run=run)


@dataclass
class LogFit:
    """Least-squares fit U^1(t, x) ~ a ln(x_1) + b along a wall-approaching tail."""

    a: float
    b: float
    residual: float  # rms misfit

    def passed(self, fit_tol) -> bool:
        return self.residual <= fit_tol and self.a != 0.0


def check_log_blowup(u_eval, t, x1_samples, x_rest) -> LogFit:
    """Fit the first field component against ln(x_1) at fixed x_2..x_d."""
    x1 = np.asarray(x1_samples, dtype=float)
    if np.any(x1 <= 0) or np.any(x1 >= 1):
        raise ConfigError("tail samples must satisfy 0 < x_1 < 1")
    x_rest = np.asarray(x_rest, dtype=float).reshape(-1)
    pts = np.column_stack([x1, np.tile(x_rest, (len(x1), 1))]) if x_rest.size \
        else x1[:, None]
    vals = np.asarray(u_eval(t, pts), dtype=float)[:, 0]
    A = np.column_stack([np.log(x1), np.ones_like(x1)])
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - vals) ** 2)))
    return LogFit(a=float(coef[0]), b=float(coef[1]), residual=resid)


def chain_rule_defect(hsol: HalfspaceSolution, t, probes, h=1e-3) -> float:
    """Max defect of x_1 d/dx_1 U^1 = d/dy_1 V^1 at probe points with x_1 < 1.

    Both sides use centered differences (relative step h*x_1 on the half-space
    side, step h on the straightened side).
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if np.any(probes[:, 0] >= 1) or np.any(probes[:, 0] <= 0):
        raise ConfigError("chain-rule probes need 0 < x_1 < 1")
    uf = hsol.u_field()
    vf = hsol.v_field()
    worst = 0.0
    for x in probes:
        hx = h * x[0]
        xp, xm = x.copy(), x.copy()
        xp[0] += hx
        xm[0] -= hx
        du = (uf.eval(t, xp[None, :])[0, 0] - uf.eval(t, xm[None, :])[0, 0]) / (2 * hx)
        y = to_log_coordinates(x)
        yp, ym = y.copy(), y.copy()
        yp[0] += h
        ym[0] -= h
        dv = (vf.eval(t, yp[None, :])[0, 0] - vf.eval(t, ym[None, :])[0, 0]) / (2 * h)
        worst = max(worst, abs(x[0] * du - dv))
    return worst
