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

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .grid_solver import Box, GridField
from .model import FieldSpec, ModelSpec, eval_field

# check_factorization and check_inward_flow take no box: they sample
# N_SAMPLES pairs (x, p), each coordinate but x_1 uniform in
# [-SAMPLE_HALFWIDTH, SAMPLE_HALFWIDTH], a cube around the unit seam.
N_SAMPLES, SAMPLE_HALFWIDTH = 2000, 2.0

# chain_rule_defect's centered-difference step: relative to x_1 on the
# half-space side, where the ln(x_1) profile varies on the scale of x_1, and
# absolute on the straightened side.
CHAIN_RULE_STEP = 1e-3

# The halfspace command fits the wall's log profile at LOG_FIT_POINTS >= 2 values of x_1,
# geometric in [LOG_FIT_X1_MIN, LOG_FIT_X1_MAX], inside (0, 1) where y_1 = 1 + ln(x_1).
LOG_FIT_X1_MIN, LOG_FIT_X1_MAX, LOG_FIT_POINTS = 0.02, 0.9, 12


def to_log_coordinates(x) -> np.ndarray:
    """Straightening map on any (..., d) array; requires x_1 > 0."""
    y = np.array(x, dtype=float)
    y1 = y[..., 0]  # a view: the writes below land in y
    if np.any(y1 <= 0):
        raise ConfigError("log coordinates need x_1 > 0")
    low = y1 < 1.0
    y1[low] = 1.0 + np.log(y1[low])
    return y


def from_log_coordinates(y) -> np.ndarray:
    """Inverse of to_log_coordinates on any (..., d) array."""
    x = np.array(y, dtype=float)
    x1 = x[..., 0]
    low = x1 < 1.0
    x1[low] = np.exp(x1[low] - 1.0)
    return x


@dataclass(frozen=True, eq=False)
class HalfspaceModel:
    """Half-space problem data: the wall-adapted model plus its factored drift.

    base.F is the drift on the half space (F_1 = x_1 * Ftilde_1 for x_1 <= 1);
    ftilde is the factored drift (Ftilde_1, F_2, ..., F_d). The declared
    structural constants of base (0 where undeclared) describe ftilde, which
    is the map the straightened system runs on; an affine base checks them
    against its own couple instead (ModelSpec), so it should declare none.
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


def check_factorization(hm: HalfspaceModel, rng_seed=0) -> float:
    """Max defect of F_1 = x_1 Ftilde_1 (x_1 in (0,1]) and F_j = Ftilde_j (j>=2)."""
    m = hm.base
    rng = np.random.default_rng(rng_seed)
    x = rng.uniform(-SAMPLE_HALFWIDTH, SAMPLE_HALFWIDTH, size=(N_SAMPLES, m.d))
    x[:, 0] = rng.uniform(1e-6, 1.0, size=N_SAMPLES)
    p = rng.uniform(-SAMPLE_HALFWIDTH, SAMPLE_HALFWIDTH, size=(N_SAMPLES, m.d))
    F = m.eval_F(x, p)
    Ft = eval_field(hm.ftilde, x, p)
    defect = np.abs(F[:, 0] - x[:, 0] * Ft[:, 0])
    if m.d > 1:
        defect = np.maximum(defect, np.max(np.abs(F[:, 1:] - Ft[:, 1:]), axis=1))
    return float(np.max(defect))


def check_inward_flow(m: ModelSpec, rng_seed=0) -> float:
    """Min of F_1(x, p) over samples on the wall {x_1 = 0}.

    The inward-pointing condition <F, n> <= 0 with outward normal n = -e_1
    reads F_1 >= 0 there.
    """
    rng = np.random.default_rng(rng_seed)
    x = rng.uniform(-SAMPLE_HALFWIDTH, SAMPLE_HALFWIDTH, size=(N_SAMPLES, m.d))
    x[:, 0] = 0.0
    p = rng.uniform(-SAMPLE_HALFWIDTH, SAMPLE_HALFWIDTH, size=(N_SAMPLES, m.d))
    return float(np.min(m.eval_F(x, p)[:, 0]))


def transformed_model(hm: HalfspaceModel) -> ModelSpec:
    """Full-space model in straightened coordinates: the base model with the
    factored drift, target y(x0), and fields read at x(y).

    The relabeling and the declared constants (used as declared, not derived)
    carry over: the relabeling commutes with the straightening because it
    leaves the first coordinate fixed.
    """
    return replace(hm.base, F=hm.ftilde, x0=to_log_coordinates(hm.base.x0),
                   coords=from_log_coordinates)


class PullbackField:
    """Half-space view U(t, x) = V(t, y(x)) of a straightened grid field."""

    def __init__(self, v_field: GridField):
        self.v_field = v_field
        box_y = v_field.box  # the straightening is monotone per axis
        self.box = Box(from_log_coordinates(box_y.lo), from_log_coordinates(box_y.hi), box_y.n)

    def eval(self, t, pts) -> np.ndarray:
        return self.v_field.eval(t, to_log_coordinates(pts))


@dataclass
class LogFit:
    """Least-squares fit U^1(t, x) ~ a ln(x_1) + b along a wall-approaching tail."""

    a: float
    b: float
    residual: float  # rms misfit


def check_log_blowup(U, t, x1_samples, x_rest) -> LogFit:
    """Fit the first component of U(t, pts) -> (N, d) against ln(x_1) at fixed x_2..x_d."""
    x1 = np.asarray(x1_samples, dtype=float)
    if np.any(x1 <= 0) or np.any(x1 >= 1):
        raise ConfigError("tail samples must satisfy 0 < x_1 < 1")
    x_rest = np.asarray(x_rest, dtype=float).reshape(-1)
    pts = np.column_stack([x1, np.tile(x_rest, (len(x1), 1))]) if x_rest.size \
        else x1[:, None]
    vals = np.asarray(U(t, pts), dtype=float)[:, 0]
    A = np.column_stack([np.log(x1), np.ones_like(x1)])
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - vals) ** 2)))
    return LogFit(a=float(coef[0]), b=float(coef[1]), residual=resid)


def chain_rule_defect(u: PullbackField, t, probes) -> float:
    """Max defect of x_1 d/dx_1 U^1 = d/dy_1 V^1 at probe points with x_1 < 1.

    Both sides use centered differences (relative step CHAIN_RULE_STEP * x_1
    on the half-space side, step CHAIN_RULE_STEP on the straightened side).
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if np.any(probes[:, 0] >= 1) or np.any(probes[:, 0] <= 0):
        raise ConfigError("chain-rule probes need 0 < x_1 < 1")

    def d1(field, pts, step):  # centered difference of component 1 along axis 1
        plus, minus = pts.copy(), pts.copy()
        plus[:, 0] += step
        minus[:, 0] -= step
        return (field.eval(t, plus)[:, 0] - field.eval(t, minus)[:, 0]) / (2 * step)

    du = d1(u, probes, CHAIN_RULE_STEP * probes[:, 0])
    dv = d1(u.v_field, to_log_coordinates(probes), CHAIN_RULE_STEP)
    return float(np.max(np.abs(probes[:, 0] * du - dv), initial=0.0))
