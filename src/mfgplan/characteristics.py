"""Characteristics of the jump-free system and a shooting oracle.

When lambda = 0 the planning system transports data along

    dx/ds = F(x, u),    du/ds = G(x, u),    x(0) = z,  u(0) = U0(z),

and the field satisfies U(t, x(t)) = u(t). solve_by_shooting inverts the
endpoint map z -> x(t) for a whole batch of points with the damped Newton
of the resolvent, which gives grid-free values of U to cross-check the
marching solver.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, IntegrationError
from .model import ModelSpec
from .yosida import _newton_batch, _require_converged

# Shooting's Newton stops at a residual of SHOOT_TOL; the iteration cap only
# stops a row that stalls, as on a singular endpoint map.
SHOOT_TOL, SHOOT_MAX_ITER = 1e-10, 50
# Shooting flows [0, t] in max(SHOOT_MIN_STEPS, ceil(t/SHOOT_MAX_H)) RK4 steps:
# at least SHOOT_MIN_STEPS however short t is, none longer than SHOOT_MAX_H.
SHOOT_MIN_STEPS, SHOOT_MAX_H = 64, 0.005


def penalized_data(x0, eps):
    """Vectorized initial map z -> (z - x0)/eps of the penalized problem."""
    x0 = np.asarray(x0, dtype=float)
    if not (np.isfinite(eps) and eps > 0):  # a nan or inf eps gives no penalization
        raise ConfigError(f"eps must be finite and > 0, got {eps:.12g}")

    def U0(z):
        return (np.asarray(z, dtype=float) - x0) / eps

    return U0


def rk4_step(f, t, y, h, k1=None):
    """One classical RK4 step of dy/dt = f(t, y) from (t, y), backward if h < 0.

    k1, when given, is the known first stage f(t, y).
    """
    if k1 is None:
        k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _velocity(m: ModelSpec):
    """Right-hand side (s, y) -> (F, G) of the rows y = (x, u) stacked as (2, N, d)."""
    def f(s, y):
        out = np.empty_like(y)  # filled in place: np.stack costs more than F on a few rows
        out[0], out[1] = m.eval_F(*y), m.eval_G(*y)
        return out
    return f


def flow_forward(m: ModelSpec, z, u0, t, rk_steps):
    """Characteristics from (z, u0) over [0, t] by rk_steps RK4 steps of the rows (x, u).

    z and u0 are one point (d,) or a batch (N, d); returns the endpoint (x, u),
    each of that shape. A non-finite state raises IntegrationError with
    last_state (s, x, u), the last finite one.
    """
    if m.lam > 0:
        raise ConfigError("characteristics require lambda = 0")
    if not (np.isfinite(t) and t >= 0):
        raise ConfigError(f"characteristics need a finite t >= 0, got {t}")
    if rk_steps < 1:
        raise ConfigError("rk_steps must be >= 1")
    z, u0 = np.asarray(z, dtype=float), np.asarray(u0, dtype=float)
    if t == 0:
        return z.copy(), u0.copy()

    y = np.stack([z.reshape(-1, m.d), u0.reshape(-1, m.d)])  # each stage point is formed once
    h, velocity = t / rk_steps, _velocity(m)
    with np.errstate(over="ignore", invalid="ignore"):  # checked each step
        for k in range(rk_steps):
            y_new = rk4_step(velocity, k * h, y, h)
            if not np.isfinite(y_new).all():
                raise IntegrationError(f"characteristic blew up after step {k} of {rk_steps}",
                                       last_state=(k * h, *y.reshape(2, *z.shape)))
            y = y_new
    x, u = y.reshape(2, *z.shape)
    return x, u


def _affine_endpoint_map(m: ModelSpec, t, rk_steps):
    """Endpoint map of rk_steps RK4 steps over [0, t] for affine F and G.

    Returns (M, b) taking rows y = (x, u) to y @ M + b, or (None, None) for a
    registered F or G, a model with coords (its fields read coords(x), which
    need not be affine in x) or a map that is not finite. One step of
    y' = A y + c is affine in y, so rk4_step on the zero row and the 2d unit
    rows gives it, and the steps compose as one augmented matrix.
    """
    if m.coords is not None or not m.F.kind == m.G.kind == "affine":
        return None, None
    n = 2 * m.d
    basis = np.vstack([np.zeros(n), np.eye(n)]).reshape(n + 1, 2, m.d).transpose(1, 0, 2)
    img = rk4_step(_velocity(m), 0.0, basis, t / rk_steps)
    img = img.transpose(1, 0, 2).reshape(n + 1, n)  # row k: the image of basis row k
    step = np.zeros((n + 1, n + 1))  # [1, y] @ step = [1, y @ R + r]
    step[0, 0], step[0, 1:], step[1:, 1:] = 1.0, img[0], img[1:] - img[0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        endpoint = np.linalg.matrix_power(step, rk_steps)
    if not np.isfinite(endpoint).all():
        return None, None
    return endpoint[1:, 1:], endpoint[0, 1:]


def solve_by_shooting(m: ModelSpec, U0, t, x) -> np.ndarray:
    """Values U(t, x) obtained by shooting characteristics onto the rows of x.

    x is one point (d,) or a batch (N, d); the result has the same shape. U0
    is the initial map (vectorized, (N,d) -> (N,d)). The foot points z solve
    x(t; z) = x by the resolvent's batched damped Newton with finite-difference
    Jacobians (step 1e-6*(1+|z|)), at every t >= 0. Affine F and G flow
    through the composed RK4 endpoint map; a registered field, a model with
    coords, or a map or endpoint that is not finite, takes flow_forward.
    Raises NewtonError when a row stays above SHOOT_TOL.
    """
    if m.lam > 0:
        raise ConfigError("shooting requires lambda = 0")
    if not (np.isfinite(t) and t >= 0):
        raise ConfigError(f"shooting needs a finite t >= 0, got {t}")
    x = np.asarray(x, dtype=float)
    X = x.reshape(-1, m.d)
    rk_steps = max(SHOOT_MIN_STEPS, int(np.ceil(t / SHOOT_MAX_H)))
    M, b = _affine_endpoint_map(m, t, rk_steps)

    def flow(z):  # endpoint x as the value, u as the payload
        u0 = U0(z)
        if M is not None:
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                y = np.concatenate([z, u0], axis=1) @ M + b
            if np.isfinite(y).all():
                return y[:, :m.d], y[:, m.d:]
        return flow_forward(m, z, u0, t, rk_steps)

    _, rn, u = _newton_batch(flow, X, X, SHOOT_TOL, SHOOT_MAX_ITER, fd_h=1e-6)
    _require_converged(rn, SHOOT_TOL, "shooting")
    return u.reshape(x.shape)
