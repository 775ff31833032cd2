"""Characteristics of the jump-free system and a shooting oracle.

When lambda = 0 the planning system transports data along

    dx/ds = F(x, u),    du/ds = G(x, u),    x(0) = z,  u(0) = U0(z),

and the field satisfies U(t, x(t)) = u(t). solve_by_shooting inverts the
endpoint map z -> x(t) for a whole batch of points with the damped Newton
of the resolvent, which gives grid-free values of U to cross-check the
marching solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrationError
from .model import ModelSpec
from .yosida import _newton_batch, _require_converged

# Below this horizon the shooting solve is replaced by the first-order
# expansion U0(x) + t G(x, U0(x)); Newton on a nearly-identity endpoint map
# is ill-conditioned there and the expansion is already within tolerance.
SMALL_T = 1e-3


@dataclass(frozen=True)
class CharState:
    """State of one characteristic: position x, carried value u, elapsed s."""

    x: np.ndarray
    u: np.ndarray
    s: float


def penalized_data(x0, eps):
    """Vectorized initial map z -> (z - x0)/eps of the penalized problem."""
    x0 = np.asarray(x0, dtype=float)
    if eps <= 0:
        raise ConfigError("eps must be > 0")

    def U0(z):
        return (np.asarray(z, dtype=float) - x0) / eps

    return U0


def _rk4_batch(m: ModelSpec, x, u, t, steps):
    """Classical RK4 on rows of (x, u); returns the endpoint states."""
    h = t / steps
    for k in range(steps):
        k1x = m.eval_F(x, u)
        k1u = m.eval_G(x, u)
        k2x = m.eval_F(x + 0.5 * h * k1x, u + 0.5 * h * k1u)
        k2u = m.eval_G(x + 0.5 * h * k1x, u + 0.5 * h * k1u)
        k3x = m.eval_F(x + 0.5 * h * k2x, u + 0.5 * h * k2u)
        k3u = m.eval_G(x + 0.5 * h * k2x, u + 0.5 * h * k2u)
        k4x = m.eval_F(x + h * k3x, u + h * k3u)
        k4u = m.eval_G(x + h * k3x, u + h * k3u)
        x_new = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        u_new = u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(u_new))):
            raise IntegrationError(
                f"characteristic blew up after step {k} of {steps}",
                last_state=CharState(x.copy(), u.copy(), k * h))
        x, u = x_new, u_new
    return x, u


def flow_forward(m: ModelSpec, z, u0, t, rk_steps=128) -> CharState:
    """Integrate one characteristic from (z, u0) over [0, t] with RK4."""
    if m.lam > 0:
        raise ConfigError("characteristics require lambda = 0")
    if t < 0:
        raise ConfigError("t must be >= 0")
    if rk_steps < 1:
        raise ConfigError("rk_steps must be >= 1")
    z = np.atleast_2d(np.asarray(z, dtype=float))
    u0 = np.atleast_2d(np.asarray(u0, dtype=float))
    if t == 0:
        return CharState(z[0].copy(), u0[0].copy(), 0.0)
    x, u = _rk4_batch(m, z.copy(), u0.copy(), t, rk_steps)
    return CharState(x[0], u[0], float(t))


def solve_by_shooting(m: ModelSpec, U0, t, x, tol=1e-10, rk_steps=None,
                      max_iter=50) -> np.ndarray:
    """Values U(t, x) obtained by shooting characteristics onto the rows of x.

    x is one point (d,) or a batch (N, d); the result has the same shape. U0
    is the initial map (vectorized, (N,d) -> (N,d)). The foot points z solve
    x(t; z) = x by the resolvent's batched damped Newton with finite-difference
    Jacobians (step 1e-6*(1+|z|)); below t = SMALL_T the first-order expansion
    in t is returned directly. Raises NewtonError when a row stays above tol.
    """
    if m.lam > 0:
        raise ConfigError("shooting requires lambda = 0")
    x = np.asarray(x, dtype=float)
    X = x.reshape(-1, m.d)
    if t < SMALL_T:
        u0 = np.asarray(U0(X), dtype=float)
        u = u0 + t * np.asarray(m.eval_G(X, u0), dtype=float)
    else:
        if rk_steps is None:
            rk_steps = max(64, int(np.ceil(t / 0.005)))

        def flow(z):
            return _rk4_batch(m, z, np.asarray(U0(z), dtype=float), t, rk_steps)

        z, rn = _newton_batch(lambda z: flow(z)[0], X, X, tol, max_iter, fd_h=1e-6)
        _require_converged(rn, tol, "shooting")
        u = flow(z)[1]
    return u.reshape(x.shape)
