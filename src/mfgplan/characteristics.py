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

# Below this horizon the shooting solve is replaced by the first-order
# expansion U0(x) + t G(x, U0(x)); Newton on a nearly-identity endpoint map
# is ill-conditioned there and the expansion is already within tolerance.
SMALL_T = 1e-3


def penalized_data(x0, eps):
    """Vectorized initial map z -> (z - x0)/eps of the penalized problem."""
    x0 = np.asarray(x0, dtype=float)
    if eps <= 0:
        raise ConfigError("eps must be > 0")

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


def flow_forward(m: ModelSpec, z, u0, t, rk_steps=128):
    """Characteristics from (z, u0) over [0, t] by rk_steps RK4 steps of the rows (x, u).

    z and u0 are one point (d,) or a batch (N, d); returns the endpoint (x, u),
    each of that shape. A non-finite state raises IntegrationError with
    last_state (s, x, u), the last finite one.
    """
    if m.lam > 0:
        raise ConfigError("characteristics require lambda = 0")
    if t < 0:
        raise ConfigError("t must be >= 0")
    if rk_steps < 1:
        raise ConfigError("rk_steps must be >= 1")
    z, u0 = np.asarray(z, dtype=float), np.asarray(u0, dtype=float)
    if t == 0:
        return z.copy(), u0.copy()

    fg = m.bind_stacked()  # y stacks (x, u): each stage point is formed once, for F and G

    def velocity(s, y):
        return fg(y)

    y = np.stack([z.reshape(-1, m.d), u0.reshape(-1, m.d)])
    h = t / rk_steps
    for k in range(rk_steps):
        y_new = rk4_step(velocity, k * h, y, h)
        if not np.isfinite(y_new).all():
            raise IntegrationError(f"characteristic blew up after step {k} of {rk_steps}",
                                   last_state=(k * h, *y.reshape(2, *z.shape)))
        y = y_new
    x, u = y.reshape(2, *z.shape)
    return x, u


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

        def flow(z):  # endpoint x as the value, u as the payload
            return flow_forward(m, z, U0(z), t, rk_steps)

        _, rn, u = _newton_batch(flow, X, X, tol, max_iter, fd_h=1e-6)
        _require_converged(rn, tol, "shooting")
    return u.reshape(x.shape)
