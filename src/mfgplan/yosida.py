"""Resolvent and Yosida regularization of monotone fields.

For a monotone map U the resolvent solves y + delta U(y) = x and the
regularized map is V(x) = U(y). Two independent routes are provided:

* yosida_apply composes U with the resolvent computed by damped Newton;
* yosida_by_transport runs the exact characteristic construction of the
  vector Burgers flow dW/ds + (W . grad) W = 0 started from W(0) = U, for
  which W(s, z + s W(0,z)) = W(0,z); the slice after s = delta is the
  regularized map. Substeps invert z + s W(z) = x by fixed-point iteration,
  so the two routes share no solver code.

The regularized map keeps monotonicity and obeys the gradient bound
|grad V| <= 1/delta regardless of how steep U is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NewtonError
from .grid_solver import Box, GridSolution, Slice, node_jacobians
from .model import ModelSpec


def _as_eval(U):
    """Normalize a Slice or vectorized callable to a (N,d)->(N,d) function."""
    if isinstance(U, Slice):
        return U.eval
    if callable(U):
        return lambda pts: np.asarray(U(pts), dtype=float)
    raise ConfigError("field must be a Slice or a vectorized callable")


def _newton_batch(f, target, y0, tol, max_iter, fd_h=1e-7):
    """Damped Newton for f(y) = target on every row of y0, f vectorized over rows.

    Returns (y, residual_norms). Jacobians are centered finite differences,
    all 2*d perturbed copies of y evaluated in one call of f; steps are halved
    until the row residual does not increase, and a row whose halving fails
    keeps its point. Iteration stops once every row is within tol or no row
    above tol improved.
    """
    y = np.atleast_2d(np.asarray(y0, dtype=float)).copy()
    n, d = y.shape
    r = f(y) - target
    rn = np.linalg.norm(r, axis=1)
    eye = np.eye(d)
    for _ in range(max_iter):
        if np.all(rn <= tol):
            break
        h = fd_h * (1.0 + np.abs(y))
        probes = np.repeat(y[None], 2 * d, axis=0)
        for j in range(d):
            probes[j, :, j] += h[:, j]
            probes[d + j, :, j] -= h[:, j]
        fp = f(probes.reshape(-1, d)).reshape(2 * d, n, d) - target
        J = np.moveaxis(fp[:d] - fp[d:], 0, -1) / (2.0 * h[:, None, :])
        try:
            step = np.linalg.solve(J, -r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.linalg.solve(J + 1e-10 * eye, -r[..., None])[..., 0]
        alpha = np.ones(n)
        for _ in range(30):
            y_try = y + alpha[:, None] * step
            r_try = f(y_try) - target
            rn_try = np.linalg.norm(r_try, axis=1)
            bad = (rn_try > rn) & (rn > tol)
            if not np.any(bad):
                break
            alpha = np.where(bad, alpha * 0.5, alpha)
        y_try[bad], r_try[bad], rn_try[bad] = y[bad], r[bad], rn[bad]
        improved = np.any((rn_try < rn) & (rn > tol))
        y, r, rn = y_try, r_try, rn_try
        if not improved:
            break
    return y, rn


def _require_converged(rn, tol, what):
    """Raise NewtonError when any residual norm in rn is above tol."""
    if not np.all(rn <= tol):  # a nan residual counts as above tol
        worst = float(np.max(rn))
        raise NewtonError(f"{what} left {int(np.sum(~(rn <= tol)))} points above tolerance "
                          f"(worst residual {worst:.3e})", residual=worst)


def resolvent(U, delta, x, tol=1e-10, max_iter=60) -> np.ndarray:
    """Solve y + delta U(y) = x for each row of x by damped Newton."""
    if delta < 0:
        raise ConfigError("delta must be >= 0")
    ue = _as_eval(U)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if delta == 0:
        return x.copy()

    y, rn = _newton_batch(lambda y: y + delta * ue(y), X, X, tol, max_iter)
    _require_converged(rn, tol, "resolvent Newton")
    return y[0] if single else y


def yosida_apply(U, delta, x, tol=1e-10, max_iter=60) -> np.ndarray:
    """Regularized map V(x) = U((Id + delta U)^{-1} x)."""
    ue = _as_eval(U)
    y = resolvent(U, delta, x, tol=tol, max_iter=max_iter)
    single = np.asarray(x).ndim == 1
    out = ue(np.atleast_2d(y))
    return out[0] if single else out


def yosida_by_transport(u: Slice, delta, burgers_steps=1, tol=1e-12,
                        max_iter=500) -> Slice:
    """Regularized slice via the Burgers characteristic construction.

    Each substep of length s = delta/burgers_steps rebuilds the slice on the
    grid nodes: the foot point of the node x solves z + s W(z) = x, found by
    the contraction iteration z <- x - s W(z), and the new node value is W(z).
    The iteration contracts only when s * Lip(W) < 1; raise burgers_steps for
    steep slices.
    """
    if delta < 0:
        raise ConfigError("delta must be >= 0")
    if burgers_steps < 1:
        raise ConfigError("burgers_steps must be >= 1")
    if delta == 0:
        return Slice(u.box, u.values.copy())
    s = delta / burgers_steps
    nodes = u.box.node_list()
    values = u.values
    for _ in range(burgers_steps):
        cur = Slice(u.box, values)
        z = nodes - s * cur.eval(nodes)
        converged = False
        for _ in range(max_iter):
            z_new = nodes - s * cur.eval(z)
            gap = float(np.max(np.abs(z_new - z)))
            z = z_new
            if gap <= tol:
                converged = True
                break
        if not converged:
            raise NewtonError(
                "transport inversion did not contract; increase burgers_steps",
                residual=gap)
        values = cur.eval(z).reshape(values.shape)
    return Slice(u.box, values)


@dataclass(eq=False)
class YosidaField:
    """Time-indexed regularized field V(t, .) stored on box nodes."""

    delta: float
    sol: GridSolution

    @property
    def box(self) -> Box:
        return self.sol.box

    def slice_at(self, t) -> Slice:
        return self.sol.slice_at(t)


def yosida_field(base: GridSolution, delta, times=None, tol=1e-10) -> YosidaField:
    """Regularize every requested recorded slice of a solution."""
    if times is None:
        times = base.times
    times = np.asarray(times, dtype=float)
    nodes = base.box.node_list()
    vals = []
    for t in times:
        V = yosida_apply(base.slice_at(t), delta, nodes, tol=tol)
        vals.append(V.reshape(*base.box.shape, -1))
    sol = GridSolution(box=base.box, times=times, values=np.stack(vals),
                       meta={"kind": "yosida", "delta": float(delta)})
    return YosidaField(delta=float(delta), sol=sol)


def invert_shift(v: Slice, delta, targets, tol=1e-10, max_iter=60):
    """Solve w - delta V(w) = target per row; returns (w, converged mask).

    Newton starts from target + delta V(target), which is exact for affine V.
    """
    ve = v.eval
    T = np.atleast_2d(np.asarray(targets, dtype=float))

    w0 = T + delta * ve(T)
    w, rn = _newton_batch(lambda w: w - delta * ve(w), T, w0, tol, max_iter)
    return w, rn <= max(tol, 1e-8)


@dataclass(eq=False)
class ResidualField:
    """Per-node defect values plus the mask of nodes excluded as unreliable."""

    values: np.ndarray
    excluded: np.ndarray

    def max(self) -> float:
        ok = ~self.excluded
        if not np.any(ok):
            raise NewtonError("every node was excluded from the residual")
        return float(np.max(self.values[ok]))


def eqV_residual(m: ModelSpec, V: YosidaField, t) -> ResidualField:
    """Defect of the transported equation satisfied by regularized fields.

    With y = x - delta V(t,x) the field must satisfy

        dV/dt + (F(y, V) . grad) V
            = (I - delta grad V) [ G(y, V) - lambda (V - S^T V(w)) ],

    where w - delta V(t,w) = S y + e. Time and space derivatives are centered
    (one-sided at box faces); nodes whose inversion for w fails are excluded
    from the field and flagged.
    """
    sol = V.sol
    k = sol.index_of(t)
    if k == 0 or k == len(sol.times) - 1:
        raise ConfigError("t must be interior to the recorded time grid")
    box = sol.box
    delta = V.delta
    X = box.nodes()
    Vk = sol.values[k]
    dVdt = (sol.values[k + 1] - sol.values[k - 1]) / (sol.times[k + 1] - sol.times[k - 1])
    J = node_jacobians(Slice(box, Vk))
    y = X - delta * Vk
    Fv = m.eval_F(y, Vk)
    adv = np.einsum("...ia,...a->...i", J, Fv)
    core = m.eval_G(y, Vk)
    excluded = np.zeros(box.shape, dtype=bool)
    if m.lam > 0:
        vslice = Slice(box, Vk)
        z = m.noise(y.reshape(-1, box.dim))
        w, ok = invert_shift(vslice, delta, z)
        relabeled = (vslice.eval(w) @ m.noise.S).reshape(Vk.shape)
        core = core - m.lam * (Vk - relabeled)
        excluded = (~ok).reshape(box.shape)
    eye = np.eye(box.dim)
    rhs = np.einsum("...ij,...j->...i", eye - delta * J, core)
    vals = np.linalg.norm(dVdt + adv - rhs, axis=-1)
    return ResidualField(values=vals, excluded=excluded)


def residual(m: ModelSpec, sol: GridSolution, t) -> np.ndarray:
    """Pointwise norm of the master-equation defect of a recorded solution at time t.

    The transported equation at delta = 0 is the master equation itself: the
    regularized field is the solution, y = x and w = S x + e. So this is
    eqV_residual of the unregularized field, with its interior-time rule.
    """
    return eqV_residual(m, YosidaField(0.0, sol), t).values
