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
from .grid_solver import GridSolution, Slice, node_jacobians
from .model import ModelSpec

# The Newton of the resolvent and of the shift inversion stops at a residual
# of NEWTON_TOL, well below the 1e-8 at which the two regularization routes
# are compared; the iteration cap only stops a row that stalls.
NEWTON_TOL, NEWTON_MAX_ITER = 1e-10, 60
# invert_shift counts a row converged within this looser residual; extract_limit
# flags the other rows as failed nodes.
SHIFT_ACCEPT_TOL = 1e-8
# yosida_by_transport's contraction stops once no foot point moves further
# than TRANSPORT_TOL; the iteration cap, or a non-finite move, stops one that
# does not contract, and the NewtonError reports its last finite move.
TRANSPORT_TOL, TRANSPORT_MAX_ITER = 1e-12, 500


def _as_eval(U):
    """Normalize a Slice or vectorized callable to a (N,d)->(N,d) function."""
    if isinstance(U, Slice):
        return U.eval
    if callable(U):
        return lambda pts: np.asarray(U(pts), dtype=float)
    raise ConfigError("field must be a Slice or a vectorized callable")


def _newton_batch(f, target, y0, tol, max_iter, fd_h=1e-7):
    """Damped Newton for f(y) = target on every row of y0, f vectorized over rows.

    f returns (value, payload), payload holding a row of what the caller needs
    at that point (the resolvent's U(y), the shooting endpoint's u). Returns
    (y, residual_norms, payload) at the accepted points. Jacobians are
    centered finite differences, all 2*d perturbed copies of y evaluated in
    one call of f; the start y0 rides in the call of its own copies, so f
    must treat each row on its own. Steps are halved until the row residual
    does not increase, and a row whose halving fails keeps its point and its
    payload. Iteration stops once every row is within tol or no row above tol
    improved.
    """
    y = np.atleast_2d(np.asarray(y0, dtype=float)).copy()
    n, d = y.shape
    eye = np.eye(d)

    def probes(y, lead):
        """lead copies of y, then its 2*d finite-difference copies, as rows; and the steps h."""
        h = fd_h * (1.0 + np.abs(y))
        rows = np.repeat(y[None], lead + 2 * d, axis=0)
        for j in range(d):
            rows[lead + j, :, j] += h[:, j]
            rows[lead + d + j, :, j] -= h[:, j]
        return rows.reshape(-1, d), h

    rows, h = probes(y, 1)
    val, pay = f(rows)
    val = val.reshape(1 + 2 * d, n, d) - target
    r, fp, pay = val[0], val[1:], pay[:n].copy()  # a view would keep the probes' rows alive
    rn = np.linalg.norm(r, axis=1)
    for _ in range(max_iter):
        if np.all(rn <= tol):
            break
        if fp is None:
            rows, h = probes(y, 0)
            fp = f(rows)[0].reshape(2 * d, n, d) - target
        J = np.moveaxis(fp[:d] - fp[d:], 0, -1) / (2.0 * h[:, None, :])
        fp = None
        try:
            step = np.linalg.solve(J, -r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.linalg.solve(J + 1e-10 * eye, -r[..., None])[..., 0]
        alpha = np.ones(n)
        for _ in range(30):
            y_try = y + alpha[:, None] * step
            r_try, pay_try = f(y_try)
            r_try = r_try - target
            rn_try = np.linalg.norm(r_try, axis=1)
            bad = (rn_try > rn) & (rn > tol)
            if not np.any(bad):
                break
            alpha = np.where(bad, alpha * 0.5, alpha)
        y_try[bad], r_try[bad], rn_try[bad], pay_try[bad] = y[bad], r[bad], rn[bad], pay[bad]
        improved = np.any((rn_try < rn) & (rn > tol))
        y, r, rn, pay = y_try, r_try, rn_try, pay_try
        if not improved:
            break
    return y, rn, pay


def _require_converged(rn, tol, what):
    """Raise NewtonError when any residual norm in rn is above tol."""
    if not np.all(rn <= tol):  # a nan residual counts as above tol
        worst = float(np.max(rn))
        raise NewtonError(f"{what} left {int(np.sum(~(rn <= tol)))} points above tolerance "
                          f"(worst residual {worst:.3e})", residual=worst)


def resolvent(U, delta, x):
    """Solve y + delta U(y) = x for each row of x by damped Newton; returns (y, U(y)).

    U(y) is the Newton's payload at the accepted points, so a caller that
    needs the field there does not evaluate it again.
    """
    if delta < 0:
        raise ConfigError("delta must be >= 0")
    ue = _as_eval(U)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if delta == 0:
        y, u = X.copy(), ue(X)
    else:
        def f(y):
            u = ue(y)
            return y + delta * u, u

        y, rn, u = _newton_batch(f, X, X, NEWTON_TOL, NEWTON_MAX_ITER)
        _require_converged(rn, NEWTON_TOL, "resolvent Newton")
    return (y[0], u[0]) if single else (y, u)


def yosida_apply(U, delta, x) -> np.ndarray:
    """Regularized map V(x) = U((Id + delta U)^{-1} x)."""
    return resolvent(U, delta, x)[1]


def yosida_by_transport(u: Slice, delta, burgers_steps=1) -> Slice:
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
        gap = np.inf
        # a diverging iteration overflows: it stops at its first non-finite move
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(TRANSPORT_MAX_ITER):
                z_new = nodes - s * cur.eval(z)
                move = float(np.max(np.abs(z_new - z)))
                if not np.isfinite(move):
                    break
                z, gap = z_new, move
                if gap <= TRANSPORT_TOL:
                    break
        if not gap <= TRANSPORT_TOL:
            raise NewtonError(
                "transport inversion did not contract; increase burgers_steps",
                residual=gap)
        values = cur.eval(z).reshape(values.shape)
    return Slice(u.box, values)


def yosida_field(base: GridSolution, delta, times) -> GridSolution:
    """The regularized field V(t, .) on the box nodes at the given recorded times."""
    nodes = base.box.node_list()
    vals = [yosida_apply(base.slice_at(t), delta, nodes).reshape(*base.box.shape, -1)
            for t in times]
    return GridSolution(box=base.box, times=times, values=np.stack(vals))


def invert_shift(v: Slice, delta, targets):
    """Solve w - delta V(w) = target per row; returns (w, converged mask, V(w)).

    Newton starts from target + delta V(target), which is exact for affine V.
    V(w) is the Newton's payload at the accepted points.
    """
    ve = v.eval
    T = np.atleast_2d(np.asarray(targets, dtype=float))

    w0 = T + delta * ve(T)

    def f(w):
        v = ve(w)
        return w - delta * v, v

    w, rn, vw = _newton_batch(f, T, w0, NEWTON_TOL, NEWTON_MAX_ITER)
    return w, rn <= SHIFT_ACCEPT_TOL, vw


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


def eqV_residual(m: ModelSpec, V: GridSolution, delta, t) -> ResidualField:
    """Defect of the transported equation satisfied by a field V regularized at delta.

    With y = x - delta V(t,x) the field must satisfy

        dV/dt + (F(y, V) . grad) V
            = (I - delta grad V) [ G(y, V) - lambda (V - S^T V(w)) ],

    where w - delta V(t,w) = S y + e. Time and space derivatives are centered
    (one-sided at box faces); nodes whose inversion for w fails are excluded
    from the field and flagged.
    """
    k = V.index_of(t)
    if k == 0 or k == len(V.times) - 1:
        raise ConfigError("t must be interior to the recorded time grid")
    box = V.box
    X = box.nodes()
    Vk = V.values[k]
    dVdt = (V.values[k + 1] - V.values[k - 1]) / (V.times[k + 1] - V.times[k - 1])
    J = node_jacobians(Slice(box, Vk))
    y = X - delta * Vk
    Fv = m.eval_F(y, Vk)
    adv = np.einsum("...ia,...a->...i", J, Fv)
    core = m.eval_G(y, Vk)
    excluded = np.zeros(box.shape, dtype=bool)
    if m.lam > 0:
        z = m.noise(y.reshape(-1, box.dim))
        _, ok, vw = invert_shift(Slice(box, Vk), delta, z)
        relabeled = (vw @ m.noise.S).reshape(Vk.shape)
        core = core - m.lam * (Vk - relabeled)
        excluded = (~ok).reshape(box.shape)
    eye = np.eye(box.dim)
    rhs = np.einsum("...ij,...j->...i", eye - delta * J, core)
    vals = np.linalg.norm(dVdt + adv - rhs, axis=-1)
    return ResidualField(values=vals, excluded=excluded)

