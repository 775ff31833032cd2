"""Upwind time marcher for the penalized planning system.

Solves, forward in t on an axis-aligned box,

    dU/dt + (F(x,U) . grad_x) U + lambda (U - S^T U(S x + e)) = G(x,U) + nu Lap U,
    U(0, x) = U0(x),

where U(t, x) is an R^d valued field, the advection velocity F(x, U) is shared
by every component of U, and nu >= 0 is an optional artificial viscosity.

Scheme: first-order upwind differences per axis against the common velocity,
forward Euler in time with an adaptive step

    dt = min(dt_max, cfl / max_nodes sum_a |F_a|/dx_a, cfl dx_min^2 / (2 d nu)),

which reduces to cfl*dx_min/max|F| in one dimension. Values outside the box
(upwind ghost nodes, relabeled points S x + e, interpolation queries) come from
clamped linear extrapolation off the two outermost nodes of each axis, which is
what the unclamped multilinear weight formula produces on the clamped boundary
cell. The march aborts when any |U| exceeds OVERFLOW_GUARD or is nan.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupError, ConfigError
from .model import ModelSpec

OVERFLOW_GUARD = 1e12

# Minimum number of cells between the planning target and any box face.
TARGET_MARGIN_CELLS = 10


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box [lo, hi] with n cells (n+1 nodes) per axis."""

    lo: np.ndarray
    hi: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        n = np.atleast_1d(np.asarray(self.n, dtype=int))
        if n.shape == (1,) and lo.shape != (1,):
            n = np.full(lo.shape, n[0])
        if not (lo.shape == hi.shape == n.shape):
            raise ConfigError("box lo/hi/n must have matching lengths")
        if np.any(hi <= lo):
            raise ConfigError("box needs hi > lo on every axis")
        if np.any(n < 2):
            raise ConfigError("box needs at least 2 cells per axis")
        for name, arr in (("lo", lo), ("hi", hi), ("n", n)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def dx(self) -> np.ndarray:
        return (self.hi - self.lo) / self.n

    @property
    def shape(self) -> tuple:
        return tuple(int(k) + 1 for k in self.n)

    def axes(self):
        return [np.linspace(self.lo[a], self.hi[a], self.n[a] + 1)
                for a in range(self.dim)]

    def nodes(self) -> np.ndarray:
        """Node coordinates, shape (*shape, dim)."""
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(grids, axis=-1)

    def node_list(self) -> np.ndarray:
        return self.nodes().reshape(-1, self.dim)

    def sample_points(self, rng, count) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(count, self.dim))

    def contains(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=-1)

    def margin_cells(self, x) -> int:
        """Distance from x to the nearest face, counted in whole cells."""
        x = np.asarray(x, dtype=float).reshape(-1)
        per_axis = np.minimum(x - self.lo, self.hi - x) / self.dx
        return int(np.floor(np.min(per_axis)))


class InterpPlan:
    """Precomputed corner indices and weights for repeated interpolation."""

    def __init__(self, box: Box, pts: np.ndarray):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rel = (pts - box.lo) / box.dx
        cell = np.clip(np.floor(rel), 0, box.n - 1).astype(np.int64)
        w = rel - cell  # outside [0,1] beyond the box: linear extrapolation
        dim = box.dim
        shape = box.shape
        strides = np.array([int(np.prod(shape[a + 1:])) for a in range(dim)], dtype=np.int64)
        corners = list(itertools.product((0, 1), repeat=dim))
        idx = np.empty((pts.shape[0], len(corners)), dtype=np.int64)
        wts = np.empty((pts.shape[0], len(corners)))
        for c, corner in enumerate(corners):
            node = cell + np.array(corner, dtype=np.int64)
            idx[:, c] = node @ strides
            weight = np.ones(pts.shape[0])
            for a in range(dim):
                weight = weight * (w[:, a] if corner[a] else 1.0 - w[:, a])
            wts[:, c] = weight
        self.idx = idx
        self.wts = wts

    def apply(self, values: np.ndarray) -> np.ndarray:
        flat = values.reshape(-1, values.shape[-1])
        return np.einsum("nc,ncd->nd", self.wts, flat[self.idx])


class Slice:
    """A d-vector field sampled on box nodes.

    Evaluation is multilinear inside the box and clamped-linear outside.
    """

    def __init__(self, box: Box, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape[:-1] != box.shape:
            raise ConfigError(f"slice values shape {values.shape} does not match box nodes {box.shape}")
        self.box = box
        self.values = values

    @property
    def d(self) -> int:
        return self.values.shape[-1]

    @staticmethod
    def from_fn(box: Box, fn) -> "Slice":
        vals = np.asarray(fn(box.node_list()), dtype=float)
        return Slice(box, vals.reshape(*box.shape, -1))

    def eval(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        out = InterpPlan(self.box, np.atleast_2d(pts)).apply(self.values)
        return out[0] if single else out

    __call__ = eval


@dataclass(frozen=True)
class SolverParams:
    """Marcher controls."""

    cfl: float = 0.75
    visc: float = 0.0
    t_end: float = 1.0
    dt_max: float = 0.01
    n_rec: int = 101

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ConfigError("solver.cfl must lie in (0, 1]")
        if self.visc < 0:
            raise ConfigError("solver.visc must be >= 0")
        if self.t_end <= 0:
            raise ConfigError("solver.t_end must be > 0")
        if self.dt_max <= 0:
            raise ConfigError("solver.dt_max must be > 0")
        if self.n_rec < 2:
            raise ConfigError("solver.n_rec must be >= 2")


@dataclass(eq=False)
class GridSolution:
    """Recorded time slices of a solve: times[k] and values[k] on box nodes."""

    box: Box
    times: np.ndarray
    values: np.ndarray  # (K, *box.shape, d)
    meta: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.values.shape[-1]

    def index_of(self, t, tol=1e-9) -> int:
        hits = np.nonzero(np.abs(self.times - t) <= tol)[0]
        if hits.size == 0:
            raise ValueError(f"t={t} is not a recorded time")
        return int(hits[0])

    def slice_at(self, t) -> Slice:
        return Slice(self.box, self.values[self.index_of(t)])

    def field(self) -> "GridField":
        return GridField(self)


class GridField:
    """Space-time multilinear view of a GridSolution."""

    def __init__(self, sol: GridSolution):
        self.sol = sol
        self.box = sol.box

    def eval(self, t, pts) -> np.ndarray:
        times = self.sol.times
        t = float(np.clip(t, times[0], times[-1]))
        k = int(np.searchsorted(times, t, side="right") - 1)
        k = min(max(k, 0), len(times) - 2)
        t0, t1 = times[k], times[k + 1]
        w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        plan = InterpPlan(self.box, np.atleast_2d(pts))
        out = (1.0 - w) * plan.apply(self.sol.values[k]) + w * plan.apply(self.sol.values[k + 1])
        return out[0] if single else out


class AnalyticField:
    """Wraps a closed-form field fn(t, pts) -> (N, d); box is used for probes."""

    def __init__(self, fn, box: Box | None = None):
        self.fn = fn
        self.box = box

    def eval(self, t, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        out = np.asarray(self.fn(t, np.atleast_2d(pts)), dtype=float)
        return out[0] if single else out


def sample_solution(box: Box, times, fn) -> GridSolution:
    """Inject a closed-form field fn(t, pts) on box nodes at the given times."""
    times = np.asarray(times, dtype=float)
    nodes = box.node_list()
    vals = np.stack([np.asarray(fn(t, nodes), dtype=float).reshape(*box.shape, -1)
                     for t in times])
    return GridSolution(box=box, times=times, values=vals, meta={"kind": "analytic"})


def _along(A: np.ndarray, axis: int, start=None, stop=None) -> np.ndarray:
    """View A[start:stop] taken along one axis (axis >= 0)."""
    return A[(slice(None),) * axis + (slice(start, stop),)]


def _pad_linear(U: np.ndarray, axis: int) -> np.ndarray:
    """Extend U by one linear-extrapolation ghost node on both ends of axis."""
    lo = 2.0 * _along(U, axis, 0, 1) - _along(U, axis, 1, 2)
    hi = 2.0 * _along(U, axis, -1) - _along(U, axis, -2, -1)
    return np.concatenate([lo, U, hi], axis=axis)


def _advection(U, Fv, dx):
    """Upwind (F . grad) applied to every component of U.

    One difference per axis over the padded nodes: node i's backward
    difference is D[i] and its forward difference is D[i+1].
    """
    adv = np.zeros_like(U)
    for a in range(len(dx)):
        D = np.diff(_pad_linear(U, a), axis=a) / dx[a]
        fa = Fv[..., a:a + 1]
        adv += fa * np.where(fa > 0, _along(D, a, None, -1), _along(D, a, 1))
    return adv


def _laplacian(U, dx):
    lap = np.zeros_like(U)
    for a in range(len(dx)):
        P = _pad_linear(U, a)
        lap += (_along(P, a, 2) - 2.0 * _along(P, a, 1, -1) + _along(P, a, None, -2)) \
            / dx[a] ** 2
    return lap


def solve_master(m: ModelSpec, u0: Slice, params: SolverParams) -> GridSolution:
    """March the system from the initial slice u0 to params.t_end.

    Slices are recorded at n_rec uniformly spaced times including 0 and t_end;
    the adaptive step is clipped to land exactly on each record time, so runs
    sharing params also share their time grid. Raises BlowupError (carrying the
    partial solution and the last stable time) if any |U| exceeds the guard.
    """
    box = u0.box
    if box.dim != m.d:
        raise ConfigError(f"box dimension {box.dim} does not match model d={m.d}")
    if box.margin_cells(m.x0) < TARGET_MARGIN_CELLS:
        raise ConfigError(
            f"box must contain x0 with a margin of at least {TARGET_MARGIN_CELLS} cells")
    F_at, G_at = m.bind(box.nodes())
    dx = box.dx
    S = m.noise.S
    rec_times = np.linspace(0.0, params.t_end, params.n_rec)
    U = u0.values.copy()

    jump_plan = None
    if m.lam > 0:
        # relabeled probe points are fixed in time; build the gather plan once
        jump_plan = InterpPlan(box, m.noise(box.node_list()))

    meta = {
        "cfl": params.cfl, "visc": params.visc, "dt_max": params.dt_max,
        "t_end": params.t_end, "n_rec": params.n_rec, "d": m.d,
        "lambda": m.lam, "box_lo": box.lo.tolist(), "box_hi": box.hi.tolist(),
        "box_n": box.n.tolist(), "aborted": False, "steps": 0,
    }

    def partial(slices, k_rec, t_last):
        meta_p = dict(meta)
        meta_p["aborted"] = True
        meta_p["t_last"] = t_last
        return GridSolution(box=box, times=rec_times[:k_rec].copy(),
                            values=np.stack(slices), meta=meta_p)

    slices = [U.copy()]
    if not np.abs(U).max() <= OVERFLOW_GUARD:  # 'not <=' also catches nan
        raise BlowupError("initial data exceeds the overflow guard", t_last=0.0,
                          partial=partial(slices, 1, 0.0))

    if params.visc > 0:
        dt_visc = params.cfl * float(np.min(dx)) ** 2 / (2.0 * box.dim * params.visc)
    else:
        dt_visc = np.inf

    t = 0.0
    k = 1
    steps = 0
    while k < params.n_rec:
        Fv = F_at(U)
        speed = float((np.abs(Fv) / dx).sum(axis=-1).max())
        dt = min(params.dt_max, params.cfl / max(speed, 1e-12), dt_visc)
        hit = False
        if t + dt >= rec_times[k] - 1e-14:
            dt = rec_times[k] - t
            hit = True
        rhs = _advection(U, Fv, dx) - G_at(U)
        if m.lam > 0:
            relabeled = jump_plan.apply(U).reshape(U.shape)
            rhs = rhs + m.lam * (U - relabeled @ S)  # row u @ S == S^T u
        if params.visc > 0:
            rhs = rhs - params.visc * _laplacian(U, dx)
        U = U - dt * rhs
        steps += 1
        if not np.abs(U).max() <= OVERFLOW_GUARD:
            raise BlowupError(
                f"solution exceeded the overflow guard at t={t + dt:.6g}",
                t_last=t, partial=partial(slices, k, t))
        t = rec_times[k] if hit else t + dt
        if hit:
            slices.append(U.copy())
            k += 1

    meta["steps"] = steps
    return GridSolution(box=box, times=rec_times, values=np.stack(slices), meta=meta)


def node_jacobians(slc: Slice) -> np.ndarray:
    """Finite-difference Jacobian of the slice at every node, shape (*shape, d, dim).

    Centered in the interior, one-sided at box faces.
    """
    U = slc.values
    dx = slc.box.dx
    dim = slc.box.dim
    J = np.empty(U.shape[:-1] + (U.shape[-1], dim))
    for a in range(dim):
        J[..., a] = np.gradient(U, dx[a], axis=a, edge_order=1)
    return J


def lipschitz_norm(sol: GridSolution, t) -> float:
    """Max over nodes of the operator 2-norm of the finite-difference Jacobian."""
    J = node_jacobians(sol.slice_at(t))
    d, dim = J.shape[-2], J.shape[-1]
    sv = np.linalg.svd(J.reshape(-1, d, dim), compute_uv=False)
    return float(np.max(sv))


def residual(m: ModelSpec, sol: GridSolution, t, stencil=2) -> np.ndarray:
    """Pointwise norm of the equation defect of a recorded solution at time t.

    t must be interior to the recorded time grid. stencil=2 uses centered
    differences in time and space; stencil=1 uses a forward time difference
    and upwind space differences against F.
    """
    if stencil not in (1, 2):
        raise ValueError("stencil must be 1 or 2")
    k = sol.index_of(t)
    if k == 0 or k == len(sol.times) - 1:
        raise ValueError("t must be interior to the recorded time grid")
    box = sol.box
    X = box.nodes()
    U = sol.values[k]
    Fv = m.eval_F(X, U)
    if stencil == 2:
        dUdt = (sol.values[k + 1] - sol.values[k - 1]) / (sol.times[k + 1] - sol.times[k - 1])
        adv = np.einsum("...ia,...a->...i", node_jacobians(Slice(box, U)), Fv)
    else:
        dUdt = (sol.values[k + 1] - U) / (sol.times[k + 1] - sol.times[k])
        adv = _advection(U, Fv, box.dx)
    res = dUdt + adv - m.eval_G(X, U)
    if m.lam > 0:
        relabeled = InterpPlan(box, m.noise(box.node_list())).apply(U).reshape(U.shape)
        res = res + m.lam * (U - relabeled @ m.noise.S)
    return np.linalg.norm(res, axis=-1)


# ---------------------------------------------------------------------------
# Serialization: CSV body with header t,x_1..x_d,U_1..U_d, one row per
# (recorded time, node) in C node order; numbers use 12 significant digits so
# identical runs produce byte-identical files.


def write_solution_csv(sol: GridSolution, path):
    d = sol.d
    dim = sol.box.dim
    header = "t," + ",".join(f"x_{a+1}" for a in range(dim)) \
        + "," + ",".join(f"U_{i+1}" for i in range(d))
    # "%.12g" % v renders exactly like f"{v:.12g}". The node columns repeat in
    # every slice, so they are rendered once, into the format of each row.
    cell = "%.12g"
    node_fmt = ",".join([cell] * dim)
    vals_fmt = ",".join([cell] * d)
    tails = [f",{node_fmt % tuple(x)},{vals_fmt}\n" for x in sol.box.node_list().tolist()]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for t, vals in zip(sol.times, sol.values):
            t_txt = cell % t
            fh.write((t_txt + t_txt.join(tails)) % tuple(vals.ravel().tolist()))


def meta_record(sol: GridSolution) -> dict:
    rec = {"box": {"lo": sol.box.lo.tolist(), "hi": sol.box.hi.tolist(),
                   "n": sol.box.n.tolist()},
           "n_times": int(len(sol.times)), "d": int(sol.d)}
    rec.update({k: v for k, v in sol.meta.items()})
    return rec


def write_meta_jsonl(records, path):
    """Write one JSON object per line; records is a dict or a list of dicts."""
    if isinstance(records, dict):
        records = [records]
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
