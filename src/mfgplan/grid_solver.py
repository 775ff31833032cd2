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
from types import SimpleNamespace

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
    """Corner indices and weights for repeated interpolation, shape (2**dim, N)."""

    def __init__(self, box: Box, pts: np.ndarray):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        w = (pts - box.lo) / box.dx
        cell = np.clip(np.floor(w), 0, box.n - 1)
        w -= cell  # outside [0,1] beyond the box: linear extrapolation
        self.dim = dim = box.dim
        shape = box.shape
        strides = np.array([int(np.prod(shape[a + 1:])) for a in range(dim)], dtype=np.int64)
        base = cell.astype(np.int64) @ strides
        factors = (1.0 - w.T, w.T)  # per-axis weight rows of the low and the high corner
        corners = list(itertools.product((0, 1), repeat=dim))
        self.idx = np.empty((len(corners), pts.shape[0]), dtype=np.int64)
        self.wts = np.empty((len(corners), pts.shape[0]))
        for c, corner in enumerate(corners):
            self.idx[c] = base + int(np.dot(corner, strides))
            self.wts[c] = factors[corner[0]][0]
            for a in range(1, dim):
                self.wts[c] *= factors[corner[a]][a]

    def apply(self, values: np.ndarray, out=None, tmp=None) -> np.ndarray:
        """Weighted sum of the corner values, one corner at a time, as (*lead, N, d).

        Leading axes (batch members) gather along their own nodes; out and tmp,
        when given, receive the result and each corner's term."""
        flat = values.reshape(values.shape[:values.ndim - 1 - self.dim] + (-1, values.shape[-1]))
        if out is None:
            out = np.empty(flat.shape[:-2] + self.idx.shape[1:] + flat.shape[-1:])
        out.fill(0.0)
        for idx, wts in zip(self.idx, self.wts):  # cells are clamped: no bounds check
            term = flat.take(idx, axis=-2, mode="clip", out=tmp)
            term *= wts[:, None]
            out += term
        return out


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

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or not np.all(np.diff(self.times) > 0):
            raise ConfigError("solution times must increase strictly")

    @property
    def d(self) -> int:
        return self.values.shape[-1]

    def snap(self, times) -> list:
        """The recorded time nearest to each of times, in the order given."""
        times = np.asarray(times, dtype=float).reshape(-1, 1)
        return self.times[np.argmin(np.abs(self.times - times), axis=1)].tolist()

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
    nodes = box.node_list()
    vals = np.stack([np.asarray(fn(t, nodes), dtype=float).reshape(*box.shape, -1)
                     for t in times])
    return GridSolution(box=box, times=times, values=vals, meta={"kind": "analytic"})


def _along(A: np.ndarray, axis: int, start=None, stop=None) -> np.ndarray:
    """View A[start:stop] taken along one axis (axis >= 0)."""
    return A[(slice(None),) * axis + (slice(start, stop),)]


# The march keeps a leading member axis on every array, so node axis a is
# array axis a + 1, and writes every step into the buffers of one workspace.

def _pad_linear(U: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """U plus one linear-extrapolation ghost node on both ends of axis, in out."""
    _along(out, axis, 1, -1)[...] = U
    lo, hi = _along(out, axis, 0, 1), _along(out, axis, -1)
    np.subtract(np.multiply(_along(U, axis, 0, 1), 2.0, out=lo), _along(U, axis, 1, 2), out=lo)
    np.subtract(np.multiply(_along(U, axis, -1), 2.0, out=hi), _along(U, axis, -2, -1), out=hi)
    return out


def _advection(U, Fv, dx, w):
    """Upwind (F . grad) applied to every component of U, into w.rhs.

    One difference per axis over the padded nodes (kept in w.pad): node i's
    backward difference is D[i] and its forward difference is D[i+1]. The
    upwind pick runs per component of U, so no inner loop is only d long.
    """
    adv = w.rhs
    adv.fill(0.0)
    for a in range(len(dx)):
        P = _pad_linear(U, a + 1, w.pad[a])
        D = np.subtract(_along(P, a + 1, 1), _along(P, a + 1, None, -1), out=w.diff[a])
        D /= dx[a]
        Dm, Dp = _along(D, a + 1, None, -1), _along(D, a + 1, 1)
        pos = np.greater(Fv[..., a], 0, out=w.pos)
        for i in range(U.shape[-1]):
            np.copyto(w.pick[..., i], Dp[..., i])
            np.copyto(w.pick[..., i], Dm[..., i], where=pos)
            adv[..., i] += np.multiply(w.pick[..., i], Fv[..., a], out=w.pick[..., i])
    return adv


def _laplacian(dx, w):
    """Sum of the second differences along each axis of the padded U in w.pad, into w.lap."""
    w.lap.fill(0.0)
    for a, P in enumerate(w.pad):
        term = np.multiply(_along(P, a + 1, 1, -1), 2.0, out=w.pick)
        np.subtract(_along(P, a + 1, 2), term, out=term)
        term += _along(P, a + 1, None, -2)
        w.lap += np.divide(term, dx[a] ** 2, out=term)
    return w.lap


def _workspace(E, shape, d):
    """Step buffers for a march of E members, allocated once: returns n -> views of the first n."""
    full, grown = (E, *shape, d), lambda a, by: (E, *shape[:a], shape[a] + by, *shape[a + 1:], d)
    ws = dict(**{k: np.empty(full) for k in ("F", "G", "rhs", "pick", "lap")},
              speed=np.empty(full[:-1]), term=np.empty(full[:-1]),
              pos=np.empty(full[:-1], dtype=bool),
              pad=[np.empty(grown(a, 2)) for a in range(len(shape))],
              diff=[np.empty(grown(a, 1)) for a in range(len(shape))])
    return lambda n: SimpleNamespace(**{k: [b[:n] for b in v] if isinstance(v, list) else v[:n]
                                        for k, v in ws.items()})


class SolutionBatch(SimpleNamespace):
    """solve_master's result for a sequence of slices: box; members, a GridSolution per
    finished member; values, their records (len(members), K, *box.shape, d), which they
    view; failure, the first member's BlowupError or None; meta["steps"], their total."""


def solve_master(m: ModelSpec, u0, params: SolverParams):
    """March the system from the initial slice u0 to params.t_end.

    Slices are recorded at n_rec uniformly spaced times including 0 and t_end;
    the adaptive step is clipped to land exactly on each record time, so runs
    sharing params also share their time grid. Raises BlowupError (carrying the
    partial solution and the last stable time) if any |U| exceeds the guard.

    Given a sequence of slices on one box it returns a SolutionBatch: they
    march as one (E, *nodes, d) array, each member on its own clock and dt,
    recording each record time as it lands there. A member that blows up is
    dropped with every later one; the first such failure is reported, not
    raised.
    """
    single = isinstance(u0, Slice)
    slices = [u0] if single else list(u0)
    if not slices or any(s.box is not slices[0].box for s in slices):
        raise ConfigError("solve_master needs initial slices, all on one box")
    box = slices[0].box
    if box.dim != m.d:
        raise ConfigError(f"box dimension {box.dim} does not match model d={m.d}")
    if box.margin_cells(m.x0) < TARGET_MARGIN_CELLS:
        raise ConfigError(
            f"box must contain x0 with a margin of at least {TARGET_MARGIN_CELLS} cells")
    F_at, G_at = m.bind(box.nodes())
    dx = box.dx
    rec_times = np.linspace(0.0, params.t_end, params.n_rec)
    U = np.stack([s.values for s in slices])
    E = U.shape[0]
    rec = np.empty((E, params.n_rec) + U.shape[1:])
    rec[:, 0] = U
    workspace = _workspace(E, box.shape, U.shape[-1])

    # relabeled probe points are fixed in time; build the gather plan once
    jump_plan = InterpPlan(box, m.noise(box.node_list())) if m.lam > 0 else None

    meta = {
        "cfl": params.cfl, "visc": params.visc, "dt_max": params.dt_max,
        "t_end": params.t_end, "n_rec": params.n_rec, "d": m.d,
        "lambda": m.lam, "box_lo": box.lo.tolist(), "box_hi": box.hi.tolist(),
        "box_n": box.n.tolist(), "aborted": False, "steps": 0,
    }
    live, failure = E, None  # members from index live on are dropped

    def fail(e, message, k, t_last, **context):  # member e blew up short of record k
        nonlocal live, failure
        partial = GridSolution(box=box, times=rec_times[:k].copy(), values=rec[e, :k].copy(),
                               meta=dict(meta, aborted=True, t_last=t_last,
                                         steps=context["steps"]))
        failure, live = BlowupError(message, t_last=t_last, partial=partial, **context), e

    bad = np.flatnonzero(~(np.abs(U).reshape(E, -1).max(axis=1) <= OVERFLOW_GUARD))
    if bad.size:
        fail(int(bad[0]), "initial data exceeds the overflow guard", 1, 0.0, steps=0)

    dt_visc = params.cfl * float(np.min(dx)) ** 2 / (2.0 * box.dim * params.visc) \
        if params.visc > 0 else np.inf
    # row r of U is member rows[r] at time t[r], short of record k[r]; rows leave, and
    # are compacted, only when a member lands on its last record or blows up
    U, rows, n, it, steps = U[:live], np.arange(live), live, 0, np.zeros(E, dtype=np.int64)
    t, k, w = np.zeros(live), np.ones(live, dtype=np.int64), workspace(live)
    while n:
        it += 1
        Fv = F_at(U, w.F)
        speed = np.divide(np.abs(Fv[..., 0], out=w.speed), dx[0], out=w.speed)
        for a in range(1, box.dim):
            speed += np.divide(np.abs(Fv[..., a], out=w.term), dx[a], out=w.term)
        dt_cfl = params.cfl / np.maximum(speed.reshape(n, -1).max(axis=1), 1e-12)
        dt = np.fmin(np.fmin(params.dt_max, dt_cfl), dt_visc)  # fmin: min() skips nan too
        target = rec_times[k]
        hit = t + dt >= target - 1e-14
        dt = np.where(hit, target - t, dt)
        rhs = _advection(U, Fv, dx, w)
        rhs -= G_at(U, w.G)
        if jump_plan is not None:
            flat = (n, -1, U.shape[-1])
            relabeled = jump_plan.apply(U, out=w.G.reshape(flat),
                                        tmp=w.pick.reshape(flat)).reshape(U.shape)
            jump = np.matmul(relabeled, m.noise.S, out=w.pick)  # row u @ S == S^T u
            rhs += np.multiply(np.subtract(U, jump, out=jump), m.lam, out=jump)
        if params.visc > 0:
            rhs -= np.multiply(_laplacian(dx, w), params.visc, out=w.lap)
        U -= np.multiply(rhs, dt.reshape((n,) + (1,) * (U.ndim - 1)), out=rhs)
        ok = np.abs(U, out=w.pick).reshape(n, -1).max(axis=1) <= OVERFLOW_GUARD  # nan: False
        if not ok.all():
            r = int(np.argmin(ok))
            limit = "record" if hit[r] else "dt_max" if dt[r] == params.dt_max \
                else "cfl" if dt[r] == dt_cfl[r] else "visc"
            fail(int(rows[r]), f"solution exceeded the overflow guard at t={t[r] + dt[r]:.6g}",
                 int(k[r]), float(t[r]), steps=it, dt=float(dt[r]), limit=limit)
            ok[r:] = False  # rows hold members in order: every later one is dropped too
        t = np.where(hit, target, t + dt)
        for r in np.flatnonzero(hit & ok):
            rec[rows[r], k[r]] = U[r]
        k += hit & ok
        stay = ok & (k < params.n_rec)
        if not stay.all():
            steps[rows[~stay]] = it
            U, t, k, rows = U[stay], t[stay], k[stay], rows[stay]
            n, w = rows.size, workspace(rows.size)

    members = [GridSolution(box=box, times=rec_times, values=rec[e],
                            meta=dict(meta, steps=int(steps[e]))) for e in range(live)]
    if not single:
        return SolutionBatch(box=box, values=rec[:live], members=members, failure=failure,
                             meta={"steps": int(steps[:live].sum())})
    if failure is not None:
        raise failure
    return members[0]


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


# ---------------------------------------------------------------------------
# Serialization: every CSV cell is a number with 12 significant digits, so
# identical runs produce byte-identical files. A solution has the header
# t,x_1..x_d,U_1..U_d and one row per (recorded time, node) in C node order.

_CELL = "%.12g"


def write_table(path, header, *columns):
    """CSV of the columns side by side (1-D arrays, or 2-D blocks of columns).

    Booleans are written as 0/1; with no rows only the header is written.
    """
    np.savetxt(path, np.column_stack(columns), fmt=_CELL, delimiter=",",
               header=header, comments="")


def write_solution_csv(sol: GridSolution, path):
    d = sol.d
    dim = sol.box.dim
    header = "t," + ",".join(f"x_{a+1}" for a in range(dim)) \
        + "," + ",".join(f"U_{i+1}" for i in range(d))
    # The node columns repeat in every slice, so they are rendered once, into
    # the format of each row.
    node_fmt = ",".join([_CELL] * dim)
    vals_fmt = ",".join([_CELL] * d)
    tails = [f",{node_fmt % tuple(x)},{vals_fmt}\n" for x in sol.box.node_list().tolist()]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for t, vals in zip(sol.times, sol.values):
            t_txt = _CELL % t
            fh.write((t_txt + t_txt.join(tails)) % tuple(vals.ravel().tolist()))


def meta_record(sol: GridSolution) -> dict:
    rec = {"box": {"lo": sol.box.lo.tolist(), "hi": sol.box.hi.tolist(),
                   "n": sol.box.n.tolist()},
           "n_times": int(len(sol.times)), "d": int(sol.d)}
    rec.update({k: v for k, v in sol.meta.items()})
    return rec


def write_meta_jsonl(records, path):
    """Write each of the records (dicts) as one JSON object per line."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
