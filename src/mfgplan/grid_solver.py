"""Upwind time marcher for the penalized planning system.

Solves, forward in t on an axis-aligned box,

    dU/dt + (F(x,U) . grad_x) U + lambda (U - S^T U(S x + e)) = G(x,U),
    U(0, x) = U0(x),

where U(t, x) is an R^d valued field and the advection velocity F(x, U) is
shared by every component of U.

Scheme: first-order upwind differences per axis against the common velocity,
forward Euler in time with an adaptive step

    dt = min(dt_max, cfl / max_nodes sum_a |F_a|/dx_a),

which reduces to cfl*dx_min/max|F| in one dimension. A step is U -= dt L(U),
where L, built once per solve by _operator, returns (F . grad) U - G
+ lambda (U - S^T U(S x + e)) and the CFL rate, differencing U once per axis.
Values outside the box (upwind ghost nodes, relabeled points S x + e,
interpolation queries) come from clamped linear extrapolation off the two
outermost nodes of each axis, which is what the unclamped multilinear weight
formula produces on the clamped boundary cell.
The march aborts when any |U| exceeds OVERFLOW_GUARD or is nan.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import BlowupError, ConfigError
from .model import ModelSpec, eval_field

OVERFLOW_GUARD = 1e12

# Minimum number of cells between the planning target and any box face.
TARGET_MARGIN_CELLS = 10

# GridSolution.index_of takes a time within this of a recorded one as that
# record: it absorbs a time computed by another route, and lies far below
# any record spacing.
TIME_MATCH_TOL = 1e-9

# An InterpPlan.apply whose gathered block (lead x 2**dim x N x d values) is at
# most this large takes every corner in one `take` and sums the block in one
# reduce. The block is a copy of all 2**dim terms, so only small gathers take
# it: oracle2d's one-point path queries (2 x 4 x 1 x 2) are far below, while
# stress2d_jump's march gather (3 x 4 x 6561 x 2) and the whole-grid Newton
# queries of both workloads (4 x 32805 x 2) keep one corner at a time in the
# caller's buffers, which a single block would add to the peak memory.
ONE_TAKE_MAX = 8192

# A GridField.eval of at most this many points, all finite, is computed in
# Python floats (_few_points) and builds no InterpPlan. Its cost grows by about
# 2, 6 and 12 us per point in d = 1, 2 and 3 (2**dim corners, d components),
# while a plan's stays near 19, 22 and 39 us for a handful of points. Medians
# per call, N points -> branch / plan (us), on 51 records of boxes with n = 200,
# 80 and 20 and d = dim, the two paths interleaved, Python 3.11 and numpy 2.4
# on a 2-core VM:
#   d = 1: N = 1 -> 6 / 21, 3 -> 10 / 19, 7 -> 19 / 20, 8 -> 21 / 20;
#   d = 2: N = 1 -> 10 / 20, 3 -> 21 / 22, 4 -> 27 / 23;
#   d = 3: N = 1 -> 16 / 36, 3 -> 40 / 39, 4 -> 52 / 40.
# So the crossover is 3 points in d = 2 and 3, and about 7 in d = 1; a batch of
# 4 one-point paths in d = 2 takes the plan.
FEW_POINTS = 3


def _interp_layout(shape, lo, dx, n):
    """What every InterpPlan on a box shares: the node strides (dim,), each of the
    2**dim cell corners' flat offset as a (2**dim, 1) column, and lo, dx and the
    highest cell index per axis, n - 1, as (dim, 1) float columns."""
    dim = len(shape)
    strides = np.array([math.prod(shape[a + 1:]) for a in range(dim)], dtype=np.int64)
    corners = np.array(list(itertools.product((0, 1), repeat=dim)), dtype=np.int64)
    offsets = (corners @ strides).reshape(-1, 1)
    lo, dx, cell_max = (np.array(v, dtype=float).reshape(-1, 1) for v in (lo, dx, n - 1))
    for arr in (strides, offsets, lo, dx, cell_max):
        arr.setflags(write=False)
    return strides, offsets, lo, dx, cell_max


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box [lo, hi] with n cells (n+1 nodes) per axis.

    dx (the cell widths), shape (the node counts), layout (what its
    interpolation plans share) and scalars (lo, dx, the highest cell index,
    the strides and the corner offsets as Python numbers) are computed once,
    when the box is made; the arrays among them are read-only, like lo, hi
    and n, which are the box's own copies.
    """

    lo: np.ndarray
    hi: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lo, dtype=float, ndmin=1)  # copies: the caller's arrays stay theirs
        hi = np.array(self.hi, dtype=float, ndmin=1)
        n = np.array(self.n, dtype=int, ndmin=1)
        if n.shape == (1,) and lo.shape != (1,):
            n = np.full(lo.shape, n[0])
        if not (lo.shape == hi.shape == n.shape):
            raise ConfigError("box lo/hi/n must have matching lengths")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ConfigError("box lo and hi must be finite")
        if np.any(hi <= lo):
            raise ConfigError("box needs hi > lo on every axis")
        if np.any(n < 2):
            raise ConfigError("box needs at least 2 cells per axis")
        dx = (hi - lo) / n
        for name, arr in (("lo", lo), ("hi", hi), ("n", n), ("dx", dx)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        shape = tuple(int(k) + 1 for k in n)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "layout", _interp_layout(shape, lo, dx, n))
        strides, offsets = self.layout[:2]
        # Python-number copies for GridField's few-point queries
        object.__setattr__(self, "scalars", (lo.tolist(), dx.tolist(), (n - 1).tolist(),
                                             strides.tolist(), offsets.ravel().tolist()))

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

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

    def margin_cells(self, x) -> int:
        """Distance from x to the nearest face, counted in whole cells."""
        x = np.asarray(x, dtype=float).reshape(-1)
        per_axis = np.minimum(x - self.lo, self.hi - x) / self.dx
        return int(np.floor(np.min(per_axis)))


class InterpPlan:
    """Corner indices and weights for repeated interpolation, shape (2**dim, N).

    apply multiplies each corner's (..., N, d) term by that corner's weights,
    which are the (N, 1) view wts[..., None] unless widen(d) has repeated them
    into a contiguous (2**dim, N, d) array: then the product is one contiguous
    loop, not N loops d elements long, for the same products in the same order.
    """

    def __init__(self, box: Box, pts: np.ndarray):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        strides, offsets, lo, dx, cell_max = box.layout
        self.dim = dim = box.dim
        factors = np.empty((2, dim, len(pts)))  # per axis, the low and the high corner's weights
        w = np.subtract(pts.T, lo, out=factors[1])
        w /= dx
        cell = np.floor(w)
        np.maximum(cell, 0.0, out=cell)  # cell first: a -0.0 cell becomes +0.0, so w keeps its sign
        np.minimum(cell, cell_max, out=cell)
        w -= cell  # outside [0,1] beyond the box: linear extrapolation
        np.subtract(1.0, w, out=factors[0])
        self.idx = strides @ cell.astype(np.int64) + offsets
        self.wts = factors[:, 0]
        for a in range(1, dim):  # the weights' product, left to right, corners in C order
            self.wts = (self.wts[:, None] * factors[:, a]).reshape(-1, len(pts))
        self.d, self.value_wts = None, self.wts[..., None]

    def widen(self, d: int) -> "InterpPlan":
        """Keep per-value weights for values with d components; apply then takes no other d."""
        self.d, self.value_wts = d, np.repeat(self.wts[..., None], d, axis=-1)
        return self

    def apply(self, values: np.ndarray, out=None, tmp=None) -> np.ndarray:
        """Weighted sum of the corner values, added from +0.0 in corner order, as (*lead, N, d).

        Leading axes (batch members) gather along their own nodes; out receives
        the result when given. On a 1-D or 2-D box a gather of at most
        ONE_TAKE_MAX values takes every corner at once; any other takes one
        corner at a time, into tmp when given."""
        if self.d is not None and values.shape[-1] != self.d:
            raise ValueError(f"plan widened for d={self.d} applied to values with "
                             f"d={values.shape[-1]}")
        flat = values.reshape(values.shape[:values.ndim - 1 - self.dim] + (-1, values.shape[-1]))
        if out is None:
            out = np.empty(flat.shape[:-2] + self.idx.shape[1:] + flat.shape[-1:])
        # add.reduce adds fewer than 8 terms in order but 8 or more pairwise, so a
        # 3-D plan's 8 corners always take the loop below
        if len(self.idx) < 8 and out.size * len(self.idx) <= ONE_TAKE_MAX:
            terms = flat.take(self.idx, axis=-2, mode="clip")  # (*lead, 2**dim, N, d)
            terms *= self.value_wts
            return np.add.reduce(terms, axis=-3, initial=0.0, out=out)
        out.fill(0.0)
        for idx, wts in zip(self.idx, self.value_wts):  # cells are clamped: no bounds check
            term = flat.take(idx, axis=-2, mode="clip", out=tmp)
            term *= wts
            out += term
        return out


def _point_rows(box: Box, pts):
    """Points (..., dim) as float rows (N, dim), and the leading shape (...) they had."""
    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1:] != (box.dim,):
        raise ConfigError(f"points of shape {pts.shape} do not end in the box "
                          f"dimension {box.dim}")
    return pts.reshape(-1, box.dim), pts.shape[:-1]


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

    def eval(self, pts) -> np.ndarray:
        """U at points (..., dim), as (..., d)."""
        rows, lead = _point_rows(self.box, pts)
        out = InterpPlan(self.box, rows).apply(self.values)
        return out.reshape(lead + out.shape[-1:])


@dataclass(frozen=True)
class SolverParams:
    """Marcher controls."""

    cfl: float = 0.75
    t_end: float = 1.0
    dt_max: float = 0.01
    n_rec: int = 101

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ConfigError("solver.cfl must lie in (0, 1]")
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ConfigError("solver.t_end must be finite and > 0")
        if not (math.isfinite(self.dt_max) and self.dt_max > 0):
            raise ConfigError("solver.dt_max must be finite and > 0")
        if self.n_rec < 2:
            raise ConfigError("solver.n_rec must be >= 2")

    def record_times(self) -> np.ndarray:
        """The n_rec uniformly spaced record times, 0 and t_end included."""
        return np.linspace(0.0, self.t_end, self.n_rec)


@dataclass(eq=False)
class GridSolution:
    """Recorded time slices of a solve: times[k] and values[k] on box nodes."""

    box: Box
    times: np.ndarray
    values: np.ndarray  # (K, *box.shape, d)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.array(self.times, dtype=float)  # its own copy, read-only below
        if self.times.ndim != 1 or not np.all(np.diff(self.times) > 0):
            raise ConfigError("solution times must increase strictly")
        self.times.setflags(write=False)
        # no copy: a batch member stays a view of the batch's record array
        self.values = np.asarray(self.values, dtype=float)
        lead = (len(self.times), *self.box.shape)
        if self.values.shape[:-1] != lead:
            raise ConfigError(f"solution values have shape {self.values.shape}, not "
                              f"({', '.join(map(str, lead))}, d) for its times and box")

    @property
    def d(self) -> int:
        return self.values.shape[-1]

    def snap(self, times) -> list:
        """The recorded time nearest to each of times, in the order given."""
        times = np.asarray(times, dtype=float).reshape(-1, 1)
        return self.times[np.argmin(np.abs(self.times - times), axis=1)].tolist()

    def index_of(self, t) -> int:
        gap = np.abs(self.times - t)
        hits = np.nonzero(gap <= TIME_MATCH_TOL)[0]
        if hits.size == 0:
            raise ConfigError(f"t={t:.6g} is not a recorded time; the nearest is "
                              f"{self.times[np.argmin(gap)]:.6g}")
        return int(hits[0])

    def slice_at(self, t) -> Slice:
        return Slice(self.box, self.values[self.index_of(t)])

    def field(self) -> "GridField":
        return GridField(self)


class GridField:
    """Space-time multilinear view of a GridSolution.

    The accepted time range and the record times are kept as Python floats,
    computed once: a query finds its time bracket without numpy scalars.
    """

    def __init__(self, sol: GridSolution):
        self.sol = sol
        self.box = sol.box
        times = sol.times  # read-only: the floats below cannot go stale
        slack = 4 * np.spacing(times[-1] - times[0])
        self.t_range = (float(times[0] - slack), float(times[-1] + slack))
        self.times = tuple(times.tolist())

    def eval(self, t, pts) -> np.ndarray:
        """U(t, pts) for points (..., dim), as (..., d): linear in t between
        recorded slices and multilinear in space.

        t must lie in [times[0], times[-1]] up to 4 ulps of the span, which a
        backward march down to times[0] may overshoot by; anything further out
        raises ConfigError rather than returning an end slice.
        """
        times = self.times
        if not self.t_range[0] <= t <= self.t_range[1]:
            raise ConfigError(f"t={t:.6g} is outside the recorded times "
                              f"[{times[0]:.6g}, {times[-1]:.6g}]")
        t = float(min(times[-1], max(times[0], t)))  # bounds first: a tie returns the bound
        k = bisect.bisect_right(times, t) - 1
        k = min(max(k, 0), len(times) - 2)  # -1 for a single recorded slice
        t0, t1 = times[k], times[k + 1]
        w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        rows, lead = _point_rows(self.box, pts)
        if len(rows) <= FEW_POINTS:
            few = _few_points(self.box, self.sol.values, k, w, rows.tolist())
            if few is not None:
                return np.array(few).reshape(lead + (self.sol.d,))
        pair = InterpPlan(self.box, rows).apply(self.sol.values[k:k + 2])
        out = (1.0 - w) * pair[0] + w * pair[-1]  # pair holds one slice when k = -1
        return out.reshape(lead + out.shape[-1:])


def _few_points(box: Box, values, k, w, rows):
    """GridField.eval's blend at rows (lists of Python floats), flat as N x d Python
    floats, or None when a row's cell coordinate is not finite.

    The operations are those of InterpPlan(box, rows).apply(values[k:k + 2]) and
    the time blend, in their order: u = (x - lo) / dx, its cell floor(u) clamped to
    [0, n - 1] (an int, so a -0.0 cell is 0, as np.maximum makes it), u - cell, the
    factors (1 - u, u) and each corner's weight, their product left to right with
    the corners in C order; the corner sum of value * weight from +0.0 in that order,
    per record; then (1 - w) a + w b. Each of those is one IEEE double operation in
    numpy as here, so the result has the same bits.
    """
    lo, dx, cell_max, strides, offsets = box.scalars
    d = values.shape[-1]
    rec = values[0].size  # a record's values
    first, second = max(k, 0) * rec, (k + 1) * rec  # k = -1: the single record, twice
    corners = [o * d for o in offsets]
    item, out = values.item, []
    for x in rows:
        wts, node = None, 0
        for xa, la, ha, top, stride in zip(x, lo, dx, cell_max, strides):
            u = (xa - la) / ha
            if not -math.inf < u < math.inf:
                return None
            cell = min(max(math.floor(u), 0), top)
            u -= cell
            f = (1.0 - u, u)
            wts = f if wts is None else [a * b for a in wts for b in f]
            node += stride * cell
        for i in range(node * d, node * d + d):
            a = b = 0.0
            for wt, c in zip(wts, corners):
                a += item(first + i + c) * wt
                b += item(second + i + c) * wt
            out.append((1.0 - w) * a + w * b)
    return out


def _along(A: np.ndarray, axis: int, start=None, stop=None, step=None) -> np.ndarray:
    """View A[start:stop:step] taken along one axis (axis >= 0)."""
    return A[(slice(None),) * axis + (slice(start, stop, step),)]


# The march keeps a leading member axis on every array, so node axis a is
# array axis a + 1, and writes every step into the buffers of one workspace
# through views that are built once per compaction, never in a step.

def _operator(m: ModelSpec, box: Box, d):
    """The step's operator L(w) -> (rhs, rate) of model m on box, built once per solve.

    rhs, in w.rhs, is (F . grad) U - G + lam (U - S^T U(S x + e)) and rate the
    max over nodes of sum_a |F_a|/dx_a, per member of U = w.U, the array whose views w holds
    (see _step_views); in 1-D, max |F| / dx, the same number with one divide per member.
    The nodes are read through m.coords, a p-free G is evaluated and the jump's gather is
    planned here, once: the relabeled points are fixed in time. Any other F or G is
    eval_field at those x every call.

    Transport, per axis: D[i] = U[i] - U[i-1], and past each face the difference to the
    ghost node 2 U[0] - U[1] or 2 U[-1] - U[-2], rounded as such (the interior difference
    next to it is equal only in exact arithmetic). Both ghosts are made at once, from a view
    of both face nodes and one of their neighbours, in D's two face slots; then D[0] =
    U[0] - ghost and D[-1] = ghost - U[-1]. Node i's backward and forward differences are
    D[i] and D[i+1]. The upwind pick runs per component of U, so no inner loop is only d long.
    """
    X = m.read_at(box.nodes())
    # F = p + 0.0 is read as U itself: the two differ only in the sign of a zero, and L
    # reads F only through |F|, F > 0 and the products it adds to rhs, where +-0 leaves rhs
    F_is_U = m.F.form == "identity" and not m.F.c.any()
    # a p-free G is one (*nodes, d) constant, evaluated once; rhs - (+0.0) is rhs
    G_fixed = eval_field(m.G, X, np.zeros_like(X)) if m.G.form == "p-free" else None
    G_zero = G_fixed is not None and not (G_fixed.any() or np.signbit(G_fixed).any())
    jump_plan = InterpPlan(box, m.noise(box.node_list())).widen(d) if m.lam > 0 else None
    # S = s I takes one multiply, which can differ from matmul only in the sign
    # of a zero; rhs is never -0.0 when the jump term is added, so U is the same
    jump_by, S = (np.matmul, m.noise.S) if m.noise.scale is None \
        else (np.multiply, m.noise.scale)
    dx, lam, one_axis = box.dx, m.lam, box.dim == 1

    def L(w):
        U = w.U
        Fv = U if F_is_U else eval_field(m.F, X, U)
        if one_axis:  # x -> x/dx is monotone: the max's quotient is the max quotient
            rate = np.maximum.reduce(np.abs(Fv[..., 0], out=w.speed), axis=1) / dx[0]
        else:
            speed = np.divide(np.abs(Fv[..., 0], out=w.speed), dx[0], out=w.speed)
            for a in range(1, box.dim):
                speed += np.divide(np.abs(Fv[..., a], out=w.term), dx[a], out=w.term)
            rate = np.maximum.reduce(speed.reshape(len(U), -1), axis=1)
        for a, (ahead, behind, inner, faces, ghosts, (u0, D0), (un, Dn), D, comps) \
                in enumerate(w.stencil):
            np.subtract(ahead, behind, out=inner)
            np.subtract(np.add(faces[0], faces[0], out=ghosts), faces[1], out=ghosts)
            np.subtract(u0, D0, out=D0)
            np.subtract(Dn, un, out=Dn)
            D /= dx[a]
            Fa = Fv[..., a]
            pos = np.greater(Fa, 0, out=w.pos)
            for pick, Dm_i, Dp_i, base, adv in comps:  # base: +0.0 on the first axis, else adv
                np.copyto(pick, Dp_i)
                np.copyto(pick, Dm_i, where=pos)
                np.add(base, np.multiply(pick, Fa, out=pick), out=adv)
        if G_fixed is None:
            w.rhs -= eval_field(m.G, X, U)
        elif not G_zero:
            w.rhs -= G_fixed
        if jump_plan is not None:
            relabeled = jump_plan.apply(U, out=w.gather_flat, tmp=w.pick_flat).reshape(U.shape)
            jump = jump_by(relabeled, S, out=w.pick)  # row u @ S == S^T u
            w.rhs += np.multiply(np.subtract(U, jump, out=jump), lam, out=jump)
        return w.rhs, rate
    return L


def _workspace(E, shape, d):
    """Step buffers for a march of E members, allocated once per solve."""
    full = (E, *shape, d)
    return dict(**{k: np.empty(full) for k in ("gather", "rhs", "pick")},
                speed=np.empty(full[:-1]), term=np.empty(full[:-1]),
                pos=np.empty(full[:-1], dtype=bool),
                diff=[np.empty((E, *shape[:a], shape[a] + 1, *shape[a + 1:], d))
                      for a in range(len(shape))])


def _step_views(ws, U):
    """The buffers of ws viewed at the n members of U, U itself, and the views a step
    reads and writes through.

    stencil holds, per axis, U's two shifted halves, D's interior, the two face nodes
    and their neighbours (the middle node alone on a 3-node axis), D's two face slots,
    each face node with its own slot, the difference table D, and per component of U its
    (pick, Dm, Dp, base, rhs) views: Dm and Dp are D's backward and forward halves, and
    base is what the upwind term is added to, +0.0 on the first axis and rhs after it.
    col spreads a per-member dt over a member's values; gather_flat and pick_flat are
    gather and pick shaped (n, nodes, d) for the jump gather. U is updated in place between
    compactions, so its views hold.
    """
    n, d = U.shape[0], U.shape[-1]
    w = SimpleNamespace(**{k: [b[:n] for b in v] if isinstance(v, list) else v[:n]
                           for k, v in ws.items()})
    w.U, w.stencil = U, []
    for ax, D in enumerate(w.diff, start=1):
        N = U.shape[ax]  # >= 3 nodes; with 3, U[1] is both faces' neighbour, broadcast
        Dm, Dp = _along(D, ax, None, -1), _along(D, ax, 1)
        faces = (_along(U, ax, 0, None, N - 1), _along(U, ax, 1, -1, max(N - 3, 1)))
        ends = ((_along(U, ax, 0, 1), _along(D, ax, 0, 1)), (_along(U, ax, -1), _along(D, ax, -1)))
        comps = [(w.pick[..., i], Dm[..., i], Dp[..., i], 0.0 if ax == 1 else w.rhs[..., i],
                  w.rhs[..., i]) for i in range(d)]
        w.stencil.append((_along(U, ax, 1), _along(U, ax, None, -1), _along(D, ax, 1, -1), faces,
                          _along(D, ax, 0, None, N), *ends, D, comps))
    w.col = (n,) + (1,) * (U.ndim - 1)
    flat = (n, math.prod(U.shape[1:-1]), d)
    w.gather_flat, w.pick_flat = w.gather.reshape(flat), w.pick.reshape(flat)
    return w


class SolutionBatch(SimpleNamespace):
    """solve_master's result for a sequence of slices: box; metas, the meta of each
    finished member; members, a GridSolution per finished member whose records the
    batch keeps (every one, or with on_record the last member alone); values, those
    records (len(members), K, *box.shape, d), which the members view; failure, the
    first member's BlowupError or None; meta["steps"], the finished members' total."""


def solve_master(m: ModelSpec, u0, params: SolverParams, on_record=None):
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

    on_record(e, k, row), when given, is called with each record k that member
    e lands on within the overflow guard: record 0 at the start, every later
    one as it is written. row holds the member's values there and is valid
    only during the call. The batch then keeps the records of its last member
    alone, so the failure of any other member carries no partial solution.
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
    if m.lam > 0:  # off the box the jump would read the extrapolation, not U(S x + e)
        y = m.noise(box.node_list())
        past = np.maximum(box.lo - y, y - box.hi) / box.dx  # cells past a face, per axis
        off = ~(past <= 0.0).all(axis=1)  # a nan is off
        if off.any():
            raise ConfigError(
                f"the jump relabels {np.count_nonzero(off)} of {len(off)} nodes off the "
                f"box, up to {past[off].max():.3g} cells past a face: the box must "
                f"contain S x + e for every node x")
    rec_times = params.record_times()
    U = np.stack([s.values for s in slices])
    E = U.shape[0]
    keep = 0 if on_record is None else E - 1  # members from keep on have their records kept
    rec = np.empty((E - keep, params.n_rec) + U.shape[1:])
    rec[:, 0] = U[keep:]
    ws = _workspace(E, box.shape, U.shape[-1])
    L = _operator(m, box, U.shape[-1])

    meta = {  # meta_record adds the box and d
        "cfl": params.cfl, "dt_max": params.dt_max,
        "t_end": params.t_end, "n_rec": params.n_rec, "lambda": m.lam,
        "aborted": False, "steps": 0,
    }
    live, failure = E, None  # members from index live on are dropped

    def fail(e, message, k, t_last, **context):  # member e blew up short of record k
        nonlocal live, failure
        partial = GridSolution(box=box, times=rec_times[:k], values=rec[e - keep, :k].copy(),
                               meta=dict(meta, aborted=True, t_last=t_last,
                                         steps=context["steps"])) if e >= keep else None
        failure, live = BlowupError(message, t_last=t_last, partial=partial, **context), e

    bad = np.flatnonzero(~(np.abs(U).reshape(E, -1).max(axis=1) <= OVERFLOW_GUARD))
    if bad.size:
        fail(int(bad[0]), "initial data exceeds the overflow guard", 1, 0.0, steps=0)
    if on_record is not None:
        for e in range(live):
            on_record(e, 0, U[e])

    cfl, dt_max, n_rec = params.cfl, params.dt_max, params.n_rec
    # row r of U is member rows[r] at time t[r], short of record k[r]. An iteration
    # in which no member lands on a record and none blows up only marches; records
    # are written, and rows leave and are compacted, in its event branch alone
    U, rows, n, it, steps = U[:live], np.arange(live), live, 0, np.zeros(E, dtype=np.int64)
    t, k, w = np.zeros(live), np.ones(live, dtype=np.int64), _step_views(ws, U)
    rec_reach = rec_times - 1e-14  # a step ending this close to its record lands on it
    target, reach = rec_times[k], rec_reach[k]
    while n:
        it += 1
        rhs, rate = L(w)
        dt_cfl = cfl / np.maximum(rate, 1e-12)
        dt = np.fmin(dt_cfl, dt_max)  # fmin: min() skips nan too
        t_next = t + dt
        hit = t_next >= reach
        event = np.logical_or.reduce(hit)  # the ufunc: ndarray.any wraps it in Python
        if event:  # dt is fmin's own array
            np.subtract(target, t, out=dt, where=hit)
        U -= np.multiply(rhs, dt.reshape(w.col), out=rhs)
        blown = not np.maximum.reduce(np.abs(U, out=w.pick), None) <= OVERFLOW_GUARD  # nan too
        if blown:
            r = int(np.argmin(w.pick.reshape(n, -1).max(axis=1) <= OVERFLOW_GUARD))
            limit = "record" if hit[r] else "dt_max" if dt[r] == dt_max else "cfl"
            fail(int(rows[r]), f"solution exceeded the overflow guard at t={t[r] + dt[r]:.6g}",
                 int(k[r]), float(t[r]), steps=it, dt=float(dt[r]), limit=limit)
            hit[r:], k[r:] = False, n_rec  # rows hold members in order: every later one is dropped
        elif not event:
            t = t_next
            continue
        np.copyto(t_next, target, where=hit)
        t = t_next
        hits = hit.nonzero()[0]
        landed = k[hits].tolist()
        for r, e, kr in zip(hits.tolist(), rows[hits].tolist(), landed):
            if e >= keep:
                rec[e - keep, kr] = U[r]
            if on_record is not None:
                on_record(e, kr, U[r])
        k += hit
        if blown or n_rec - 1 in landed:  # a member leaves only after its last record
            stay = k < n_rec
            steps[rows[~stay]] = it
            U, t, k, rows = U[stay], t[stay], k[stay], rows[stay]
            n, w = rows.size, _step_views(ws, U)
        target, reach = rec_times[k], rec_reach[k]

    metas = [dict(meta, steps=int(steps[e])) for e in range(live)]
    members = [GridSolution(box=box, times=rec_times, values=rec[e - keep], meta=metas[e])
               for e in range(keep, live)]
    if not single:
        return SolutionBatch(box=box, values=rec[:len(members)], members=members, metas=metas,
                             failure=failure, meta={"steps": int(steps[:live].sum())})
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
    """Write sol as CSV, one record at a time.

    A record with at most half of its values distinct (by bits, so -0.0 and
    each nan payload stay apart) formats each distinct value once and fills
    the rows with the texts; any other record formats every value. Both
    give the same bytes.
    """
    d = sol.d
    dim = sol.box.dim
    header = "t," + ",".join(f"x_{a+1}" for a in range(dim)) \
        + "," + ",".join(f"U_{i+1}" for i in range(d))
    # The node columns repeat in every slice, so they are rendered once, into
    # the format of each row.
    node_fmt = ",".join([_CELL] * dim)
    nodes = [node_fmt % tuple(x) for x in sol.box.node_list().tolist()]
    cell_tails = [f",{x},{','.join([_CELL] * d)}\n" for x in nodes]
    text_tails = [f",{x},{','.join(['%s'] * d)}\n" for x in nodes]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for t, vals in zip(sol.times, sol.values):
            t_txt = _CELL % t
            flat = np.ascontiguousarray(vals, dtype=np.float64).reshape(-1)
            keys, inv = np.unique(flat.view(np.int64), return_inverse=True)
            if 2 * keys.size <= flat.size:
                texts = (",".join([_CELL] * keys.size)
                         % tuple(keys.view(np.float64).tolist())).split(",")
                cells = operator.itemgetter(*inv.tolist())(texts)
                fh.write((t_txt + t_txt.join(text_tails)) % cells)
            else:
                fh.write((t_txt + t_txt.join(cell_tails)) % tuple(flat.tolist()))


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
