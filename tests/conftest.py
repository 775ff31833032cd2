"""Shared model builders and cached expensive runs.

The baseline model used everywhere has velocity equal to the field value and
no source (d=1, no relabeling); its penalized solution is the closed form
U(t,x) = (x - x0)/(eps + t), which most tests lean on.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mfgplan import (AffineNoiseMap, Box, ConfigError, FieldSpec, GridSolution, ModelSpec,
                     Slice, SolverParams, eval_field, penalized_slice, register_field,
                     run_penalization, solve_master)

X0 = 0.5
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_child():
    """perfbench/child.py as a module: its coupled_model builds the 2-D workloads' models."""
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def identity_noise(d):
    """The relabeling x -> x: S = I, e = 0."""
    return AffineNoiseMap(np.eye(d), np.zeros(d))


def slice_from_fn(box: Box, fn):
    """The Slice of fn's values at the box nodes; fn maps (N, dim) rows to (N, d) or (N,)."""
    vals = np.asarray(fn(box.node_list()), dtype=float)
    return Slice(box, vals.reshape(*box.shape, -1))


def final_distance(traj, x0) -> float:
    """Distance from the last state of one backward path to x0."""
    traj._require_one_path("final_distance")
    return float(np.linalg.norm(traj.states[-1] - np.asarray(x0, dtype=float)))


def baseline_model(d=1, x0=None):
    """Velocity = field value, zero source, no jumps."""
    if x0 is None:
        x0 = np.full(d, X0)
    return ModelSpec(d=d, F=FieldSpec.affine(0.0, 1.0, d=d),
                     G=FieldSpec.affine(0.0, 0.0, d=d), lam=0.0,
                     noise=identity_noise(d), x0=np.asarray(x0, float))


def coupled_model(K=1.0, d=1, x0=None):
    """Velocity = field value, source = K x."""
    if x0 is None:
        x0 = np.full(d, X0)
    return ModelSpec(d=d, F=FieldSpec.affine(0.0, 1.0, d=d),
                     G=FieldSpec.affine(K, 0.0, d=d), lam=0.0,
                     noise=identity_noise(d), x0=np.asarray(x0, float))


def jump_model(lam=1.0, S=0.5):
    """d=1 with relabeling x -> S x; closed-form slope solves a' = -a^2 - kappa a."""
    return ModelSpec(d=1, F=FieldSpec.affine(0.0, 1.0, d=1),
                     G=FieldSpec.affine(0.0, 0.0, d=1), lam=lam,
                     noise=AffineNoiseMap(np.array([[S]]), np.zeros(1)),
                     x0=np.zeros(1))


def registered_copy(name, f: FieldSpec) -> FieldSpec:
    """The affine field f, registered as name: a couple holding it keeps its
    declared constants, where an affine couple derives them."""
    register_field(name)(lambda x, p: eval_field(f, x, p))
    return FieldSpec.registered(name)


def digest12(*arrays):
    """sha256 of the arrays rendered at 12 significant digits, one line per array."""
    text = "\n".join(",".join(f"{v:.12g}" for v in np.ravel(a)) for a in arrays)
    return hashlib.sha256(text.encode()).hexdigest()


def assert_same_bits(got, want):
    """Equal times and meta, and values equal byte for byte (signs of zeros included)."""
    assert np.array_equal(got.times, want.times)
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    assert got.meta == want.meta


def assert_batch_matches_single_solves(m, box, eps, params):
    batch = solve_master(m, [penalized_slice(m, box, e) for e in eps], params)
    assert batch.failure is None
    assert len(batch.members) == len(eps)
    for e, got in zip(eps, batch.members):
        assert_same_bits(got, solve_master(m, penalized_slice(m, box, e), params))
    assert batch.meta["steps"] == sum(s.meta["steps"] for s in batch.members)
    assert batch.values.nbytes == sum(s.values.nbytes for s in batch.members)
    return batch


# Reference oracles: closed-form fields, sampled map monotonicity and the exact
# eigenvalue test of an affine couple, which tests compare the package against.

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
    return GridSolution(box=box, times=times, values=vals)


# Sampled pairs (x, y) of check_monotone_map; the pin of
# test_sampled_monotonicity_minima_are_pinned fixes it.
MAP_SAMPLES = 2000


def check_monotone_map(U, box, rng_seed=0) -> float:
    """Minimum of <U(x)-U(y), x-y>/|x-y|^2 over sampled pairs in the box.

    Degenerate pairs (|x-y| below 1e-12) are skipped. U is any vectorized
    map accepting (N, d) points.
    """
    rng = np.random.default_rng(rng_seed)
    x = box.sample_points(rng, MAP_SAMPLES)
    y = box.sample_points(rng, MAP_SAMPLES)
    diff = x - y
    d2 = np.sum(diff ** 2, axis=-1)
    keep = d2 > 1e-24
    if not np.any(keep):
        raise ConfigError("all sampled pairs were degenerate")
    ux = np.asarray(U(x[keep]), dtype=float)
    uy = np.asarray(U(y[keep]), dtype=float)
    vals = np.sum((ux - uy) * diff[keep], axis=-1) / d2[keep]
    return float(np.min(vals))


def affine_couple_eigenvalue(F: FieldSpec, G: FieldSpec) -> float:
    """Smallest eigenvalue of the symmetric part of [[Gx, Gp], [Fx, Fp]].

    Exact monotonicity test for affine couples: the couple is monotone iff
    this eigenvalue is >= 0.
    """
    if F.kind != "affine" or G.kind != "affine":
        raise ConfigError("eigenvalue test requires affine F and G")
    M = np.block([[G.Mx, G.Mp], [F.Mx, F.Mp]])
    sym = 0.5 * (M + M.T)
    return float(np.linalg.eigvalsh(sym)[0])


def box1d(n=400, lo=-1.0, hi=2.0):
    return Box(np.array([lo]), np.array([hi]), np.array([n]))


def closed_form(t, x, eps=0.0, x0=X0):
    return (np.asarray(x) - x0) / (eps + t)


@pytest.fixture(scope="session")
def lq0_solution():
    """Baseline solve at eps=0.1 on the standard 400-cell box, t_end=1."""
    m = baseline_model()
    box = box1d()
    params = SolverParams(t_end=1.0, n_rec=101)
    return solve_master(m, penalized_slice(m, box, 0.1), params)


# the controls of lq0_run
LQ0_RUN_PARAMS = SolverParams(t_end=1.0, n_rec=101)


@pytest.fixture(scope="session")
def lq0_run():
    """Baseline penalization run with the textbook 4-term schedule."""
    return run_penalization(baseline_model(), box1d(), (0.4, 0.2, 0.1, 0.05), LQ0_RUN_PARAMS,
                            t_min=0.2)


@pytest.fixture(scope="session")
def coupled_solution():
    """Coupled solve (source = x), eps=0.1, for cross-oracle comparisons."""
    m = coupled_model(K=1.0)
    box = box1d()
    params = SolverParams(t_end=0.5, n_rec=51)
    return solve_master(m, penalized_slice(m, box, 0.1), params)
