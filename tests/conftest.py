"""Shared model builders and cached expensive runs.

The baseline model used everywhere has velocity equal to the field value and
no source (d=1, no relabeling); its penalized solution is the closed form
U(t,x) = (x - x0)/(eps + t), which most tests lean on.
"""

import hashlib

import numpy as np
import pytest

from mfgplan import (AffineNoiseMap, Box, FieldSpec, ModelSpec, SolverParams,
                     penalized_slice, run_penalization, solve_master)

X0 = 0.5


def baseline_model(d=1, x0=None):
    """Velocity = field value, zero source, no jumps."""
    if x0 is None:
        x0 = np.full(d, X0)
    return ModelSpec(d=d, F=FieldSpec.affine(0.0, 1.0, d=d),
                     G=FieldSpec.affine(0.0, 0.0, d=d), lam=0.0,
                     noise=AffineNoiseMap.identity(d), x0=np.asarray(x0, float),
                     alpha=1.0, lip_Fx=0.0, lip_Fp=1.0, lip_Gx=0.0, lip_Gp=0.0)


def coupled_model(K=1.0, d=1, x0=None):
    """Velocity = field value, source = K x."""
    if x0 is None:
        x0 = np.full(d, X0)
    return ModelSpec(d=d, F=FieldSpec.affine(0.0, 1.0, d=d),
                     G=FieldSpec.affine(K, 0.0, d=d), lam=0.0,
                     noise=AffineNoiseMap.identity(d), x0=np.asarray(x0, float),
                     alpha=1.0, lip_Fx=0.0, lip_Fp=1.0, lip_Gx=K, lip_Gp=0.0)


def jump_model(lam=1.0, S=0.5):
    """d=1 with relabeling x -> S x; closed-form slope solves a' = -a^2 - kappa a."""
    return ModelSpec(d=1, F=FieldSpec.affine(0.0, 1.0, d=1),
                     G=FieldSpec.affine(0.0, 0.0, d=1), lam=lam,
                     noise=AffineNoiseMap(np.array([[S]]), np.zeros(1)),
                     x0=np.zeros(1), alpha=1.0, lip_Fx=0.0, lip_Fp=1.0,
                     lip_Gx=0.0, lip_Gp=0.0)


def digest12(*arrays):
    """sha256 of the arrays rendered at 12 significant digits, one line per array."""
    text = "\n".join(",".join(f"{v:.12g}" for v in np.ravel(a)) for a in arrays)
    return hashlib.sha256(text.encode()).hexdigest()


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


@pytest.fixture(scope="session")
def lq0_run():
    """Baseline penalization run with the textbook 4-term schedule."""
    m = baseline_model()
    box = box1d()
    params = SolverParams(t_end=1.0, n_rec=101)
    return run_penalization(m, box, (0.4, 0.2, 0.1, 0.05), params, t_min=0.2)


@pytest.fixture(scope="session")
def coupled_solution():
    """Coupled solve (source = x), eps=0.1, for cross-oracle comparisons."""
    m = coupled_model(K=1.0)
    box = box1d()
    params = SolverParams(t_end=0.5, n_rec=51)
    return solve_master(m, penalized_slice(m, box, 0.1), params)
