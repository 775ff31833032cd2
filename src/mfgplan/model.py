"""Problem data for the finite-state planning system.

A model collects the coupling maps F, G : R^d x R^d -> R^d, the jump
intensity lambda together with the affine state relabeling T(x) = S x + e,
the planning target x0, and the structural constants (the monotonicity
modulus alpha and the Lipschitz constants of F and G in each argument) that
the regularizing-bound certificate consumes: an affine couple derives them.

The central structural notion is monotonicity of the couple (G, F):

    D = <G(x,p) - G(y,q), x - y> + <F(x,p) - F(y,q), p - q> >= 0,

optionally with a modulus alpha in the second variable, D >= alpha |p - q|^2.
For affine F and G this is equivalent to positive semidefiniteness of the
symmetric part of the block matrix [[Gx, Gp], [Fx, Fp]].
"""

from __future__ import annotations

import configparser
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# Sampled pairs ((x, p), (y, q)) behind check_couple_monotone. A sampled
# minimum only bounds the infimum from above, and more pairs tighten it. A
# couple passes at a minimum >= -COUPLE_TOL: with no margin it samples 0 up to rounding.
COUPLE_SAMPLES, COUPLE_TOL = 4000, 1e-4
# A declared constant of an affine couple is within DECLARED_REL_TOL * max(1, derived) of it.
DECLARED_REL_TOL = 1e-6

# Registry of named drift/source evaluators usable from model files.
# An evaluator takes arrays x, p of shape (..., d) and returns (..., d).
_FIELD_REGISTRY: dict[str, object] = {}


def register_field(name):
    def deco(fn):
        _FIELD_REGISTRY[name] = fn
        return fn
    return deco


def registered_names():
    return sorted(_FIELD_REGISTRY)


@register_field("capped_x1_burgers")
def _capped_x1_burgers(x, p):
    # First drift component vanishes linearly at the wall {x_1 = 0} and
    # matches the plain p_1 drift for x_1 >= 1; the other components are p_j.
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    out = p.copy()
    out[..., 0] = np.minimum(x[..., 0], 1.0) * p[..., 0]
    return out


def _as_matrix(value, d):
    m = np.asarray(value, dtype=float)
    if m.ndim == 0:
        m = float(m) * np.eye(d)
    if m.shape != (d, d):
        raise ConfigError(f"expected a {d}x{d} matrix, got shape {m.shape}")
    return m


def _as_vector(value, d):
    v = np.asarray(value, dtype=float)
    if v.ndim == 0:
        v = np.full(d, float(v))
    if v.shape != (d,):
        raise ConfigError(f"expected a length-{d} vector, got shape {v.shape}")
    return v


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """One coupling map, either affine (Mx x + Mp p + c) or registered: the
    register_field evaluator of that name.

    An affine field keeps read-only copies of Mx, Mp and c and builds its
    transposed blocks MxT and MpT once, contiguous and read-only; every affine
    product multiplies by them, so one row rounds like its row of a batch.
    It also classifies itself once, as form: "identity" (Mx = 0, Mp = I; the
    value is p + c), "p-free" (Mp = 0; the value is x @ MxT + c) or "dense".
    The short forms need a c with no -0.0 entry (see eval_field); a
    registered field's form is "".
    """

    kind: str
    Mx: np.ndarray | None = None
    Mp: np.ndarray | None = None
    c: np.ndarray | None = None
    name: str = ""
    MxT: np.ndarray | None = field(default=None, init=False, repr=False)
    MpT: np.ndarray | None = field(default=None, init=False, repr=False)
    form: str = field(default="", init=False, repr=False)

    def __post_init__(self):
        if self.kind == "affine":  # own read-only copies: MxT, MpT and form cannot go stale
            for name in ("Mx", "Mp", "c"):
                M = np.array(getattr(self, name), dtype=float)
                M.flags.writeable = False
                object.__setattr__(self, name, M)
            for name, M in (("MxT", self.Mx), ("MpT", self.Mp)):
                M = np.ascontiguousarray(M.T)
                M.flags.writeable = False
                object.__setattr__(self, name, M)
            form = "dense"
            if not np.any(np.signbit(self.c) & (self.c == 0.0)):
                if not self.Mp.any():
                    form = "p-free"
                elif not self.Mx.any() and np.array_equal(self.Mp, np.eye(len(self.Mp))):
                    form = "identity"
            object.__setattr__(self, "form", form)

    @staticmethod
    def affine(Mx, Mp, c=0.0, d=None):
        if d is None:
            for cand in (Mx, Mp):
                arr = np.asarray(cand, dtype=float)
                if arr.ndim == 2:
                    d = arr.shape[0]
                    break
            else:
                d = 1
        return FieldSpec(kind="affine", Mx=_as_matrix(Mx, d), Mp=_as_matrix(Mp, d),
                         c=_as_vector(c, d))

    @staticmethod
    def registered(name):
        if name not in _FIELD_REGISTRY:
            raise ConfigError(f"unknown registered field '{name}'; known: {registered_names()}")
        return FieldSpec(kind="registered", name=name)


def eval_field(f: FieldSpec, x, p) -> np.ndarray:
    """Evaluate a coupling map at (x, p); both arguments broadcast as (..., d).

    An affine field of form "identity" is p + c and one of form "p-free" is
    x @ MxT + c. Both equal the dense x @ MxT + p @ MpT + c bit for bit, shape
    and signs of zeros included, for finite x and p: a term that multiplies by
    a zero block is a sum of +-0 products, which leaves any nonzero value
    unchanged and, once c is added, any zero one too, since (+-0) + c is c for
    a c that is not -0.0. A -0.0 in c would keep a -0 sum, so such a field
    stays dense.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if f.kind != "affine":
        if f.kind != "registered":
            raise ConfigError(f"unknown field kind '{f.kind}'")
        fn = _FIELD_REGISTRY.get(f.name)
        if fn is None:
            raise ConfigError(f"unknown registered field '{f.name}'")
        return np.asarray(fn(x, p), dtype=float)
    if f.form == "dense":
        return x @ f.MxT + p @ f.MpT + f.c
    # the dense expression's shape, which x's or p's alone is when they agree
    out = None if x.shape == p.shape else np.empty(np.broadcast_shapes(x.shape, p.shape))
    return np.add(p if f.form == "identity" else x @ f.MxT, f.c, out=out)


@dataclass(frozen=True, eq=False)
class AffineNoiseMap:
    """State relabeling T(x) = S x + e used by the jump term.

    S and e are the map's own read-only copies, so scale cannot go stale: the
    float s when S = s I, else None.
    """

    S: np.ndarray
    e: np.ndarray
    scale: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        S = np.array(self.S, dtype=float)  # copies: the caller's arrays stay theirs
        if S.ndim == 0:
            S = S.reshape(1, 1)
        e = np.array(self.e, dtype=float).reshape(-1)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ConfigError(f"noise matrix must be square, got shape {S.shape}")
        if e.shape != (S.shape[0],):
            raise ConfigError("noise shift length does not match the matrix size")
        for name, arr in (("S", S), ("e", e)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        s = float(S.flat[0]) if S.size else 0.0
        if np.array_equal(S, s * np.eye(len(S))):
            object.__setattr__(self, "scale", s)

    @property
    def norm_S(self) -> float:
        return float(np.linalg.norm(self.S, 2))

    def __call__(self, x):
        return np.asarray(x, dtype=float) @ self.S.T + self.e


CoupleConstants = namedtuple("CoupleConstants", "alpha lip_Fx lip_Fp lip_Gx lip_Gp")


def affine_couple_constants(F: FieldSpec, G: FieldSpec) -> CoupleConstants:
    """The spectral norms of an affine couple's blocks, and the largest alpha >= 0
    with sym(B) - alpha diag(0, I) >= 0 for B = [[Gx, Gp], [Fx, Fp]]: with
    sym(B) = [[P, Q], [Q^T, R]], the least eigenvalue of R - Q^T P^+ Q (P^+ drops
    P's rounded zeros), or 0 if that alpha fails beyond rounding, as when sym(B) is not >= 0."""
    P, Q, R = (G.Mx + G.Mx.T) / 2, (G.Mp + F.Mx.T) / 2, (F.Mp + F.Mp.T) / 2
    schur = R - Q.T @ np.linalg.pinv(P, 1e-10, hermitian=True) @ Q
    alpha = max(float(np.linalg.eigvalsh(schur)[0]), 0.0)
    M = np.block([[P, Q], [Q.T, R - alpha * np.eye(len(R))]])
    if np.linalg.eigvalsh(M)[0] < -1e-12 * max(1.0, np.abs(M).max()):
        alpha = 0.0
    norms = np.linalg.svd(np.stack((F.Mx, F.Mp, G.Mx, G.Mp)), compute_uv=False)[:, 0]
    return CoupleConstants(alpha, *norms.tolist())


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Full problem data plus the structural constants.

    alpha and lip_* are declared (None: undeclared); consts holds those in use.
    An affine couple read in its own coordinates derives consts, and a declared
    value is checked against them; any other uses its declared values or 0.

    coords, when given, maps the points the model is solved at to the x its
    fields read, (..., d) -> (..., d): eval_F and eval_G evaluate F and G at
    read_at(x) = coords(x) (the straightened half-space model reads x(y)), and
    the march reads its nodes through read_at once per solve.
    """

    d: int
    F: FieldSpec
    G: FieldSpec
    lam: float
    noise: AffineNoiseMap
    x0: np.ndarray
    alpha: float | None = None
    lip_Fx: float | None = None
    lip_Fp: float | None = None
    lip_Gx: float | None = None
    lip_Gp: float | None = None
    coords: object = None
    consts: CoupleConstants = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError("model dimension d must be >= 1")
        if self.lam < 0:
            raise ConfigError("jump intensity lambda must be >= 0")
        x0 = np.array(self.x0, dtype=float).reshape(-1)  # a read-only copy, as Box keeps
        if x0.shape != (self.d,):
            raise ConfigError(f"x0 must have length d={self.d}")
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)
        if self.noise.S.shape != (self.d, self.d):
            raise ConfigError("noise matrix size does not match d")
        for fs in (self.F, self.G):
            if fs.kind == "affine" and fs.Mx.shape != (self.d, self.d):
                raise ConfigError("affine field blocks must be d x d")
        declared = [getattr(self, k) for k in CoupleConstants._fields]
        if self.coords is None and self.F.kind == self.G.kind == "affine":
            consts = affine_couple_constants(self.F, self.G)
        else:
            consts = CoupleConstants(*(0.0 if v is None else float(v) for v in declared))
        for k, v, c in zip(CoupleConstants._fields, declared, consts):
            if not c >= 0:
                raise ConfigError(f"[model] {k} must be >= 0, got {c:.12g}")
            if v is not None and not abs(v - c) <= DECLARED_REL_TOL * max(1.0, c):
                raise ConfigError(f"[model] {k} = {v:.12g} is declared, but the affine "
                                  f"couple gives {c:.12g}")
        object.__setattr__(self, "consts", consts)

    def read_at(self, x):
        """The x that F and G read at the points x the model is solved at."""
        return x if self.coords is None else self.coords(x)

    def eval_F(self, x, p):
        return eval_field(self.F, self.read_at(x), p)

    def eval_G(self, x, p):
        return eval_field(self.G, self.read_at(x), p)


@dataclass
class MonotonicityReport:
    """Sampled monotonicity statistics of a couple (G, F)."""

    min_pairing: float
    min_second_modulus: float

    @property
    def passed(self) -> bool:  # the second modulus is at most the pairing, as alpha >= 0
        return self.min_second_modulus >= -COUPLE_TOL


def check_couple_monotone(m: ModelSpec, box, rng_seed=0) -> MonotonicityReport:
    """Sample the pairing D over box x box and report its minima.

    The second-modulus entry subtracts m.consts.alpha |p-q|^2, so that a nonnegative
    minimum certifies monotonicity with modulus alpha in the second variable.
    """
    rng = np.random.default_rng(rng_seed)
    x, p, y, q = (box.sample_points(rng, COUPLE_SAMPLES) for _ in range(4))
    dG = m.eval_G(x, p) - m.eval_G(y, q)
    dF = m.eval_F(x, p) - m.eval_F(y, q)
    D = np.sum(dG * (x - y), axis=-1) + np.sum(dF * (p - q), axis=-1)
    pq2 = np.sum((p - q) ** 2, axis=-1)
    return MonotonicityReport(float(np.min(D)), float(np.min(D - m.consts.alpha * pq2)))


# ---------------------------------------------------------------------------
# Model file format: one [model] section of key = value lines. Matrices are
# row-major with ';' between rows and ',' within a row; a bare scalar expands
# to scalar * identity for matrices and a constant vector for vectors.


def parse_number(text, what, kind=float):
    """text read by kind (float or int); a malformed number is a ConfigError naming what."""
    try:
        return kind(text)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got '{text}'") from None


def parse_numbers(text, what, kind=float):
    """The comma-separated numbers in text, blank entries skipped, each read by kind."""
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{what} must be comma-separated numbers, got '{text}'") from None


def _parse_vector(text, d, what):
    vals = parse_numbers(text.replace(";", ","), what)
    return _as_vector(vals[0] if len(vals) == 1 else np.array(vals), d)


def _parse_matrix(text, d, what):
    rows = [parse_numbers(r, what) for r in text.split(";") if r.strip()]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ConfigError(f"{what} has rows of different lengths")
    if len(rows) == 1 and len(rows[0]) == 1:
        return _as_matrix(rows[0][0], d)
    return _as_matrix(np.array(rows), d)


# The keys a field reads after its prefix ('F.', 'G.', 'ftilde.'); the keys of [model].
FIELD_KEYS = ("kind", "Mx", "Mp", "c", "name")
MODEL_KEYS = ("d", "lambda", "x0", "S", "e", *CoupleConstants._fields,
              *(f"{f}.{k}" for f in ("F", "G") for k in FIELD_KEYS))


def check_keys(items, known, section):
    """ConfigError naming the first key of items that is not in known, and the known ones."""
    for key in items:
        if key not in known:
            raise ConfigError(f"[{section}] {key} is not a known key "
                              f"(known: {', '.join(known) or 'none'})")


def _parse_field(items, prefix, d):
    kind = items.get(f"{prefix}.kind", "affine").strip()
    if kind == "affine":
        Mx = _parse_matrix(items.get(f"{prefix}.Mx", "0"), d, f"{prefix}.Mx")
        Mp = _parse_matrix(items.get(f"{prefix}.Mp", "0"), d, f"{prefix}.Mp")
        c = _parse_vector(items.get(f"{prefix}.c", "0"), d, f"{prefix}.c")
        return FieldSpec(kind="affine", Mx=Mx, Mp=Mp, c=c)
    if kind == "registered":
        name = items.get(f"{prefix}.name", "").strip()
        return FieldSpec.registered(name)
    raise ConfigError(f"model field {prefix}.kind must be 'affine' or 'registered', got '{kind}'")


def model_from_items(items: dict) -> ModelSpec:
    """Build a ModelSpec from the key/value pairs of a [model] section."""
    check_keys(items, MODEL_KEYS, "model")
    if "d" not in items:
        raise ConfigError("model section is missing 'd'")
    d = parse_number(items["d"], "[model] d", int)
    if d < 1:
        raise ConfigError("model dimension d must be >= 1")
    lam = parse_number(items.get("lambda", "0"), "[model] lambda")
    x0 = _parse_vector(items.get("x0", "0"), d, "[model] x0")
    S = _parse_matrix(items.get("S", "1"), d, "[model] S")
    e = _parse_vector(items.get("e", "0"), d, "[model] e")
    F = _parse_field(items, "F", d)
    G = _parse_field(items, "G", d)
    consts = {k: parse_number(items[k], f"[model] {k}")
              for k in CoupleConstants._fields if k in items}
    return ModelSpec(d=d, F=F, G=G, lam=lam, noise=AffineNoiseMap(S, e), x0=x0, **consts)


def read_ini(path, kind) -> configparser.ConfigParser:
    """A config or model file, parsed: keys keep their case, '#' starts a comment."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.optionxform = str
    try:
        if not cp.read(str(path)):  # configparser's errors then quote the plain path
            raise ConfigError(f"cannot read {kind} file '{path}'")
    except configparser.Error as exc:  # a duplicate section or key, or no section header
        raise ConfigError(f"malformed {kind} file: {' '.join(str(exc).split())}") from None
    return cp


def load_model(path) -> ModelSpec:
    cp = read_ini(path, "model")
    if "model" not in cp:
        raise ConfigError(f"model file '{path}' has no [model] section")
    for name in cp.sections():
        if name != "model":
            raise ConfigError(f"[{name}] is not a section of a model file ('{path}')")
    return model_from_items(dict(cp["model"]))
