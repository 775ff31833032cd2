"""Problem data for the finite-state planning system.

A model collects the coupling maps F, G : R^d x R^d -> R^d, the jump
intensity lambda together with the affine state relabeling T(x) = S x + e,
the planning target x0, and the declared structural constants (the
monotonicity modulus alpha and the Lipschitz constants of F and G in each
argument) that the regularizing-bound certificate consumes.

The central structural notion is monotonicity of the couple (G, F):

    D = <G(x,p) - G(y,q), x - y> + <F(x,p) - F(y,q), p - q> >= 0,

optionally with a modulus alpha in the second variable, D >= alpha |p - q|^2.
For affine F and G this is equivalent to positive semidefiniteness of the
symmetric part of the block matrix [[Gx, Gp], [Fx, Fp]].
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

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


@register_field("zero")
def _zero_field(x, p):
    return np.zeros_like(np.asarray(p, dtype=float))


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
    """One coupling map, either affine (Mx x + Mp p + c) or a registered evaluator
    fn(x, p), optionally with binder(x) -> p-only evaluator (see bind_field)."""

    kind: str
    Mx: np.ndarray | None = None
    Mp: np.ndarray | None = None
    c: np.ndarray | None = None
    name: str = ""
    fn: object = None
    binder: object = None

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
    def registered(name, fn=None, binder=None):
        if fn is None and name not in _FIELD_REGISTRY:
            raise ConfigError(f"unknown registered field '{name}'; known: {registered_names()}")
        return FieldSpec(kind="registered", name=name, fn=fn, binder=binder)

    def __call__(self, x, p):
        return eval_field(self, x, p)


def eval_field(f: FieldSpec, x, p) -> np.ndarray:
    """Evaluate a coupling map at (x, p); both arguments broadcast as (..., d)."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if f.kind == "affine":
        return x @ f.Mx.T + p @ f.Mp.T + f.c
    if f.kind == "registered":
        fn = f.fn if f.fn is not None else _FIELD_REGISTRY.get(f.name)
        if fn is None:
            raise ConfigError(f"unknown registered field '{f.name}'")
        return np.asarray(fn(x, p), dtype=float)
    raise ConfigError(f"unknown field kind '{f.kind}'")


def bind_field(f: FieldSpec, x):
    """Evaluator p -> eval_field(f, x, p) for fixed x and float arrays p, bit for bit.

    Affine fields cache only x @ Mx.T: caching x @ Mx.T + c would change rounding.
    """
    x = np.asarray(x, dtype=float)
    if f.kind == "affine":
        xm = x @ f.Mx.T
        return lambda p: xm + p @ f.Mp.T + f.c
    if f.binder is not None:
        return f.binder(x)
    return lambda p: eval_field(f, x, p)


@dataclass(frozen=True, eq=False)
class AffineNoiseMap:
    """State relabeling T(x) = S x + e used by the jump term."""

    S: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        if S.ndim == 0:
            S = S.reshape(1, 1)
        e = np.asarray(self.e, dtype=float).reshape(-1)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ConfigError(f"noise matrix must be square, got shape {S.shape}")
        if e.shape != (S.shape[0],):
            raise ConfigError("noise shift length does not match the matrix size")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "e", e)

    @staticmethod
    def identity(d):
        return AffineNoiseMap(np.eye(d), np.zeros(d))

    @property
    def norm_S(self) -> float:
        return float(np.linalg.norm(self.S, 2))

    def __call__(self, x):
        return np.asarray(x, dtype=float) @ self.S.T + self.e


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Full problem data plus the declared structural constants."""

    d: int
    F: FieldSpec
    G: FieldSpec
    lam: float
    noise: AffineNoiseMap
    x0: np.ndarray
    alpha: float = 0.0
    lip_Fx: float = 0.0
    lip_Fp: float = 0.0
    lip_Gx: float = 0.0
    lip_Gp: float = 0.0

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError("model dimension d must be >= 1")
        if self.lam < 0:
            raise ConfigError("jump intensity lambda must be >= 0")
        if self.alpha < 0:
            raise ConfigError("monotonicity modulus alpha must be >= 0")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.shape != (self.d,):
            raise ConfigError(f"x0 must have length d={self.d}")
        object.__setattr__(self, "x0", x0)
        if self.noise.S.shape != (self.d, self.d):
            raise ConfigError("noise matrix size does not match d")
        for fs in (self.F, self.G):
            if fs.kind == "affine" and fs.Mx.shape != (self.d, self.d):
                raise ConfigError("affine field blocks must be d x d")

    def eval_F(self, x, p):
        return eval_field(self.F, x, p)

    def eval_G(self, x, p):
        return eval_field(self.G, x, p)

    def bind(self, x):
        """p-only evaluators (F_at, G_at) of F and G at the fixed nodes x."""
        return bind_field(self.F, x), bind_field(self.G, x)


@dataclass
class MonotonicityReport:
    """Sampled monotonicity statistics of a couple (G, F)."""

    min_pairing: float
    min_second_modulus: float
    min_first_modulus: float
    alpha: float
    n_samples: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.min_pairing >= -self.tol

    @property
    def passed_second_modulus(self) -> bool:
        return self.min_second_modulus >= -self.tol

    @property
    def passed_first_modulus(self) -> bool:
        return self.min_first_modulus >= -self.tol


def check_couple_monotone(m: ModelSpec, box, n_samples=4000, rng_seed=0,
                          tol_mono=1e-8) -> MonotonicityReport:
    """Sample the pairing D over box x box and report its minima.

    The second/first modulus entries subtract alpha |p-q|^2 resp. alpha |x-y|^2
    so that a nonnegative minimum certifies the corresponding strengthened
    monotonicity at the declared alpha.
    """
    rng = np.random.default_rng(rng_seed)
    x = box.sample_points(rng, n_samples)
    p = box.sample_points(rng, n_samples)
    y = box.sample_points(rng, n_samples)
    q = box.sample_points(rng, n_samples)
    dG = m.eval_G(x, p) - m.eval_G(y, q)
    dF = m.eval_F(x, p) - m.eval_F(y, q)
    D = np.sum(dG * (x - y), axis=-1) + np.sum(dF * (p - q), axis=-1)
    pq2 = np.sum((p - q) ** 2, axis=-1)
    xy2 = np.sum((x - y) ** 2, axis=-1)
    return MonotonicityReport(
        min_pairing=float(np.min(D)),
        min_second_modulus=float(np.min(D - m.alpha * pq2)),
        min_first_modulus=float(np.min(D - m.alpha * xy2)),
        alpha=m.alpha,
        n_samples=n_samples,
        tol=tol_mono,
    )


def check_monotone_map(U, box, n_samples=2000, rng_seed=0) -> float:
    """Minimum of <U(x)-U(y), x-y>/|x-y|^2 over sampled pairs in the box.

    Degenerate pairs (|x-y| below 1e-12) are skipped. U is any vectorized
    map accepting (N, d) points.
    """
    rng = np.random.default_rng(rng_seed)
    x = box.sample_points(rng, n_samples)
    y = box.sample_points(rng, n_samples)
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


# ---------------------------------------------------------------------------
# Model file format: one [model] section of key = value lines. Matrices are
# row-major with ';' between rows and ',' within a row; a bare scalar expands
# to scalar * identity for matrices and a constant vector for vectors.


def _parse_vector(text, d):
    parts = [p for p in text.replace(";", ",").split(",") if p.strip() != ""]
    vals = [float(p) for p in parts]
    if len(vals) == 1:
        return _as_vector(vals[0], d)
    return _as_vector(np.array(vals), d)


def _parse_matrix(text, d):
    rows = [r for r in text.split(";") if r.strip() != ""]
    if len(rows) == 1 and len(rows[0].split(",")) == 1:
        return _as_matrix(float(rows[0]), d)
    mat = [[float(v) for v in row.split(",")] for row in rows]
    return _as_matrix(np.array(mat), d)


def _parse_field(items, prefix, d):
    kind = items.get(f"{prefix}.kind", "affine").strip()
    if kind == "affine":
        Mx = _parse_matrix(items.get(f"{prefix}.Mx", "0"), d)
        Mp = _parse_matrix(items.get(f"{prefix}.Mp", "0"), d)
        c = _parse_vector(items.get(f"{prefix}.c", "0"), d)
        return FieldSpec(kind="affine", Mx=Mx, Mp=Mp, c=c)
    if kind == "registered":
        name = items.get(f"{prefix}.name", "").strip()
        return FieldSpec.registered(name)
    raise ConfigError(f"model field {prefix}.kind must be 'affine' or 'registered', got '{kind}'")


def model_from_items(items: dict) -> ModelSpec:
    """Build a ModelSpec from the key/value pairs of a [model] section."""
    try:
        d = int(items["d"])
    except KeyError:
        raise ConfigError("model section is missing 'd'") from None
    try:
        lam = float(items.get("lambda", "0"))
        x0 = _parse_vector(items.get("x0", "0"), d)
        S = _parse_matrix(items.get("S", "1"), d)
        e = _parse_vector(items.get("e", "0"), d)
        F = _parse_field(items, "F", d)
        G = _parse_field(items, "G", d)
        alpha = float(items.get("alpha", "0"))
        lips = {k: float(items.get(k, "0"))
                for k in ("lip_Fx", "lip_Fp", "lip_Gx", "lip_Gp")}
    except ValueError as exc:
        raise ConfigError(f"bad numeric value in model section: {exc}") from None
    return ModelSpec(d=d, F=F, G=G, lam=lam, noise=AffineNoiseMap(S, e), x0=x0,
                     alpha=alpha, **lips)


def load_model(path) -> ModelSpec:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep key case, 'F.Mx' vs 'f.mx'
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read model file '{path}'")
    if "model" not in cp:
        raise ConfigError(f"model file '{path}' has no [model] section")
    return model_from_items(dict(cp["model"]))


def _fmt_matrix(M):
    return "; ".join(",".join(f"{v:.12g}" for v in row) for row in np.atleast_2d(M))


def save_model(m: ModelSpec, path):
    lines = ["[model]", f"d = {m.d}", f"lambda = {m.lam:.12g}",
             "x0 = " + ",".join(f"{v:.12g}" for v in m.x0),
             "S = " + _fmt_matrix(m.noise.S),
             "e = " + ",".join(f"{v:.12g}" for v in m.noise.e)]
    for tag, fs in (("F", m.F), ("G", m.G)):
        if fs.kind == "affine":
            lines += [f"{tag}.kind = affine", f"{tag}.Mx = " + _fmt_matrix(fs.Mx),
                      f"{tag}.Mp = " + _fmt_matrix(fs.Mp),
                      f"{tag}.c = " + ",".join(f"{v:.12g}" for v in fs.c)]
        else:
            lines += [f"{tag}.kind = registered", f"{tag}.name = {fs.name}"]
    lines += [f"alpha = {m.alpha:.12g}", f"lip_Fx = {m.lip_Fx:.12g}",
              f"lip_Fp = {m.lip_Fp:.12g}", f"lip_Gx = {m.lip_Gx:.12g}",
              f"lip_Gp = {m.lip_Gp:.12g}", ""]
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
