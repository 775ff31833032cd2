"""Model container, field evaluation, monotonicity checks, model file loading."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from mfgplan import (AffineNoiseMap, Box, ConfigError, FieldSpec, ModelSpec,
                     check_couple_monotone, eval_field, load_model, register_field,
                     registered_names)
from mfgplan.model import COUPLE_TOL, DECLARED_REL_TOL
from conftest import (affine_couple_eigenvalue, baseline_model, box1d, check_monotone_map,
                      identity_noise, perfbench_child, registered_copy)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_affine_field_hand_values():
    f = FieldSpec.affine(np.array([[1.0, 2.0], [3.0, 4.0]]), 1.0,
                         c=np.array([1.0, -1.0]), d=2)
    x = np.array([1.0, 0.0])
    p = np.array([0.0, 2.0])
    # Mx x = (1, 3), Mp p = (0, 2), c = (1, -1)
    assert np.allclose(eval_field(f, x, p), [2.0, 4.0])
    # batch evaluation keeps the leading axis
    xb = np.stack([x, x])
    pb = np.stack([p, 2 * p])
    out = eval_field(f, xb, pb)
    assert out.shape == (2, 2)
    assert np.allclose(out[0], [2.0, 4.0])
    assert np.allclose(out[1], [2.0, 6.0])


def test_scalar_shorthand_expands():
    f = FieldSpec.affine(0.0, 3.0, d=2)
    p = np.array([1.0, -2.0])
    assert np.allclose(eval_field(f, np.zeros(2), p), 3.0 * p)


def test_registered_fields():
    names = registered_names()
    assert "capped_x1_burgers" in names
    f = FieldSpec.registered("capped_x1_burgers")
    x = np.array([[0.5, 2.0], [2.0, 0.3]])
    p = np.array([[3.0, 4.0], [3.0, 4.0]])
    out = eval_field(f, x, p)
    # first velocity component is min(x1, 1) * p1, the rest pass through
    assert np.allclose(out, [[1.5, 4.0], [3.0, 4.0]])
    with pytest.raises(ConfigError):
        FieldSpec.registered("no_such_field")


def test_member_stack_evaluates_like_each_member_bit_for_bit():
    # F and G on a stack of members (E, *x.shape), as the march evaluates them,
    # are each member's own evaluation byte for byte, sign bits included.
    # d = 1, 2, 3; signed zeros in x, p and c; diagonal and non-diagonal Mp
    rng = np.random.default_rng(5)
    affine = [FieldSpec.affine(np.array([[0.3, -1.1], [2.0, 0.7]]), 1.0 / 3.0,
                               c=np.array([0.1, -0.2]), d=2)]
    for d in (1, 2, 3):
        c = rng.uniform(-1.0, 1.0, size=d)
        c[0] = -0.0
        affine.append(FieldSpec.affine(rng.uniform(-2.0, 2.0, size=(d, d)),
                                       rng.uniform(-2.0, 2.0, size=(d, d)) / 3.0, c=c, d=d))
    cases = []
    for F in affine:
        d = F.c.shape[0]
        x = rng.uniform(-2.0, 2.0, size=(7, 6, d))
        x[1::2, ::3] = -0.0
        p = rng.uniform(-2.0, 2.0, size=(3,) + x.shape)
        p[1, ::2] = -0.0
        p[2, 1::2, 1::2] = -0.0
        cases.append((F, FieldSpec.registered("capped_x1_burgers"), x, p))
    # lq0's F and G (Mx = 0, Mp = 1 and 0, c = 0: the identity and p-free forms)
    # on its (12, 201, 1) member stack with -0 in p, a product that underflows
    # to -0 (with c = -0, which keeps a -0 sum and the field dense), and Mx != 0
    # at the x = 0 node
    lq0_x = np.linspace(-1.0, 2.0, 201)[:, None]
    zero_x = np.linspace(-1.0, 1.0, 201)[:, None]
    assert zero_x[100, 0] == 0.0 and not np.signbit(zero_x[100, 0])
    neg_zero_x = zero_x.copy()
    neg_zero_x[100] = -0.0
    tiny = FieldSpec.affine(0.0, 1e-200, c=-0.0, d=1)
    for F, G, x in [(FieldSpec.affine(0.0, 1.0, d=1), FieldSpec.affine(0.0, 0.0, d=1), lq0_x),
                    (tiny, FieldSpec.affine(0.5, 1e-200, c=-0.0, d=1), lq0_x),
                    (FieldSpec.affine(0.7, 1.0, d=1), FieldSpec.affine(-1.3, 0.0, d=1), zero_x),
                    (FieldSpec.affine(0.7, 1.0, d=1), FieldSpec.affine(-1.3, 0.0, d=1),
                     neg_zero_x)]:
        p = rng.uniform(-2.0, 2.0, size=(12,) + x.shape)
        p[:, ::3] = -0.0
        p[1::2, 1::4] = 0.0
        if F is tiny:
            p[:, 2::3] = -1e-200  # (-1e-200) (1e-200) underflows to -0
        p[:, 100] = [[v] for v in ([-0.0, 0.0, -1.0, 1.0] * 3)]  # at the x = 0 node
        cases.append((F, G, x, p))
    for F, G, x, p in cases:
        d = x.shape[-1]
        m = ModelSpec(d=d, F=F, G=G, lam=0.0, noise=identity_noise(d), x0=np.zeros(d))
        for ev in (m.eval_F, m.eval_G):
            want = ev(x, p)
            assert want.shape == p.shape
            for e in range(len(p)):
                assert ev(x, p[e]).tobytes() == want[e].tobytes()


def test_one_row_evaluates_like_its_batch_row():
    # random non-diagonal affine F and G, d = 1, 2, 3, signed zeros in x, p
    # and c: one row of eval_F and eval_G is its row of a batch byte for
    # byte, sign bits included (the products multiply by contiguous blocks;
    # a transposed view would round a single row differently from many)
    rng = np.random.default_rng(9)
    for d in (1, 2, 3):
        c = rng.uniform(-1.0, 1.0, size=(2, d))
        c[0, 0], c[1, -1] = -0.0, 0.0
        F, G = (FieldSpec.affine(rng.uniform(-2.0, 2.0, size=(d, d)),
                                 rng.uniform(-2.0, 2.0, size=(d, d)) / 3.0, c=c[i], d=d)
                for i in range(2))
        m = ModelSpec(d=d, F=F, G=G, lam=0.0, noise=identity_noise(d), x0=np.zeros(d))
        # x = p = -0 and c = -0 on every component
        zero = FieldSpec.affine(rng.uniform(-2.0, 2.0, size=(d, d)),
                                rng.uniform(-2.0, 2.0, size=(d, d)), c=-0.0, d=d)
        mz = ModelSpec(d=d, F=zero, G=zero, lam=0.0, noise=identity_noise(d),
                       x0=np.zeros(d))
        x, p = rng.uniform(-2.0, 2.0, size=(2, 9, d))
        x[::2] = -0.0
        p[1::3] = -0.0
        for model, (xs, ps) in ((m, (x, p)), (mz, np.full((2, 3, d), -0.0))):
            for ev in (model.eval_F, model.eval_G):
                batch = ev(xs, ps)
                for i in range(len(xs)):
                    for one in (ev(xs[i], ps[i]), ev(xs[i:i + 1], ps[i:i + 1])[0]):
                        assert one.tobytes() == batch[i].tobytes()
                        assert np.array_equal(np.signbit(one), np.signbit(batch[i]))


def test_affine_field_keeps_read_only_copies():
    # MxT and MpT are built once from Mx and Mp: a write into Mx, Mp or c
    # in place would leave them on the old blocks, so none is writable, and
    # the caller's arrays are copied, not frozen
    Mx, Mp, c = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.5, 0.0], [0.25, 1.0]]), \
        np.array([1.0, -1.0])
    f = FieldSpec(kind="affine", Mx=Mx, Mp=Mp, c=c)
    x, p = np.array([[1.0, -2.0]]), np.array([[0.5, 3.0]])
    want = eval_field(f, x, p)
    for name in ("Mx", "Mp", "c", "MxT", "MpT"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(f, name)[0] += 1.0
    for mine in (Mx, Mp, c):
        assert mine.flags.writeable
        mine[0] += 1.0
    assert eval_field(f, x, p).tobytes() == want.tobytes()
    assert np.array_equal(f.Mx, [[1.0, 2.0], [3.0, 4.0]]) and np.array_equal(f.c, [1.0, -1.0])


def test_noise_map_and_model_keep_read_only_copies():
    # S, e and x0 are the model's own read-only copies, as a field's blocks
    # are: writing into the caller's arrays after construction changes
    # nothing, and the cached scale of S = s I cannot go stale
    S, e, x0 = 0.5 * np.eye(2), np.array([0.1, -0.2]), np.array([0.3, 0.4])
    noise = AffineNoiseMap(S, e)
    m = ModelSpec(d=2, F=FieldSpec.affine(0.0, 1.0, d=2), G=FieldSpec.affine(1.0, 0.0, d=2),
                  lam=1.0, noise=noise, x0=x0)
    want = noise(np.array([[1.0, -2.0]]))
    for arr in (noise.S, noise.e, m.x0):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] += 1.0
    S[0, 0], e[1], x0[0] = 9.0, 3.0, -7.0
    assert noise.scale == 0.5
    assert np.array_equal(noise.S, 0.5 * np.eye(2)) and np.array_equal(noise.e, [0.1, -0.2])
    assert np.array_equal(m.x0, [0.3, 0.4])
    assert noise(np.array([[1.0, -2.0]])).tobytes() == want.tobytes()


def test_noise_map_scale_is_s_only_for_s_times_identity():
    assert identity_noise(3).scale == 1.0
    assert AffineNoiseMap(-1.0, 0.0).scale == -1.0
    assert AffineNoiseMap(np.zeros((2, 2)), np.zeros(2)).scale == 0.0
    for S in (np.diag([0.5, 0.6]), np.array([[0.5, 0.1], [0.0, 0.5]]),
              np.array([[0.5, 0.0], [np.nan, 0.5]])):
        assert AffineNoiseMap(S, np.zeros(2)).scale is None


def _dense(f, x, p):
    """The affine expression written out, every product taken: eval_field's dense form."""
    return x @ f.MxT + p @ f.MpT + f.c


def test_short_forms_equal_the_dense_expression():
    # identity fields (Mx = 0, Mp = I) add c to p, p-free ones (Mp = 0) skip
    # p @ MpT; both must give the dense expression byte for byte, with its
    # shape, at signed zeros in x and p, on a leading member axis and for an
    # x with more leading axes than p. A c with a -0.0 entry stays dense.
    rng = np.random.default_rng(22)
    for d in (1, 2, 3):
        c = rng.uniform(-1.0, 1.0, size=d)
        c[0] = 0.0
        neg_c = c.copy()
        neg_c[-1] = -0.0
        general = rng.uniform(-2.0, 2.0, size=(d, d))
        fields = [(FieldSpec.affine(0.0, 1.0, d=d), "identity"),
                  (FieldSpec.affine(0.0, 1.0, c=c, d=d), "identity"),
                  (FieldSpec.affine(0.0, 0.0, c=c, d=d), "p-free"),
                  (FieldSpec.affine(1.0, 0.0, d=d), "p-free"),
                  (FieldSpec.affine(general, 0.0, c=c, d=d), "p-free"),
                  (FieldSpec.affine(0.0, 1.0, c=neg_c, d=d), "dense"),
                  (FieldSpec.affine(general, 0.0, c=neg_c, d=d), "dense"),
                  (FieldSpec.affine(general, 0.5, c=c, d=d), "dense")]
        x = rng.uniform(-2.0, 2.0, size=(3, 6, 5, d))
        x[:, ::2, ::2] = -0.0
        x[:, 1::2, 1::3] = 0.0
        p = rng.uniform(-2.0, 2.0, size=(3, 6, 5, d))
        p[0, ::3] = -0.0
        p[1, 1::2] = 0.0
        p[2, ::2, 1::2] = -0.0
        # same shape; a member axis on p; x with more leading axes than p
        pairs = [(x[0], p[0]), (x[0], p), (x, p[1])]
        for f, form in fields:
            assert f.form == form
            for xs, ps in pairs:
                want = _dense(f, xs, ps)
                got = eval_field(f, xs, ps)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_model_validation():
    good = baseline_model()
    assert good.d == 1
    with pytest.raises(ConfigError):
        ModelSpec(d=0, F=good.F, G=good.G, lam=0.0, noise=good.noise,
                  x0=np.zeros(0), alpha=1.0)
    with pytest.raises(ConfigError):
        ModelSpec(d=1, F=good.F, G=good.G, lam=-1.0, noise=good.noise,
                  x0=np.zeros(1), alpha=1.0)
    with pytest.raises(ConfigError):
        ModelSpec(d=1, F=good.F, G=good.G, lam=0.0, noise=good.noise,
                  x0=np.zeros(3), alpha=1.0)
    with pytest.raises(ConfigError):
        ModelSpec(d=1, F=good.F, G=good.G, lam=0.0,
                  noise=AffineNoiseMap(np.eye(2), np.zeros(2)),
                  x0=np.zeros(1), alpha=1.0)


def test_noise_map():
    T = AffineNoiseMap(0.8 * np.eye(2), np.array([0.1, 0.0]))
    assert np.isclose(T.norm_S, 0.8)
    pts = np.array([[1.0, 2.0], [0.0, 0.0]])
    assert np.allclose(T(pts), 0.8 * pts + np.array([0.1, 0.0]))


def test_couple_velocity_equals_value_is_exactly_one_monotone():
    # pairing D = |p - q|^2 by hand, so D - 1*|p - q|^2 vanishes identically
    rep = check_couple_monotone(baseline_model(), box1d(n=10))
    assert rep.passed
    assert rep.min_second_modulus >= -COUPLE_TOL
    assert abs(rep.min_second_modulus) <= 1e-14
    assert rep.min_pairing >= 0.0


def test_couple_pure_source_fails_second_modulus():
    # F = 0, G = x: D = |x - y|^2 >= 0, but no |p - q|^2 term exists, so any
    # positive alpha-in-the-second-variable claim must fail. An affine G would
    # derive alpha = 0 and refuse the claim; a registered one keeps it.
    m = ModelSpec(d=1, F=FieldSpec.affine(0.0, 0.0, d=1),
                  G=registered_copy("pure_source", FieldSpec.affine(1.0, 0.0, d=1)), lam=0.0,
                  noise=identity_noise(1), x0=np.zeros(1),
                  alpha=1.0, lip_Gx=1.0)
    rep = check_couple_monotone(m, box1d(n=10))
    assert rep.min_pairing >= 0.0
    assert rep.min_second_modulus < -COUPLE_TOL
    assert rep.min_second_modulus < -0.1
    assert not rep.passed


def test_couple_antimonotone_fails():
    m = ModelSpec(d=1, F=FieldSpec.affine(0.0, -1.0, d=1),
                  G=FieldSpec.affine(0.0, 0.0, d=1), lam=0.0,
                  noise=identity_noise(1), x0=np.zeros(1), alpha=0.0,
                  lip_Fp=1.0)
    rep = check_couple_monotone(m, box1d(n=10))
    assert not rep.passed
    assert rep.min_pairing < -0.1


def test_affine_eigenvalue_agrees_with_sampling():
    # for affine couples the pairing is the quadratic form of
    # sym([[Gx, Gp], [Fx, Fp]]); sampling must agree with its smallest
    # eigenvalue about sign, exactly when nonnegative
    rng = np.random.default_rng(7)
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), np.array([4, 4]))
    seen_negative = 0
    for _ in range(10):
        blocks = [rng.normal(size=(2, 2)) for _ in range(4)]
        G = FieldSpec.affine(blocks[0], blocks[1], d=2)
        F = FieldSpec.affine(blocks[2], blocks[3], d=2)
        lam_min = affine_couple_eigenvalue(F, G)
        m = ModelSpec(d=2, F=F, G=G, lam=0.0,
                      noise=identity_noise(2), x0=np.zeros(2),
                      alpha=0.0)
        rep = check_couple_monotone(m, box, rng_seed=11)
        if lam_min >= 0:
            assert rep.min_pairing >= -1e-9
        elif lam_min < -0.05:
            assert rep.min_pairing < 0
            seen_negative += 1
    assert seen_negative > 0  # the draw actually exercised both branches

    # shifting the couple by +c*Id shifts the eigenvalue by exactly c
    base = FieldSpec.affine(0.0, 0.0, d=2)
    for c in (0.5, -0.3):
        F = FieldSpec.affine(0.0, c, d=2)
        G = FieldSpec.affine(c, 0.0, d=2)
        assert abs(affine_couple_eigenvalue(F, G) - c) < 1e-12


def _couple(B, d):
    """The affine couple (F, G) of the block matrix B = [[Gx, Gp], [Fx, Fp]]."""
    return (FieldSpec.affine(B[d:, :d], B[d:, d:], d=d),
            FieldSpec.affine(B[:d, :d], B[:d, d:], d=d))


def _plain_model(F, G, **declared):
    d = len(F.Mx)
    return ModelSpec(d=d, F=F, G=G, lam=0.0, noise=identity_noise(d), x0=np.zeros(d), **declared)


def test_derived_alpha_is_the_largest_modulus():
    # random monotone couples with non-symmetric blocks, sym(B) = L L^T + a0 diag(0, I)
    # with L of every rank (so P = sym(Gx) singular too): sym(B) - alpha diag(0, I)
    # is >= 0 at the derived alpha and is not just above it
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        for rank in range(1, 2 * d + 1):
            for _ in range(12):
                L, K = rng.normal(size=(2 * d, rank)), rng.normal(size=(2 * d, 2 * d))
                a0 = rng.uniform(0.0, 2.0) * (rng.random() > 0.3)
                B = L @ L.T + K - K.T
                B[d:, d:] += a0 * np.eye(d)
                F, G = _couple(B, d)
                c = _plain_model(F, G).consts
                assert c.alpha >= a0 - 1e-9

                def lam_min(a):  # of sym(B) - a diag(0, I)
                    return affine_couple_eigenvalue(FieldSpec.affine(F.Mx, F.Mp - a * np.eye(d)), G)
                assert lam_min(c.alpha) >= -1e-12
                assert lam_min(c.alpha + 1e-6) < 0.0
                for lip, M in zip(c[1:], (F.Mx, F.Mp, G.Mx, G.Mp)):  # spectral norms
                    assert lip == pytest.approx(np.linalg.norm(M, 2), rel=1e-14, abs=0.0)


def test_non_monotone_couple_derives_alpha_zero():
    rng = np.random.default_rng(5)
    seen = 0
    for d in (1, 2, 3):
        for _ in range(20):
            F, G = _couple(rng.normal(size=(2 * d, 2 * d)), d)
            if affine_couple_eigenvalue(F, G) < 0:
                assert _plain_model(F, G).consts.alpha == 0.0
                seen += 1
    assert seen >= 20
    # F = 0, G = x is monotone with no modulus in p; F = x + p, G = 0 is not
    # monotone, as sym(B) = [[0, 1/2], [1/2, 1]] has a negative eigenvalue
    assert _plain_model(*_couple(np.diag([1.0, 0.0]), 1)).consts.alpha == 0.0
    assert _plain_model(*_couple(np.array([[0.0, 0.0], [1.0, 1.0]]), 1)).consts.alpha == 0.0


def test_shipped_affine_models_derive_their_declared_constants():
    # bit for bit: lq0.model declares them, perfbench's coupled_model declares three
    assert load_model(CONFIGS / "lq0.model").consts == (1.0, 0.0, 1.0, 0.0, 0.0)
    child = perfbench_child()
    for lam, S in ((1.0, 0.5), (0.0, 1.0)):
        assert child.coupled_model((0.5, 0.5), lam, S).consts == (1.0, 0.0, 1.0, 1.0, 0.0)


def test_declared_constants_are_assertions():
    F, G = FieldSpec.affine(0.0, 1.0, d=1), FieldSpec.affine(1.0, 0.0, d=1)  # F = p, G = x
    assert _plain_model(F, G).consts == (1.0, 0.0, 1.0, 1.0, 0.0)
    # a declared value within the tolerance passes, and the derived one is used
    near = _plain_model(F, G, alpha=1.0 + 0.5 * DECLARED_REL_TOL)
    assert near.alpha == 1.0 + 0.5 * DECLARED_REL_TOL and near.consts.alpha == 1.0
    for key, value in (("alpha", 1.0 + 2 * DECLARED_REL_TOL), ("lip_Gx", 0.0),
                       ("lip_Fp", -1.0), ("lip_Gp", float("nan"))):
        with pytest.raises(ConfigError, match=rf"\[model\] {key} = .* is declared, but the "
                                              rf"affine couple gives"):
            _plain_model(F, G, **{key: value})
    # a registered couple keeps what it declares, 0 where undeclared, each >= 0
    Greg = registered_copy("declared_G", G)
    assert _plain_model(F, Greg, lip_Gx=0.25).consts == (0.0, 0.0, 0.0, 0.25, 0.0)
    for value in (-1.0, float("nan")):
        with pytest.raises(ConfigError, match=r"\[model\] lip_Gx must be >= 0"):
            _plain_model(F, Greg, lip_Gx=value)


def test_replace_rederives_the_constants():
    # replace passes the declared (None) values on: the new couple derives its own
    m = baseline_model()
    assert m.alpha is None and m.consts.alpha == 1.0
    m2 = dataclasses.replace(m, G=FieldSpec.affine(0.0, 500.0, d=1))
    assert m2.consts == (0.0, 0.0, 1.0, 0.0, 500.0)
    declared = dataclasses.replace(m, alpha=1.0)
    with pytest.raises(ConfigError, match=r"\[model\] alpha = 1 is declared"):
        dataclasses.replace(declared, F=FieldSpec.affine(0.0, 0.0, d=1))


def test_monotone_map_minimum():
    box = box1d(n=10)
    assert abs(check_monotone_map(lambda x: 2.0 * x, box) - 2.0) < 1e-9
    assert check_monotone_map(lambda x: -x, box) < -0.99


def test_sampled_monotonicity_minima_are_pinned():
    # exact minima over a non-diagonal 2-D couple and a fixed 2-D map at the
    # default seed: they fix the sample counts and the order of the draws
    box = Box(np.array([-1.0, -0.5]), np.array([1.5, 2.0]), np.array([10, 10]))
    F = FieldSpec.affine([[0.2, 0.1], [-0.3, 0.1]], [[1.0, 0.4], [0.1, 0.8]], d=2)
    G = FieldSpec.affine([[0.9, -0.2], [0.3, 0.5]], [[0.1, 0.0], [0.2, 0.0]], d=2)
    # G registered, so that the declared alpha = 0.3 is the one in use (the
    # affine couple derives 0.5799)
    m = ModelSpec(d=2, F=F, G=registered_copy("pinned_G", G), lam=0.0, noise=identity_noise(2),
                  x0=np.zeros(2), alpha=0.3)
    assert m.consts.alpha == 0.3
    rep = check_couple_monotone(m, box)
    assert (rep.min_pairing, rep.min_second_modulus) == (
        0.02646809899585814, 0.023149303862614615)
    U = lambda x: np.column_stack([2.0 * x[:, 0] + 0.5 * x[:, 1], x[:, 1] ** 3 - 0.3 * x[:, 0]])
    assert check_monotone_map(U, box) == 0.03952050923676891


def test_model_file_round_trip(tmp_path):
    m = ModelSpec(d=2,
                  F=FieldSpec.affine(np.array([[0.0, 0.5], [-0.5, 0.0]]), 1.0,
                                     c=np.array([0.1, -0.2]), d=2),
                  G=FieldSpec.affine(0.3, 0.0, d=2), lam=0.7,
                  noise=AffineNoiseMap(0.8 * np.eye(2), np.array([0.05, 0.0])),
                  x0=np.array([0.4, -0.1]), alpha=0.791667,
                  lip_Fx=0.5, lip_Fp=1.0, lip_Gx=0.3, lip_Gp=0.0)
    path = tmp_path / "m.model"
    path.write_text("[model]\nd = 2\nlambda = 0.7\nx0 = 0.4,-0.1\nS = 0.8,0; 0,0.8\n"
                    "e = 0.05,0\nF.kind = affine\nF.Mx = 0,0.5; -0.5,0\nF.Mp = 1,0; 0,1\n"
                    "F.c = 0.1,-0.2\nG.kind = affine\nG.Mx = 0.3,0; 0,0.3\n"
                    "G.Mp = 0,0; 0,0\nG.c = 0,0\nalpha = 0.791667\nlip_Fx = 0.5\nlip_Fp = 1\n"
                    "lip_Gx = 0.3\nlip_Gp = 0\n")
    back = load_model(path)
    assert back.d == m.d and back.lam == m.lam and back.alpha == m.alpha
    for a, b in ((back.F.Mx, m.F.Mx), (back.F.Mp, m.F.Mp), (back.F.c, m.F.c),
                 (back.G.Mx, m.G.Mx), (back.noise.S, m.noise.S),
                 (back.noise.e, m.noise.e), (back.x0, m.x0)):
        assert np.allclose(a, b, atol=1e-12)
    assert (back.lip_Fx, back.lip_Fp, back.lip_Gx, back.lip_Gp) == \
        (m.lip_Fx, m.lip_Fp, m.lip_Gx, m.lip_Gp)
    # the declared alpha rounds the derived 1 - 0.25^2 / 0.3 = 19/24 within DECLARED_REL_TOL
    assert back.consts == m.consts and back.consts.alpha == pytest.approx(19 / 24, rel=1e-15)


def test_registered_field_round_trip(tmp_path):
    m = ModelSpec(d=2, F=FieldSpec.registered("capped_x1_burgers"),
                  G=FieldSpec.affine(0.0, 0.0, d=2), lam=0.0,
                  noise=identity_noise(2), x0=np.array([0.6, 0.0]),
                  alpha=0.0, lip_Fx=1.0, lip_Fp=1.0)
    path = tmp_path / "m.model"
    path.write_text("[model]\nd = 2\nlambda = 0\nx0 = 0.6,0\nS = 1,0; 0,1\ne = 0,0\n"
                    "F.kind = registered\nF.name = capped_x1_burgers\nG.kind = affine\n"
                    "G.Mx = 0,0; 0,0\nG.Mp = 0,0; 0,0\nG.c = 0,0\nalpha = 0\n"
                    "lip_Fx = 1\nlip_Fp = 1\nlip_Gx = 0\nlip_Gp = 0\n")
    back = load_model(path)
    assert back.F.kind == "registered" and back.F.name == "capped_x1_burgers"
    x = np.array([[0.25, 1.0]])
    p = np.array([[2.0, 3.0]])
    assert np.allclose(back.eval_F(x, p), m.eval_F(x, p))


@register_field("doubled")
def _doubled(x, p):
    return 2.0 * p + x


def test_registered_field_needs_a_known_name():
    f = FieldSpec.registered("doubled")
    x = np.array([[1.0, 2.0]])
    p = np.array([[3.0, -1.0]])
    assert np.array_equal(eval_field(f, x, p), [[7.0, 0.0]])
    with pytest.raises(ConfigError, match="no_such_field"):
        FieldSpec.registered("no_such_field")
    with pytest.raises(ConfigError, match="no_such_field"):
        eval_field(FieldSpec(kind="registered", name="no_such_field"), x, p)
    with pytest.raises(ConfigError, match="kind"):
        eval_field(FieldSpec(kind="quadratic"), x, p)


@pytest.mark.parametrize("line", ["d = two", "d = -1", "d = 1\nx0 = 0.5, half",
                                  "d = 2\nS = 1, 0; 0", "d = 1\nF.Mp = abc"])
def test_malformed_model_numbers(tmp_path, line):
    path = tmp_path / "bad.model"
    path.write_text(f"[model]\n{line}\n")
    with pytest.raises(ConfigError):
        load_model(path)


def test_load_model_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_model(tmp_path / "missing.model")
    bad = tmp_path / "bad.model"
    bad.write_text("[model]\nd = 1\nlambda = not_a_number\n")
    with pytest.raises(ConfigError):
        load_model(bad)


def test_model_file_refuses_other_sections(tmp_path):
    # these lines were read as if absent: a model file holds [model] alone
    path = tmp_path / "lq0.model"
    path.write_text((CONFIGS / "lq0.model").read_text() + "\n[solver]\ndt_max = 0.5\n")
    with pytest.raises(ConfigError, match=r"\[solver\] is not a section of a model file"):
        load_model(path)


def _same_spec(a, b) -> bool:
    """Specs equal field by field, arrays by dtype and value."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same_spec(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def test_model_file_takes_inline_comments(tmp_path):
    # read like a config file: '#' starts a comment on its own line or after a value
    lines = (CONFIGS / "lq0.model").read_text().splitlines()
    path = tmp_path / "commented.model"
    path.write_text("# lq0, annotated\n" + "".join(
        f"{line}  # {line.split()[0]}\n" if "=" in line else f"{line}\n" for line in lines))
    assert "d = 1  # d\n" in path.read_text()
    assert _same_spec(load_model(path), load_model(CONFIGS / "lq0.model"))
