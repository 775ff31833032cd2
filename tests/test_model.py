"""Model container, field evaluation, monotonicity checks, file round trip."""

import numpy as np
import pytest

from mfgplan import (AffineNoiseMap, Box, ConfigError, FieldSpec, ModelSpec,
                     affine_couple_eigenvalue, check_couple_monotone,
                     check_monotone_map, eval_field, load_model,
                     registered_names, save_model)
from conftest import baseline_model, box1d


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
    assert "zero" in names and "capped_x1_burgers" in names
    f = FieldSpec.registered("capped_x1_burgers")
    x = np.array([[0.5, 2.0], [2.0, 0.3]])
    p = np.array([[3.0, 4.0], [3.0, 4.0]])
    out = eval_field(f, x, p)
    # first velocity component is min(x1, 1) * p1, the rest pass through
    assert np.allclose(out, [[1.5, 4.0], [3.0, 4.0]])
    with pytest.raises(ConfigError):
        FieldSpec.registered("no_such_field")


def test_bind_matches_eval_bit_for_bit():
    rng = np.random.default_rng(5)
    x = rng.uniform(-2.0, 2.0, size=(7, 6, 2))
    fields = (FieldSpec.affine(np.array([[0.3, -1.1], [2.0, 0.7]]), 1.0 / 3.0,
                               c=np.array([0.1, -0.2]), d=2),
              FieldSpec.registered("capped_x1_burgers"))
    m = ModelSpec(d=2, F=fields[0], G=fields[1], lam=0.0,
                  noise=AffineNoiseMap.identity(2), x0=np.zeros(2))
    F_at, G_at = m.bind(x)
    for _ in range(3):  # the bound evaluators are reused across calls
        p = rng.uniform(-2.0, 2.0, size=x.shape)
        assert np.array_equal(F_at(p), m.eval_F(x, p))
        assert np.array_equal(G_at(p), m.eval_G(x, p))


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
    assert rep.passed_second_modulus
    assert abs(rep.min_second_modulus) <= 1e-14
    assert rep.min_pairing >= 0.0


def test_couple_pure_source_fails_second_modulus():
    # F = 0, G = x: D = |x - y|^2 >= 0, but no |p - q|^2 term exists,
    # so any positive alpha-in-the-second-variable claim must fail
    m = ModelSpec(d=1, F=FieldSpec.affine(0.0, 0.0, d=1),
                  G=FieldSpec.affine(1.0, 0.0, d=1), lam=0.0,
                  noise=AffineNoiseMap.identity(1), x0=np.zeros(1),
                  alpha=1.0, lip_Gx=1.0)
    rep = check_couple_monotone(m, box1d(n=10))
    assert rep.passed
    assert not rep.passed_second_modulus
    assert rep.min_second_modulus < -0.1
    # its first-variable modulus holds with alpha = 1 instead
    assert rep.passed_first_modulus


def test_couple_antimonotone_fails():
    m = ModelSpec(d=1, F=FieldSpec.affine(0.0, -1.0, d=1),
                  G=FieldSpec.affine(0.0, 0.0, d=1), lam=0.0,
                  noise=AffineNoiseMap.identity(1), x0=np.zeros(1), alpha=0.0,
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
                      noise=AffineNoiseMap.identity(2), x0=np.zeros(2),
                      alpha=0.0)
        rep = check_couple_monotone(m, box, n_samples=4000, rng_seed=11)
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


def test_monotone_map_minimum():
    box = box1d(n=10)
    assert abs(check_monotone_map(lambda x: 2.0 * x, box) - 2.0) < 1e-9
    assert check_monotone_map(lambda x: -x, box) < -0.99


def test_model_file_round_trip(tmp_path):
    m = ModelSpec(d=2,
                  F=FieldSpec.affine(np.array([[0.0, 0.5], [-0.5, 0.0]]), 1.0,
                                     c=np.array([0.1, -0.2]), d=2),
                  G=FieldSpec.affine(0.3, 0.0, d=2), lam=0.7,
                  noise=AffineNoiseMap(0.8 * np.eye(2), np.array([0.05, 0.0])),
                  x0=np.array([0.4, -0.1]), alpha=0.9,
                  lip_Fx=0.5, lip_Fp=1.0, lip_Gx=0.3, lip_Gp=0.0)
    path = tmp_path / "m.model"
    save_model(m, path)
    back = load_model(path)
    assert back.d == m.d and back.lam == m.lam and back.alpha == m.alpha
    for a, b in ((back.F.Mx, m.F.Mx), (back.F.Mp, m.F.Mp), (back.F.c, m.F.c),
                 (back.G.Mx, m.G.Mx), (back.noise.S, m.noise.S),
                 (back.noise.e, m.noise.e), (back.x0, m.x0)):
        assert np.allclose(a, b, atol=1e-12)
    assert (back.lip_Fx, back.lip_Fp, back.lip_Gx, back.lip_Gp) == \
        (m.lip_Fx, m.lip_Fp, m.lip_Gx, m.lip_Gp)


def test_registered_field_round_trip(tmp_path):
    m = ModelSpec(d=2, F=FieldSpec.registered("capped_x1_burgers"),
                  G=FieldSpec.affine(0.0, 0.0, d=2), lam=0.0,
                  noise=AffineNoiseMap.identity(2), x0=np.array([0.6, 0.0]),
                  alpha=0.0, lip_Fx=1.0, lip_Fp=1.0)
    path = tmp_path / "m.model"
    save_model(m, path)
    back = load_model(path)
    assert back.F.kind == "registered" and back.F.name == "capped_x1_burgers"
    x = np.array([[0.25, 1.0]])
    p = np.array([[2.0, 3.0]])
    assert np.allclose(back.eval_F(x, p), m.eval_F(x, p))


def test_load_model_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_model(tmp_path / "missing.model")
    bad = tmp_path / "bad.model"
    bad.write_text("[model]\nd = 1\nlambda = not_a_number\n")
    with pytest.raises(ConfigError):
        load_model(bad)
