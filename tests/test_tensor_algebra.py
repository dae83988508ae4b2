import numpy as np
import pytest

from roughpaths.tensor_algebra import (GroupElement2, antisym_part, hom_norm,
                                       identity, increment, inv, mul)


def random_group(rng, m):
    return GroupElement2(rng.normal(size=m), rng.normal(size=(m, m)))


def test_identity_is_neutral():
    rng = np.random.default_rng(0)
    g = random_group(rng, 3)
    e = identity(3)
    for prod in (mul(e, g), mul(g, e)):
        assert np.array_equal(prod.level1, g.level1)
        assert np.array_equal(prod.level2, g.level2)


def test_product_of_pure_level1():
    u = np.array([1.0, 2.0])
    v = np.array([-0.5, 3.0])
    g = mul(GroupElement2(u, np.zeros((2, 2))), GroupElement2(v, np.zeros((2, 2))))
    assert np.array_equal(g.level1, u + v)
    assert np.array_equal(g.level2, np.outer(u, v))


def test_associativity_random_triples():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = rng.integers(1, 5)
        a, b, c = (random_group(rng, m) for _ in range(3))
        lhs = mul(mul(a, b), c)
        rhs = mul(a, mul(b, c))
        assert np.max(np.abs(lhs.level1 - rhs.level1)) <= 1e-13
        assert np.max(np.abs(lhs.level2 - rhs.level2)) <= 1e-13


def test_inverse_formula_and_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = rng.integers(1, 5)
        g = random_group(rng, m)
        gi = inv(g)
        # closed form (1,u,b)^-1 = (1,-u, u(x)u - b)
        assert np.array_equal(gi.level1, -g.level1)
        assert np.array_equal(gi.level2, np.outer(g.level1, g.level1) - g.level2)
        prod = mul(g, gi)
        assert np.max(np.abs(prod.level1)) <= 1e-14
        assert np.max(np.abs(prod.level2)) <= 1e-14
        gii = inv(gi)
        assert np.max(np.abs(gii.level1 - g.level1)) <= 1e-14
        assert np.max(np.abs(gii.level2 - g.level2)) <= 1e-14


def test_inv_identity():
    e = identity(2)
    ei = inv(e)
    assert np.array_equal(ei.level1, e.level1)
    assert np.array_equal(ei.level2, e.level2)


def test_increment_basics():
    rng = np.random.default_rng(3)
    g = random_group(rng, 2)
    same = increment(g, g)
    assert np.max(np.abs(same.level1)) <= 1e-14
    assert np.max(np.abs(same.level2)) <= 1e-14
    from_id = increment(identity(2), g)
    assert np.array_equal(from_id.level1, g.level1)
    assert np.array_equal(from_id.level2, g.level2)


def test_increment_chen_reconstruction():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = rng.integers(1, 5)
        xs, xu, xt = (random_group(rng, m) for _ in range(3))
        whole = increment(xs, xt)
        glued = mul(increment(xs, xu), increment(xu, xt))
        assert np.max(np.abs(whole.level1 - glued.level1)) <= 1e-13
        assert np.max(np.abs(whole.level2 - glued.level2)) <= 1e-13


def test_cross_term_is_bilinear_in_scale():
    rng = np.random.default_rng(5)
    a = random_group(rng, 3)
    b = random_group(rng, 3)
    lam = 2.5
    scaled = mul(GroupElement2(lam * a.level1, a.level2),
                 GroupElement2(lam * b.level1, b.level2))
    base = mul(a, b)
    cross_scaled = scaled.level2 - a.level2 - b.level2
    cross_base = base.level2 - a.level2 - b.level2
    assert np.allclose(cross_scaled, lam ** 2 * cross_base, atol=1e-13)


def test_sym_antisym_split():
    rng = np.random.default_rng(6)
    t = GroupElement2(rng.normal(size=3), rng.normal(size=(3, 3)))
    a = antisym_part(t)
    s = t.level2 - a
    assert np.allclose(s, s.T)
    assert np.allclose(a, -a.T)
    sym_mat = rng.normal(size=(3, 3))
    sym_mat = sym_mat + sym_mat.T
    g = GroupElement2(np.zeros(3), sym_mat)
    assert np.max(np.abs(antisym_part(g))) == 0.0


def test_hom_norm():
    assert hom_norm(identity(3)) == 0.0
    u = np.array([3.0, 4.0])
    assert hom_norm(GroupElement2(u, np.zeros((2, 2)))) == pytest.approx(5.0)
    rng = np.random.default_rng(8)
    for _ in range(20):
        b = rng.normal(size=(3, 3))
        g = GroupElement2(np.zeros(3), b)
        assert hom_norm(g) == pytest.approx(np.sqrt(np.linalg.norm(b, "fro")))


def test_hom_norm_subadditive_under_mul():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a = random_group(rng, 3)
        b = random_group(rng, 3)
        assert hom_norm(mul(a, b)) <= hom_norm(a) + hom_norm(b) + 1e-12


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension mismatch"):
        mul(identity(2), identity(3))
