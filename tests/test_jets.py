import numpy as np
import pytest

from finslerlab.jets import PATTERN_CACHE_SIZE, V, VBAR, Z, ZBAR, JetError, jet_space

# every (n, fiber order, base order) table the catalog's reports use
CATALOG_TABLES = [(1, 2, 0), (1, 4, 1), (2, 2, 0), (2, 3, 0), (2, 3, 1), (2, 4, 1),
                  (2, 5, 0), (3, 2, 0), (3, 4, 1)]


def full_table_mul(sp, a, b):
    out = np.zeros(sp.size, dtype=complex)
    np.add.at(out, sp._mo, a[sp._m1] * b[sp._m2])
    return out


def random_coefficients(rng, size, zero_share):
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    c[rng.random(size) < zero_share] = 0.0
    return c


def test_seed_and_arithmetic():
    sp = jet_space(2, 2, 1)
    v1 = sp.variable(V, 0, 1.5 + 0.5j)
    v2 = sp.variable(V, 1, -0.25j)
    prod = v1 * v2
    assert prod.value == pytest.approx((1.5 + 0.5j) * (-0.25j))
    assert prod.derivative(v=(0,)) == pytest.approx(-0.25j)
    assert prod.derivative(v=(0, 1)) == pytest.approx(1.0)
    assert prod.derivative(v=(0, 0)) == 0.0


def test_conjugation_swaps_variable_classes():
    sp = jet_space(1, 2, 1)
    v = sp.variable(V, 0, 2.0 + 1.0j)
    z = sp.variable(Z, 0, 0.25)
    f = v.conj() * z
    assert f.derivative(vbar=(0,), z=(0,)) == pytest.approx(1.0)
    assert f.derivative(v=(0,), z=(0,)) == 0.0


def test_abs2_hessian_is_one():
    sp = jet_space(1, 2, 0)
    v = sp.variable(V, 0, 0.3 - 0.7j)
    f = v.abs2()
    assert f.derivative(v=(0,), vbar=(0,)) == pytest.approx(1.0)
    assert f.derivative(v=(0, 0)) == 0.0


def test_inverse_and_sqrt_series():
    sp = jet_space(1, 3, 0)
    v = sp.variable(V, 0, 0.8 + 0.1j)
    g = v.abs2()
    # sqrt(g)^2 == g and g * (1/g) == 1 as truncated series
    s = g.sqrt()
    assert np.allclose((s * s).c, g.c, atol=1e-14)
    one = g * g.inv()
    expect = np.zeros_like(one.c)
    expect[0] = 1.0
    assert np.allclose(one.c, expect, atol=1e-14)


def test_singular_points_raise():
    sp = jet_space(1, 2, 0)
    zero = sp.const(0.0)
    with pytest.raises(JetError):
        zero.sqrt()
    with pytest.raises(JetError):
        zero.inv()


def test_reality_symmetry_of_real_expressions():
    # coefficients of a real-valued expression satisfy the bar-swap symmetry
    sp = jet_space(2, 3, 1)
    v1 = sp.variable(V, 0, 0.4 + 0.2j)
    v2 = sp.variable(V, 1, -0.3 + 0.9j)
    z1 = sp.variable(Z, 0, 0.1 - 0.6j)
    f = v1.abs2() * (1 + z1.abs2()) + v2.abs2()
    swapped = np.conj(f.c[sp._conj_perm])
    assert np.allclose(f.c, swapped, atol=1e-15)


def test_tensor_extraction_matches_scalar_lookup():
    sp = jet_space(2, 4, 1)
    v1 = sp.variable(V, 0, 0.4 + 0.2j)
    v2 = sp.variable(V, 1, -0.3 + 0.9j)
    f = (v1.abs2() + v2.abs2()).pow_int(2)
    t = f.fiber_tensor(2, 1)
    assert t[0, 1, 1] == pytest.approx(f.derivative(v=(0, 1), vbar=(1,)))
    dz, dzb = f.fiber_tensor_dbase(1, 1)
    assert dz[0, 1, 0] == pytest.approx(f.derivative(v=(1,), vbar=(0,), z=(0,)))
    assert dzb[1, 0, 1] == pytest.approx(f.derivative(v=(0,), vbar=(1,), zbar=(1,)))


@pytest.mark.parametrize("table", CATALOG_TABLES)
def test_product_equals_full_table_product_exactly(table):
    sp = jet_space(*table)
    rng = np.random.default_rng(sum(table))
    operands = [random_coefficients(rng, sp.size, share)
                for share in (0.0, 0.5, 0.9, 0.99, 1.0) for _ in range(3)]
    const = np.zeros(sp.size, dtype=complex)
    const[0] = 1.5 - 0.5j
    operands += [const, np.zeros(sp.size, dtype=complex)]
    # each pair twice: once filling the pattern cache, once reading it
    for _ in range(2):
        for a in operands:
            for b in operands[::4] + [const]:
                assert np.array_equal(sp.mul(a, b), full_table_mul(sp, a, b))
                assert np.array_equal(sp.mul(b, a), full_table_mul(sp, b, a))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("table", CATALOG_TABLES)
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
def test_product_keeps_non_finite_terms(table, bad):
    # a non-finite coefficient times a zero is nan, so it must not be skipped
    sp = jet_space(*table)
    rng = np.random.default_rng(sum(table))
    a = random_coefficients(rng, sp.size, 0.9)
    a[sp.size - 1] = bad
    for b in (random_coefficients(rng, sp.size, 0.9), np.zeros(sp.size, dtype=complex)):
        for x, y in ((a, b), (b, a)):
            got, want = sp.mul(x, y), full_table_mul(sp, x, y)
            assert not np.all(np.isfinite(want))
            assert np.array_equal(np.isfinite(got), np.isfinite(want))
            assert np.array_equal(got, want, equal_nan=True)


def test_pattern_cache_is_bounded():
    sp = jet_space(3, 4, 1)
    rng = np.random.default_rng(5)
    b = random_coefficients(rng, sp.size, 0.5)
    for _ in range(PATTERN_CACHE_SIZE + 10):
        a = random_coefficients(rng, sp.size, 0.5)
        assert np.array_equal(sp.mul(a, b), full_table_mul(sp, a, b))
        assert len(sp._pairs) <= PATTERN_CACHE_SIZE
