import itertools
import math

import numpy as np
import pytest

from finslerlab import jets
from finslerlab.jets import PATTERN_CACHE_SIZE, V, VBAR, Z, ZBAR, JetError, JetSpace, jet_space
from oracles import derivative, exponents, full_table

# every (n, fiber order, base order) table the catalog's reports use
CATALOG_TABLES = [(1, 2, 0), (1, 2, 2), (1, 4, 1), (2, 2, 0), (2, 2, 2), (2, 3, 0),
                  (2, 3, 1), (2, 4, 1), (2, 5, 0), (3, 2, 0), (3, 2, 2), (3, 4, 1),
                  (1, 2, 3), (1, 5, 2), (2, 2, 3), (2, 5, 2), (3, 2, 3), (3, 5, 2),
                  (1, 2, 4), (1, 6, 3), (2, 2, 4), (2, 6, 3), (3, 2, 4), (3, 6, 3),
                  (1, 2, 5), (1, 7, 4), (2, 2, 5), (2, 7, 4)]
# the tables TOTAL_DEGREE_CAP truncates, and the cap each keeps
CAPPED = {(1, 4, 1): 4, (2, 4, 1): 4, (3, 4, 1): 4, (1, 5, 2): 5, (2, 5, 2): 5, (3, 5, 2): 5,
          (1, 6, 3): 6, (2, 6, 3): 6, (3, 6, 3): 6, (1, 7, 4): 7, (2, 7, 4): 7, (3, 7, 4): 7}


def loop_monomials(n, fiber_order, base_order, total):
    """The exponent tuples of fiber degree <= fiber_order, base degree <=
    base_order and total degree <= total, fiber exponents then base
    exponents, each lexicographic, enumerated one by one."""
    def upto(k, deg):
        return [m for m in itertools.product(range(deg + 1), repeat=k) if sum(m) <= deg]

    return [f + b for f in upto(2 * n, fiber_order) for b in upto(2 * n, base_order)
            if sum(f) + sum(b) <= total]


def loop_tables(sp, total):
    """The multiplication table (m1, m2, mo) of sp built pair by pair: the
    blocks of monomials of one (fiber, base) degree in order of first
    appearance, every pair of blocks whose product stays within the fiber,
    base and total degrees, each pair row by row."""
    n = sp.n
    monomials = loop_monomials(n, sp.fiber_order, sp.base_order, total)
    index = {m: i for i, m in enumerate(monomials)}
    by_deg: dict[tuple[int, int], list[int]] = {}
    for i, m in enumerate(monomials):
        by_deg.setdefault((sum(m[:2 * n]), sum(m[2 * n:])), []).append(i)
    i1, i2, iout = [], [], []
    for (f1, b1), idxs1 in by_deg.items():
        for (f2, b2), idxs2 in by_deg.items():
            if f1 + f2 > sp.fiber_order or b1 + b2 > sp.base_order \
                    or f1 + f2 + b1 + b2 > total:
                continue
            for a in idxs1:
                for b in idxs2:
                    mc = tuple(x + y for x, y in zip(monomials[a], monomials[b]))
                    i1.append(a)
                    i2.append(b)
                    iout.append(index[mc])
    return i1, i2, iout


def full_table_mul(sp, a, b, table=None):
    """The product over sp's whole table, or over table when given (the
    full table, built once by a caller that multiplies many times)."""
    m1, m2, mo = full_table(sp) if table is None else table
    out = np.zeros(sp.size, dtype=complex)
    np.add.at(out, mo, a[m1] * b[m2])
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
    assert derivative(prod, v=(0,)) == pytest.approx(-0.25j)
    assert derivative(prod, v=(0, 1)) == pytest.approx(1.0)
    assert derivative(prod, v=(0, 0)) == 0.0


def test_conjugation_swaps_variable_classes():
    sp = jet_space(1, 2, 1)
    v = sp.variable(V, 0, 2.0 + 1.0j)
    z = sp.variable(Z, 0, 0.25)
    f = v.conj() * z
    assert derivative(f, vbar=(0,), z=(0,)) == pytest.approx(1.0)
    assert derivative(f, v=(0,), z=(0,)) == 0.0


def test_abs2_hessian_is_one():
    sp = jet_space(1, 2, 0)
    v = sp.variable(V, 0, 0.3 - 0.7j)
    f = v.abs2()
    assert derivative(f, v=(0,), vbar=(0,)) == pytest.approx(1.0)
    assert derivative(f, v=(0, 0)) == 0.0


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
    assert t[0, 1, 1] == pytest.approx(derivative(f, v=(0, 1), vbar=(1,)))
    dz, dzb = f.partials(1, 1, (Z,)), f.partials(1, 1, (ZBAR,))
    assert dz[0, 1, 0] == pytest.approx(derivative(f, v=(1,), vbar=(0,), z=(0,)))
    assert dzb[1, 0, 1] == pytest.approx(derivative(f, v=(0,), vbar=(1,), zbar=(1,)))


@pytest.mark.parametrize("table", CATALOG_TABLES)
def test_product_equals_full_table_product_exactly(table):
    sp = jet_space(*table)
    rng = np.random.default_rng(sum(table))
    operands = [random_coefficients(rng, sp.size, share)
                for share in (0.0, 0.5, 0.9, 0.99, 1.0) for _ in range(3)]
    const = np.zeros(sp.size, dtype=complex)
    const[0] = 1.5 - 0.5j
    operands += [const, np.zeros(sp.size, dtype=complex)]
    full = full_table(sp)
    # each pair twice: once filling the pattern cache, once reading it
    for _ in range(2):
        for a in operands:
            for b in operands[::4] + [const]:
                assert np.array_equal(sp.mul(a, b), full_table_mul(sp, a, b, full))
                assert np.array_equal(sp.mul(b, a), full_table_mul(sp, b, a, full))


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


def class_operands(rng, sp, count):
    """count operands, operand j nonzero on every monomial of classes 0 and
    j + 1 and zero elsewhere: each one has its own class pattern."""
    ops = []
    for j in range(count):
        c = random_coefficients(rng, sp.size, 0.0)
        c[~np.isin(sp._class, (0, j + 1))] = 0.0
        ops.append(c)
    return ops


def test_pattern_cache_is_bounded():
    sp = jet_space(3, 4, 1)
    rng = np.random.default_rng(5)
    b = random_coefficients(rng, sp.size, 0.5)
    for a in class_operands(rng, sp, PATTERN_CACHE_SIZE + 10):
        assert np.array_equal(sp.mul(a, b), full_table_mul(sp, a, b))
        assert len(sp._pairs) <= PATTERN_CACHE_SIZE


def test_pattern_cache_keeps_the_recently_used():
    # a pattern read again outlives those read before it
    sp = jet_space(3, 4, 1)
    sp._pairs.clear()
    rng = np.random.default_rng(6)
    b = random_coefficients(rng, sp.size, 0.5)
    ops = class_operands(rng, sp, PATTERN_CACHE_SIZE + 1)
    keys = [(sp._pattern(a).tobytes(), sp._pattern(b).tobytes()) for a in ops]
    assert len(set(keys)) == len(keys)
    for a in ops[:-1]:
        sp.mul(a, b)
    sp.mul(ops[0], b)
    sp.mul(ops[-1], b)
    assert keys[0] in sp._pairs and keys[1] not in sp._pairs
    assert len(sp._pairs) == PATTERN_CACHE_SIZE


def test_pattern_is_blind_to_zeros_within_a_class():
    # operands that differ only in which coefficients of a class vanish share
    # one restricted table, and the product over it is still exact
    sp = jet_space(3, 4, 1)
    sp._pairs.clear()
    rng = np.random.default_rng(7)
    b = random_coefficients(rng, sp.size, 0.0)
    ops = [random_coefficients(rng, sp.size, 0.3) for _ in range(8)]
    first = np.unique(sp._class, return_index=True)[1]  # one monomial of each class
    for a in ops:
        a[first] = 1.0
    assert len({a.astype(bool).tobytes() for a in ops}) == len(ops)
    for a in ops:
        assert np.array_equal(sp.mul(a, b), full_table_mul(sp, a, b))
    assert len(sp._pairs) == 1


@pytest.mark.parametrize("table", CATALOG_TABLES)
def test_tables_equal_the_pairwise_loop(table):
    # table order fixes the order of the product's sums, so its bits; a
    # capped table holds the monomials of total degree <= its cap
    sp = jet_space(*table)
    total = CAPPED.get(table, table[1] + table[2])
    assert sp.max_total == total
    for got, want in zip(full_table(sp), loop_tables(sp, total)):
        assert np.array_equal(got, want)
    # monomial order: fiber exponents, then base exponents, each lexicographic
    monomials = [tuple(m) for m in exponents(sp).tolist()]
    assert monomials == loop_monomials(sp.n, *table[1:], total)
    assert np.array_equal(sp.slots(exponents(sp)), np.arange(sp.size))
    n = sp.n
    for i, m in enumerate(monomials):
        swapped = m[n:2 * n] + m[:n] + m[3 * n:] + m[2 * n:3 * n]
        assert monomials[sp._conj_perm[i]] == swapped
        assert sp._factorial[i] == np.prod([math.factorial(e) for e in m])


@pytest.mark.parametrize("table", sorted(CAPPED))
def test_capped_table_is_the_uncapped_one_filtered(table, monkeypatch):
    # the capped table is the uncapped one restricted to the pairs whose
    # product is kept, in the same order: a kept coefficient sums the same
    # terms in the same order, so it has the same bits.  A block pair's
    # products all have one total degree, so each pair is kept whole or
    # dropped whole, and the two tables are compared block pair by block
    # pair, in bounded memory: the uncapped (3, 6, 3) table has 8.4 million
    # pairs and the uncapped (3, 7, 4) one 92 million, which once held whole
    # made this test peak at 1.16 GB
    capped = jet_space(*table)
    monkeypatch.delitem(jets.TOTAL_DEGREE_CAP, table[1:])
    full = JetSpace(*table)
    slot = full.slots(exponents(capped))  # each capped monomial's uncapped slot
    kept = iter(capped._block_pairs)
    degree = exponents(full).sum(axis=1)
    for a, b in full._block_pairs:
        if degree[a[0]] + degree[b[0]] <= capped.max_total:
            for got, want in zip(capped._table([next(kept)]), full._table([(a, b)])):
                assert np.array_equal(slot[got], want)
    assert next(kept, None) is None
    # products, where the uncapped table is small enough to multiply over
    if sum(len(a) * len(b) for a, b in full._block_pairs) <= 10 ** 6:
        rng = np.random.default_rng(sum(table))
        for share in (0.0, 0.5, 0.9):
            a, b = (random_coefficients(rng, full.size, share) for _ in range(2))
            assert np.array_equal(capped.mul(a[slot], b[slot]), full.mul(a, b)[slot])


def test_capped_jet_reads_outside_the_cap_raise():
    sp = jet_space(2, 4, 1)
    f = sp.variable(V, 0, 0.4 + 0.2j).abs2() * sp.variable(Z, 1, 0.3)
    assert derivative(f, v=(0, 0), vbar=(1,), z=(0,)) == 0.0
    with pytest.raises(KeyError):
        derivative(f, v=(0, 0), vbar=(1, 1), z=(0,))
    with pytest.raises(KeyError):
        f.partials(3, 1, (Z,))


def test_second_base_derivatives_of_a_product():
    # F = v1 vbar1 z1^2 zbar2 at n = 2: d_z1 d_z1 d_v1 d_vbar1 F = 2 zbar2 and
    # d_zbar2 d_z1 d_v1 d_vbar1 F = 2 z1
    sp = jet_space(2, 2, 2)
    v1 = sp.variable(V, 0, 0.3 + 0.1j)
    z1 = sp.variable(Z, 0, 0.2 - 0.4j)
    z2 = sp.variable(Z, 1, -0.5 + 0.3j)
    f = v1.abs2() * z1 * z1 * z2.conj()
    zz, zbz = f.partials(1, 1, (Z, Z)), f.partials(1, 1, (ZBAR, Z))
    assert zz.shape == zbz.shape == (2, 2, 2, 2)
    assert zz[0, 0, 0, 0] == pytest.approx(2 * np.conj(-0.5 + 0.3j))
    assert zbz[1, 0, 0, 0] == pytest.approx(2 * (0.2 - 0.4j))
    assert zbz[0, 0, 0, 0] == 0
    assert zz[0, 0, 0, 0] == derivative(f, v=(0,), vbar=(0,), z=(0, 0))
