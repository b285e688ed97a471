"""Jets of base order 2 and 3 against exact Wirtinger derivatives from sympy.

Random rational and sqrt expressions are written twice, as metric text and
as a sympy expression in independent symbols for z, zbar, v and vbar.  The
evaluation point has dyadic coordinates, so the jet sees exactly the point
sympy differentiates at.
"""

import itertools

import numpy as np
import pytest

from finslerlab import MetricSource, parse_metric
from finslerlab.jets import V, VBAR, Z, ZBAR
from oracles import derivative

sp = pytest.importorskip("sympy")

REL_TOL = 1e-12


class Sym:
    """The Wirtinger symbols of dimension n and the conjugation that swaps them."""

    def __init__(self, n):
        self.n = n
        self.var = {(kind, k): sp.Symbol(("v", "vb", "z", "zb")[kind] + str(k + 1))
                    for kind in (V, VBAR, Z, ZBAR) for k in range(n)}
        partner = {V: VBAR, VBAR: V, Z: ZBAR, ZBAR: Z}
        self.swap = {self.var[kind, k]: self.var[partner[kind], k] for kind, k in self.var}

    def conj(self, e):
        # every constant is real, so conjugation only swaps the symbols
        return e.xreplace(self.swap)


def random_leaf(rng, S: Sym, plain_kind):
    """(metric text, sympy expression) of a z or v variable, maybe conjugated."""
    k = int(rng.integers(S.n))
    name = ("v", "v", "z", "z")[plain_kind] + str(k + 1)
    plain = S.var[plain_kind, k]
    if rng.integers(2):
        return f"conj({name})", S.conj(plain)
    return name, plain


def random_mixed(rng, S: Sym):
    """A random sum or product of one fiber and one base variable."""
    a_txt, a = random_leaf(rng, S, V)
    b_txt, b = random_leaf(rng, S, Z)
    if rng.integers(2):
        c = sp.Rational(int(rng.integers(1, 8)), 4)
        return f"({a_txt} + {float(c)!r}*{b_txt})", a + c * b
    return f"({a_txt}*{b_txt})", a * b


def random_expression(rng, S: Sym):
    """(metric text, sympy expression): a random rational term plus a random
    square-root term; each denominator is bounded away from zero and each
    square root has a positive real argument."""
    p = [random_mixed(rng, S) for _ in range(5)]
    c1, c2 = (sp.Rational(int(rng.integers(1, 8)), 4) for _ in range(2))
    text = (f"{p[0][0]}/({float(c1)!r} + abs2({p[1][0]}))"
            f" + sqrt({float(c2)!r} + abs2({p[2][0]}) + abs2({p[3][0]}))*{p[4][0]}")

    def abs2(e):
        return e * S.conj(e)

    expr = (p[0][1] / (c1 + abs2(p[1][1]))
            + sp.sqrt(c2 + abs2(p[2][1]) + abs2(p[3][1])) * p[4][1])
    return text, expr


def dyadic(rng, size):
    # coordinates that are exact in binary
    return rng.integers(-6, 7, size) / 16 + 1j * rng.integers(-6, 7, size) / 16


def multi_indices(n, fiber_order, base_order):
    """Every exponent vector (v, vbar, z, zbar blocks) within the truncation."""
    for e in itertools.product(range(max(fiber_order, base_order) + 1), repeat=4 * n):
        if sum(e[:2 * n]) <= fiber_order and sum(e[2 * n:]) <= base_order:
            yield e


class Exact:
    """Exact mixed partials of expr, each differentiated once from a cached
    lower one, evaluated to 30 digits at the point."""

    def __init__(self, S: Sym, expr, point):
        self.syms = [S.var[kind, k] for kind in (V, VBAR, Z, ZBAR) for k in range(S.n)]
        self.point = point
        self._memo = {(0,) * len(self.syms): expr}

    def expression(self, e):
        hit = self._memo.get(e)
        if hit is None:
            i = next(i for i, x in enumerate(e) if x)
            lower = self.expression(e[:i] + (e[i] - 1,) + e[i + 1:])
            self._memo[e] = hit = sp.diff(lower, self.syms[i])
        return hit

    def __call__(self, e):
        return complex(sp.N(self.expression(tuple(e)).xreplace(self.point), 30))


def case(seed, n):
    rng = np.random.default_rng(seed)
    S = Sym(n)
    text, expr = random_expression(rng, S)
    z, v = dyadic(rng, n), dyadic(rng, n)
    v[0] = 0.5 + 0.25j  # v = 0 is outside every jet's domain
    point = {}
    for k in range(n):
        for kind, x in ((Z, z[k]), (V, v[k])):
            val = sp.Rational(int(x.real * 16), 16) + sp.I * sp.Rational(int(x.imag * 16), 16)
            point[S.var[kind, k]] = val
            point[S.var[kind + 1, k]] = sp.conjugate(val)
    return S, text, expr, z, v, point


def close(got, want):
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def jet_derivative(jet, e, n):
    """The jet's mixed partial with exponent vector e."""
    idx = [tuple(k for k in range(n) for _ in range(e[kind * n + k]))
           for kind in (V, VBAR, Z, ZBAR)]
    return derivative(jet, v=idx[0], vbar=idx[1], z=idx[2], zbar=idx[3])


def sampled(n, fiber_order, count, rng, base_order=2):
    """count exponent vectors drawn from the jet(fiber_order, base_order)
    table; sympy's differentiation is too slow for all of every table."""
    every = list(multi_indices(n, fiber_order, base_order))
    return [every[i] for i in rng.choice(len(every), min(count, len(every)), replace=False)]


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 100), (2, 101)])
def test_base_order_2_jet_matches_sympy(n, seed):
    S, text, expr, z, v, point = case(seed, n)
    prog = parse_metric(MetricSource(n, text))
    exact = Exact(S, expr, point)
    rng = np.random.default_rng(seed)
    for fiber_order in (4, 2):
        jet = prog.jet_unchecked(z, v, fiber_order, 2)
        for e in sampled(n, fiber_order, 20, rng):
            got, want = jet_derivative(jet, e, n), exact(e)
            assert close(got, want), (text, fiber_order, e, got, want)


def test_second_base_accessor_matches_sympy():
    # partials(1, 1, (Z, Z))[l, k, i, j] = d_z_l d_z_k d_v_i d_vbar_j F^2,
    # and (ZBAR, Z) has d_zbar_l in place of d_z_l
    n = 2
    S, text, expr, z, v, point = case(200, n)
    prog = parse_metric(MetricSource(n, text))
    exact = Exact(S, expr, point)
    jet = prog.jet_unchecked(z, v, 2, 2)
    zz, zbz = jet.partials(1, 1, (Z, Z)), jet.partials(1, 1, (ZBAR, Z))
    assert zz.shape == zbz.shape == (n,) * 4
    for l, k, i, j in itertools.product(range(n), repeat=4):
        for kind, got in ((Z, zz), (ZBAR, zbz)):
            e = [0] * (4 * n)
            for slot in (kind * n + l, Z * n + k, V * n + i, VBAR * n + j):
                e[slot] += 1
            assert close(got[l, k, i, j], exact(e)), (text, kind, l, k, i, j)


def test_base_order_3_jet_matches_sympy():
    n, seed = 1, 300
    S, text, expr, z, v, point = case(seed, n)
    prog = parse_metric(MetricSource(n, text))
    exact = Exact(S, expr, point)
    jet = prog.jet_unchecked(z, v, 2, 3)
    samples = sampled(n, 2, 20, np.random.default_rng(seed), base_order=3)
    assert any(sum(e[2 * n:]) == 3 for e in samples)
    for e in samples:
        got, want = jet_derivative(jet, e, n), exact(e)
        assert close(got, want), (text, e, got, want)


@pytest.mark.parametrize("orders, pq, kinds", [
    # the three base slots of d_z (1, 1) that the connection's second derivative reads
    ((2, 3), (1, 1), (Z, Z, Z)), ((2, 3), (1, 1), (ZBAR, Z, Z)),
    ((2, 3), (1, 1), (ZBAR, ZBAR, Z)),
    # and mixed fiber and base slots, read from a jet(5, 2)
    ((5, 2), (2, 1), (V, ZBAR)), ((5, 2), (2, 0), (VBAR, V)), ((5, 2), (1, 1), (Z, VBAR, Z)),
])
def test_partials_match_sympy(orders, pq, kinds):
    # partials(p, q, kinds)[k_1, .., i_1, .., j_1, ..] = d_kinds d^p_v d^q_vbar F^2
    n = 1
    S, text, expr, z, v, point = case(301, n)
    prog = parse_metric(MetricSource(n, text))
    exact = Exact(S, expr, point)
    got = prog.jet_unchecked(z, v, *orders).partials(*pq, kinds)
    assert got.shape == (n,) * (len(kinds) + sum(pq))
    e = [0] * (4 * n)
    for kind in kinds + (V,) * pq[0] + (VBAR,) * pq[1]:
        e[kind * n] += 1
    assert close(got.flat[0], exact(e)), (text, kinds, got.flat[0], exact(e))
