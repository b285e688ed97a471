"""Truncated multivariate jet arithmetic for mixed Wirtinger derivatives.

A jet tracks the Taylor coefficients of a complex-valued expression in the
formal infinitesimals attached to the fiber variables v_1..v_n, their
conjugates, the base variables z_1..z_n and their conjugates.  Conjugate
variables are independent differentiation directions (Wirtinger calculus);
``conj`` acts on a jet by swapping each variable with its conjugate partner
and conjugating the coefficients.

Truncation is by *fiber* total degree and *base* total degree separately,
which keeps the tables small: fiber order never exceeds 7 in this package,
and base order never exceeds 5.  The order-k derivatives of the connection
read a jet(k + 3, k), and the base derivatives of the (1, 1) tensor one
order higher from a jet(2, k + 1), for k = 1 to 4; every other jet has
base order 0 or 1.

The jets(k + 3, k) are also truncated by *total* degree k + 3, as in a
truncated power-series algebra (Berz 1999, ch. 2), because no reader needs
more (TOTAL_DEGREE_CAP): that covers the (2, 1) tensor and the
base-differentiated (1, 1) tensor with k more derivatives of any kind, and
for k = 1 C(2, 2) and the base derivatives of the (2, 1) and (1, 2)
tensors.  A product's coefficient at a kept monomial sums only pairs of
kept monomials, in the same table order as without the cap, so every
value read off a capped jet is bit for bit the uncapped one; the series of
inv and sqrt stop at the cap, where their further powers vanish.

MetricProgram.jet_unchecked seeds the leaves in a frame U: z = z_0 + U zeta
and v = U (e_0 + xi) at v_0 = U e_0, with zeta, xi the Z and V variables;
the conjugate leaves follow from Jet.conj.  A partial along xi_a or zeta_a
is the coordinate partial along the frame vector U e_a, so the fiber
tensors are the frame forms, with no contraction.  U = I seeds value + x_k,
the coordinate jet, with the same coefficients bit for bit: the coordinate
jets (Levi check, homogeneity identities, Gram jet) share the code path.

On the larger tables the product of finite operands visits only the pairs
of the multiplication table whose two monomials lie in classes where the
operands hold a nonzero, in the table's own order; a monomial's class is
its degree in each variable kind.  Every skipped term is an exact zero,
every extra term visited is one too, and the terms are summed in the same
order as over the full table, so the product, and every report built on
it, is bit-for-bit what the full-table product gives.  These restricted
tables are built from the pairs of degree blocks the full table is made
of, and the full table itself is never held.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

# variable kinds, in the order their exponent blocks appear in a monomial
V, VBAR, Z, ZBAR = 0, 1, 2, 3

# (fiber order, base order) -> the total degree a table of those orders
# keeps; any other table keeps fiber order + base order, every monomial.
TOTAL_DEGREE_CAP = {(7, 4): 7, (6, 3): 6, (5, 2): 5, (4, 1): 4}

# Tables with fewer product pairs than this multiply over the whole table:
# there, looking up the operands' class pattern costs more than the
# skipped pairs save.  On operands recorded from reports, restricting lost
# 1-3 us per product on the tables under 200 pairs, nothing on (1, 4, 1)
# with 350 (9.4 us either way), and won from 1,287 pairs on: (2, 5, 0)
# went from 16 us to 11 us.  No table the package uses lies in between.
SPARSE_MIN_PAIRS = 1000
# class patterns whose restricted tables one JetSpace keeps, least
# recently used first out.  A pattern records which monomial classes hold a
# nonzero, so the round-off zeros of frame-seeded jets, which differ from
# point to point, do not make a new pattern: over 40 reports of
# `structure` at n = 3, each table met 9-11 patterns.
PATTERN_CACHE_SIZE = 16


def _monomials(nvars: int, max_deg: int) -> np.ndarray:
    """All exponent rows over `nvars` variables with total degree <= max_deg,
    in lexicographic order (the first variable most significant), built one
    variable at a time from the last, so nothing beyond the rows is held."""
    rows = np.zeros((1, 0), dtype=np.intp)
    for _ in range(nvars):
        deg = rows.sum(axis=1)
        tails = [rows[deg <= max_deg - e] for e in range(max_deg + 1)]
        rows = np.hstack([np.repeat(np.arange(max_deg + 1), [len(t) for t in tails])[:, None],
                          np.vstack(tails)])
    return rows


class JetSpace:
    """Monomial tables for jets in dimension n at given truncation orders."""

    def __init__(self, n: int, fiber_order: int, base_order: int):
        self.n = n
        self.fiber_order = fiber_order
        self.base_order = base_order
        self.max_total = TOTAL_DEGREE_CAP.get((fiber_order, base_order),
                                              fiber_order + base_order)

        # every fiber monomial times every base monomial whose total degree
        # is kept, fiber part first
        fib = _monomials(2 * n, fiber_order)
        base = _monomials(2 * n, base_order)
        fi, bi = np.nonzero(fib.sum(axis=1)[:, None] + base.sum(axis=1) <= self.max_total)
        mono = np.hstack([fib[fi], base[bi]])
        self.size = len(mono)
        # a monomial's code: its exponents as the digits of one integer, so the
        # code of a product is the sum of the codes (no exponent exceeds max_total)
        self._radix = (self.max_total + 1) ** np.arange(4 * n - 1, -1, -1)
        self._code = mono @ self._radix
        self._by_code = np.argsort(self._code)

        # the multiplication table as pairs of index blocks: the blocks of
        # monomials of one (fiber, base) degree in order of first appearance,
        # every pair of blocks whose product is kept; _table spells the pairs
        # out as flat gather/scatter index arrays, each pair row by row
        fib_deg = mono[:, :2 * n].sum(axis=1)
        base_deg = mono[:, 2 * n:].sum(axis=1)
        deg = fib_deg * (base_order + 1) + base_deg
        blocks = [np.flatnonzero(deg == d) for d in dict.fromkeys(deg.tolist())]
        self._block_pairs = []
        for a in blocks:
            for b in blocks:
                f, s = fib_deg[a[0]] + fib_deg[b[0]], base_deg[a[0]] + base_deg[b[0]]
                if f <= fiber_order and s <= base_order and f + s <= self.max_total:
                    self._block_pairs.append((a, b))
        self._sparse = sum(len(a) * len(b) for a, b in self._block_pairs) >= SPARSE_MIN_PAIRS
        # a sparse table's products run over restricted tables, built from
        # the block pairs, so its full table is never held
        self._full = None if self._sparse else self._table(self._block_pairs)
        # each monomial's class, its degree in each kind V, VBAR, Z, ZBAR;
        # a class lies within one block
        kind_deg = mono.reshape(-1, 4, n).sum(axis=2)
        _, self._class = np.unique(kind_deg @ self._radix[-4:], return_inverse=True)
        self._classes = int(self._class.max()) + 1
        # (class pattern of a, of b) -> the table's pairs that both cover
        self._pairs: dict = {}

        # conjugation permutation: swap v<->vbar and z<->zbar blocks
        swap = np.arange(4 * n).reshape(4, n)[[VBAR, V, ZBAR, Z]].ravel()
        self._conj_perm = self._lookup(mono[:, swap] @ self._radix)

        factorials = np.array([math.factorial(k) for k in range(self.max_total + 1)])
        self._factorial = np.prod(factorials[mono], axis=1).astype(float)
        self._tensor_tables: dict = {}
        # first-order slots for seeding variables, per kind whose table has them
        unit = np.eye(4 * n, dtype=int)
        self._linear_slots = {kind: self.slots(unit[kind * n:(kind + 1) * n])
                              for kind in (V, VBAR, Z, ZBAR)
                              if (base_order if kind in (Z, ZBAR) else fiber_order)}

    def _table(self, block_pairs) -> tuple:
        """(m1, m2, mo): the pairs of monomials of each pair of index blocks,
        row by row, block pair after block pair, and their products' slots."""
        m1 = np.concatenate([np.repeat(a, len(b)) for a, b in block_pairs])
        m2 = np.concatenate([np.tile(b, len(a)) for a, b in block_pairs])
        return m1, m2, self._lookup(self._code[m1] + self._code[m2])

    def _lookup(self, codes: np.ndarray) -> np.ndarray:
        """The slots of monomials with these codes, which the table holds."""
        return self._by_code[np.searchsorted(self._code, codes, sorter=self._by_code)]

    def slots(self, exponents) -> np.ndarray:
        """The slots of exponent rows (shape (..., 4 n), kinds in the order
        V, VBAR, Z, ZBAR); KeyError if the table lacks one of them."""
        exponents = np.asarray(exponents)
        codes = exponents @ self._radix
        pos = np.searchsorted(self._code, codes, sorter=self._by_code)
        slot = self._by_code[np.minimum(pos, self.size - 1)]
        if exponents.size and exponents.max() > self.max_total \
                or not np.array_equal(self._code[slot], codes):
            raise KeyError("monomial outside the jet truncation")
        return slot

    # -- constructors -------------------------------------------------------

    def const(self, value: complex) -> "Jet":
        c = np.zeros(self.size, dtype=complex)
        c[0] = value
        return Jet(self, c)

    def variable(self, kind: int, k: int, value: complex, frame=None) -> "Jet":
        """Variable k of a kind (V or Z): value + sum_j frame[k, j] x_j, with
        x the infinitesimals of that kind.  frame defaults to the identity,
        which seeds the coordinate jet, value + x_k."""
        c = np.zeros(self.size, dtype=complex)
        c[0] = value
        slots = self._linear_slots.get(kind)
        if slots is not None:
            c[slots] = np.eye(self.n)[k] if frame is None else frame[k]
        return Jet(self, c)

    # -- arithmetic kernels --------------------------------------------------

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size, dtype=complex)
        # A non-finite coefficient times a zero is nan, not a skippable zero.
        # An inf or nan in either operand makes the dot product non-finite
        # (so does overflow, which only costs the full table).
        if not self._sparse:
            m1, m2, mo = self._full
        elif cmath.isfinite(a.dot(b)):
            m1, m2, mo = self._class_pairs(self._pattern(a), self._pattern(b))
        else:
            m1, m2, mo = self._table(self._block_pairs)
        np.add.at(out, mo, a[m1] * b[m2])
        return out

    def _pattern(self, c: np.ndarray) -> np.ndarray:
        """Which monomial classes hold a nonzero coefficient of c."""
        hit = np.zeros(self._classes, dtype=bool)
        hit[self._class[c.astype(bool)]] = True
        return hit

    def _class_pairs(self, pa: np.ndarray, pb: np.ndarray):
        """The table's pairs (in table order) whose first monomial lies in a
        class of pattern pa and whose second lies in one of pb: a superset
        of the pairs with both coefficients nonzero."""
        key = (pa.tobytes(), pb.tobytes())
        hit = self._pairs.pop(key, None)  # reinserted last: the cache is least recently used
        if hit is None:
            # the table restricted to a product of classes is, block pair by
            # block pair, the product of the blocks restricted
            cls = self._class
            hit = self._table([(a[pa[cls[a]]], b[pb[cls[b]]]) for a, b in self._block_pairs])
            if len(self._pairs) >= PATTERN_CACHE_SIZE:
                del self._pairs[next(iter(self._pairs))]
        self._pairs[key] = hit
        return hit

    def tensor_table(self, p: int, q: int, base: tuple = ()):
        """Gather indices and factorial weights for a (p, q) fiber tensor.

        Each kind in ``base`` (V, VBAR, Z or ZBAR) adds a leading index: the
        table covers the derivatives of the tensor along those variables,
        the first kind's index outermost.
        """
        key = (p, q, base)
        hit = self._tensor_tables.get(key)
        if hit is not None:
            return hit
        n = self.n
        shape = (n,) * (len(base) + p + q)
        rows = np.arange(n ** len(shape))
        idx = np.indices(shape).reshape(len(shape), len(rows))  # one column per tensor entry
        e = np.zeros((len(rows), 4 * n), dtype=np.intp)
        for s, kind in enumerate(base + (V,) * p + (VBAR,) * q):
            e[rows, kind * n + idx[s]] += 1
        pos = self.slots(e).reshape(shape)
        table = (pos, self._factorial[pos])
        self._tensor_tables[key] = table
        return table

    def compose_series(self, g: np.ndarray, coeffs) -> np.ndarray:
        """Evaluate sum_k coeffs[k] * ghat^k where ghat = g - g[0]."""
        ghat = g.copy()
        ghat[0] = 0.0
        out = np.zeros(self.size, dtype=complex)
        out[0] = coeffs[0]
        power = None
        for k in range(1, len(coeffs)):
            power = ghat if power is None else self.mul(power, ghat)
            if not power.any():
                break
            out = out + coeffs[k] * power
        return out


@lru_cache(maxsize=64)
def jet_space(n: int, fiber_order: int, base_order: int) -> JetSpace:
    return JetSpace(n, fiber_order, base_order)


class JetError(ArithmeticError):
    """Raised when jet arithmetic hits a non-smooth or singular point."""


class Jet:
    """A truncated Taylor expansion with complex coefficients."""

    __slots__ = ("space", "c")

    def __init__(self, space: JetSpace, c: np.ndarray):
        self.space = space
        self.c = c

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        return self.space.const(complex(other))

    def __add__(self, other):
        other = self._coerce(other)
        return Jet(self.space, self.c + other.c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __sub__(self, other):
        other = self._coerce(other)
        return Jet(self.space, self.c - other.c)

    def __mul__(self, other):
        other = self._coerce(other)
        return Jet(self.space, self.space.mul(self.c, other.c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inv()

    def inv(self) -> "Jet":
        g0 = self.c[0]
        if abs(g0) < 1e-300:
            raise JetError("division by an expression vanishing at the evaluation point")
        K = self.space.max_total
        coeffs = [(-1) ** k / g0 ** (k + 1) for k in range(K + 1)]
        return Jet(self.space, self.space.compose_series(self.c, coeffs))

    def pow_int(self, p: int) -> "Jet":
        if p < 0:
            return self.inv().pow_int(-p)
        result = self.space.const(1.0)
        base = self
        while p:
            if p & 1:
                result = result * base
            base = base * base if p > 1 else base
            p >>= 1
        return result

    def conj(self) -> "Jet":
        return Jet(self.space, np.conj(self.c[self.space._conj_perm]))

    def real(self) -> "Jet":
        return Jet(self.space, 0.5 * (self.c + np.conj(self.c[self.space._conj_perm])))

    def imag(self) -> "Jet":
        return Jet(self.space, -0.5j * (self.c - np.conj(self.c[self.space._conj_perm])))

    def abs2(self) -> "Jet":
        return self * self.conj()

    def sqrt(self) -> "Jet":
        g0 = self.c[0]
        if abs(g0) < 1e-300:
            raise JetError("sqrt at a zero of its argument (non-smooth point)")
        K = self.space.max_total
        s = np.sqrt(complex(g0))
        coeffs = []
        binom = 1.0
        for k in range(K + 1):
            coeffs.append(binom * s / g0 ** k)
            binom *= (0.5 - k) / (k + 1)
        return Jet(self.space, self.space.compose_series(self.c, coeffs))

    # -- extraction ----------------------------------------------------------

    @property
    def value(self) -> complex:
        return complex(self.c[0])

    def fiber_tensor(self, p: int, q: int) -> np.ndarray:
        """Tensor of partials d^p_v d^q_vbar, shape (n,)*(p+q), v-slots first."""
        return self.partials(p, q)

    def partials(self, p: int, q: int, kinds: tuple = ()) -> np.ndarray:
        """The (p, q) fiber tensor differentiated once along each variable
        kind in ``kinds`` (V, VBAR, Z or ZBAR), one leading axis per kind,
        the first kind's axis outermost: shape (n,) * (len(kinds) + p + q).
        (Z, Z, Z) needs base order 3, (V, V) fiber order p + q + 2."""
        pos, fact = self.space.tensor_table(p, q, kinds)
        return self.c[pos] * fact
