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
the conjugate leaves follow from JetSpace.conj.  A partial along xi_a or zeta_a
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

At the small orders a jet evaluation costs its count of numpy calls, not
its arithmetic, so the kernels run on coefficient arrays, with no jet
object per operation, and make no call that their result does not need;
dropping one changes no bit.  |x|^2 is one product, mul(c, c, conj=True),
with the conjugation folded into the product's gather; a power by squaring
starts from the base at the exponent's lowest set bit, not from a product
by the constant 1; the series of inv and sqrt end at the last power of
ghat that can be nonzero (with no v leaf ghat^k has base degree >= k, with
no z leaf fiber degree >= k), or earlier at the first that vanishes, and
evaluate their coefficients only for the terms they add; and a jet that
reads no variable of its table is a constant, run on two values
(Constant), not on the table.
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


class Arithmetic:
    """The kernels a jet and a constant share, on coefficient arrays.  Every
    product goes through self.mul, looked up at each call, so a wrapper of
    JetSpace.mul sees them all."""

    def real(self, c: np.ndarray) -> np.ndarray:
        return 0.5 * (c + self.conj(c))

    def imag(self, c: np.ndarray) -> np.ndarray:
        return -0.5j * (c - self.conj(c))

    def pow_int(self, c: np.ndarray, p: int) -> np.ndarray:
        """c^p for p >= 1 by squaring, from the base at p's lowest set bit,
        with no product by the constant 1."""
        base = c
        while not p & 1:
            base = self.mul(base, base)
            p >>= 1
        result = base
        while p > 1:
            base = self.mul(base, base)
            p >>= 1
            if p & 1:
                result = self.mul(result, base)
        # The product by 1 that this skips turned each -0.0 coefficient into
        # +0.0, as + 0.0 does; a product's sums start at +0.0 and hold none.
        return c + 0.0 if result is c else result

    def inv(self, g: np.ndarray, terms: int) -> np.ndarray:
        g0 = g[0]
        if abs(g0) < 1e-300:
            raise JetError("division by an expression vanishing at the evaluation point")
        return self.compose_series(g, lambda k: (-1) ** k / g0 ** (k + 1), terms)

    def sqrt(self, g: np.ndarray, terms: int) -> np.ndarray:
        g0 = g[0]
        if abs(g0) < 1e-300:
            raise JetError("sqrt at a zero of its argument (non-smooth point)")
        s = np.sqrt(complex(g0))
        coeffs = []
        binom = 1.0
        for k in range(terms + 1):
            coeffs.append(binom * s / g0 ** k)
            binom *= (0.5 - k) / (k + 1)
        return self.compose_series(g, coeffs.__getitem__, terms)

    def compose_series(self, g: np.ndarray, coeff, terms: int) -> np.ndarray:
        """Evaluate sum_k coeff(k) * ghat^k, k <= terms, where ghat = g -
        g[0].  The sum stops early at the first power of ghat that
        vanishes, and coeff is called only for the terms it adds."""
        ghat = g.copy()
        ghat[0] = 0.0
        out = np.zeros(len(g), dtype=complex)
        out[0] = coeff(0)
        power = None
        for k in range(1, terms + 1):
            power = ghat if power is None else self.mul(power, ghat)
            if not np.count_nonzero(power):
                break
            out = out + coeff(k) * power
        return out


class JetSpace(Arithmetic):
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
        # a dense table's pairs with the second factor read off the conjugate
        self._full_conj = None if self._sparse else \
            (self._full[0], self._conj_perm[self._full[1]], self._full[2])

        factorials = np.array([math.factorial(k) for k in range(self.max_total + 1)])
        self._factorial = np.prod(factorials[mono], axis=1).astype(float)
        self._tensor_tables: dict = {}
        # first-order slots for seeding variables, per kind whose table has them
        unit = np.eye(4 * n, dtype=int)
        self._linear_slots = {kind: self.slots(unit[kind * n:(kind + 1) * n])
                              for kind in (V, VBAR, Z, ZBAR)
                              if (base_order if kind in (Z, ZBAR) else fiber_order)}

        # the kinds of variable the table expands in, as bits 1 << V, 1 << Z
        self.live = (fiber_order > 0) << V | (base_order > 0) << Z
        # the arithmetic of the jets that read none of them (Constant)
        self.constant = Constant()
        self._spread = np.minimum(np.arange(self.size), 1)
        self._zeros = np.zeros(self.size, dtype=complex)
        # the last power of ghat that a series adds, by the live kinds its
        # operand reads: with no v, ghat^k has base degree >= k, and with no
        # z, fiber degree >= k; a constant's ghat is 0
        K = self.max_total
        self.series_terms = {0: 0, 1 << V: min(K, fiber_order), 1 << Z: min(K, base_order),
                             1 << V | 1 << Z: K}

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

    # -- seeds ----------------------------------------------------------------

    def seed(self, kind: int, k: int, value: complex, frame=None) -> np.ndarray:
        """Variable k of a kind (V or Z) that the table expands in: value +
        sum_j frame[k, j] x_j, with x the infinitesimals of that kind.
        frame defaults to the identity, which seeds the coordinate jet,
        value + x_k."""
        c = np.zeros(self.size, dtype=complex)
        c[0] = value
        if frame is None:
            c[self._linear_slots[kind][k]] = 1.0
        else:
            c[self._linear_slots[kind]] = frame[k]
        return c

    def spread(self, c: np.ndarray) -> np.ndarray:
        """A constant's two values (see Constant) over the whole table."""
        return c[self._spread]

    def finite(self, c: np.ndarray) -> bool:
        """Whether every coefficient is finite, in one call: each term of
        c . 0 is a signed zero unless its coefficient is inf or nan, and
        then it is nan, and so is the sum."""
        return not cmath.isnan(c.dot(self._zeros))

    # -- arithmetic kernels --------------------------------------------------

    def conj(self, c: np.ndarray) -> np.ndarray:
        """Each variable swapped with its conjugate partner, and the
        coefficients conjugated."""
        return np.conj(c[self._conj_perm])

    def mul(self, a: np.ndarray, b: np.ndarray, conj: bool = False) -> np.ndarray:
        """The coefficients of a * b, or with conj of a * conj(b), so that
        |x|^2 is one product.  The conjugate jet holds conj(b[_conj_perm[m]])
        at slot m; a dense table folds the permutation into its gather (the
        table _full_conj), a sparse one permutes b before it looks up the
        operands' patterns.  Either way each slot sums the same terms in the
        same order as the product by the conjugate jet, bit for bit."""
        out = np.zeros(self.size, dtype=complex)
        if conj:
            b = np.conj(b) if not self._sparse else np.conj(b[self._conj_perm])
        # A non-finite coefficient times a zero is nan, not a skippable zero.
        # An inf or nan in either operand makes the dot product non-finite
        # (so does overflow, which only costs the full table).
        if not self._sparse:
            m1, m2, mo = self._full_conj if conj else self._full
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


class Constant(Arithmetic):
    """The arithmetic of a jet that reads no variable its table expands in,
    such as a subexpression of z alone at base order 0.  Such a jet holds
    one value at slot 0 and one at every other slot, a signed zero, so it is
    run on those two, c = (c_0, c_rest), and JetSpace.spread lays it over
    the table where it meets a jet.  Each kernel gives at both slots the
    bits the same kernel gives over the table, and a series stops at once
    (JetSpace.series_terms).  Only where slot 0 is already non-finite
    (complex arithmetic on an inf leaves an inf or a nan in every result)
    can the table hold a nan elsewhere that c_rest does not."""

    @staticmethod
    def conj(c: np.ndarray) -> np.ndarray:
        return np.conj(c)

    @staticmethod
    def mul(a: np.ndarray, b: np.ndarray, conj: bool = False) -> np.ndarray:
        """JetSpace.mul on two constants: 0.0 + a_0 b_0, an array product
        as over the table (NumPy's scalar complex product rounds
        differently), and the other slots' sums of signed zeros, +0.0."""
        if conj:
            b = np.conj(b)
        return 0.0 + a * b


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
