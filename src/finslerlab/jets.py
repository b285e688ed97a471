"""Truncated multivariate jet arithmetic for mixed Wirtinger derivatives.

A jet tracks the Taylor coefficients of a complex-valued expression in the
formal infinitesimals attached to the fiber variables v_1..v_n, their
conjugates, the base variables z_1..z_n and their conjugates.  Conjugate
variables are independent differentiation directions (Wirtinger calculus);
``conj`` acts on a jet by swapping each variable with its conjugate partner
and conjugating the coefficients.

Truncation is by *fiber* total degree and *base* total degree separately,
which keeps the tables small (base order never exceeds 1 in this package,
fiber order never exceeds 5).

On the larger tables the product of finite operands visits only the pairs
of the multiplication table whose two coefficients are both nonzero, in the
table's own order.  Every skipped term is an exact zero and the remaining
terms are summed in the same order as over the full table, so the product,
and every report built on it, is bit-for-bit what the full-table product
gives.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

# variable kinds, in the order their exponent blocks appear in a monomial
V, VBAR, Z, ZBAR = 0, 1, 2, 3

# Tables with fewer product pairs than this multiply over the whole table:
# there, looking up the operands' nonzero pattern costs more than the
# skipped pairs save.  On operands recorded from reports, restricting lost
# 1-3 us per product on the tables under 200 pairs, nothing on (1, 4, 1)
# with 350 (9.4 us either way), and won from 1,287 pairs on: (2, 5, 0)
# went from 16 us to 11 us.  No table the package uses lies in between.
SPARSE_MIN_PAIRS = 1000
# nonzero-pattern pairs whose restricted tables one JetSpace keeps
PATTERN_CACHE_SIZE = 256


def _monomials(nvars: int, max_deg: int):
    """All exponent tuples over `nvars` variables with total degree <= max_deg."""
    out = [()]
    for _ in range(nvars):
        out = [m + (d,) for m in out for d in range(max_deg + 1)]
    return [m for m in out if sum(m) <= max_deg]


class JetSpace:
    """Monomial tables for jets in dimension n at given truncation orders."""

    def __init__(self, n: int, fiber_order: int, base_order: int):
        self.n = n
        self.fiber_order = fiber_order
        self.base_order = base_order
        self.max_total = fiber_order + base_order

        fib = _monomials(2 * n, fiber_order)
        base = _monomials(2 * n, base_order)
        self.monomials = [f + b for f in fib for b in base]
        self.size = len(self.monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}

        # multiplication table as flat gather/scatter index arrays
        fib_deg = [sum(m[: 2 * n]) for m in self.monomials]
        base_deg = [sum(m[2 * n:]) for m in self.monomials]
        by_deg: dict[tuple[int, int], list[int]] = {}
        for i, m in enumerate(self.monomials):
            by_deg.setdefault((fib_deg[i], base_deg[i]), []).append(i)
        i1, i2, iout = [], [], []
        for (f1, b1), idxs1 in by_deg.items():
            for (f2, b2), idxs2 in by_deg.items():
                if f1 + f2 > fiber_order or b1 + b2 > base_order:
                    continue
                for a in idxs1:
                    ma = self.monomials[a]
                    for b in idxs2:
                        mb = self.monomials[b]
                        mc = tuple(x + y for x, y in zip(ma, mb))
                        i1.append(a)
                        i2.append(b)
                        iout.append(self.index[mc])
        self._m1 = np.asarray(i1, dtype=np.intp)
        self._m2 = np.asarray(i2, dtype=np.intp)
        self._mo = np.asarray(iout, dtype=np.intp)
        self._sparse = len(iout) >= SPARSE_MIN_PAIRS
        # (nonzero pattern of a, of b) -> the table's pairs that both cover;
        # an entry depends on its key alone, so threads racing on a miss can
        # at worst build it twice
        self._pairs: dict = {}

        # conjugation permutation: swap v<->vbar and z<->zbar blocks
        perm = []
        for m in self.monomials:
            a, b, c, d = m[:n], m[n:2 * n], m[2 * n:3 * n], m[3 * n:]
            perm.append(self.index[b + a + d + c])
        self._conj_perm = np.asarray(perm, dtype=np.intp)

        self._factorial = np.array(
            [math.prod(math.factorial(e) for e in m) for m in self.monomials],
            dtype=float,
        )
        self._tensor_tables: dict = {}
        # first-order slots for seeding variables
        self._linear_slot = {}
        for kind in (V, VBAR, Z, ZBAR):
            for k in range(n):
                e = [0] * (4 * n)
                e[kind * n + k] = 1
                key = tuple(e)
                if key in self.index:
                    self._linear_slot[(kind, k)] = self.index[key]

    # -- constructors -------------------------------------------------------

    def const(self, value: complex) -> "Jet":
        c = np.zeros(self.size, dtype=complex)
        c[0] = value
        return Jet(self, c)

    def variable(self, kind: int, k: int, value: complex) -> "Jet":
        c = np.zeros(self.size, dtype=complex)
        c[0] = value
        slot = self._linear_slot.get((kind, k))
        if slot is not None:
            c[slot] = 1.0
        return Jet(self, c)

    # -- arithmetic kernels --------------------------------------------------

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size, dtype=complex)
        # A non-finite coefficient times a zero is nan, not a skippable zero.
        # An inf or nan in either operand makes the dot product non-finite
        # (so does overflow, which only costs the full table).
        if self._sparse and cmath.isfinite(a.dot(b)):
            m1, m2, mo = self._nonzero_pairs(a.astype(bool), b.astype(bool))
        else:
            m1, m2, mo = self._m1, self._m2, self._mo
        np.add.at(out, mo, a[m1] * b[m2])
        return out

    def _nonzero_pairs(self, nza: np.ndarray, nzb: np.ndarray):
        """The table's pairs (in table order) with both coefficients nonzero."""
        key = (nza.tobytes(), nzb.tobytes())
        hit = self._pairs.get(key)
        if hit is None:
            keep = np.flatnonzero(nza[self._m1] & nzb[self._m2])
            hit = (self._m1[keep], self._m2[keep], self._mo[keep])
            if len(self._pairs) >= PATTERN_CACHE_SIZE:
                self._pairs.clear()
            self._pairs[key] = hit
        return hit

    def tensor_table(self, p: int, q: int, base_kind: int | None = None):
        """Gather indices and factorial weights for a (p, q) fiber tensor.

        With ``base_kind`` (Z or ZBAR) the table covers the base-derivative
        tensor with a leading base index.
        """
        key = (p, q, base_kind)
        hit = self._tensor_tables.get(key)
        if hit is not None:
            return hit
        n = self.n
        shape = ((n,) if base_kind is not None else ()) + (n,) * (p + q)
        pos = np.empty(shape, dtype=np.intp)
        for idx in np.ndindex(shape):
            e = [0] * (4 * n)
            off = 0
            if base_kind is not None:
                e[base_kind * n + idx[0]] += 1
                off = 1
            for k in idx[off:off + p]:
                e[V * n + k] += 1
            for k in idx[off + p:]:
                e[VBAR * n + k] += 1
            pos[idx] = self.index[tuple(e)]
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
            if not np.any(power):
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

    def __rsub__(self, other):
        other = self._coerce(other)
        return Jet(self.space, other.c - self.c)

    def __mul__(self, other):
        other = self._coerce(other)
        return Jet(self.space, self.space.mul(self.c, other.c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other * self.inv()

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

    def derivative(self, v=(), vbar=(), z=(), zbar=()) -> complex:
        """Mixed partial d^|v|_v d^|vbar|_vbar d^|z|_z d^|zbar|_zbar at the point.

        Each argument lists variable indices with multiplicity, e.g.
        ``derivative(v=(0, 0), vbar=(1,))`` is d^3/dv1^2 dvbar2.
        """
        n = self.space.n
        e = [0] * (4 * n)
        for kind, idxs in ((V, v), (VBAR, vbar), (Z, z), (ZBAR, zbar)):
            for k in idxs:
                e[kind * n + k] += 1
        key = tuple(e)
        idx = self.space.index.get(key)
        if idx is None:
            raise KeyError(f"derivative order outside jet truncation: {key}")
        return complex(self.c[idx] * self.space._factorial[idx])

    def fiber_tensor(self, p: int, q: int) -> np.ndarray:
        """Tensor of partials d^p_v d^q_vbar, shape (n,)*(p+q), v-slots first."""
        pos, fact = self.space.tensor_table(p, q)
        return self.c[pos] * fact

    def fiber_tensor_dbase(self, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
        """Base-derivative tensors (d_z_k, d_zbar_k) of the (p, q) fiber tensor.

        Returns two arrays of shape (n,) + (n,)*(p+q); leading axis is k.
        """
        pos, fact = self.space.tensor_table(p, q, Z)
        posb, factb = self.space.tensor_table(p, q, ZBAR)
        return self.c[pos] * fact, self.c[posb] * factb
