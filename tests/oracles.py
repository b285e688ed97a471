"""Independent references that the library's faster code is checked against."""

import json
import operator
import re

import numpy as np

from finslerlab.connection import frame_data, frame_derivatives
from finslerlab.finsler_forms import form_derivative
from finslerlab.frame_bundle import (
    AmbientTangent,
    BundlePoint,
    adapted_frame,
    complexify,
    gram_derivative,
)
from finslerlab.geodesics import spray_coefficients
from finslerlab.jets import V, VBAR, Z, ZBAR, Jet, JetError, jet_space
from finslerlab.metric_dsl import EvaluationError, FinslerError
from finslerlab.parallelism import (
    HSC_NORMALIZATION,
    _bracket_table,
    _carry,
    _coframe,
    _complex_combination_matrix,
    _complex_lift_derivative,
    _complex_pairs,
    _generator_derivatives,
    _generators,
    _lift_derivative_of,
    _stack_layout,
    _sup,
    _varpi,
    extract_structure,
    structure_derivative,
)

KERNEL_REL_TOL = 1e-6  # singular values below this * sigma_max span the tangency kernel
# Steps of the complex differences along a curve in complex_geodesic_check.
# The curvature stencil uses its own, larger step: it divides twice by the
# step and would otherwise amplify the derivative roundoff.
CURVE_STEP = 1e-5
CURVATURE_STEP = 3e-3
RESIDUAL_STRIDE = 10  # path samples between the points geodesic_condition_residuals visits
HOMOGENEITY_SEED = 0  # seed of the six random directions of homogeneity_identities
# Relative step of the nested central differences along the fields that the
# exact derivatives replaced: signature tiers 1, 2 and 3 and the curvature's
# derivatives along the lifts, each once a central difference of the level
# below it.  (Tier 3 was last a difference of the exact tier 2 at 1e-6.)
NESTED_STEP = 1e-4


def frame_increments(U, dz, dU) -> tuple[np.ndarray, np.ndarray]:
    """The frame increments (U^-1 dz, U^-1 dU) of ambient tangents (dz, dU),
    one or a stack (leading axes on dz and dU alike)."""
    U = np.asarray(U, dtype=complex)
    return (np.linalg.solve(U, np.asarray(dz, dtype=complex)[..., None])[..., 0],
            np.linalg.solve(U, np.asarray(dU, dtype=complex)))


def unpack_real(vec: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(dz, dU) of a packed-real vector, or of each row of a stack of them."""
    dz = vec[..., :n] + 1j * vec[..., n:2 * n]
    dU = vec[..., 2 * n:2 * n + n * n] + 1j * vec[..., 2 * n + n * n:]
    return dz, dU.reshape(vec.shape[:-1] + (n, n))


def packed(dz: np.ndarray, dU: np.ndarray) -> np.ndarray:
    """Ambient tangents (dz, dU), any leading axes, as packed-real rows
    (pack_real of each)."""
    flat = dU.reshape(dz.shape[:-1] + (-1,))
    return np.concatenate([dz.real, dz.imag, flat.real, flat.imag], axis=-1)


def field_stack(fd, G=None) -> tuple[np.ndarray, np.ndarray]:
    """The parallelism fields at the point of fd as ambient tangents: (dz,
    P) with dz = U W and P = U G for the frame components W of
    parallelism._stack_layout and the generator stack G (passed in, or
    built here).  Real field j of labels_real is (dz[j], P[j])."""
    W = _stack_layout(fd.n)[1]
    return (np.matmul(fd.U, W[..., None])[..., 0],
            np.matmul(fd.U, _generators(fd) if G is None else G))


def field_derivatives(table) -> tuple[np.ndarray, np.ndarray]:
    """The frame increments (delta, A) of D[a, b] = D_a X_b, the derivative
    of field b along field a, leading axes (a, b), written out per
    direction: field b is U (w_b, G_b), so along field a, whose frame
    increments are (w_a, G_a), it moves by U (G_a w_b, G_a G_b + dG_b), dG
    the generator stack filled from the frame derivatives along the fields.
    The bracket table's br is the coordinates of D - D^T."""
    W, G = table.fields
    N, n = G.shape[:2]
    dG = _generator_derivatives(frame_derivatives(table.frame, (table.fields,)))
    delta = np.zeros((N, N, n), dtype=complex)
    delta[:, :2 * n] = np.matmul(G[:, None], W[:2 * n, :, None])[..., 0]
    return delta, np.matmul(G[:, None], G) + dG


def ambient_brackets(table) -> tuple[np.ndarray, np.ndarray]:
    """The brackets of a bracket table as ambient tangents (dz, dU) = U
    (delta, A) of their frame increments D - D^T (field_derivatives),
    leading axes (a, b)."""
    delta, A = (d - d.swapaxes(0, 1) for d in field_derivatives(table))
    U = table.frame.U
    return np.matmul(U, delta[..., None])[..., 0], np.matmul(U, A)


def complex_basis(table) -> np.ndarray:
    """The complexified basis fields as complexified ambient tangents (dz,
    dzbar, dU, dUbar), one per row: K applied to the real fields."""
    fd = table.frame
    return _complex_combination_matrix(fd.n) @ complexify(*field_stack(fd, table.fields[1]))


def pack_real(t: AmbientTangent) -> np.ndarray:
    return np.concatenate([t.dz.real, t.dz.imag, t.dU.real.ravel(), t.dU.imag.ravel()])


def central_difference(fn, x0, dx, h):
    """(fn(x0 + h dx) - fn(x0 - h dx)) / 2h; the caller chooses the step h."""
    return (fn(x0 + h * dx) - fn(x0 - h * dx)) / (2 * h)


def along(fn, z, U, x: np.ndarray, h: float):
    """Central difference of fn(z, U) along the packed-real ambient direction x."""
    n = len(z)
    return central_difference(lambda y: fn(*unpack_real(y, n)),
                              pack_real(AmbientTangent(z, U)), x, h)


def tangent_norm(dz, dU) -> float:
    """The Euclidean norm of the ambient tangent (dz, dU)."""
    return float(np.sqrt(np.sum(np.abs(dz) ** 2) + np.sum(np.abs(dU) ** 2)))


def full_table(space) -> tuple:
    """(m1, m2, mo): the whole multiplication table of a JetSpace, pair k
    adding c[m1[k]] * c'[m2[k]] to the product's slot mo[k], in the order
    the product sums them."""
    return space._table(space._block_pairs) if space._full is None else space._full


def power_from_one(jet, p: int):
    """jet^p for p >= 0 by squaring from the constant 1: each set bit of p,
    lowest first, multiplies its power of jet into a product that starts at
    const(1.0).  Its first product, by 1, turns each -0.0 coefficient into
    +0.0."""
    result, base = const(jet.space, 1.0), jet
    while p:
        if p & 1:
            result = result * base
        base = base * base if p > 1 else base
        p >>= 1
    return result


# -- the reference jet evaluator: one ArithJet per tape entry ------------------

def const(space, value: complex) -> "ArithJet":
    c = np.zeros(space.size, dtype=complex)
    c[0] = value
    return ArithJet(space, c)


def variable(space, kind: int, k: int, value: complex, frame=None) -> "ArithJet":
    """Variable k of a kind (V or Z): value + sum_j frame[k, j] x_j, with
    x the infinitesimals of that kind, or value alone where the table has
    no order of that kind.  frame defaults to the identity."""
    c = np.zeros(space.size, dtype=complex)
    c[0] = value
    slots = space._linear_slots.get(kind)
    if slots is not None:
        if frame is None:
            c[slots[k]] = 1.0
        else:
            c[slots] = frame[k]
    return ArithJet(space, c)


class ArithJet(Jet):
    """A jet with Python operators: the arithmetic MetricProgram.jet_unchecked
    once ran on one jet object per tape entry, every operand a whole table,
    the reference its coefficient kernels are checked against bit for bit."""

    __slots__ = ()

    def __add__(self, other):
        if not isinstance(other, Jet):  # a scalar, as a constant jet
            other = const(self.space, complex(other))
        return ArithJet(self.space, self.c + other.c)

    __radd__ = __add__

    def __neg__(self):
        return ArithJet(self.space, -self.c)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            other = const(self.space, complex(other))
        return ArithJet(self.space, self.c - other.c)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            other = const(self.space, complex(other))
        return ArithJet(self.space, self.space.mul(self.c, other.c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            other = const(self.space, complex(other))
        return self * other.inv()

    def inv(self) -> "ArithJet":
        g0 = self.c[0]
        if abs(g0) < 1e-300:
            raise JetError("division by an expression vanishing at the evaluation point")
        inv = [(-1) ** k / g0 ** (k + 1) for k in range(self.space.max_total + 1)]
        return ArithJet(self.space, series_from_list(self.space, self.c, inv))

    def pow_int(self, p: int) -> "ArithJet":
        """The p-th power by squaring, from the base at p's lowest set bit."""
        if p == 0:
            return const(self.space, 1.0)
        base = self
        while not p & 1:
            base = base * base
            p >>= 1
        result = base
        while p > 1:
            base = base * base
            p >>= 1
            if p & 1:
                result = result * base
        return ArithJet(self.space, self.c + 0.0) if result is self else result

    def conj(self) -> "ArithJet":
        return ArithJet(self.space, np.conj(self.c[self.space._conj_perm]))

    def real(self) -> "ArithJet":
        return ArithJet(self.space, 0.5 * (self.c + np.conj(self.c[self.space._conj_perm])))

    def imag(self) -> "ArithJet":
        return ArithJet(self.space, -0.5j * (self.c - np.conj(self.c[self.space._conj_perm])))

    def abs2(self) -> "ArithJet":
        return ArithJet(self.space, self.space.mul(self.c, self.c, conj=True))

    def sqrt(self) -> "ArithJet":
        g0 = self.c[0]
        if abs(g0) < 1e-300:
            raise JetError("sqrt at a zero of its argument (non-smooth point)")
        s = np.sqrt(complex(g0))
        coeffs = []
        binom = 1.0
        for k in range(self.space.max_total + 1):
            coeffs.append(binom * s / g0 ** k)
            binom *= (0.5 - k) / (k + 1)
        return ArithJet(self.space, series_from_list(self.space, self.c, coeffs))


# what each tape op does to an ArithJet
JET_OPS = {"neg": operator.neg, "+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "pow": ArithJet.pow_int, "conj": ArithJet.conj,
           "re": ArithJet.real, "im": ArithJet.imag, "abs2": ArithJet.abs2, "sqrt": ArithJet.sqrt}


def run_tape(prog, ops: dict, leaf):
    """F^2 by a plain loop over prog's tape, independent of its own
    evaluator: leaf(entry) for 'num' and 'var' entries, ops[op] of the
    operand values for the others, in tape order."""
    vals = []
    for entry in prog._tape:
        op = entry[0]
        if op == "num" or op == "var":
            vals.append(leaf(entry))
        elif op == "pow":
            vals.append(ops[op](vals[entry[1]], entry[2]))
        else:
            vals.append(ops[op](*(vals[j] for j in entry[1:])))
    return vals[-1]


def reference_jet(prog, z, v, fiber_order: int, base_order: int, frame=None) -> Jet:
    """prog.jet_unchecked as one ArithJet per tape entry, each leaf seeded
    over the whole table, with the same checks and messages."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if not v.any():
        raise EvaluationError("jets are undefined at v = 0 (homogeneous metrics are "
                              "non-smooth on the zero section)")
    space = jet_space(prog.dim, fiber_order, base_order)

    def leaf(entry):  # ('num', x) or ('var', kind, k)
        if entry[0] == "num":
            return const(space, entry[1])
        return variable(space, *entry[1:], (v if entry[1] == V else z)[entry[2]], frame)

    try:
        out = run_tape(prog, JET_OPS, leaf)
    except JetError as exc:
        raise EvaluationError(str(exc)) from exc
    if not np.isfinite(out.c).all():
        raise EvaluationError("jet coefficients are non-finite (pole of the expression)")
    return out


def series_from_list(space, g: np.ndarray, coeffs) -> np.ndarray:
    """sum_k coeffs[k] * ghat^k, ghat = g - g[0], from a list of every
    coefficient up to the table's total degree, stopping at the first power
    of ghat that vanishes."""
    ghat = g.copy()
    ghat[0] = 0.0
    out = np.zeros(space.size, dtype=complex)
    out[0] = coeffs[0]
    power = None
    for k in range(1, len(coeffs)):
        power = ghat if power is None else space.mul(power, ghat)
        if not power.any():
            break
        out = out + coeffs[k] * power
    return out


def exponents(space) -> np.ndarray:
    """The exponent rows of the monomials of a JetSpace, in table order:
    the digits of their codes."""
    return space._code[:, None] // space._radix % (space.max_total + 1)


def derivative(jet, v=(), vbar=(), z=(), zbar=()) -> complex:
    """The mixed partial d^|v|_v d^|vbar|_vbar d^|z|_z d^|zbar|_zbar of a jet
    at its point, one coefficient read by its exponents.

    Each argument lists variable indices with multiplicity, e.g.
    ``derivative(jet, v=(0, 0), vbar=(1,))`` is d^3/dv1^2 dvbar2.  KeyError
    outside the jet's truncation.
    """
    n = jet.space.n
    e = [0] * (4 * n)
    for kind, idxs in ((V, v), (VBAR, vbar), (Z, z), (ZBAR, zbar)):
        for k in idxs:
            e[kind * n + k] += 1
    try:
        idx = jet.space.slots(e)
    except KeyError:
        raise KeyError(f"derivative order outside jet truncation: {tuple(e)}") from None
    return complex(jet.c[idx] * jet.space._factorial[idx])


def frame_contract(t: np.ndarray, p: int, q: int, U: np.ndarray, kinds: tuple = ()) -> np.ndarray:
    """A coordinate tensor on the columns of U: the leading axes of the
    derivatives along kinds, then the p holomorphic slots, contracted with
    the columns of U (V, Z and holomorphic slots) or their conjugates (VBAR,
    ZBAR and conjugate slots).  What a jet seeded in the frame U reads with
    no contraction."""
    for M in [U if kind in (V, Z) else np.conj(U) for kind in kinds] + [U] * p \
            + [np.conj(U)] * q:
        t = np.tensordot(t, M, axes=(0, 0))
    return t


def contract(tensor: np.ndarray, unbarred, barred) -> complex:
    """Contract a (p, q) fiber tensor with vectors (barred ones conjugated)."""
    out = tensor
    for x in unbarred:
        out = np.tensordot(np.asarray(x, dtype=complex), out, axes=(0, 0))
    for y in barred:
        out = np.tensordot(np.conj(np.asarray(y, dtype=complex)), out, axes=(0, 0))
    return complex(out)


def nested(raw, xs) -> complex:
    """Nested derivative of F^2 along trivially extended real vectors.

    Each x in xs is the complex component vector of a real tangent vector;
    the value expands over holomorphic/antiholomorphic splittings.
    """
    k = len(xs)
    total = 0.0 + 0.0j
    for mask in range(1 << k):
        unb = [xs[i] for i in range(k) if mask >> i & 1]
        brd = [xs[i] for i in range(k) if not mask >> i & 1]
        total += contract(raw[(len(unb), len(brd))], unb, brd)
    return total


def homogeneity_identities(prog, z, v) -> dict:
    """The homogeneity identities on six random directions d_0..d_5 (seed
    HOMOGENEITY_SEED), one contraction per term.  With the nested
    derivative D(x_1..x_k) of F^2 along trivially extended real tangents,
    expanded over its holomorphic/antiholomorphic splits, the families are
    (a) dF^2(v) = F^2, and the radial and rotational derivatives of F^2;
    (b) degree: D(x_1..x_k, v) = (2 - k) D(x_1..x_k) for k <= 4;
    (c) rotation: sum_j D(.., i x_j, ..) + D(x_1..x_k, i v) = 0;
    (d) h(x, v) = 0 and h(x, vbar) = dF^2(x);
    (e) the cubic and quartic forms contracted with v, against lower forms;
    (b) and (c) relative to max(scale, |D(x_1..x_k)|), the rest to the
    scale max(1, |F^2|).  A second reference for
    finsler_forms.homogeneity_identities, which checks the Euler identities
    these families follow from."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    n = prog.dim
    rng = np.random.default_rng(HOMOGENEITY_SEED)
    directions = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(6)]
    raw = {}
    jet = prog.jet_unchecked(z, v, 5, 0)
    for p in range(6):
        for q in range(6 - p):
            raw[(p, q)] = jet.fiber_tensor(p, q)
    f2 = float(np.real(raw[(0, 0)]))
    scale = max(1.0, abs(f2))

    res = {}
    # radial and rotational derivatives of F^2 itself
    d10 = contract(raw[(1, 0)], [v], [])
    res["a_radial"] = abs(d10 + np.conj(d10) - 2 * f2) / scale
    res["a_rotation"] = abs(1j * d10 - 1j * np.conj(d10)) / scale
    res["d_radial10"] = abs(d10 - f2) / scale

    # degree counting and rotation identity on nested derivatives, k <= 4
    res_b = 0.0
    res_c = 0.0
    for k in range(1, 5):
        for t in range(len(directions) - k + 1):
            xs = directions[t:t + k]
            g = nested(raw, xs)
            gscale = max(scale, abs(g))
            res_b = max(res_b, abs(nested(raw, xs + [v]) - (2 - k) * g) / gscale)
            rot = sum(nested(raw, xs[:j] + [1j * xs[j]] + xs[j + 1:])
                      for j in range(k))
            res_c = max(res_c, abs(rot + nested(raw, xs + [1j * v])) / gscale)
    res["b_degree"] = res_b
    res["c_rotation"] = res_c

    # pairings of h with the radial direction
    res_d = 0.0
    for x in directions:
        res_d = max(res_d, abs(contract(raw[(2, 0)], [x, v], [])) / scale)
        lhs = contract(raw[(1, 1)], [x], [v])
        rhs = contract(raw[(1, 0)], [x], [])
        res_d = max(res_d, abs(lhs - rhs) / scale)
    res["d_pairing"] = res_d

    # cubic and quartic contractions with the radial direction
    res_e = 0.0
    for i, x in enumerate(directions):
        for y in directions[i + 1:]:
            zc = directions[(i + 2) % len(directions)]
            e21 = contract(raw[(2, 1)], [x, v], [y])
            e12 = contract(raw[(1, 2)], [x], [y, v])
            res_e = max(res_e, abs(e21), abs(e12))
            h20 = contract(raw[(2, 0)], [x, y], [])
            res_e = max(res_e, abs(contract(raw[(3, 0)], [x, y, v], []) + h20))
            res_e = max(res_e, abs(contract(raw[(2, 1)], [x, y], [v]) - h20))
            res_e = max(res_e, abs(contract(raw[(2, 2)], [x, y], [zc, v])))
            res_e = max(res_e, abs(contract(raw[(2, 2)], [v, x], [y, zc])))
            res_e = max(res_e, abs(contract(raw[(3, 1)], [v, x, y], [zc])
                                   + contract(raw[(2, 1)], [x, y], [zc])))
            res_e = max(res_e, abs(contract(raw[(1, 3)], [x], [y, zc, v])
                                   + contract(raw[(1, 2)], [x], [y, zc])))
    res["e_cubic_quartic"] = res_e / scale
    res["max"] = max(res.values())
    return res


def euler_identities(prog, z, v) -> dict:
    """finsler_forms.homogeneity_identities entry by entry: for each entry
    of each T_pq with p + q <= 4, the sum over the index contracted with v
    (the first holomorphic slot of T_(p+1)q) or with vbar (the first
    conjugate slot of T_p(q+1)), against (1 - p) or (1 - q) times the entry."""
    v = np.asarray(v, dtype=complex)
    n = len(v)
    jet = prog.jet_unchecked(z, v, 5, 0)
    T = {(p, q): jet.fiber_tensor(p, q) for p in range(6) for q in range(6 - p)}
    res = {}
    for p in range(5):
        for q in range(5 - p):
            t = T[(p, q)]
            scale = max(1.0, abs(T[(0, 0)]), np.max(np.abs(t)))
            hol = con = 0.0
            for idx in np.ndindex(t.shape):
                sh = sum(v[a] * T[(p + 1, q)][(a,) + idx] for a in range(n))
                sc = sum(np.conj(v[b]) * T[(p, q + 1)][idx[:p] + (b,) + idx[p:]]
                         for b in range(n))
                hol = max(hol, abs(sh - (1 - p) * t[idx]))
                con = max(con, abs(sc - (1 - q) * t[idx]))
            res[f"v {p}{q}"] = hol / scale
            res[f"vbar {p}{q}"] = con / scale
    res["max"] = max(res.values())
    return res


def vertical_relations_residual(oh, oa, C20, C21, C12) -> float:
    """frame_bundle.vertical_relations_residual for one generator, one
    relation at a time."""
    n = len(oh)
    worst = abs(oh[0, 0] + oa[0, 0])
    for lam in range(1, n):
        r = oh[0, lam] + oa[lam, 0] + sum(C20[lam, nu] * oh[nu, 0] for nu in range(n))
        worst = max(worst, abs(r))
        for mu in range(1, n):
            # cubic-form corrections from the motion of the fiber point
            r = oh[lam, mu] + oa[mu, lam] \
                + sum(C21[mu, nu, lam] * oh[nu, 0] for nu in range(n)) \
                + sum(C12[mu, lam, nu] * oa[nu, 0] for nu in range(n))
            worst = max(worst, abs(r))
    return float(worst)


def full_stack_spray(prog, p):
    """geodesics.geodesic_spray from every parallelism field: row 0 of the
    stack field_stack builds, plus the vertical pairs e_{2 lam},
    e_{2 lam + 1} weighted by Re a_lam and Im a_lam, one tangent at a time."""
    fd = frame_data(prog, p.z, p.U)
    dz, dU = field_stack(fd)
    gz, gU = dz[0], dU[0]
    a = spray_coefficients(fd)
    for lam in range(1, prog.dim):
        j = 2 * prog.dim + 2 * lam - 2
        for k, w in ((j, float(a[lam - 1].real)), (j + 1, float(a[lam - 1].imag))):
            gz, gU = gz + w * dz[k], gU + w * dU[k]
    return AmbientTangent(gz, gU)


def fd_derivative(prog, z, v, v_idx=(), vbar_idx=(), z_idx=(), zbar_idx=(),
                  step: float | None = None, richardson: bool = False) -> complex:
    """Central-difference Wirtinger mixed partial of F^2, the reference for
    the program's jets.

    The default step grows with total derivative order to balance
    truncation against roundoff; pass ``step`` to override.  With
    ``richardson`` the step-h and step-h/2 estimates are combined to
    cancel the leading truncation term.
    """
    order = len(v_idx) + len(vbar_idx) + len(z_idx) + len(zbar_idx)
    if step is None:
        step = {0: 1e-5, 1: 1e-5, 2: 1e-4, 3: 2e-3, 4: 6e-3}.get(order, 6e-3)
    if richardson:
        f_h = fd_derivative(prog, z, v, v_idx, vbar_idx, z_idx, zbar_idx, step)
        f_h2 = fd_derivative(prog, z, v, v_idx, vbar_idx, z_idx, zbar_idx, step / 2)
        return (4.0 * f_h2 - f_h) / 3.0
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    # absolute steps fixed from the base point, so halving the step
    # rescales the whole stencil exactly (Richardson needs this)
    hv = [step * max(1.0, abs(x)) for x in v]
    hz = [step * max(1.0, abs(x)) for x in z]

    def rec(z, v, pending):
        if not pending:
            return prog.eval_complex(z, v)
        (kind, k), rest = pending[0], pending[1:]
        h = hv[k] if kind in (V, VBAR) else hz[k]

        def at(delta):
            z2, v2 = z.copy(), v.copy()
            (v2 if kind in (V, VBAR) else z2)[k] += delta
            return rec(z2, v2, rest)

        dre = (at(h) - at(-h)) / (2 * h)
        dim_ = (at(1j * h) - at(-1j * h)) / (2 * h)
        if kind in (V, Z):
            return 0.5 * (dre - 1j * dim_)
        return 0.5 * (dre + 1j * dim_)

    pending = ([(V, k) for k in v_idx] + [(VBAR, k) for k in vbar_idx]
               + [(Z, k) for k in z_idx] + [(ZBAR, k) for k in zbar_idx])
    return rec(z, v, tuple(pending))


def lift_derivatives(fd):
    """The derivatives along the holomorphic lifts and their conjugates, as
    parallelism._complex_lift_derivative returns them, by the direct route:
    the lifts' frame increments rebuilt from a fresh generator stack, one
    form_derivative per frame form, and frame_derivatives along the lifts
    for the torsion T = E - E^T."""
    lifts = slice(0, 2 * fd.n)
    W, G = _stack_layout(fd.n)[1][lifts], _generators(fd)[lifts]
    out = {pq: _complex_pairs(form_derivative(fd.jet, pq, W, G))
           for pq in ((2, 0), (2, 1), (1, 2))}
    dE = frame_derivatives(fd, ((W, G),))[0]
    out["T"] = _complex_pairs(dE - np.swapaxes(dE, -1, -2))
    return out


def lift_difference_of(table, func):
    """Derivatives of a point function func(z, U) along the 2n horizontal
    lifts at the point of the bracket table, by one central difference
    (NESTED_STEP) along its lift rows: the route parallelism's Bianchi
    residuals once took for the curvature, the accuracy reference for the
    exact _lift_derivative_of.  Returns (holomorphic, antiholomorphic)
    arrays with leading index g."""
    fd = table.frame
    dz, X = field_stack(fd, table.fields[1])
    d_real = []
    for i in range(2 * fd.n):
        h = NESTED_STEP * (1.0 + tangent_norm(dz[i], X[i]))
        d_real.append(along(func, fd.z, fd.U, pack_real(AmbientTangent(dz[i], X[i])), h))
    return _complex_pairs(np.array(d_real))


def lift_derivative_reference(table):
    """Derivatives of the raw curvature along the 2n horizontal lifts at the
    point of the bracket table, by the route parallelism's
    _lift_derivative_of once took: the lift rows of the whole tier 1, every
    pair of fields and every field differentiated, carried by all of K and
    contracted with varpi on the fields.  Returns (holomorphic,
    antiholomorphic) arrays with leading index g."""
    n, N = table.frame.n, len(table.fields[1])
    K = _complex_combination_matrix(n)
    a, b = np.triu_indices(N, 1)
    dc = np.zeros((2 * n, N, N, N))
    dc[:, a, b] = structure_derivative(table, 1)[:2 * n]
    dc[:, b, a] = -dc[:, a, b]
    dw = np.einsum("ga,sadk->skgd", K[:n], K[n:2 * n] @ (dc @ _stack_layout(n)[0].reshape(N, -1)))
    return _complex_pairs(-dw.reshape((2 * n,) + (n,) * 4))


def pullback(f2: str, substitutions: dict) -> str:
    """The DSL text of F^2 with each variable that substitutions names (z1,
    v1, ..) replaced, whole-word and all at once, by its expression in
    parentheses.  With phi(z) for the z entries and dphi v for the v
    entries, it is the metric G(z, v) = F(phi(z), dphi v) pulled back by a
    holomorphic phi, which is then an isometry from G onto F."""
    pattern = r"\b(" + "|".join(map(re.escape, substitutions)) + r")\b"
    return re.sub(pattern, lambda m: f"({substitutions[m.group(1)]})", f2)


def table_at(prog, p):
    """A new bracket table at the frame p, whose whole orders are the
    signature tiers there."""
    return _bracket_table(frame_data(prog, p.z, p.U))


def tier(prog, z, U, k: int) -> np.ndarray:
    """Signature tier k at the frame (z, U), as equivalence.signature reads
    it: order k of structure_derivative, flattened."""
    return structure_derivative(table_at(prog, BundlePoint(z, U)), k).ravel()


def difference_tier(prog, z, U, k: int, step: float = NESTED_STEP) -> np.ndarray:
    """Signature tier k >= 1 at (z, U) by the route the signature tiers once
    took for every tier above the first: one central difference of tier
    k - 1 along each parallelism field, at the relative step, block by
    block; the accuracy reference for the exact tiers."""
    fields = packed(*field_stack(frame_data(prog, z, U)))  # one per row
    return np.concatenate([along(lambda z, U: tier(prog, z, U, k - 1), z, U, x,
                                 step * (1.0 + np.linalg.norm(x)))
                           for x in fields])


def bianchi_residuals(prog, p, sf):
    """parallelism.bianchi_residuals, one index tuple at a time: the same
    derivatives along the lifts, each identity summed term by term."""
    n = prog.dim
    T, R = sf.T, sf.R_raw
    table = sf.table
    C21 = table.frame.C(2, 1)
    dT_h, dT_a = _complex_lift_derivative(table, "T")
    dR_h, dR_a = _lift_derivative_of(sf)
    d12_h = _complex_lift_derivative(table, (1, 2))[0]
    d21_a = _complex_lift_derivative(table, (2, 1))[1]

    scale = max(1.0, float(np.max(np.abs(R))), float(np.max(np.abs(T))))
    r1 = r2 = r3 = r4 = 0.0
    for a in range(n):
        for b in range(n):
            for g in range(n):
                for d in range(n):
                    # cyclic torsion identity
                    v = (dT_h[b][a, g, d] + dT_h[g][a, d, b] + dT_h[d][a, b, g]
                         + sum(T[a, e, b] * T[e, g, d] + T[a, e, d] * T[e, b, g]
                               + T[a, e, g] * T[e, d, b] for e in range(n)))
                    r1 = max(r1, abs(v))
                    # antisymmetrized curvature vs torsion derivative
                    v = (R[a, b, g, d] - R[a, g, b, d] - dT_a[d][a, b, g]
                         - sum(C21[lam, b, a] * R[lam, 0, g, d]
                               - C21[lam, g, a] * R[lam, 0, b, d]
                               for lam in range(n)))
                    r2 = max(r2, abs(v))
                    for e in range(n):
                        # holomorphic derivative identity
                        v = (dR_h[g][a, b, d, e] - dR_h[d][a, b, g, e]
                             + sum(R[a, b, zz, e] * T[zz, g, d] for zz in range(n))
                             + sum(d12_h[g][b, a, lam] * R[0, lam, d, e]
                                   - d12_h[d][b, a, lam] * R[0, lam, g, e]
                                   for lam in range(n)))
                        r3 = max(r3, abs(v))
                        # antiholomorphic derivative identity
                        v = (dR_a[d][a, b, g, e] - dR_a[e][a, b, g, d]
                             + sum(R[a, b, g, zz] * np.conj(T[zz, d, e])
                                   for zz in range(n))
                             + sum(d21_a[d][b, lam, a] * R[lam, 0, g, e]
                                   - d21_a[e][b, lam, a] * R[lam, 0, g, d]
                                   for lam in range(n)))
                        r4 = max(r4, abs(v))
    return {"b541": r1 / scale, "b542": r2 / scale,
            "b543": r3 / scale, "b544": r4 / scale}


def closed_form_Q(fd):
    """parallelism.closed_form_Q, one index tuple at a time."""
    n = fd.n
    C22, C21, C12 = fd.C(2, 2), fd.C(2, 1), fd.C(1, 2)
    Q = np.zeros((n - 1,) * 4, dtype=complex)
    for rho in range(1, n):
        for sig in range(1, n):
            for lam in range(1, n):
                for mu in range(1, n):
                    val = C22[sig, lam, mu, rho]
                    val -= sum(C12[nu, mu, rho] * C21[sig, lam, nu] for nu in range(n))
                    Q[rho - 1, sig - 1, lam - 1, mu - 1] = val
    return Q


def structure_checks(sf) -> dict:
    """Sup-norms of the bracket relations the structure coefficients at the
    point of sf obey, in the complexified basis: the horizontal brackets'
    purity, the torsion against the connection's antisymmetrization, the
    rotation generator's brackets, the vertical algebra and the vanishing P
    families.  Each is zero in theory."""
    fd = sf.table.frame
    n, m = fd.n, fd.n - 1
    # the components on the complexified basis, c carried by K and K^-1
    K = _complex_combination_matrix(n)
    coeff = _carry(K, sf.table.c @ np.linalg.inv(K))
    N = len(coeff)
    t = 2 * n + 2 * m
    eh, ehb, ev, evb = slice(0, n), slice(n, 2 * n), slice(2 * n, t - m), slice(t - m, t)
    d = np.arange(m)
    checks = {}
    checks["holomorphic_bracket_purity"] = _sup(coeff[eh, eh][:, :, n:])
    checks["torsion_vs_connection"] = _sup(sf.T - fd.torsion)
    checks["mixed_bracket_purity"] = _sup(coeff[eh, ehb, :2 * n])
    # [t, e_0-hat] = i e_0-hat, [t, e_lam-hat] = 0
    expect = np.zeros((n, N), dtype=complex)
    expect[0, 0] = 1j
    checks["rotation_horizontal"] = _sup(coeff[t, eh] - expect)
    checks["vertical_holomorphic_brackets"] = _sup(coeff[ev, ev])
    checks["vertical_mixed_t_coefficient"] = _sup(coeff[ev, evb][:, :, t] + 1j * np.eye(m))
    expect = np.zeros((m, N), dtype=complex)
    expect[d, 2 * n + d] = -1j
    checks["rotation_vertical"] = _sup(coeff[t, ev] - expect)  # includes Q^rho_{sig 0 nu} = 0
    # the leading horizontal part of [evb_rho, eh_g] is -delta_{rho g} e0_hat
    c = coeff[evb, eh]
    expect = np.zeros((m, n, n), dtype=complex)
    expect[d, d + 1, 0] = -1.0
    checks["vanishing_P_families"] = _sup(c[:, :, eh] - expect, c[:, :, t], c[:, :, evb])
    return checks


def tangency_kernel_dimension(prog, p) -> int:
    """Real dimension of the kernel of the Gram-derivative map at p, from the
    Gram derivative along every packed-real ambient coordinate direction.

    Equals the dimension of the frame bundle, n^2 + 2n, when the metric is
    strongly pseudoconvex.
    """
    n = p.n
    dim_amb = 2 * n + 2 * n * n
    inc = frame_increments(p.U, *unpack_real(np.eye(dim_amb), n))
    gd = gram_derivative(prog.jet_unchecked(p.z, p.e0, 4, 1, p.U), *inc).reshape(dim_amb, -1)
    mat = np.concatenate([gd.real, gd.imag], axis=1).T  # one real row a Gram entry
    sv = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(sv > KERNEL_REL_TOL * sv[0]))
    return dim_amb - rank


# --------------------------------------------------------------------------
# the coframe on ambient tangents
# --------------------------------------------------------------------------

def _split_stack(X: np.ndarray, n: int):
    """(dz, dzbar, dU, dUbar) of complexified tangents stacked on leading axes."""
    lead = X.shape[:-1]
    return (X[..., :n], X[..., n:2 * n],
            X[..., 2 * n:2 * n + n * n].reshape(lead + (n, n)),
            X[..., 2 * n + n * n:].reshape(lead + (n, n)))


class Coframe:
    """theta / omega / varpi evaluated on complexified ambient tangents, one
    tangent or a stack of them on leading axes, through the inverse of the
    frame: the reference for parallelism._coframe, which reads them off
    frame increments."""

    def __init__(self, fd):
        self.n = fd.n
        self.Uinv = np.linalg.inv(fd.U)
        self.Ubinv = np.conj(self.Uinv)
        self.M = fd.E  # M[:, :, g]
        # varpi correction entries: corr[a-1, b-1, lam] = C21[b, lam, a]
        # multiplies omega[lam, 0]
        self.corr = np.transpose(fd.C(2, 1), (2, 0, 1))[1:, 1:]

    def theta(self, X: np.ndarray):
        dzh, dza, _, _ = _split_stack(X, self.n)
        return (np.matmul(self.Uinv, dzh[..., None])[..., 0],
                np.matmul(self.Ubinv, dza[..., None])[..., 0])

    def omega(self, X: np.ndarray):
        _, _, dUh, dUa = _split_stack(X, self.n)
        th, ta = self.theta(X)
        oh = np.matmul(self.Uinv, dUh) - np.einsum("abg,...g->...ab", self.M, th)
        oa = np.matmul(self.Ubinv, dUa) - np.einsum("abg,...g->...ab", np.conj(self.M), ta)
        return oh, oa

    def varpi(self, X: np.ndarray) -> np.ndarray:
        """Holomorphic skew-Hermitianized connection matrix on X."""
        oh, oa = self.omega(X)
        w = np.zeros(oh.shape, dtype=complex)
        w[..., :, 0] = oh[..., :, 0]
        w[..., 0, 1:] = -oa[..., 1:, 0]
        w[..., 1:, 1:] = oh[..., 1:, 1:] + np.einsum("abl,...l->...ab", self.corr, oh[..., :, 0])
        return w


# --------------------------------------------------------------------------
# energy, E-manifold closed forms and complex geodesics
# --------------------------------------------------------------------------

def energy(prog, ts, zs, dzs) -> float:
    """Energy integral of a sampled curve (trapezoid rule)."""
    vals = np.array([prog.eval(z, dz) for z, dz in zip(zs, dzs)])
    return float(np.trapezoid(vals, ts))


def energy_first_variation(prog, path, perturbation, s: float = 1e-4) -> float:
    """Central-difference derivative of the energy under a fixed-endpoint
    variation.  ``perturbation`` maps t to the complex displacement vector;
    its time derivative is taken by finite differences on the sample grid."""
    ts = path.ts
    W = np.array([np.asarray(perturbation(t), dtype=complex) for t in ts])
    if np.max(np.abs(W[0])) > 1e-12 or np.max(np.abs(W[-1])) > 1e-12:
        raise FinslerError("perturbation must vanish at both endpoints")
    Wdot = np.gradient(W, ts, axis=0)
    dz = path.frames[:, :, 0]  # the unit-speed velocity is the first frame vector
    e_plus = energy(prog, ts, path.zs + s * W, dz + s * Wdot)
    e_minus = energy(prog, ts, path.zs - s * W, dz - s * Wdot)
    return (e_plus - e_minus) / (2 * s)


def e_manifold_closed_forms(prog, p, c: float) -> dict:
    """Residuals of the closed-form torsion/curvature expressions valid on
    manifolds with complex geodesics in every direction and constant
    holomorphic sectional curvature c (given in the -4 normalization;
    identities are checked in the bracket normalization)."""
    n = prog.dim
    sf = extract_structure(prog, p)
    R = sf.R_raw
    T = sf.T
    craw = c / HSC_NORMALIZATION
    h = sf.h_vert        # (m, m) pure form block, indices 1..n-1 shifted
    fd = sf.table.frame
    C20 = fd.C(2, 0)
    d20b = _complex_lift_derivative(sf.table, (2, 0))[1]  # conj-lift derivatives of h_pure

    res = {}
    res["R0000"] = abs(R[0, 0, 0, 0] - craw)
    van = 0.0
    for lam in range(1, n):
        van = max(van, abs(R[lam, 0, 0, 0]), abs(R[0, lam, 0, 0]),
                  abs(R[0, 0, lam, 0]), abs(R[0, 0, 0, lam]))
    res["vanishing_components"] = van

    r_h = r_mix = r_block = 0.0
    hbar = np.conj(h)
    hhbar = h @ hbar if n > 1 else np.zeros((0, 0))
    for lam in range(1, n):
        for mu in range(1, n):
            l, m_ = lam - 1, mu - 1
            r_h = max(r_h, abs(R[0, lam, mu, 0] - craw * h[l, m_]))
            r_h = max(r_h, abs(R[lam, 0, 0, mu] - craw * hbar[l, m_]))
            r_mix = max(r_mix, abs(R[0, lam, 0, mu]
                                   - craw / 2 * ((lam == mu) + hhbar[l, m_])))
            r_mix = max(r_mix, abs(R[lam, 0, mu, 0]
                                   - craw / 2 * ((lam == mu) + np.conj(hhbar[l, m_]))))
            r_mix = max(r_mix, abs(R[0, 0, lam, mu]
                                   - craw / 2 * ((lam == mu) - hhbar[m_, l])))
            deriv = sum(d20b[0][mu, nu] * np.conj(d20b[0][lam, nu])
                        for nu in range(1, n))
            r_block = max(r_block, abs(R[lam, mu, 0, 0]
                                       - craw / 2 * ((lam == mu)
                                                     - sum(h[nu - 1, m_] * hbar[nu - 1, l]
                                                           for nu in range(1, n)))
                                       + deriv))
    res["R_h_pairing"] = r_h
    res["R_mixed"] = r_mix
    res["R_block"] = r_block

    if abs(craw) > 1e-12:
        tres = float(np.max(np.abs(T[0, :, :])))
        for lam in range(1, n):
            for g in range(n):
                pred = -sum(np.conj(d20b[0][lam, nu]) * C20[nu, g]
                            for nu in range(1, n))
                tres = max(tres, abs(T[lam, 0, g] - pred))
                for b in range(1, n):
                    pred = (sum(np.conj(d20b[g][lam, nu]) * C20[nu, b] for nu in range(1, n))
                            - sum(np.conj(d20b[b][lam, nu]) * C20[nu, g] for nu in range(1, n)))
                    tres = max(tres, abs(T[lam, b, g] - pred))
        res["torsion_forms"] = tres

    # local identity tying curvature, the pure form and the torsion trace
    dT_a = _complex_lift_derivative(sf.table, "T")[1]
    ident = 0.0
    for lam in range(1, n):
        lhs = sum(craw * abs(h[lam - 1, rho - 1]) ** 2
                  + abs(d20b[0][lam, rho]) ** 2 for rho in range(1, n))
        ident = max(ident, abs(lhs - dT_a[0][lam, 0, lam]))
    res["local_identity"] = float(ident)
    res["max"] = float(max(res.values()))
    return res


def complex_geodesic_check(prog, curve, samples) -> dict:
    """Totally-geodesic test of a holomorphic curve.

    ``curve`` maps a complex parameter w to chart coordinates; its
    derivative is taken by complex finite differences.  At each sample the
    adapted frame with first vector tangent to the curve is built, and the
    report collects the geodesic torsion components and the off-diagonal
    connection-form values along the curve section, together with the
    Gaussian curvature of the induced metric.
    """
    h = CURVE_STEP

    def deriv(w, hd=h):
        return (np.asarray(curve(w + hd)) - np.asarray(curve(w - hd))) / (2 * hd)

    max_T = 0.0
    max_pi = 0.0
    curvatures = []
    for w in samples:
        w = complex(w)
        z = np.asarray(curve(w), dtype=complex)
        v = deriv(w)
        if np.max(np.abs(v)) < 1e-10:
            raise FinslerError(f"degenerate curve derivative at w={w}")
        p = adapted_frame(prog, z, v)
        fd = frame_data(prog, p.z, p.U)
        n = prog.dim
        T = fd.torsion
        max_T = max(max_T, max((abs(T[0, lam, 0]) for lam in range(1, n)), default=0.0))
        # derivative of the adapted-frame section along the curve parameter
        for direction in (1.0, 1.0j):
            pp = adapted_frame(prog, curve(w + h * direction), deriv(w + h * direction))
            pm = adapted_frame(prog, curve(w - h * direction), deriv(w - h * direction))
            dz = (pp.z - pm.z) / (2 * h)
            dU = (pp.U - pm.U) / (2 * h)
            _, _, oh, oa = _coframe(fd, complexify(*frame_increments(p.U, dz, dU)))
            wmat = _varpi(fd, oh, oa)
            for lam in range(1, n):
                max_pi = max(max_pi, abs(wmat[lam, 0]), abs(wmat[0, lam]))
        # induced metric g(w) = F^2(curve(w), curve'(w)); its Gauss curvature
        def logg(wv):
            return np.log(prog.eval(curve(wv), deriv(wv, CURVATURE_STEP)))
        # K = -(2/g) d_w d_wbar log g, with 4 d_w d_wbar = flat laplacian
        hc = CURVATURE_STEP
        lap = (logg(w + hc) + logg(w - hc) + logg(w + 1j * hc) + logg(w - 1j * hc)
               - 4 * logg(w)) / (hc * hc)
        g = prog.eval(z, v)
        curvatures.append(float(-2.0 * (lap / 4.0) / g))
    spread = float(np.max(curvatures) - np.min(curvatures)) if curvatures else 0.0
    return {
        "max_geodesic_torsion": float(max_T),
        "max_connection_offdiagonal": float(max_pi),
        "induced_curvatures": curvatures,
        "curvature_spread": spread,
    }


def geodesic_condition_residuals(prog, path, gauge=None) -> dict:
    """Stationarity conditions evaluated along a lift of the integrated curve.

    Any constant structure-group element is a legitimate gauge: the first
    frame vector stays on the ray of the velocity.  The conditions vanish
    for one lift of a geodesic iff they vanish for all of them, which this
    evaluator lets the tests assert directly.
    """
    n = prog.dim
    g = np.eye(n, dtype=complex) if gauge is None else np.asarray(gauge, dtype=complex)
    ts, zs, frames = path.ts, path.zs, path.frames
    idx = range(1, len(ts) - 1, RESIDUAL_STRIDE)
    worst_A = 0.0
    worst_BC = 0.0

    def theta_values(i):
        U = frames[i] @ g
        dz = (zs[i + 1] - zs[i - 1]) / (ts[i + 1] - ts[i - 1])
        dU = (frames[i + 1] - frames[i - 1]) / (ts[i + 1] - ts[i - 1]) @ g
        fd = frame_data(prog, zs[i], U)
        th, thb, oh, oa = _coframe(fd, complexify(*frame_increments(U, dz, dU)))
        return fd, _varpi(fd, oh, oa), th, thb

    cache = {i: theta_values(i) for i in idx}
    for i in idx:
        fd, w, th, thb = cache[i]
        # d theta^0bar / dt by finite differences of neighbouring samples
        ip, im = i + RESIDUAL_STRIDE, i - RESIDUAL_STRIDE
        if im in cache and ip in cache:
            dtb = (cache[ip][3][0] - cache[im][3][0]) / (ts[ip] - ts[im])
        else:
            continue
        worst_A = max(worst_A, abs(w[0, 0] * thb[0] - dtb))
        T = fd.torsion
        H = fd.C(2, 0)
        for lam in range(1, n):
            # stationarity of the energy couples the two off-diagonal blocks
            # of the connection matrix through the pure quadratic form
            b = (w[0, lam] + T[0, lam, 0] * th[0]
                 - sum(H[lam, mu] * w[mu, 0] for mu in range(1, n)))
            worst_BC = max(worst_BC, abs(b))
    return {"A": worst_A, "BC": worst_BC}


def jsonify(obj):
    """obj with its numpy arrays and scalars made lists and Python numbers,
    complex numbers [re, im] and dict keys str: what the CLI handed to
    json.dumps before it wrote reports itself."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [jsonify(x) for x in obj.tolist()] if obj.dtype == complex \
            else obj.tolist()
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(x) for x in obj]
    return obj


def report_json(obj) -> str:
    """The reference text of a report: json.dumps(indent=2, sort_keys=True),
    CPython's pure-Python encoder, of jsonify(obj)."""
    return json.dumps(jsonify(obj), indent=2, sort_keys=True)
