"""Absolute parallelism on the adapted frame bundle and its structure functions.

The parallelism consists of the 2n horizontal lifts, the 2(n-1) Webster-type
vertical fields, the fiber rotation generator and a fixed skew-Hermitian
basis of the block algebra acting on e_1..e_{n-1}.  Each field is U (w, G),
with frame increments (w, G) for a constant w and a generator G of the
stack ``_generators`` forms; G is linear in the connection coefficients E
and the frame forms C(2, 0), C(2, 1).  The bracket table
(``_bracket_table``) holds the fields and their exact brackets in frame
increments: the fields' derivatives along each other are order 1 of the
one routine for every order (``_field_derivative``), one matmul per
direction, so that a direction's bits do not depend on its stack.  The
components of the brackets in the parallelism basis,
``bracket_coefficients``, are the structure functions, the complete local
isometry invariants.  They are the values of the coframe (theta, varpi)
dual to the parallelism on the brackets: on frame increments (delta, A)
the coframe needs no inverse of the frame, theta = delta and omega = A -
E(delta), so the table's coframe matrix is the fields' left inverse and
no decomposition solves.  The complexified basis is the constant
combinations K of the real fields (``_complex_combination_matrix``).
The coframe is dual to the parallelism: on the real fields it is their
layout (W, G0) of _stack_layout, constant, so its exterior derivative on
a pair of fields is minus its value on their bracket, and every structure
function is minus a coframe value on a bracket of complexified basis
fields: one pairing, c contracted with (W, G0) and carried by K, serves
the extraction, the structure equations and Bianchi.
``structure_derivative`` takes the structure functions' derivatives of
any order along the fields, from B c = br differentiated by Leibniz, over
the fields its reader names, and the pairing reads the curvature's off
those over the lifts.  Each layer has one
owner at a point: the table carries its frame data, which keeps the
connection's derivatives, and every derivative along the fields is read
from the table alone, which keeps each whole order.

Convention anchor: curvature components are extracted raw from brackets and
additionally reported in the holomorphic-sectional-curvature normalization
(twice the raw coefficient), in which the unit-disc metric has constant
curvature -4.  Torsion and the vertical structure functions carry no
normalization factor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .connection import FrameData, Rows, frame_data, frame_derivatives
from .frame_bundle import BundlePoint, complexify, vertical_relations_residual
from .metric_dsl import FinslerError, MetricProgram

HSC_NORMALIZATION = 2.0  # reported curvature = raw bracket coefficient * this
DECOMPOSITION_TOL = 1e-5  # largest relative residual of a bracket decomposition


def _unit(n: int, r: int, c: int) -> np.ndarray:
    A = np.zeros((n, n), dtype=complex)
    A[r, c] = 1.0
    return A


def u_block_basis(n: int) -> list[np.ndarray]:
    """Fixed basis of the skew-Hermitian algebra on the e_1..e_{n-1} block."""
    mats = [1j * _unit(n, lam, lam) for lam in range(1, n)]
    for lam in range(1, n):
        for mu in range(lam + 1, n):
            mats.append(_unit(n, lam, mu) - _unit(n, mu, lam))
    for lam in range(1, n):
        for mu in range(lam + 1, n):
            mats.append(1j * (_unit(n, lam, mu) + _unit(n, mu, lam)))
    return mats


def labels_real(n: int) -> list[tuple]:
    out = [("f", i) for i in range(2 * n)]
    out += [("e", a) for a in range(2, 2 * n)]
    out += [("t",)]
    out += [("u", k) for k in range((n - 1) ** 2)]
    return out


# --------------------------------------------------------------------------
# the parallelism fields
# --------------------------------------------------------------------------

@cache
def _stack_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-n constants of the generator stack of _generators.

    Slot j of the N = n^2 + 2n slots generates real field j of labels_real:
    E_g w_g (w_g = 1, i) for the lifts f_{2g}, f_{2g+1}; B + C and i(B - C)
    for e_{2 lam}, e_{2 lam + 1}, with B = E_{lam 0} less the pure quadratic
    and cubic form corrections and C = -E_{0 lam}; T; the u-block basis.
    Returns the stack with its constant parts filled (E_{lam 0} - E_{0 lam}
    and i(E_{lam 0} + E_{0 lam}) in the e slots) and the frame components W
    of the fields' base parts: w_g of the 2n lifts, 0 for the rest.  Field j
    is the ambient tangent U (W[j], G[j]): its frame increments are
    (W[j], G[j]), and the dual coframe (theta, varpi) is (W[j], G0[j]) on
    it, G0 the stack returned."""
    m = n - 1
    t = 2 * n + 2 * m

    def stacked(mats):
        return np.array(mats, dtype=complex).reshape(-1, n, n)

    stack = np.zeros((n * n + 2 * n, n, n), dtype=complex)
    B = stacked([_unit(n, k, 0) for k in range(1, n)])
    C = stacked([-_unit(n, 0, k) for k in range(1, n)])
    stack[2 * n:t:2] = B + C
    stack[2 * n + 1:t:2] = 1j * (B - C)
    stack[t] = 1j * _unit(n, 0, 0)
    stack[t + 1:] = stacked(u_block_basis(n))
    a = np.arange(n)
    w = np.zeros((n * n + 2 * n, n), dtype=complex)
    w[2 * a, a] = 1.0
    w[2 * a + 1, a] = 1j
    stack.flags.writeable = w.flags.writeable = False
    return stack, w


_PHASES = np.array([1.0, 1j])[:, None, None]  # w_g of the lifts f_{2g}, f_{2g + 1}


def _generators(fd: FrameData) -> np.ndarray:
    """The generator stack G at the point of fd, one slot per real field,
    laid out as _stack_layout describes."""
    # the frame forms enter only the vertical slots, which n = 1 lacks
    forms = (fd.C(2, 0), fd.C(2, 1)) if fd.n > 1 else (None, None)
    return _fill_generators(_stack_layout(fd.n)[0].copy(), fd.E, *forms)


def _fill_generators(G: np.ndarray, E: np.ndarray, C20: np.ndarray, C21: np.ndarray):
    """Fill the stack G, shape (..., N, n, n), from E, C(2, 0) and C(2, 1),
    which carry the same leading axes: the lift slots are set from E, and
    _correct_vertical corrects the e slots.  Apart from the constants
    there the stack is linear in (E, C20, C21), so a zero stack filled from
    their derivatives is the derivative of the stack."""
    n = E.shape[-1]
    E = np.moveaxis(E, -1, -3)  # E[..., g, :, :] = E_g
    G[..., :2 * n, :, :] = (E[..., None, :, :] * _PHASES).reshape(E.shape[:-3] + (2 * n, n, n))
    if n > 1:
        _correct_vertical(G[..., 2 * n:4 * n - 2, :, :], C20, C21)
    return G


def _correct_vertical(Ge: np.ndarray, C20: np.ndarray, C21: np.ndarray):
    """Subtract the form corrections of B, corr and i corr, from the e slots
    Ge, shape (..., 2n - 2, n, n), which hold their constant parts."""
    n = Ge.shape[-1]
    corr = np.zeros(C20.shape[:-2] + (n - 1, n, n), dtype=complex)
    corr[..., 0, 1:] = np.swapaxes(C20[..., 1:, 1:], -1, -2)
    corr[..., 1:, 1:] = np.moveaxis(C21[..., 1:, 1:, 1:], -3, -1)
    Ge[..., 0::2, :, :] -= corr
    Ge[..., 1::2, :, :] -= 1j * corr


def _real_field_matrix(prog: MetricProgram, z, U) -> np.ndarray:
    """All parallelism fields at (z, U) as real columns: field j of
    labels_real is the ambient tangent (U W[j], U G[j]) of _stack_layout and
    _generators, its dz then dU, real parts, then imaginary parts."""
    fd = frame_data(prog, z, U)
    dz = np.matmul(fd.U, _stack_layout(fd.n)[1][..., None])[..., 0]
    dU = np.matmul(fd.U, _generators(fd)).reshape(len(dz), -1)
    return np.concatenate([dz.real, dz.imag, dU.real, dU.imag], axis=1).T


@cache
def _complex_combination_matrix(n: int) -> np.ndarray:
    """K with complex_field_i = sum_j K[i, j] * real_field_j (constant).

    The complexified basis, in the order eh_a, ehb_a (a < n), ev_lam, evb_lam
    (1 <= lam < n), t, V_{rho sig} (1 <= rho, sig < n, row-major), is the
    dual frame of the coframe: theta(eh_a) = thetabar(ehb_a) = e_a,
    varpi(ev_lam) = E_{lam 0}, varpi(evb_lam) = -E_{0 lam}, varpi(t) = i E_00,
    varpi(V_{rho sig}) = E_{rho sig}, and every other pairing vanishes."""
    m = n - 1
    N = n * n + 2 * n
    t = 2 * n + 2 * m
    K = np.zeros((N, N), dtype=complex)
    # pair j: the real fields 2j, 2j + 1 (lifts f, then vertical e) give the
    # rows eh_j, ehb_j for j < n, else ev_lam, evb_lam with lam = j - n + 1
    j = np.arange(n + m)
    hol = j + n * (j >= n)
    anti = hol + np.where(j < n, n, m)
    K[hol, 2 * j] = K[anti, 2 * j] = 0.5
    K[hol, 2 * j + 1] = -0.5j
    K[anti, 2 * j + 1] = 0.5j
    K[t, t] = 1.0
    # V(rho, sig) in the u-block basis: i E_rr, then for r < s the families
    # E_rs - E_sr and i (E_rs + E_sr), in the order of u_block_basis
    d = np.arange(m)
    r, s = np.triu_indices(m, 1)
    skew = t + 1 + m + np.arange(len(r))
    isym = skew + len(r)
    K[t + 1 + d * m + d, t + 1 + d] = -1j
    K[t + 1 + r * m + s, skew] = 0.5
    K[t + 1 + r * m + s, isym] = -0.5j
    K[t + 1 + s * m + r, skew] = -0.5
    K[t + 1 + s * m + r, isym] = -0.5j
    K.flags.writeable = False
    return K


# --------------------------------------------------------------------------
# the bracket table
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldTable:
    """The real parallelism fields at one point and their exact brackets,
    as _bracket_table builds them, all in frame increments; an array over
    increments holds their coordinates on the M = 2 (n + n^2) elements of
    _increment_basis.  It keeps the frame data at the point, and its cache
    keeps what structure_derivative's orders share: the generator
    derivatives, the iterated fields along the basis and every whole
    order, read-only.  The fields' derivatives along each other, D_a X_b,
    are its first iterated fields, _iterated_table(table, 2): the q = 1
    case of _field_derivative, one matmul per direction."""

    frame: FrameData = field(repr=False, compare=False)
    coframe: np.ndarray  # (N, M) the fields' left inverse on increment coordinates (_coframe_matrix)
    br: np.ndarray       # (N, N, M) the coordinates of br[a, b] = D_a X_b - D_b X_a
    fields: tuple        # (W, G): the frame increments of the fields, as one stack; G (N, n, n)
    cache: dict = field(default_factory=dict, repr=False, compare=False)  # structure_derivative's


def _bracket_table(fd: FrameData) -> FieldTable:
    """All pairwise brackets of the real parallelism fields at the point of fd.

    D_a X_b is the exact derivative of field X_b along X_a, the q = 1 case
    of _field_derivative: a field is U (w, G) with w constant and G from
    (E, C20, C21), so along X_a, whose frame increments are (w_a, G_a), it
    moves by U (G_a w, G_a G + dG), with dG the generator derivative along
    the fields, which the table keeps.  Each product there is one matmul
    per direction, so the brackets' bits are those of each field alone.  A
    report builds it once per point, and it carries the frame data; every
    derivative along the fields there is read from it, and every
    decomposition on the fields is a product with its coframe.
    """
    fields = (_stack_layout(fd.n)[1], _generators(fd))
    table = FieldTable(frame=fd, coframe=_coframe_matrix(fd), br=None, fields=fields)
    _generator_derivative(table, (fields,))
    N = len(fields[1])
    D = _iterated_table(table, 2).reshape(N, N, -1)
    return replace(table, br=D - D.swapaxes(0, 1))  # the same cache, with br


def _generator_derivatives(derivs) -> np.ndarray:
    """The derivative of the generator stack along the tangents of derivs =
    (dE, dC20, dC21), any leading axes: a zero stack filled from them."""
    dE = derivs[0]
    n = dE.shape[-1]
    G = np.zeros(dE.shape[:-3] + (n * n + 2 * n, n, n), dtype=complex)
    return _fill_generators(G, *derivs)


def bracket_coefficients(table: FieldTable) -> np.ndarray:
    """c[a, b, i]: the component of the bracket of real fields a and b on
    real field i, the coframe's value on the exact bracket, from the
    bracket table at a point."""
    return table.br @ table.coframe.T


# --------------------------------------------------------------------------
# derivatives of every order along the fields
# --------------------------------------------------------------------------

# Complex entries of the largest array of one chunk: the iterated fields are
# taken a chunk of rows of the last field at a time, in the loop reading them.
CHUNK_ENTRIES = 1 << 15


@cache
def _increment_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A real basis of the frame increments (delta, A), 2 (n + n^2) > n^2 +
    2n of them: the units of delta, then of A row-major, then i times each."""
    m = n + n * n
    units = np.concatenate([np.eye(m), 1j * np.eye(m)])
    delta, A = np.ascontiguousarray(units[:, :n]), units[:, n:].reshape(-1, n, n)
    delta.flags.writeable = A.flags.writeable = False
    return delta, A


def _increment_coordinates(delta: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The coordinates of frame increments (delta, A), any leading axes, on
    _increment_basis: the real parts of delta and A, then the imaginary."""
    x = np.concatenate([delta, A.reshape(delta.shape[:-1] + (-1,))], axis=-1)
    return np.concatenate([x.real, x.imag], axis=-1)


def _generator_derivative(table: FieldTable, stacks, keep: bool = True):
    """The derivative of the generator stack along one frame increment from
    each stack, leading axes (K_1, .., K_q), filled from the frame
    derivatives there, kept in the table's cache (when keep holds) but
    along Rows; along Rows whose parent's is kept, read at the rows."""
    key = ("G",) + tuple(map(id, stacks))
    if key in table.cache:
        return table.cache[key][1]
    for i, s in enumerate(stacks):
        if isinstance(s, Rows):
            hit = table.cache.get(key[:i + 1] + (id(s.parent),) + key[i + 2:])
            if hit is not None:
                return np.take(hit[1], s.rows, axis=i)
    G = _generator_derivatives(frame_derivatives(table.frame, stacks))
    if keep and not any(isinstance(s, Rows) for s in stacks):
        table.cache[key] = (stacks, G)
    return G


def _field_derivative(table: FieldTable, stacks):
    """(delta, A, order): the q-th derivative of each field X_b = U (w_b,
    G_b) along one tangent from each of q stacks, read-only frame
    increments with leading axes K_i in the order of the stacks, longest
    first, so that one computation serves every order of them, and then b;
    kept along the basis.  z and U move linearly, so U takes at most one
    tangent: A is the derivative of G plus, for each i, A_i times the
    derivative of G along the others; delta is A_1 w_b for q = 1 (None, 0,
    above).  At q = 1, the bracket table's order, each product is one matmul
    per direction, as in finsler_forms.tensor_derivative: a direction's bits
    are its own, not those of a contraction over the whole stack."""
    q, n = len(stacks), table.frame.n
    order = sorted(range(q), key=lambda i: -len(stacks[i][0]))
    srt = tuple(stacks[i] for i in order)
    key = ("X",) + tuple(map(id, srt))
    hit = table.cache.get(key)
    if hit is None:
        out = _generator_derivative(table, srt, keep=False)
        out = out.copy() if ("G",) + key[1:] in table.cache else out  # a kept one stays
        delta = None
        if q == 1:
            A1 = srt[0][1]
            out += np.matmul(A1[:, None], table.fields[1])
            delta = np.zeros(out.shape[:2] + (n,), dtype=complex)
            delta[:, :2 * n] = np.matmul(A1[:, None], _stack_layout(n)[1][:2 * n, :, None])[..., 0]
        else:
            for i, (_, Ai) in enumerate(srt):
                lower = _generator_derivative(table, srt[:i] + srt[i + 1:])
                # sum_c Ai[j, x, c] lower[.., c, y], as axes (.., j, .., b, x, y)
                out += np.tensordot(Ai, lower, axes=([2], [q])).transpose(
                    [*range(2, i + 2), 0, *range(i + 2, q + 1), q + 1, 1, q + 2])
        hit = (srt, (delta, out))
        # what every table contracted in reads: along the basis, but no Rows
        if any(s is _increment_basis(n) for s in stacks) and \
                not any(isinstance(s, Rows) for s in stacks):
            table.cache[key] = hit
    return hit[1] + (order,)


@cache
def _set_partitions(l: int) -> tuple:
    """The set partitions of the positions 0..l-1, blocks increasing and in
    the order of their first positions."""
    if l == 0:
        return ((),)
    return tuple(q for p in _set_partitions(l - 1) for q in
                 [p[:i] + (p[i] + (l - 1,),) + p[i + 1:] for i in range(len(p))]
                 + [p + ((l - 1,),)])


def _chunks(N: int, entries: int) -> list:
    """Chunks of the N rows of a table with entries complex entries a row,
    within CHUNK_ENTRIES; [None] for all N."""
    size = max(1, CHUNK_ENTRIES // entries)
    return [None] if size >= N else [range(i, min(i + size, N)) for i in range(0, N, size)]


def _iterated(table: FieldTable, l: int, rows=None, fields=None) -> np.ndarray:
    """Y_{s_l} .. Y_{s_1} X_b, field b differentiated along s_1, then ..,
    then s_l, in the coordinates of its frame increments, axes (s_l, ..,
    s_1, b): every index over fields (all when None), and s_l over the
    positions rows of them (all when None).  By Faa di Bruno it sums, over
    the set partitions of the positions, the derivative of X_b along one
    tangent per block (_field_derivative): the block's first field along
    the others, a table of the level below.  A table of two levels or more
    has more tangents than _increment_basis, and the derivative is
    real-linear in each, so it is taken along the basis and the table's
    coordinates contracted in.  The fields and the rows are Rows views of
    the table's stack, and the frame data's derivatives along them are
    dropped."""
    N, n = table.fields[1].shape[:2]
    basis = _increment_basis(n)
    sub = table.fields if fields is None else Rows(table.fields, fields)
    chunk = sub if rows is None else Rows(sub, rows)
    every = np.arange(N) if fields is None else sub.rows  # the fields' rows in the table
    last, F = every if rows is None else every[chunk.rows], len(every)
    delta = A = None
    for blocks in _set_partitions(l):
        stacks = [basis if len(B) > 1 else chunk if l - 1 in B else sub for B in blocks]
        d, a, order = _field_derivative(table, stacks)
        if fields is not None:  # b over the fields too
            a = np.take(a, every, axis=len(stacks))
            d = None if d is None else np.take(d, every, axis=1)
        blocks = [blocks[i] for i in order]
        # the basis is the longest stack, so its axes lead: contract them in
        for j, B in enumerate(B for B in blocks if len(B) > 1):
            x = _iterated_table(table, len(B))
            if fields is not None or rows is not None and l - 1 in B:
                at = [last if l - 1 in B else every] + [every] * (len(B) - 1)
                x = x.reshape((N,) * len(B) + (-1,))[np.ix_(*at)].reshape(-1, x.shape[-1])
            a = np.matmul(x, a.reshape(a.shape[:j] + (len(basis[0]), -1)))
            d = None if d is None else x @ d.reshape(len(basis[0]), -1)
        placed = [p for B in blocks for p in reversed(B)]
        shape = [len(last) if p == l - 1 else F for p in placed]
        perm = [placed.index(p) for p in range(l - 1, -1, -1)]
        a = a.reshape(shape + [F, n, n]).transpose(perm + [l, l + 1, l + 2])
        A = np.array(a) if A is None else A.__iadd__(a)
        if d is not None:
            delta = d.reshape(shape + [F, n]).transpose(perm + [l, l + 1])
        del a, d
    memo, views = table.frame.derivatives, {id(chunk), id(sub)} - {id(table.fields)}
    for key in [k for k in memo if views.intersection(k)]:
        del memo[key]
    return _increment_coordinates(delta, A)


def _iterated_table(table: FieldTable, j: int) -> np.ndarray:
    """The coordinates of _iterated with j - 1 >= 1 derivatives, every
    sequence, as one stack of N^j rows, kept in the table's cache."""
    if ("W", j) not in table.cache:
        N, n = table.fields[1].shape[:2]
        x = np.concatenate([_iterated(table, j - 1, rows)
                            for rows in _chunks(N, N ** (j - 1) * (n + n * n))])
        table.cache[("W", j)] = x.reshape(N ** j, -1)
    return table.cache[("W", j)]


def structure_derivative(table: FieldTable, order: int = 1, fields=None) -> np.ndarray:
    """dc[s_k, .., s_1, p, i] = Y_{s_k} .. Y_{s_1} c: the exact order-k
    derivative along the real fields of bracket_coefficients c[a, b, i] at
    the point of the bracket table, for the pairs p = (a, b), a < b, of
    np.triu_indices, every s_j, a and b over fields (positions in it; all
    when None) and i over every field.  Order 0 is c itself.

    B c = br, B the matrix of the fields, holds along the bundle, to which
    they are tangent, so by Leibniz, with S = (s_1, .., s_k) and S1 not
    empty, and L any left inverse of B at the point,

        Y_S c = L (Y_S br - sum over S1 + S2 = S of (Y_S1 B) Y_S2 c),

    with Y_S1 B the iterated fields Y_S1 X_i and Y_S br[a, b] = Y_S Y_a X_b
    - (a <-> b) from _iterated.  So the entries over fields read the
    iterated fields among them, Y_S1 X_i on every i and the lower orders
    over fields alone.  L is the table's coframe, which maps their
    coordinates to components.  Every whole order is kept in the table's
    cache, read-only, and so are the lower orders each reads; order k is
    taken a chunk of s_k at a time.
    """
    key = ("tier", order)
    if fields is None and key in table.cache:
        return table.cache[key]
    N, n, k = len(table.fields[1]), table.frame.n, order
    every = np.arange(N) if fields is None else np.asarray(fields)
    F = len(every)
    a, b = np.triu_indices(F, 1)
    tiers = [structure_derivative(table, j, fields) for j in range(k)]
    dc = bracket_coefficients(table)[np.ix_(every, every)][a, b] if k == 0 else None
    done = 0
    for chunk in _chunks(F, F ** (k + 1) * (n + n * n)) if k else ():
        x = _iterated(table, k + 1, chunk, fields)
        rhs = x[(slice(None),) * k + (a, b)].__isub__(x[(slice(None),) * k + (b, a)])
        del x
        last = every if chunk is None else every[chunk]
        for S1 in itertools.chain.from_iterable(itertools.combinations(range(k), j)
                                                for j in range(k, 0, -1)):
            S2 = tuple(i for i in range(k) if i not in S1)
            c = tiers[len(S2)] if chunk is None or k - 1 not in S2 else tiers[len(S2)][chunk]
            x = _iterated_table(table, len(S1) + 1).reshape((N,) * (len(S1) + 1) + (-1,))
            if fields is not None or chunk is not None and k - 1 in S1:
                at = [last if k - 1 in S1 else every] + [every] * (len(S1) - 1)
                x = x[np.ix_(*at)]
            # axes (S2 reversed, S1 reversed, pair, coordinate)
            prod = np.moveaxis(np.tensordot(c, x, axes=([-1], [len(S1)])), len(S2), k)
            placed = S2[::-1] + S1[::-1]
            rhs -= prod.transpose([placed.index(p) for p in range(k - 1, -1, -1)] + [k, k + 1])
            del prod
        part = rhs @ table.coframe.T
        del rhs
        if dc is None:
            dc = np.empty((F,) + part.shape[1:])
        dc[done:done + len(part)] = part
        done += len(part)
    if fields is None:
        dc.flags.writeable = False  # shared by every reader of the table's orders
        table.cache[key] = dc
    return dc


@dataclass
class StructureFunctions:
    """Complete set of structure functions at a bundle point.

    ``R`` is in the holomorphic-sectional-curvature normalization
    (unit disc -> -4); ``R_raw`` is the bracket-native coefficient.
    ``table`` is the bracket table at the point, with its frame data, which
    the residuals and closed forms there read as well.
    ``brackets`` is the coframe on the brackets of the complexified basis
    pairs, of which every structure function is a slice; the structure
    equations read it with the coframe on the fields, their layout.
    """

    point: BundlePoint
    T: np.ndarray          # (n, n, n)  T^a_{bg}, antisymmetric in (b, g)
    R_raw: np.ndarray      # (n, n, n, n)  R^a_{b g dbar}
    Q: np.ndarray          # (m, m, m, m) Q^rho_{sig lam mubar}, m = n-1
    P_h: np.ndarray        # (m, m, n)  coefficient family paired with dh
    P_H: np.ndarray        # (m, m, m, n) family paired with dH
    h_vert: np.ndarray     # (m, m) pure quadratic form on the block
    H_vert: np.ndarray     # (m, m, m) cubic form H_{lam mu nubar}
    residual: float        # worst bracket-decomposition residual
    table: FieldTable = field(repr=False)
    brackets: tuple = field(repr=False)  # (theta, varpi), axes (x, y) of the pairs

    @property
    def R(self) -> np.ndarray:
        return HSC_NORMALIZATION * self.R_raw

    @property
    def u_embedding(self) -> np.ndarray:
        """The V rows of K: the complex block basis on the real fields."""
        K = _complex_combination_matrix(self.table.frame.n)
        return K[len(K) - (self.table.frame.n - 1) ** 2:]


def _carry(K: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_ab K[x, a] K[y, b] table[a, b, ...]: a table over pairs of real
    fields carried to pairs of complexified basis fields."""
    N = len(K)
    tx = np.matmul(K, table)  # contract b
    return np.matmul(K, tx.reshape(N, -1)).reshape(tx.shape)


def _sup(*arrays) -> float:
    """Largest modulus of the entries of the arrays; 0 when there are none."""
    return float(np.max(np.abs(np.concatenate([a.ravel() for a in arrays])), initial=0.0))


def _relative(block, *terms) -> float:
    """The largest modulus of the sum of the terms at index block, relative
    to max(1, the largest modulus of their entries there)."""
    parts = [t[block] for t in terms]
    return _sup(sum(parts)) / max(1.0, _sup(*parts))


def extract_structure(prog: MetricProgram, p: BundlePoint) -> StructureFunctions:
    """Read the structure functions off the coframe on the exact brackets:
    each is a slice of its values on the brackets of the complexified basis
    (in the order of _complex_combination_matrix), T = -theta on [eh, eh],
    R_raw = -varpi on [eh, ehb], Q = varpi[1:, 1:] on [ev, evb] plus I, and
    P_h, P_H = varpi[1:, 0], varpi[1:, 1:] on [evb, eh]: c carried to the
    pairs by K and contracted with the coframe on the real fields, which
    is their layout (W, G0).  The residual is the part of each bracket off
    the fields: br less c times the fields' coordinates, relative to
    max(1, |br|)."""
    n = prog.dim
    m = n - 1
    fd = frame_data(prog, p.z, p.U)
    table = _bracket_table(fd)
    K = _complex_combination_matrix(n)
    N = len(K)

    c = bracket_coefficients(table)
    resid = table.br - c @ _increment_coordinates(*table.fields)
    scale = np.maximum(1.0, np.linalg.norm(table.br, axis=2))
    worst = float(np.max(np.linalg.norm(resid, axis=2) / scale))
    if worst > DECOMPOSITION_TOL:
        raise FinslerError(f"bracket decomposition residual {worst:.2e} exceeds tolerance")

    G0, W = _stack_layout(n)
    on = _carry(K, c @ np.concatenate([W, G0.reshape(N, -1)], axis=1))
    bth, bw = on[..., :n], on[..., n:].reshape(N, N, n, n)
    eh, ehb, ev, evb = (slice(0, n), slice(n, 2 * n), slice(2 * n, 2 * n + m),
                        slice(2 * n + m, 2 * n + 2 * m))
    T, R_raw, Q, P_h, P_H = map(np.ascontiguousarray, (
        -bth[eh, eh].transpose(2, 0, 1), -bw[eh, ehb].transpose(2, 3, 0, 1),
        bw[ev, evb][..., 1:, 1:].transpose(2, 3, 0, 1) + np.eye(m * m).reshape(m, m, m, m),
        bw[evb, eh][..., 1:, 0].transpose(2, 0, 1),
        bw[evb, eh][..., 1:, 1:].transpose(2, 3, 0, 1)))

    C20 = fd.C(2, 0)
    C21 = fd.C(2, 1)
    return StructureFunctions(
        point=p, T=T, R_raw=R_raw, Q=Q, P_h=P_h, P_H=P_H, brackets=(bth, bw),
        h_vert=C20[1:, 1:].copy(), H_vert=C21[1:, 1:, 1:].copy(),
        residual=worst, table=table,
    )


# --------------------------------------------------------------------------
# closed forms for Q and P
# --------------------------------------------------------------------------

def closed_form_Q(fd: FrameData) -> np.ndarray:
    """Q[rho-1, sig-1, lam-1, mu-1] from the quartic form at the point of fd:
    the vertical curvature has the closed form
    HH_{mubar rhobar sig lam} - sum_nu H_{nu mubar rhobar} H_{sig lam nubar}
    (the nu = 0 term reproduces the quadratic-form product)."""
    Q = fd.C(2, 2).transpose(3, 0, 1, 2) - np.einsum("umr,slu->rslm", fd.C(1, 2), fd.C(2, 1))
    return Q[1:, 1:, 1:, 1:]


def _complex_pairs(d: np.ndarray):
    """(holomorphic, antiholomorphic) derivatives along e_g-hat and its
    conjugate, leading index g, from derivatives d along the 2n real lifts
    f_{2g} (of e_g) and f_{2g + 1} (of i e_g) stacked on the first axis."""
    d0, d1 = d[0::2], d[1::2]
    return 0.5 * (d0 - 1j * d1), 0.5 * (d0 + 1j * d1)


def _complex_lift_derivative(table: FieldTable, form):
    """Derivatives along the holomorphic lifts e_g-hat and their conjugates,
    as _complex_pairs returns them, of the (p, q) frame form for form =
    (2, 0), (2, 1) or (1, 2), and of the torsion T = E - E^T for form = "T":
    read off the lift rows 0..2n-1 of the derivatives along the fields,
    which the table's frame data keeps since _bracket_table took them."""
    n = table.frame.n
    dE, d20, d21 = (d[:2 * n] for d in frame_derivatives(table.frame, (table.fields,)))
    if form == "T":
        return _complex_pairs(dE - np.swapaxes(dE, -1, -2))
    if form == (1, 2):
        # F^2 is real, so C(1, 2)[a, b, c] = conj C(2, 1)[b, c, a], and so are
        # their derivatives along real fields
        return _complex_pairs(np.conj(d21).transpose(0, 3, 1, 2))
    return _complex_pairs({(2, 0): d20, (2, 1): d21}[form])


def closed_form_P(table: FieldTable):
    """The two derivative families of the structure functions at the point
    of the bracket table:

        P_h[nu, rho, g]      = -lift_g(conj h_pure)[nu, rho]
        P_H[nu, sig, rho, g] = -lift_g(H_(1,2))[sig, nu, rho]

    where lift_g is the derivative along the holomorphic horizontal lift.
    Index placement is fixed against the bracket extraction; the tests
    assert agreement on a non-Hermitian metric with base dependence.
    """
    # lift_g(conj f) = conj(conj-lift_g(f))
    d20c = np.conj(_complex_lift_derivative(table, (2, 0))[1])[:, 1:, 1:]
    d12 = _complex_lift_derivative(table, (1, 2))[0][:, 1:, 1:, 1:]
    return -d20c.transpose(1, 2, 0), -d12.transpose(2, 1, 3, 0)


# --------------------------------------------------------------------------
# the dual coframe
# --------------------------------------------------------------------------

def _coframe(fd: FrameData, X: np.ndarray):
    """(theta, thetabar, omega, omegabar) on complexified frame increments
    X = (delta, deltabar, A, Abar), one or a stack on leading axes.  On
    frame increments the coframe needs no inverse of the frame: theta is
    delta and omega is A - E(delta), and likewise in the conjugate slots."""
    n = fd.n
    th, tb = X[..., :n], X[..., n:2 * n]
    A = X[..., 2 * n:].reshape(X.shape[:-1] + (2, n, n))
    oh = A[..., 0, :, :] - np.einsum("abg,...g->...ab", fd.E, th)
    oa = A[..., 1, :, :] - np.einsum("abg,...g->...ab", np.conj(fd.E), tb)
    return th, tb, oh, oa


def _varpi(fd: FrameData, oh: np.ndarray, oa: np.ndarray) -> np.ndarray:
    """The holomorphic skew-Hermitianized connection matrix varpi from the
    connection forms omega, omegabar that _coframe returns."""
    # corr[a-1, b-1, lam] = C21[b, lam, a] multiplies omega[lam, 0]
    corr = np.transpose(fd.C(2, 1), (2, 0, 1))[1:, 1:]
    w = np.zeros(oh.shape, dtype=complex)
    w[..., :, 0] = oh[..., :, 0]
    w[..., 0, 1:] = -oa[..., 1:, 0]
    w[..., 1:, 1:] = oh[..., 1:, 1:] + np.einsum("abl,...l->...ab", corr, oh[..., :, 0])
    return w


def _coframe_matrix(fd: FrameData) -> np.ndarray:
    """L[i, u]: the component on real field i of element u of
    _increment_basis, at the point of fd; L times the coordinates of the
    fields is the identity.  The complexified basis is the dual frame of
    the coframe components theta, thetabar, varpi[lam, 0], -varpi[0, lam],
    -i varpi[0, 0] and varpi[rho, sig] (_complex_combination_matrix), so
    their values on an increment are its components on that basis, which K
    carries to the real fields; on a real increment those are real."""
    n = fd.n
    th, thb, oh, oa = _coframe(fd, complexify(*_increment_basis(n)))
    w = _varpi(fd, oh, oa)
    eta = np.concatenate([th, thb, w[:, 1:, 0], -w[:, 0, 1:], -1j * w[:, :1, 0],
                          w[:, 1:, 1:].reshape(len(w), -1)], axis=1)
    return np.real(eta @ _complex_combination_matrix(n)).T


# --------------------------------------------------------------------------
# structure equations
# --------------------------------------------------------------------------

def structure_equation_residuals(sf: StructureFunctions) -> dict:
    """Residuals of the first-order identities satisfied by the coframe.

    Both sides of the torsion and curvature equations are evaluated on all
    pairs of the complexified parallelism basis at the point of sf, from the
    exact brackets and the frame forms there, with no difference quotient.
    The coframe on the basis is K times its values on the real fields,
    their layout (W, G0), and on the brackets it is the values
    extract_structure read the structure functions from, carried by sf; no
    coframe is evaluated here.  Each residual is relative to max(1, the
    largest entry of the terms its equation sums).  Also reports the sup-norms of the purely
    Finslerian torsion/curvature coefficient families.
    """
    fd = sf.table.frame
    n = fd.n
    K = _complex_combination_matrix(n)
    G0, w = _stack_layout(n)
    TH, THb = (K @ w).T, (K @ np.conj(w)).T  # (n, N)
    W = np.moveaxis(np.tensordot(K, G0, 1), 0, -1)  # (n, n, N)

    # d eta (X_x, X_y) = X(eta(Y)) - Y(eta(X)) - eta([X, Y]); the coframe is
    # dual to the parallelism, so the pairings eta(X) are constants and only
    # the bracket term is left
    dTH = -np.moveaxis(sf.brackets[0], -1, 0)  # (n, N, N)
    dW = -np.moveaxis(sf.brackets[1], (-2, -1), (0, 1))  # (n, n, N, N)

    # torsion equation
    C21 = fd.C(2, 1)
    Theta = 0.5 * np.einsum("abg,bgij->aij", sf.T, _wedge(TH, TH))
    # H_{abar mu lam} = C21[mu, lam, a]; contraction over mu, lam >= 1
    Sigma = np.einsum("mla,lmij->aij", C21[1:, 1:, :], _wedge(W[1:, 0], TH[1:]))
    eq533 = _relative((), dTH, _wedge_matrix_vector(W, TH), -Theta, -Sigma)

    # curvature equations, matrix form
    Omega = np.einsum("abgd,gi,dj->abij", sf.R_raw, TH, THb) \
        - np.einsum("abgd,gj,di->abij", sf.R_raw, TH, THb)
    Pi, Phi, pi_norm, phi_norm = _pi_phi_forms(sf.table, TH, THb, W)
    terms = (dW, _wedge_matrix_matrix(W), -Omega, -Pi, -Phi)
    b = slice(1, None)
    eq534 = _relative((0, 0), *terms)
    eq535 = max(_relative((b, 0), *terms), _relative((0, b), *terms))
    eq536 = _relative((b, b), *terms)

    # omega skew-symmetry of the curvature 2-form family
    skew = float(np.max(np.abs(sf.R_raw - np.conj(np.transpose(sf.R_raw, (1, 0, 3, 2))))))

    # structure-group linear relations on the connection forms of every
    # real field, on which omega_a = conj(omega_h); each sets omega_h +
    # omega_a^T against the form corrections, so omega_h scales it; omega_h
    # is the generator stack with its lift slots, E(w_g), set to 0
    oh = sf.table.fields[1].copy()
    oh[:2 * n] = 0
    C20 = fd.C(2, 0)
    eq529 = vertical_relations_residual(oh, np.conj(oh), C20, C21, fd.C(1, 2)) / max(1.0, _sup(oh))

    return {
        "eq529": eq529,
        "eq533": eq533,
        "eq534": eq534,
        "eq535": eq535,
        "eq536": eq536,
        "omega_skew": skew,
        "decomposition_residual": sf.residual,
        "finsler_norms": {"sigma": _sup(C21[1:, 1:, :]), "sigma0": _sup(C20[1:, 1:]),
                          "pi": pi_norm, "phi": phi_norm},
    }


def _wedge(A, B):
    # (eta^a wedge xi^b)(X_i, X_j) for rows of form values, A[a, i] and B[b, i]
    return np.einsum("ai,bj->abij", A, B) - np.einsum("aj,bi->abij", A, B)


def _wedge_matrix_vector(W, TH):
    # (varpi ^ theta)^a = sum_b varpi[a,b] ^ theta^b
    return (np.einsum("abi,bj->aij", W, TH) - np.einsum("abj,bi->aij", W, TH))


def _wedge_matrix_matrix(W):
    # (varpi ^ varpi)[a,b] = sum_c varpi[a,c] ^ varpi[c,b]
    return (np.einsum("aci,cbj->abij", W, W) - np.einsum("acj,cbi->abij", W, W))


def _pi_phi_forms(table, TH, THb, W):
    """Oblique and vertical Finsler curvature 2-forms on basis pairs, at the
    point of the bracket table."""
    fd = table.frame
    n = fd.n
    N = TH.shape[1]
    Pi = np.zeros((n, n, N, N), dtype=complex)
    Phi = np.zeros((n, n, N, N), dtype=complex)
    if n == 1:
        return Pi, Phi, 0.0, 0.0
    b = slice(1, n)
    # conj-lift_g(h)[lam, rho], lift_g(H_(1,2))[mu, lam, rho] and
    # conj-lift_g(H_(2,1))[mu, rho, lam], lam, mu, rho >= 1
    d20b = _complex_lift_derivative(table, (2, 0))[1][:, b, b]
    d12 = _complex_lift_derivative(table, (1, 2))[0][:, b, b, b]
    d21b = _complex_lift_derivative(table, (2, 1))[1][:, b, b, b]
    # varpi[0, rho] ^ theta^g and varpi[rho, 0] ^ thetabar^g
    w0r = _wedge(W[0, b], TH)
    wr0 = _wedge(W[b, 0], THb)
    Pi[b, 0] = -np.einsum("glr,rgij->lij", np.conj(d20b), w0r)
    Pi[0, b] = -np.einsum("glr,rgij->lij", d20b, wr0)
    Pi[b, b] = -(np.einsum("gmlr,rgij->lmij", d12, w0r)
                 + np.einsum("gmrl,rgij->lmij", d21b, wr0))
    # Phi[lam, mu] = sum_{rho, sig} Q[sig, mu, rho, lam] varpi[rho, 0] ^ varpi[0, sig]
    Q = closed_form_Q(fd)
    Phi[b, b] = np.einsum("smrl,rsij->lmij", Q, _wedge(W[b, 0], W[0, b]))
    return Pi, Phi, _sup(d20b, d12, d21b), _sup(Q)


# --------------------------------------------------------------------------
# Bianchi identities
# --------------------------------------------------------------------------

def _lift_derivative_of(sf: StructureFunctions):
    """Derivatives of the raw curvature R_raw along the 2n horizontal lifts
    at the point of sf.  R_raw is -varpi on [eh, ehb]: the structure
    coefficients c carried by K and contracted with varpi on the fields,
    the constant G0 of _stack_layout, the coframe being dual to them.  K's
    first 2n rows, eh and ehb, are zero off the lifts, so the brackets read
    are those among the lifts, and their derivatives are structure_derivative
    over the lifts alone, carried and contracted alike, in one einsum over
    the rows.  Returns (holomorphic, antiholomorphic) arrays with leading
    index g."""
    table = sf.table
    n, N = table.frame.n, len(table.fields[1])
    K = _complex_combination_matrix(n)[:2 * n, :2 * n]
    a, b = np.triu_indices(2 * n, 1)
    dc = np.zeros((2 * n, 2 * n, 2 * n, N))
    dc[:, a, b] = structure_derivative(table, fields=range(2 * n))
    dc[:, b, a] = -dc[:, a, b]
    # sum_abi K[g, a] K[n + d, b] dc[s, a, b, i] varpi[i, k]
    dw = np.einsum("ga,sadk->skgd", K[:n], K[n:] @ (dc @ _stack_layout(n)[0].reshape(N, -1)))
    return _complex_pairs(-dw.reshape((2 * n,) + (n,) * 4))


def bianchi_residuals(sf: StructureFunctions) -> dict:
    """Residuals of the differential identities tying the torsion, the
    curvature and their horizontal derivatives.  Every derivative along the
    lifts is exact: the torsion's from those of the connection, the
    curvature's from the exact derivatives of the structure coefficients
    (_lift_derivative_of), so all four residuals are round-off.  sf is
    extract_structure at the point, whose frame data and bracket table are
    the ones read.  Each identity is one array over its free indices; a sum
    over a cyclic or antisymmetric set of them is a sum of transposes."""
    T, R = sf.T, sf.R_raw
    table = sf.table
    C21 = table.frame.C(2, 1)
    dT_h, dT_a = _complex_lift_derivative(table, "T")
    dR_h, dR_a = _lift_derivative_of(sf)
    d12_h = _complex_lift_derivative(table, (1, 2))[0]
    d21_a = _complex_lift_derivative(table, (2, 1))[1]

    # cyclic torsion identity: W[a, b, g, d] = dT_h[b][a, g, d]
    # + sum_e T[a, e, b] T[e, g, d], summed over the cyclic shifts of (b, g, d)
    W = dT_h.transpose(1, 0, 2, 3) + np.einsum("aeb,egd->abgd", T, T)
    r1 = W + W.transpose(0, 3, 1, 2) + W.transpose(0, 2, 3, 1)
    # antisymmetrized curvature vs torsion derivative
    M = R - np.einsum("lba,lgd->abgd", C21, R[:, 0])
    r2 = M - M.transpose(0, 2, 1, 3) - dT_a.transpose(1, 2, 3, 0)
    # holomorphic derivative identity, antisymmetric in (g, d)
    H = dR_h.transpose(1, 2, 0, 3, 4) + np.einsum("gbal,lde->abgde", d12_h, R[0])
    r3 = H - H.transpose(0, 1, 3, 2, 4) + np.einsum("abze,zgd->abgde", R, T)
    # antiholomorphic derivative identity (conjugate mirror of the
    # holomorphic one), antisymmetric in (d, e)
    A = dR_a.transpose(1, 2, 3, 0, 4) + np.einsum("dbla,lge->abgde", d21_a, R[:, 0])
    r4 = A - A.transpose(0, 1, 2, 4, 3) + np.einsum("abgz,zde->abgde", R, np.conj(T))
    scale = max(1.0, float(np.max(np.abs(R))), float(np.max(np.abs(T))))
    return {key: _sup(r) / scale for key, r in zip(("b541", "b542", "b543", "b544"),
                                                   (r1, r2, r3, r4))}
