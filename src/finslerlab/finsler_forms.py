"""Multilinear fiber forms of a complex Finsler metric.

The quadratic, cubic and quartic fiber forms are the order-2, 3, 4 jets of
F^2 in the fiber variables, contracted with frame vectors.  An index is an
integer 0..n-1 for a holomorphic slot, or ``bar(k)`` for the conjugate slot;
values only depend on the multiset of indices of each type (total symmetry).
form_derivative differentiates a frame-contracted form along ambient tangents;
tensor_derivative, which it calls, does the same for any frame-contracted
tensor given with its base and fiber derivatives, and
tensor_second_derivative takes its second derivatives along pairs of
tangents from those that raw_derivatives reads off a jet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import groupby

import numpy as np

from .jets import V, VBAR, Z, ZBAR, Jet
from .metric_dsl import EvaluationError, FinslerError, MetricProgram

HOMOGENEITY_SEED = 0  # seed of the six random directions of homogeneity_identities
LEVI_TOL = 1e-10  # Levi eigenvalues above this are positive, below -LEVI_TOL negative
HERMITIAN_TOL = 1e-8  # a cubic fiber form below this at every sample point is zero


def bar(k: int) -> int:
    """Barred (conjugate) version of index k; involutive."""
    return ~k


def is_barred(idx: int) -> bool:
    return idx < 0


def frame_contract(t: np.ndarray, p: int, q: int, U: np.ndarray) -> np.ndarray:
    """Contract the p holomorphic slots of a (p, q) fiber tensor with the
    columns of U and its q conjugate slots with their conjugates."""
    for _ in range(p):
        t = np.tensordot(t, U, axes=(0, 0))
    for _ in range(q):
        t = np.tensordot(t, np.conj(U), axes=(0, 0))
    return t


def form_derivative(jet, U: np.ndarray, pq: tuple[int, int], dz, dU) -> np.ndarray:
    """Derivatives of the frame-contracted (p, q) fiber form
    frame_contract(jet.fiber_tensor(p, q), p, q, U) along K real ambient
    tangents (dz[k], dU[k]) at (z, U), where jet is the jet of F^2 at
    (z, U[:, 0]) with fiber order at least p + q + 1 and base order 1.

    dz has shape (K, n) and dU shape (K, n, n); returns shape
    (K,) + (n,) * (p + q).
    """
    p, q = pq
    return tensor_derivative(U, pq, jet.fiber_tensor(p, q), jet.fiber_tensor_dbase(p, q),
                             (jet.fiber_tensor(p + 1, q),
                              np.moveaxis(jet.fiber_tensor(p, q + 1), p, 0)), dz, dU)


def tensor_derivative(U: np.ndarray, pq: tuple[int, int], raw: np.ndarray, dbase, dfiber,
                      dz, dU) -> np.ndarray:
    """Derivatives of frame_contract(raw, p, q, U) along K real ambient
    tangents (dz[k], dU[k]) at (z, U), where raw is a coordinate tensor with
    p holomorphic slots, then q conjugate ones, that depends on the base
    point z and the fiber point e_0 = U[:, 0].

    dbase = (d_z raw, d_zbar raw) and dfiber = (d_v raw, d_vbar raw), each
    with the derivative's index leading.  Shapes as for form_derivative.
    Each direction takes the matrix-vector and matrix products a single
    direction would (np.matmul over the stack, not one product of the
    stack), so direction k of a stack is bit-identical to that direction
    alone.
    """
    p, q = pq
    dz = np.asarray(dz, dtype=complex)
    dU = np.asarray(dU, dtype=complex)
    K, n = dz.shape
    frame = [U] * p + [np.conj(U)] * q
    cycle = (0,) + tuple(range(2, p + q + 1)) + (1,)  # slot 1 of a stack moved last

    def contract(t, s=0):
        # slots s.. of the stack t, shape (K,) + (n,) * (p + q), contracted
        # with their frame matrices in frame_contract's order
        for M in frame[s:]:
            t = np.matmul(t.transpose(cycle).reshape(K, -1, n), M).reshape(t.shape)
        return t

    def contract_first(vecs, t):
        # t contracted in its first slot with each vector of the stack vecs
        return np.matmul(vecs[:, None], t.reshape(n, -1)).reshape((K,) + (n,) * (p + q))

    TZ, TZb = dbase
    out = contract(np.einsum("sk,k...->s...", dz, TZ)
                   + np.einsum("sk,k...->s...", np.conj(dz), TZb))
    # the motion of the fiber point e_0 = U[:, 0]
    de0 = dU[:, :, 0]
    out = out + contract(contract_first(de0, dfiber[0]))
    out = out + contract(contract_first(np.conj(de0), dfiber[1]))
    # the motion of the frame, one slot at a time
    for s, dM in enumerate([dU] * p + [np.conj(dU)] * q):
        head = np.moveaxis(frame_contract(raw, min(s, p), max(s - p, 0), U), 0, -1)
        out = out + contract(np.matmul(head.reshape(-1, n), dM).reshape(out.shape), s + 1)
    return out


# the jet variables (z, zbar, v, vbar) in the order of raw_derivatives' axes
_KINDS = (Z, ZBAR, V, VBAR)


def raw_derivatives(partials, p: int, q: int, lead: tuple = ()):
    """(d1, d2): the first and second derivatives of the coordinate tensor
    t = partials(p, q, lead) along the 4n jet variables (z, zbar, v, vbar),
    of shapes (4n,) + t.shape and (4n, 4n) + t.shape.  partials is a
    Jet.partials, or a function of the same arguments that picks the jet
    holding each read."""
    d1 = np.concatenate([partials(p, q, (x,) + lead) for x in _KINDS])
    d2 = np.concatenate([np.concatenate([partials(p, q, (x, y) + lead) for y in _KINDS], axis=1)
                         for x in _KINDS])
    return d1, d2


def tensor_second_derivative(U: np.ndarray, pq: tuple[int, int], raw: np.ndarray, d1, d2,
                             t1, t2) -> np.ndarray:
    """Second derivatives of frame_contract(raw, p, q, U) along every pair
    (j, l) of two stacks of real ambient tangents t1 = (dz1, dU1), shapes
    (K1, n) and (K1, n, n), and t2 = (dz2, dU2) likewise, at (z, U); raw
    depends on z and on the fiber point e_0 = U[:, 0], with the derivatives
    (d1, d2) that raw_derivatives returns.  Returns shape (K1, K2) +
    (n,) * (p + q).

    The terms are tensor_derivative's, differentiated once more: raw's
    second derivative along the pair's increments of (z, zbar, e_0,
    conj e_0) in every slot frame-contracted; its first derivative along
    one tangent with one frame slot moved along the other; raw with two
    distinct frame slots moved, one along each tangent.  The frame and e_0
    are linear in U, so nothing else moves.
    """
    p, q = pq
    n = len(U)
    k = p + q
    (dz1, dU1), (dz2, dU2) = ((np.asarray(a, dtype=complex) for a in t) for t in (t1, t2))
    frame = [U] * p + [np.conj(U)] * q
    # the frame slots' motions, stack 1 along the first pair axis, stack 2 along the second
    move1 = [dU1[:, None]] * p + [np.conj(dU1[:, None])] * q
    move2 = [dU2[None]] * p + [np.conj(dU2[None])] * q
    cycle = (0, 1) + tuple(range(3, k + 2)) + (2,)  # the first slot moved last

    def contract(t, mats):
        # slot s of t, whose two leading axes broadcast over the pairs, with mats[s]
        for M in mats:
            t = np.matmul(t.transpose(cycle).reshape(t.shape[:2] + (-1, n)), M)
            t = t.reshape(t.shape[:2] + (n,) * k)
        return t

    def increments(dz, dU):
        de0 = dU[:, :, 0]
        return np.concatenate([dz, np.conj(dz), de0, np.conj(de0)], axis=1)

    x1, x2 = increments(dz1, dU1), increments(dz2, dU2)
    w = len(d1)
    r2 = np.matmul(x2, (x1 @ d2.reshape(w, -1)).reshape(len(x1), w, -1))
    out = contract(r2.reshape((len(x1), len(x2)) + raw.shape), frame)
    r1 = ((x1 @ d1.reshape(w, -1)).reshape((len(x1), 1) + raw.shape),
          (x2 @ d1.reshape(w, -1)).reshape((1, len(x2)) + raw.shape))
    for s in range(k):
        out = out + contract(r1[0], frame[:s] + [move2[s]] + frame[s + 1:])
        out = out + contract(r1[1], frame[:s] + [move1[s]] + frame[s + 1:])
        for t in range(k):
            if t != s:
                mats = list(frame)
                mats[s], mats[t] = move1[s], move2[t]
                out = out + contract(raw[None, None], mats)
    return out


def raw_fiber_tensors(prog: MetricProgram, z, v, max_order: int = 4) -> dict:
    """All coordinate fiber tensors d^p_v d^q_vbar F^2 with p+q <= max_order."""
    jet = prog.jet_unchecked(z, v, max_order, 0)
    return {(p, q): jet.fiber_tensor(p, q)
            for p in range(max_order + 1) for q in range(max_order + 1 - p)}


@dataclass
class FinslerForms:
    """Frame components of the fiber forms at a point (z, v)."""

    z: np.ndarray
    v: np.ndarray
    frame: np.ndarray  # columns are the evaluation frame
    comp: dict = field(repr=False)  # (p, q) -> frame-contracted tensor

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def h_mixed(self) -> np.ndarray:
        """Hermitian matrix h(e_a, conj(e_b))."""
        return self.comp[(1, 1)]

    @property
    def h_pure(self) -> np.ndarray:
        """Symmetric matrix h(e_a, e_b); vanishes iff F comes from a Hermitian metric."""
        return self.comp[(2, 0)]

    def _lookup(self, indices) -> complex:
        unb = tuple(sorted(i for i in indices if not is_barred(i)))
        brd = tuple(sorted(~i for i in indices if is_barred(i)))
        t = self.comp[(len(unb), len(brd))]
        return complex(t[unb + brd]) if unb + brd else complex(t)

    def H(self, a, b, c) -> complex:
        """Cubic form component; use bar(k) for conjugate indices."""
        return self._lookup((a, b, c))

    def HH(self, a, b, c, d) -> complex:
        """Quartic form component; use bar(k) for conjugate indices."""
        return self._lookup((a, b, c, d))


def forms_at(prog: MetricProgram, z, v, frame=None, max_order: int = 4) -> FinslerForms:
    """Fiber forms at (z, v) in the given frame (coordinate frame if omitted)."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    n = prog.dim
    if frame is None:
        frame = np.eye(n, dtype=complex)
    frame = np.asarray(frame, dtype=complex)
    if np.linalg.matrix_rank(frame) < n:
        raise FinslerError("frame columns are linearly dependent")
    raw = raw_fiber_tensors(prog, z, v, max_order)
    comp = {pq: frame_contract(t, *pq, frame) for pq, t in raw.items()}
    return FinslerForms(z=z, v=v, frame=frame, comp=comp)


# --------------------------------------------------------------------------
# homogeneity identities
# --------------------------------------------------------------------------

def _nested(ids, phase=lambda unb: 1) -> list:
    """The nested derivative of F^2 along the distinct stack rows ids, as
    terms (phase(unb), unb, brd), one per split of ids into the rows unb of
    the holomorphic slots and brd of the conjugate ones."""
    unbs = [tuple(x for b, x in enumerate(ids) if mask >> b & 1) for mask in range(1 << len(ids))]
    return [(phase(u), u, tuple(x for x in ids if x not in u)) for u in unbs]


@cache
def _homogeneity_plan():
    """The residual rows of homogeneity_identities, each a sum of terms
    c T_pq(A[unb], conj A[brd]).  Returns (reads, coef, row, ends): reads
    maps (p, q) to the index rows unb + brd at which T_pq is read; coef and
    row give each reading's coefficient and residual row, in the order of
    reads; ends splits the rows into the families g (the D that scale (b)
    and (c)), b, c, d and e."""
    V = 6  # the row of v in A = [d_0..d_5, v]
    fam = {"g": [], "b": [], "c": [], "d": [], "e": []}
    for k in range(1, 5):
        for t in range(7 - k):
            ids = tuple(range(t, t + k))
            fam["g"].append(_nested(ids))
            fam["b"].append(_nested(ids + (V,)) + [(k - 2, u, b) for _, u, b in _nested(ids)])
            fam["c"].append(_nested(ids, lambda u: 1j * (2 * len(u) - k))
                            + _nested(ids + (V,), lambda u: 1j if V in u else -1j))
    for x in range(6):
        fam["d"] += [[(1, (x, V), ())], [(1, (x,), (V,)), (-1, (x,), ())]]
        for y, zc in ((y, (x + 2) % 6) for y in range(x + 1, 6)):
            fam["e"] += [[(1, (x, V), (y,))], [(1, (x,), (y, V))],
                         [(1, (x, y, V), ()), (1, (x, y), ())],
                         [(1, (x, y), (V,)), (-1, (x, y), ())],
                         [(1, (x, y), (zc, V))], [(1, (x, V), (y, zc))],
                         [(1, (x, y, V), (zc,)), (1, (x, y), (zc,))],
                         [(1, (x,), (y, zc, V)), (1, (x,), (y, zc))]]
    rows = [row for f in fam.values() for row in f]
    terms = sorted((((len(u), len(b)), u + b, c, r) for r, row in enumerate(rows)
                    for c, u, b in row if c), key=lambda t: t[0])
    reads = {pq: np.array([t[1] for t in same]) for pq, same in groupby(terms, lambda t: t[0])}
    return (reads, np.array([t[2] for t in terms], dtype=complex),
            np.array([t[3] for t in terms]), np.cumsum([len(f) for f in fam.values()])[:-1])


def homogeneity_identities(prog: MetricProgram, z, v) -> dict:
    """Residuals of the Euler/rotation identities satisfied by any metric
    with F(lambda v) = |lambda| F(v), relative to the local scale of F^2.

    With six random directions d_0..d_5 (seed HOMOGENEITY_SEED) and the
    nested derivative D(x_1..x_k) of F^2 along trivially extended real
    tangents, the identity families are
    (a) dF^2(v) = F^2, and the radial and rotational derivatives of F^2;
    (b) degree: D(x_1..x_k, v) = (2 - k) D(x_1..x_k) for k <= 4;
    (c) rotation: sum_j D(.., i x_j, ..) + D(x_1..x_k, i v) = 0;
    (d) h(x, v) = 0 and h(x, vbar) = dF^2(x);
    (e) the cubic and quartic forms contracted with v, against lower forms;
    (b) and (c) relative to max(scale, |D(x_1..x_k)|).  Every term reads a
    raw (p, q) fiber tensor at rows of A = [d_0..d_5, v] (conj A in the
    conjugate slots), each tensor contracted once.  Phase rule: i x in a
    holomorphic slot multiplies a term by i, in a conjugate slot by -i, so
    no rotated vector is contracted.
    """
    v = np.asarray(v, dtype=complex)
    n = prog.dim
    rng = np.random.default_rng(HOMOGENEITY_SEED)
    A = np.array([rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(6)]
                 + [v])
    raw = raw_fiber_tensors(prog, z, v, 5)
    f2 = float(np.real(raw[(0, 0)]))
    scale = max(1.0, abs(f2))
    reads, coef, row, ends = _homogeneity_plan()
    terms = coef * np.concatenate([_read(raw[pq], pq[0], A, ix) for pq, ix in reads.items()])
    sums = np.abs(np.bincount(row, terms.real) + 1j * np.bincount(row, terms.imag))
    g, b, c, d, e = np.split(sums, ends)
    d10 = complex(raw[(1, 0)] @ v)
    res = {"a_radial": abs(d10 + np.conj(d10) - 2 * f2) / scale,
           "a_rotation": abs(1j * d10 - 1j * np.conj(d10)) / scale,
           "d_radial10": abs(d10 - f2) / scale,
           "b_degree": float(np.max(b / np.maximum(scale, g))),
           "c_rotation": float(np.max(c / np.maximum(scale, g))),
           "d_pairing": float(np.max(d)) / scale, "e_cubic_quartic": float(np.max(e)) / scale}
    res["max"] = max(res.values())
    return res


def _read(t: np.ndarray, p: int, A: np.ndarray, ix: np.ndarray) -> np.ndarray:
    """t(A[i_1], .., A[i_p], conj A[i_p+1], ..) for each row i of ix: the
    first slot contracted with the whole stack, each later one with a row."""
    (m, k), n = ix.shape, A.shape[1]
    stack = [A] * p + [np.conj(A)] * (k - p)
    out = (stack[0] @ t.reshape(n, -1))[ix[:, 0]]
    for s in range(1, k):
        out = np.matmul(stack[s][ix[:, s], None], out.reshape(m, n, -1))[:, 0]
    return out[:, 0]


# --------------------------------------------------------------------------
# Levi form and the Hermitian criterion
# --------------------------------------------------------------------------

@dataclass
class LeviReport:
    eigenvalues: np.ndarray  # real, length n-1
    verdict: str  # strongly-pseudoconvex | non-degenerate | degenerate
    basis: np.ndarray  # columns span the maximal complex tangent distribution
    e0: np.ndarray  # the unit fiber point v / F(v) the form is taken at
    jet: Jet  # the jet(2, 0) of F^2 there, which the adapted frame reads


def levi_check(prog: MetricProgram, z, v) -> LeviReport:
    """Eigenvalues of the Levi form of the indicatrix along its maximal
    complex tangent distribution at v/F(v)."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    f = prog.norm(z, v)
    if f == 0:
        raise EvaluationError("v has zero norm")
    vhat = v / f
    jet = prog.jet_unchecked(z, vhat, 2, 0)
    grad = jet.fiber_tensor(1, 0)
    gnorm = np.linalg.norm(grad)
    if gnorm < 1e-12:
        raise FinslerError("degenerate indicatrix: dF^2 vanishes at the point")
    n = prog.dim
    if n == 1:
        return LeviReport(eigenvalues=np.zeros(0), verdict="strongly-pseudoconvex",
                          basis=np.zeros((1, 0), dtype=complex), e0=vhat, jet=jet)
    # kernel of X -> sum X^i grad_i via SVD of the row vector
    _, _, vh = np.linalg.svd(grad[None, :])
    basis = np.conj(vh[1:]).T  # columns, orthonormal, grad . col = 0
    gmix = jet.fiber_tensor(1, 1)
    levi = np.conj(basis).T @ gmix @ basis
    eig = np.linalg.eigvalsh(0.5 * (levi + np.conj(levi).T))
    if np.min(eig) > LEVI_TOL:
        verdict = "strongly-pseudoconvex"
    elif np.min(np.abs(eig)) > LEVI_TOL:
        verdict = "non-degenerate"
    else:
        verdict = "degenerate"
    return LeviReport(eigenvalues=eig, verdict=verdict, basis=basis, e0=vhat, jet=jet)


def hermitian_test(prog: MetricProgram, points):
    """True iff the cubic fiber form vanishes on all sample points.

    Returns (is_hermitian, witness); the witness is (z, v, indices, value)
    for the largest offending component, or None.
    """
    if not points:
        raise FinslerError("hermitian_test requires a nonempty sample set")
    worst = (0.0, None)
    for z, v in points:
        raw = raw_fiber_tensors(prog, z, v, 3)
        for (p, q) in ((3, 0), (2, 1)):
            t = raw[(p, q)]
            idx = np.unravel_index(np.argmax(np.abs(t)), t.shape)
            val = t[idx]
            if abs(val) > worst[0]:
                indices = tuple(idx[:p]) + tuple(bar(i) for i in idx[p:])
                worst = (abs(val), (np.asarray(z), np.asarray(v), indices, complex(val)))
    if worst[0] < HERMITIAN_TOL:
        return True, None
    return False, worst[1]


def recover_hermitian_metric(prog: MetricProgram, z, v) -> np.ndarray:
    """The candidate Hermitian metric matrix g_ij = d^2 F^2 / dv^i dvbar^j.

    For metrics with vanishing cubic form this is independent of v.
    """
    jet = prog.jet_unchecked(z, v, 2, 0)
    return jet.fiber_tensor(1, 1)
