"""Multilinear fiber forms of a complex Finsler metric.

The quadratic, cubic and quartic fiber forms are the order-2, 3, 4 jets of
F^2 in the fiber variables on frame vectors: the fiber tensors of a jet
seeded in the frame (metric_dsl.MetricProgram.jet_unchecked).  An index is
an integer 0..n-1 for a holomorphic slot, or ``bar(k)`` for the conjugate
slot; values only depend on the multiset of indices of each type (total
symmetry).  A tangent (dz, dU) at (z, U) enters the derivatives as its
frame increments (delta, A) = (U^-1 dz, U^-1 dU), which are constants for
the parallelism's fields.  form_derivative differentiates a frame form
along them; tensor_derivative, which it calls, does the same for any frame
tensor given with its first partials, as one product of the increments
with the partials and one slot contraction with A per slot; and
tensor_second_derivative and tensor_third_derivative take its second and
third derivatives along pairs and triples of increments from the partials
that raw_derivatives reads off a jet.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .jets import V, VBAR, Z, ZBAR, Jet
from .metric_dsl import EvaluationError, FinslerError, MetricProgram

LEVI_TOL = 1e-10  # Levi eigenvalues above this are positive, below -LEVI_TOL negative
HERMITIAN_TOL = 1e-8  # a cubic fiber form below this at every sample point is zero


def bar(k: int) -> int:
    """Barred (conjugate) version of index k; involutive."""
    return ~k


# the jet variables (zeta, zetabar, xi, xibar) in the order of raw_derivatives' axes
_KINDS = (Z, ZBAR, V, VBAR)


def first_partials(partials, p: int, q: int, lead: tuple = ()) -> np.ndarray:
    """The derivatives of partials(p, q, lead) along the 4n jet variables,
    stacked on a leading axis of length 4n."""
    return np.concatenate([partials(p, q, (x,) + lead) for x in _KINDS])


def raw_derivatives(partials, p: int, q: int, lead: tuple = (), order: int = 2):
    """(d1, .., d_order): the derivatives of the tensor t = partials(p, q,
    lead) along the 4n jet variables (zeta, zetabar, xi, xibar), d_k of
    shape (4n,) * k + t.shape.  partials is a Jet.partials, or a function of
    the same arguments that picks the jet holding each read."""
    def stack(k: int, lead: tuple) -> np.ndarray:
        if k == 1:
            return first_partials(partials, p, q, lead)
        return np.concatenate([stack(k - 1, (y,) + lead) for y in _KINDS], axis=k - 1)

    return tuple(stack(k, lead) for k in range(1, order + 1))


def _increments(delta, A) -> np.ndarray:
    """The increments of the jet variables (zeta, zetabar, xi, xibar) along
    each frame increment (delta, A): delta, its conjugate, the motion A e_0
    of the fiber point and its conjugate."""
    e0 = A[:, :, 0]
    return np.concatenate([delta, np.conj(delta), e0, np.conj(e0)], axis=1)


def _slot(t: np.ndarray, k: int, s: int, M: np.ndarray) -> np.ndarray:
    """t, whose last k axes are its slots, with slot s moved by each matrix
    of the stack M (K, n, n): sum_b t[..., b, ...] M[j, b, a] in that slot,
    with the axis of j after t's leading axes.  Each matrix takes its own
    matmul, so M[j] in a stack gives the bits it gives alone."""
    into, back = _slot_axes(t.ndim, k, s)
    ts = t.transpose(into)
    out = np.matmul(ts.reshape(-1, ts.shape[-1]), M).reshape((len(M),) + ts.shape)
    return out.transpose(back)


@functools.cache
def _slot_axes(d: int, k: int, s: int) -> tuple[tuple, tuple]:
    """The axis orders of _slot for a d-axis t: t's with slot s last, and the
    product's (the matrix axis first, then those) with the matrix axis after
    t's leading axes and slot s back in its place."""
    src = d - k + s
    into = tuple(i for i in range(d) if i != src) + (src,)
    pos = [1 + into.index(i) for i in range(d)]
    return into, tuple(pos[:d - k]) + (0,) + tuple(pos[d - k:])


def _frame_mats(pq: tuple[int, int], A: np.ndarray) -> list:
    """The motion of each slot of a (p, q) tensor: A, or conj A in a conjugate slot."""
    return [A] * pq[0] + [np.conj(A)] * pq[1]


def form_derivative(jet, pq: tuple[int, int], delta, A) -> np.ndarray:
    """Derivatives of the (p, q) frame form jet.fiber_tensor(p, q) along K
    frame increments, delta of shape (K, n) and A of shape (K, n, n), where
    jet is the jet of F^2 seeded in the frame at (z, U), with fiber order
    at least p + q + 1 and base order 1; shape (K,) + (n,) * (p + q).
    """
    p, q = pq
    return tensor_derivative(pq, jet.fiber_tensor(p, q), first_partials(jet.partials, p, q),
                             delta, A)


def tensor_derivative(pq: tuple[int, int], t: np.ndarray, d1: np.ndarray, delta, A) -> np.ndarray:
    """Derivatives of a frame tensor t with p holomorphic slots, then q
    conjugate ones, along K frame increments (delta[k], A[k]), where d1
    is its stack of first partials along the jet variables, as
    first_partials returns it.

    Moving (z, U) to (z + U delta, U (1 + A)) moves the jet variables by
    _increments(delta, A) and each slot of t by A, or conj A in a
    conjugate slot.  Each direction takes the products a single direction
    would (np.matmul over the stack), so direction k of a stack is
    bit-identical to that direction alone.
    """
    out = np.matmul(_increments(delta, A)[:, None], d1.reshape(len(d1), -1))
    return out.reshape((len(A),) + t.shape) + _moved(t, pq, A, 1)


def tensor_second_derivative(pq: tuple[int, int], t: np.ndarray, d1, d2, inc1, inc2):
    """Second derivatives of a frame tensor t, as tensor_derivative takes
    it, with the partials (d1, d2) that raw_derivatives returns, along every
    pair (j, l) of two stacks of frame increments inc1 = (delta1, A1),
    shapes (K1, n) and (K1, n, n), and inc2 likewise.  Returns shape
    (K1, K2) + t.shape.

    z and U move linearly, so the terms are t's second partials along both
    increments of the jet variables, the motion along inc2 of the first
    derivative along inc1, and the first partials along inc2 moved along
    inc1, less the terms of that motion that move one slot along both
    increments, which a straight line in (z, U) never does.
    """
    k = t.ndim
    (delta1, A1), (delta2, A2) = inc1, inc2
    x1, x2 = _increments(delta1, A1), _increments(delta2, A2)
    w = len(d1)
    r2 = np.matmul(x2, (x1 @ d2.reshape(w, -1)).reshape(len(x1), w, -1))
    r1 = (x2 @ d1.reshape(w, -1)).reshape((len(x2),) + t.shape)
    twice = sum(_slot(_slot(t, k, s, M1), k, s, M2)
                for s, (M1, M2) in enumerate(zip(_frame_mats(pq, A1), _frame_mats(pq, A2))))
    return (r2.reshape((len(x1), len(x2)) + t.shape) - twice
            + _moved(tensor_derivative(pq, t, d1, delta1, A1), pq, A2, 1)
            + np.swapaxes(_moved(r1, pq, A1, 1), 0, 1))


def _moved(t: np.ndarray, pq: tuple[int, int], A: np.ndarray, count: int):
    """t, whose last p + q axes are its slots, with count increments of the
    stack A (K, n, n) moving count distinct slots, the first increment the
    lowest slot, summed over every set of slots: shape t's leading axes,
    then count axes of length K, then the slots.  0 when count exceeds
    p + q."""
    k = sum(pq)
    mats = _frame_mats(pq, A)
    moved = None
    for slots in itertools.combinations(range(k), count):
        u = t
        for s in slots:
            u = _slot(u, k, s, mats[s])
        if moved is None:
            moved = u
        else:
            moved += u
    return 0 if moved is None else moved


def tensor_third_derivative(pq: tuple[int, int], t: np.ndarray, d1, d2, d3, inc):
    """Third derivatives of a frame tensor t, as tensor_derivative takes
    it, with the partials (d1, d2, d3) that raw_derivatives(..., order=3)
    returns, along every triple (i, j, l) of one stack of K frame
    increments inc = (delta, A), shapes (K, n) and (K, n, n).  Returns shape
    (K, K, K) + t.shape.

    z and U move linearly, so each slot takes at most one of the three
    increments: the terms are t's third partials along the three
    increments of the jet variables; its second partials along two of them
    with the third moving a slot; its first partials along one with the
    other two moving two distinct slots; and t with the three moving three
    distinct slots.  The partials are contracted with one increment at a
    time.  The last three terms are made for one order of the increments,
    and the sum over the six orders of the axes (i, j, l) takes each once,
    but the second partials, symmetric in their pair, twice: they enter
    with a half.
    """
    delta, A = inc
    x = _increments(delta, A)
    K, w = x.shape
    f1 = (x @ d1.reshape(w, -1)).reshape((K,) + t.shape)
    f2 = np.matmul(x, (x @ d2.reshape(w, -1)).reshape(K, w, -1)).reshape((K, K) + t.shape)
    out = np.matmul(x, np.matmul(x, (x @ d3.reshape(w, -1)).reshape(K, w, -1))
                    .reshape(K, K, w, -1)).reshape((K, K, K) + t.shape)
    ordered = _moved(f2, pq, A, 1)
    ordered *= 0.5
    ordered += _moved(f1, pq, A, 2)
    ordered += _moved(t, pq, A, 3)
    slots = tuple(range(3, out.ndim))
    for order in itertools.permutations(range(3)):
        out += ordered.transpose(order + slots)
    return out


def raw_fiber_tensors(prog: MetricProgram, z, v, max_order: int = 4, frame=None) -> dict:
    """All fiber tensors d^p_v d^q_vbar F^2 with p+q <= max_order, in the
    frame's columns (coordinate tensors without a frame)."""
    return fiber_tensors(prog.jet_unchecked(z, v, max_order, 0, frame), max_order)


def fiber_tensors(jet: Jet, max_order: int) -> dict:
    """(p, q) -> the (p, q) fiber tensor of jet, for p + q <= max_order."""
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
    def h_mixed(self) -> np.ndarray:
        """Hermitian matrix h(e_a, conj(e_b))."""
        return self.comp[(1, 1)]

    @property
    def h_pure(self) -> np.ndarray:
        """Symmetric matrix h(e_a, e_b); vanishes iff F comes from a Hermitian metric."""
        return self.comp[(2, 0)]


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
    return FinslerForms(z=z, v=v, frame=frame,
                        comp=raw_fiber_tensors(prog, z, v, max_order, frame))


# --------------------------------------------------------------------------
# homogeneity identities
# --------------------------------------------------------------------------

def homogeneity_identities(prog: MetricProgram, z, v, jet: Jet | None = None) -> dict:
    """Residuals of the Euler identities of the fiber tensors, satisfied by
    any metric with F(lambda v) = |lambda| F(v).

    F^2 has bidegree (1, 1) in v, so its (p, q) fiber tensor T_pq has
    bidegree (1 - p, 1 - q), and for every p + q <= 4
    T_(p+1)q(v, ..) = (1 - p) T_pq and T_p(q+1)(.., vbar, ..) = (1 - q) T_pq,
    v contracted into a holomorphic slot, vbar into a conjugate one.  Key
    "v pq" (and "vbar pq") is the largest entry of the first identity's
    (the second's) difference, relative to max(1, |F^2|, max |T_pq|); "max"
    is the largest.  jet is the coordinate jet(5, 0) of F^2 at (z, v),
    evaluated here when not given.
    """
    v = np.asarray(v, dtype=complex)
    T = raw_fiber_tensors(prog, z, v, 5) if jet is None else fiber_tensors(jet, 5)
    f2 = abs(T[(0, 0)])
    res = {}
    for (p, q), t in T.items():
        if p + q < 5:
            scale = max(1.0, f2, np.max(np.abs(t)))
            hol = np.tensordot(v, T[(p + 1, q)], axes=(0, 0)) - (1 - p) * t
            con = np.tensordot(np.conj(v), T[(p, q + 1)], axes=(0, p)) - (1 - q) * t
            res[f"v {p}{q}"] = float(np.max(np.abs(hol))) / scale
            res[f"vbar {p}{q}"] = float(np.max(np.abs(con))) / scale
    res["max"] = max(res.values())
    return res


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


def cubic_form_peak(jet: Jet) -> tuple:
    """(modulus, indices, value) of the largest component of the (3, 0) and
    (2, 1) fiber tensors of jet, a coordinate jet of fiber order >= 3 at
    its point, the (3, 0) tensor's on a tie; modulus 0 and indices None
    when both vanish.  Barred indices are marked as bar() marks them."""
    peak = (0.0, None, 0j)
    for (p, q) in ((3, 0), (2, 1)):
        t = jet.fiber_tensor(p, q)
        idx = np.unravel_index(np.argmax(np.abs(t)), t.shape)
        val = t[idx]
        if abs(val) > peak[0]:
            peak = (abs(val), tuple(idx[:p]) + tuple(bar(i) for i in idx[p:]), complex(val))
    return peak


def hermitian_test(prog: MetricProgram, points, peaks=None):
    """True iff the cubic fiber form vanishes on all sample points.

    Returns (is_hermitian, witness); the witness is (z, v, indices, value)
    for the largest offending component, or None.  peaks[i] is
    cubic_form_peak at points[i]; without them each point's is read off a
    jet(3, 0) evaluated here.  A jet of higher fiber order at the point
    holds the same cubic tensors bit for bit, so its peak gives the same
    verdict and witness.
    """
    if not points:
        raise FinslerError("hermitian_test requires a nonempty sample set")
    if peaks is None:
        peaks = [cubic_form_peak(prog.jet_unchecked(z, v, 3, 0)) for z, v in points]
    worst = (0.0, None)
    for (z, v), (modulus, indices, val) in zip(points, peaks):
        if modulus > worst[0]:
            worst = (modulus, (np.asarray(z), np.asarray(v), indices, val))
    if worst[0] < HERMITIAN_TOL:
        return True, None
    return False, worst[1]
