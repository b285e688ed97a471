"""Multilinear fiber forms of a complex Finsler metric.

The quadratic, cubic and quartic fiber forms are the order-2, 3, 4 jets of
F^2 in the fiber variables on frame vectors: the fiber tensors of a jet
seeded in the frame (metric_dsl.MetricProgram.jet_unchecked).  An index is
an integer 0..n-1 for a holomorphic slot, or ``bar(k)`` for the conjugate
slot; values only depend on the multiset of indices of each type (total
symmetry).  A tangent (dz, dU) at (z, U) enters the derivatives as its
frame increments (delta, A) = (U^-1 dz, U^-1 dU), which are constants for
the parallelism's fields.  tensor_derivative differentiates any frame
tensor along one increment from each of k stacks, for any k, from the
partials that raw_derivatives reads off a jet; form_derivative is its
first order on a frame form.
"""

from __future__ import annotations

import functools
import itertools
import math
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


def raw_derivatives(partials, p: int, q: int, lead: tuple = (), order: int = 2):
    """(d1, .., d_order): the derivatives of t = partials(p, q, lead), a
    Jet.partials or a function like it, along the 4n jet variables (zeta,
    zetabar, xi, xibar), d_k of shape (4n,) * k + t.shape.  Partials
    commute: each multiset of kinds is read once and transposed into place."""
    out = []
    for k in range(1, order + 1):
        d = None
        for kinds, places in _orders(k):
            block = partials(p, q, tuple(_KINDS[x] for x in kinds) + lead)
            if d is None:
                d = np.empty((4,) * k + block.shape, dtype=block.dtype)
            for place, perm in places:
                d[place] = block.transpose(perm + tuple(range(k, block.ndim)))
        # the axes (kind, index) of each variable side by side, then merged
        pairs = tuple(a for i in range(k) for a in (i, k + i))
        out.append(d.transpose(pairs + tuple(range(2 * k, d.ndim)))
                   .reshape((4 * d.shape[k],) * k + d.shape[2 * k:]))
    return tuple(out)


@functools.cache
def _orders(k: int) -> tuple:
    """(kinds, ((order, permutation), ..)): each sorted tuple of k kinds, with
    its distinct orders and a permutation of its axes giving each."""
    return tuple((kinds, tuple({tuple(kinds[i] for i in perm): perm
                                for perm in itertools.permutations(range(k))}.items()))
                 for kinds in itertools.combinations_with_replacement(range(4), k))


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


def form_derivative(jet, pq: tuple[int, int], delta, A) -> np.ndarray:
    """Derivatives of the (p, q) frame form jet.fiber_tensor(p, q) along K
    frame increments, delta of shape (K, n) and A of shape (K, n, n), where
    jet is the jet of F^2 seeded in the frame at (z, U), with fiber order
    at least p + q + 1 and base order 1; shape (K,) + (n,) * (p + q).
    """
    p, q = pq
    return tensor_derivative(pq, jet.fiber_tensor(p, q),
                             raw_derivatives(jet.partials, p, q, order=1), ((delta, A),))


def groups_of(stacks) -> tuple:
    """The positions of stacks grouped by object (a stack passed twice)."""
    ids = [id(s) for s in stacks]
    return tuple(tuple(i for i, x in enumerate(ids) if x == y) for y in dict.fromkeys(ids))


def canonical_subsets(groups: tuple):
    """(S, js): one subset S of the positions per orbit of the permutations
    within groups, the first js[g] positions of each group g, largest first."""
    for js in itertools.product(*(range(len(g), -1, -1) for g in groups)):
        yield tuple(sorted(p for g, j in zip(groups, js) for p in g[:j])), js


def add_symmetrized(out: np.ndarray, t: np.ndarray, groups: tuple):
    """out += t summed over the permutations of its leading axes within groups."""
    for images in itertools.product(*(itertools.permutations(g) for g in groups)):
        axes = list(range(t.ndim))
        for g, image in zip(groups, images):
            for a, b in zip(g, image):
                axes[a] = b
        out += t.transpose(axes)


@functools.cache
def _placements(groups: tuple, slots: int) -> tuple:
    """The terms of tensor_derivative, one per orbit of the permutations
    within groups: (S, R, maps, weight), S meeting the partials, R moving
    the distinct slots of maps (increasing within a group), and weight 1 /
    the permutations of S within groups, which fix the term."""
    k = sum(map(len, groups))
    out = []
    for S, js in canonical_subsets(groups):
        R = tuple(p for p in range(k) if p not in S)
        maps = tuple(m for m in itertools.permutations(range(slots), len(R))
                     if all(m[R.index(a)] < m[R.index(b)] for g in groups
                            for a, b in zip(g, g[1:]) if a in R and b in R))
        out.append((S, R, maps, 1.0 / math.prod(map(math.factorial, js))))
    return tuple(out)


def tensor_derivative(pq: tuple[int, int], t: np.ndarray, d: tuple, stacks) -> np.ndarray:
    """Derivative of a frame tensor t with p holomorphic slots, then q
    conjugate ones, along one frame increment from each of k stacks
    (delta, A), shapes (K_i, n) and (K_i, n, n), from its partials d =
    (d1, .., dk) of raw_derivatives; shape (K_1, .., K_k) + t.shape.

    (z + U delta, U (1 + A)) moves the jet variables by _increments(delta,
    A) and each slot by A (conj A in a conjugate slot), both linearly, so
    an increment meets the partials or moves one slot, no slot two: the sum
    over the sets S meeting the partials of d_|S| contracted with them,
    shortest stack first, the others moving distinct slots.  It is
    symmetric in the axes of a stack passed twice, so one placement of each
    term is made and the transposes summed.  The first contraction takes
    one matmul per direction: for k = 1 a direction's bits are its own.
    """
    k, slots = len(stacks), sum(pq)
    groups = groups_of(stacks)
    xs = [_increments(*s) for s in stacks]
    mats = [[A] * pq[0] + [np.conj(A)] * pq[1] for _, A in stacks]  # conj A moves a conjugate slot
    full = rest = None
    for S, R, maps, weight in _placements(groups, slots):
        u = t
        S = tuple(sorted(S, key=lambda i: len(xs[i])))
        if S:
            w = xs[0].shape[1]
            u = np.matmul(xs[S[0]][:, None], d[len(S) - 1].reshape(w, -1))[:, 0]
            for i in S[1:]:
                u = np.matmul(xs[i], u.reshape(u.shape[:-1] + (w, -1)))
            u = u.reshape(u.shape[:-1] + t.shape)
        order = S + R
        axes = [order.index(i) for i in range(k)] + list(range(k, k + slots))
        if not R:
            full = u.transpose(axes)
            continue
        if weight != 1.0:
            u = u * weight
        for m in maps:
            v = u
            for r, s in zip(R, m):
                v = _slot(v, slots, s, mats[r][s])
            v = v.transpose(axes)
            rest = np.array(v) if rest is None else rest.__iadd__(v)
    if rest is not None:
        add_symmetrized(full, rest, groups)
    return full


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
