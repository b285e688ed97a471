"""The unique non-linear connection of Hermitian type and its covariant derivation.

The connection is realized, relative to the flat chart connection, by a map
E assigning to each frame direction a vertical correction matrix: the lift
of the real direction with frame components w is

    dz = U w,   dU = U E(w),   E(w)^a_b = E[a, b, g] w^g .

E is computed two ways: a direct least-squares solve of the tangency
conditions (authoritative) and the closed form obtained by eliminating the
conjugate unknowns from those same conditions; both agree at adapted
frames, which the tests assert.  FrameData seeds its jets in the frame, so
E reads the frame forms and Dh off them.  The tangency conditions are
derivatives of the (1, 1) frame form, finsler_forms.form_derivative.
frame_derivatives takes the derivatives of every order of E, C(2, 0) and
C(2, 1), along tangents given as frame increments (U^-1 dz, U^-1 dU):
(w, G) for a parallelism field U (w, G), so none of them solves with U.
Each one computed is kept in the frame data's memo, and frame_derivatives
reads a derivative along a chunk of rows of a stack (Rows) off the one
along the whole stack; along Rows in several places, which restrict the
stacks to the fields a reader needs, only off a kept one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .finsler_forms import (
    add_symmetrized,
    canonical_subsets,
    groups_of,
    raw_derivatives,
    tensor_derivative,
)
from .frame_bundle import AmbientTangent, BundlePoint, DegenerateMetricError, gram_derivative
from .jets import Z, ZBAR, Jet
from .metric_dsl import MetricProgram

# relative step of the chart-coordinate central difference in covariant_derivative
COVARIANT_STEP = 1e-6


# --------------------------------------------------------------------------
# what is computed at one point
# --------------------------------------------------------------------------

class FrameData:
    """The jets and the connection at one ambient point (z, U).

    Every jet is seeded in the frame: z + U zeta and U (e_0 + xi), so its
    fiber tensors are the frame forms C(p, q) and its zeta partials the
    base derivatives along the frame vectors, with no contraction.  Valid
    at any invertible U near the adapted-frame bundle; all formulas
    restrict to the intrinsic objects on it.  Each jet and E is computed
    at most once, so a report builds one FrameData per point and hands it
    down to every stage that works there; so is each derivative that
    frame_derivatives computes, kept in derivatives.
    """

    def __init__(self, prog: MetricProgram, z, U):
        self.prog = prog
        self.z = np.asarray(z, dtype=complex)
        self.U = np.asarray(U, dtype=complex)
        self.n = prog.dim
        self._jets: dict = {}
        self._E: np.ndarray | None = None
        self._partials: dict = {}
        self.derivatives: dict = {}  # frame_derivatives' memo, keyed by the ids of its stacks
        self.jet = self.jet_of(4, 1)

    def jet_of(self, fiber_order: int, base_order: int) -> Jet:
        """The jet of F^2 at (z, U e_0), seeded in the frame U, with these
        orders, evaluated once."""
        key = (fiber_order, base_order)
        hit = self._jets.get(key)
        if hit is None:
            self._jets[key] = hit = self.prog.jet_unchecked(self.z, self.U[:, 0], *key, self.U)
        return hit

    def partials(self, k: int) -> tuple:
        """((C20, d), (C21, d), (Dh, d)), each with its partials d = (d1, ..,
        dk), read once from the jet(k + 3, k) and the jet(2, k + 1)."""
        if k not in self._partials:
            jet, base = self.jet_of(k + 3, k), self.jet_of(2, k + 1)

            def dh(p, q, kinds):  # Dh's reads: base-only ones, which need base order k + 1
                return (base if set(kinds) <= {Z, ZBAR} else jet).partials(p, q, kinds)

            self._partials[k] = ((self.C(2, 0), raw_derivatives(jet.partials, 2, 0, order=k)),
                                 (self.C(2, 1), raw_derivatives(jet.partials, 2, 1, order=k)),
                                 (self.Dh, raw_derivatives(dh, 1, 1, (Z,), order=k)))
        return self._partials[k]

    def C(self, p: int, q: int) -> np.ndarray:
        """Fiber form of type (p, q) on the frame columns."""
        return self.jet.fiber_tensor(p, q)

    @property
    def Dh(self) -> np.ndarray:
        """Dh[g, a, b]: base derivative of the Gram entries along e_g, with
        frame and fiber point held constant in chart coordinates."""
        return self.jet.partials(1, 1, (Z,))

    @property
    def E(self) -> np.ndarray:
        """Closed-form connection coefficients E[a, b, g] (a: row, b: column,
        g: direction); the 0-column block solves first, the rest follows by
        back-substitution through the cubic form."""
        if self._E is None:
            # E[r, a, g] = -Dh[g, a, r] - [a > 0] sum_z E[z, 0, g] C21[a, z, r],
            # with H_{a rbar zeta} = C21[a, zeta, r]
            E = -self.Dh.transpose(2, 1, 0)
            if self.n > 1:
                E[:, 1:] -= np.einsum("zg,azr->rag", E[:, 0], self.C(2, 1)[1:])
            self._E = E
        return self._E

    @property
    def torsion(self) -> np.ndarray:
        """T[a, b, g] with [lift_b, lift_g] = -T^a_{bg} lift_a on holomorphic pairs."""
        E = self.E
        return E - np.transpose(E, (0, 2, 1))


def frame_data(prog: MetricProgram, z, U) -> FrameData:
    """A new FrameData at (z, U); nothing is shared with earlier calls."""
    return FrameData(prog, z, U)


# Complex entries per tensor up to which a derivative along rows of a stack
# (Rows) is read off the one along the whole stack, which serves every chunk.
WHOLE_ENTRIES = 1 << 18


class Rows(tuple):
    """The stack of frame increments (delta[rows], A[rows]) of a parent
    stack (delta, A), which it remembers with the rows."""

    def __new__(cls, parent: tuple, rows):
        rows = np.asarray(rows)
        self = super().__new__(cls, (parent[0][rows], parent[1][rows]))
        self.parent, self.rows = parent, rows
        return self


def whole(stacks, size: int, memo: dict):
    """(i, stacks with the parent of stacks[i] in its place) for the first Rows
    whose parent's derivative memo keeps or, when it is the one Rows of the
    stacks (a chunk, whose siblings read the same parent), is within
    WHOLE_ENTRIES, size entries a tuple.  Rows in several places restrict
    the stacks to the fields a reader needs, so their parent's is waste."""
    views = [i for i, s in enumerate(stacks) if isinstance(s, Rows)]
    count = math.prod(len(s[0]) for s in stacks)
    for i in views:
        s = stacks[i]
        parent = tuple(stacks[:i]) + (s.parent,) + tuple(stacks[i + 1:])
        if tuple(map(id, parent)) in memo or len(views) == 1 and \
                count // len(s[0]) * len(s.parent[0]) * size <= WHOLE_ENTRIES:
            return i, parent
    return None


def frame_derivatives(fd: FrameData, stacks):
    """Exact derivatives (dE, dC20, dC21) of E, C(2, 0) and C(2, 1) of fd
    along one frame increment from each of k >= 1 stacks (delta, A), shapes
    (K_i, n) and (K_i, n, n); leading axes (K_1, .., K_k).  The forms and
    Dh, whose d_zeta slot moves with the frame too, go through
    tensor_derivative; dE differentiates E's back-substitution by Leibniz,
    each split S1 + S2 of the increments putting S1 on column 0 of E and S2
    on C(2, 1), one split per orbit of the permutations within a stack
    passed twice.  A derivative along Rows is the parent's, kept or taken
    whole, read at the rows, when whole allows.  fd.derivatives keeps every
    other derivative taken, keyed by its stacks, which it keeps alive.
    """
    memo = fd.derivatives
    key = tuple(map(id, stacks))
    if key in memo:
        return memo[key][1]
    k, n = len(stacks), fd.n
    read = whole(stacks, n ** 3, memo)
    if read is not None:
        i, parent = read
        return tuple(np.take(x, stacks[i].rows, axis=i) for x in frame_derivatives(fd, parent))
    (t20, d20), (t21, d21), (tDh, dDh) = fd.partials(k)
    dC20 = tensor_derivative((2, 0), t20, d20, stacks)
    dC21 = tensor_derivative((2, 1), t21, d21, stacks)
    lead = tuple(range(k))
    dE = -tensor_derivative((2, 1), tDh, dDh, stacks).transpose(lead + (k + 2, k + 1, k))
    if n > 1:
        groups, back = groups_of(stacks), None

        def along(S, j, full, base):
            # item j of (dE, dC20, dC21) along the increments S
            return full if len(S) == k else base[None] if not S else \
                frame_derivatives(fd, [stacks[i] for i in S])[j]

        for S1, js in canonical_subsets(groups):
            S2 = tuple(i for i in lead if i not in S1)
            # column 0 has no back-substitution, so it is final in dE
            E0 = along(S1, 0, dE, fd.E)[..., 0, :]
            C = along(S2, 2, dC21, fd.C(2, 1))[..., 1:, :, :]
            # sum_z E0[.., z, g] C[.., a, z, r], axes (S1, S2, r, a, g)
            term = np.einsum("kzg,lazr->klrag", E0.reshape(-1, n, n), C.reshape(-1, n - 1, n, n))
            term = term.reshape(E0.shape[:len(S1)] + C.shape[:len(S2)] + term.shape[2:])
            term = term.transpose([(S1 + S2).index(i) for i in lead] + [k, k + 1, k + 2])
            term /= -math.prod(math.factorial(j) * math.factorial(len(g) - j)
                               for g, j in zip(groups, js))
            back = term if back is None else back.__iadd__(term)
        add_symmetrized(dE[..., 1:, :], back, groups)
    memo[key] = (stacks, (dE, dC20, dC21))
    return dE, dC20, dC21


# --------------------------------------------------------------------------
# the tangency solve (authoritative) and the public connection map
# --------------------------------------------------------------------------

@dataclass
class ConnectionMap:
    """Connection coefficients at a bundle point, with solve diagnostics."""

    E: np.ndarray  # (n, n, n): [row, column, direction]
    closed_form_gap: float  # max |E_lsq - E_closed|
    min_singular_ratio: float  # sigma_min/sigma_max of the system, one for all directions
    residual: float  # tangency residual of the solved lifts
    closed_form_tangency: float  # max |Gram derivative| along the closed-form lifts


def solve_connection(prog: MetricProgram, p: BundlePoint,
                     fd: FrameData | None = None) -> ConnectionMap:
    """Solve the tangency conditions for the vertical corrections.

    For each frame direction the corrections to the flat lifts of the two
    underlying real directions must keep the Gram map constant; this is a
    full-rank real-linear system A x = b whose unique solution is the
    connection.  A x - b at the closed form fd.E is the Gram derivative
    along the 2n closed-form lifts, the tangency of the connection that
    every other stage reads.  fd is the frame data at p, built here when
    not given.
    """
    if fd is None:
        fd = frame_data(prog, p.z, p.U)
    n = p.n
    nn = n * n
    # one stacked Gram derivative along frame increments: the vertical
    # responses to U D and U (i D) for the units D, which do not depend on
    # the direction, then the flat lifts e_g and i e_g of the real
    # directions of each e_g, each as a real row: real parts, then imaginary
    units = np.eye(nn, dtype=complex).reshape(nn, n, n)
    delta = np.zeros((2 * nn + 2 * n, n), dtype=complex)
    delta[2 * nn:] = np.concatenate([np.eye(n), 1j * np.eye(n)])
    A = np.zeros((2 * nn + 2 * n, n, n), dtype=complex)
    A[:2 * nn] = np.concatenate([units, 1j * units])
    gd = gram_derivative(fd.jet, delta, A).reshape(len(delta), -1)
    rows = np.concatenate([gd.real, gd.imag], axis=1)
    resp1, resp2 = rows[:nn], rows[nn:2 * nn]
    # column k holds the real part of M_g[k], column nn + k its imaginary part
    A = np.block([[resp1, resp2], [resp2, -resp1]]).T
    # one right-hand side per direction g, all solved with one factorization
    b = -np.concatenate([rows[2 * nn:2 * nn + n], rows[2 * nn + n:]], axis=1).T
    x, _, rank, sv = np.linalg.lstsq(A, b, rcond=None)
    if rank < 2 * nn:
        raise DegenerateMetricError(
            "singular tangency system: the metric degenerates at this point")
    E = (x[:nn] + 1j * x[nn:]).T.reshape(n, n, n).transpose(1, 2, 0)
    # the closed form in the layout of x; the rows of A x - b are the Gram
    # derivative along the lift of e_g, real then imaginary parts, then
    # along that of i e_g
    closed = fd.E.transpose(2, 0, 1).reshape(n, nn).T
    r = (A @ np.concatenate([closed.real, closed.imag]) - b).reshape(2, 2, nn, n)
    return ConnectionMap(E=E, closed_form_gap=float(np.max(np.abs(E - fd.E))),
                         min_singular_ratio=float(sv[-1] / sv[0]),
                         residual=float(np.max(np.abs(A @ x - b))),
                         closed_form_tangency=float(np.max(np.abs(r[:, 0] + 1j * r[:, 1]))))


def horizontal_lift(prog: MetricProgram, p: BundlePoint, direction) -> AmbientTangent:
    """Lift of a frame direction: an int 0..2n-1 picks a real frame vector,
    a complex n-vector w is interpreted as frame components of a real
    tangent vector (its holomorphic part)."""
    n = p.n
    if isinstance(direction, (int, np.integer)):
        w = np.zeros(n, dtype=complex)
        w[direction // 2] = 1j if direction % 2 else 1.0
    else:
        w = np.asarray(direction, dtype=complex)
    fd = frame_data(prog, p.z, p.U)
    return AmbientTangent(dz=p.U @ w, dU=p.U @ np.einsum("abg,g->ab", fd.E, w))


def covariant_derivative(prog: MetricProgram, p: BundlePoint, w, Y) -> np.ndarray:
    """Covariant derivative of the vector field Y along the direction whose
    frame components are w, at the fiber reference direction encoded by p.

    Y maps chart coordinates to the holomorphic components of a real
    vector field.  Output is the component vector of the derivative.
    """
    w = np.asarray(w, dtype=complex)
    U = p.U
    dz = U @ w
    h = COVARIANT_STEP * max(1.0, float(np.max(np.abs(p.z))))
    DYdz = (np.asarray(Y(p.z + h * dz), dtype=complex)
            - np.asarray(Y(p.z - h * dz), dtype=complex)) / (2 * h)
    fd = frame_data(prog, p.z, p.U)
    Yz = np.asarray(Y(p.z), dtype=complex)
    return DYdz - U @ np.einsum("abg,g->ab", fd.E, w) @ np.linalg.solve(U, Yz)
