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
derivatives of the (1, 1) frame form, frame_bundle.gram_derivative, taken
by the one form derivative below this module, finsler_forms.form_derivative.
frame_derivatives differentiates E exactly, through its back-substitution,
for the parallelism's brackets; frame_second_derivatives and
frame_third_derivatives differentiate it twice and three times, for the
first and second derivatives of the structure coefficients.  They take
tangents as frame increments (U^-1 dz, U^-1 dU): (w, G) for a parallelism
field U (w, G), so none of them solves with U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finsler_forms import (
    first_partials,
    form_derivative,
    raw_derivatives,
    tensor_derivative,
    tensor_second_derivative,
    tensor_third_derivative,
)
from .frame_bundle import (
    AmbientTangent,
    BundlePoint,
    DegenerateMetricError,
    central_difference,
    gram_rows,
)
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
    down to every stage that works there.
    """

    def __init__(self, prog: MetricProgram, z, U):
        self.prog = prog
        self.z = np.asarray(z, dtype=complex)
        self.U = np.asarray(U, dtype=complex)
        self.n = prog.dim
        self._jets: dict = {}
        self._E: np.ndarray | None = None
        self.jet = self.jet_of(4, 1)

    def jet_of(self, fiber_order: int, base_order: int) -> Jet:
        """The jet of F^2 at (z, U e_0), seeded in the frame U, with these
        orders, evaluated once."""
        key = (fiber_order, base_order)
        hit = self._jets.get(key)
        if hit is None:
            self._jets[key] = hit = self.prog.jet_unchecked(self.z, self.U[:, 0], *key, self.U)
        return hit

    def C(self, p: int, q: int) -> np.ndarray:
        """Fiber form of type (p, q) on the frame columns."""
        return self.jet.fiber_tensor(p, q)

    @property
    def Dh(self) -> np.ndarray:
        """Dh[g, a, b]: base derivative of the Gram entries along e_g, with
        frame and fiber point held constant in chart coordinates."""
        return self.jet.fiber_tensor_dbase(1, 1)[0]

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

    def E_matrix(self, w: np.ndarray) -> np.ndarray:
        """Vertical correction matrix E(w) for frame components w."""
        return np.einsum("abg,g->ab", self.E, np.asarray(w, dtype=complex))


def frame_data(prog: MetricProgram, z, U) -> FrameData:
    """A new FrameData at (z, U); nothing is shared with earlier calls."""
    return FrameData(prog, z, U)


def _Dh_partials(fiber_jet: Jet, base_jet: Jet):
    """Jet.partials for Dh's derivatives: base-only reads, which with Dh's
    own d_zeta need the higher base order, from base_jet."""
    return lambda p, q, kinds: (base_jet if set(kinds) <= {Z, ZBAR}
                                else fiber_jet).partials(p, q, kinds)


def frame_derivatives(fd: FrameData, delta, A):
    """Exact derivatives of E, C(2, 0) and C(2, 1) of fd along K stacked
    frame increments (U^-1 dz, U^-1 dU), delta of shape (K, n) and A of
    shape (K, n, n).

    Returns (dE, dC20, dC21) with a leading direction axis.  dE is the
    derivative of FrameData.E's back-substitution.  Its Dh term reads the
    jet(4, 1) of fd and one jet(2, 2) at the same point, whose second base
    derivatives of the (1, 1) tensor no jet(4, 1) holds.
    """
    jet = fd.jet
    dC20 = form_derivative(jet, (2, 0), delta, A)
    dC21 = form_derivative(jet, (2, 1), delta, A)
    # Dh is a (2, 1) frame tensor: its d_zeta slot moves with the frame too
    dDh = tensor_derivative((2, 1), fd.Dh, first_partials(
        _Dh_partials(jet, fd.jet_of(2, 2)), 1, 1, (Z,)), delta, A)
    # the derivative of E's back-substitution, term by term
    dE = -dDh.transpose(0, 3, 2, 1)
    dE[:, :, 1:] -= (np.einsum("kzg,azr->krag", dE[:, :, 0], fd.C(2, 1)[1:])
                     + np.einsum("zg,kazr->krag", fd.E[:, 0], dC21[:, 1:]))
    return dE, dC20, dC21


def frame_second_derivatives(fd: FrameData, inc1, inc2, first1, first2):
    """Exact second derivatives of E, C(2, 0) and C(2, 1) of fd along every
    pair (j, l) of two stacks of frame increments inc1 = (delta1, A1) and
    inc2 = (delta2, A2), shaped as frame_derivatives takes them.

    Returns (d2E, d2C20, d2C21) with leading axes (K1, K2).  first1 and
    first2 are frame_derivatives along inc1 and inc2, which E's
    back-substitution multiplies.  The forms' derivatives read one
    jet(5, 2); so do Dh's, but for its second base derivatives, which read
    one jet(2, 3).
    """
    jet = fd.jet_of(5, 2)
    d2C20 = tensor_second_derivative((2, 0), fd.C(2, 0), *raw_derivatives(jet.partials, 2, 0),
                                     inc1, inc2)
    d2C21 = tensor_second_derivative((2, 1), fd.C(2, 1), *raw_derivatives(jet.partials, 2, 1),
                                     inc1, inc2)
    d2Dh = tensor_second_derivative((2, 1), fd.Dh, *raw_derivatives(
        _Dh_partials(jet, fd.jet_of(2, 3)), 1, 1, (Z,)), inc1, inc2)
    # FrameData.E's back-substitution differentiated twice, term by term
    (dE1, _, dC21_1), (dE2, _, dC21_2) = first1, first2
    d2E = -d2Dh.transpose(0, 1, 4, 3, 2)
    d2E[:, :, :, 1:] -= (np.einsum("jlzg,azr->jlrag", d2E[:, :, :, 0], fd.C(2, 1)[1:])
                         + np.einsum("jzg,lazr->jlrag", dE1[:, :, 0], dC21_2[:, 1:])
                         + np.einsum("lzg,jazr->jlrag", dE2[:, :, 0], dC21_1[:, 1:])
                         + np.einsum("zg,jlazr->jlrag", fd.E[:, 0], d2C21[:, :, 1:]))
    return d2E, d2C20, d2C21


def _back(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_z x[..., z, g] y[..., a, z, r], with x's leading axes, then y's,
    then (r, a, g): a term of E's back-substitution, differentiated."""
    lx, ly = x.ndim - 2, y.ndim - 3
    out = np.tensordot(x, y, axes=([-2], [-2]))
    return out.transpose(*range(lx), *range(lx + 1, lx + 1 + ly), lx + ly + 2, lx + ly + 1, lx)


def frame_third_derivatives(fd: FrameData, inc, first, second):
    """Exact third derivatives of E, C(2, 0) and C(2, 1) of fd along every
    triple (i, j, l) of one stack of frame increments inc = (delta, A),
    shaped as frame_derivatives takes them.

    Returns (d3E, d3C20, d3C21) with leading axes (K, K, K).  first is
    frame_derivatives along inc and second frame_second_derivatives along
    (inc, inc), which E's back-substitution multiplies.  The forms'
    derivatives read one jet(6, 3); so do Dh's, but for its fourth base
    derivatives, which read one jet(2, 4).
    """
    jet = fd.jet_of(6, 3)
    d3C20 = tensor_third_derivative((2, 0), fd.C(2, 0),
                                    *raw_derivatives(jet.partials, 2, 0, order=3), inc)
    d3C21 = tensor_third_derivative((2, 1), fd.C(2, 1),
                                    *raw_derivatives(jet.partials, 2, 1, order=3), inc)
    d3Dh = tensor_third_derivative((2, 1), fd.Dh, *raw_derivatives(
        _Dh_partials(jet, fd.jet_of(2, 4)), 1, 1, (Z,), order=3), inc)
    # FrameData.E's back-substitution differentiated three times, term by
    # term (Leibniz): column 0 of E has no back-substitution.  The terms
    # with two derivatives on one factor and one on the other are symmetric
    # in the pair, so their three placements are cyclic shifts
    (dE, _, dC21), (d2E, _, d2C21) = first, second
    d3E = -d3Dh.transpose(0, 1, 2, 5, 4, 3)
    C21 = fd.C(2, 1)[1:]
    mixed = _back(d2E[:, :, :, 0], dC21[:, 1:]) + _back(dE[:, :, 0], d2C21[:, :, 1:])
    d3E[:, :, :, :, 1:] -= (_back(d3E[:, :, :, :, 0], C21) + _back(fd.E[:, 0], d3C21[:, :, :, 1:])
                            + mixed + mixed.transpose(1, 2, 0, 3, 4, 5)
                            + mixed.transpose(2, 0, 1, 3, 4, 5))
    return d3E, d3C20, d3C21


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


def solve_connection(prog: MetricProgram, p: BundlePoint,
                     fd: FrameData | None = None) -> ConnectionMap:
    """Solve the tangency conditions for the vertical corrections.

    For each frame direction the corrections to the flat lifts of the two
    underlying real directions must keep the Gram map constant; this is a
    full-rank real-linear system whose unique solution is the connection.
    fd is the frame data at p, built here when not given.
    """
    if fd is None:
        fd = frame_data(prog, p.z, p.U)
    n = p.n
    nn = n * n
    # one stacked Gram derivative along frame increments: the vertical
    # responses to U D and U (i D) for the units D, which do not depend on
    # the direction, then the flat lifts e_g and i e_g of the real
    # directions of each e_g
    units = np.eye(nn, dtype=complex).reshape(nn, n, n)
    delta = np.zeros((2 * nn + 2 * n, n), dtype=complex)
    delta[2 * nn:] = np.concatenate([np.eye(n), 1j * np.eye(n)])
    A = np.zeros((2 * nn + 2 * n, n, n), dtype=complex)
    A[:2 * nn] = np.concatenate([units, 1j * units])
    rows = gram_rows(fd.jet, delta, A)
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
    worst_res = float(np.max(np.abs(A @ x - b)))
    gap = float(np.max(np.abs(E - fd.E)))
    return ConnectionMap(E=E, closed_form_gap=gap,
                         min_singular_ratio=float(sv[-1] / sv[0]), residual=worst_res)


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
    return AmbientTangent(dz=p.U @ w, dU=p.U @ fd.E_matrix(w))


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
    DYdz = central_difference(lambda z: np.asarray(Y(z), dtype=complex), p.z, dz, h)
    fd = frame_data(prog, p.z, p.U)
    Yz = np.asarray(Y(p.z), dtype=complex)
    return DYdz - U @ fd.E_matrix(w) @ np.linalg.solve(U, Yz)
