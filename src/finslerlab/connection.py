"""The unique non-linear connection of Hermitian type and its covariant derivation.

The connection is realized, relative to the flat chart connection, by a map
E assigning to each frame direction a vertical correction matrix: the lift
of the real direction with frame components w is

    dz = U w,   dU = U E(w),   E(w)^a_b = E[a, b, g] w^g .

E is computed two ways: a direct least-squares solve of the tangency
conditions (authoritative) and the closed form obtained by eliminating the
conjugate unknowns from those same conditions; both agree at adapted
frames, which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame_bundle import (
    AmbientTangent,
    BundlePoint,
    DegenerateMetricError,
    gram_derivative,
)
from .metric_dsl import MetricProgram


# --------------------------------------------------------------------------
# cached per-point tensor bundle
# --------------------------------------------------------------------------

class FrameData:
    """Frame-contracted jets and the connection at one ambient point (z, U).

    Valid at any invertible U near the adapted-frame bundle; all formulas
    restrict to the intrinsic objects on it.
    """

    def __init__(self, prog: MetricProgram, z, U):
        self.z = np.asarray(z, dtype=complex)
        self.U = np.asarray(U, dtype=complex)
        self.n = prog.dim
        self.jet = prog.jet_unchecked(self.z, self.U[:, 0], 4, 1)
        self._C: dict = {}
        self._E: np.ndarray | None = None

    def C(self, p: int, q: int) -> np.ndarray:
        """Fiber form of type (p, q) contracted with the frame columns."""
        key = (p, q)
        hit = self._C.get(key)
        if hit is None:
            t = self.jet.fiber_tensor(p, q)
            for _ in range(p):
                t = np.tensordot(t, self.U, axes=(0, 0))
            for _ in range(q):
                t = np.tensordot(t, np.conj(self.U), axes=(0, 0))
            self._C[key] = hit = t
        return hit

    @property
    def gram(self) -> np.ndarray:
        return self.C(1, 1)

    def holomorphic_gram_derivative(self) -> np.ndarray:
        """Dh[g, a, b]: base derivative of the Gram entries along e_g,
        with frame and fiber point held constant in chart coordinates."""
        hit = self._C.get("Dh")
        if hit is None:
            TZ, _ = self.jet.fiber_tensor_dbase(1, 1)
            hit = np.einsum("kg,kij,ia,jb->gab", self.U, TZ, self.U, np.conj(self.U))
            self._C["Dh"] = hit
        return hit

    @property
    def E(self) -> np.ndarray:
        """Closed-form connection coefficients E[a, b, g] (a: row, b: column,
        g: direction); the 0-column block solves first, the rest follows by
        back-substitution through the cubic form."""
        if self._E is None:
            n = self.n
            Dh = self.holomorphic_gram_derivative()
            C21 = self.C(2, 1)
            E = np.zeros((n, n, n), dtype=complex)
            for g in range(n):
                E[:, 0, g] = -Dh[g, 0, :]
                for a in range(1, n):
                    # H_{a bbar zeta} = C21[a, zeta, b]
                    E[:, a, g] = -Dh[g, a, :] - np.einsum(
                        "z,zb->b", E[:, 0, g], C21[a, :, :])
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
    z = np.asarray(z, dtype=complex)
    U = np.asarray(U, dtype=complex)
    cache = prog._cache
    key = ("framedata", z.tobytes(), U.tobytes())
    hit = cache.get(key)
    if hit is None:
        hit = FrameData(prog, z, U)
        cache[key] = hit
    return hit


# --------------------------------------------------------------------------
# the tangency solve (authoritative) and the public connection map
# --------------------------------------------------------------------------

@dataclass
class ConnectionMap:
    """Connection coefficients at a bundle point, with solve diagnostics."""

    E: np.ndarray  # (n, n, n): [row, column, direction]
    closed_form_gap: float  # max |E_lsq - E_closed|
    min_singular_ratio: float  # smallest sigma_min/sigma_max over directions
    residual: float  # tangency residual of the solved lifts


def solve_connection(prog: MetricProgram, p: BundlePoint) -> ConnectionMap:
    """Solve the tangency conditions for the vertical corrections.

    For each frame direction the corrections to the flat lifts of the two
    underlying real directions must keep the Gram map constant; this is a
    full-rank real-linear system whose unique solution is the connection.
    """
    n = p.n
    z, U = p.z, p.U
    E = np.zeros((n, n, n), dtype=complex)
    min_ratio = np.inf
    worst_res = 0.0
    units = [np.zeros((n, n), dtype=complex) for _ in range(n * n)]
    for k in range(n * n):
        units[k][divmod(k, n)] = 1.0

    def rows(mat: np.ndarray) -> np.ndarray:
        return np.concatenate([mat.real.ravel(), mat.imag.ravel()])

    # vertical responses are direction-independent; compute once
    resp1 = [rows(gram_derivative(prog, z, U, np.zeros(n), U @ D)) for D in units]
    resp2 = [rows(gram_derivative(prog, z, U, np.zeros(n), U @ (1j * D))) for D in units]

    for g in range(n):
        cols = []
        for k in range(n * n):
            cols.append(np.concatenate([resp1[k], resp2[k]]))   # real part of M_g[k]
        for k in range(n * n):
            cols.append(np.concatenate([resp2[k], -resp1[k]]))  # imag part of M_g[k]
        A = np.array(cols).T
        b1 = rows(gram_derivative(prog, z, U, U[:, g], np.zeros((n, n))))
        b2 = rows(gram_derivative(prog, z, U, 1j * U[:, g], np.zeros((n, n))))
        b = -np.concatenate([b1, b2])
        x, _, rank, sv = np.linalg.lstsq(A, b, rcond=None)
        if rank < 2 * n * n:
            raise DegenerateMetricError(
                "singular tangency system: the metric degenerates at this point")
        min_ratio = min(min_ratio, sv[-1] / sv[0])
        M = (x[:n * n] + 1j * x[n * n:]).reshape(n, n)
        E[:, :, g] = M
        worst_res = max(worst_res, float(np.max(np.abs(A @ x - b))))

    fd = frame_data(prog, z, U)
    gap = float(np.max(np.abs(E - fd.E)))
    return ConnectionMap(E=E, closed_form_gap=gap,
                         min_singular_ratio=float(min_ratio), residual=worst_res)


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


def covariant_derivative(prog: MetricProgram, p: BundlePoint, w, Y,
                         dY=None, step: float = 1e-6) -> np.ndarray:
    """Covariant derivative of the vector field Y along the direction whose
    frame components are w, at the fiber reference direction encoded by p.

    Y maps chart coordinates to the holomorphic components of a real
    vector field; dY, if given, is its directional derivative callable
    (z, dz) -> dY.  Output is the component vector of the derivative.
    """
    w = np.asarray(w, dtype=complex)
    U = p.U
    dz = U @ w
    if dY is not None:
        DYdz = np.asarray(dY(p.z, dz), dtype=complex)
    else:
        h = step * max(1.0, float(np.max(np.abs(p.z))))
        DYdz = (np.asarray(Y(p.z + h * dz), dtype=complex)
                - np.asarray(Y(p.z - h * dz), dtype=complex)) / (2 * h)
    fd = frame_data(prog, p.z, p.U)
    Yz = np.asarray(Y(p.z), dtype=complex)
    return DYdz - U @ fd.E_matrix(w) @ np.linalg.solve(U, Yz)
