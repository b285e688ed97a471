"""Adapted unitary frames and the ambient geometry of the frame bundle.

A bundle point is a pair (z, U): chart coordinates plus the n x n complex
matrix whose columns e_0..e_{n-1} form the holomorphic frame, with e_0 the
unit fiber direction.  The defining (Gram) condition is that the mixed
fiber Hessian of F^2 at e_0, contracted with the frame, is the identity.

Ambient tangents are pairs (dz, dU); tangency to the frame bundle is the
vanishing of the directional derivative of the Gram map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finsler_forms import levi_check
from .metric_dsl import FinslerError, MetricProgram


class DegenerateMetricError(FinslerError):
    """Degenerate Levi form, pivot breakdown or singular solve."""


@dataclass
class BundlePoint:
    z: np.ndarray
    U: np.ndarray

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def e0(self) -> np.ndarray:
        return self.U[:, 0]

    def key(self) -> bytes:
        return self.z.tobytes() + self.U.tobytes()

    def copy(self) -> "BundlePoint":
        return BundlePoint(self.z.copy(), self.U.copy())


@dataclass
class AmbientTangent:
    """A real tangent vector in ambient coordinates (complex packaging)."""

    dz: np.ndarray
    dU: np.ndarray

    def __add__(self, other):
        return AmbientTangent(self.dz + other.dz, self.dU + other.dU)

    def __sub__(self, other):
        return AmbientTangent(self.dz - other.dz, self.dU - other.dU)

    def scale(self, a: float) -> "AmbientTangent":
        return AmbientTangent(a * self.dz, a * self.dU)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.dz) ** 2) + np.sum(np.abs(self.dU) ** 2)))


# --------------------------------------------------------------------------
# Gram map and its directional derivative
# --------------------------------------------------------------------------

def gram_matrix(prog: MetricProgram, z, U) -> np.ndarray:
    """Mixed-Hessian Gram matrix of the frame columns at fiber point e_0."""
    z = np.asarray(z, dtype=complex)
    U = np.asarray(U, dtype=complex)
    jet = prog.jet_unchecked(z, U[:, 0], 2, 0)
    G = jet.fiber_tensor(1, 1)
    return U.T @ G @ np.conj(U)


def gram_residual(prog: MetricProgram, p: BundlePoint) -> float:
    n = p.n
    return float(np.linalg.norm(gram_matrix(prog, p.z, p.U) - np.eye(n)))


def gram_derivative(prog: MetricProgram, z, U, dz, dU) -> np.ndarray:
    """Directional derivative of the Gram map along the ambient tangent.

    Valid at any (z, U) with invertible U; vanishes exactly on tangents to
    the bundle of adapted frames.
    """
    z = np.asarray(z, dtype=complex)
    U = np.asarray(U, dtype=complex)
    dz = np.asarray(dz, dtype=complex)
    dU = np.asarray(dU, dtype=complex)
    e0 = U[:, 0]
    jet = prog.jet_unchecked(z, e0, 3, 1)
    T11 = jet.fiber_tensor(1, 1)
    T21 = jet.fiber_tensor(2, 1)
    T12 = jet.fiber_tensor(1, 2)
    TZ, TZb = jet.fiber_tensor_dbase(1, 1)
    Ub = np.conj(U)

    base = np.einsum("k,kij->ij", dz, TZ) + np.einsum("k,kij->ij", np.conj(dz), TZb)
    de0 = dU[:, 0]
    fiber = np.tensordot(de0, T21, axes=(0, 0)) \
        + np.moveaxis(np.tensordot(np.conj(de0), T12, axes=(0, 1)), 0, 0)
    out = U.T @ (base + fiber) @ Ub
    out += dU.T @ T11 @ Ub + U.T @ T11 @ np.conj(dU)
    return out


def verify_tangent(prog: MetricProgram, p: BundlePoint, t: AmbientTangent) -> float:
    """Max-abs derivative of the Gram map along t; ~0 iff t is tangent."""
    return float(np.max(np.abs(gram_derivative(prog, p.z, p.U, t.dz, t.dU))))


def tangency_kernel_dimension(prog: MetricProgram, p: BundlePoint,
                              rel_tol: float = 1e-6) -> int:
    """Real dimension of the kernel of the Gram-derivative map at p.

    Equals the dimension of the frame bundle, n^2 + 2n, when the metric is
    strongly pseudoconvex.
    """
    n = p.n
    dim_amb = 2 * n + 2 * n * n
    cols = []
    for r in range(dim_amb):
        vec = np.zeros(dim_amb)
        vec[r] = 1.0
        dz, dU = unpack_real(vec, n)
        gd = gram_derivative(prog, p.z, p.U, dz, dU)
        cols.append(np.concatenate([gd.real.ravel(), gd.imag.ravel()]))
    mat = np.array(cols).T
    sv = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(sv > rel_tol * sv[0]))
    return dim_amb - rank


def pack_real(t: AmbientTangent) -> np.ndarray:
    return np.concatenate([t.dz.real, t.dz.imag, t.dU.real.ravel(), t.dU.imag.ravel()])


def unpack_real(vec: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    dz = vec[:n] + 1j * vec[n:2 * n]
    dU = (vec[2 * n:2 * n + n * n] + 1j * vec[2 * n + n * n:]).reshape(n, n)
    return dz, dU


# --------------------------------------------------------------------------
# frame construction and the structure group action
# --------------------------------------------------------------------------

def _retry_unitary(n: int) -> np.ndarray:
    """Fixed generic unitary used once when the canonical seeds degenerate."""
    rng = np.random.default_rng(20240817)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(M)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def adapted_frame(prog: MetricProgram, z, v, pivot_tol: float = 1e-8) -> BundlePoint:
    """Deterministic adapted unitary frame with e_0 = v / F(v).

    Remaining columns come from projecting the canonical basis against the
    mixed-Hessian pairing with Gram-Schmidt in index order; each pivot is
    phase-normalized so its largest component is positive real.
    """
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    n = prog.dim
    report = levi_check(prog, z, v)
    if report.verdict != "strongly-pseudoconvex":
        raise DegenerateMetricError(
            f"Levi form is {report.verdict} at the requested point")
    e0 = v / prog.norm(z, v)
    jet = prog.jet_unchecked(z, e0, 2, 0)
    G = jet.fiber_tensor(1, 1)

    def pair(x, y):
        return complex(x @ G @ np.conj(y))

    for attempt in range(2):
        seeds = [np.eye(n, dtype=complex)[:, k] for k in range(n)]
        if attempt == 1:
            Q = _retry_unitary(n)
            seeds = [Q[:, k] for k in range(n)]
        cols = [e0]
        for seed in seeds:
            if len(cols) == n:
                break
            w = seed.astype(complex)
            for c in cols:
                w = w - pair(w, c) * c
            pivot = pair(w, w).real
            if pivot <= 0 or np.sqrt(max(pivot, 0.0)) < pivot_tol:
                continue
            w = w / np.sqrt(pivot)
            k = int(np.argmax(np.abs(w)))
            w = w * (np.conj(w[k]) / abs(w[k]))
            cols.append(w)
        if len(cols) == n:
            return BundlePoint(z=z.copy(), U=np.column_stack(cols))
    raise DegenerateMetricError("Gram-Schmidt pivot breakdown while adapting the frame")


def reproject_frame(prog: MetricProgram, z, U) -> BundlePoint:
    """Re-orthonormalize existing frame columns (gauge-continuous projection).

    Used by the geodesic integrator: e_0 is renormalized to the unit fiber
    direction and the remaining columns are re-orthonormalized in place.
    """
    z = np.asarray(z, dtype=complex)
    U = np.asarray(U, dtype=complex)
    n = prog.dim
    e0 = U[:, 0] / prog.norm(z, U[:, 0])
    jet = prog.jet_unchecked(z, e0, 2, 0)
    G = jet.fiber_tensor(1, 1)

    def pair(x, y):
        return complex(x @ G @ np.conj(y))

    cols = [e0]
    for a in range(1, n):
        w = U[:, a].copy()
        for c in cols:
            w = w - pair(w, c) * c
        pivot = pair(w, w).real
        if pivot <= 0 or np.sqrt(max(pivot, 0.0)) < 1e-10:
            raise DegenerateMetricError("frame re-projection pivot breakdown")
        cols.append(w / np.sqrt(pivot))
    return BundlePoint(z=z.copy(), U=np.column_stack(cols))


def group_act(p: BundlePoint, g: np.ndarray, tol: float = 1e-10) -> BundlePoint:
    """Right action of diag(e^{i phi}, B) with B in U_{n-1}."""
    g = np.asarray(g, dtype=complex)
    n = p.n
    if g.shape != (n, n):
        raise FinslerError(f"group element must be {n} x {n}")
    dev = max(np.max(np.abs(np.conj(g).T @ g - np.eye(n))),
              np.max(np.abs(g[0, 1:])) if n > 1 else 0.0,
              np.max(np.abs(g[1:, 0])) if n > 1 else 0.0)
    if dev > tol:
        raise FinslerError(f"group element is not block-diagonal unitary (deviation {dev:.2e})")
    return BundlePoint(z=p.z.copy(), U=p.U @ g)


def fundamental_field(p: BundlePoint, A: np.ndarray) -> AmbientTangent:
    """Vertical tangent generated by the matrix Lie-algebra element A."""
    A = np.asarray(A, dtype=complex)
    return AmbientTangent(dz=np.zeros(p.n, dtype=complex), dU=p.U @ A)


def vertical_membership(prog: MetricProgram, p: BundlePoint, A: np.ndarray) -> float:
    """Max residual of the defining equations of the algebraic vertical
    subspace at p, for the candidate generator A."""
    from .finsler_forms import forms_at

    A = np.asarray(A, dtype=complex)
    n = p.n
    forms = forms_at(prog, p.z, p.e0, p.U, max_order=3)
    hp = forms.h_pure
    C21 = forms.comp[(2, 1)]
    C12 = forms.comp[(1, 2)]
    res = abs(A[0, 0] + np.conj(A[0, 0]))
    for lam in range(1, n):
        r = A[0, lam] + np.conj(A[lam, 0])
        r += sum(A[g, 0] * hp[lam, g] for g in range(n))
        res = max(res, abs(r))
        for mu in range(1, n):
            r = A[mu, lam] + np.conj(A[lam, mu])
            # cubic-form corrections from the motion of the fiber point
            r += sum(A[g, 0] * C21[lam, g, mu] for g in range(n))
            r += sum(np.conj(A[g, 0]) * C12[lam, mu, g] for g in range(n))
            res = max(res, abs(r))
    return float(res)
