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

from .finsler_forms import LeviReport, form_derivative, levi_check
from .jets import Jet
from .metric_dsl import FinslerError, MetricProgram, norm_of_f2

PIVOT_TOL = 1e-8  # a Gram-Schmidt pivot below this skips its seed
GROUP_TOL = 1e-10  # largest deviation of a group element from block-diagonal unitary


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


@dataclass
class AmbientTangent:
    """A real tangent vector in ambient coordinates (complex packaging)."""

    dz: np.ndarray
    dU: np.ndarray


# --------------------------------------------------------------------------
# Gram map and its directional derivative
# --------------------------------------------------------------------------

def gram_jet(prog: MetricProgram, z, U) -> Jet:
    """The jet(2, 0) of F^2 at (z, U e_0): its value is F^2(z, e_0), and its
    (1, 1) tensor, the Levi form, is 0-homogeneous in the fiber point, so
    it is the pairing at e_0 / F(e_0) too."""
    return prog.jet_unchecked(np.asarray(z, dtype=complex),
                              np.asarray(U, dtype=complex)[:, 0], 2, 0)


def frame_gram(jet: Jet, U: np.ndarray) -> np.ndarray:
    """Gram matrix of the frame columns in the Levi form of a gram_jet."""
    return U.T @ jet.fiber_tensor(1, 1) @ np.conj(U)


def gram_matrix(prog: MetricProgram, z, U) -> np.ndarray:
    """Mixed-Hessian Gram matrix of the frame columns at fiber point e_0."""
    U = np.asarray(U, dtype=complex)
    return frame_gram(gram_jet(prog, z, U), U)


def gram_residual(gram: np.ndarray) -> float:
    """Distance of a frame's Gram matrix (gram_matrix, or the C(1, 1) of a
    FrameData) from the identity."""
    return float(np.linalg.norm(gram - np.eye(len(gram))))


def gram_derivative(jet: Jet, delta, A) -> np.ndarray:
    """Derivative of the Gram map at (z, U) along the frame increment
    (delta, A), or along each increment of a stack: delta of shape (K, n)
    and A of shape (K, n, n) give shape (K, n, n).  jet is the jet(4, 1)
    at (z, U e_0) seeded in the frame U, the one FrameData holds.

    Valid at any (z, U) with invertible U; vanishes exactly on tangents to
    the bundle of adapted frames.  The Gram map is the (1, 1) frame form.
    """
    n = jet.space.n
    out = form_derivative(jet, (1, 1), np.reshape(delta, (-1, n)), np.reshape(A, (-1, n, n)))
    return out[0] if np.ndim(delta) == 1 else out


def verify_tangent(prog: MetricProgram, p: BundlePoint, t: AmbientTangent,
                   jet: Jet | None = None) -> float:
    """Max-abs derivative of the Gram map along the ambient tangent t, or
    along every tangent of a stacked t; ~0 iff tangent.  jet is the
    frame-seeded jet(4, 1) at p, evaluated here when not given."""
    if jet is None:
        jet = prog.jet_unchecked(p.z, p.e0, 4, 1, p.U)
    U = np.asarray(p.U, dtype=complex)
    delta = np.linalg.solve(U, np.asarray(t.dz, dtype=complex)[..., None])[..., 0]
    A = np.linalg.solve(U, np.asarray(t.dU, dtype=complex))
    return float(np.max(np.abs(gram_derivative(jet, delta, A))))


def complexify(dz: np.ndarray, dU: np.ndarray) -> np.ndarray:
    """Complexified stack (dz, dzbar, dU, dUbar) of an ambient tangent, or of
    each tangent of a stack (leading axes on dz and dU alike)."""
    dU = dU.reshape(dz.shape[:-1] + (-1,))
    return np.concatenate([dz, np.conj(dz), dU, np.conj(dU)], axis=-1)


# --------------------------------------------------------------------------
# frame construction and the structure group action
# --------------------------------------------------------------------------

def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-random n x n unitary: QR of a complex Gaussian, phases fixed by diag(R)."""
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(M)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _orthonormalize(G: np.ndarray, cols, w: np.ndarray, tol: float):
    """One Gram-Schmidt step in the pairing x G conj(y): w made orthogonal to
    the orthonormal cols and normalized, or None when its pivot falls below tol."""

    def pair(x, y):
        return complex(x @ G @ np.conj(y))

    for c in cols:
        w = w - pair(w, c) * c
    pivot = pair(w, w).real
    if pivot <= 0 or np.sqrt(max(pivot, 0.0)) < tol:
        return None
    return w / np.sqrt(pivot)


def adapted_frame(prog: MetricProgram, z, v, report: LeviReport | None = None) -> BundlePoint:
    """Deterministic adapted unitary frame with e_0 = v / F(v).

    Remaining columns come from projecting the canonical basis against the
    mixed-Hessian pairing with Gram-Schmidt in index order; each pivot is
    phase-normalized so its largest component is positive real.  e_0 and
    the pairing are the ones the Levi check at (z, v) evaluated: report,
    when the caller holds it, else one taken here.
    """
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    n = prog.dim
    if report is None:
        report = levi_check(prog, z, v)
    if report.verdict != "strongly-pseudoconvex":
        raise DegenerateMetricError(
            f"Levi form is {report.verdict} at the requested point")
    e0 = report.e0
    G = report.jet.fiber_tensor(1, 1)
    for attempt in range(2):
        seeds = [np.eye(n, dtype=complex)[:, k] for k in range(n)]
        if attempt == 1:
            # a fixed generic unitary, used once when the canonical seeds degenerate
            Q = haar_unitary(n, np.random.default_rng(20240817))
            seeds = [Q[:, k] for k in range(n)]
        cols = [e0]
        for seed in seeds:
            if len(cols) == n:
                break
            w = _orthonormalize(G, cols, seed.astype(complex), PIVOT_TOL)
            if w is None:
                continue
            k = int(np.argmax(np.abs(w)))
            w = w * (np.conj(w[k]) / abs(w[k]))
            cols.append(w)
        if len(cols) == n:
            return BundlePoint(z=z.copy(), U=np.column_stack(cols))
    raise DegenerateMetricError("Gram-Schmidt pivot breakdown while adapting the frame")


def reproject_frame(z, U, jet: Jet) -> BundlePoint:
    """Re-orthonormalize existing frame columns (gauge-continuous projection).

    Used by the geodesic integrator: e_0 is renormalized to the unit fiber
    direction by F from the value of jet, the gram_jet at (z, U), and the
    remaining columns are re-orthonormalized in place in its Levi form.
    """
    z = np.asarray(z, dtype=complex)
    U = np.asarray(U, dtype=complex)
    n = len(z)
    e0 = U[:, 0] / norm_of_f2(jet.value)
    G = jet.fiber_tensor(1, 1)
    cols = [e0]
    for a in range(1, n):
        w = _orthonormalize(G, cols, U[:, a], 1e-10)
        if w is None:
            raise DegenerateMetricError("frame re-projection pivot breakdown")
        cols.append(w)
    return BundlePoint(z=z.copy(), U=np.column_stack(cols))


def group_act(p: BundlePoint, g: np.ndarray) -> BundlePoint:
    """Right action of diag(e^{i phi}, B) with B in U_{n-1}."""
    g = np.asarray(g, dtype=complex)
    n = p.n
    if g.shape != (n, n):
        raise FinslerError(f"group element must be {n} x {n}")
    dev = max(np.max(np.abs(np.conj(g).T @ g - np.eye(n))),
              np.max(np.abs(g[0, 1:])) if n > 1 else 0.0,
              np.max(np.abs(g[1:, 0])) if n > 1 else 0.0)
    if dev > GROUP_TOL:
        raise FinslerError(f"group element is not block-diagonal unitary (deviation {dev:.2e})")
    return BundlePoint(z=p.z.copy(), U=p.U @ g)


def vertical_relations_residual(oh, oa, C20, C21, C12) -> float:
    """Max residual of the linear relations that cut out the vertical algebra,
    for the holomorphic and antiholomorphic slots oh, oa of a generator
    (oa = conj(oh) for a real one), or of each generator of a stack on
    leading axes, with C20, C21, C12 the frame components of the (2,0),
    (2,1) and (1,2) fiber forms.  The relations are
    oh[a, b] + oa[b, a] + corrections = 0 at (a, b) = (0, 0), (0, lam) and
    (lam, mu), lam, mu >= 1; C20 corrects the (0, lam) ones and the cubic
    forms the (lam, mu) ones, from the motion of the fiber point."""
    n = oh.shape[-1]
    h0, a0 = oh[..., :, 0], oa[..., :, 0]
    r = oh + np.swapaxes(oa, -1, -2)
    r[..., 0, 1:] += (h0 @ C20.T)[..., 1:]
    r[..., 1:, 1:] += (np.einsum("mnl,...n->...lm", C21, h0)
                       + np.einsum("mln,...n->...lm", C12, a0))[..., 1:, 1:]
    related = np.ones((n, n), dtype=bool)
    related[1:, 0] = False
    return float(np.max(np.abs(r[..., related]), initial=0.0))
