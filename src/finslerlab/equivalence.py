"""Invariant signatures for the local equivalence problem.

The structure coefficients of the parallelism and their iterated derivatives
along the parallelism fields form a complete local invariant family; two
metrics can only be locally isometric through a frame match if the families
agree.  Signatures here are frame-pointwise: a mismatch rules out an
isometry matching the two frames, a match is necessary but not sufficient.
Every derivative along the fields is exact: tier k, for every k, is order
k of parallelism.structure_derivative at the frame, with no displaced
point and no difference quotient.  The frame's bracket table keeps each
order it has taken, read-only, so a signature and the regularity ranks
read at one frame share its tiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import frame_data
from .frame_bundle import BundlePoint, group_act, haar_unitary
from .metric_dsl import FinslerError, MetricProgram
from .parallelism import FieldTable, _bracket_table, labels_real, structure_derivative

# Singular values count toward a regularity rank when above SV_TOL * sigma_max
# and above the absolute NOISE_FLOOR.  Every tier is exact, so the singular
# values a rank drops are round-off: at three sample points
# (sample_points(..., 3, seed=3)) of each catalog metric and of two
# non-Hermitian metrics with base dependence, up to alpha = 2, they are at
# most 7.0e-10, and those it counts at least 0.82.  The floor is the least
# power of ten at least 100 times above the one and 100 times below the
# other (1e-3 while tier 3 was a central difference, 1e-2 while tier 2 was).
SV_TOL = 1e-4
NOISE_FLOOR = 1e-7


def structure_coefficients(prog: MetricProgram, z, U) -> np.ndarray:
    """Flattened real structure coefficients c^i_{jk} (pairs j < k) at (z, U).

    Ordering: pairs (j, k) with j < k lexicographic in the order of
    labels_real, and for each pair all basis components i in that order.
    """
    return structure_derivative(_bracket_table(frame_data(prog, z, U)), 0).ravel()


@dataclass
class Signature:
    order: int
    dim: int
    tiers: list  # tiers[k] = flattened k-th derivative family
    vector: np.ndarray  # concatenation of all tiers

    def distance(self, other: "Signature") -> float:
        if self.dim != other.dim or self.order != other.order:
            raise FinslerError("signatures have different shape (dimension or order)")
        return float(np.max(np.abs(self.vector - other.vector)))


def signature(prog: MetricProgram, p: BundlePoint, order: int = 0,
              table: FieldTable | None = None) -> Signature:
    """Invariant signature at a bundle point up to the given derivative
    order, read from the frame's bracket table when given."""
    if order > 2:
        raise FinslerError("signature derivative order is limited to 2")
    table = _bracket_table(frame_data(prog, p.z, p.U)) if table is None else table
    tiers = [structure_derivative(table, k).ravel() for k in range(order + 1)]
    return Signature(order=order, dim=prog.dim, tiers=tiers,
                     vector=np.concatenate(tiers))


@dataclass
class RegularityReport:
    ranks: list
    stabilized: bool
    order: int | None
    rank: int | None


def regularity(prog: MetricProgram, p: BundlePoint, alpha_max: int = 2,
               table: FieldTable | None = None) -> RegularityReport:
    """Numerical rank of the invariant families along the parallelism,
    with early stop at rank stabilization; the tiers are read from the
    frame's bracket table when given."""
    if alpha_max > 2:
        raise FinslerError("regularity order is limited to 2")
    N = len(labels_real(prog.dim))
    table = _bracket_table(frame_data(prog, p.z, p.U)) if table is None else table

    def jac_rank(alpha: int) -> int:
        # row m: the derivative of tiers 0..alpha along field m, which is the
        # m-th block of tier k + 1 for each k
        jac = np.hstack([structure_derivative(table, k + 1).reshape(N, -1)
                         for k in range(alpha + 1)])
        sv = np.linalg.svd(jac, compute_uv=False)
        return int(np.sum(sv > max(SV_TOL * sv[0], NOISE_FLOOR)))

    ranks = [jac_rank(0)]
    for alpha in range(1, alpha_max + 1):
        ranks.append(jac_rank(alpha))
        if ranks[-1] == ranks[-2]:
            return RegularityReport(ranks=ranks, stabilized=True,
                                    order=alpha - 1, rank=ranks[-1])
    return RegularityReport(ranks=ranks, stabilized=False, order=None, rank=None)


def _haar_group_element(n: int, rng) -> np.ndarray:
    """Random element of the block structure group diag(phase, unitary)."""
    g = np.zeros((n, n), dtype=complex)
    g[0, 0] = np.exp(1j * rng.uniform(0, 2 * np.pi))
    if n > 1:
        g[1:, 1:] = haar_unitary(n - 1, rng)
    return g


def compare(progA: MetricProgram, pA: BundlePoint,
            progB: MetricProgram, pB: BundlePoint,
            order: int = 0, tol: float = 1e-3,
            fiber_samples: int = 0, seed: int = 0, table_a: FieldTable | None = None) -> dict:
    """Frame-pointwise signature comparison.

    A verdict of "differ" excludes a local isometry matching the two
    frames; "match" is a necessary condition only.  With fiber_samples > 0
    the frame at pB is additionally rotated through random structure-group
    elements and the best match is reported (no completeness claim).
    table_a is the bracket table at pA, when the caller reads its tiers
    too.  Metrics of different chart dimensions differ with no distance
    (None), since their signatures have different lengths.
    """
    if progA.dim != progB.dim:
        return {"verdict": "differ", "reason": "different chart dimensions",
                "distance": None, "order": order}
    sigA = signature(progA, pA, order, table_a)
    sigB = signature(progB, pB, order)
    best = sigA.distance(sigB)
    best_g = None
    rng = np.random.default_rng(seed)
    for _ in range(fiber_samples):
        g = _haar_group_element(progA.dim, rng)
        sigBg = signature(progB, group_act(pB, g), order)
        d = sigA.distance(sigBg)
        if d < best:
            best, best_g = d, g
    return {
        "verdict": "match" if best < tol else "differ",
        "distance": best,
        "tolerance": tol,
        "order": order,
        "fiber_samples": fiber_samples,
        "best_group_element": None if best_g is None else
        [[ [x.real, x.imag] for x in row] for row in best_g],
        "semantics": "frame-pointwise necessary condition: 'differ' excludes a "
                     "local isometry matching these frames; 'match' is inconclusive-positive",
    }
