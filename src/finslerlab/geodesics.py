"""Geodesic integration and curvature classification.

Geodesics are integrated through their unit-speed frame lift: the base
velocity is the first frame vector, and the lift follows the horizontal
field corrected by the Webster-type vertical fields with coefficients given
by the geodesic torsion components, which energy stationarity fixes.  For
metrics coming from a Kaehler metric the correction vanishes and geodesics
are horizontal flows.  No report runs the independent checks of a path (the
energy's first variation, the stationarity conditions along a lift) or the
E-manifold closed forms, so they live with the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .connection import frame_data
from .finsler_forms import hermitian_test
from .frame_bundle import (
    AmbientTangent,
    BundlePoint,
    DegenerateMetricError,
    adapted_frame,
    frame_gram,
    gram_jet,
    reproject_frame,
)
from .metric_dsl import FinslerError, MetricProgram, norm_of_f2
from .parallelism import _generators, extract_structure

GRAM_TOL = 1e-6  # Gram drift above which an RK4 step is halved and retried
MAX_HALVINGS = 3  # a step is retried as 2, 4 and 8 substeps before it is rejected
STEP_COUNT_TOL = 1e-9  # t_max / dt this close to an integer takes equal steps
MAX_STEPS = 1_000_000  # integrate_geodesic refuses a t_max / dt above this
# classify counts the geodesic torsion, the spread of the sampled holomorphic
# sectional curvatures and their off-diagonal components as zero below these
TORSION_TOL = 1e-5
SPREAD_TOL = 1e-4
OFF_DIAGONAL_TOL = 1e-5


class IntegrationError(FinslerError):
    """Geodesic integration left the admissible chart region or failed."""


# --------------------------------------------------------------------------
# spray and integration
# --------------------------------------------------------------------------

def spray_coefficients(fd) -> np.ndarray:
    """Vertical correction coefficients of the unit-speed geodesic field.

    Energy stationarity couples the coefficients to their conjugates through
    the pure quadratic form:

        conj(a_mu) + sum_lam h_{mu lam} a_lam = T^0_{mu 0} ,

    solved here by eliminating the conjugates.  For metrics coming from a
    Kaehler metric the pure form vanishes and a = conj(T^0_{. 0}) = 0; the
    correctness of the coupling is pinned by the first-variation oracle and
    by an independent Euler-Lagrange integration in the tests.
    """
    n = fd.n
    if n == 1:
        return np.zeros(0, dtype=complex)
    tvec = fd.torsion[0, 1:, 0]
    H = fd.C(2, 0)[1:, 1:]
    lhs = np.eye(n - 1) - np.conj(H) @ H
    try:
        return np.linalg.solve(lhs, np.conj(tvec) - np.conj(H) @ tvec)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(
            "geodesic correction solve is singular (degenerate pairing)") from exc


def geodesic_spray(prog: MetricProgram, p: BundlePoint) -> AmbientTangent:
    """Unit-speed geodesic field at p: the first horizontal lift plus the
    vertical correction solving the energy-stationarity conditions.

    Only the fields it uses are built: the lift f_0 = (U e_0, U E(e_0)),
    and for n > 1 the vertical pairs e_{2 lam}, e_{2 lam + 1}, added with
    weights Re a_lam, Im a_lam one field at a time, as the parallelism's
    field stack would give them."""
    fd = frame_data(prog, p.z, p.U)
    dU = fd.U @ fd.E[:, :, 0]
    a = spray_coefficients(fd)
    if a.any():
        n = fd.n
        X = fd.U @ _generators(fd)[2 * n:4 * n - 2]
        for lam, w in enumerate(a):
            dU = dU + X[2 * lam] * float(w.real)
            dU = dU + X[2 * lam + 1] * float(w.imag)
    return AmbientTangent(fd.U[:, 0].copy(), dU)


@dataclass
class GeodesicPath:
    ts: np.ndarray
    zs: np.ndarray        # (steps+1, n)
    frames: np.ndarray    # (steps+1, n, n)
    speeds: np.ndarray    # F of the base velocity, ~1 in this gauge
    speed0: float         # F(v0) of the requested initial velocity
    max_gram_drift: float
    max_speed_drift: float


def integrate_geodesic(prog: MetricProgram, z0, v0, t_max: float, dt: float,
                       domain=None) -> GeodesicPath:
    """Classical 4th-order one-step integration of the geodesic field with
    per-step frame re-projection.  Time is arc length: the path leaves z0
    in direction v0/F(v0) at unit speed and ends at t = t_max.

    The steps are dt long; when t_max / dt lies further than
    STEP_COUNT_TOL from an integer, the last one is shortened to end at
    t_max.  A step whose Gram drift exceeds GRAM_TOL is retried as 2, 4,
    then 8 substeps, each checked and re-projected like a step."""
    if not t_max / dt <= MAX_STEPS:  # checked before any step or array is made
        raise IntegrationError(f"t_max / dt = {t_max / dt:.3g} steps exceeds {MAX_STEPS}")
    nsteps = round(t_max / dt)
    equal = abs(t_max / dt - nsteps) <= STEP_COUNT_TOL
    if not equal:
        nsteps = math.ceil(t_max / dt)
    z0 = np.asarray(z0, dtype=complex)
    v0 = np.asarray(v0, dtype=complex)
    speed0 = prog.norm(z0, v0)
    p = adapted_frame(prog, z0, v0)
    n = prog.dim
    eye = np.eye(n)
    ts = np.zeros(nsteps + 1)
    zs = np.zeros((nsteps + 1, n), dtype=complex)
    frames = np.zeros((nsteps + 1, n, n), dtype=complex)
    speeds = np.zeros(nsteps + 1)
    zs[0], frames[0], speeds[0] = p.z, p.U, 1.0
    max_gram = 0.0
    max_speed = 0.0

    def rhs(z, U):
        t = geodesic_spray(prog, BundlePoint(z, U))
        return t.dz, t.dU

    def substeps(p, h, count, t):
        """count checked RK4 steps of h from p, which lies at time t: the
        end frame and the largest Gram and speed drifts, or None and the
        Gram drift that exceeds GRAM_TOL."""
        worst_gram = worst_speed = 0.0
        for _ in range(count):
            z, U = p.z, p.U
            k1z, k1U = rhs(z, U)
            k2z, k2U = rhs(z + 0.5 * h * k1z, U + 0.5 * h * k1U)
            k3z, k3U = rhs(z + 0.5 * h * k2z, U + 0.5 * h * k2U)
            k4z, k4U = rhs(z + h * k3z, U + h * k3U)
            zn = z + h / 6 * (k1z + 2 * k2z + 2 * k3z + k4z)
            Un = U + h / 6 * (k1U + 2 * k2U + 2 * k3U + k4U)
            jet = gram_jet(prog, zn, Un)  # the one jet of the step
            gram = float(np.linalg.norm(frame_gram(jet, Un) - eye))
            if not gram <= GRAM_TOL:
                return None, gram
            if domain is not None and not domain(zn):
                raise IntegrationError(f"geodesic left the admissible region at t={t:.3f}")
            worst_gram = max(worst_gram, gram)
            worst_speed = max(worst_speed, abs(norm_of_f2(jet.value) - 1.0))
            p = reproject_frame(prog, zn, Un, jet)
        return p, (worst_gram, worst_speed)

    for k in range(nsteps):
        h = dt if equal or k < nsteps - 1 else t_max - k * dt
        for halvings in range(MAX_HALVINGS + 1):
            q, drift = substeps(p, h / 2 ** halvings, 2 ** halvings, ts[k])
            if q is not None:
                break
        else:
            raise IntegrationError(f"step rejected: Gram drift {drift:.2e} at t={ts[k]:.3f}")
        p = q
        max_gram = max(max_gram, drift[0])
        max_speed = max(max_speed, drift[1])
        ts[k + 1] = ts[k] + h
        zs[k + 1], frames[k + 1] = p.z, p.U
        speeds[k + 1] = prog.norm(p.z, p.U[:, 0])
    return GeodesicPath(ts=ts, zs=zs, frames=frames, speeds=speeds, speed0=speed0,
                        max_gram_drift=max_gram, max_speed_drift=max_speed)


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

@dataclass
class ClassificationReport:
    hermitian: bool
    geodetically_torsion_free: bool
    constant_hsc: bool
    c: float | None
    hsc_spread: float
    e_manifold: bool
    max_geodesic_torsion: float
    max_offdiagonal_curvature: float
    witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "hermitian": self.hermitian,
            "geodetically_torsion_free": self.geodetically_torsion_free,
            "constant_hsc": {"verdict": self.constant_hsc, "c": self.c,
                             "spread": self.hsc_spread},
            "e_manifold": self.e_manifold,
            "max_geodesic_torsion": self.max_geodesic_torsion,
            "max_offdiagonal_curvature": self.max_offdiagonal_curvature,
            "witnesses": self.witnesses,
        }


def classify(prog: MetricProgram, points) -> ClassificationReport:
    """Pointwise classification from structure functions at sample points.

    ``points`` is a list of (z, v) pairs.  Curvature values are reported in
    the holomorphic-sectional-curvature normalization.
    """
    herm, witness = hermitian_test(prog, points)
    max_T = 0.0
    max_off = 0.0
    hsc_vals = []
    worst_T_point = None
    for z, v in points:
        p = adapted_frame(prog, z, v)
        sf = extract_structure(prog, p)
        n = prog.dim
        tval = max((abs(sf.T[0, lam, 0]) for lam in range(1, n)), default=0.0)
        if tval >= max_T:
            max_T, worst_T_point = tval, (np.asarray(z), np.asarray(v))
        hsc_vals.append(float(np.real(sf.R[0, 0, 0, 0])))
        for lam in range(1, n):
            max_off = max(max_off, abs(sf.R[lam, 0, 0, 0]), abs(sf.R[0, lam, 0, 0]))
    spread = float(np.max(hsc_vals) - np.min(hsc_vals)) if hsc_vals else 0.0
    torsion_free = max_T < TORSION_TOL
    constant = spread < SPREAD_TOL and max_off < OFF_DIAGONAL_TOL
    c = float(np.mean(hsc_vals)) if hsc_vals else None
    witnesses = {"hermitian_witness": None if witness is None else {
        "z": witness[0].tolist(), "v": witness[1].tolist(),
        "value": [witness[3].real, witness[3].imag]},
        # below TORSION_TOL the largest torsion is round-off, and its point says nothing
        "worst_torsion_point": None if worst_T_point is None or torsion_free else
        [worst_T_point[0].tolist(), worst_T_point[1].tolist()]}
    return ClassificationReport(
        hermitian=herm,
        geodetically_torsion_free=torsion_free,
        constant_hsc=constant,
        c=c if constant else None,
        hsc_spread=spread,
        e_manifold=torsion_free and constant,
        max_geodesic_torsion=max_T,
        max_offdiagonal_curvature=max_off,
        witnesses=witnesses,
    )
