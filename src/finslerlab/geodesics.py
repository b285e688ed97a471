"""Geodesic integration, energy stationarity and curvature classification.

Geodesics are integrated through their unit-speed frame lift: the base
velocity is the first frame vector, and the lift follows the horizontal
field corrected by the Webster-type vertical fields with coefficients given
by the geodesic torsion components.  For metrics coming from a Kaehler
metric the correction vanishes and geodesics are horizontal flows.
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
    complexify,
    frame_gram,
    gram_jet,
    reproject_frame,
)
from .metric_dsl import FinslerError, MetricProgram, norm_of_f2
from .parallelism import (
    HSC_NORMALIZATION,
    _Coframe,
    _complex_lift_derivative,
    _vertical_generators,
    extract_structure,
)

GRAM_TOL = 1e-6  # Gram drift above which an RK4 step is halved and retried
MAX_HALVINGS = 3  # a step is retried as 2, 4 and 8 substeps before it is rejected
STEP_COUNT_TOL = 1e-9  # t_max / dt this close to an integer takes equal steps
MAX_STEPS = 1_000_000  # integrate_geodesic refuses a t_max / dt above this
# classify counts the geodesic torsion, the spread of the sampled holomorphic
# sectional curvatures and their off-diagonal components as zero below these
TORSION_TOL = 1e-5
SPREAD_TOL = 1e-4
OFF_DIAGONAL_TOL = 1e-5
# Steps of the complex differences along a curve.  The curvature stencil
# uses its own, larger step: it divides twice by the step and would
# otherwise amplify the derivative roundoff.
CURVE_STEP = 1e-5
CURVATURE_STEP = 3e-3
RESIDUAL_STRIDE = 10  # path samples between the points the residuals visit


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
        X = fd.U @ _vertical_generators(fd)
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

    @property
    def velocities(self) -> np.ndarray:
        return self.frames[:, :, 0]


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


def energy(prog: MetricProgram, ts, zs, dzs) -> float:
    """Energy integral of a sampled curve (trapezoid rule)."""
    vals = np.array([prog.eval(z, dz) for z, dz in zip(zs, dzs)])
    return float(np.trapezoid(vals, ts))


def energy_first_variation(prog: MetricProgram, path: GeodesicPath, perturbation,
                           s: float = 1e-4) -> float:
    """Central-difference derivative of the energy under a fixed-endpoint
    variation.  ``perturbation`` maps t to the complex displacement vector;
    its time derivative is taken by finite differences on the sample grid."""
    ts = path.ts
    W = np.array([np.asarray(perturbation(t), dtype=complex) for t in ts])
    if np.max(np.abs(W[0])) > 1e-12 or np.max(np.abs(W[-1])) > 1e-12:
        raise FinslerError("perturbation must vanish at both endpoints")
    Wdot = np.gradient(W, ts, axis=0)
    dz = path.velocities
    e_plus = energy(prog, ts, path.zs + s * W, dz + s * Wdot)
    e_minus = energy(prog, ts, path.zs - s * W, dz - s * Wdot)
    return (e_plus - e_minus) / (2 * s)


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


def e_manifold_closed_forms(prog: MetricProgram, p: BundlePoint, c: float) -> dict:
    """Residuals of the closed-form torsion/curvature expressions valid on
    manifolds with complex geodesics in every direction and constant
    holomorphic sectional curvature c (given in the -4 normalization;
    identities are checked in the bracket normalization)."""
    n = prog.dim
    sf = extract_structure(prog, p)
    R = sf.R_raw
    T = sf.T
    craw = c / HSC_NORMALIZATION
    h = sf.h_vert        # (m, m) pure form block, indices 1..n-1 shifted
    fd = sf.frame
    C20 = fd.C(2, 0)
    d20b = _complex_lift_derivative(sf.table, (2, 0))[1]  # conj-lift derivatives of h_pure

    res = {}
    res["R0000"] = abs(R[0, 0, 0, 0] - craw)
    van = 0.0
    for lam in range(1, n):
        van = max(van, abs(R[lam, 0, 0, 0]), abs(R[0, lam, 0, 0]),
                  abs(R[0, 0, lam, 0]), abs(R[0, 0, 0, lam]))
    res["vanishing_components"] = van

    r_h = r_mix = r_block = 0.0
    hbar = np.conj(h)
    hhbar = h @ hbar if n > 1 else np.zeros((0, 0))
    for lam in range(1, n):
        for mu in range(1, n):
            l, m_ = lam - 1, mu - 1
            r_h = max(r_h, abs(R[0, lam, mu, 0] - craw * h[l, m_]))
            r_h = max(r_h, abs(R[lam, 0, 0, mu] - craw * hbar[l, m_]))
            r_mix = max(r_mix, abs(R[0, lam, 0, mu]
                                   - craw / 2 * ((lam == mu) + hhbar[l, m_])))
            r_mix = max(r_mix, abs(R[lam, 0, mu, 0]
                                   - craw / 2 * ((lam == mu) + np.conj(hhbar[l, m_]))))
            r_mix = max(r_mix, abs(R[0, 0, lam, mu]
                                   - craw / 2 * ((lam == mu) - hhbar[m_, l])))
            deriv = sum(d20b[0][mu, nu] * np.conj(d20b[0][lam, nu])
                        for nu in range(1, n))
            r_block = max(r_block, abs(R[lam, mu, 0, 0]
                                       - craw / 2 * ((lam == mu)
                                                     - sum(h[nu - 1, m_] * hbar[nu - 1, l]
                                                           for nu in range(1, n)))
                                       + deriv))
    res["R_h_pairing"] = r_h
    res["R_mixed"] = r_mix
    res["R_block"] = r_block

    if abs(craw) > 1e-12:
        tres = float(np.max(np.abs(T[0, :, :])))
        for lam in range(1, n):
            for g in range(n):
                pred = -sum(np.conj(d20b[0][lam, nu]) * C20[nu, g]
                            for nu in range(1, n))
                tres = max(tres, abs(T[lam, 0, g] - pred))
                for b in range(1, n):
                    pred = (sum(np.conj(d20b[g][lam, nu]) * C20[nu, b] for nu in range(1, n))
                            - sum(np.conj(d20b[b][lam, nu]) * C20[nu, g] for nu in range(1, n)))
                    tres = max(tres, abs(T[lam, b, g] - pred))
        res["torsion_forms"] = tres

    # local identity tying curvature, the pure form and the torsion trace
    dT_a = _complex_lift_derivative(sf.table, "T")[1]
    ident = 0.0
    for lam in range(1, n):
        lhs = sum(craw * abs(h[lam - 1, rho - 1]) ** 2
                  + abs(d20b[0][lam, rho]) ** 2 for rho in range(1, n))
        ident = max(ident, abs(lhs - dT_a[0][lam, 0, lam]))
    res["local_identity"] = float(ident)
    res["max"] = float(max(res.values()))
    return res


# --------------------------------------------------------------------------
# holomorphic curves as candidate complex geodesics
# --------------------------------------------------------------------------

def complex_geodesic_check(prog: MetricProgram, curve, samples) -> dict:
    """Totally-geodesic test of a holomorphic curve.

    ``curve`` maps a complex parameter w to chart coordinates; its
    derivative is taken by complex finite differences.  At each sample the
    adapted frame with first vector tangent to the curve is built, and the
    report collects the geodesic torsion components and the off-diagonal
    connection-form values along the curve section, together with the
    Gaussian curvature of the induced metric.
    """
    h = CURVE_STEP

    def deriv(w, hd=h):
        return (np.asarray(curve(w + hd)) - np.asarray(curve(w - hd))) / (2 * hd)

    max_T = 0.0
    max_pi = 0.0
    curvatures = []
    for w in samples:
        w = complex(w)
        z = np.asarray(curve(w), dtype=complex)
        v = deriv(w)
        if np.max(np.abs(v)) < 1e-10:
            raise FinslerError(f"degenerate curve derivative at w={w}")
        p = adapted_frame(prog, z, v)
        fd = frame_data(prog, p.z, p.U)
        n = prog.dim
        T = fd.torsion
        max_T = max(max_T, max((abs(T[0, lam, 0]) for lam in range(1, n)), default=0.0))
        # derivative of the adapted-frame section along the curve parameter
        cf = _Coframe(fd)
        for direction in (1.0, 1.0j):
            pp = adapted_frame(prog, curve(w + h * direction), deriv(w + h * direction))
            pm = adapted_frame(prog, curve(w - h * direction), deriv(w - h * direction))
            dz = (pp.z - pm.z) / (2 * h)
            dU = (pp.U - pm.U) / (2 * h)
            wmat = cf.varpi(complexify(dz, dU))
            for lam in range(1, n):
                max_pi = max(max_pi, abs(wmat[lam, 0]), abs(wmat[0, lam]))
        # induced metric g(w) = F^2(curve(w), curve'(w)); its Gauss curvature
        def logg(wv):
            return np.log(prog.eval(curve(wv), deriv(wv, CURVATURE_STEP)))
        # K = -(2/g) d_w d_wbar log g, with 4 d_w d_wbar = flat laplacian
        hc = CURVATURE_STEP
        lap = (logg(w + hc) + logg(w - hc) + logg(w + 1j * hc) + logg(w - 1j * hc)
               - 4 * logg(w)) / (hc * hc)
        g = prog.eval(z, v)
        curvatures.append(float(-2.0 * (lap / 4.0) / g))
    spread = float(np.max(curvatures) - np.min(curvatures)) if curvatures else 0.0
    return {
        "max_geodesic_torsion": float(max_T),
        "max_connection_offdiagonal": float(max_pi),
        "induced_curvatures": curvatures,
        "curvature_spread": spread,
    }


def geodesic_condition_residuals(prog: MetricProgram, path: GeodesicPath,
                                 gauge=None) -> dict:
    """Stationarity conditions evaluated along a lift of the integrated curve.

    Any constant structure-group element is a legitimate gauge: the first
    frame vector stays on the ray of the velocity.  The conditions vanish
    for one lift of a geodesic iff they vanish for all of them, which this
    evaluator lets the tests assert directly.
    """
    n = prog.dim
    g = np.eye(n, dtype=complex) if gauge is None else np.asarray(gauge, dtype=complex)
    ts, zs, frames = path.ts, path.zs, path.frames
    idx = range(1, len(ts) - 1, RESIDUAL_STRIDE)
    worst_A = 0.0
    worst_BC = 0.0

    def theta_values(i):
        U = frames[i] @ g
        dz = (zs[i + 1] - zs[i - 1]) / (ts[i + 1] - ts[i - 1])
        dU = (frames[i + 1] - frames[i - 1]) / (ts[i + 1] - ts[i - 1]) @ g
        fd = frame_data(prog, zs[i], U)
        cf = _Coframe(fd)
        th = np.linalg.inv(U) @ dz
        thb = np.conj(np.linalg.inv(U)) @ np.conj(dz)
        return fd, cf.varpi(complexify(dz, dU)), th, thb

    cache = {i: theta_values(i) for i in idx}
    for i in idx:
        fd, w, th, thb = cache[i]
        # d theta^0bar / dt by finite differences of neighbouring samples
        ip, im = i + RESIDUAL_STRIDE, i - RESIDUAL_STRIDE
        if im in cache and ip in cache:
            dtb = (cache[ip][3][0] - cache[im][3][0]) / (ts[ip] - ts[im])
        else:
            continue
        worst_A = max(worst_A, abs(w[0, 0] * thb[0] - dtb))
        T = fd.torsion
        H = fd.C(2, 0)
        for lam in range(1, n):
            # stationarity of the energy couples the two off-diagonal blocks
            # of the connection matrix through the pure quadratic form
            b = (w[0, lam] + T[0, lam, 0] * th[0]
                 - sum(H[lam, mu] * w[mu, 0] for mu in range(1, n)))
            worst_BC = max(worst_BC, abs(b))
    return {"A": worst_A, "BC": worst_BC}
