import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    complex_geodesic_check,
    derivative,
    e_manifold_closed_forms,
    energy_first_variation,
    full_stack_spray,
    geodesic_condition_residuals,
    tangent_norm,
)

from finslerlab import geodesics
from finslerlab.connection import FrameData, frame_data
from finslerlab.frame_bundle import BundlePoint, adapted_frame, group_act, reproject_frame
from finslerlab.geodesics import (
    GeodesicPath,
    IntegrationError,
    classify,
    geodesic_spray,
    integrate_geodesic,
    spray_coefficients,
)
from finslerlab.jets import Z, ZBAR, JetSpace
from finslerlab.metric_dsl import MetricProgram
from finslerlab.parallelism import extract_structure
from finslerlab.registry import catalog, sample_points


def test_spray_is_horizontal_for_kaehler(progs):
    # geodesic torsion vanishes, so the spray is the first horizontal lift
    prog = progs["poincare_ball_2"]
    p = adapted_frame(prog, [0.2, 0.1], [1.0, 0.4])
    from finslerlab.connection import frame_data
    from oracles import field_stack

    G = geodesic_spray(prog, p)
    dz, dU = field_stack(frame_data(prog, p.z, p.U))
    assert tangent_norm(G.dz - dz[0], G.dU - dU[0]) < 1e-9


def test_flat_geodesics_are_lines(progs):
    prog = progs["flat_2"]
    path = integrate_geodesic(prog, [0.1, -0.2], [3.0, 4.0], 1.0, 0.01)
    expect = np.array([0.1, -0.2]) + np.array([3.0, 4.0]) / 5.0
    assert np.max(np.abs(path.zs[-1] - expect)) < 1e-8
    assert path.speed0 == pytest.approx(5.0)


def test_disc_diameter_tanh(progs):
    prog = progs["poincare_disc"]
    path = integrate_geodesic(prog, [0], [1], 1.0, 0.002)
    assert abs(abs(path.zs[-1, 0]) - np.tanh(1.0)) < 1e-5
    assert np.max(np.abs(path.zs[:, 0].imag)) < 1e-9   # stays on the diameter
    assert path.max_speed_drift < 1e-7
    assert path.max_gram_drift < 1e-7


def test_fubini_study_tan(progs):
    prog = progs["fubini_study_1"]
    path = integrate_geodesic(prog, [0], [1], 0.8, 0.002)
    assert abs(abs(path.zs[-1, 0]) - np.tan(0.8)) < 1e-4


def test_fourth_order_convergence(progs):
    prog = progs["poincare_disc"]
    errs = []
    for dt in (0.02, 0.01):
        path = integrate_geodesic(prog, [0], [1], 1.0, dt)
        errs.append(abs(abs(path.zs[-1, 0]) - np.tanh(1.0)))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_energy_first_variation(progs):
    prog = progs["poincare_disc"]
    path = integrate_geodesic(prog, [0], [1], 1.0, 0.005)
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pert = lambda t: np.array([a * np.sin(np.pi * t) + b * np.sin(2 * np.pi * t)])
        norm = max(abs(a) + abs(b), 1.0)
        assert abs(energy_first_variation(prog, path, pert)) < 1e-4 * norm
    # flat straight line: variation vanishes to roundoff
    prog = progs["flat_1"]
    path = integrate_geodesic(prog, [0], [1], 1.0, 0.01)
    pert = lambda t: np.array([np.sin(np.pi * t) * (0.3 + 0.4j)])
    assert abs(energy_first_variation(prog, path, pert)) < 1e-8


def test_non_geodesic_has_nonzero_variation(progs):
    # a circle arc in the flat line is not energy-critical
    prog = progs["flat_1"]
    ts = np.linspace(0, 1, 201)
    zs = np.exp(1j * ts)[:, None]
    frames = (1j * np.exp(1j * ts))[:, None, None]
    arc = GeodesicPath(ts=ts, zs=zs, frames=frames, speed0=1.0, max_gram_drift=0,
                       max_speed_drift=0)
    pert = lambda t: np.array([np.sin(np.pi * t)])
    assert abs(energy_first_variation(prog, arc, pert)) > 1e-2


def test_endpoint_perturbation_rejected(progs):
    prog = progs["flat_1"]
    path = integrate_geodesic(prog, [0], [1], 1.0, 0.05)
    from finslerlab.metric_dsl import FinslerError

    with pytest.raises(FinslerError):
        energy_first_variation(prog, path, lambda t: np.array([1.0]))


def test_gauge_independence(progs):
    # conditions vanish along every lift, and the base curve does not see
    # the block gauge of the initial frame
    prog = progs["poincare_ball_2"]
    path = integrate_geodesic(prog, [0.1, 0.0], [0.6, 0.8], 0.6, 0.002)
    for gauge in (None, np.diag([np.exp(0.5j), np.exp(-0.3j)])):
        res = geodesic_condition_residuals(prog, path, gauge)
        assert res["A"] < 1e-6 and res["BC"] < 1e-6

    p0 = adapted_frame(prog, [0.1, 0.0], [0.6, 0.8])

    def integrate_from(p, steps, dt):
        zs = [p.z.copy()]
        for _ in range(steps):
            z, U = p.z, p.U

            def rhs(z, U):
                t = geodesic_spray(prog, BundlePoint(z, U))
                return t.dz, t.dU

            k1z, k1U = rhs(z, U)
            k2z, k2U = rhs(z + dt / 2 * k1z, U + dt / 2 * k1U)
            k3z, k3U = rhs(z + dt / 2 * k2z, U + dt / 2 * k2U)
            k4z, k4U = rhs(z + dt * k3z, U + dt * k3U)
            p = reproject_frame(prog, z + dt / 6 * (k1z + 2 * k2z + 2 * k3z + k4z),
                                U + dt / 6 * (k1U + 2 * k2U + 2 * k3U + k4U))
            zs.append(p.z.copy())
        return np.array(zs)

    za = integrate_from(p0, 50, 0.004)
    zb = integrate_from(group_act(p0, np.diag([1.0, np.exp(0.9j)])), 50, 0.004)
    assert np.max(np.abs(za - zb)) < 1e-7


def test_bent_curve_violates_conditions(progs):
    prog = progs["poincare_ball_2"]
    path = integrate_geodesic(prog, [0.1, 0.0], [0.6, 0.8], 0.6, 0.005)
    zs2 = path.zs + 0.05 * np.sin(np.pi * path.ts / 0.6)[:, None] * np.array([0, 1j])
    frames2 = np.array([
        adapted_frame(prog, zs2[i],
                      zs2[min(i + 1, len(path.ts) - 1)] - zs2[max(i - 1, 0)]).U
        for i in range(len(path.ts))])
    bent = GeodesicPath(ts=path.ts, zs=zs2, frames=frames2, speed0=1.0, max_gram_drift=0,
                        max_speed_drift=0)
    res = geodesic_condition_residuals(prog, bent)
    assert res["A"] > 1e-2


def test_leaving_chart_raises(progs, entries):
    prog = progs["poincare_disc"]
    with pytest.raises(IntegrationError):
        integrate_geodesic(prog, [0], [1], 5.0, 0.01,
                           domain=entries["poincare_disc"].domain)


@pytest.mark.parametrize("metric_id, expect_e, expect_c", [
    ("poincare_ball_2", True, -4.0),
    ("fubini_study_2", True, 4.0),
    ("flat_2", True, 0.0),
])
def test_classification_constant_curvature(progs, entries, metric_id, expect_e, expect_c):
    prog = progs[metric_id]
    pts = sample_points(prog, entries[metric_id], 6, seed=1)
    rep = classify(prog, pts)
    assert rep.hermitian
    assert rep.e_manifold == expect_e
    assert rep.c == pytest.approx(expect_c, abs=1e-3)


def test_classification_nonconstant(progs, entries):
    prog = progs["hermitian_nonconstant"]
    pts = sample_points(prog, entries["hermitian_nonconstant"], 6, seed=1)
    rep = classify(prog, pts)
    assert rep.hermitian
    assert rep.geodetically_torsion_free    # Kaehler
    assert not rep.constant_hsc
    assert not rep.e_manifold


def test_classification_quartic_norm(progs, entries):
    prog = progs["l4_finsler"]
    pts = sample_points(prog, entries["l4_finsler"], 6, seed=1)
    rep = classify(prog, pts)
    assert not rep.hermitian
    assert rep.witnesses["hermitian_witness"] is not None


def test_e_manifold_closed_forms(progs):
    cases = [("poincare_ball_2", [0.3, 0.1], [0.5, 1.0], -4.0),
             ("fubini_study_2", [0.3, -0.2], [0.2, 1.0], 4.0),
             ("flat_2", [0.1, 0.2], [1.0, 0.5], 0.0)]
    for mid, z, v, c in cases:
        prog = progs[mid]
        p = adapted_frame(prog, z, v)
        res = e_manifold_closed_forms(prog, p, c)
        assert res["max"] < 1e-3


def test_complex_geodesic_checks(progs):
    flat = progs["flat_2"]
    r = complex_geodesic_check(flat, lambda w: np.array([w, 0 * w]),
                               [0.1 + 0.1j, 0.3, -0.2j])
    assert r["max_geodesic_torsion"] < 1e-10
    assert r["max_connection_offdiagonal"] < 1e-10
    assert max(abs(k) for k in r["induced_curvatures"]) < 1e-5

    ball = progs["poincare_ball_2"]
    r = complex_geodesic_check(ball, lambda w: np.array([w, 0 * w]),
                               [0.1 + 0.1j, 0.3, -0.2j])
    assert r["max_geodesic_torsion"] < 1e-5
    assert r["max_connection_offdiagonal"] < 1e-5
    assert all(abs(k + 4.0) < 1e-3 for k in r["induced_curvatures"])

    # the parabola in flat space is holomorphic but not totally geodesic:
    # the induced metric is curved and the connection pullback is nonzero
    r = complex_geodesic_check(flat, lambda w: np.array([w, w ** 2]),
                               [0.3, 0.5 + 0.2j])
    assert r["max_connection_offdiagonal"] > 1e-2
    assert max(abs(k) for k in r["induced_curvatures"]) > 1e-2


def test_classification_consistent_with_linear_discs(progs, entries):
    # where classify says E-manifold, linear discs through the origin pass
    # the totally-geodesic conditions
    for mid in ("poincare_ball_2", "flat_2"):
        prog = progs[mid]
        r = complex_geodesic_check(prog, lambda w: np.array([w, 0.5 * w]),
                                   [0.05 + 0.05j, 0.15])
        assert r["max_geodesic_torsion"] < 1e-5
        assert r["max_connection_offdiagonal"] < 1e-4


def test_speed_conservation_all_metrics(progs, entries):
    # unit-speed drift stays below 1e-7 per unit time on every catalog metric
    for mid, prog in progs.items():
        z, v = sample_points(prog, entries[mid], 1, seed=31)[0]
        path = integrate_geodesic(prog, z, v, 0.05, 1e-3,
                                  domain=entries[mid].domain)
        assert path.max_speed_drift < 1e-7, mid
        assert path.max_gram_drift < 1e-7, mid


def _euler_lagrange_oracle(prog, z0, v0, t_max, dt):
    """Independent geodesic integration straight from the energy density:
    d/dt (dF2/dv) = dF2/dz along (z, zdot), solved for the acceleration."""
    n = prog.dim
    z = np.asarray(z0, dtype=complex)
    v = np.asarray(v0, dtype=complex) / prog.norm(z0, v0)

    def acc(z, v):
        jet = prog.jet_unchecked(z, v, 2, 1)
        P = jet.fiber_tensor(2, 0)
        M = jet.fiber_tensor(1, 1)
        TZ, TZb = jet.partials(1, 0, (Z,)), jet.partials(1, 0, (ZBAR,))
        Fz = np.array([derivative(jet, z=(k,)) for k in range(n)])
        b = Fz - TZ.T @ v - TZb.T @ np.conj(v)
        A = np.block([[P, M], [np.conj(M), np.conj(P)]])
        return np.linalg.solve(A, np.concatenate([b, np.conj(b)]))[:n]

    zs = [z.copy()]
    for _ in range(int(round(t_max / dt))):
        k1 = (v, acc(z, v))
        k2 = (v + dt / 2 * k1[1], acc(z + dt / 2 * k1[0], v + dt / 2 * k1[1]))
        k3 = (v + dt / 2 * k2[1], acc(z + dt / 2 * k2[0], v + dt / 2 * k2[1]))
        k4 = (v + dt * k3[1], acc(z + dt * k3[0], v + dt * k3[1]))
        z = z + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v = v + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        zs.append(z.copy())
    return np.array(zs)


def test_non_kaehler_geodesic_is_energy_critical(twisted):
    # the vertical correction has a genuinely nonzero coefficient here
    prog = twisted
    from finslerlab.connection import frame_data
    from finslerlab.geodesics import spray_coefficients

    p0 = adapted_frame(prog, [0.3, 0.1], [1.0, 0.8])
    assert abs(spray_coefficients(frame_data(prog, p0.z, p0.U))[0]) > 1e-3

    path = integrate_geodesic(prog, [0.3, 0.1], [1.0, 0.8], 0.5, 0.002)
    rng = np.random.default_rng(7)
    for _ in range(5):
        a, b = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
        pert = lambda t: a * np.sin(np.pi * t / 0.5) + b * np.sin(2 * np.pi * t / 0.5)
        scale = np.linalg.norm(a) + np.linalg.norm(b)
        assert abs(energy_first_variation(prog, path, pert)) < 1e-4 * scale
    res = geodesic_condition_residuals(prog, path)
    assert res["A"] < 1e-6 and res["BC"] < 1e-6
    res = geodesic_condition_residuals(prog, path,
                                       gauge=np.diag([np.exp(0.4j), np.exp(-0.2j)]))
    assert res["A"] < 1e-6 and res["BC"] < 1e-6


def test_spray_matches_euler_lagrange_oracle(progs, twisted):
    cases = [(twisted, [0.3, 0.1], [1.0, 0.8]),
             (progs["poincare_ball_2"], [0.2, 0.1], [0.6, 0.8]),
             (progs["l4_finsler"], [0.1, 0.2], [1.0, 0.8])]
    for prog, z0, v0 in cases:
        path = integrate_geodesic(prog, z0, v0, 0.4, 0.002)
        oracle = _euler_lagrange_oracle(prog, z0, v0, 0.4, 0.002)
        assert np.max(np.abs(path.zs[-1] - oracle[-1])) < 1e-8


def test_e_manifold_closed_forms_n3(progs, entries):
    prog = progs["poincare_ball_3"]
    pts = sample_points(prog, entries["poincare_ball_3"], 3, seed=77)
    rep = classify(prog, pts)
    assert rep.e_manifold and rep.c == pytest.approx(-4.0, abs=1e-3)
    res = e_manifold_closed_forms(prog, adapted_frame(prog, *pts[0]), -4.0)
    assert res["max"] < 1e-3


def test_quartic_norm_is_flat_e_manifold(progs, entries):
    # translation-invariant norm: torsion and curvature vanish, linear discs
    # are complex geodesics with flat induced metric
    prog = progs["l4_finsler"]
    pts = sample_points(prog, entries["l4_finsler"], 6, seed=5)
    rep = classify(prog, pts)
    assert not rep.hermitian
    assert rep.geodetically_torsion_free
    assert rep.e_manifold and rep.c == pytest.approx(0.0, abs=1e-8)
    res = e_manifold_closed_forms(prog, adapted_frame(prog, *pts[0]), 0.0)
    assert res["max"] < 1e-8
    r = complex_geodesic_check(prog, lambda w: np.array([w, (0.7 + 0.2j) * w]),
                               [0.1, 0.3 + 0.2j])
    assert r["max_connection_offdiagonal"] < 1e-5
    assert max(abs(k) for k in r["induced_curvatures"]) < 1e-4


def test_twisted_metric_is_not_torsion_free(twisted):
    pts = [(np.array([0.3, 0.1]), np.array([1.0, 0.8])),
           (np.array([0.2 + 0.1j, -0.2]), np.array([0.7, 1.0]))]
    rep = classify(twisted, pts)
    assert not rep.hermitian
    assert not rep.geodetically_torsion_free
    assert rep.max_geodesic_torsion > 1e-2
    assert not rep.e_manifold


def test_energy_estimator_second_order_in_s(progs):
    # halving the variation parameter quarters the truncation part of the
    # central-difference estimate
    prog = progs["poincare_disc"]
    path = integrate_geodesic(prog, [0], [1], 1.0, 0.005)
    pert = lambda t: np.array([(0.8 + 0.3j) * np.sin(np.pi * t)
                               + (0.1 - 0.5j) * np.sin(2 * np.pi * t)])
    e1 = energy_first_variation(prog, path, pert, s=4e-4)
    e2 = energy_first_variation(prog, path, pert, s=2e-4)
    e3 = energy_first_variation(prog, path, pert, s=1e-4)
    ratio = abs(e1 - e2) / abs(e2 - e3)
    assert 3.0 < ratio < 5.0


def test_classification_disc_consistency_more_metrics(progs):
    # constant-curvature metrics: linear discs are complex geodesics with
    # the classified curvature
    fs2 = progs["fubini_study_2"]
    r = complex_geodesic_check(fs2, lambda w: np.array([w, 0 * w]), [0.05 + 0.05j, 0.2])
    assert r["max_connection_offdiagonal"] < 1e-6
    assert all(abs(k - 4.0) < 1e-3 for k in r["induced_curvatures"])

    # product metric: the axis disc is totally geodesic, but its induced
    # curvature varies, consistent with the non-E-manifold verdict
    herm = progs["hermitian_nonconstant"]
    r = complex_geodesic_check(herm, lambda w: np.array([w, 0 * w]),
                               [0.1, 0.4, 0.2 + 0.3j])
    assert r["max_geodesic_torsion"] < 1e-8
    assert r["max_connection_offdiagonal"] < 1e-6
    assert r["curvature_spread"] > 0.1


def test_torsion_witness_only_above_tolerance(progs, entries, warped):
    # a torsion below TORSION_TOL is round-off, and so is the point where it
    # is largest: the witness is reported only for a torsion that counts
    rep = classify(warped, [(np.array([0.3, -0.1]), np.array([1.0, 0.5j]))])
    assert rep.max_geodesic_torsion > 1e-2
    assert rep.witnesses["worst_torsion_point"] == [[0.3, -0.1], [1.0, 0.5j]]
    prog = progs["poincare_ball_2"]
    rep = classify(prog, sample_points(prog, entries["poincare_ball_2"], 3, seed=1))
    assert rep.geodetically_torsion_free
    assert rep.witnesses["worst_torsion_point"] is None


def _spray_frames(prog, z, v):
    """An adapted frame at (z, v) and a perturbed copy off the frame bundle."""
    p = adapted_frame(prog, z, v)
    n = prog.dim
    rng = np.random.default_rng(13)
    bump = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return [p, BundlePoint(p.z.copy(), p.U + 1e-3 * bump)]


# catalog metrics at a sample point, and the fixtures, whose a != 0, at a given one
_SPRAY_CASES = [(e.id, None) for e in catalog()] + [
    ("warped", ([0.3, -0.1], [1.0, 0.5j])), ("twisted", ([0.3, 0.1], [1.0, 0.8]))]


@pytest.mark.parametrize("mid, point", _SPRAY_CASES, ids=[c[0] for c in _SPRAY_CASES])
def test_spray_matches_full_stack_oracle(progs, entries, warped, twisted, mid, point):
    # the spray builds only the lift f_0 and the vertical pairs; the oracle
    # combines rows of the whole field stack
    if point is None:
        prog = progs[mid]
        z, v = sample_points(prog, entries[mid], 1, seed=17)[0]
    else:
        prog = {"warped": warped, "twisted": twisted}[mid]
        z, v = point
    for p in _spray_frames(prog, z, v):
        got, want = geodesic_spray(prog, p), full_stack_spray(prog, p)
        if prog.dim == 1:
            assert np.array_equal(got.dz, want.dz) and np.array_equal(got.dU, want.dU)
        else:
            assert tangent_norm(got.dz - want.dz, got.dU - want.dU) \
                <= 1e-15 * tangent_norm(want.dz, want.dU)
        if point is not None:  # the fixtures exercise the vertical correction
            assert abs(spray_coefficients(frame_data(prog, p.z, p.U))[0]) > 1e-3


def test_geodesic_step_work_counts(entries, monkeypatch):
    # per RK4 step: four FrameData (one jet(4, 1) each), one jet(2, 0) at the
    # step's end for the Gram drift, F and the re-projection, and one F
    # evaluation for the recorded speed.  F^2 = abs2(v1)/(1 - abs2(z1))^2
    # takes one jet product for each abs2, the square and the quotient, 4 a
    # jet(4, 1): the reciprocal's series of an operand with no v stops at
    # base order 1, with no product.  At base order 0 that operand reads no
    # variable of the table, so it is a constant, whose abs2 and square are
    # no table products: 2 a jet(2, 0), 18 a step.
    prog = entries["poincare_disc"].program()  # a fresh program: nothing cached
    jets, frames, evals, products = [], [], [], []
    init, jet, eval_complex = FrameData.__init__, MetricProgram.jet_unchecked, \
        MetricProgram.eval_complex
    mul = JetSpace.mul

    def counted_init(self, prog, z, U):
        frames.append(z)
        init(self, prog, z, U)

    def counted_jet(self, z, v, fiber_order, base_order, frame=None):
        jets.append((fiber_order, base_order))
        return jet(self, z, v, fiber_order, base_order, frame)

    def counted_eval(self, z, v):
        evals.append(z)
        return eval_complex(self, z, v)

    def counted_mul(self, a, b, **kwargs):
        products.append(self.size)
        return mul(self, a, b, **kwargs)

    monkeypatch.setattr(FrameData, "__init__", counted_init)
    monkeypatch.setattr(MetricProgram, "jet_unchecked", counted_jet)
    monkeypatch.setattr(MetricProgram, "eval_complex", counted_eval)
    monkeypatch.setattr(JetSpace, "mul", counted_mul)
    path = integrate_geodesic(prog, [0.1 + 0.2j], [1.0 - 0.5j], 0.1, 0.01)
    assert len(path.ts) == 11
    assert len(frames) == 40
    assert jets.count((4, 1)) == 40
    assert jets.count((2, 0)) == 10 + 1  # + levi_check, whose jet adapted_frame reads
    assert len(jets) == 51
    assert len(evals) == 2  # speed0 and levi_check; no step evaluates F
    assert products.count(35) == 40 * 4  # in the jets(4, 1), of 35 coefficients
    assert products.count(6) == 11 * 2  # in the jets(2, 0), of 6
    assert len(products) == 2 + 10 * 18  # levi_check's jet(2, 0), then 18 a step


def _disc_distance(a, z) -> float:
    """Distance of the unit disc metric |dz|^2 / (1 - |z|^2)^2, curvature -4."""
    return float(np.arctanh(abs((z - a) / (1 - np.conj(a) * z))))


def test_halved_step_covers_dt(progs, monkeypatch):
    # a step of 0.3 exceeds GRAM_TOL and is split; the substeps cover all of it
    prog = progs["poincare_disc"]
    calls = []
    spray = geodesics.geodesic_spray

    def counted(prog, p):
        calls.append(p)
        return spray(prog, p)

    monkeypatch.setattr(geodesics, "geodesic_spray", counted)
    path = integrate_geodesic(prog, [0.2], [1], 0.9, 0.3)
    assert len(path.ts) == 4 and len(calls) > 4 * 3  # three steps, some halved
    assert path.ts[-1] == pytest.approx(0.9, abs=1e-15)
    # 3.5e-7 measured; before the fix the path ended at distance 0.1125
    assert abs(_disc_distance(0.2, path.zs[-1, 0]) - 0.9) < 1e-6


@pytest.mark.parametrize("t_max, dt, nsteps", [
    (1.0, 0.3, 4), (0.05, 0.1, 1), (0.9, 0.3, 3), (1.0, 0.002, 500), (0.7, 0.25, 3),
    (5e-10, 1.0, 1)])
def test_path_ends_at_t_max(progs, t_max, dt, nsteps):
    # equal steps when t_max / dt is a positive integer up to 1e-9 (0.9 / 0.3
    # is 3.0000000000000004), otherwise a shortened last step; a t_max / dt
    # within 1e-9 of 0 is one step of t_max, not none
    prog = progs["poincare_disc"]
    path = integrate_geodesic(prog, [0.1j], [1 + 1j], t_max, dt)
    assert len(path.ts) == nsteps + 1
    assert np.allclose(np.diff(path.ts)[:-1], dt, rtol=0, atol=1e-15)
    assert path.ts[-1] == pytest.approx(t_max, abs=1e-15)
    assert abs(_disc_distance(0.1j, path.zs[-1, 0]) - t_max) < 1e-6


@st.composite
def _disc_geodesics(draw):
    r = draw(st.floats(0.0, 0.5))
    angle, heading = draw(st.floats(0.0, 2 * np.pi)), draw(st.floats(0.0, 2 * np.pi))
    speed = draw(st.floats(0.2, 3.0))
    t_max = draw(st.floats(1e-3, 1.0))
    # dt up to 0.12: a step of 0.07 or more from |z| >= 0.5 exceeds GRAM_TOL
    # and is halved; t_max / dt at most 200, integer or not
    dt = draw(st.one_of(st.floats(t_max / 200, 0.12),
                        st.integers(int(np.ceil(t_max / 0.12)), 200).map(lambda k: t_max / k)))
    return r * np.exp(1j * angle), speed * np.exp(1j * heading), t_max, dt


@settings(max_examples=25, deadline=None)
@given(_disc_geodesics())
def test_disc_geodesic_ends_at_distance_t_max(progs, case):
    z0, v0, t_max, dt = case
    path = integrate_geodesic(progs["poincare_disc"], [z0], [v0], t_max, dt)
    # largest error measured over 400 random draws of this shape: 2.5e-6
    assert abs(_disc_distance(z0, path.zs[-1, 0]) - t_max) < 5e-6
