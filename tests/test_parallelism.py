import numpy as np
import pytest

from finslerlab import MetricSource, parse_metric
from finslerlab.connection import FrameData, Rows, frame_data, frame_derivatives
from finslerlab.frame_bundle import (
    AmbientTangent,
    BundlePoint,
    adapted_frame,
    complexify,
    verify_tangent,
)
from finslerlab import parallelism
from finslerlab.metric_dsl import MetricProgram
from finslerlab.parallelism import (
    _bracket_table,
    _carry,
    _coframe,
    _complex_combination_matrix,
    _complex_lift_derivative,
    _generators,
    _increment_coordinates,
    _lift_derivative_of,
    _real_field_matrix,
    _stack_layout,
    _varpi,
    bianchi_residuals,
    closed_form_P,
    closed_form_Q,
    extract_structure,
    labels_real,
    structure_derivative,
    structure_equation_residuals,
    u_block_basis,
)
from finslerlab.equivalence import structure_coefficients
from finslerlab.registry import catalog, sample_points

import oracles
from conftest import NEAR_DEGENERATE
from oracles import along, pack_real

SE_KEYS = ("eq529", "eq533", "eq534", "eq535", "eq536")


@pytest.fixture(scope="module")
def twisted3():
    # twisted at n = 3, where the vertical block has more than one index
    return parse_metric(MetricSource(
        3, "sqrt(abs2(v1)^2 + abs2(v2)^2 + abs2(v3)^2) + abs2(z1)*abs2(v2)/2"))


def _parallelism(prog, p):
    """The parallelism fields at p as the field stack builds them: (dz, dU),
    one field per label of labels_real, the ratio of the extreme singular
    values of their packed-real matrix and their largest Gram derivative."""
    fd = frame_data(prog, p.z, p.U)
    dz, dU = oracles.field_stack(fd)
    assert len(dz) == len(labels_real(prog.dim))
    sv = np.linalg.svd(_real_field_matrix(prog, p.z, p.U), compute_uv=False)
    return dz, dU, sv[-1] / sv[0], verify_tangent(prog, p, AmbientTangent(dz, dU), fd.jet)


def test_basis_n1_has_three_fields(progs):
    prog = progs["poincare_disc"]
    p = adapted_frame(prog, [0.3], [1.0])
    dz, _, ratio, tangency = _parallelism(prog, p)
    assert len(dz) == 3
    assert ratio > 1e-6
    assert tangency < 1e-8


def test_flat_vertical_field_matrix(progs):
    # without quadratic/cubic corrections the generator is the elementary
    # antisymmetric pair
    prog = progs["flat_2"]
    p = adapted_frame(prog, [0, 0], [1.0, 0.0])
    dz, dU, *_ = _parallelism(prog, p)
    j = labels_real(2).index(("e", 2))
    expect = np.zeros((2, 2), dtype=complex)
    expect[1, 0] = 1.0
    expect[0, 1] = -1.0
    assert np.allclose(dU[j], p.U @ expect, atol=1e-14)
    assert np.allclose(dz[j], 0)


@pytest.mark.parametrize("metric_id, z, v, expected_dim", [
    ("poincare_disc", [0.2], [1.0], 3),
    ("l4_finsler", [0.1, 0.2], [1.0, 0.8], 8),
    ("poincare_ball_3", [0.1, 0.2, -0.1], [1.0, 0.4, 0.2], 15),
])
def test_basis_rank(progs, metric_id, z, v, expected_dim):
    prog = progs[metric_id]
    p = adapted_frame(prog, z, v)
    dz, _, ratio, tangency = _parallelism(prog, p)
    assert len(dz) == expected_dim
    assert ratio > 1e-6
    assert tangency < 1e-8


def test_block_bracket_is_matrix_commutator(progs):
    prog = progs["poincare_ball_2"]
    p = adapted_frame(prog, [0.2, 0.1], [1.0, 0.4])
    mats = u_block_basis(2)
    assert len(mats) == 1
    # [t, E] for the single block generator: commutator of the generators
    t_mat = np.zeros((2, 2), dtype=complex)
    t_mat[0, 0] = 1j
    labs = labels_real(2)
    fd = frame_data(prog, p.z, p.U)
    dz, dU = (x[labs.index(("t",)), labs.index(("u", 0))]
              for x in oracles.ambient_brackets(_bracket_table(fd)))
    # the vertical field of the commutator is (0, U [t, E])
    assert np.max(np.abs(dU - p.U @ (t_mat @ mats[0] - mats[0] @ t_mat))) < 1e-7
    assert np.max(np.abs(dz)) < 1e-9


def test_flat_horizontal_brackets_vanish(progs):
    prog = progs["flat_2"]
    p = adapted_frame(prog, [0.1, 0.3], [1.0, 0.5])
    fd = frame_data(prog, p.z, p.U)
    dz, dU = oracles.ambient_brackets(_bracket_table(fd))
    for i in range(4):
        for j in range(i + 1, 4):
            assert oracles.tangent_norm(dz[i, j], dU[i, j]) < 1e-9


def test_rotation_bracket_values(progs):
    # the rotation generator reproduces the holomorphic lifts: the checks
    # carry the [t, e_0-hat] = i e_0-hat and [t, e_lam-hat] = 0 coefficients
    for mid, z, v in [("poincare_ball_2", [0.3, 0.1], [0.5, 1.0]),
                      ("l4_finsler", [0.1, 0.2], [1.0, 0.8])]:
        prog = progs[mid]
        p = adapted_frame(prog, z, v)
        checks = oracles.structure_checks(extract_structure(prog, p))
        assert checks["rotation_horizontal"] < 1e-6
        assert checks["rotation_vertical"] < 1e-6
        assert checks["vertical_holomorphic_brackets"] < 1e-6
        assert checks["vertical_mixed_t_coefficient"] < 1e-5


def test_torsion_matches_connection_antisymmetrization(progs, twisted):
    p = adapted_frame(twisted, [0.4 + 0.1j, -0.2 + 0.3j], [1.0, 0.7 + 0.2j])
    sf = extract_structure(twisted, p)
    assert oracles.structure_checks(sf)["torsion_vs_connection"] < 1e-8
    assert np.max(np.abs(sf.T + np.transpose(sf.T, (0, 2, 1)))) < 1e-12


def test_flat_structure_functions_vanish(progs):
    prog = progs["flat_2"]
    p = adapted_frame(prog, [0.1, -0.2], [1.0, 0.5])
    sf = extract_structure(prog, p)
    for arr in (sf.T, sf.R_raw, sf.Q, sf.P_h, sf.P_H, sf.h_vert, sf.H_vert):
        assert np.max(np.abs(arr), initial=0.0) < 1e-9


def test_kaehler_metrics_are_torsion_free(progs, entries):
    for mid in ("poincare_ball_2", "hermitian_nonconstant", "fubini_study_2"):
        prog = progs[mid]
        z, v = sample_points(prog, entries[mid], 1, seed=13)[0]
        sf = extract_structure(prog, adapted_frame(prog, z, v))
        assert np.max(np.abs(sf.T)) < 1e-7


def test_ball_curvature_anchor(progs):
    prog = progs["poincare_ball_2"]
    p = adapted_frame(prog, [0.3, 0.1], [0.5, 1.0])
    sf = extract_structure(prog, p)
    assert sf.R[0, 0, 0, 0] == pytest.approx(-4.0, abs=1e-4)
    assert sf.R_raw[0, 0, 0, 0] == pytest.approx(-2.0, abs=1e-4)


def test_curvature_skew_hermitian_symmetry(progs, twisted):
    p = adapted_frame(twisted, [0.4 + 0.1j, -0.2], [1.0, 0.7])
    sf = extract_structure(twisted, p)
    sym = np.conj(np.transpose(sf.R_raw, (1, 0, 3, 2)))
    assert np.max(np.abs(sf.R_raw - sym)) < 1e-8


def test_closed_form_Q_and_P(progs, twisted):
    rng = np.random.default_rng(17)
    for prog in (progs["l4_finsler"], twisted):
        for _ in range(5):
            z = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            if min(abs(v)) / np.linalg.norm(v) < 0.35:
                continue
            p = adapted_frame(prog, z, v)
            sf = extract_structure(prog, p)
            assert np.max(np.abs(sf.Q - closed_form_Q(sf.table.frame))) < 1e-5
            ph, pH = closed_form_P(sf.table)
            assert np.max(np.abs(sf.P_h - ph)) < 1e-5
            assert np.max(np.abs(sf.P_H - pH)) < 1e-5


def test_structure_equations_hermitian(progs, entries):
    for mid in ("flat_2", "poincare_ball_2", "hermitian_nonconstant"):
        prog = progs[mid]
        z, v = sample_points(prog, entries[mid], 1, seed=21)[0]
        p = adapted_frame(prog, z, v)
        r = structure_equation_residuals(extract_structure(prog, p))
        assert max(r[k] for k in SE_KEYS) <= 1e-12
        norms = r["finsler_norms"]
        assert max(norms["sigma"], norms["pi"], norms["phi"]) < 1e-6


def test_structure_equations_quartic_norm(progs):
    prog = progs["l4_finsler"]
    for z, v in [([0.1, 0.2], [1.0, 0.8]), ([0.3 - 0.1j, 0.2 + 0.2j], [1.0, 0.5 - 0.3j])]:
        r = structure_equation_residuals(extract_structure(prog, adapted_frame(prog, z, v)))
        assert max(r[k] for k in SE_KEYS) <= 1e-12
        assert r["finsler_norms"]["sigma0"] > 1e-3


def test_structure_equations_oblique_forms(warped, twisted3):
    # the oblique curvature form Pi vanishes on every catalog metric; on these
    # it does not, and at n = 3 the vertical block has more than one index,
    # so every term and index placement of the curvature equations counts
    for prog, z, v in [(warped, [0.3 + 0.1j, -0.2], [1.0, 0.6 + 0.3j]),
                       (twisted3, [0.2 + 0.1j, -0.1, 0.3j], [1.0, 0.8 - 0.3j, 0.6 + 0.5j])]:
        p = adapted_frame(prog, z, v)
        r = structure_equation_residuals(extract_structure(prog, p))
        assert max(r[k] for k in SE_KEYS) <= 1e-12
        # pi and phi are the largest coefficients of Pi and Phi: those of
        # the P families and of Q
        fd = frame_data(prog, p.z, p.U)
        ph, pH = closed_form_P(_bracket_table(fd))
        norms = r["finsler_norms"]
        assert norms["pi"] > 1e-2
        assert norms["pi"] == pytest.approx(max(np.max(np.abs(ph)), np.max(np.abs(pH))),
                                            rel=1e-12)
        assert norms["phi"] == pytest.approx(np.max(np.abs(closed_form_Q(fd))), rel=1e-12)


def test_bianchi_identities(progs, twisted):
    cases = [
        (progs["flat_2"], [0.1, -0.2], [1.0, 0.5]),
        (progs["poincare_ball_2"], [0.3, 0.1], [0.5, 1.0]),
        (progs["fubini_study_2"], [0.3, -0.2], [0.2, 1.0]),
        (twisted, [0.4 + 0.1j, -0.2 + 0.3j], [1.0, 0.7 + 0.2j]),
    ]
    for prog, z, v in cases:
        p = adapted_frame(prog, z, v)
        b = bianchi_residuals(extract_structure(prog, p))
        # every derivative along the lifts is exact, the curvature's too
        assert max(b.values()) <= 1e-12


# two points of each fixture, where its vertical correction counts
FIXTURE_POINTS = [([0.3 + 0.1j, -0.2], [1.0, 0.6 + 0.3j]),
                  ([0.4 + 0.1j, -0.2 + 0.3j], [1.0, 0.7 + 0.2j])]


def _metric_points(progs, entries, warped, twisted, mid):
    """(program, [(z, v), (z, v)]): two sample points of a catalog metric
    (seed 3), or the FIXTURE_POINTS of a fixture."""
    fixtures = {"warped": warped, "twisted": twisted}
    if mid in fixtures:
        return fixtures[mid], FIXTURE_POINTS
    return progs[mid], sample_points(progs[mid], entries[mid], 2, seed=3)


@pytest.mark.parametrize("mid", [e.id for e in catalog()] + ["warped", "twisted"])
def test_contractions_match_the_loops(progs, entries, warped, twisted, mid):
    # the Bianchi identities as array expressions agree with the term-by-term
    # loop on the same derivatives (2.8e-17 measured), and the closed form of
    # Q as one contraction is the index-by-index loop
    prog, points = _metric_points(progs, entries, warped, twisted, mid)
    for z, v in points:
        p = adapted_frame(prog, z, v)
        sf = extract_structure(prog, p)
        got, want = bianchi_residuals(sf), oracles.bianchi_residuals(prog, p, sf)
        assert got.keys() == want.keys()
        for key in want:
            assert abs(got[key] - want[key]) <= 1e-15, key
        assert np.array_equal(closed_form_Q(sf.table.frame), oracles.closed_form_Q(sf.table.frame))


@pytest.mark.parametrize("mid", [e.id for e in catalog()] + ["warped", "twisted"])
def test_curvature_identities_hold_to_round_off(progs, entries, warped, twisted, mid):
    # b543 and b544 take the curvature's derivatives along the lifts from the
    # exact derivatives of the structure coefficients (at most 1.8e-15
    # measured; 3.1e-7 when they were one central difference)
    prog, points = _metric_points(progs, entries, warped, twisted, mid)
    for z, v in points:
        b = bianchi_residuals(extract_structure(prog, adapted_frame(prog, z, v)))
        assert max(b["b543"], b["b544"]) <= 1e-12


@pytest.mark.parametrize("mid", ["poincare_ball_3", "fubini_study_2", "hermitian_nonconstant",
                                 "l4_finsler", "warped", "twisted"])
def test_curvature_lift_derivatives_match_the_central_difference(progs, entries, warped,
                                                                  twisted, mid):
    # the exact derivatives of R_raw along the lifts against one central
    # difference of the curvature extracted at displaced points (at most
    # 3.7e-7 relative measured, the difference's own error)
    prog, points = _metric_points(progs, entries, warped, twisted, mid)
    for z, v in points:
        sf = extract_structure(prog, adapted_frame(prog, z, v))
        exact = _lift_derivative_of(sf)
        diff = oracles.lift_difference_of(
            sf.table, lambda z, U: extract_structure(prog, BundlePoint(z, U)).R_raw)
        scale = max(1.0, max(float(np.max(np.abs(d))) for d in exact))
        for e, d in zip(exact, diff):
            assert e.shape == d.shape == (prog.dim,) * 5
            assert np.max(np.abs(e - d)) <= 1e-6 * scale


def _over(full: np.ndarray, k: int, fields) -> np.ndarray:
    """Order k of structure_derivative over every field, at the entries it
    takes over fields: the derivative indices and the pairs' fields there,
    pairs (fields[a], fields[b]), a < b, read with their sign."""
    N = full.shape[-1]
    a, b = np.triu_indices(N, 1)
    anti = np.zeros(full.shape[:k] + (N, N, N))
    anti[(slice(None),) * k + (a, b)] = full
    anti[(slice(None),) * k + (b, a)] = -full
    a, b = np.triu_indices(len(fields), 1)
    return anti[np.ix_(*[fields] * (k + 2))][(slice(None),) * k + (a, b)]


@pytest.mark.parametrize("mid", ["poincare_ball_3", "warped"])
def test_structure_derivative_rows_are_its_leading_rows(progs, entries, warped, twisted, mid):
    # the derivatives over some fields, each index and pair among them, as
    # Bianchi asks for over the lifts, are the entries there of the whole
    # order, which the signature tiers take: tier 1 over the lifts and over
    # an unsorted set, whose pairs come with their sign, and tier 2
    prog, points = _metric_points(progs, entries, warped, twisted, mid)
    p = adapted_frame(prog, *points[0])
    n = prog.dim
    table = _bracket_table(frame_data(prog, p.z, p.U))
    for k, fields in ((0, [5, 1, 2]), (1, range(2 * n)), (1, [5, 1, 2]), (2, [0, 3, 4])):
        full = structure_derivative(table, k)
        got = structure_derivative(_bracket_table(frame_data(prog, p.z, p.U)), k, fields)
        want = _over(full, k, list(fields))
        assert got.shape == want.shape, (k, fields)
        assert np.allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(full))), (k, fields)


@pytest.mark.parametrize("mid", [e.id for e in catalog()]
                         + ["warped", "twisted"] + sorted(NEAR_DEGENERATE))
def test_lift_derivatives_match_the_whole_tier_1(progs, entries, warped, twisted, mid):
    # the curvature's derivatives along the lifts, from the lift pairs of
    # structure_derivative over the lifts alone, are the full route's, the
    # lift rows of tier 1 over every pair carried by all of K: K's lift
    # rows are zero off the lifts (bit for bit measured)
    fixtures = {"warped": warped, "twisted": twisted}
    fixtures.update({name: parse_metric(MetricSource(2, f2))
                     for name, f2 in NEAR_DEGENERATE.items()})
    prog = fixtures[mid] if mid in fixtures else progs[mid]
    for z, v in sample_points(prog, entries.get(mid), 3, seed=5):
        p = adapted_frame(prog, z, v)
        got = _lift_derivative_of(extract_structure(prog, p))
        want = oracles.lift_derivative_reference(oracles.table_at(prog, p))
        scale = max(1.0, max(float(np.max(np.abs(d))) for d in got))
        for g, w in zip(got, want):
            assert g.shape == w.shape == (prog.dim,) * 5
            assert np.max(np.abs(g - w)) <= 1e-15 * scale


@pytest.mark.parametrize("mid", ["poincare_ball_3", "l4_finsler", "twisted"])
def test_bianchi_leaves_no_view_in_the_memos(progs, entries, warped, twisted, mid, monkeypatch):
    # the views of the fields that the curvature's lift derivatives make
    # are dropped from the frame data's memo when the call ends, and none
    # enters the table's cache, so neither keeps one alive
    prog, points = _metric_points(progs, entries, warped, twisted, mid)
    sf = extract_structure(prog, adapted_frame(prog, *points[0]))
    views = []

    class Recorded(Rows):
        def __new__(cls, parent, rows):
            views.append(super().__new__(cls, parent, rows))  # held, so no id is reused
            return views[-1]

    monkeypatch.setattr(parallelism, "Rows", Recorded)
    bianchi_residuals(sf)
    assert views
    made = {id(v) for v in views}
    for memo in (sf.table.frame.derivatives, sf.table.cache):
        assert not [key for key in memo if made.intersection(key)]


@pytest.mark.parametrize("mid", ["l4_finsler", "poincare_ball_3", "hermitian_nonconstant",
                                 "warped", "twisted"])
def test_lift_derivatives_read_off_the_table(progs, entries, warped, twisted, mid):
    # the table's derivatives along the lifts are those of the direct route,
    # which rebuilds the lifts and differentiates each form there; the
    # (1, 2) form's come from the conjugate of the (2, 1) form's
    prog, points = _metric_points(progs, entries, warped, twisted, mid)
    for z, v in points:
        p = adapted_frame(prog, z, v)
        fd = frame_data(prog, p.z, p.U)
        table = _bracket_table(fd)
        direct = oracles.lift_derivatives(fd)
        for form in ((2, 0), (2, 1), "T"):
            for got, want in zip(_complex_lift_derivative(table, form), direct[form]):
                assert np.array_equal(got, want), form
        for got, want in zip(_complex_lift_derivative(table, (1, 2)), direct[(1, 2)]):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _increment_basis(fd):
    """The complexified basis at the point of fd in frame increments, K
    applied to the complexified frame increments (w, G) of the real fields."""
    return _complex_combination_matrix(fd.n) @ complexify(_stack_layout(fd.n)[1],
                                                          _generators(fd))


def _pairings(prog, z, U):
    """theta, thetabar and varpi of every complexified basis field at (z, U),
    read off its frame increments as the structure equations read them."""
    fd = frame_data(prog, z, U)
    th, thb, oh, oa = _coframe(fd, _increment_basis(fd))
    return np.concatenate([a.ravel() for a in (th, thb, _varpi(fd, oh, oa))])


def _dual_frame_table(n):
    """The pairings of _pairings that make the complexified basis the dual
    frame of the coframe, written out without K."""
    m = n - 1
    N = n * n + 2 * n
    t = 2 * n + 2 * m  # the basis: eh_a, ehb_a, ev_lam, evb_lam, t, V_{rho sig}
    theta = np.zeros((N, n), dtype=complex)
    thetabar = np.zeros((N, n), dtype=complex)
    varpi = np.zeros((N, n, n), dtype=complex)
    for a in range(n):
        theta[a, a] = 1.0  # theta(eh_a) = e_a
        thetabar[n + a, a] = 1.0  # thetabar(ehb_a) = e_a
    for lam in range(1, n):
        varpi[2 * n + lam - 1, lam, 0] = 1.0  # varpi(ev_lam) = E_{lam 0}
        varpi[2 * n + m + lam - 1, 0, lam] = -1.0  # varpi(evb_lam) = -E_{0 lam}
    varpi[t, 0, 0] = 1j  # varpi(t) = i E_00
    for rho in range(1, n):
        for sig in range(1, n):
            varpi[t + 1 + (rho - 1) * m + sig - 1, rho, sig] = 1.0  # varpi(V_rs) = E_rs
    return np.concatenate([theta.ravel(), thetabar.ravel(), varpi.ravel()])


def test_coframe_pairings_of_the_basis_are_constant(progs, entries, twisted, twisted3,
                                                    warped):
    # the coframe is dual to the parallelism: its values on the basis fields
    # are the dual-frame table, on the bundle and off it, which is why the
    # structure equations take no derivative of them; the table also fixes
    # K, through which the basis is built.  So the bracket table's coframe
    # matrix, read off the same pairings, is a left inverse of the fields.
    # On the real fields the coframe is their layout: theta, thetabar and
    # varpi are (W, conj W, G0) of _stack_layout, and omega is the
    # generator stack with its lift slots set to 0, which the extraction,
    # the structure equations and Bianchi read in place of evaluating it.
    # Every metric of dimension 1 is Hermitian.
    rng = np.random.default_rng(31)
    cases = [(progs[mid], sample_points(progs[mid], entries[mid], 2, seed=9))
             for mid in ("flat_1", "poincare_disc", "fubini_study_1", "flat_2",
                         "poincare_ball_2", "hermitian_nonconstant", "l4_finsler",
                         "poincare_ball_3", "fubini_study_2")]
    cases += [(progs["poincare_disc"], [([0.3 - 0.2j], [0.6 + 0.8j])]),
              (twisted, [([0.4 + 0.1j, -0.2 + 0.3j], [1.0, 0.7 + 0.2j])]),
              (twisted3, [([0.2 + 0.1j, -0.1, 0.3j], [1.0, 0.8 - 0.3j, 0.6 + 0.5j])]),
              (warped, [([0.3 + 0.1j, -0.2], [1.0, 0.6 + 0.3j])])]
    for prog, pts in cases:
        n = prog.dim
        for z, v in pts:
            p = adapted_frame(prog, z, v)
            off = p.U + 0.1 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for U in (p.U, off):
                assert np.max(np.abs(_pairings(prog, p.z, U) - _dual_frame_table(n))) <= 1e-14
                table = _bracket_table(frame_data(prog, p.z, U))
                I = table.coframe @ _increment_coordinates(*table.fields).T
                assert np.max(np.abs(I - np.eye(len(I)))) <= 1e-14
                G0, w = _stack_layout(n)
                th, thb, oh, oa = _coframe(table.frame, complexify(*table.fields))
                omega = table.fields[1].copy()
                omega[:2 * n] = 0
                for got, want in ((th, w), (thb, np.conj(w)),
                                  (_varpi(table.frame, oh, oa), G0),
                                  (oh, omega), (oa, np.conj(omega))):
                    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("mid", ["poincare_ball_3", "fubini_study_2", "hermitian_nonconstant",
                                 "l4_finsler", "poincare_disc", "warped", "twisted"])
def test_increment_coframe_matches_the_inverse_frame_oracle(progs, entries, warped, twisted,
                                                           mid):
    # theta, thetabar and varpi read off frame increments (theta = delta,
    # omega = A - E(delta)) are those the inverse frame reads off the
    # ambient tangents, on the basis and on the brackets (at most 2.9e-16
    # relative measured on every catalog metric and both fixtures)
    prog, points = _metric_points(progs, entries, warped, twisted, mid)
    n = prog.dim
    K = _complex_combination_matrix(n)
    for z, v in points:
        sf = extract_structure(prog, adapted_frame(prog, z, v))
        table = sf.table
        fd = table.frame
        ref = oracles.Coframe(fd)
        cases = [(_increment_basis(fd), oracles.complex_basis(table)),
                 (_carry(K, complexify(*(d - d.swapaxes(0, 1)
                                         for d in oracles.field_derivatives(table)))),
                  _carry(K, complexify(*oracles.ambient_brackets(table))))]
        for inc, amb in cases:
            th, thb, oh, oa = _coframe(fd, inc)
            for got, want in zip((th, thb, _varpi(fd, oh, oa)), (*ref.theta(amb), ref.varpi(amb))):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("mid", [e.id for e in catalog()] + ["warped", "twisted"])
def test_brackets_are_the_per_direction_reference_bit_for_bit(progs, entries, warped, twisted,
                                                              mid):
    # the table's brackets are order 1 of _field_derivative, which takes one
    # matmul per direction there, so they are the reference written out per
    # direction in every bit (a tensordot over the whole stack moved 20 of
    # these 36 tables)
    fixtures = {"warped": warped, "twisted": twisted}
    prog = fixtures[mid] if mid in fixtures else progs[mid]
    for z, v in sample_points(prog, entries.get(mid), 3, seed=11):
        p = adapted_frame(prog, z, v)
        table = _bracket_table(frame_data(prog, p.z, p.U))
        delta, A = (d - d.swapaxes(0, 1) for d in oracles.field_derivatives(table))
        want = _increment_coordinates(delta, A)
        assert table.br.shape == want.shape
        assert table.br.tobytes() == want.tobytes()


@pytest.mark.parametrize("mid", ["poincare_disc", "poincare_ball_3", "fubini_study_2",
                                 "l4_finsler", "warped", "twisted"])
def test_brackets_are_tangent_to_the_bundle(progs, entries, warped, twisted, mid):
    # the bracket of two fields tangent to the bundle of adapted frames is
    # tangent to it: the Gram map does not move along any bracket of the
    # table (at most 7.5e-16 relative to the largest bracket measured)
    prog, points = _metric_points(progs, entries, warped, twisted, mid)
    for z, v in points:
        p = adapted_frame(prog, z, v)
        fd = frame_data(prog, p.z, p.U)
        dz, dU = oracles.ambient_brackets(_bracket_table(fd))
        scale = max(1.0, float(np.max(np.linalg.norm(oracles.packed(dz, dU), axis=-1))))
        assert verify_tangent(prog, p, AmbientTangent(dz, dU), fd.jet) <= 1e-13 * scale


def _complex_solve_structure(prog, p):
    """T, R_raw, Q, P_h and P_H of a direct complex least-squares
    decomposition of the complexified brackets on the complexified basis,
    read off as extract_structure reads its coefficients."""
    n, m = prog.dim, prog.dim - 1
    table = _bracket_table(frame_data(prog, p.z, p.U))
    K = _complex_combination_matrix(n)
    N = len(K)
    brc = _carry(K, complexify(*oracles.ambient_brackets(table)))
    sol, *_ = np.linalg.lstsq(oracles.complex_basis(table).T, brc.reshape(N * N, -1).T,
                              rcond=None)
    coeff = sol.T.reshape(N, N, N)
    t = 2 * n + 2 * m
    eh, ehb, ev, evb, V = (slice(0, n), slice(n, 2 * n), slice(2 * n, t - m),
                           slice(t - m, t), slice(t + 1, N))
    T = -coeff[eh, eh][:, :, eh].transpose(2, 0, 1)
    c = coeff[eh, ehb]
    R = np.zeros((n, n, n, n), dtype=complex)
    R[0, 0] = c[:, :, t] / 1j
    R[1:, 0] = -c[:, :, ev].transpose(2, 0, 1)
    R[0, 1:] = c[:, :, evb].transpose(2, 0, 1)
    R[1:, 1:] = -c[:, :, V].reshape(n, n, m, m).transpose(2, 3, 0, 1)
    Q = (coeff[ev, evb][:, :, V].reshape(m, m, m, m).transpose(2, 3, 0, 1)
         + np.eye(m * m).reshape(m, m, m, m))
    c = coeff[evb, eh]
    P_h = c[:, :, ev].transpose(2, 0, 1)
    P_H = c[:, :, V].reshape(m, n, m, m).transpose(2, 3, 0, 1)
    return T, R, Q, P_h, P_H


@pytest.mark.parametrize("mid", ["twisted", "warped", "poincare_ball_3", "l4_finsler"])
def test_decomposition_matches_a_complex_solve(progs, entries, twisted, warped, mid):
    # the structure functions are the real decomposition carried to the
    # complexified basis by K; solving in that basis directly agrees
    if mid in ("twisted", "warped"):
        prog, z, v = {"twisted": (twisted, [0.4 + 0.1j, -0.2 + 0.3j], [1.0, 0.7 + 0.2j]),
                      "warped": (warped, [0.3 + 0.1j, -0.2], [1.0, 0.6 + 0.3j])}[mid]
    else:
        prog = progs[mid]
        z, v = sample_points(prog, entries[mid], 1, seed=3)[0]
    p = adapted_frame(prog, z, v)
    sf = extract_structure(prog, p)
    for got, ref in zip((sf.T, sf.R_raw, sf.Q, sf.P_h, sf.P_H), _complex_solve_structure(prog, p)):
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12


def test_extract_structure_makes_no_solve(progs, twisted, monkeypatch):
    # the coframe is the fields' left inverse, so neither extract_structure
    # nor the signature tiers up to tier 3 (at the --at-a point of ROADMAP
    # compare C) take a pseudo-inverse, a least-squares solve or an SVD
    p = adapted_frame(twisted, [0.4 + 0.1j, -0.2 + 0.3j], [1.0, 0.7 + 0.2j])
    prog = progs["hermitian_nonconstant"]
    pc = adapted_frame(prog, [0.1, 0.2], [1.0, 0.5])
    calls = []
    for name in ("pinv", "lstsq", "svd"):
        def recorded(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    extract_structure(twisted, p)
    table = oracles.table_at(prog, pc)
    for k in range(4):
        structure_derivative(table, k)
    assert not calls


def _constant_pair_block(prog, z, U):
    """Structure coefficients of bracket pairs involving the compact
    generators; these are the structure constants of the group action."""
    labs = labels_real(prog.dim)
    coeffs = structure_coefficients(prog, z, U)
    N = len(labs)
    out = []
    idx = 0
    for j in range(N):
        for k in range(j + 1, N):
            if labs[j][0] in ("t", "u") or labs[k][0] in ("t", "u"):
                out.append(coeffs[idx * N:(idx + 1) * N])
            idx += 1
    return np.concatenate(out)


def test_compact_generator_brackets_are_metric_independent(progs):
    # the coefficients involving the rotation and block generators realize a
    # fixed group action: identical for every metric and every point
    pf = adapted_frame(progs["flat_2"], [0.1, -0.3], [1.0, 0.5])
    ref = _constant_pair_block(progs["flat_2"], pf.z, pf.U)
    for mid, z, v in [("poincare_ball_2", [0.2, 0.1], [1.0, 0.4]),
                      ("l4_finsler", [0.1, 0.2], [1.0, 0.8])]:
        prog = progs[mid]
        p = adapted_frame(prog, z, v)
        vals = _constant_pair_block(prog, p.z, p.U)
        assert np.max(np.abs(vals - ref)) < 1e-6


def test_flat_isometry_invariance(progs):
    # structure coefficients agree at frames matched by a unitary chart map
    prog = progs["flat_2"]
    rng = np.random.default_rng(23)
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    Q, R = np.linalg.qr(M)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    p = adapted_frame(prog, [0.1, -0.2], [1.0, 0.5j])
    a = structure_coefficients(prog, p.z, p.U)
    b = structure_coefficients(prog, Q @ p.z, Q @ p.U)
    assert np.max(np.abs(a - b)) < 1e-8


def test_bracket_residual_guard(progs):
    # the decomposition residual doubles as a tangency audit
    prog = progs["poincare_ball_2"]
    p = adapted_frame(prog, [0.2, 0.1], [1.0, 0.3])
    br = _bracket_table(frame_data(prog, p.z, p.U)).br
    assert np.isfinite(br).all()
    sf = extract_structure(prog, p)
    assert sf.residual < 1e-5


# the relative step of the central-difference brackets this library once took
FIELD_STEP = 1e-5


def fd_bracket_table(prog, p, h, fourth_order=False):
    """The brackets of the real fields from central-difference Jacobians of
    the field matrix along every packed-real ambient coordinate, with step
    h (1 + |coordinate|); with fourth_order, Richardson's combination of the
    steps h and h / 2.  Layout as _bracket_table's."""
    p0 = pack_real(AmbientTangent(p.z, p.U))

    def jacobian(step):
        # jac[:, m, k] = d(field m)/d(coord k)
        return np.stack([along(lambda z, U: _real_field_matrix(prog, z, U), p.z, p.U, e,
                               step * (1.0 + abs(p0[k])))
                         for k, e in enumerate(np.eye(len(p0)))], axis=-1)

    jac = (4 * jacobian(h / 2) - jacobian(h)) / 3 if fourth_order else jacobian(h)
    vals = _real_field_matrix(prog, p.z, p.U)
    # bracket[a, b] = J_b X_a - J_a X_b
    return np.einsum("imk,kj->jmi", jac, vals) - np.einsum("imk,kj->mji", jac, vals)


@pytest.mark.parametrize("mid", ["l4_finsler", "poincare_ball_3", "hermitian_nonconstant",
                                 "warped"])
def test_brackets_match_finite_difference_oracle(progs, entries, warped, mid):
    # the exact table agrees with a fourth-order difference of the fields,
    # and is at least ten times closer to it than the second-order
    # difference at FIELD_STEP, which is what the brackets once were
    if mid == "warped":
        prog = warped
        p = adapted_frame(prog, [0.3 + 0.1j, -0.2], [1.0, 0.6 + 0.3j])
    else:
        prog = progs[mid]
        p = adapted_frame(prog, *sample_points(prog, entries[mid], 1, seed=3)[0])
    fd = frame_data(prog, p.z, p.U)
    br = oracles.packed(*oracles.ambient_brackets(_bracket_table(fd)))
    scale = np.max(np.abs(br))
    oracle = fd_bracket_table(prog, p, 1e-4, fourth_order=True)
    exact_err = np.max(np.abs(br - oracle)) / scale
    fd_err = np.max(np.abs(fd_bracket_table(prog, p, FIELD_STEP) - oracle)) / scale
    assert exact_err <= 1e-7
    assert exact_err <= 0.1 * fd_err


def test_structure_builds_frame_data_and_jets_only_at_the_point(entries, monkeypatch):
    prog = entries["poincare_ball_3"].program()
    p = adapted_frame(prog, [0.1, 0.2j, -0.1], [1.0, 0.4, 0.2j])
    frames, jets = [], []
    init, jet = FrameData.__init__, MetricProgram.jet_unchecked

    def counted_init(self, prog, z, U):
        frames.append((np.array(z), np.array(U)))
        init(self, prog, z, U)

    def counted_jet(self, z, v, fiber_order, base_order, frame=None):
        jets.append((np.array(z), np.array(v), fiber_order, base_order, frame))
        return jet(self, z, v, fiber_order, base_order, frame)

    monkeypatch.setattr(FrameData, "__init__", counted_init)
    monkeypatch.setattr(MetricProgram, "jet_unchecked", counted_jet)
    sf = extract_structure(prog, p)
    structure_equation_residuals(sf)  # reads the frame data sf carries
    assert len(frames) == 1
    assert np.array_equal(frames[0][0], p.z) and np.array_equal(frames[0][1], p.U)
    assert {j[2:4] for j in jets} == {(4, 1), (2, 2)}
    for z, v, *_, frame in jets:
        assert np.array_equal(z, p.z) and np.array_equal(v, p.e0)
        assert np.array_equal(frame, p.U)  # seeded in the frame


def test_bracket_table_builds_the_generator_stack_once(entries, monkeypatch):
    prog = entries["l4_finsler"].program()
    p = adapted_frame(prog, [0.2, 0.1], [1.0, 0.8 + 0.3j])
    calls = []
    generators = parallelism._generators

    def counted(fd):
        calls.append(fd)
        return generators(fd)

    monkeypatch.setattr(parallelism, "_generators", counted)
    _bracket_table(frame_data(prog, p.z, p.U))
    assert len(calls) == 1


@pytest.mark.parametrize("mid", ["l4_finsler", "poincare_ball_3"])
def test_generator_derivative_along_rows_is_read_off_the_kept_one(progs, entries, monkeypatch,
                                                                  mid):
    # the bracket table keeps the generator derivative along the fields, so
    # along a chunk of their rows it is read at the rows, with no fill, and
    # bit for bit the one filled from the frame derivatives along the chunk
    prog = progs[mid]
    p = adapted_frame(prog, *sample_points(prog, entries[mid], 1, seed=2)[0])
    table = _bracket_table(frame_data(prog, p.z, p.U))
    chunk = Rows(table.fields, [1, 4, 5, 7])
    filled = parallelism._generator_derivatives(frame_derivatives(table.frame, (chunk,)))
    fills = []
    monkeypatch.setattr(parallelism, "_generator_derivatives", fills.append)
    read = parallelism._generator_derivative(table, (chunk,))
    assert not fills
    assert read.shape == filled.shape and read.tobytes() == filled.tobytes()


@pytest.mark.parametrize("mid", ["poincare_disc", "poincare_ball_2"])
def test_ball_curvature_to_round_off(progs, entries, mid):
    prog = progs[mid]
    for z, v in sample_points(prog, entries[mid], 2, seed=3):
        sf = extract_structure(prog, adapted_frame(prog, z, v))
        assert abs(sf.R[0, 0, 0, 0] - (-4.0)) <= 1e-11
