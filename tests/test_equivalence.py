import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab import equivalence, parallelism
from finslerlab.cli import main
from finslerlab.connection import FrameData
from finslerlab.equivalence import (
    NOISE_FLOOR,
    SV_TOL,
    compare,
    regularity,
    signature,
    structure_coefficients,
)
from finslerlab.frame_bundle import BundlePoint, adapted_frame, gram_residual
from finslerlab.jets import Jet
from finslerlab.metric_dsl import MetricProgram, MetricSource, parse_metric
from finslerlab.parallelism import (
    _real_field_matrix,
    bracket_coefficients,
    labels_real,
    structure_derivative,
)
from finslerlab.registry import catalog, sample_points
from oracles import NESTED_STEP, along, difference_tier, pullback, table_at, tier


def ball_automorphism(a):
    """Involutive automorphism of the unit ball exchanging 0 and a."""
    a = np.asarray(a, dtype=complex)
    na2 = float(np.vdot(a, a).real)
    s = np.sqrt(1 - na2)

    def phi(z):
        z = np.asarray(z, dtype=complex)
        za = np.vdot(a, z)
        Pz = (za / na2) * a if na2 > 0 else 0 * z
        Qz = z - Pz
        return (a - Pz - s * Qz) / (1 - za)

    return phi


def ball_automorphism_jacobian(a, z):
    """The complex Jacobian of ball_automorphism(a) at z: with N(z) = a -
    Pz - s Qz and d(z) = 1 - <a, z>, phi = N / d and dphi = dN / d + N
    <a, .> / d^2."""
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    P = np.outer(a, np.conj(a)) / float(np.vdot(a, a).real)
    s = np.sqrt(1 - float(np.vdot(a, a).real))
    d = 1 - np.vdot(a, z)
    N = a - P @ z - s * (z - P @ z)
    return -(P + s * (np.eye(len(a)) - P)) / d + np.outer(N, np.conj(a)) / d ** 2


def test_flat_signature_nonconstant_part_vanishes(progs):
    prog = progs["flat_2"]
    p1 = adapted_frame(prog, [0.1, -0.2], [1.0, 0.5])
    p2 = adapted_frame(prog, [0.3, 0.2j], [0.2, 1.0])
    s1 = signature(prog, p1, order=1)
    s2 = signature(prog, p2, order=1)
    assert s1.distance(s2) < 1e-6
    # derivative tier is numerically zero
    assert np.max(np.abs(s1.tiers[1])) < 1e-5


def test_flat_regularity_rank_zero(progs):
    prog = progs["flat_2"]
    p = adapted_frame(prog, [0.1, 0.2], [1.0, 0.5])
    rep = regularity(prog, p, alpha_max=2)
    assert rep.stabilized
    assert rep.rank == 0
    assert rep.order == 0


def test_ball_regularity_rank_zero(progs):
    # homogeneous space: invariants constant over the frame bundle
    prog = progs["poincare_ball_2"]
    p = adapted_frame(prog, [0.2, 0.1], [1.0, 0.3])
    rep = regularity(prog, p, alpha_max=1)
    assert rep.ranks[0] == 0


def test_command_c_ranks_stabilize_at_the_isometry_dimension(progs):
    # compare command C of the ROADMAP: hermitian_nonconstant's isometry
    # group is 4-dimensional (z2 translations, z2 rotation, z1 rotation), so
    # the ranks at its --at-a frame stop at 4; noisy nested differences once
    # read [3, 4, 8] here, unstabilized
    prog = progs["hermitian_nonconstant"]
    p = adapted_frame(prog, [0.1, 0.2], [1.0, 0.5])
    rep = regularity(prog, p, alpha_max=2)
    assert rep.ranks == [3, 4, 4]
    assert rep.stabilized and rep.order == 1 and rep.rank == 4


def test_command_c_ranks_read_exact_tier_3_with_noise_below_1e_10(progs, monkeypatch):
    # its alpha = 2 ranks read tier 3, order 3 of the derivative routine at
    # the frame, as tiers 1 and 2 are: one frame, each order taken once and
    # kept in the frame's bracket table.
    # Every singular value a rank leaves out is at most 1e-10 (1.6e-13
    # measured; 6.2e-9 while tier 3 was a central difference of the exact
    # tier 2, 1.9e-6 while tier 2 was a difference of tier 1)
    prog = progs["hermitian_nonconstant"]
    p = adapted_frame(prog, [0.1, 0.2], [1.0, 0.5])
    N = len(labels_real(prog.dim))
    orders, frames = [], []
    derivative, init = parallelism.structure_derivative, FrameData.__init__

    def counted(table, order=1, fields=None):
        if fields is None and ("tier", order) not in table.cache:
            orders.append(order)
        return derivative(table, order, fields)

    def counted_init(self, prog, z, U):
        frames.append(1)
        init(self, prog, z, U)

    for module in (equivalence, parallelism):
        monkeypatch.setattr(module, "structure_derivative", counted)
    monkeypatch.setattr(FrameData, "__init__", counted_init)
    table = table_at(prog, p)
    rep = regularity(prog, p, alpha_max=2, table=table)
    assert rep.ranks == [3, 4, 4] and rep.stabilized
    assert sorted(orders) == [0, 1, 2, 3] and len(frames) == 1
    for alpha, rank in enumerate(rep.ranks):
        jac = np.hstack([derivative(table, k + 1).reshape(N, -1) for k in range(alpha + 1)])
        assert np.all(np.linalg.svd(jac, compute_uv=False)[rank:] <= 1e-10), alpha


def test_nonhomogeneous_metric_has_positive_rank(progs):
    # two-point oracle: the top curvature value varies with the base point
    prog = progs["hermitian_nonconstant"]
    from finslerlab.parallelism import extract_structure

    r0 = extract_structure(prog, adapted_frame(prog, [0.0, 0.0], [1.0, 0.0])).R[0, 0, 0, 0]
    r1 = extract_structure(prog, adapted_frame(prog, [0.5, 0.0], [1.0, 0.0])).R[0, 0, 0, 0]
    assert abs(r0 - r1) > 1e-2
    p = adapted_frame(prog, [0.3, 0.1], [1.0, 0.4])
    rep = regularity(prog, p, alpha_max=1)
    assert rep.ranks[0] >= 1


def test_flat_vs_disc_signatures_differ(progs):
    flat = progs["flat_1"]
    disc = progs["poincare_disc"]
    pf = adapted_frame(flat, [0.0], [1.0])
    pd = adapted_frame(disc, [0.0], [1.0])
    rep = compare(flat, pf, disc, pd, order=0)
    assert rep["verdict"] == "differ"
    assert rep["distance"] > 1.0


def test_quartic_norm_differs_from_flat(progs):
    flat = progs["flat_2"]
    l4 = progs["l4_finsler"]
    pf = adapted_frame(flat, [0.0, 0.0], [1.0, 0.7])
    pl = adapted_frame(l4, [0.0, 0.0], [1.0, 0.7])
    rep = compare(flat, pf, l4, pl, order=0)
    assert rep["verdict"] == "differ"
    assert rep["distance"] > 1e-2


def test_ball_automorphism_matched_signatures(progs):
    prog = progs["poincare_ball_2"]
    a = np.array([0.3, 0.1 + 0.2j])
    phi = ball_automorphism(a)
    z = np.array([0.1 + 0.05j, -0.2])
    v = np.array([0.7, 0.3j])
    dphi = ball_automorphism_jacobian(a, z)
    # the Jacobian against a central difference, and metric invariance of
    # the automorphism (oracles for the oracle)
    h = 1e-6
    fd = np.column_stack([(phi(z + h * e) - phi(z - h * e)) / (2 * h) for e in np.eye(2)])
    assert np.max(np.abs(dphi - fd)) < 1e-9
    assert abs(prog.eval(z, v) - prog.eval(phi(z), dphi @ v)) < 1e-14
    pA = adapted_frame(prog, z, v)
    pB = BundlePoint(np.asarray(phi(z)), dphi @ pA.U)
    assert gram_residual(prog, pB) < 1e-14   # pushforward frame stays adapted
    sA = signature(prog, pA, order=1)
    sB = signature(prog, pB, order=1)
    # tier 1 is exact, so the two frames' signatures agree to round-off
    # (5.2e-15 measured; 2.3e-7 while tier 1 was a central difference)
    assert sA.distance(sB) < 1e-12
    # so is tier 2 (7.4e-14 measured; 7.6e-7 while it was a central
    # difference of tier 1)
    assert signature(prog, pA, order=2).distance(signature(prog, pB, order=2)) < 1e-12


def test_same_metric_same_point_matches(progs):
    prog = progs["poincare_ball_2"]
    p = adapted_frame(prog, [0.2, 0.1], [1.0, 0.3])
    rep = compare(prog, p, prog, BundlePoint(p.z.copy(), p.U.copy()), order=1)
    assert rep["verdict"] == "match"


def test_base_point_tiers_are_shared_and_read_only(progs, monkeypatch, capsys):
    # a compare report reads frame A's tiers for the signature and for the
    # regularity ranks alike, off one bracket table, so tier 1 at A is
    # computed once, and tier 2, which the ranks read, once, at A, from what
    # tier 1 left in the table; a shared tier is read-only, so editing a
    # signature's tier in place must fail, not leak
    prog = progs["poincare_ball_2"]
    pA = adapted_frame(prog, [0.1 + 0.2j, 0.3j], [1.0, 0.5])
    calls = []
    derivative = parallelism.structure_derivative

    def counted(table, order=1, fields=None):
        if fields is None and ("tier", order) not in table.cache:
            fd = table.frame
            calls.append((np.array_equal(fd.z, pA.z) and np.array_equal(fd.U, pA.U), order))
        return derivative(table, order, fields)

    for module in (equivalence, parallelism):
        monkeypatch.setattr(module, "structure_derivative", counted)
    assert main(["compare", "--metric-a", "poincare_ball_2", "--metric-b", "fubini_study_2",
                 "--at-a", "z=0.1+0.2i,0.3i;v=1,0.5", "--at-b", "z=-0.2,0.1+0.1i;v=0.3,1i",
                 "--order", "1"]) == 0
    capsys.readouterr()
    # tiers 0 and 1 at A and B, and tier 2 at A only; until tier 2 was
    # exact, its differences took 16 more tier-1 calls at displaced frames
    assert sorted(calls) == [(False, 0), (False, 1), (True, 0), (True, 1), (True, 2)]
    table = table_at(prog, pA)
    s = signature(prog, pA, order=1, table=table)
    assert np.shares_memory(s.tiers[1], structure_derivative(table, 1))
    with pytest.raises(ValueError):
        s.tiers[0][0] = 1.0
    with pytest.raises(ValueError):
        s.tiers[1][0] = 1.0


def _shear(n: int, coeffs: dict):
    """The triangular shear phi(z)_i = z_i + sum of a z_j + b z_j^2 over
    coeffs[(i, j)] = (a, b), j > i, which is invertible: its substitutions
    of the DSL variables for oracles.pullback, phi and its Jacobian."""
    subs = {}
    for i in range(n):
        terms = [(j, float(a), float(b)) for (r, j), (a, b) in coeffs.items() if r == i]
        if terms:
            subs[f"z{i + 1}"] = f"z{i + 1}" + "".join(
                f" + {a!r}*z{j + 1} + {b!r}*z{j + 1}^2" for j, a, b in terms)
            subs[f"v{i + 1}"] = f"v{i + 1}" + "".join(
                f" + ({a!r} + {2 * b!r}*z{j + 1})*v{j + 1}" for j, a, b in terms)

    def phi(z):
        w = np.array(z, dtype=complex)
        for (i, j), (a, b) in coeffs.items():
            w[i] += a * z[j] + b * z[j] ** 2
        return w

    def jacobian(z):
        J = np.eye(n, dtype=complex)
        for (i, j), (a, b) in coeffs.items():
            J[i, j] += a + 2 * b * z[j]
        return J

    return subs, phi, jacobian


def _pullback_gaps(F, coeffs, z, v):
    """The tiers 0..2 of G = F(phi, dphi) at its adapted frame (z, U) less
    those of F at the pushed frame (phi(z), dphi U), each relative to the
    largest entry of F's; and the order-1 distance of G's signature there
    from F's at its own adapted frame over (z, v), the control."""
    subs, phi, jacobian = _shear(F.dim, coeffs)
    G = parse_metric(MetricSource(F.dim, pullback(F.source.f2_expr, subs)))
    pG = adapted_frame(G, z, v)
    tG = table_at(G, pG)
    tF = table_at(F, BundlePoint(phi(pG.z), jacobian(pG.z) @ pG.U))
    gaps = [float(np.max(np.abs(structure_derivative(tG, k) - structure_derivative(tF, k))))
            / float(np.max(np.abs(structure_derivative(tF, k)))) for k in range(3)]
    control = signature(G, pG, 1, tG).distance(signature(F, adapted_frame(F, z, v), 1))
    return gaps, control


PULLBACK_POINT = ([0.1 + 0.2j, 0.3 - 0.1j], [1.0, 0.5j])


@pytest.mark.parametrize("mid", ["warped", "twisted"])
def test_pullback_by_a_shear_keeps_the_tiers(warped, twisted, mid):
    # the paper's invariance claim where the invariants vary: G = F(phi,
    # dphi) for phi = (z1 + 0.3 z2^2, z2) has at its adapted frame the
    # tiers 0..2 of F at the pushed frame (measured 8.9e-16, 2.4e-15 and
    # 2.0e-15 relative on warped, 1.3e-15, 7.3e-15 and 7.1e-15 on twisted),
    # while at F's own adapted frame over (z, v) they are far off (order-1
    # distance 4.08 and 4.06)
    F = {"warped": warped, "twisted": twisted}[mid]
    gaps, control = _pullback_gaps(F, {(0, 1): (0.0, 0.3)}, *PULLBACK_POINT)
    assert max(gaps) <= 1e-12, gaps
    assert control > 1.0


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from(["warped", "twisted"]),
       st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
def test_pullback_by_random_shears_keeps_the_tiers(warped, twisted, mid, a, b):
    # phi = (z1 + a z2 + b z2^2, z2): at most 9.3e-15 relative measured over
    # 20 random (a, b)
    F = {"warped": warped, "twisted": twisted}[mid]
    gaps, _ = _pullback_gaps(F, {(0, 1): (a, b)}, *PULLBACK_POINT)
    assert max(gaps) <= 1e-12, gaps


def test_pullback_by_a_shear_keeps_the_tiers_at_n_3():
    # warped with a v3 term, under a shear of all three variables: 4.4e-15,
    # 6.8e-15 and 1.1e-14 relative measured, and the control 38.2
    F = parse_metric(MetricSource(
        3, "sqrt(abs2(v1)^2 + abs2(v2)^2 + abs2(v3)^2 + abs2(z1)*abs2(v1)*abs2(v2))"))
    coeffs = {(0, 1): (0.0, 0.3), (0, 2): (0.2, 0.0), (1, 2): (0.0, -0.25)}
    gaps, control = _pullback_gaps(F, coeffs, [0.1 + 0.2j, 0.3 - 0.1j, -0.2 + 0.1j],
                                   [1.0, 0.5j, 0.3])
    assert max(gaps) <= 1e-12, gaps
    assert control > 1.0


def test_fiber_search_recovers_rotated_frame(progs):
    from finslerlab.frame_bundle import group_act

    prog = progs["poincare_ball_2"]
    p = adapted_frame(prog, [0.2, 0.1], [1.0, 0.3])
    g = np.diag([np.exp(0.4j), np.exp(-0.7j)])
    pB = group_act(p, g)
    base = compare(prog, p, prog, pB, order=0, fiber_samples=0)
    searched = compare(prog, p, prog, pB, order=0, fiber_samples=40, seed=2)
    assert searched["distance"] <= base["distance"] + 1e-12


def _pushforward_representation(prog, p, pg, g):
    """rho with (right-translation by g applied to field m at p) =
    sum_a rho[a, m] * (field a at pg); constant for the structure group."""
    from oracles import pack_real, unpack_real
    from finslerlab.parallelism import _real_field_matrix

    n = prog.dim
    A = _real_field_matrix(prog, p.z, p.U)
    pushed = np.empty_like(A)
    for m in range(A.shape[1]):
        dz, dU = unpack_real(A[:, m], n)
        from finslerlab.frame_bundle import AmbientTangent

        pushed[:, m] = pack_real(AmbientTangent(dz, dU @ g))
    B = _real_field_matrix(prog, pg.z, pg.U)
    rho, *_ = np.linalg.lstsq(B, pushed, rcond=None)
    assert np.max(np.abs(B @ rho - pushed)) < 1e-8
    return rho


def test_signature_group_transformation(progs):
    # rotating the frame changes the structure coefficients by the constant
    # real representation of the group element: transforming the bracket
    # tensor reproduces the coefficients extracted at the rotated frame
    from finslerlab.frame_bundle import group_act
    from finslerlab.parallelism import labels_real

    prog = progs["poincare_ball_2"]
    p = adapted_frame(prog, [0.2, 0.1], [1.0, 0.3])
    g = np.diag([np.exp(0.6j), np.exp(-0.2j)])
    pg = group_act(p, g)
    rho = _pushforward_representation(prog, p, pg, g)
    # the representation is metric-independent: the flat metric gives the same
    flat = progs["flat_2"]
    pf = adapted_frame(flat, [0.1, -0.3], [1.0, 0.5])
    rho_flat = _pushforward_representation(flat, pf, group_act(pf, g), g)
    assert np.max(np.abs(rho - rho_flat)) < 1e-6

    N = len(labels_real(prog.dim))
    c0 = structure_coefficients(prog, p.z, p.U)
    cg = structure_coefficients(prog, pg.z, pg.U)

    def unflatten(c):
        out = np.zeros((N, N, N))
        idx = 0
        for j in range(N):
            for k in range(j + 1, N):
                out[j, k] = c[idx * N:(idx + 1) * N]
                out[k, j] = -out[j, k]
                idx += 1
        return out

    T0, Tg = unflatten(c0), unflatten(cg)
    rho_inv = np.linalg.inv(rho)
    pred = np.einsum("ai,ijk,jb,kc->abc", rho, T0, rho_inv, rho_inv)
    assert np.max(np.abs(Tg - pred)) < 1e-5


def test_order0_signature_contains_structure_functions(progs):
    # entrywise cross-check: the rotation coefficient of the bracket of the
    # first two real lifts encodes the top curvature component
    from finslerlab.parallelism import extract_structure, labels_real

    prog = progs["poincare_disc"]
    p = adapted_frame(prog, [0.3], [1.0])
    labs = labels_real(1)
    coeffs = structure_coefficients(prog, p.z, p.U)
    N = len(labs)
    # pair (f0, f1) is the first pair; component index of ("t",) is 2
    c_t = coeffs[0 * N + labs.index(("t",))]
    sf = extract_structure(prog, p)
    # [e0hat, e0hat-bar] = (i/2) [f0, f1], so c_t = 2 * raw curvature
    assert c_t == pytest.approx(2 * sf.R_raw[0, 0, 0, 0].real, abs=1e-8)


def test_flat_metric_matches_itself_at_two_points(progs):
    prog = progs["flat_2"]
    pa = adapted_frame(prog, [0.1, -0.2], [1.0, 0.5j])
    pb = adapted_frame(prog, [0.4, 0.3], [0.2, 1.0])
    rep = compare(prog, pa, prog, pb, order=1)
    assert rep["verdict"] == "match"


@pytest.mark.parametrize("mid", ["poincare_ball_2", "l4_finsler", "hermitian_nonconstant",
                                 "warped"])
def test_exact_tier_1_matches_finite_difference_oracle(progs, entries, warped, mid):
    # tier 1 agrees with a fourth-order difference of the structure
    # coefficients along each field, and is at least ten times closer to it
    # than the central difference at NESTED_STEP, which is what it once was
    if mid == "warped":
        prog = warped
        p = adapted_frame(prog, [0.3 + 0.1j, -0.2], [1.0, 0.6 + 0.3j])
    else:
        prog = progs[mid]
        p = adapted_frame(prog, *sample_points(prog, entries[mid], 1, seed=3)[0])
    exact = tier(prog, p.z, p.U, 1)

    def difference(step):
        return np.concatenate([
            along(lambda z, U: structure_coefficients(prog, z, U), p.z, p.U, x,
                  step * (1.0 + np.linalg.norm(x)))
            for x in _real_field_matrix(prog, p.z, p.U).T])

    old = difference(NESTED_STEP)
    oracle = (4 * difference(NESTED_STEP / 2) - old) / 3
    scale = max(1.0, np.max(np.abs(oracle)))
    exact_err = np.max(np.abs(exact - oracle)) / scale
    assert exact_err <= 1e-7
    assert exact_err <= 0.1 * np.max(np.abs(old - oracle)) / scale


def test_tier_1_builds_frame_data_and_jets_only_at_the_point(entries, monkeypatch):
    prog = entries["hermitian_nonconstant"].program()  # a fresh program: nothing cached
    p = adapted_frame(prog, [0.1, 0.2j], [1.0, 0.4 + 0.2j])
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
    tier(prog, p.z, p.U, 1)
    assert len(frames) == 1
    assert np.array_equal(frames[0][0], p.z) and np.array_equal(frames[0][1], p.U)
    assert {j[2:4] for j in jets} == {(4, 1), (2, 2), (5, 2), (2, 3)}
    for z, v, *_, frame in jets:
        assert np.array_equal(z, p.z) and np.array_equal(v, p.e0)
        assert np.array_equal(frame, p.U)  # seeded in the frame


@pytest.mark.parametrize("mid", ["poincare_ball_2", "l4_finsler", "hermitian_nonconstant",
                                 "warped"])
def test_exact_tier_2_matches_finite_difference_oracle(progs, entries, warped, mid):
    # tier 2 agrees with a fourth-order difference of the exact tier 1 along
    # each field, and is at least ten times closer to it than the central
    # difference at NESTED_STEP, which is what it once was
    if mid == "warped":
        prog = warped
        p = adapted_frame(prog, [0.3 + 0.1j, -0.2], [1.0, 0.6 + 0.3j])
    else:
        prog = progs[mid]
        p = adapted_frame(prog, *sample_points(prog, entries[mid], 1, seed=3)[0])
    exact = tier(prog, p.z, p.U, 2)
    old = difference_tier(prog, p.z, p.U, 2)
    oracle = (4 * difference_tier(prog, p.z, p.U, 2, NESTED_STEP / 2) - old) / 3
    scale = max(1.0, np.max(np.abs(oracle)))
    exact_err = np.max(np.abs(exact - oracle)) / scale
    assert exact_err <= 1e-7
    assert exact_err <= 0.1 * np.max(np.abs(old - oracle)) / scale


@pytest.mark.parametrize("mid", [e.id for e in catalog()] + ["warped"])
def test_tier_2_satisfies_the_commutator_identity(progs, entries, warped, mid):
    # Y_m (Y_k c) - Y_k (Y_m c) = [Y_m, Y_k] c = sum_i c[m, k, i] Y_i c, the
    # recurrence of Fels and Olver: a check of tier 2 that its code never uses
    prog = warped if mid == "warped" else progs[mid]
    N = len(labels_real(prog.dim))
    for z, v in sample_points(prog, entries.get(mid), 2, seed=3):
        table = table_at(prog, adapted_frame(prog, z, v))
        t1, t2 = structure_derivative(table, 1).reshape(N, -1), \
            structure_derivative(table, 2).reshape(N, N, -1)
        c = bracket_coefficients(table)
        gap = t2 - t2.swapaxes(0, 1) - np.einsum("mki,ix->mkx", c, t1)
        assert np.max(np.abs(gap)) <= 1e-12 * max(1.0, np.max(np.abs(t2)))


def test_tier_2_builds_frame_data_and_jets_only_at_the_point(entries, monkeypatch):
    prog = entries["hermitian_nonconstant"].program()  # a fresh program: nothing cached
    p = adapted_frame(prog, [0.1, 0.2j], [1.0, 0.4 + 0.2j])
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
    tier(prog, p.z, p.U, 2)
    assert len(frames) == 1
    assert np.array_equal(frames[0][0], p.z) and np.array_equal(frames[0][1], p.U)
    assert {j[2:4] for j in jets} == {(4, 1), (2, 2), (5, 2), (2, 3), (6, 3), (2, 4)}
    for z, v, *_, frame in jets:
        assert np.array_equal(z, p.z) and np.array_equal(v, p.e0)
        assert np.array_equal(frame, p.U)  # seeded in the frame


@pytest.mark.parametrize("mid", [e.id for e in catalog() if e.source.dim <= 2])
def test_noise_floor_lies_two_decades_from_both_sides(progs, entries, mid):
    # the singular values a regularity rank drops, up to alpha = 2, lie 100
    # times below NOISE_FLOOR, and those it counts 100 times above it (the
    # n = 3 metrics, whose tier 3 costs 30 tier-2 calls a point, were
    # measured alike when the floor was set)
    prog = progs[mid]
    N = len(labels_real(prog.dim))
    table = table_at(prog, adapted_frame(prog, *sample_points(prog, entries[mid], 1, seed=3)[0]))
    for alpha in range(3):
        jac = np.hstack([structure_derivative(table, k + 1).reshape(N, -1)
                         for k in range(alpha + 1)])
        sv = np.linalg.svd(jac, compute_uv=False)
        kept = sv > max(SV_TOL * sv[0], NOISE_FLOOR)
        assert np.all(sv[~kept] <= NOISE_FLOOR / 100), (alpha, sv)
        assert np.all(sv[kept] >= 100 * NOISE_FLOOR), (alpha, sv)


@pytest.mark.parametrize("mid", ["poincare_ball_2", "l4_finsler", "hermitian_nonconstant",
                                 "warped"])
def test_exact_tier_3_matches_finite_difference_oracle(progs, entries, warped, mid):
    # tier 3 agrees with a fourth-order difference of the exact tier 2 along
    # each field, and is at least ten times closer to it than the central
    # difference, which is what it once was
    if mid == "warped":
        prog = warped
        p = adapted_frame(prog, [0.3 + 0.1j, -0.2], [1.0, 0.6 + 0.3j])
    else:
        prog = progs[mid]
        p = adapted_frame(prog, *sample_points(prog, entries[mid], 1, seed=3)[0])
    exact = tier(prog, p.z, p.U, 3)
    old = difference_tier(prog, p.z, p.U, 3)
    oracle = (4 * difference_tier(prog, p.z, p.U, 3, NESTED_STEP / 2) - old) / 3
    scale = max(1.0, np.max(np.abs(oracle)))
    exact_err = np.max(np.abs(exact - oracle)) / scale
    assert exact_err <= 1e-7
    assert exact_err <= 0.1 * np.max(np.abs(old - oracle)) / scale


@pytest.mark.parametrize("mid", [e.id for e in catalog() if e.source.dim <= 2]
                         + ["warped", "twisted"])
def test_tier_3_satisfies_the_commutator_identity(progs, entries, warped, twisted, mid):
    # X_l X_m (X_k c) - X_m X_l (X_k c) = [X_l, X_m] (X_k c)
    # = sum_i c[l, m, i] X_i (X_k c): the recurrence of tier 3 on tier 2,
    # which its code never uses
    prog = {"warped": warped, "twisted": twisted}.get(mid) or progs[mid]
    N = len(labels_real(prog.dim))
    for z, v in sample_points(prog, entries.get(mid), 2, seed=3):
        table = table_at(prog, adapted_frame(prog, z, v))
        t2, t3 = structure_derivative(table, 2).reshape(N, N, -1), \
            structure_derivative(table, 3).reshape(N, N, N, -1)
        c = bracket_coefficients(table)
        gap = t3 - t3.swapaxes(0, 1) - np.einsum("lmi,ikx->lmkx", c, t2)
        assert np.max(np.abs(gap)) <= 1e-12 * max(1.0, np.max(np.abs(t3)))


def test_tier_3_jets_are_built_only_when_it_is_read(entries, monkeypatch):
    # order 3 reads the fourth derivatives of (E, C20, C21): one jet(7, 4)
    # and one jet(2, 5) at the point, which tiers 1 and 2 never build
    prog = entries["hermitian_nonconstant"].program()
    p = adapted_frame(prog, [0.1, 0.2j], [1.0, 0.4 + 0.2j])
    orders = []
    jet = MetricProgram.jet_unchecked

    def counted_jet(self, z, v, fiber_order, base_order, frame=None):
        orders.append((fiber_order, base_order))
        assert np.array_equal(z, p.z) and np.array_equal(frame, p.U)
        return jet(self, z, v, fiber_order, base_order, frame)

    monkeypatch.setattr(MetricProgram, "jet_unchecked", counted_jet)
    table = table_at(prog, p)
    structure_derivative(table, 2)
    assert (7, 4) not in orders and (2, 5) not in orders
    structure_derivative(table, 3)
    assert orders.count((7, 4)) == 1 and orders.count((2, 5)) == 1


def test_tier_2_reads_each_jet_partial_once(entries, monkeypatch):
    # the third derivatives of (E, C20, C21) read the partials of C(2, 0),
    # C(2, 1) and Dh up to order 3 from the jets of tier 2, each multiset
    # of variable kinds once: 3 tensors x (4 + 10 + 20) reads, where reading
    # every ordered kind tuple took 3 x (4 + 16 + 64) = 252
    prog = entries["poincare_ball_2"].program()
    table = table_at(prog, adapted_frame(prog, [0.1 + 0.2j, 0.3j], [1.0, 0.5]))
    structure_derivative(table, 1)
    reads = []
    partials = Jet.partials

    def counted(self, p, q, kinds=()):
        if self.space.base_order >= 3:  # the jets of tier 2: (6, 3) and (2, 4)
            reads.append(kinds)
        return partials(self, p, q, kinds)

    monkeypatch.setattr(Jet, "partials", counted)
    structure_derivative(table, 2)
    assert len(reads) == 102


def test_tier_2_memory_at_n_3(entries):
    # the iterated fields are taken a row of the last field at a time,
    # inside the loop that reads them: the traced peak of tier 2 (after
    # tier 1) at the structure point of ROADMAP's table, with the jet tables
    # warm, is 13.85 MB; the bound stays below the 14.7 MB measured for the
    # per-order code it replaced
    import tracemalloc

    entry = entries["poincare_ball_3"]
    prog = entry.program()
    (z, v), (z2, v2) = sample_points(prog, entry, 2, seed=1)
    structure_derivative(table_at(prog, adapted_frame(prog, z2, v2)), 2)  # the jet tables, once
    table = table_at(prog, adapted_frame(prog, z, v))
    structure_derivative(table, 1)
    tracemalloc.start()
    try:
        structure_derivative(table, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14.3e6, peak


def test_tier_3_memory_at_n_3():
    # tier 3 (after tier 2) on ROADMAP item 12's metric, with the jet tables
    # warm: its traced peak is 148.20 MB, and the bound is the 148.79 MB
    # measured, by this protocol, before the frame data kept the memo of
    # frame_derivatives and the bracket table every order
    import tracemalloc

    prog = parse_metric(MetricSource(3, "abs2(v1)*(1 + abs2(z2)) + abs2(v2)*(1 + abs2(z3))"
                                        " + abs2(v3)*(1 + abs2(z1))"))
    p2 = adapted_frame(prog, [0.2, 0.1j, -0.1 + 0.1j], [0.4, 1.0, 0.2j])
    warm = FrameData(prog, p2.z, p2.U)
    for k in range(1, 5):
        warm.partials(k)  # the jet tables, once
    table = table_at(prog, adapted_frame(prog, [0.1 + 0.2j, -0.2 + 0.1j, 0.3j],
                                         [1.0, 0.5 + 0.2j, -0.3]))
    structure_derivative(table, 2)
    tracemalloc.start()
    try:
        structure_derivative(table, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 148.8e6, peak
