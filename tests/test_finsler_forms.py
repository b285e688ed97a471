import numpy as np
import pytest

from finslerlab import MetricSource, parse_metric
from finslerlab.finsler_forms import (
    cubic_form_peak,
    form_derivative,
    forms_at,
    hermitian_test,
    homogeneity_identities,
    levi_check,
)
from finslerlab.frame_bundle import adapted_frame, gram_derivative
from finslerlab.registry import sample_points

import oracles
from oracles import fd_derivative, frame_contract, frame_increments


def hermitian_metric(prog, z, v):
    """The candidate Hermitian metric g_ij = d^2 F^2 / dv^i dvbar^j at (z, v),
    the mixed fiber form in the coordinate frame; independent of v for a
    metric with vanishing cubic form."""
    return forms_at(prog, z, v, max_order=2).h_mixed


def test_flat_forms_in_coordinate_frame(progs):
    prog = progs["flat_2"]
    forms = forms_at(prog, [0, 0], [1.0, 0.5j])
    assert np.allclose(forms.h_mixed, np.eye(2), atol=1e-14)
    assert np.allclose(forms.h_pure, 0, atol=1e-14)
    assert abs(forms.comp[(2, 1)][0, 1, 0]) < 1e-14  # H(0, 1, bar 0)
    assert abs(forms.comp[(2, 2)][0, 1, 0, 1]) < 1e-14  # HH(0, 1, bar 0, bar 1)


def test_hermitian_metrics_have_no_cubic_form(progs, entries):
    for mid in ("poincare_ball_2", "fubini_study_2", "hermitian_nonconstant"):
        prog = progs[mid]
        pts = sample_points(prog, entries[mid], 5, seed=2)
        ok, witness = hermitian_test(prog, pts)
        assert ok and witness is None


def test_quartic_norm_has_cubic_form(progs):
    prog = progs["l4_finsler"]
    v = np.array([1.0, 1.0]) / prog.norm([0, 0], [1.0, 1.0])
    forms = forms_at(prog, [0, 0], v)
    vals = [abs(forms.comp[(2, 1)][1, 1, 1]), abs(forms.h_pure[1, 1])]
    assert max(vals) > 1e-3
    # finite-difference oracle confirms a nonzero third mixed fiber derivative
    fd = fd_derivative(prog, [0, 0], v, v_idx=(1, 1), vbar_idx=(1,), richardson=True)
    ad = oracles.derivative(prog.jet([0, 0], v, 3, 0), v=(1, 1), vbar=(1,))
    assert abs(fd) > 1e-3
    assert abs(ad - fd) < 1e-5


def test_hermitian_test_witness(progs):
    prog = progs["l4_finsler"]
    ok, witness = hermitian_test(prog, [([0, 0], [1.0, 0.7])])
    assert not ok
    z, v, indices, value = witness
    assert abs(value) > 1e-3
    assert len(indices) == 3


@pytest.mark.parametrize("mid", ["l4_finsler", "poincare_ball_3", "hermitian_nonconstant",
                                 "fubini_study_2", "warped", "twisted"])
def test_hermitian_test_reads_the_homogeneity_jet(progs, entries, warped, twisted, mid):
    # check hands the Hermitian test the peaks of its jet(5, 0): the cubic
    # tensors there are those of the jet(3, 0) bit for bit, so the verdict and
    # the witness are too
    prog = {"warped": warped, "twisted": twisted}.get(mid) or progs[mid]
    entry = entries["l4_finsler" if mid in ("warped", "twisted") else mid]
    pts = sample_points(prog, entry, 4, seed=5)
    peaks = []
    for z, v in pts:
        jet3, jet5 = (prog.jet_unchecked(z, v, k, 0) for k in (3, 5))
        for pq in ((3, 0), (2, 1)):
            assert np.array_equal(jet5.fiber_tensor(*pq), jet3.fiber_tensor(*pq))
        peaks.append(cubic_form_peak(jet5))
        assert peaks[-1] == cubic_form_peak(jet3)
    (ok5, w5), (ok3, w3) = hermitian_test(prog, pts, peaks), hermitian_test(prog, pts)
    assert ok5 == ok3 and (w5 is None) == (w3 is None)
    if w3 is not None:
        assert all(np.array_equal(a, b) for a, b in zip(w5, w3))


@pytest.mark.parametrize("metric_id, z, v, tol", [
    ("flat_2", [0.1, -0.2], [1.0, 0.5], 1e-12),
    ("poincare_disc", [0.3], [1.0], 1e-8),
    ("l4_finsler", [0.2, 0.1], [1.0, 0.8 + 0.3j], 1e-8),
])
def test_homogeneity_identities(progs, metric_id, z, v, tol):
    assert homogeneity_identities(progs[metric_id], z, v)["max"] < tol


# F^2 of no homogeneity: every Euler identity fails at O(1), so a comparison
# on it checks each identity entry by entry, not only round-off
INHOMOGENEOUS = MetricSource(
    2, "abs2(v1) + abs2(v2)^2 + abs2(z1)*abs2(v1)^3 + (v1 + conj(v2))*abs2(v2)")


def _homogeneity_cases(progs, entries, warped, twisted):
    cases = [(prog, z, v) for mid, prog in progs.items()
             for z, v in sample_points(prog, entries[mid], 2, seed=11)]
    return cases + [(prog, [0.3, 0.1 - 0.2j], [1.0, 0.7 + 0.4j]) for prog in (warped, twisted)]


def test_homogeneity_identities_match_the_loop_oracle(progs, entries, warped, twisted):
    for prog, z, v in _homogeneity_cases(progs, entries, warped, twisted):
        new, old = homogeneity_identities(prog, z, v), oracles.euler_identities(prog, z, v)
        assert list(new) == list(old)
        for key in old:
            assert abs(new[key] - old[key]) < 1e-12, (prog.source.f2_expr, key)
    inhomogeneous = parse_metric(INHOMOGENEOUS)
    new = homogeneity_identities(inhomogeneous, [0.3, 0.1], [1.0, 0.7 - 0.4j])
    old = oracles.euler_identities(inhomogeneous, [0.3, 0.1], [1.0, 0.7 - 0.4j])
    assert old["max"] > 1e-3
    for key in old:
        assert new[key] == pytest.approx(old[key], rel=1e-12, abs=1e-12), key


def test_homogeneity_identities_hold_on_fifty_points_a_metric(progs, entries, warped, twisted):
    worst = max(homogeneity_identities(prog, z, v)["max"] for mid, prog in progs.items()
                for z, v in sample_points(prog, entries[mid], 50, seed=101))
    assert worst <= 1e-12
    for prog in (warped, twisted):
        for z, v in sample_points(prog, entries["l4_finsler"], 10, seed=101):
            assert homogeneity_identities(prog, z, v)["max"] <= 1e-12


def test_euler_and_direction_checks_agree_on_every_verdict(progs, entries, warped, twisted):
    # the Euler identities and the five families on six random directions
    # that follow from them pass and fail together
    cases = _homogeneity_cases(progs, entries, warped, twisted)
    cases.append((parse_metric(INHOMOGENEOUS), [0.3, 0.1], [1.0, 0.7 - 0.4j]))
    for mutate in MUTATIONS.values():
        cases += [(_MutatedJets(progs[mid], mutate), z, v) for mid, z, v in MUTATED_POINTS]
    verdicts = []
    for prog, z, v in cases:
        new = homogeneity_identities(prog, z, v)["max"]
        old = oracles.homogeneity_identities(prog, z, v)["max"]
        assert (new <= 1e-12 and old <= 1e-12) or (new > 1e-3 and old > 1e-3), (new, old)
        verdicts.append(new <= 1e-12)
    assert verdicts.count(False) == 5  # the inhomogeneous metric and the four mutated jets


@pytest.mark.parametrize("metric_id", ["poincare_disc", "poincare_ball_3", "fubini_study_2",
                                       "hermitian_nonconstant", "l4_finsler", "warped",
                                       "twisted"])
def test_fiber_tensors_scale_with_their_bidegree(progs, entries, warped, twisted, metric_id):
    # the global form of the Euler identities, read with no contraction:
    # T_pq(z, lam v) = lam^(1 - p) conj(lam)^(1 - q) T_pq(z, v) for p + q <= 5
    prog = {"warped": warped, "twisted": twisted}.get(metric_id) or progs[metric_id]
    entry = entries["l4_finsler" if metric_id in ("warped", "twisted") else metric_id]
    lam = 1.7 * np.exp(0.4j)
    for z, v in sample_points(prog, entry, 3, seed=12):
        jet, scaled = (prog.jet_unchecked(z, w, 5, 0) for w in (v, lam * np.asarray(v)))
        for p in range(6):
            for q in range(6 - p):
                want = lam ** (1 - p) * np.conj(lam) ** (1 - q) * jet.fiber_tensor(p, q)
                err = np.max(np.abs(scaled.fiber_tensor(p, q) - want))
                assert err <= 1e-12 * max(1.0, np.max(np.abs(want))), (p, q, err)


class _MutatedJets:
    """A program whose jets read fiber_tensor(p, q) as mutate(jet, p, q)."""

    def __init__(self, prog, mutate):
        self.prog, self.mutate, self.dim = prog, mutate, prog.dim

    def jet_unchecked(self, z, v, fiber_order, base_order, frame=None):
        jet = self.prog.jet_unchecked(z, v, fiber_order, base_order, frame)
        return type("MutatedJet", (), {"fiber_tensor": lambda _, p, q: self.mutate(jet, p, q)})()


MUTATIONS = {
    "p and q swapped": lambda jet, p, q: jet.fiber_tensor(q, p),
    "a conjugate slot dropped": lambda jet, p, q: jet.fiber_tensor(p + 1, q - 1) if q
    else jet.fiber_tensor(p, q),
}


MUTATED_POINTS = [
    ("poincare_ball_2", [0.2, -0.1j], [1.0, 0.5 + 0.3j]),
    ("l4_finsler", [0.2, 0.1], [1.0, 0.8 + 0.3j]),
]


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("metric_id, z, v", MUTATED_POINTS)
def test_homogeneity_identities_catch_jet_mutations(progs, mutation, metric_id, z, v):
    mutated = _MutatedJets(progs[metric_id], MUTATIONS[mutation])
    res, ref = homogeneity_identities(mutated, z, v), oracles.euler_identities(mutated, z, v)
    assert res["max"] > 1e-3
    assert list(res) == list(ref)
    for key in ref:
        assert res[key] == pytest.approx(ref[key], rel=1e-12, abs=1e-12), key


def test_levi_flat(progs):
    rep = levi_check(progs["flat_2"], [0, 0], [1.0, 0.0])
    assert rep.verdict == "strongly-pseudoconvex"
    assert rep.eigenvalues == pytest.approx([1.0])


def test_levi_ball(progs, entries):
    prog = progs["poincare_ball_2"]
    for z, v in sample_points(prog, entries["poincare_ball_2"], 5, seed=4):
        rep = levi_check(prog, z, v)
        assert rep.verdict == "strongly-pseudoconvex"
        # positive-definite Hermitian metric oracle: the mixed Hessian is
        # positive definite, so its restriction must be too
        g = hermitian_metric(prog, z, v)
        assert np.min(np.linalg.eigvalsh(g)) > 0


def test_levi_quartic_norm(progs):
    prog = progs["l4_finsler"]
    rep = levi_check(prog, [0, 0], [1.0, 1.0])
    assert rep.verdict == "strongly-pseudoconvex"
    # on a coordinate axis the Levi form degenerates
    rep = levi_check(prog, [0, 0], [1.0, 0.0])
    assert rep.verdict == "degenerate"


def test_levi_n1_is_vacuous(progs):
    rep = levi_check(progs["poincare_disc"], [0.2], [1.0])
    assert rep.verdict == "strongly-pseudoconvex"
    assert rep.eigenvalues.size == 0


def test_radial_pairing_identity(progs, entries):
    # h(v, vbar) = F^2 at every sampled point, every metric
    for mid, prog in progs.items():
        for z, v in sample_points(prog, entries[mid], 5, seed=6):
            forms = forms_at(prog, z, v)
            n = prog.dim
            val = sum(v[a] * np.conj(v[b]) * forms.comp[(1, 1)][a, b]
                      for a in range(n) for b in range(n))
            assert abs(val - prog.eval(z, v)) < 1e-10 * max(1, abs(val))


def test_sphere_point_block_decomposition(progs):
    # at a unit vector, the mixed form pairs the radial direction only with
    # itself (value 1) and not with the complex tangent distribution
    prog = progs["l4_finsler"]
    z = np.array([0.1, 0.2])
    v = np.array([1.0, 1.2 + 0.4j])
    vhat = v / prog.norm(z, v)
    rep = levi_check(prog, z, v)
    forms = forms_at(prog, z, vhat)
    g = forms.comp[(1, 1)]
    assert vhat @ g @ np.conj(vhat) == pytest.approx(1.0, abs=1e-10)
    for k in range(rep.basis.shape[1]):
        x = rep.basis[:, k]
        assert abs(x @ g @ np.conj(vhat)) < 1e-10


def test_hermitian_metric_recovery_is_fiber_independent(progs):
    prog = progs["poincare_ball_2"]
    z = [0.2, -0.1j]
    rng = np.random.default_rng(9)
    mats = []
    for _ in range(20):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        mats.append(hermitian_metric(prog, z, v))
    spread = max(np.max(np.abs(m - mats[0])) for m in mats)
    assert spread < 1e-10

    # and genuinely fiber-dependent for the non-Hermitian metric
    prog = progs["l4_finsler"]
    m1 = hermitian_metric(prog, [0, 0], [1.0, 0.5])
    m2 = hermitian_metric(prog, [0, 0], [0.5, 1.0])
    assert np.max(np.abs(m1 - m2)) > 1e-2


@pytest.mark.parametrize("metric_id, z, v", [
    ("l4_finsler", [0.1, 0.2], [1.0, 0.8]),
    ("poincare_ball_3", [0.1 + 0.2j, -0.3, 0.15j], [1.0, 0.5 - 0.2j, 0.3]),
])
def test_form_derivative_matches_central_difference(progs, metric_id, z, v):
    """The stacked derivative of each frame form along the frame increments
    of ambient tangents equals a central difference of the form at
    displaced (z, U), and each of its directions equals the same direction
    alone, bit for bit."""
    prog = progs[metric_id]
    n = prog.dim
    rng = np.random.default_rng(11)
    U0 = adapted_frame(prog, z, v).U
    tilt = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    K = 4
    dz = rng.standard_normal((K, n)) + 1j * rng.standard_normal((K, n))
    dU = rng.standard_normal((K, n, n)) + 1j * rng.standard_normal((K, n, n))
    h = 1e-5
    for U in (U0, U0 + 0.1 * tilt):  # an adapted frame, then a non-adapted U
        jet = prog.jet_unchecked(z, U[:, 0], 4, 1, U)
        delta, A = frame_increments(U, dz, dU)
        for p, q in ((1, 1), (2, 0), (2, 1), (1, 2)):
            def form(zz, UU):
                raw = prog.jet_unchecked(zz, UU[:, 0], p + q, 0).fiber_tensor(p, q)
                return frame_contract(raw, p, q, UU)

            stacked = form_derivative(jet, (p, q), delta, A)
            assert stacked.shape == (K,) + (n,) * (p + q)
            for k in range(K):
                diff = (form(z + h * dz[k], U + h * dU[k])
                        - form(z - h * dz[k], U - h * dU[k])) / (2 * h)
                # relative, or absolute where the form vanishes (Hermitian (2, 0))
                err = np.max(np.abs(stacked[k] - diff)) / max(1.0, np.max(np.abs(diff)))
                assert err < 1e-7, (p, q, k, err)
                alone = form_derivative(jet, (p, q), delta[k:k + 1], A[k:k + 1])
                assert np.array_equal(alone[0], stacked[k])
        # the Gram derivative is the (1, 1) case, stacked or one tangent at a time
        gd = gram_derivative(jet, delta, A)
        assert np.array_equal(gd, form_derivative(jet, (1, 1), delta, A))
        assert np.array_equal(gram_derivative(jet, delta[1], A[1]), gd[1])
