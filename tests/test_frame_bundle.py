import numpy as np
import pytest

import finslerlab.metric_dsl as metric_dsl
from finslerlab.cli import main
from finslerlab.frame_bundle import (
    AmbientTangent,
    BundlePoint,
    adapted_frame,
    gram_matrix,
    gram_residual,
    group_act,
    vertical_relations_residual,
    verify_tangent,
)
from finslerlab.metric_dsl import FinslerError
from finslerlab.parallelism import _generators, labels_real, u_block_basis
from finslerlab.connection import frame_data
from finslerlab.registry import sample_points
import oracles
from oracles import tangency_kernel_dimension


def vertical_membership(prog, p, A):
    """Max residual of the defining equations of the algebraic vertical
    subspace at p for the candidate generator A, from the frame forms of
    the frame data at p."""
    fd = frame_data(prog, p.z, p.U)
    return vertical_relations_residual(A, np.conj(A), fd.C(2, 0), fd.C(2, 1), fd.C(1, 2))


def vertical_tangent(p, A):
    """The vertical tangent (0, U A) generated by the Lie-algebra element A."""
    return AmbientTangent(np.zeros(p.n, dtype=complex), p.U @ np.asarray(A, dtype=complex))


def test_flat_frames_are_canonical(progs):
    prog = progs["flat_2"]
    p = adapted_frame(prog, [0, 0], [1.0, 0.0])
    assert np.allclose(p.U, np.eye(2), atol=1e-14)
    p = adapted_frame(prog, [0, 0], [0.0, 2.0])
    assert np.allclose(p.U, np.array([[0, 1], [1, 0]]), atol=1e-14)


def test_ball_gram_condition(progs):
    prog = progs["poincare_ball_2"]
    p = adapted_frame(prog, [0.3, 0.0], [1.0, 0.0])
    assert gram_residual(gram_matrix(prog, p.z, p.U)) < 1e-12


def test_adapted_frame_deterministic(progs):
    prog = progs["l4_finsler"]
    a = adapted_frame(prog, [0.1, 0.2], [1.0, 0.8])
    b = adapted_frame(prog, [0.1, 0.2], [1.0, 0.8])
    assert np.array_equal(a.U, b.U)


def test_group_action(progs, entries):
    prog = progs["poincare_ball_2"]
    p = adapted_frame(prog, [0.2, 0.1], [0.5, 1.0])
    # identity
    assert np.allclose(group_act(p, np.eye(2)).U, p.U)
    # phase rotation of e_0
    g = np.diag([np.exp(1j * np.pi / 4), 1.0])
    pg = group_act(p, g)
    assert np.allclose(pg.e0, np.exp(1j * np.pi / 4) * p.e0)
    assert gram_residual(gram_matrix(prog, pg.z, pg.U)) < 1e-12
    # random block unitary
    rng = np.random.default_rng(8)
    w = np.exp(1j * rng.uniform(0, 2 * np.pi))
    g = np.diag([1.0, w])
    pg = group_act(p, g)
    assert gram_residual(gram_matrix(prog, pg.z, pg.U)) < 1e-12


def test_group_action_rejects_non_unitary(progs):
    prog = progs["flat_2"]
    p = adapted_frame(prog, [0, 0], [1, 0])
    with pytest.raises(FinslerError):
        group_act(p, np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_fundamental_field(progs):
    # the rotation field t of the parallelism is the vertical tangent
    # (0, U A) of the generator A = i E_00
    prog = progs["l4_finsler"]
    p = adapted_frame(prog, [0.1, 0.2], [1.0, 0.8])
    dz, dU = oracles.field_stack(frame_data(prog, p.z, p.U))
    j = labels_real(2).index(("t",))
    A = np.zeros((2, 2), dtype=complex)
    A[0, 0] = 1j
    assert np.array_equal(dz[j], vertical_tangent(p, A).dz)
    assert np.allclose(dU[j], vertical_tangent(p, A).dU, rtol=0, atol=1e-15)


def test_vertical_membership_unitary_algebra(progs, entries):
    # for Hermitian metrics the vertical algebra is the full unitary algebra
    prog = progs["poincare_ball_2"]
    basis = []
    for a in range(2):
        M = np.zeros((2, 2), dtype=complex)
        M[a, a] = 1j
        basis.append(M)
    basis.append(np.array([[0, 1], [-1, 0]], dtype=complex))
    basis.append(np.array([[0, 1j], [1j, 0]], dtype=complex))
    for z, v in sample_points(prog, entries["poincare_ball_2"], 10, seed=5):
        p = adapted_frame(prog, z, v)
        for A in basis:
            assert vertical_membership(prog, p, A) < 1e-9


def test_vertical_membership_counterexample(progs):
    prog = progs["flat_2"]
    p = adapted_frame(prog, [0, 0], [1, 0])
    E00 = np.zeros((2, 2), dtype=complex)
    E00[0, 0] = 1.0
    assert vertical_membership(prog, p, E00) == pytest.approx(2.0)


def test_vertical_generators_are_members(progs):
    # the Webster-type generators and the block basis satisfy the defining
    # equations of the vertical algebra at every adapted frame
    prog = progs["l4_finsler"]
    p = adapted_frame(prog, [0.1, -0.2], [1.0, 0.7 + 0.2j])
    G = _generators(frame_data(prog, p.z, p.U))
    # generator slots of the real fields e_2, e_3, t and the block basis
    e2, e3, T, *block = G[4:8]
    for A in (e2, e3):
        assert vertical_membership(prog, p, A) < 1e-10
    assert np.array_equal(block, u_block_basis(2))
    for A in block:
        assert vertical_membership(prog, p, A) < 1e-10
    assert np.array_equal(T, [[1j, 0], [0, 0]])
    assert vertical_membership(prog, p, T) < 1e-10


@pytest.mark.parametrize("metric_id, z, v", [
    ("poincare_disc", [0.3], [1.0]),
    ("l4_finsler", [0.1, -0.2], [1.0, 0.7 + 0.2j]),
    ("poincare_ball_3", [0.2, 0.1, -0.1], [1.0, 0.4, 0.2j]),
])
def test_vertical_relations_stack_matches_the_loop_oracle(progs, metric_id, z, v):
    # generic slots oh, oa violate every relation, so each entry is compared
    prog = progs[metric_id]
    n = prog.dim
    p = adapted_frame(prog, z, v)
    fd = frame_data(prog, p.z, p.U)
    forms = fd.C(2, 0), fd.C(2, 1), fd.C(1, 2)
    rng = np.random.default_rng(7)
    oh, oa = rng.standard_normal((2, 6, n, n)) + 1j * rng.standard_normal((2, 6, n, n))
    each = [oracles.vertical_relations_residual(h, a, *forms) for h, a in zip(oh, oa)]
    for h, a, ref in zip(oh, oa, each):
        assert vertical_relations_residual(h, a, *forms) == pytest.approx(ref, rel=1e-13)
    assert vertical_relations_residual(oh, oa, *forms) == pytest.approx(max(each), rel=1e-13)
    assert vertical_relations_residual(oh[:0], oa[:0], *forms) == 0.0


def test_tangency_of_vertical_members(progs):
    prog = progs["poincare_ball_2"]
    p = adapted_frame(prog, [0.2, 0.1], [1.0, 0.3])
    A = np.array([[1j, 0.3 + 0.1j], [-0.3 + 0.1j, -0.5j]])  # in u(2)
    assert vertical_membership(prog, p, A) < 1e-10
    assert verify_tangent(prog, p, vertical_tangent(p, A)) < 1e-8
    # a generator violating the membership equations is not tangent
    E00 = np.zeros((2, 2), dtype=complex)
    E00[0, 0] = 1.0
    res = verify_tangent(prog, p, vertical_tangent(p, E00))
    assert res > 1.0


@pytest.mark.parametrize("metric_id, z, v", [
    ("poincare_disc", [0.3], [1.0]),
    ("poincare_ball_2", [0.2, 0.1], [1.0, 0.4]),
    ("l4_finsler", [0.1, 0.2], [1.0, 0.8]),
    ("poincare_ball_3", [0.2, 0.1, -0.1], [1.0, 0.4, 0.2j]),
])
def test_bundle_dimension(progs, metric_id, z, v):
    prog = progs[metric_id]
    p = adapted_frame(prog, z, v)
    n = prog.dim
    assert tangency_kernel_dimension(prog, p) == n * n + 2 * n


def test_no_jet_of_fiber_order_3_and_base_order_1(entries, monkeypatch, capsys):
    """Tangency, the connection solve and the structure functions all read
    the jet(4, 1) that the frame data holds; none evaluates a jet(3, 1)."""
    orders = []
    real = metric_dsl.jet_space

    def counted(n, fiber_order, base_order):
        orders.append((n, fiber_order, base_order))
        return real(n, fiber_order, base_order)

    monkeypatch.setattr(metric_dsl, "jet_space", counted)
    assert main(["check", "--metric", "l4_finsler", "--samples", "1"]) == 0
    capsys.readouterr()
    prog = entries["poincare_ball_2"].program()  # a fresh program: no cached jets
    tangency_kernel_dimension(prog, adapted_frame(prog, [0.2, 0.1], [1.0, 0.4]))
    assert (2, 4, 1) in orders
    assert not [o for o in orders if o[1:] == (3, 1)]


def test_phase_rotation_equivariance(progs):
    # frames built from a rotated fiber direction still satisfy the Gram
    # condition and carry the rotated direction as first vector
    prog = progs["l4_finsler"]
    z = [0.1, 0.2]
    v = np.array([1.0, 0.7])
    phi = 0.6
    p = adapted_frame(prog, z, np.exp(1j * phi) * v)
    f = prog.norm(z, v)
    assert np.allclose(p.e0, np.exp(1j * phi) * v / f)
    assert gram_residual(gram_matrix(prog, p.z, p.U)) < 1e-10


def test_degenerate_fiber_direction_raises(progs):
    # the quartic norm degenerates on coordinate axes: frame construction
    # must refuse rather than emit a broken frame
    from finslerlab.frame_bundle import DegenerateMetricError

    with pytest.raises(DegenerateMetricError):
        adapted_frame(progs["l4_finsler"], [0, 0], [1.0, 0.0])
