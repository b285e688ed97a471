import gc
import weakref

import numpy as np
import pytest

from finslerlab import MetricSource, parse_metric
from finslerlab.connection import (
    FrameData,
    covariant_derivative,
    frame_data,
    frame_derivatives,
    horizontal_lift,
    solve_connection,
)
from finslerlab.frame_bundle import (
    AmbientTangent,
    adapted_frame,
    gram_derivative,
    group_act,
    verify_tangent,
)
from finslerlab.equivalence import _haar_group_element
from finslerlab.parallelism import _generators, _stack_layout
from finslerlab.registry import catalog, sample_points
from conftest import NEAR_DEGENERATE
from oracles import frame_at, frame_increments, structure_at


def test_flat_connection_vanishes(progs):
    prog = progs["flat_2"]
    p = adapted_frame(prog, [0.3, -0.2], [1.0, 0.5j])
    cm = solve_connection(frame_at(prog, p))
    assert np.max(np.abs(cm.E)) < 1e-14


def test_disc_connection_value(progs):
    # one-dimensional Kaehler oracle: the correction along the unit frame
    # vector u is -2 u zbar / (1 - |z|^2)
    prog = progs["poincare_disc"]
    z = 0.5
    p = adapted_frame(prog, [z], [1.0])
    u = p.U[0, 0]
    oracle = -2 * u * np.conj(z) / (1 - abs(z) ** 2)
    cm = solve_connection(frame_at(prog, p))
    assert cm.E[0, 0, 0] == pytest.approx(oracle, abs=1e-12)
    assert cm.E[0, 0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_closed_form_agrees_with_solve(progs, entries):
    for mid in ("poincare_ball_2", "l4_finsler", "fubini_study_2"):
        prog = progs[mid]
        for z, v in sample_points(prog, entries[mid], 5, seed=3):
            p = adapted_frame(prog, z, v)
            cm = solve_connection(frame_at(prog, p))
            assert cm.closed_form_gap < 1e-8
            assert cm.min_singular_ratio > 1e-6


@pytest.mark.parametrize("mid", [e.id for e in catalog()]
                         + ["warped", "twisted"] + sorted(NEAR_DEGENERATE))
def test_closed_form_tangency_is_the_lifts_gram_derivative(progs, entries, warped, twisted,
                                                          mid):
    # the tangency system's residual at the closed form is the Gram
    # derivative along the 2n lifts of the parallelism's generator stack
    # (3.5e-15 apart at most, on warped); scaling the closed form by
    # 1 + 1e-9 moves it by at least 1.4e-9 max |E| (measured), so it reads
    # the closed form and not the least-squares solution
    fixtures = {"warped": warped, "twisted": twisted}
    fixtures.update({name: parse_metric(MetricSource(2, f2))
                     for name, f2 in NEAR_DEGENERATE.items()})
    prog = fixtures[mid] if mid in fixtures else progs[mid]
    n = prog.dim
    controls = 0
    for z, v in sample_points(prog, entries.get(mid), 20, seed=5):
        p = adapted_frame(prog, z, v)
        fd = frame_data(prog, p.z, p.U)
        got = solve_connection(fd).closed_form_tangency
        lifts = gram_derivative(fd.jet, _stack_layout(n)[1][:2 * n], _generators(fd)[:2 * n])
        assert abs(got - float(np.max(np.abs(lifts)))) <= 1e-14
        if np.max(np.abs(fd.E)) >= 0.1:
            scaled = frame_data(prog, p.z, p.U)
            scaled._E = fd.E * (1 + 1e-9)
            moved = solve_connection(scaled).closed_form_tangency
            assert moved > max(1e-10, 10 * got)
            controls += 1
    assert controls > 0 or mid in ("flat_1", "flat_2", "flat_3", "l4_finsler")  # E = 0 there


def test_lift_tangency_and_theta(progs):
    prog = progs["poincare_ball_2"]
    p = adapted_frame(prog, [0.2, 0.1], [1.0, 0.3 - 0.2j])
    for i in range(4):
        t = horizontal_lift(prog, p, i)
        assert verify_tangent(prog, p, t) < 1e-9
        # the projection reproduces the requested frame direction exactly
        w = np.linalg.solve(p.U, t.dz)
        expect = np.zeros(2, dtype=complex)
        expect[i // 2] = 1j if i % 2 else 1.0
        assert np.allclose(w, expect, atol=1e-14)


def test_lift_complex_structure_invariance(progs):
    prog = progs["l4_finsler"]
    p = adapted_frame(prog, [0.1, 0.2], [1.0, 0.8])
    w = np.array([0.3 + 0.2j, -0.5])
    lift = horizontal_lift(prog, p, w)
    lift_J = horizontal_lift(prog, p, 1j * w)
    assert np.allclose(lift_J.dz, 1j * lift.dz, atol=1e-14)
    assert np.allclose(lift_J.dU, 1j * lift.dU, atol=1e-14)


def test_uniqueness_perturbation_breaks_tangency(progs):
    prog = progs["poincare_ball_2"]
    p = adapted_frame(prog, [0.2, 0.1], [1.0, 0.3])
    fd = frame_data(prog, p.z, p.U)
    E = fd.E.copy()
    E[1, 0, 0] += 1e-3
    w = np.array([1.0, 0.0])
    M = np.einsum("abg,g->ab", E, w)
    t = AmbientTangent(p.U @ w, p.U @ M)
    assert verify_tangent(prog, p, t) > 1e-5


def test_equivariance_law(progs, entries):
    rng = np.random.default_rng(11)
    for mid in ("poincare_ball_2", "l4_finsler"):
        prog = progs[mid]
        p = adapted_frame(prog, *sample_points(prog, entries[mid], 1, seed=7)[0])
        E = solve_connection(frame_at(prog, p)).E
        for _ in range(10):
            g = _haar_group_element(prog.dim, rng)
            Eg = solve_connection(frame_at(prog, group_act(p, g))).E
            pred = np.einsum("aA,Abc,bB,cC->aBC", np.conj(g).T, E, g, g)
            assert np.max(np.abs(Eg - pred)) < 1e-8


def _chern_oracle(prog, z, Xc, Y, h=1e-6):
    """Coordinate covariant derivative of the Hermitian metric recovered
    from the program, built only from the metric matrix by differences."""
    n = prog.dim

    def g(zz):
        return prog.jet_unchecked(np.asarray(zz, complex),
                                  np.ones(n) + 0.1, 2, 0).fiber_tensor(1, 1)

    z = np.asarray(z, dtype=complex)
    G = g(z)
    DY = (np.asarray(Y(z + h * Xc)) - np.asarray(Y(z - h * Xc))) / (2 * h)
    corr = np.zeros(n, dtype=complex)
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        dGk = ((g(z + e) - g(z - e)) / (2 * h)
               - 1j * (g(z + 1j * e) - g(z - 1j * e)) / (2 * h)) / 2
        A = dGk @ np.linalg.inv(G)
        corr += Xc[k] * (A.T @ np.asarray(Y(z), dtype=complex))
    return DY + corr


def test_covariant_derivative_flat_and_linearity(progs):
    prog = progs["flat_2"]
    p = adapted_frame(prog, [0.1, 0.2], [1.0, 0.5])
    const = lambda z: np.array([0.3, -0.7j])
    assert np.max(np.abs(covariant_derivative(prog, p, [1.0, 0.5j], const))) < 1e-9
    prog = progs["poincare_ball_2"]
    p = adapted_frame(prog, [0.2, 0.1], [1.0, 0.3])
    Y = lambda z: np.array([z[0] ** 2 + 0.3 * z[1], 0.2 * z[0] - z[1] ** 2 + 0.1])
    w = np.array([0.4, -0.2 + 0.1j])
    d1 = covariant_derivative(prog, p, w, Y)
    d2 = covariant_derivative(prog, p, 2.5 * w, Y)
    assert np.allclose(d2, 2.5 * d1, atol=1e-6)


def test_covariant_derivative_matches_chern_oracle(progs):
    for mid, z, v in [("poincare_ball_2", [0.2, 0.1], [1, 0.4]),
                      ("hermitian_nonconstant", [0.3, -0.2], [0.5, 1.0])]:
        prog = progs[mid]
        p = adapted_frame(prog, z, v)
        Y = lambda zz: np.array([zz[0] ** 2 + 0.3 * zz[1] + 0.1,
                                 0.2 * zz[0] - zz[1] ** 2 + 0.4])
        w = np.array([0.3 + 0.1j, -0.2])
        ours = covariant_derivative(prog, p, w, Y)
        oracle = _chern_oracle(prog, z, p.U @ w, Y)
        assert np.max(np.abs(ours - oracle)) < 1e-8


def test_hermitian_connection_is_fiber_independent(progs):
    # asserted through the covariant derivative, which removes the frame
    # dependence of the raw coefficients
    prog = progs["poincare_ball_2"]
    z = [0.2, 0.1]
    Y = lambda zz: np.array([zz[0] ** 2 + 0.3 * zz[1] + 0.1,
                             0.2 * zz[0] - zz[1] ** 2 + 0.4])
    Xc = np.array([0.5, 0.2j])
    rng = np.random.default_rng(12)
    outs = []
    for _ in range(10):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        p = adapted_frame(prog, z, v)
        outs.append(covariant_derivative(prog, p, np.linalg.solve(p.U, Xc), Y))
    spread = max(np.max(np.abs(o - outs[0])) for o in outs)
    assert spread < 1e-8


def test_flat_lift_has_no_vertical_part(progs):
    prog = progs["flat_2"]
    p = adapted_frame(prog, [0.2, 0.3], [1.0, 0.5])
    t = horizontal_lift(prog, p, 0)
    assert np.max(np.abs(t.dU)) < 1e-14
    assert np.allclose(t.dz, p.U[:, 0])


def test_program_freed_without_cycle_collector(entries):
    # frame data points at its program, which holds no cache, so no cycle
    # keeps a program and its points' values waiting for the cyclic collector
    prog = entries["poincare_ball_2"].program()
    ref = weakref.ref(prog)
    gc.disable()
    try:
        p = adapted_frame(prog, [0.1, 0.2j], [1.0, 0.5])
        frame_data(prog, p.z, p.U)
        structure_at(prog, p)
        del prog, p
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("mid", ["l4_finsler", "poincare_ball_3", "hermitian_nonconstant",
                                 "warped"])
def test_frame_derivatives_match_central_differences(progs, entries, warped, mid):
    # along ambient tangents off the bundle too: E, C(2, 0) and C(2, 1) are
    # formulas at any invertible U
    if mid == "warped":
        prog = warped
        p = adapted_frame(prog, [0.3 + 0.1j, -0.2], [1.0, 0.6 + 0.3j])
    else:
        prog = progs[mid]
        p = adapted_frame(prog, *sample_points(prog, entries[mid], 1, seed=5)[0])
    n = prog.dim
    rng = np.random.default_rng(6)
    dz = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    dU = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
    exact = frame_derivatives(frame_data(prog, p.z, p.U), (frame_increments(p.U, dz, dU),))
    h = 1e-5

    def parts(k, t):
        fd = FrameData(prog, p.z + t * dz[k], p.U + t * dU[k])
        return fd.E, fd.C(2, 0), fd.C(2, 1)

    for k in range(len(dz)):
        for got, plus, minus in zip(exact, parts(k, h), parts(k, -h)):
            want = (plus - minus) / (2 * h)
            assert np.max(np.abs(got[k] - want)) <= 1e-7 * max(1.0, np.max(np.abs(want)))


def _check_frame_derivative(prog, p, order):
    """One derivative of the given order of E, C(2, 0) and C(2, 1) along a
    tuple of stacks, off the bundle too, against a central difference of
    the derivative one order below along the same ambient tangents, taken
    at displaced points; at order 4 a stack is passed twice, so that the
    symmetrised placements are checked too."""
    n = prog.dim
    rng = np.random.default_rng(7)

    def stack(K):
        return (rng.standard_normal((K, n)) + 1j * rng.standard_normal((K, n)),
                rng.standard_normal((K, n, n)) + 1j * rng.standard_normal((K, n, n)))

    tangents = [stack(3)] + [stack(2)] * (order - 2)
    last = stack(2)
    fd = frame_data(prog, p.z, p.U)
    incs = {id(t): frame_increments(p.U, *t) for t in tangents}
    exact = frame_derivatives(fd, tuple(incs[id(t)] for t in tangents)
                              + (frame_increments(p.U, *last),))
    # the fourth derivatives difference third ones, whose round-off the
    # step divides, so they take a larger step and a looser bound
    h, tol = (1e-5, 1e-7) if order < 4 else (1e-4, 1e-6)

    def lower(l, t):
        # along the same ambient tangents at the displaced point
        U = p.U + t * last[1][l]
        here = {id(t_): frame_increments(U, *t_) for t_ in tangents}
        return frame_derivatives(FrameData(prog, p.z + t * last[0][l], U),
                                 tuple(here[id(t_)] for t_ in tangents))

    for l in range(2):
        for got, plus, minus in zip(exact, lower(l, h), lower(l, -h)):
            want = (plus - minus) / (2 * h)
            err = np.max(np.abs(np.take(got, l, axis=order - 1) - want))
            assert err <= tol * max(1.0, np.max(np.abs(want))), (order, err)


def _frame_at(progs, entries, warped, mid):
    if mid == "warped":
        return warped, adapted_frame(warped, [0.3 + 0.1j, -0.2], [1.0, 0.6 + 0.3j])
    prog = progs[mid]
    return prog, adapted_frame(prog, *sample_points(prog, entries[mid], 1, seed=5)[0])


@pytest.mark.parametrize("mid", ["l4_finsler", "poincare_ball_3", "hermitian_nonconstant",
                                 "warped"])
def test_frame_second_derivatives_match_central_differences(progs, entries, warped, mid):
    _check_frame_derivative(*_frame_at(progs, entries, warped, mid), 2)


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("mid", ["l4_finsler", "poincare_ball_3", "hermitian_nonconstant",
                                 "warped"])
def test_higher_frame_derivatives_match_central_differences(progs, entries, warped, mid, order):
    _check_frame_derivative(*_frame_at(progs, entries, warped, mid), order)
