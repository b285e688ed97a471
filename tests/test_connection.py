import gc
import weakref

import numpy as np
import pytest

from finslerlab.connection import (
    covariant_derivative,
    frame_data,
    horizontal_lift,
    solve_connection,
)
from finslerlab.frame_bundle import (
    AmbientTangent,
    adapted_frame,
    group_act,
    verify_tangent,
)
from finslerlab.equivalence import _haar_group_element
from finslerlab.parallelism import extract_structure
from finslerlab.registry import sample_points


def test_flat_connection_vanishes(progs):
    prog = progs["flat_2"]
    p = adapted_frame(prog, [0.3, -0.2], [1.0, 0.5j])
    cm = solve_connection(prog, p)
    assert np.max(np.abs(cm.E)) < 1e-14


def test_disc_connection_value(progs):
    # one-dimensional Kaehler oracle: the correction along the unit frame
    # vector u is -2 u zbar / (1 - |z|^2)
    prog = progs["poincare_disc"]
    z = 0.5
    p = adapted_frame(prog, [z], [1.0])
    u = p.U[0, 0]
    oracle = -2 * u * np.conj(z) / (1 - abs(z) ** 2)
    cm = solve_connection(prog, p)
    assert cm.E[0, 0, 0] == pytest.approx(oracle, abs=1e-12)
    assert cm.E[0, 0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_closed_form_agrees_with_solve(progs, entries):
    for mid in ("poincare_ball_2", "l4_finsler", "fubini_study_2"):
        prog = progs[mid]
        for z, v in sample_points(prog, entries[mid], 5, seed=3):
            p = adapted_frame(prog, z, v)
            cm = solve_connection(prog, p)
            assert cm.closed_form_gap < 1e-8
            assert cm.min_singular_ratio > 1e-6


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
        E = solve_connection(prog, p).E
        for _ in range(10):
            g = _haar_group_element(prog.dim, rng)
            Eg = solve_connection(prog, group_act(p, g)).E
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
    # frame data cached on a program must not point back at it, or every
    # program and its caches would wait for the cyclic garbage collector
    prog = entries["poincare_ball_2"].program()
    ref = weakref.ref(prog)
    gc.disable()
    try:
        p = adapted_frame(prog, [0.1, 0.2j], [1.0, 0.5])
        frame_data(prog, p.z, p.U)
        extract_structure(prog, p)
        del prog, p
        assert ref() is None
    finally:
        gc.enable()
