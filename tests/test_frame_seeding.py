"""Jets seeded in a frame: z + U zeta and U (e_0 + xi) with the conjugate
seeds from Jet.conj.  Their partials are the coordinate partials contracted
with the frame, and U = I is the coordinate jet, bit for bit."""

from itertools import combinations_with_replacement

import numpy as np
import pytest

from finslerlab.frame_bundle import adapted_frame
from finslerlab.jets import V, VBAR, Z, ZBAR, jet_space
from finslerlab.metric_dsl import _JET_OPS
from finslerlab.registry import sample_points

from oracles import frame_contract

# the (fiber, base) orders of the jets a FrameData evaluates
FRAME_JET_ORDERS = ((4, 1), (2, 2), (5, 2), (2, 3))
METRICS = ["poincare_disc", "l4_finsler", "hermitian_nonconstant", "poincare_ball_3", "warped"]


def _point(progs, entries, warped, mid):
    if mid == "warped":
        return warped, [0.3 + 0.1j, -0.2], [1.0, 0.6 + 0.3j]
    prog = progs[mid]
    return (prog, *sample_points(prog, entries[mid], 1, seed=3)[0])


def _reads(fiber_order: int, base_order: int):
    """Every (p, q, kinds) a jet of these orders holds, with up to three
    derivative kinds: a superset of the reads of the package."""
    for p in range(fiber_order + 1):
        for q in range(fiber_order + 1 - p):
            for m in range(4):
                for kinds in combinations_with_replacement((Z, ZBAR, V, VBAR), m):
                    fiber = p + q + sum(k in (V, VBAR) for k in kinds)
                    if fiber <= fiber_order and len(kinds) - (fiber - p - q) <= base_order:
                        yield p, q, kinds


@pytest.mark.parametrize("mid", METRICS)
def test_frame_seeded_partials_are_frame_contractions(progs, entries, warped, mid):
    prog, z, v = _point(progs, entries, warped, mid)
    n = prog.dim
    U0 = adapted_frame(prog, z, v).U
    rng = np.random.default_rng(16)
    tilt = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for U in (U0, U0 + 0.3 * tilt):  # an adapted frame, then a tilted, non-unitary U
        for orders in FRAME_JET_ORDERS:
            framed = prog.jet_unchecked(z, U[:, 0], *orders, U)
            coord = prog.jet_unchecked(z, U[:, 0], *orders)
            for p, q, kinds in _reads(*orders):
                got = framed.partials(p, q, kinds)
                want = frame_contract(coord.partials(p, q, kinds), p, q, U, kinds)
                err = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
                assert err <= 1e-13, (orders, p, q, kinds, err)


def _seeded_as_coordinates(prog, z, v, fiber_order, base_order):
    """The coordinate jet with each leaf seeded by hand: value + x_k, the
    unit coefficient at the first-order slot of its own variable."""
    space = jet_space(prog.dim, fiber_order, base_order)

    def leaf(entry):
        if entry[0] == "num":
            return space.const(entry[1])
        _, kind, k = entry
        jet = space.const((v if kind == V else z)[k])
        e = [0] * (4 * prog.dim)
        e[kind * prog.dim + k] = 1
        slot = space.index.get(tuple(e))
        if slot is not None:
            jet.c[slot] = 1.0
        return jet

    return prog._run(_JET_OPS, leaf)


@pytest.mark.parametrize("mid", METRICS + ["flat_3", "fubini_study_2"])
def test_identity_frame_is_the_coordinate_jet(progs, entries, warped, mid):
    prog, z, v = _point(progs, entries, warped, mid)
    for orders in ((2, 0), (3, 0), (5, 0), (4, 1), (2, 2)):
        want = _seeded_as_coordinates(prog, z, v, *orders).c
        assert np.array_equal(prog.jet_unchecked(z, v, *orders).c, want), orders
        assert np.array_equal(prog.jet_unchecked(z, v, *orders, np.eye(prog.dim)).c, want)
