"""Jets seeded in a frame: z + U zeta and U (e_0 + xi) with the conjugate
seeds from JetSpace.conj.  Their partials are the coordinate partials contracted
with the frame, and U = I is the coordinate jet, bit for bit."""

from itertools import combinations_with_replacement

import numpy as np
import pytest

from finslerlab.frame_bundle import adapted_frame
from finslerlab import metric_dsl
from finslerlab.jets import TOTAL_DEGREE_CAP, V, VBAR, Z, ZBAR, Jet, JetSpace, jet_space
from finslerlab.registry import sample_points

from oracles import JET_OPS, const, exponents, frame_contract, run_tape

# the (fiber, base) orders of the jets a FrameData evaluates
FRAME_JET_ORDERS = ((4, 1), (2, 2), (5, 2), (2, 3), (6, 3), (2, 4), (7, 4), (2, 5))
METRICS = ["poincare_disc", "l4_finsler", "hermitian_nonconstant", "poincare_ball_3", "warped"]


def _point(progs, entries, warped, mid):
    if mid == "warped":
        return warped, [0.3 + 0.1j, -0.2], [1.0, 0.6 + 0.3j]
    prog = progs[mid]
    return (prog, *sample_points(prog, entries[mid], 1, seed=3)[0])


def _reads(fiber_order: int, base_order: int):
    """Every (p, q, kinds) a jet of these orders holds, with up to five
    derivative kinds (Dh's d_zeta and four more), within its total-degree
    cap: a superset of the reads of the package
    (test_reads_of_the_package_lie_in_the_tables)."""
    total = TOTAL_DEGREE_CAP.get((fiber_order, base_order), fiber_order + base_order)
    for p in range(fiber_order + 1):
        for q in range(fiber_order + 1 - p):
            for m in range(6):
                for kinds in combinations_with_replacement((Z, ZBAR, V, VBAR), m):
                    fiber = p + q + sum(k in (V, VBAR) for k in kinds)
                    if fiber <= fiber_order and len(kinds) - (fiber - p - q) <= base_order \
                            and p + q + len(kinds) <= total:
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
                # the oracle's round-off grows with the axes it contracts
                # with the tilted U; only the jet(7, 4) has seven
                bound = 1e-13 if p + q + len(kinds) <= 6 else 3e-13
                assert err <= bound, (orders, p, q, kinds, err)


@pytest.mark.parametrize("mid", METRICS)
def test_capped_jets_hold_the_uncapped_values(progs, entries, warped, mid, monkeypatch):
    # a jet truncated by total degree holds, at each monomial it keeps, the
    # coefficient of the jet without that truncation, bit for bit
    prog, z, v = _point(progs, entries, warped, mid)
    U = adapted_frame(prog, z, v).U
    capped = {orders: prog.jet_unchecked(z, U[:, 0], *orders, U) for orders in TOTAL_DEGREE_CAP}
    for orders in capped:
        monkeypatch.delitem(TOTAL_DEGREE_CAP, orders)
    monkeypatch.setattr(metric_dsl, "jet_space", JetSpace)  # uncapped tables, not memoized
    for orders, jet in capped.items():
        full = prog.jet_unchecked(z, U[:, 0], *orders, U)
        assert full.space.size > jet.space.size
        assert np.array_equal(jet.c, full.c[full.space.slots(exponents(jet.space))]), orders


def _seeded_as_coordinates(prog, z, v, fiber_order, base_order):
    """The coordinate jet with each leaf seeded by hand: value + x_k, the
    unit coefficient at the first-order slot of its own variable."""
    space = jet_space(prog.dim, fiber_order, base_order)

    def leaf(entry):
        if entry[0] == "num":
            return const(space, entry[1])
        _, kind, k = entry
        jet = const(space, (v if kind == V else z)[k])
        e = [0] * (4 * prog.dim)
        e[kind * prog.dim + k] = 1
        try:
            jet.c[space.slots(e)] = 1.0
        except KeyError:  # a table with no first-order slot of this kind
            pass
        return jet

    return run_tape(prog, JET_OPS, leaf)


@pytest.mark.parametrize("mid", METRICS + ["flat_3", "fubini_study_2"])
def test_identity_frame_is_the_coordinate_jet(progs, entries, warped, mid):
    prog, z, v = _point(progs, entries, warped, mid)
    for orders in ((2, 0), (3, 0), (5, 0), (4, 1), (2, 2)):
        want = _seeded_as_coordinates(prog, z, v, *orders).c
        assert np.array_equal(prog.jet_unchecked(z, v, *orders).c, want), orders
        assert np.array_equal(prog.jet_unchecked(z, v, *orders, np.eye(prog.dim)).c, want)


@pytest.mark.parametrize("argv", [
    ["structure", "--metric", "poincare_ball_3", "--samples", "1", "--seed", "1"],
    ["structure", "--metric", "hermitian_nonconstant", "--samples", "1", "--seed", "1"],
    ["check", "--metric", "l4_finsler", "--samples", "2", "--seed", "1"],
    ["classify", "--metric", "poincare_ball_2", "--samples", "2", "--seed", "1"],
    ["compare", "--metric-a", "l4_finsler", "--metric-b", "l4_finsler", "--order", "1",
     "--at-a", "z=0.1,0.2;v=1,0.8", "--at-b", "z=0.3,-0.1;v=1,0.5"],
    ["geodesic", "--metric", "poincare_disc", "--from", "0.1", "--dir", "1",
     "--t-max", "0.02", "--dt", "0.01"],
    ["compare", "--metric-a", "l4_finsler", "--metric-b", "l4_finsler", "--order", "2",
     "--at-a", "z=0.1,0.2;v=1,0.8", "--at-b", "z=0.3,-0.1;v=1,0.5"],
    ["compare", "--metric-a", "hermitian_nonconstant", "--metric-b", "hermitian_nonconstant",
     "--order", "1", "--at-a", "z=0.1,0.2;v=1,0.5", "--at-b", "z=0.1,-0.4;v=1,0.5"],
])
def test_reads_of_the_package_lie_in_the_tables(capsys, monkeypatch, argv):
    # every tensor a report reads off a jet is among the _reads of the jet's
    # orders, which the total-degree cap bounds
    from finslerlab.cli import main

    seen = set()
    partials = Jet.partials

    def recorded(self, p, q, kinds=()):
        seen.add(((self.space.fiber_order, self.space.base_order), p, q, tuple(kinds)))
        return partials(self, p, q, kinds)

    monkeypatch.setattr(Jet, "partials", recorded)
    assert main(argv) == 0
    capsys.readouterr()
    assert seen
    for orders, p, q, kinds in seen:
        # _reads lists each multiset of kinds once, in one order
        held = {(p, q, tuple(sorted(k))) for p, q, k in _reads(*orders)}
        assert (p, q, tuple(sorted(kinds))) in held, (orders, p, q, kinds)
