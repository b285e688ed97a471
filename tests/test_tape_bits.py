"""The tape run on coefficient arrays (MetricProgram.jet_unchecked) against
the reference evaluator of tests/oracles.py, which runs one jet object per
tape entry over the whole table: every coefficient bit for bit, and the
same EvaluationError with the same message."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NEAR_DEGENERATE
from finslerlab import EvaluationError, MetricProgram, MetricSource, parse_metric
from finslerlab.frame_bundle import adapted_frame
from finslerlab.registry import sample_points
from oracles import reference_jet
from test_frame_seeding import FRAME_JET_ORDERS

ORDERS = FRAME_JET_ORDERS + ((2, 0), (3, 0), (5, 0))
NON_FINITE = "jet coefficients are non-finite (pole of the expression)"


def outcome(evaluate, prog, z, v, orders, frame):
    """The coefficients' bytes, or the message of the EvaluationError."""
    try:
        with np.errstate(all="ignore"):  # as the CLI runs
            return evaluate(prog, z, v, *orders, frame).c.tobytes()
    except EvaluationError as exc:
        return str(exc)


def assert_same(prog, z, v, orders, frame=None):
    got = outcome(MetricProgram.jet_unchecked, prog, z, v, orders, frame)
    want = outcome(reference_jet, prog, z, v, orders, frame)
    assert got == want, (orders, frame is not None)
    return got


def _metrics(progs, entries, warped, twisted):
    """(program, entry or None) of the catalog, warped, twisted and the
    near-degenerate metrics."""
    out = [(progs[mid], entries[mid]) for mid in sorted(progs)]
    out += [(warped, None), (twisted, None)]
    out += [(parse_metric(MetricSource(2, f2)), None) for f2 in NEAR_DEGENERATE.values()]
    return out


def test_catalog_jets_are_the_reference_bit_for_bit(progs, entries, warped, twisted):
    for prog, entry in _metrics(progs, entries, warped, twisted):
        n = prog.dim
        if entry is None:
            z, v = np.array([0.3 + 0.1j, -0.2])[:n], np.array([1.0, 0.6 + 0.3j])[:n]
        else:
            z, v = sample_points(prog, entry, 1, seed=3)[0]
        U = adapted_frame(prog, z, v).U
        for orders in ORDERS:
            assert isinstance(assert_same(prog, z, v, orders), bytes)
            assert isinstance(assert_same(prog, z, U[:, 0], orders, U), bytes)


# subexpressions of the v leaves alone, of the z leaves alone, and of both
NUMBERS = st.sampled_from(["0.5", "2", "1.25", "3", "0.75", "1e-3"])


def _expressions(leaves):
    def grow(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, st.integers(0, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda e: f"(-({e}))^1"),
            inner.map(lambda e: f"-({e})"),
            st.tuples(st.sampled_from(["conj", "re", "im", "abs2", "sqrt"]), inner)
            .map(lambda t: f"{t[0]}({t[1]})"),
        )

    return st.recursive(leaves, grow, max_leaves=6)


@st.composite
def tapes(draw):
    n = draw(st.integers(1, 2))
    names = [f"{k}{j}" for k in "vz" for j in range(1, n + 1)]
    v_only = _expressions(st.one_of(NUMBERS, st.sampled_from(names[:n])))
    z_only = _expressions(st.one_of(NUMBERS, st.sampled_from(names[n:])))
    mixed = _expressions(st.one_of(v_only, z_only, st.sampled_from(names)))
    return n, draw(st.tuples(v_only, z_only, mixed).map(lambda t: f"{t[0]} * {t[1]} + {t[2]}"))


POINT = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tapes(), st.lists(POINT, min_size=4, max_size=4), st.sampled_from(ORDERS),
       st.one_of(st.none(), st.integers(0, 2 ** 16)))
def test_drawn_tapes_are_the_reference_bit_for_bit(tape, coords, orders, frame_seed):
    n, f2 = tape
    prog = parse_metric(MetricSource(n, f2))
    z, v = np.array(coords[:n]), np.array(coords[2:2 + n]) + 0.1
    frame = None
    if frame_seed is not None:
        rng = np.random.default_rng(frame_seed)
        frame = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v = frame[:, 0]
    assert_same(prog, z, v, orders, frame)


@pytest.mark.parametrize("f2", [
    # a constant's other coefficients are -0.0 after a negation, (0, -0.0)
    # after a conjugation, and meet the -0.0 of a negated jet
    "-abs2(z1) + -abs2(v1)",
    "-(conj(z1)) - abs2(v1) + (-im(z1) + -(v1*conj(v1)))",
    "-(-(z1))^1 + -abs2(v1) + re(-z1) + -re(v1*z1)",
    # a product of constants with an inf is nan off slot 0 in the table,
    # and non-finite at slot 0 too, so the jet is non-finite either way
    "abs2(v1)/(1e200*1e200*2 + abs2(v1))",
    "abs2(v1)*(1/(1e200*1e200*z1))",
    "abs2(v1)*sqrt(1e200*1e200*2) + abs2(v1)",
    # a product of finite constants is +0.0 off slot 0, even when slot 0
    # overflows, so its reciprocal is finite
    "abs2(v1)*(1/(1e200*1e200)) + abs2(v1)",
    "abs2(v1)*(1/(1e200*1e200) + 2)^3 + (abs2(z1) - 1e300*1e300)^0",
])
@pytest.mark.parametrize("orders", [(2, 0), (3, 0), (5, 0), (4, 1)])
@pytest.mark.parametrize("frame", [None, np.array([[0.6 - 0.8j]])])
def test_constants_are_the_reference_bit_for_bit(f2, orders, frame):
    prog = parse_metric(MetricSource(1, f2))
    v = [0.7 + 0.2j] if frame is None else frame[:, 0]
    assert_same(prog, [0.3 - 0.4j], v, orders, frame)


@pytest.mark.parametrize("f2, z, v, message", [
    ("abs2(v1)", [0.5], [0.0], "jets are undefined at v = 0"),
    # a z-only denominator is a constant at base order 0, with an exact pole
    ("abs2(v1)/(abs2(z1) - 0.25)", [0.5], [1.0], "division by an expression vanishing"),
    ("abs2(v1)*sqrt(abs2(z1) - 0.25)", [0.5], [1.0], "sqrt at a zero of its argument"),
    ("abs2(v1)*(1e200*1e200)", [0.5], [1.0], re.escape(NON_FINITE)),
])
@pytest.mark.parametrize("orders", [(2, 0), (4, 1), (5, 0), (2, 2)])
def test_errors_are_the_reference_errors(f2, z, v, message, orders):
    prog = parse_metric(MetricSource(1, f2))
    got = assert_same(prog, z, v, orders)
    assert re.match(message, got), got


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(np.inf, np.nan)])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_non_finite_coefficient_raises(monkeypatch, bad, where):
    # the one-call check of the jet's coefficients misses none of them
    run = MetricProgram._run_jet

    def spoiled(self, space, *args):
        c = run(self, space, *args)
        c[{"first": 0, "middle": space.size // 2, "last": space.size - 1}[where]] = bad
        return c

    monkeypatch.setattr(MetricProgram, "_run_jet", spoiled)
    prog = parse_metric(MetricSource(2, "abs2(v1)*(2 + abs2(z1)) + abs2(v2)"))
    for orders in ((2, 0), (4, 1), (5, 2)):
        with pytest.raises(EvaluationError) as err:
            prog.jet_unchecked([0.1, 0.2j], [0.5, 1.0], *orders)
        assert str(err.value) == NON_FINITE


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(np.inf, np.nan),
                                 np.complex128(complex(np.nan, 1.0)), complex(1.0, -np.inf),
                                 np.complex128(complex(0.0, np.nan))])
def test_a_non_finite_value_raises(monkeypatch, bad):
    prog = parse_metric(MetricSource(1, "abs2(v1)"))
    monkeypatch.setattr(prog, "_run", lambda ops, leaf: bad)
    with pytest.raises(EvaluationError) as err:
        prog.eval_complex([0.1], [0.5])
    assert str(err.value) == "metric expression evaluated to a non-finite value"
    monkeypatch.setattr(prog, "_run", lambda ops, leaf: complex(1e308, -1e308))
    assert prog.eval_complex([0.1], [0.5]) == complex(1e308, -1e308)
