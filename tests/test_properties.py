"""Property tests of the error contract: the DSL raises only FinslerError
subclasses on any expression of the README grammar, and the CLI commands
exit 0, 1, 2 or 3 without a traceback on any fuzzed argv, with a report
that is strict JSON on exits 0 and 1: the cheap commands over many
examples, structure, classify, check and compare, which cost more, over
few."""

import contextlib
import io
import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from finslerlab import MetricSource, parse_metric
from finslerlab.cli import main
from finslerlab.metric_dsl import FinslerError

DIM = 2
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

# the README grammar: expr, term, factor and atom, with identifiers that may
# exceed the chart dimension and numbers as the tokenizer reads them
numbers = st.sampled_from(["0", "1", "2", "0.5", ".25", "3e2", "1e-3", "1e308", "7"])
idents = st.sampled_from(["z1", "z2", "v1", "v2", "z3", "v3"])
funcs = st.sampled_from(["conj", "re", "im", "abs2", "sqrt"])


def _expr(atom):
    """expr := term (('+'|'-') term)*, term := factor (('*'|'/') factor)*
    and factor := atom ('^' integer)?, over the given atoms."""

    def chain(part, ops):
        return st.tuples(part, st.lists(st.tuples(st.sampled_from(ops), part), max_size=2)).map(
            lambda t: t[0] + "".join(f" {op} {x}" for op, x in t[1]))

    factor = st.tuples(atom, st.none() | st.integers(0, 12)).map(
        lambda t: t[0] if t[1] is None else f"{t[0]}^{t[1]}")
    return chain(chain(factor, "*/"), "+-")


expressions = st.recursive(
    numbers | idents,
    lambda inner: st.one_of(
        st.tuples(funcs, _expr(inner)).map(lambda t: f"{t[0]}({t[1]})"),
        _expr(inner).map(lambda e: f"({e})"),
        inner.map(lambda a: f"-{a}")),
    max_leaves=8)
points = st.lists(st.sampled_from([0.0, 0.3, -0.5 + 0.2j, 1.0, 2j, 1e200]),
                  min_size=DIM, max_size=DIM)


@SETTINGS
@given(expressions, points, points)
@example("3e2^125", [0.3, 0.0], [1.0, 0.0])  # complex ** int overflows with an exception
def test_dsl_raises_only_finsler_errors(expr, z, v):
    with np.errstate(all="ignore"):  # overflow is a FinslerError, not a warning
        try:
            prog = parse_metric(MetricSource(DIM, expr))
            prog.eval(z, v)
        except FinslerError:
            return
        for orders in ((2, 0), (4, 1)):
            try:
                prog.jet(z, v, *orders)
            except FinslerError:
                pass


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.text())
@example("abs2(v1)\u00b2")  # a superscript two, which str.isdigit takes for a digit
@example("abs2(v\u0661)")  # an Arabic-Indic one, which int() reads as 1
def test_dsl_reads_any_text_or_raises_finsler_error(text):
    # the front end raises nothing but a FinslerError on any text, and what
    # it compiles is ASCII apart from whitespace
    try:
        parse_metric(MetricSource(DIM, text))
    except FinslerError:
        return
    assert all(c.isascii() or c.isspace() for c in text), text


# -- fuzzed argv -----------------------------------------------------------------

metrics = st.sampled_from(["poincare_disc", "poincare_ball_2", "flat_1", "l4_finsler",
                           "fubini_study_1"])
components = st.sampled_from(["0", "0.2", "-0.3+0.1i", "1", "2", "1i", "0.99", "x", "nan"])
lists = st.lists(components, min_size=1, max_size=3).map(",".join)
at_values = st.tuples(lists, lists).map(lambda t: f"z={t[0]};v={t[1]}")


def _samples_or_point(draw):
    if draw(st.booleans()):
        return ["--at", draw(at_values)]
    return ["--samples", draw(st.sampled_from(["1", "2", "0"])),
            "--seed", draw(st.sampled_from(["0", "3"]))]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["tensors", "connection", "geodesic"]))
    argv = [command, "--metric", draw(metrics)]
    if command == "geodesic":
        argv += ["--from", draw(lists), "--dir", draw(lists),
                 "--t-max", draw(st.sampled_from(["0", "0.01", "0.02", "-1"])),
                 "--dt", draw(st.sampled_from(["0.01", "0.005", "0"]))]
    else:
        argv += _samples_or_point(draw)
    return argv


@st.composite
def report_argvs(draw):
    return [draw(st.sampled_from(["structure", "classify"])), "--metric", draw(metrics),
            *_samples_or_point(draw)]


@st.composite
def check_argvs(draw):
    return ["check", "--metric", draw(metrics), *_samples_or_point(draw),
            "--tol", draw(st.sampled_from(["1", "1e-9", "1e-30", "-1"]))]


@st.composite
def compare_argvs(draw):
    return ["compare", "--metric-a", draw(metrics), "--metric-b", draw(metrics),
            "--at-a", draw(at_values), "--at-b", draw(at_values),
            "--order", draw(st.sampled_from(["0", "1", "2", "3"])),
            "--fiber-samples", draw(st.sampled_from(["0", "2"]))]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def assert_contract(argv):
    """main(argv) exits 0-3 with no traceback, with a usage message on exit 2
    and otherwise nothing on stderr but one JSON diagnostic; on exits 0 and
    1 stdout is one report in strict JSON (no NaN or Infinity)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, code, err)
    if code == 2:
        assert "usage:" in err, (argv, err)
    else:
        assert not err or isinstance(json.loads(err), dict), (argv, err)
    if code in (0, 1):
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert isinstance(report, dict), (argv, report)


@SETTINGS
@given(argvs())
def test_cli_contract_under_fuzzed_argv(argv):
    assert_contract(argv)


@settings(SETTINGS, max_examples=10)
@given(report_argvs())
def test_report_contract_under_fuzzed_argv(argv):
    assert_contract(argv)


@settings(SETTINGS, max_examples=10)
@given(check_argvs())
def test_check_contract_under_fuzzed_argv(argv):
    assert_contract(argv)


@settings(SETTINGS, max_examples=10)
@given(compare_argvs())
@example(["compare", "--metric-a", "poincare_disc", "--metric-b", "poincare_ball_2",
          "--at-a", "z=0;v=1", "--at-b", "z=0,0;v=1,0"])  # chart dimensions differ
@example(["compare", "--metric-a", "poincare_ball_2", "--metric-b", "l4_finsler",
          "--at-a", "z=0.99,0;v=1,1i", "--at-b", "z=0.2,-0.3+0.1i;v=1,0.2", "--order", "2"])
def test_compare_contract_under_fuzzed_argv(argv):
    assert_contract(argv)
