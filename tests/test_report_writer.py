"""The CLI's JSON writer, cli._json_text, against the reference it replaced:
json.dumps(indent=2, sort_keys=True) of the report made plain
(oracles.report_json), compared byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from finslerlab import cli
from oracles import report_json

ROADMAP_POINT = "z=0.1+0.2i,0.05-0.1i,0.2i;v=0.5,0.3+0.2i,-0.4i"


@pytest.fixture
def written(monkeypatch):
    """The (object, text) of every call of the writer while a test runs."""
    calls = []
    write = cli._json_text

    def spy(obj):
        text = write(obj)
        calls.append((obj, text))
        return text

    monkeypatch.setattr(cli, "_json_text", spy)
    return calls


def _commands(tmp):
    out = str(tmp / "out")
    return [
        ["list-metrics"],
        ["check", "--metric", "l4_finsler", "--samples", "2", "--seed", "1"],
        ["tensors", "--metric", "l4_finsler", "--samples", "1", "--seed", "1"],
        ["connection", "--metric", "poincare_ball_2", "--samples", "1", "--seed", "1"],
        ["structure", "--metric", "poincare_ball_3", "--at", ROADMAP_POINT],
        ["classify", "--metric", "hermitian_nonconstant", "--samples", "2", "--seed", "1"],
        ["geodesic", "--metric", "poincare_disc", "--from", "0", "--dir", "1",
         "--t-max", "0.02", "--dt", "0.01"],
        ["geodesic", "--metric", "poincare_ball_2", "--from", "0,0.1i", "--dir", "1,0.5",
         "--t-max", "0.02", "--dt", "0.01", "--csv", out + ".csv", "--svg", out + ".svg",
         "--json", out + ".json"],
        ["compare", "--metric-a", "poincare_ball_2", "--metric-b", "fubini_study_2",
         "--at-a", "z=0.1+0.2i,0.3i;v=1,0.5", "--at-b", "z=-0.2,0.1+0.1i;v=0.3,1i",
         "--order", "1"],
        # the differ report across chart dimensions, whose distance is null
        ["compare", "--metric-a", "poincare_ball_2", "--metric-b", "poincare_ball_3",
         "--at-a", "z=0.1,0.2;v=1,0.5", "--at-b", "z=0,0.1i,0.2;v=1,0,0.5"],
    ]


@pytest.mark.parametrize("index", range(10), ids=[
    "list-metrics", "check", "tensors", "connection", "structure", "classify", "geodesic",
    "geodesic-csv-svg-json", "compare", "compare-dimensions"])
def test_every_command_writes_the_reference_bytes(index, tmp_path, capsys, written):
    argv = _commands(tmp_path)[index]
    assert cli.main(argv) == 0
    ((report, text),) = written
    assert text == report_json(report)
    assert capsys.readouterr().out == text + "\n"
    if "--json" in argv:
        assert (tmp_path / "out.json").read_text(encoding="utf-8") == text + "\n"


@pytest.mark.parametrize("metric", ["no_such_métrique_ü", "nothing here"])
def test_error_diagnostic_writes_the_reference_bytes(metric, capsys, written):
    # the FinslerError diagnostic on stderr, non-ASCII text escaped
    assert cli.main(["structure", "--metric", metric]) == 3
    ((diag, text),) = written
    assert diag == {"error": f"metric {metric!r} is neither a catalog id nor a file",
                    "type": "FinslerError", "command": "structure"}
    err = capsys.readouterr().err
    assert err == report_json(diag) + "\n"
    assert err.isascii()


# -- drawn objects ---------------------------------------------------------------

FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS,
                   st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                                    math.nan, math.inf, -math.inf]),
                   st.text(), st.sampled_from(["ü", "\x00\x1f\x7f", " ", "😀", '"\\/']))
KEYS = st.one_of(st.text(), st.integers(), FLOATS, st.booleans(), st.none(),
                 st.tuples(st.integers(), st.text()))


def _containers(inner):
    return st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                     st.dictionaries(KEYS, inner, max_size=4))


NESTED = st.recursive(LEAVES, _containers, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(NESTED)
def test_drawn_objects_write_the_reference_bytes(obj):
    assert cli._json_text(obj) == report_json(obj)


def _array(kind):
    dtype = {"complex": np.complex128, "float": np.float64, "int": np.int64,
             "bool": np.bool_}[kind]
    elements = {"int": st.integers(-2**63, 2**63 - 1)}.get(kind)
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
                      elements=elements)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["complex", "float", "int", "bool"]).flatmap(_array), NESTED)
def test_drawn_arrays_write_the_reference_bytes(a, other):
    if a.dtype.kind == "c" and a.ndim == 0:
        # the reference cannot iterate a 0-d complex array: it is the number
        assert cli._json_text(a) == report_json(complex(a))
        return
    # at the top and nested, where its indentation differs
    assert cli._json_text(a) == report_json(a)
    obj = {"a": [a, {"b": a, 1: other}], "c": a}
    assert cli._json_text(obj) == report_json(obj)


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.complex128, hnp.array_shapes(min_dims=2, max_dims=3, min_side=2,
                                                  max_side=4)))
def test_non_contiguous_complex_arrays(a):
    for view in (a.T, a[::-1], a[..., ::2], np.swapaxes(a, 0, -1)[1:]):
        assert not view.flags.c_contiguous
        assert cli._json_text({"x": view}) == report_json({"x": view})


def test_numpy_scalars_and_plain_arrays():
    cases = [np.float64(0.1), np.float32(0.1), np.float16(-0.0), np.int32(-7),
             np.uint8(255), np.int64(2**62), np.bool_(True), np.bool_(False),
             np.complex128(1 - 2j), np.complex64(0.5 + 0.25j), np.float64(np.nan),
             np.float64(-np.inf), complex(np.inf, np.nan),
             np.zeros((0,)), np.zeros((3, 0)), np.zeros((0, 3), dtype=complex),
             np.zeros((2, 0, 2), dtype=complex), np.array(2.5), np.array(3), np.array(True),
             np.array([[1.0, np.nan], [np.inf, -np.inf]]),
             np.array([1 + np.nan * 1j, -0.0 - 0.0j]), np.eye(3, dtype=bool),
             np.arange(6, dtype=np.uint16).reshape(2, 3), np.array(["a", "ü"]),
             {"": [], "k": {}, "e": np.zeros(0)}]
    for obj in cases:
        assert cli._json_text(obj) == report_json(obj), obj
        assert cli._json_text([obj, {"v": obj}]) == report_json([obj, {"v": obj}]), obj


def test_unserializable_object_is_a_type_error():
    with pytest.raises(TypeError, match="set"):
        cli._json_text({"a": {1, 2}})
