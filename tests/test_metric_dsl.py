import numpy as np
import pytest

from finslerlab import (
    EvaluationError,
    FinslerError,
    MetricSource,
    MetricSyntaxError,
    load_metric,
    parse_metric,
)
from finslerlab.metric_dsl import _tokenize
from oracles import derivative, fd_derivative


def test_poincare_disc_value_at_origin():
    prog = parse_metric(MetricSource(1, "abs2(v1)/(1 - abs2(z1))^2"))
    assert prog.eval([0], [1]) == pytest.approx(1.0)
    # direct arithmetic oracle away from the origin
    z, v = 0.5, 0.25 + 0.1j
    assert prog.eval([z], [v]) == pytest.approx(abs(v) ** 2 / (1 - abs(z) ** 2) ** 2)


def test_flat_metric_is_euclidean():
    prog = parse_metric(MetricSource(2, "abs2(v1)+abs2(v2)"))
    v = np.array([3.0, 4.0j])
    assert prog.norm([0, 0], v) == pytest.approx(5.0)


def test_quartic_norm_homogeneity_brute_force():
    prog = parse_metric(MetricSource(2, "sqrt(abs2(v1)^2 + abs2(v2)^2)"))
    rng = np.random.default_rng(0)
    for _ in range(100):
        lam = rng.standard_normal() + 1j * rng.standard_normal()
        if abs(lam) < 1e-3:
            continue
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f = prog.norm([0, 0], v)
        assert abs(prog.norm([0, 0], lam * v) - abs(lam) * f) < 1e-10 * f


def test_syntax_error_carries_position():
    with pytest.raises(MetricSyntaxError) as err:
        parse_metric(MetricSource(1, "abs2(v1"))
    assert "column" in str(err.value)


def test_unknown_identifier():
    with pytest.raises(MetricSyntaxError, match="unknown identifier"):
        parse_metric(MetricSource(1, "abs2(w1)"))


def test_dimension_mismatch():
    with pytest.raises(MetricSyntaxError, match="exceeds chart dimension"):
        parse_metric(MetricSource(2, "abs2(v3)"))


def test_compilation_deterministic():
    src = MetricSource(2, "sqrt(abs2(v1)^2 + abs2(v2)^2)")
    a, b = parse_metric(src), parse_metric(src)
    z = [0.13 + 0.21j, -0.4]
    v = [1.0, 0.7 - 0.3j]
    assert a.eval(z, v) == b.eval(z, v)
    ja = a.jet(z, v, 4, 1)
    jb = b.jet(z, v, 4, 1)
    assert np.array_equal(ja.c, jb.c)


def test_metric_file_roundtrip(tmp_path):
    path = tmp_path / "disc.fm"
    path.write_text("dim = 1\nF2 = abs2(v1)/(1 - abs2(z1))^2\n")
    prog = load_metric(path)
    assert prog.dim == 1
    assert prog.eval([0.3], [1.0]) == pytest.approx(1 / (1 - 0.09) ** 2)


def test_metric_file_expression_runs_to_the_end(tmp_path):
    # the expression continues past its first line, and a stray line after it
    # is part of the expression, so a syntax error
    path = tmp_path / "disc.fm"
    path.write_text("\n  dim = 1\n\nF2 = abs2(v1)\n   / (1 - abs2(z1))^2\n\n")
    assert load_metric(path).eval([0.3], [1.0]) == pytest.approx(1 / (1 - 0.09) ** 2)
    path.write_text("dim = 1\nF2 = abs2(v1)\nextra = 3\n")
    with pytest.raises(MetricSyntaxError, match="unexpected character '='") as err:
        load_metric(path)
    assert (err.value.line, err.value.column) == (3, 7)
    path.write_text("dim = 1\nF2 = abs2(v1)\nabs2(z1)\n")
    with pytest.raises(MetricSyntaxError, match="trailing input 'abs2'") as err:
        load_metric(path)
    assert (err.value.line, err.value.column) == (3, 1)
    # on the F2 line itself the column counts from the start of the line
    path.write_text("\n  dim = 1\n\nF2 =  abs2(v1) $\n")
    with pytest.raises(MetricSyntaxError, match="unexpected character '\\$'") as err:
        load_metric(path)
    assert (err.value.line, err.value.column) == (4, 16)


@pytest.mark.parametrize("text", ["dim = \u0661\nF2 = abs2(v1)\n", "dim = 1\n",
                                  "F2 = abs2(v1)\ndim = 1\n", "dim = 1 F2 = abs2(v1)\n"])
def test_malformed_metric_file_header(tmp_path, text):
    path = tmp_path / "bad.fm"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MetricSyntaxError, match="must start with 'dim = <n>'"):
        load_metric(path)


def test_unreadable_metric_file(tmp_path):
    path = tmp_path / "bad.fm"
    path.write_bytes(b"dim = 1\nF2 = abs2(v1)\xff\n")
    for target in (path, tmp_path, tmp_path / "missing.fm"):
        with pytest.raises(FinslerError, match=f"cannot read metric file {target}: "):
            load_metric(target)


def _tokens(src):
    return [(t.kind, t.text, t.line, t.column) for t in _tokenize(src)]


@pytest.mark.parametrize("src, tokens", [
    ("1.", [("num", "1.", 1, 1), ("end", "", 1, 3)]),
    (".5", [("num", ".5", 1, 1), ("end", "", 1, 3)]),
    ("1e5", [("num", "1e5", 1, 1), ("end", "", 1, 4)]),
    ("1e", [("num", "1", 1, 1), ("ident", "e", 1, 2), ("end", "", 1, 3)]),
    ("1e+", [("num", "1", 1, 1), ("ident", "e", 1, 2), ("op", "+", 1, 3), ("end", "", 1, 4)]),
    ("1.2.3", [("num", "1.2", 1, 1), ("num", ".3", 1, 4), ("end", "", 1, 6)]),
    ("2.5E-3*z1_", [("num", "2.5E-3", 1, 1), ("op", "*", 1, 7), ("ident", "z1_", 1, 8),
                    ("end", "", 1, 11)]),
    # a tab or a carriage return is one column; only a newline starts a line
    ("v1 \t\r\n\n  ", [("ident", "v1", 1, 1), ("end", "", 3, 3)]),
    ("\n(v2\n )\n", [("op", "(", 2, 1), ("ident", "v2", 2, 2), ("op", ")", 3, 2),
                      ("end", "", 4, 1)]),
])
def test_tokens(src, tokens):
    assert _tokens(src) == tokens


@pytest.mark.parametrize("src, char, column", [
    ("12..", ".", 4), ("abs2(v1) # note", "#", 10), ("x = 1", "=", 3),
    # digits and letters are ASCII: a superscript two or an Arabic-Indic one
    # is no digit, and an accented letter is no identifier
    ("abs2(v1)\u00b2", "\u00b2", 9), ("abs2(v\u0661)", "\u0661", 7), ("\u00e9", "\u00e9", 1),
])
def test_unexpected_character(src, char, column):
    with pytest.raises(MetricSyntaxError, match=f"unexpected character {char!r}") as err:
        _tokenize(src)
    assert (err.value.line, err.value.column) == (1, column)


def test_jet_order_zero_equals_eval():
    prog = parse_metric(MetricSource(2, "sqrt(abs2(v1)^2 + abs2(v2)^2)"))
    z = [0.1, 0.2j]
    v = [1.0, 0.5]
    jet = prog.jet(z, v, 0, 0)
    assert jet.value == pytest.approx(prog.eval(z, v))


def test_flat_hessian_constant():
    prog = parse_metric(MetricSource(2, "abs2(v1)+abs2(v2)"))
    jet = prog.jet([0.3, -0.1], [0.2, 1.4j], 2, 0)
    assert derivative(jet, v=(0,), vbar=(0,)) == pytest.approx(1.0)
    assert derivative(jet, v=(1,), vbar=(1,)) == pytest.approx(1.0)
    assert derivative(jet, v=(0,), vbar=(1,)) == 0.0


def test_poincare_disc_jets_at_origin():
    # hand expansion of (1-|z|^2)^{-2} around 0: F^2 = |v|^2 (1 + 2|z|^2 + ...)
    prog = parse_metric(MetricSource(1, "abs2(v1)/(1 - abs2(z1))^2"))
    jet = prog.jet([0], [1.0], 2, 1)
    assert derivative(jet, v=(0,), vbar=(0,)) == pytest.approx(1.0)
    assert derivative(jet, z=(0,)) == 0.0
    assert derivative(jet, zbar=(0,)) == 0.0


def test_quartic_norm_hessian_frozen_value():
    # value computed independently with the finite-difference oracle
    prog = parse_metric(MetricSource(2, "sqrt(abs2(v1)^2 + abs2(v2)^2)"))
    jet = prog.jet([0, 0], [1.0, 0.0], 2, 0)
    ad = derivative(jet, v=(0,), vbar=(0,))
    fd = fd_derivative(prog, [0, 0], [1.0, 0.0], v_idx=(0,), vbar_idx=(0,))
    assert ad == pytest.approx(1.0, abs=1e-12)
    assert abs(ad - fd) < 1e-6


POLE = "division by an expression vanishing at the evaluation point"
SQRT_ZERO = "sqrt at a zero of its argument (non-smooth point)"


def test_evaluation_errors():
    prog = parse_metric(MetricSource(1, "abs2(v1)/(1 - abs2(z1))^2"))
    with pytest.raises(EvaluationError):
        prog.jet([0.2], [0.0], 2, 0)   # fiber origin
    with pytest.raises(EvaluationError) as err:
        prog.eval([1.0], [1.0])        # pole of the expression
    assert str(err.value) == POLE
    # an exact pole and an exact zero of a sqrt, in F^2 and in its jets alike
    for f2, message in (("abs2(v1)/(abs2(z1) - 0.25)", POLE),
                        ("abs2(v1)*sqrt(abs2(z1) - 0.25)", SQRT_ZERO)):
        at_zero = parse_metric(MetricSource(1, f2))
        for evaluate in (at_zero.eval, at_zero.norm, lambda z, v: at_zero.jet(z, v, 2, 0)):
            with pytest.raises(EvaluationError) as err:
                evaluate([0.5], [1.0])
            assert str(err.value) == message
    nonreal = parse_metric(MetricSource(1, "v1"))
    with pytest.raises(EvaluationError):
        nonreal.eval([0], [1.0j])


def test_jet_order_cap():
    prog = parse_metric(MetricSource(1, "abs2(v1)"))
    with pytest.raises(ValueError):
        prog.jet([0], [1], 5, 0)
    with pytest.raises(ValueError):
        prog.jet([0], [1], 2, 2)


@pytest.mark.parametrize("metric_id, z, v", [
    ("poincare_disc", [0.3], [0.7 + 0.2j]),
    ("l4_finsler", [0.1, -0.2], [1.0, 0.8 + 0.3j]),
    ("poincare_ball_2", [0.2, 0.1j], [0.5, 1.0]),
])
def test_backend_cross_validation(progs, metric_id, z, v):
    prog = progs[metric_id]
    n = prog.dim
    jet = prog.jet(z, v, 4, 1)
    low_orders = [
        dict(v_idx=(0,)),
        dict(v_idx=(0,), vbar_idx=(0,)),
        dict(z_idx=(0,)),
        dict(v_idx=(0,), vbar_idx=(0,), z_idx=(0,)),
        dict(v_idx=(0, 0), vbar_idx=(0,)),
    ]
    if n > 1:
        low_orders.append(dict(v_idx=(0, 1), vbar_idx=(1,)))
    for want in low_orders:
        ad = derivative(jet, v=want.get("v_idx", ()), vbar=want.get("vbar_idx", ()),
                            z=want.get("z_idx", ()), zbar=want.get("zbar_idx", ()))
        fd = fd_derivative(prog, z, v, richardson=True, **want)
        assert abs(ad - fd) <= 1e-6 * max(1.0, abs(ad))
    # fourth order: looser tolerance
    ad = derivative(jet, v=(0, 0), vbar=(0, 0))
    fd = fd_derivative(prog, z, v, v_idx=(0, 0), vbar_idx=(0, 0), richardson=True)
    assert abs(ad - fd) <= 1e-4 * max(1.0, abs(ad))


def test_jet_conjugation_symmetry_exact(progs):
    prog = progs["l4_finsler"]
    jet = prog.jet([0.1, 0.2], [1.0, 0.6 + 0.2j], 4, 1)
    pairs = [
        (dict(v=(0, 1), vbar=(1,), z=(0,)), dict(v=(1,), vbar=(0, 1), zbar=(0,))),
        (dict(v=(0,), vbar=(1, 1)), dict(v=(1, 1), vbar=(0,))),
    ]
    for lhs, rhs in pairs:
        a = derivative(jet, **lhs)
        b = derivative(jet, **rhs)
        assert a == pytest.approx(np.conj(b), abs=1e-12)


def test_fd_backend_conjugation_symmetry(progs):
    prog = progs["l4_finsler"]
    z, v = [0.1, 0.2], [1.0, 0.6 + 0.2j]
    a = fd_derivative(prog, z, v, v_idx=(0,), vbar_idx=(1,))
    b = fd_derivative(prog, z, v, v_idx=(1,), vbar_idx=(0,))
    assert abs(a - np.conj(b)) < 1e-10


def test_long_flat_sum_evaluates():
    # a flat sum is a left-leaning tree 1,200 deep; evaluation must not recurse
    prog = parse_metric(MetricSource(1, " + ".join(["abs2(v1)"] * 1200)))
    v = 0.6 - 0.3j
    assert prog.eval([0.1], [v]) == pytest.approx(1200 * abs(v) ** 2, rel=1e-12)
    jet = prog.jet([0.1], [v], 4, 1)
    assert np.all(np.isfinite(jet.c))
    assert derivative(jet, v=(0,), vbar=(0,)) == pytest.approx(1200.0)


def test_repeated_subexpression_evaluated_once(monkeypatch):
    from finslerlab.jets import JetSpace

    calls = []
    mul = JetSpace.mul

    def counted(self, a, b, **kwargs):
        calls.append(1)
        return mul(self, a, b, **kwargs)

    monkeypatch.setattr(JetSpace, "mul", counted)
    prog = parse_metric(MetricSource(1, "abs2(v1) + abs2(v1)"))
    for k, v in enumerate((1.0, 0.5 + 0.2j, -0.3j)):
        jet = prog.jet([0.2], [v], 2, 0)
        assert len(calls) == k + 1  # one product per evaluation, for abs2
    assert jet.value == pytest.approx(2 * 0.09)


@pytest.mark.parametrize("src", ["abs2(v1) + abs2(v1)", "v1 * v1 - conj(v1)^3 / (2 + abs2(z1))",
                                 "sqrt(abs2(v1)^2 + abs2(v2)^2) + abs2(z1)*abs2(v2)/2"])
def test_tape_drops_each_value_after_its_last_reader(src):
    # an entry's value is dropped right after the last entry that reads it,
    # and the values of F^2 and of its jets are unchanged by the drops
    from finslerlab.metric_dsl import _operands

    prog = parse_metric(MetricSource(2, src))
    tape, dead = prog._tape, prog._dead
    dropped = [j for d in dead for j in d]
    assert sorted(dropped) == list(range(len(tape) - 1))  # each once; F^2 is kept
    for i, d in enumerate(dead):
        for j in d:
            assert j in _operands(tape[i])
            assert not any(j in _operands(e) for e in tape[i + 1:])
    z, v = [0.2 - 0.1j, 0.3], [0.7, 0.4 + 0.5j]
    kept = parse_metric(MetricSource(2, src))
    kept._dead = ((),) * len(tape)
    assert prog.eval_complex(z, v) == kept.eval_complex(z, v)
    assert np.array_equal(prog.jet(z, v, 4, 1).c, kept.jet(z, v, 4, 1).c)


def test_nesting_cap():
    from finslerlab.metric_dsl import MAX_NESTING

    def parens(depth):
        return "(" * depth + "v1" + ")" * depth

    def calls(depth):
        return "re(" * depth + "v1" + ")" * depth

    for src in (parens(MAX_NESTING), "-" * MAX_NESTING + "v1", calls(MAX_NESTING)):
        assert parse_metric(MetricSource(1, src)).eval([0], [0.5]) == 0.5
    # the offending token opens level MAX_NESTING + 1
    for src, column in ((parens(MAX_NESTING + 1), MAX_NESTING + 1),
                        (parens(400), MAX_NESTING + 1),
                        ("-" * 400 + "v1", MAX_NESTING + 1),
                        (calls(400), 3 * MAX_NESTING + 1)):
        with pytest.raises(MetricSyntaxError, match="nested deeper") as err:
            parse_metric(MetricSource(1, src))
        assert (err.value.line, err.value.column) == (1, column)
