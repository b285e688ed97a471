"""Metric definition language: parsing and compilation of F^2 expressions.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' integer)?
    atom   := number | ident | func '(' expr ')' | '(' expr ')' | '-' atom
    func   := conj | re | im | abs2 | sqrt
    ident  := z1..zn | v1..vn
    number := (digits ['.' [digits]] | '.' digits) [('e'|'E') ['+'|'-'] digits]

Digits and letters are ASCII.

The parser compiles F^2 once into a postorder tape on which equal
subexpressions share one entry.  A compiled program evaluates F^2 and its
mixed Wirtinger jets, treating v, vbar, z, zbar as independent
differentiation variables, by forward-mode jet arithmetic on the tape.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .jets import V, Z, Jet, JetError, jet_space

FUNCTIONS = ("conj", "re", "im", "abs2", "sqrt")
# Parentheses, function calls and unary minus nested deeper than this are a
# syntax error: the parser recurses once per level and must stay well inside
# Python's recursion limit.
MAX_NESTING = 100


class FinslerError(Exception):
    """Base class for all errors raised by this package."""


class MetricSyntaxError(FinslerError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class EvaluationError(FinslerError):
    """Evaluation at an inadmissible point (v = 0, pole, non-finite value)."""


# --------------------------------------------------------------------------
# tokenizer / parser
# --------------------------------------------------------------------------

@dataclass
class Token:
    kind: str  # 'num', 'ident', 'op', 'end'
    text: str
    line: int
    column: int


# the token classes, tried in this order at each offset; numbers, identifiers
# and the z/v indices in them are ASCII, whitespace is any str.isspace
_TOKEN = re.compile(r"""
    (?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<space>\s+)
  | (?P<other>.)
""", re.VERBOSE)


def _tokenize(src: str) -> list[Token]:
    tokens = []
    line, start = 1, 0  # the current line and the offset at which it starts
    for m in _TOKEN.finditer(src):
        kind, text, column = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "space":
            if "\n" in text:
                line += text.count("\n")
                start = m.start() + text.rindex("\n") + 1
        elif kind == "other":
            raise MetricSyntaxError(f"unexpected character {text!r}", line, column)
        else:
            tokens.append(Token(kind, text, line, column))
    tokens.append(Token("end", "", line, len(src) - start + 1))
    return tokens


# tape entries: ('num', value) | ('var', kind, index) | ('neg', a) |
# ('+'|'-'|'*'|'/', a, b) | ('pow', a, int) | (func, a), where a and b are
# indices of earlier entries

class _Parser:
    def __init__(self, tokens: list[Token], dim: int):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim
        self.depth = 0
        self.tape: dict[tuple, int] = {}  # entry -> its index, in tape order

    def emit(self, *entry) -> int:
        """Index of the tape entry (op, *args), appended if it is new."""
        return self.tape.setdefault(entry, len(self.tape))

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, text: str):
        t = self.next()
        if t.kind != "op" or t.text != text:
            raise MetricSyntaxError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                                    t.line, t.column)

    def parse(self) -> tuple:
        self.expr()
        t = self.peek()
        if t.kind != "end":
            raise MetricSyntaxError(f"unexpected trailing input {t.text!r}", t.line, t.column)
        return tuple(self.tape)

    def expr(self) -> int:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = self.emit(op, node, self.term())
        return node

    def term(self) -> int:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = self.emit(op, node, self.factor())
        return node

    def factor(self) -> int:
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            t = self.next()
            e = self.next()
            if e.kind != "num" or not e.text.isdigit():
                raise MetricSyntaxError("exponent must be an unsigned integer",
                                        e.line if e.kind != "end" else t.line, e.column)
            node = self.emit("pow", node, int(e.text))
        return node

    def atom(self) -> int:
        t = self.next()
        if t.kind == "num":
            return self.emit("num", float(t.text))
        if t.kind == "ident" and t.text not in FUNCTIONS:
            name, k = t.text, t.text[1:]
            if name[:1] not in ("z", "v") or not k.isdigit():
                raise MetricSyntaxError(f"unknown identifier {name!r}", t.line, t.column)
            if not 1 <= int(k) <= self.dim:
                raise MetricSyntaxError(f"variable {name!r} exceeds chart dimension {self.dim}",
                                        t.line, t.column)
            return self.emit("var", Z if name[0] == "z" else V, int(k) - 1)
        if t.kind != "ident" and not (t.kind == "op" and t.text in "-("):
            raise MetricSyntaxError(f"unexpected token {t.text or 'end of input'!r}",
                                    t.line, t.column)
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise MetricSyntaxError(f"expression nested deeper than {MAX_NESTING} levels",
                                    t.line, t.column)
        if t.text == "-":
            node = self.emit("neg", self.atom())
        elif t.text == "(":
            node = self.expr()
            self.expect_op(")")
        else:
            self.expect_op("(")
            node = self.emit(t.text, self.expr())
            self.expect_op(")")
        self.depth -= 1
        return node


# --------------------------------------------------------------------------
# compiled program
# --------------------------------------------------------------------------

# 'dim = <n>' on the first non-blank line, in ASCII digits, then 'F2 =' on a
# later line; the expression runs from there to the end of the file
_METRIC_FILE = re.compile(r"\s*dim[ \t]*=[ \t]*([0-9]+)\s*\n\s*F2[ \t]*=(.*)", re.DOTALL)


@dataclass(frozen=True)
class MetricSource:
    """Raw definition of a metric: chart dimension and the F^2 expression."""

    dim: int
    f2_expr: str

    @staticmethod
    def from_file(path) -> "MetricSource":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise FinslerError(f"cannot read metric file {path}: "
                               f"{getattr(exc, 'strerror', None) or exc}") from None
        head = _METRIC_FILE.match(text)
        if head is None:
            raise MetricSyntaxError("metric file must start with 'dim = <n>' then 'F2 = <expr>'",
                                    1, 1)
        # the expression keeps its place in the file, what precedes it
        # blanked, so that a syntax error in it names the file's line and column
        return MetricSource(int(head[1]),
                            re.sub(r"[^\n]", " ", text[:head.start(2)]) + head[2].rstrip())


def _divide(a, b):
    if b == 0:
        raise EvaluationError("division by zero (pole of the metric expression)")
    return a / b


def _power(a, k: int):
    try:
        return a ** k
    except OverflowError:  # complex ** int raises where float arithmetic gives inf
        raise EvaluationError("metric expression evaluated to a non-finite value") from None


def _sqrt(a):
    if a == 0:
        raise EvaluationError("sqrt at a zero of its argument (non-smooth point)")
    return complex(np.sqrt(a))


def real_f2(val: complex) -> float:
    """An evaluated F^2 as a real number; raises if it is not real."""
    if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
        raise EvaluationError(f"F^2 must be real; got imaginary part {val.imag:.3e}")
    return val.real


def norm_of_f2(val: complex) -> float:
    """F = sqrt(F^2) of an evaluated F^2, after the checks of real_f2 and
    of its sign."""
    f2 = real_f2(val)
    if f2 < 0:
        raise EvaluationError(f"F^2 must be non-negative; got {f2:.3e}")
    return math.sqrt(f2)


def _operands(entry: tuple) -> tuple:
    """The tape indices a tape entry reads."""
    op = entry[0]
    if op == "num" or op == "var":
        return ()
    return entry[1:2] if op == "pow" else entry[1:]


# what each non-leaf op does to complex scalars; jets share the operators
_SCALAR_OPS = {"neg": operator.neg, "+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": _divide, "pow": _power, "conj": np.conj,
               "re": lambda a: complex(a.real), "im": lambda a: complex(a.imag),
               "abs2": lambda a: a * np.conj(a), "sqrt": _sqrt}
_JET_OPS = {**_SCALAR_OPS, "/": operator.truediv, "pow": Jet.pow_int, "conj": Jet.conj,
            "re": Jet.real, "im": Jet.imag, "abs2": Jet.abs2, "sqrt": Jet.sqrt}


class MetricProgram:
    """Compiled chart metric: evaluates F^2 and its mixed Wirtinger jets.

    Instances are immutable and hold no cache; jet evaluation is pure.
    """

    MAX_FIBER_ORDER = 4
    MAX_BASE_ORDER = 1

    def __init__(self, source: MetricSource, tape: tuple):
        self.source = source
        self.dim = source.dim
        self._tape = tape
        # _dead[i]: the entries whose last reader is entry i, which _run
        # drops once i is computed, so a jet evaluation holds only the
        # values a later entry still reads
        last = {j: i for i, entry in enumerate(tape) for j in _operands(entry)}
        dead = [[] for _ in tape]
        for j, i in last.items():
            dead[i].append(j)
        self._dead = tuple(map(tuple, dead))

    def _run(self, ops: dict, leaf):
        """Value of F^2: leaf(entry) for 'num' and 'var' entries, ops[op] of
        the operand values for the others, in tape order."""
        vals = []
        for entry, dead in zip(self._tape, self._dead):
            op = entry[0]
            if op == "num" or op == "var":
                vals.append(leaf(entry))
            elif op == "pow":
                vals.append(ops[op](vals[entry[1]], entry[2]))
            elif len(entry) == 3:
                vals.append(ops[op](vals[entry[1]], vals[entry[2]]))
            else:
                vals.append(ops[op](vals[entry[1]]))
            for j in dead:
                vals[j] = None
        return vals[-1]

    # -- scalar evaluation ----------------------------------------------------

    def eval_complex(self, z, v) -> complex:
        """F^2 as evaluated, before the reality check."""
        z = np.asarray(z, dtype=complex)
        v = np.asarray(v, dtype=complex)

        def leaf(entry):  # ('num', x) or ('var', kind, k)
            return complex(entry[1] if entry[0] == "num" else (v if entry[1] == V else z)[entry[2]])

        val = self._run(_SCALAR_OPS, leaf)
        if not np.isfinite(val):
            raise EvaluationError("metric expression evaluated to a non-finite value")
        return val

    def eval(self, z, v) -> float:
        """F^2(z, v) as a real number; raises if the expression is not real."""
        return real_f2(self.eval_complex(z, v))

    def norm(self, z, v) -> float:
        """F(z, v) = sqrt(F^2)."""
        return norm_of_f2(self.eval_complex(z, v))

    # -- jets -------------------------------------------------------------------

    def jet_unchecked(self, z, v, fiber_order: int, base_order: int, frame=None) -> Jet:
        """Jet table without the public order cap (internal use); every call
        evaluates the tape.  The leaves are seeded in the frame, z + U zeta
        and v + U xi with U = frame, so the jet's partials are taken along
        the columns of U; without a frame they are the coordinate partials."""
        z = np.asarray(z, dtype=complex)
        v = np.asarray(v, dtype=complex)
        if not v.any():
            raise EvaluationError("jets are undefined at v = 0 (homogeneous metrics are "
                                  "non-smooth on the zero section)")
        space = jet_space(self.dim, fiber_order, base_order)

        def leaf(entry):  # ('num', x) or ('var', kind, k)
            if entry[0] == "num":
                return space.const(entry[1])
            return space.variable(*entry[1:], (v if entry[1] == V else z)[entry[2]], frame)

        try:
            out = self._run(_JET_OPS, leaf)
        except JetError as exc:
            raise EvaluationError(str(exc)) from exc
        if not np.isfinite(out.c).all():
            raise EvaluationError("jet coefficients are non-finite (pole of the expression)")
        return out

    def jet(self, z, v, fiber_order: int = 4, base_order: int = 1) -> Jet:
        """Mixed Wirtinger jet of F^2 at (z, v).

        Fiber order <= 4 and base order <= 1; the table covers every mixed
        partial d^a_v d^b_vbar d^c_z d^d_zbar with a+b <= fiber_order and
        c+d <= base_order, except that the jet(4, 1), the default, holds
        total order a+b+c+d <= 4 only (jets.TOTAL_DEGREE_CAP): every fiber
        partial up to order 4 and the base derivatives of those up to
        order 3.  Jet.partials raises KeyError outside the table.
        """
        if fiber_order > self.MAX_FIBER_ORDER or base_order > self.MAX_BASE_ORDER:
            raise ValueError("jet orders limited to fiber_order <= 4, base_order <= 1")
        return self.jet_unchecked(z, v, fiber_order, base_order)


def parse_metric(src: MetricSource) -> MetricProgram:
    """Compile a metric source into an evaluator; deterministic."""
    if src.dim < 1:
        raise MetricSyntaxError("dim must be a positive integer", 1, 1)
    tape = _Parser(_tokenize(src.f2_expr), src.dim).parse()
    return MetricProgram(src, tape)


def load_metric(path) -> MetricProgram:
    return parse_metric(MetricSource.from_file(path))
