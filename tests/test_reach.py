"""Every function of the package is reached by a command of the CLI, or is
one of the functions perfbench/tracing.py traces, or the public API: no
leftover lingers in src/ that no report runs."""

import ast
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import finslerlab
from finslerlab.cli import main

SRC = Path(finslerlab.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# a metric whose expression uses every operation of the language
EVERY_OPERATION = ("dim = 2\nF2 = sqrt(abs2(v1)^2 + abs2(v2)^2) * (2 - 1/(1 + re(z1)^2"
                   " + im(z2)^2)) + -(0 - abs2(z1)*abs2(v2))\n")


def _commands(tmp: Path) -> list[list[str]]:
    metric = tmp / "every_operation.fmetric"
    metric.write_text(EVERY_OPERATION)
    malformed = tmp / "malformed.fmetric"
    malformed.write_text("dim = 2\nF2 = abs2(v1\n")
    out = str(tmp / "out")
    return [
        ["list-metrics", "--json", out + ".json"],
        ["check", "--metric", "l4_finsler", "--samples", "2", "--seed", "1"],
        ["tensors", "--metric", str(metric), "--samples", "1", "--seed", "1"],
        ["connection", "--metric", "poincare_ball_2", "--samples", "1", "--seed", "1"],
        ["structure", "--metric", "poincare_ball_3", "--samples", "1", "--seed", "1"],
        ["classify", "--metric", "hermitian_nonconstant", "--samples", "2", "--seed", "1"],
        ["geodesic", "--metric", "poincare_disc", "--from", "0", "--dir", "1", "--t-max", "0.02",
         "--dt", "0.01", "--csv", out + ".csv", "--svg", out + ".svg"],
        # from n = 2 on, the spray reads the geodesic torsion
        ["geodesic", "--metric", "poincare_ball_2", "--from", "0,0", "--dir", "1,0.5",
         "--t-max", "0.02", "--dt", "0.01"],
        # ROADMAP compare A (order 2) and compare C, whose ranks read tier 3
        ["compare", "--metric-a", "l4_finsler", "--metric-b", "l4_finsler", "--order", "2",
         "--at-a", "z=0.1,0.2;v=1,0.8", "--at-b", "z=0.3,-0.1;v=1,0.5"],
        ["compare", "--metric-a", "hermitian_nonconstant", "--metric-b",
         "hermitian_nonconstant", "--order", "1", "--at-a", "z=0.1,0.2;v=1,0.5",
         "--at-b", "z=0.1,-0.4;v=1,0.5", "--fiber-samples", "1"],
        # a malformed metric file, and a point where the jets overflow: exit 3
        ["structure", "--metric", str(malformed)],
        ["structure", "--metric", "poincare_disc", "--at", "z=0;v=1e300"],
    ]


def _defined():
    """(module, first line of the code object, name) of every function and
    method defined in the package; a decorated function's code starts at
    its first decorator."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield path.stem, first, node.name


def _public_api() -> set:
    """The names a user reaches through finslerlab's __all__: its functions
    and the methods of its classes."""
    names = set()
    for name in finslerlab.__all__:
        obj = getattr(finslerlab, name)
        names.add((obj.__module__.rsplit(".", 1)[-1], name))
        if isinstance(obj, type):
            names |= {(obj.__module__.rsplit(".", 1)[-1], attr) for attr in vars(obj)
                      if not attr.startswith("_")}
    return names


def test_every_function_is_reached_traced_or_public(tmp_path):
    # memoized functions run their bodies only on a miss
    for name, module in list(sys.modules.items()):
        if name.startswith("finslerlab."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(str(SRC)):
            reached.add((Path(frame.f_code.co_filename).stem, frame.f_code.co_firstlineno))

    for argv in _commands(tmp_path):
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 3), argv
        finally:
            sys.setprofile(None)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {(module, attr.split(".")[-1]) for module, attr in tracing.TARGETS}
    allowed = traced | _public_api()
    unreached = [(module, line, name) for module, line, name in _defined()
                 if (module, line) not in reached and (module, name) not in allowed]
    assert not unreached, unreached
