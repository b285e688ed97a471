"""The benchmark's tracer must find every function it wraps, and put each back."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings():
    """Every name bound in a finslerlab module or class, with its object."""
    import finslerlab.cli  # noqa: F401  (loads every module of the package)

    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "finslerlab" or name.startswith("finslerlab."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def test_every_trace_target_is_wrapped_and_restored():
    tracing = load_tracing()
    before = package_bindings()
    with tracing.Tracer():
        during = package_bindings()
        for module, attr in tracing.TARGETS:
            key = (f"finslerlab.{module}", *attr.split("."))
            assert during[key] is not before[key], f"{module}.{attr} was not wrapped"
    after = package_bindings()
    assert after.keys() == before.keys()
    restored = [key for key in before if after[key] is not before[key]]
    assert restored == []
