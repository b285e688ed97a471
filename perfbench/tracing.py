"""Span tracing of finslerlab from outside the package.

``Tracer.install`` wraps the functions listed in ``TARGETS`` in place: the
attribute on the defining module or class, and every name that another
finslerlab module bound to the same object with ``from .x import y``.  Each
call records a span (name, parent, start, end) in memory; ``uninstall``
puts every original back, so an untraced pass runs the unmodified program.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# the modules of src/finslerlab, in pipeline order; a span's layer is the
# module its function is defined in
LAYERS = ("cli", "registry", "metric_dsl", "jets", "finsler_forms",
          "frame_bundle", "connection", "parallelism", "geodesics", "equivalence")

# (module, attribute or Class.attribute); private helpers are listed where
# another module calls them, so their time is charged to the right layer
TARGETS = (
    ("cli", "main"),
    ("registry", "catalog"), ("registry", "resolve_metric"),
    ("registry", "sample_points"),
    ("metric_dsl", "parse_metric"), ("metric_dsl", "MetricProgram.jet_unchecked"),
    ("metric_dsl", "MetricProgram.eval_complex"),
    ("jets", "jet_space"), ("jets", "JetSpace.__init__"), ("jets", "JetSpace.mul"),
    ("finsler_forms", "raw_fiber_tensors"), ("finsler_forms", "forms_at"),
    ("finsler_forms", "homogeneity_identities"), ("finsler_forms", "levi_check"),
    ("finsler_forms", "hermitian_test"),
    ("frame_bundle", "adapted_frame"), ("frame_bundle", "reproject_frame"),
    ("frame_bundle", "gram_matrix"), ("frame_bundle", "gram_residual"),
    ("frame_bundle", "gram_derivative"), ("frame_bundle", "verify_tangent"),
    ("frame_bundle", "group_act"),
    ("connection", "frame_data"), ("connection", "FrameData.C"),
    ("connection", "FrameData.E"), ("connection", "solve_connection"),
    ("connection", "horizontal_lift"), ("connection", "covariant_derivative"),
    ("parallelism", "_real_field_matrix"),
    ("parallelism", "_bracket_table"), ("parallelism", "extract_structure"),
    ("parallelism", "closed_form_Q"), ("parallelism", "closed_form_P"),
    ("parallelism", "structure_equation_residuals"),
    ("parallelism", "bianchi_residuals"), ("parallelism", "_lift_derivative_of"),
    ("parallelism", "_complex_lift_derivative"),
    ("geodesics", "geodesic_spray"), ("geodesics", "spray_coefficients"),
    ("geodesics", "integrate_geodesic"), ("geodesics", "classify"),
    ("equivalence", "structure_coefficients"), ("equivalence", "signature"),
    ("equivalence", "regularity"), ("equivalence", "compare"),
)


class Tracer:
    """Records nested spans of the wrapped finslerlab functions."""

    def __init__(self):
        self.names: list[str] = []
        # one entry per call, in call order: name id, parent row (-1 at the
        # root), start and end; flat arrays keep a long run's spans small
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._undo: list[tuple] = []

    # -- patching ---------------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(row)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[row] = clock()
                stack.pop()

        return traced

    def install(self):
        import finslerlab.cli  # noqa: F401  (loads every module of the package)

        package = [m for k, m in sys.modules.items()
                   if k == "finslerlab" or k.startswith("finslerlab.")]
        for module, attr in TARGETS:
            owner = sys.modules[f"finslerlab.{module}"]
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                new = (property(self._wrap(orig.fget, name)) if isinstance(orig, property)
                       else self._wrap(orig, name))
                setattr(cls, attr, new)
                self._undo.append((cls, attr, orig))
                continue
            orig = getattr(owner, attr)
            new = self._wrap(orig, name)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, new)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ---------------------------------------------------------------

    def arrays(self):
        """(name per span, parent row, duration, self time) as arrays."""
        names = np.array(self.names, dtype=object)[np.asarray(self.ids, dtype=int)]
        parent = np.asarray(self.parents, dtype=int)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return names, parent, dur, dur - child

    def write(self, path):
        """Write the spans as compressed arrays; a span's id is its row."""
        np.savez_compressed(path, names=np.array(self.names), name_id=self.ids,
                            parent=self.parents, start=self.starts, end=self.ends)


def layer_metrics(tracer: Tracer, reports: int) -> dict:
    """Per-report layer figures from the spans of ``reports`` traced reports."""
    names, parent, dur, self_t = tracer.arrays()
    layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)
    out = {}
    for lay in LAYERS:
        out[f"{lay}.self_s"] = (float(self_t[layer == lay].sum()) / reports, "s")

    def calls(name):
        return int(np.count_nonzero(names == name))

    mul = names == "jets.JetSpace.mul"
    jet = names == "metric_dsl.MetricProgram.jet_unchecked"
    # a jet call that misses the program's cache builds its table through
    # jet_space; a hit returns before reaching it
    misses = np.zeros(len(names), dtype=bool)
    misses[parent[(names == "jets.jet_space") & (parent >= 0)]] = True
    jet_calls = int(jet.sum())
    jet_evals = int(np.count_nonzero(misses & jet))
    out.update({
        "jets.mul_calls": (calls("jets.JetSpace.mul") / reports, "count"),
        "jets.mul_s": (float(dur[mul].sum()) / reports, "s"),
        "metric_dsl.parse_s": (float(dur[names == "metric_dsl.parse_metric"].sum())
                               / reports, "s"),
        "metric_dsl.jet_calls": (jet_calls / reports, "count"),
        "metric_dsl.jet_evals": (jet_evals / reports, "count"),
        "metric_dsl.jet_hit_ratio": (1.0 - jet_evals / jet_calls if jet_calls else 0.0,
                                     "ratio"),
        "metric_dsl.jet_self_s": (float(self_t[jet].sum()) / reports, "s"),
        "connection.frame_data_calls": (calls("connection.frame_data") / reports,
                                        "count"),
        "parallelism.extract_calls": (calls("parallelism.extract_structure") / reports,
                                      "count"),
        "equivalence.structure_coefficient_calls": (
            calls("equivalence.structure_coefficients") / reports, "count"),
        "geodesics.spray_calls": (calls("geodesics.geodesic_spray") / reports, "count"),
        "trace.spans_per_report": (len(names) / reports, "count"),
    })
    return out
