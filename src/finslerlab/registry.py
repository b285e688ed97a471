"""Built-in metric catalog with documented expected properties.

Every `expected` entry here is re-derived by the pipeline in the acceptance
suite; the catalog never asserts unverified values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric_dsl import FinslerError, MetricProgram, MetricSource, parse_metric


def _space_form_f2(n: int, sign: str) -> str:
    """F^2 = ((1 s |z|^2)|v|^2 - s |<v, z>|^2) / (1 s |z|^2)^2 with s = sign:
    the ball for '-', the Fubini-Study chart for '+'."""
    flip = "+" if sign == "-" else "-"
    zz = " + ".join(f"abs2(z{k})" for k in range(1, n + 1))
    vv = " + ".join(f"abs2(v{k})" for k in range(1, n + 1))
    zv = " + ".join(f"conj(z{k})*v{k}" for k in range(1, n + 1))
    return f"((1 {sign} ({zz}))*({vv}) {flip} abs2({zv}))/(1 {sign} ({zz}))^2"


def _flat_f2(n: int) -> str:
    return " + ".join(f"abs2(v{k})" for k in range(1, n + 1))


def _unit_ball_domain(z) -> bool:
    return float(np.sum(np.abs(np.asarray(z)) ** 2)) < 0.96


def _anywhere(z) -> bool:
    return True


def _l4_fiber_ok(v) -> bool:
    # the quartic-norm metric degenerates on the coordinate axes; keep a
    # safe angular distance so the Levi form stays uniformly definite
    v = np.asarray(v)
    return float(np.min(np.abs(v)) / np.linalg.norm(v)) > 0.35


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    source: MetricSource
    expected: dict
    base_radius: float
    domain: object = _anywhere
    fiber_ok: object = None

    def program(self) -> MetricProgram:
        return parse_metric(self.source)


def catalog() -> list[CatalogEntry]:
    entries = [
        CatalogEntry("flat_1", MetricSource(1, _flat_f2(1)),
                     {"hermitian": True, "kahler": True, "hsc": 0.0,
                      "e_manifold": True}, 0.8),
        CatalogEntry("flat_2", MetricSource(2, _flat_f2(2)),
                     {"hermitian": True, "kahler": True, "hsc": 0.0,
                      "e_manifold": True}, 0.8),
        CatalogEntry("flat_3", MetricSource(3, _flat_f2(3)),
                     {"hermitian": True, "kahler": True, "hsc": 0.0,
                      "e_manifold": True}, 0.8),
        CatalogEntry("poincare_disc",
                     MetricSource(1, "abs2(v1)/(1 - abs2(z1))^2"),
                     {"hermitian": True, "kahler": True, "hsc": -4.0,
                      "e_manifold": True}, 0.7, _unit_ball_domain),
        CatalogEntry("poincare_ball_2", MetricSource(2, _space_form_f2(2, "-")),
                     {"hermitian": True, "kahler": True, "hsc": -4.0,
                      "e_manifold": True}, 0.7, _unit_ball_domain),
        CatalogEntry("poincare_ball_3", MetricSource(3, _space_form_f2(3, "-")),
                     {"hermitian": True, "kahler": True, "hsc": -4.0,
                      "e_manifold": True}, 0.6, _unit_ball_domain),
        CatalogEntry("fubini_study_1",
                     MetricSource(1, "abs2(v1)/(1 + abs2(z1))^2"),
                     {"hermitian": True, "kahler": True, "hsc": 4.0,
                      "e_manifold": True}, 0.8),
        CatalogEntry("fubini_study_2", MetricSource(2, _space_form_f2(2, "+")),
                     {"hermitian": True, "kahler": True, "hsc": 4.0,
                      "e_manifold": True}, 0.8),
        CatalogEntry("hermitian_nonconstant",
                     MetricSource(2, "(1 + abs2(z1))*abs2(v1) + abs2(v2)"),
                     {"hermitian": True, "kahler": True, "hsc": "non-constant",
                      "e_manifold": False}, 0.8),
        # translation-invariant non-Hermitian norm: flat, so linear discs are
        # complex geodesics with vanishing induced curvature
        CatalogEntry("l4_finsler",
                     MetricSource(2, "sqrt(abs2(v1)^2 + abs2(v2)^2)"),
                     {"hermitian": False, "kahler": False, "hsc": 0.0,
                      "e_manifold": True}, 0.8, _anywhere, _l4_fiber_ok),
    ]
    return entries


def resolve_metric(ref: str):
    """Catalog id or metric-file path -> (program, entry-or-None)."""
    import os

    for e in catalog():
        if e.id == ref:
            return e.program(), e
    if os.path.exists(ref):
        from .metric_dsl import load_metric

        return load_metric(ref), None
    raise FinslerError(f"metric {ref!r} is neither a catalog id nor a file")


def sample_points(prog: MetricProgram, entry: CatalogEntry | None, k: int,
                  seed: int) -> list:
    """Seeded admissible sample points: z in a safe chart region, v of unit
    Euclidean length (rejection-sampled where the catalog restricts the
    fiber direction)."""
    rng = np.random.default_rng(seed)
    n = prog.dim
    radius = entry.base_radius if entry is not None else 0.5
    domain = entry.domain if entry is not None else _anywhere
    fiber_ok = entry.fiber_ok if entry is not None else None
    pts = []
    while len(pts) < k:
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        if np.linalg.norm(z) > 1:
            continue
        z = z * radius
        if not domain(z):
            continue
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = v / np.linalg.norm(v)
        if fiber_ok is not None and not fiber_ok(v):
            continue
        pts.append((z, v))
    return pts
