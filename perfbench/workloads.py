"""The benchmark's workloads: seeded CLI argument lists and their judges.

Every report of a workload is the same command on the same metric, so all
reports cost about the same and the median never falls between two clusters
of report costs.  A judge compares one report with the closed-form
references and returns its accuracy in digits, or raises ``Incorrect``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from references import digits, space_form_curvature, space_form_distance


class Incorrect(Exception):
    """A report disagrees with its reference."""


@dataclass(frozen=True)
class Report:
    argv: list
    judge: Callable  # (report dict) -> accuracy digits or None


@dataclass(frozen=True)
class Workload:
    name: str
    metrics: tuple  # catalog ids whose programs the reports compile
    make_round: Callable  # rng -> list[Report]


def _num(x: complex) -> str:
    # repr-exact, so the program parses exactly the value the judge uses
    x = complex(x)
    return f"{x.real!r}{x.imag:+}j"


def _point(z, v) -> str:
    return f"z={','.join(map(_num, z))};v={','.join(map(_num, v))}"


def _ball_point(rng, n: int, radius: float):
    """z uniform in the ball of the given radius, v a unit vector."""
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z *= radius * rng.uniform() ** (1 / (2 * n)) / np.linalg.norm(z)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z, v / np.linalg.norm(v)


def _decode(x):
    return np.asarray(x, dtype=float).view(complex)[..., 0]


# -- check_l4 ----------------------------------------------------------------

# checks whose residual vanishes exactly in theory; Levi positivity and the
# dichotomy test are thresholds on quantities that are not zero
EXACT_CHECKS = ("homogeneity_identities", "gram_condition", "connection_tangency",
                "connection_closed_form_gap", "structure_equations",
                "bracket_decomposition", "bianchi_identities")


def _judge_check(rep: dict) -> float:
    if not rep["all_pass"]:
        failed = [c["name"] for c in rep["checks"] if not c["pass"]]
        raise Incorrect(f"check failed: {failed}")
    # dichotomy theorem: a non-Hermitian metric has sigma0 bounded away from 0
    if rep["hermitian"] or not rep["sigma0_norm"] > 1e-3:
        raise Incorrect(f"l4_finsler reported Hermitian (sigma0 {rep['sigma0_norm']})")
    names = {c["name"] for c in rep["checks"]}
    if not names.issuperset(EXACT_CHECKS):
        raise Incorrect(f"missing checks: {set(EXACT_CHECKS) - names}")
    return digits(max(c["residual"] for c in rep["checks"] if c["name"] in EXACT_CHECKS))


def _check_round(rng):
    seed = int(rng.integers(2**31))
    return [Report(["check", "--metric", "l4_finsler", "--samples", "2",
                    "--seed", str(seed)], _judge_check)]


# -- structure_ball3 -----------------------------------------------------------

BALL_CURVATURE = -4.0


def _judge_structure(rep: dict) -> float:
    (pt,) = rep["points"]
    R, T = _decode(pt["R"]), _decode(pt["T"])
    ref = space_form_curvature(3, BALL_CURVATURE)
    err = max(np.max(np.abs(R - ref)), np.max(np.abs(T))) / abs(BALL_CURVATURE)
    if not err < 1e-6:
        raise Incorrect(f"poincare_ball_3 curvature off the space form by {err:.2e}")
    return digits(err)


def _structure_round(rng):
    z, v = _ball_point(rng, 3, 0.6)
    return [Report(["structure", "--metric", "poincare_ball_3", "--at", _point(z, v)],
                   _judge_structure)]


# -- geodesic_disc -------------------------------------------------------------

GEODESIC_T_MAX = 1.0
GEODESIC_DT = 2e-3


def _geodesic_round(rng):
    r = rng.uniform(0.1, 0.5)
    z0 = complex(r * np.exp(2j * np.pi * rng.uniform()))
    v0 = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))

    def judge(rep):
        # unit-speed reports: the closed-form distance to the endpoint is t_max
        end = _decode(rep["endpoint"])
        d = space_form_distance(z0, end, BALL_CURVATURE)
        err = abs(d - GEODESIC_T_MAX) / GEODESIC_T_MAX
        if not err < 1e-8:
            raise Incorrect(f"geodesic length {d!r} differs from t_max by {err:.2e}")
        return digits(err)

    # the '=' form: a value that starts with '-' would be read as a flag
    return [Report(["geodesic", "--metric", "poincare_disc", f"--from={_num(z0)}",
                    f"--dir={_num(v0)}", "--t-max", repr(GEODESIC_T_MAX),
                    "--dt", repr(GEODESIC_DT)], judge)]


# -- compare_ball2 ---------------------------------------------------------------

def _judge_match(rep: dict) -> float:
    # the ball's isometries act transitively on unitary frames, so any two
    # frames have equal signatures and the invariants have rank 0
    cmp, reg = rep["comparison"], rep["regularity_a"]
    if cmp["verdict"] != "match" or not cmp["distance"] < 1e-4:
        raise Incorrect(f"ball frames judged {cmp['verdict']} at {cmp['distance']:.2e}")
    if reg["rank"] != 0 or not reg["stabilized"]:
        raise Incorrect(f"ball invariants report rank {reg['ranks']}")
    return digits(cmp["distance"])


def _judge_differ(rep: dict) -> None:
    # holomorphic sectional curvature -4 against +4
    if rep["comparison"]["verdict"] != "differ":
        raise Incorrect("poincare_ball_2 matched fubini_study_2")


def _compare_round(rng):
    out = []
    for metric_b, radius_b, judge in (("poincare_ball_2", 0.7, _judge_match),
                                      ("fubini_study_2", 0.8, _judge_differ)):
        za, va = _ball_point(rng, 2, 0.7)
        zb, vb = _ball_point(rng, 2, radius_b)
        out.append(Report(["compare", "--metric-a", "poincare_ball_2",
                           "--metric-b", metric_b, "--at-a", _point(za, va),
                           "--at-b", _point(zb, vb), "--order", "1"], judge))
    return out


WORKLOADS = {w.name: w for w in (
    Workload("check_l4", ("l4_finsler",), _check_round),
    Workload("structure_ball3", ("poincare_ball_3",), _structure_round),
    Workload("geodesic_disc", ("poincare_disc",), _geodesic_round),
    Workload("compare_ball2", ("poincare_ball_2", "fubini_study_2"), _compare_round),
)}


def jet_tables() -> list:
    """The jet tables the program has built in this process, as (n, fiber
    order, base order).  ``jet_space`` memoizes them for the process and its
    cache does not list its keys, so they are read off the live tables.
    Taken after a report has run, this is the program's own choice of
    tables, not a copy of it."""
    import gc

    from finslerlab.jets import JetSpace

    gc.collect()
    return sorted({(s.n, s.fiber_order, s.base_order)
                   for s in gc.get_objects() if type(s) is JetSpace})


def setup(name: str, tables) -> None:
    """What a CLI process pays before its first report: the import, the
    workload's metrics compiled and the jet tables its reports use built."""
    from finslerlab.jets import jet_space
    from finslerlab.registry import resolve_metric

    for metric in WORKLOADS[name].metrics:
        resolve_metric(metric)
    for n, fo, bo in tables:
        jet_space(n, fo, bo)
