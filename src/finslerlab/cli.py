"""Command-line interface: batch verification and reports.

All randomness is behind a single seeded generator, so identical arguments
produce byte-identical JSON reports (the timestamp field aside).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .connection import horizontal_lift, solve_connection
from .equivalence import compare as compare_signatures
from .equivalence import regularity
from .finsler_forms import forms_at, hermitian_test, homogeneity_identities, levi_check
from .frame_bundle import BundlePoint, adapted_frame, gram_residual, verify_tangent
from .geodesics import classify, integrate_geodesic
from .metric_dsl import FinslerError
from .parallelism import (
    bianchi_residuals,
    closed_form_P,
    closed_form_Q,
    extract_structure,
    structure_equation_residuals,
)
from .registry import catalog, resolve_metric, sample_points


def _jsonify(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(x) for x in obj.tolist()] if obj.dtype == complex \
            else obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    return obj


def _emit(report: dict, path: str | None):
    text = json.dumps(_jsonify(report), indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _parse_complex_list(text: str) -> np.ndarray:
    """Comma-separated finite complex numbers; a trailing ``i`` means ``j``."""
    vals = []
    for part in text.split(","):
        part = part.strip()
        if part.endswith("i"):
            part = part[:-1] + "j"
        try:
            val = complex(part)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a complex number: {part!r}") from None
        if not cmath.isfinite(val):
            raise argparse.ArgumentTypeError(f"not a finite number: {part!r}")
        vals.append(val)
    return np.array(vals, dtype=complex)


def _parse_point(text: str) -> tuple[np.ndarray, np.ndarray]:
    """A point ``z=...;v=...`` as (z, v); its length is checked against the metric."""
    z = v = None
    for piece in text.split(";"):
        piece = piece.strip()
        if piece.startswith("z="):
            z = _parse_complex_list(piece[2:])
        elif piece.startswith("v="):
            v = _parse_complex_list(piece[2:])
        else:
            raise argparse.ArgumentTypeError(f"cannot parse point component {piece!r}")
    if z is None or v is None:
        raise argparse.ArgumentTypeError("a point must give both z= and v=")
    return z, v


def _point_in_dim(point, dim: int):
    z, v = point
    if len(z) != dim or len(v) != dim:
        raise FinslerError(f"--at must give z and v with {dim} components each")
    return z, v


def _positive_int(text: str) -> int:
    val = int(text)
    if val <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return val


def _positive_float(text: str) -> float:
    val = float(text)
    if not 0 < val < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number: {text!r}")
    return val


def _nonnegative_float(text: str) -> float:
    val = float(text)
    if not 0 <= val < math.inf:
        raise argparse.ArgumentTypeError(f"must be a non-negative finite number: {text!r}")
    return val


# options whose value is a point or a complex list, which may start with '-'
_POINT_OPTIONS = ("--at", "--at-a", "--at-b", "--from", "--dir")


def _attach_point_values(argv: list[str]) -> list[str]:
    """Write ``--from -0.3+0.1i`` as ``--from=-0.3+0.1i``: argparse reads a
    separate value that starts with '-' as an option unless it is a plain
    negative number."""
    out = []
    for arg in argv:
        if out and out[-1] in _POINT_OPTIONS and arg.startswith("-") \
                and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _points(prog, entry, args):
    if args.at:
        return [_point_in_dim(args.at, prog.dim)]
    return sample_points(prog, entry, args.samples, args.seed)


def _thread_map(fn, items):
    workers = int(os.environ.get("FINSLERLAB_THREADS", "1"))
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_list_metrics(args) -> int:
    report = {"metrics": [{
        "id": e.id, "dim": e.source.dim, "F2": e.source.f2_expr,
        "expected": e.expected, "sampling_radius": e.base_radius,
    } for e in catalog()]}
    _emit(report, args.json)
    return 0


def cmd_check(args) -> int:
    prog, entry = resolve_metric(args.metric)
    points = _points(prog, entry, args)
    scale = args.tol
    herm, _ = hermitian_test(prog, points)
    checks = []

    def add(name, residual, tol):
        checks.append({"name": name, "residual": float(residual),
                       "tolerance": float(tol), "pass": bool(residual < tol)})

    def point_block(zv):
        z, v = zv
        out = {}
        out["homogeneity"] = homogeneity_identities(prog, z, v)["max"]
        rep = levi_check(prog, z, v)
        out["levi_min_eig"] = float(np.min(rep.eigenvalues)) if rep.eigenvalues.size \
            else 1.0
        p = adapted_frame(prog, z, v)
        out["gram"] = gram_residual(prog, p)
        cm = solve_connection(prog, p)
        out["closed_form_gap"] = cm.closed_form_gap
        out["tangency"] = max(verify_tangent(prog, p, horizontal_lift(prog, p, i))
                              for i in range(2 * prog.dim))
        return out

    per_point = _thread_map(point_block, points)
    add("homogeneity_identities", max(b["homogeneity"] for b in per_point), 1e-8 * scale)
    lev = min(b["levi_min_eig"] for b in per_point)
    checks.append({"name": "levi_strong_pseudoconvexity", "residual": float(lev),
                   "tolerance": 1e-10, "pass": bool(lev > 1e-10)})
    add("gram_condition", max(b["gram"] for b in per_point), 1e-10 * scale)
    add("connection_tangency", max(b["tangency"] for b in per_point), 1e-8 * scale)
    add("connection_closed_form_gap", max(b["closed_form_gap"] for b in per_point),
        1e-8 * scale)

    se_tol = (1e-5 if herm else 1e-4) * scale
    se_pts = points[:max(1, min(3, len(points)))]
    sigma0 = 0.0
    for z, v in se_pts:
        p = adapted_frame(prog, z, v)
        r = structure_equation_residuals(prog, p)
        sigma0 = max(sigma0, r["finsler_norms"]["sigma0"])
        add("structure_equations", max(r["eq529"], r["eq533"], r["eq534"],
                                       r["eq535"], r["eq536"]), se_tol)
        add("bracket_decomposition", r["decomposition_residual"], 1e-5 * scale)
    for z, v in points[:max(1, min(2, len(points)))]:
        p = adapted_frame(prog, z, v)
        b = bianchi_residuals(prog, p)
        add("bianchi_identities", max(b.values()), 1e-3 * scale)

    dichotomy_ok = (herm and sigma0 < 1e-6) or (not herm and sigma0 > 1e-3)
    checks.append({"name": "hermitian_dichotomy", "residual": float(sigma0),
                   "tolerance": 1e-6 if herm else 1e-3, "pass": bool(dichotomy_ok)})

    ok = all(c["pass"] for c in checks)
    report = {
        "command": "check", "metric": args.metric, "samples": len(points),
        "seed": args.seed, "hermitian": herm, "sigma0_norm": sigma0,
        "checks": checks, "all_pass": ok, "timestamp": time.time(),
    }
    _emit(report, args.json)
    return 0 if ok else 1


def cmd_tensors(args) -> int:
    prog, entry = resolve_metric(args.metric)
    points = _points(prog, entry, args)
    out = []
    for z, v in points:
        p = adapted_frame(prog, z, v)
        forms = forms_at(prog, p.z, p.e0, p.U)
        rep = levi_check(prog, z, v)
        out.append({
            "z": z, "v": v, "frame": p.U,
            "h_mixed": forms.h_mixed, "h_pure": forms.h_pure,
            "H": forms.comp[(2, 1)], "H_pure": forms.comp[(3, 0)],
            "HH": forms.comp[(2, 2)],
            "levi_eigenvalues": rep.eigenvalues, "levi_verdict": rep.verdict,
        })
    _emit({"command": "tensors", "metric": args.metric, "points": out,
           "timestamp": time.time()}, args.json)
    return 0


def cmd_connection(args) -> int:
    prog, entry = resolve_metric(args.metric)
    points = _points(prog, entry, args)
    out = []
    for z, v in points:
        p = adapted_frame(prog, z, v)
        cm = solve_connection(prog, p)
        out.append({
            "z": z, "v": v, "frame": p.U, "E": cm.E,
            "index_legend": "E[a][b][g]: row a, column b, direction g; "
                            "lift of frame direction w has dU = U (sum_g E[:,:,g] w^g)",
            "closed_form_gap": cm.closed_form_gap,
            "min_singular_ratio": cm.min_singular_ratio,
            "solve_residual": cm.residual,
        })
    _emit({"command": "connection", "metric": args.metric, "points": out,
           "timestamp": time.time()}, args.json)
    return 0


def cmd_structure(args) -> int:
    prog, entry = resolve_metric(args.metric)
    points = _points(prog, entry, args)
    out = []
    for z, v in points:
        p = adapted_frame(prog, z, v)
        sf = extract_structure(prog, p)
        res = structure_equation_residuals(prog, p)
        bia = bianchi_residuals(prog, p)
        qgap = float(np.max(np.abs(sf.Q - closed_form_Q(prog, p)))) if prog.dim > 1 else 0.0
        ph, pH = closed_form_P(prog, p)
        pgap = max(float(np.max(np.abs(sf.P_h - ph), initial=0.0)),
                   float(np.max(np.abs(sf.P_H - pH), initial=0.0)))
        out.append({
            "point": {"z": p.z, "v": p.e0},
            "frame": p.U,
            "T": sf.T, "R": sf.R, "R_raw": sf.R_raw,
            "P": {"h_derivative_family": sf.P_h, "H_derivative_family": sf.P_H},
            "Q": sf.Q, "h_vert": sf.h_vert, "H_vert": sf.H_vert,
            "u_embedding": sf.u_embedding,
            "residuals": {
                "eq529": res["eq529"], "eq533": res["eq533"], "eq534": res["eq534"],
                "eq535": res["eq535"], "eq536": res["eq536"],
                "bianchi": [bia["b541"], bia["b542"], bia["b543"], bia["b544"]],
                "decomposition": sf.residual,
                "closed_form_Q_gap": qgap, "closed_form_P_gap": pgap,
            },
            "finsler_norms": res["finsler_norms"],
        })
    _emit({"command": "structure", "metric": args.metric, "points": out,
           "timestamp": time.time()}, args.json)
    return 0


def cmd_classify(args) -> int:
    prog, entry = resolve_metric(args.metric)
    points = _points(prog, entry, args)
    rep = classify(prog, points)
    report = {"command": "classify", "metric": args.metric,
              "samples": len(points), "seed": args.seed,
              "report": rep.to_dict(), "timestamp": time.time()}
    _emit(report, args.json)
    return 0


def cmd_geodesic(args) -> int:
    prog, entry = resolve_metric(args.metric)
    z0 = getattr(args, "from")
    v0 = args.dir
    domain = entry.domain if entry is not None else None
    path = integrate_geodesic(prog, z0, v0, args.t_max, args.dt, domain=domain)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            head = ["t"]
            for k in range(prog.dim):
                head += [f"Re z{k+1}", f"Im z{k+1}"]
            head += ["F_speed", "gram_residual"]
            fh.write(",".join(head) + "\n")
            for i, t in enumerate(path.ts):
                row = [f"{t:.10g}"]
                for k in range(prog.dim):
                    row += [f"{path.zs[i, k].real:.16g}", f"{path.zs[i, k].imag:.16g}"]
                gram = gram_residual(prog, BundlePoint(path.zs[i], path.frames[i]))
                row += [f"{path.speeds[i]:.16g}", f"{gram:.3e}"]
                fh.write(",".join(row) + "\n")
    if args.svg:
        _write_svg(args.svg, path.zs[:, 0])
    report = {
        "command": "geodesic", "metric": args.metric,
        "from": z0, "dir": v0, "t_max": args.t_max, "dt": args.dt,
        "endpoint": path.zs[-1], "speed0": path.speed0,
        "max_gram_drift": path.max_gram_drift,
        "max_speed_drift": path.max_speed_drift,
        "csv": args.csv, "svg": args.svg, "timestamp": time.time(),
    }
    _emit(report, args.json)
    return 0


def _write_svg(path: str, zs: np.ndarray, size: int = 480):
    xs, ys = zs.real, zs.imag
    span = max(np.ptp(xs), np.ptp(ys), 1e-9)
    pad = 0.1 * span
    x0, y0 = xs.min() - pad, ys.min() - pad
    scale = size / (span + 2 * pad)

    def sx(x):
        return (x - x0) * scale

    def sy(y):
        return size - (y - y0) * scale

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">\n'
            f'<rect width="{size}" height="{size}" fill="white" stroke="black"/>\n'
            f'<polyline points="{pts}" fill="none" stroke="crimson" stroke-width="1.5"/>\n'
            f'<circle cx="{sx(xs[0]):.2f}" cy="{sy(ys[0]):.2f}" r="3" fill="black"/>\n'
            "</svg>\n")


def cmd_compare(args) -> int:
    progA, entryA = resolve_metric(args.metric_a)
    progB, entryB = resolve_metric(args.metric_b)
    zA, vA = _point_in_dim(args.at_a, progA.dim)
    zB, vB = _point_in_dim(args.at_b, progB.dim)
    pA = adapted_frame(progA, zA, vA)
    pB = adapted_frame(progB, zB, vB)
    rep = compare_signatures(progA, pA, progB, pB, order=args.order,
                             tol=args.tol, fiber_samples=args.fiber_samples,
                             seed=args.seed)
    rA = regularity(progA, pA, alpha_max=min(args.order + 1, 2))
    report = {"command": "compare", "metric_a": args.metric_a,
              "metric_b": args.metric_b, "comparison": rep,
              "regularity_a": {"ranks": rA.ranks, "order": rA.order,
                               "rank": rA.rank, "stabilized": rA.stabilized},
              "timestamp": time.time()}
    _emit(report, args.json)
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _common(sub, metric=True):
    if metric:
        sub.add_argument("--metric", required=True, help="catalog id or metric file")
    sub.add_argument("--at", type=_parse_point, help='point, e.g. "z=0.3+0i,0;v=1,0"')
    sub.add_argument("--samples", type=_positive_int, default=10)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tol", type=float, default=1.0,
                     help="tolerance scale factor (check) or threshold (compare)")
    sub.add_argument("--json", help="write the JSON report to this path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="finslerlab",
        description="Invariants of strongly pseudoconvex complex Finsler metrics")
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("list-metrics", help="print the built-in metric catalog")
    s.add_argument("--json")
    s.set_defaults(fn=cmd_list_metrics)

    s = sp.add_parser("check", help="run the full identity suite")
    _common(s)
    s.set_defaults(fn=cmd_check)

    s = sp.add_parser("tensors", help="fiber forms and Levi data at points")
    _common(s)
    s.set_defaults(fn=cmd_tensors)

    s = sp.add_parser("connection", help="connection coefficients at points")
    _common(s)
    s.set_defaults(fn=cmd_connection)

    s = sp.add_parser("structure", help="structure functions and residuals")
    _common(s)
    s.set_defaults(fn=cmd_structure)

    s = sp.add_parser("classify", help="curvature classification report")
    _common(s)
    s.set_defaults(fn=cmd_classify)

    s = sp.add_parser("geodesic", help="integrate a geodesic")
    s.add_argument("--metric", required=True)
    s.add_argument("--from", required=True, type=_parse_complex_list,
                   help='start, e.g. "0,0"')
    s.add_argument("--dir", required=True, type=_parse_complex_list,
                   help='initial direction, e.g. "1,0"')
    s.add_argument("--t-max", type=_nonnegative_float, default=1.0)
    s.add_argument("--dt", type=_positive_float, default=1e-3)
    s.add_argument("--csv")
    s.add_argument("--svg")
    s.add_argument("--json")
    s.set_defaults(fn=cmd_geodesic)

    s = sp.add_parser("compare", help="signature comparison of two metrics")
    s.add_argument("--metric-a", required=True)
    s.add_argument("--metric-b", required=True)
    s.add_argument("--at-a", required=True, type=_parse_point)
    s.add_argument("--at-b", required=True, type=_parse_point)
    s.add_argument("--order", type=int, default=0)
    s.add_argument("--fiber-samples", type=int, default=0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--tol", type=float, default=1e-3)
    s.add_argument("--json")
    s.set_defaults(fn=cmd_compare)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_attach_point_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except FinslerError as exc:
        diag = {"error": str(exc), "type": type(exc).__name__,
                "command": getattr(args, "command", None)}
        print(json.dumps(diag, indent=2, sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
