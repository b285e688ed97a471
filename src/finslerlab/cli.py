"""Command-line interface: batch verification and reports.

All randomness is behind a single seeded generator, so identical arguments
produce byte-identical JSON reports (the timestamp field aside).
"""

from __future__ import annotations

import argparse
import cmath
import errno
import functools
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from .connection import frame_data, solve_connection
from .equivalence import regularity
from .equivalence import compare as compare_signatures
from .finsler_forms import (
    cubic_form_peak,
    forms_at,
    hermitian_test,
    homogeneity_identities,
    levi_check,
)
from .frame_bundle import BundlePoint, adapted_frame, gram_residual
from .geodesics import classify, integrate_geodesic
from .metric_dsl import FinslerError
from .parallelism import (
    _bracket_table,
    bianchi_residuals,
    closed_form_P,
    closed_form_Q,
    extract_structure,
    structure_equation_residuals,
)
from .registry import catalog, resolve_metric, sample_points

SVG_SIZE = 480  # width and height of the geodesic plot, in pixels
MAX_SAMPLES = 10_000  # upper bound of --samples and --fiber-samples


class OutputError(FinslerError):
    """A --json, --csv or --svg path that cannot be written."""


def _json_text(obj) -> str:
    """obj as the text of json.dumps(obj, indent=2, sort_keys=True): keys
    taken as str(key) and sorted, strings ASCII-escaped, floats as
    float.__repr__ or NaN, Infinity and -Infinity, numpy arrays and scalars
    as the lists and numbers they hold, and a complex number as [re, im]."""
    out = []
    _put(obj, "\n", out)
    return "".join(out)


def _put(obj, pad: str, out: list):
    """Append the JSON text of obj to out; pad is a newline and the
    indentation of the line obj starts on."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_text(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _put([float(obj.real), float(obj.imag)], pad, out)
    elif isinstance(obj, np.ndarray):
        _put_array(obj, pad, out)
    elif isinstance(obj, (dict, list, tuple)) and not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        inner = pad + "  "
        out.append("{")
        for key, value in sorted({str(k): v for k, v in obj.items()}.items()):
            out += (inner, encode_basestring_ascii(key), ": ")
            _put(value, inner, out)
            out.append(",")
        out[-1] = pad + "}"
    elif isinstance(obj, (list, tuple)):
        inner = pad + "  "
        out.append("[")
        for item in obj:
            out.append(inner)
            _put(item, inner, out)
            out.append(",")
        out[-1] = pad + "]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_text(x: float) -> str:
    """x as JSON writes it: float.__repr__, or NaN, Infinity, -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _put_array(a: np.ndarray, pad: str, out: list):
    """Append the JSON text of array a: a numeric one fills the template of
    its shape with its entries in C order, a complex one as real parts and
    imaginary parts on a last axis of 2."""
    if a.dtype.kind == "c":
        a = np.stack([a.real, a.imag], axis=-1)
    if a.dtype.kind not in "fiu":
        _put(a.tolist(), pad, out)
        return
    flat = a.ravel().tolist()
    if a.dtype.kind == "f" and not np.isfinite(a).all():
        flat = map(_float_text, flat)
    out.append(_array_template(a.shape, pad) % tuple(flat))


@functools.lru_cache(maxsize=256)
def _array_template(shape: tuple, pad: str) -> str:
    """The JSON text of an array of this shape whose line starts with pad,
    with %s for each entry in C order (str of a float is its repr)."""
    if not shape:
        return "%s"
    if not shape[0]:
        return "[]"
    inner = pad + "  "
    entry = _array_template(shape[1:], inner)
    return "[" + inner + ("," + inner).join([entry] * shape[0]) + pad + "]"


def _write(path: str, option: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {option} {path}: {exc.strerror or exc}") from None


def _check_output(path: str, option: str):
    """Fail before any work, as _write would after it, when path cannot be
    opened for writing: a directory, or in a directory that is missing, not
    a directory or not writable."""
    try:
        folder = os.path.dirname(path.rstrip(os.sep)) or "."
        if not os.path.isdir(folder):
            os.listdir(folder)  # raises the error open would give
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if os.path.isdir(path) or path.endswith(os.sep):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not os.access(folder, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise OutputError(f"cannot write {option} {path}: {exc.strerror or exc}") from None


def _emit(report: dict, path: str | None):
    text = _json_text(report)
    if path:
        _write(path, "--json", text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: drop the rest quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


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


def _point_of(point, prog, entry, option: str, lists: str | None = None):
    """The point (z, v) of ``option``: a wrong component count is a usage
    error, a base point outside the domain of a catalog metric a domain
    failure.  lists names z and v in the usage error."""
    z, v = point
    if len(z) != prog.dim or len(v) != prog.dim:
        raise argparse.ArgumentTypeError(
            f"{lists or option + ' z and v'} must each have {prog.dim} components")
    if entry is not None and not entry.domain(z):
        raise FinslerError(f"{option} base point lies outside the domain of {entry.id}")
    return z, v


def _int_in(lo: int, hi: float = math.inf):
    """Argument type: an integer in [lo, hi]."""

    def parse(text: str) -> int:
        val = int(text)
        if not lo <= val <= hi:
            raise argparse.ArgumentTypeError(f"must be an integer in [{lo}, {hi}]: {text!r}")
        return val

    return parse


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
        return [_point_of(args.at, prog, entry, "--at")]
    return sample_points(prog, entry, args.samples, args.seed)


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
    checks = []

    def add(name, residual, tol):
        checks.append({"name": name, "residual": float(residual),
                       "tolerance": float(tol), "pass": bool(residual < tol)})

    # the structure functions of the first three points, whose bracket
    # tables carry the frame data the point block reads
    structures = []

    def point_block(zv):
        z, v = zv
        out = {}
        # one jet(5, 0) a point serves the homogeneity identities and the
        # Hermitian test, which reads its cubic tensors
        jet = prog.jet_unchecked(z, v, 5, 0)
        out["homogeneity"] = homogeneity_identities(prog, z, v, jet)["max"]
        out["cubic_peak"] = cubic_form_peak(jet)
        rep = levi_check(prog, z, v)
        out["levi_min_eig"] = float(np.min(rep.eigenvalues)) if rep.eigenvalues.size \
            else 1.0
        p = adapted_frame(prog, z, v, rep)
        if len(structures) < 3:
            sf = extract_structure(prog, p)
            structures.append(sf)
            fd = sf.table.frame
        else:
            fd = frame_data(prog, p.z, p.U)
        out["gram"] = gram_residual(prog, p, fd.C(1, 1))
        # the pure quadratic form on the block e_1..e_{n-1}, which the
        # Hermitian dichotomy reads at every point
        out["sigma0"] = float(np.max(np.abs(fd.C(2, 0)[1:, 1:]), initial=0.0))
        cm = solve_connection(prog, p, fd)
        out["closed_form_gap"] = cm.closed_form_gap
        out["tangency"] = cm.closed_form_tangency
        return out

    per_point = [point_block(zv) for zv in points]
    herm, _ = hermitian_test(prog, points, [b["cubic_peak"] for b in per_point])
    add("homogeneity_identities", max(b["homogeneity"] for b in per_point), 1e-8 * scale)
    lev = min(b["levi_min_eig"] for b in per_point)
    checks.append({"name": "levi_strong_pseudoconvexity", "residual": float(lev),
                   "tolerance": 1e-10, "pass": bool(lev > 1e-10)})
    add("gram_condition", max(b["gram"] for b in per_point), 1e-10 * scale)
    add("connection_tangency", max(b["tangency"] for b in per_point), 1e-8 * scale)
    add("connection_closed_form_gap", max(b["closed_form_gap"] for b in per_point),
        1e-8 * scale)

    for sf in structures:
        r = structure_equation_residuals(sf)
        # these relative residuals and Bianchi's are round-off: at most
        # 2.6e-14 (structure equations), 1.6e-14 (the part of a bracket off
        # the fields) and 2.4e-14 (Bianchi) measured over the catalog, two
        # non-Hermitian metrics with base dependence and three metrics of
        # Levi eigenvalues down to 1e-8
        add("structure_equations", max(r["eq529"], r["eq533"], r["eq534"],
                                       r["eq535"], r["eq536"]), 1e-11 * scale)
        add("bracket_decomposition", r["decomposition_residual"], 1e-11 * scale)
    for sf in structures[:2]:
        b = bianchi_residuals(sf)
        add("bianchi_identities", max(b.values()), 1e-11 * scale)

    sigma0 = max(b["sigma0"] for b in per_point)
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


def _tensors_at(prog, z, v) -> dict:
    rep = levi_check(prog, z, v)
    p = adapted_frame(prog, z, v, rep)
    forms = forms_at(prog, p.z, p.e0, p.U)
    return {
        "z": z, "v": v, "frame": p.U,
        "h_mixed": forms[(1, 1)], "h_pure": forms[(2, 0)],
        "H": forms[(2, 1)], "H_pure": forms[(3, 0)], "HH": forms[(2, 2)],
        "levi_eigenvalues": rep.eigenvalues, "levi_verdict": rep.verdict,
    }


def _connection_at(prog, z, v) -> dict:
    p = adapted_frame(prog, z, v)
    cm = solve_connection(prog, p)
    return {
        "z": z, "v": v, "frame": p.U, "E": cm.E,
        "index_legend": "E[a][b][g]: row a, column b, direction g; "
                        "lift of frame direction w has dU = U (sum_g E[:,:,g] w^g)",
        "closed_form_gap": cm.closed_form_gap,
        "min_singular_ratio": cm.min_singular_ratio,
        "solve_residual": cm.residual,
    }


def _structure_at(prog, z, v) -> dict:
    p = adapted_frame(prog, z, v)
    sf = extract_structure(prog, p)
    res = structure_equation_residuals(sf)
    bia = bianchi_residuals(sf)
    qgap = float(np.max(np.abs(sf.Q - closed_form_Q(sf.table.frame)))) if prog.dim > 1 else 0.0
    ph, pH = closed_form_P(sf.table)
    pgap = max(float(np.max(np.abs(sf.P_h - ph), initial=0.0)),
               float(np.max(np.abs(sf.P_H - pH), initial=0.0)))
    return {
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
    }


def cmd_points(at, args) -> int:
    """The report of tensors, connection or structure: at(prog, z, v) of
    each point."""
    prog, entry = resolve_metric(args.metric)
    out = [at(prog, z, v) for z, v in _points(prog, entry, args)]
    _emit({"command": args.command, "metric": args.metric, "points": out,
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
    z0, v0 = _point_of((getattr(args, "from"), args.dir), prog, entry, "--from",
                       "--from and --dir")
    domain = entry.domain if entry is not None else None
    path = integrate_geodesic(prog, z0, v0, args.t_max, args.dt, domain=domain)
    if args.csv:
        head = ["t"]
        for k in range(prog.dim):
            head += [f"Re z{k+1}", f"Im z{k+1}"]
        lines = [",".join(head + ["F_speed", "gram_residual"])]
        for t, z, U in zip(path.ts, path.zs, path.frames):
            row = [f"{t:.10g}"]
            for zk in z:
                row += [f"{zk.real:.16g}", f"{zk.imag:.16g}"]
            gram = gram_residual(prog, BundlePoint(z, U))
            # F of the row frame's first vector, ~1 in the unit-speed gauge
            row += [f"{prog.norm(z, U[:, 0]):.16g}", f"{gram:.3e}"]
            lines.append(",".join(row))
        _write(args.csv, "--csv", "\n".join(lines) + "\n")
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


def _write_svg(path: str, zs: np.ndarray):
    size = SVG_SIZE
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
    _write(path, "--svg",
           f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
           f'viewBox="0 0 {size} {size}">\n'
           f'<rect width="{size}" height="{size}" fill="white" stroke="black"/>\n'
           f'<polyline points="{pts}" fill="none" stroke="crimson" stroke-width="1.5"/>\n'
           f'<circle cx="{sx(xs[0]):.2f}" cy="{sy(ys[0]):.2f}" r="3" fill="black"/>\n'
           "</svg>\n")


def cmd_compare(args) -> int:
    progA, entryA = resolve_metric(args.metric_a)
    progB, entryB = resolve_metric(args.metric_b)
    zA, vA = _point_of(args.at_a, progA, entryA, "--at-a")
    zB, vB = _point_of(args.at_b, progB, entryB, "--at-b")
    pA = adapted_frame(progA, zA, vA)
    pB = adapted_frame(progB, zB, vB)
    # frame A's tiers, which the comparison and the ranks read alike
    table_a = _bracket_table(frame_data(progA, pA.z, pA.U))
    rep = compare_signatures(progA, pA, progB, pB, order=args.order,
                             tol=args.tol, fiber_samples=args.fiber_samples,
                             seed=args.seed, table_a=table_a)
    rA = regularity(progA, pA, alpha_max=min(args.order + 1, 2), table=table_a)
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

def _common(sub):
    """The options of the commands that run at sample points or at --at."""
    sub.add_argument("--metric", required=True, help="catalog id or metric file")
    sub.add_argument("--at", type=_parse_point, help='point, e.g. "z=0.3+0i,0;v=1,0"')
    sub.add_argument("--samples", type=_int_in(1, MAX_SAMPLES), default=10)
    sub.add_argument("--seed", type=_int_in(0), default=0)
    sub.add_argument("--json", help="write the JSON report to this path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was, so every call of main can share it."""
    ap = argparse.ArgumentParser(
        prog="finslerlab",
        description="Invariants of strongly pseudoconvex complex Finsler metrics")
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("list-metrics", help="print the built-in metric catalog")
    s.add_argument("--json")
    s.set_defaults(fn=cmd_list_metrics)

    s = sp.add_parser("check", help="run the full identity suite")
    _common(s)
    s.add_argument("--tol", type=_positive_float, default=1.0,
                   help="scale factor of the residual tolerances")
    s.set_defaults(fn=cmd_check)

    for name, at, help_text in (
            ("tensors", _tensors_at, "fiber forms and Levi data at points"),
            ("connection", _connection_at, "connection coefficients at points"),
            ("structure", _structure_at, "structure functions and residuals")):
        s = sp.add_parser(name, help=help_text)
        _common(s)
        s.set_defaults(fn=functools.partial(cmd_points, at))

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
    s.add_argument("--order", type=_int_in(0, 2), default=0)
    s.add_argument("--fiber-samples", type=_int_in(0, MAX_SAMPLES), default=0)
    s.add_argument("--seed", type=_int_in(0), default=0)
    s.add_argument("--tol", type=_positive_float, default=1e-3)
    s.add_argument("--json")
    s.set_defaults(fn=cmd_compare)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_attach_point_values(sys.argv[1:] if argv is None else argv))
    try:
        # numpy warnings stay off stderr: a non-finite value is a FinslerError
        with np.errstate(all="ignore"):
            for option in ("json", "csv", "svg"):
                path = getattr(args, option, None)
                if path:
                    _check_output(path, "--" + option)
            return args.fn(args)
    except argparse.ArgumentTypeError as exc:
        ap.error(str(exc))  # exits 2, as for any other malformed argument
    except FinslerError as exc:
        diag = {"error": str(exc), "type": type(exc).__name__,
                "command": getattr(args, "command", None)}
        print(_json_text(diag), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
