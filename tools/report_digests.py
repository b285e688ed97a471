"""Digests of a fixed set of CLI reports, for diffing two versions of the program.

    python3 tools/report_digests.py > digests.txt

Run from anywhere; it imports finslerlab from the ``src`` directory of the
checkout it lives in, and the workload generators from its ``perfbench``.
Every report is one in-process call of ``finslerlab.cli.main(argv)`` with
one BLAS thread.  Each prints one line, ``sha1  exit-code  argv``: the
SHA-1 of the report's JSON with its ``timestamp`` removed, followed, for a
``--csv`` run, by the CSV's text, and then by what the report wrote to
stderr.  The set is

- the benchmark's workload rounds at rng seed 4242: 60 ``structure_ball3``,
  20 ``check_l4``, 20 ``compare_ball2`` and 2 ``geodesic_disc``;
- ``structure``, ``check``, ``classify``, ``tensors`` and ``connection``
  with default arguments on every catalog metric;
- three ``geodesic --csv`` runs;
- five ``compare`` runs off the workloads' path: order 2 on
  ``l4_finsler`` (its ranks read tier 3), a fiber search on a
  ``hermitian_nonconstant`` pair whose frames differ by a structure-group
  element, order 1 on two ``poincare_ball_3`` frames, a cross-dimension
  pair and a degenerate ``l4_finsler`` point, which exits 3;
- ``classify`` and ``connection`` at 3 samples.

To see which reports a change moves, copy this script into a checkout of
each version and diff the two outputs.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from finslerlab import cli  # noqa: E402
from finslerlab.registry import catalog  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 4242
ROUNDS = {"structure_ball3": 60, "check_l4": 20, "compare_ball2": 20, "geodesic_disc": 2}
GEODESIC_CSV = (
    ["--metric", "poincare_disc", "--from", "0.1", "--dir", "1",
     "--t-max", "0.5", "--dt", "0.01"],
    ["--metric", "poincare_ball_2", "--from", "0.2,0.1i", "--dir", "1,0.5",
     "--t-max", "0.4", "--dt", "0.01"],
    ["--metric", "l4_finsler", "--from", "0.1,0.2", "--dir", "1,0.5i",
     "--t-max", "0.3", "--dt", "0.01"],
)
COMPARE = (
    ["--metric-a", "l4_finsler", "--metric-b", "l4_finsler", "--at-a", "z=0.1,0.2;v=1,0.5",
     "--at-b", "z=0.1,-0.4;v=1,0.5i", "--order", "2"],
    ["--metric-a", "hermitian_nonconstant", "--metric-b", "hermitian_nonconstant",
     "--at-a", "z=0.1,0.2;v=1,0.5", "--at-b", "z=0.1,0.2;v=1j,0.5j", "--order", "1",
     "--fiber-samples", "3", "--seed", "1"],
    ["--metric-a", "poincare_ball_3", "--metric-b", "poincare_ball_3",
     "--at-a", "z=0.1,0.2i,0;v=1,0,0.5", "--at-b", "z=0,-0.3,0.1;v=0,1,1j", "--order", "1"],
    ["--metric-a", "poincare_ball_3", "--metric-b", "fubini_study_2",
     "--at-a", "z=0.1,0.2i,0;v=1,0,0.5", "--at-b", "z=0.1,0.2;v=1,0.5"],
    ["--metric-a", "l4_finsler", "--metric-b", "l4_finsler", "--at-a", "z=0,0;v=1,0",
     "--at-b", "z=0.1,0;v=1,0.5"],
)


def report_set() -> list:
    argvs = []
    for name, count in ROUNDS.items():
        rng = np.random.default_rng(SEED)
        for _ in range(count):
            argvs += [r.argv for r in WORKLOADS[name].make_round(rng)]
    for entry in catalog():
        for command in ("structure", "check", "classify", "tensors", "connection"):
            argvs.append([command, "--metric", entry.id])
    for i, args in enumerate(GEODESIC_CSV):
        argvs.append(["geodesic"] + args + ["--csv", f"geodesic_{i}.csv"])
    argvs += [["compare"] + args for args in COMPARE]
    argvs += [["classify", "--metric", "l4_finsler", "--samples", "3"],
              ["connection", "--metric", "hermitian_nonconstant", "--samples", "3"]]
    return argvs


def digest(argv: list) -> tuple:
    """(sha1, exit code) of one report: its JSON without the timestamp,
    then the text of its --csv file, if any, then what it wrote to stderr
    (the diagnostic of a failed report)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    try:
        report = json.loads(text)
        report.pop("timestamp", None)
        text = json.dumps(report, sort_keys=True)
    except json.JSONDecodeError:
        pass  # not a report, hashed as printed
    if "--csv" in argv:
        path = Path(argv[argv.index("--csv") + 1])
        text += path.read_text() if path.exists() else ""
    text += err.getvalue()
    return hashlib.sha1(text.encode()).hexdigest(), code


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the --csv files are written here
        for argv in report_set():
            sha, code = digest(argv)
            print(f"{sha}  {code}  {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
