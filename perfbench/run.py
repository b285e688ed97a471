"""Benchmark of the finslerlab report pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each report is one in-process call of
``finslerlab.cli.main(argv)``; the call compiles its metric afresh, as a CLI
process does, so the program's jet cache starts cold.  One closed-loop client
sends whole rounds of reports for ``--seconds``, and every report is judged
against closed-form references (``workloads.py``).  Times are reported in
reference seconds (``calibration.py``); wall seconds are recorded beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the reports
untraced for half the time, then the same reports again with every layer
wrapped (``tracing.py``), and prints the per-layer metrics per report.  The
last line of standard output is the JSON result; the exit code is 1 when a
report fails to finish or disagrees with its reference.  Results and spans go to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

# set-up is sub-second, so one sample moves by more than the bound; the
# median of samples spread over the whole run does not
SETUP_SAMPLES = 9

# the CPUs the benchmark may use, as nproc counts them, before any pinning
CPUS = sorted(os.sched_getaffinity(0))

# the default FINSLERLAB_THREADS, and one BLAS thread, on a 2-CPU machine
SINGLE_THREAD = {"FINSLERLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pin(turn: int) -> None:
    """Pin the process to the next CPU in turn.  Each CPU of a shared
    machine drifts in speed by itself; taking them in turn spreads a run
    over all of them, and keeps a calibration and the work it scales on
    the same CPU."""
    os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


class SetupSampler:
    """Times fresh interpreters from their start until the first report is
    ready to run (import, metrics compiled, jet tables built), spreading
    ``SETUP_SAMPLES`` of them evenly over ``seconds``."""

    def __init__(self, workload: str, tables, seconds: float, calibration):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload,
                     *(",".join(map(str, t)) for t in tables)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.calibration = calibration
        self.interval = seconds / SETUP_SAMPLES
        self.due = time.monotonic()
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.samples: list[float] = []  # reference seconds

    def _child(self) -> float:
        start = time.monotonic()
        out = subprocess.run(self.argv, env=self.env, capture_output=True, text=True,
                             timeout=120, check=True)
        # CLOCK_MONOTONIC is one clock for every process of the machine
        done, cpu = map(float, out.stdout.split()[-2:])
        self.cpu.append(cpu)
        return done - start

    def _sample(self):
        pin(len(self.samples))  # the child inherits the CPU
        wall, ref = self.calibration.scaled(self._child)
        self.wall.append(wall)
        self.samples.append(ref)

    def poll(self):
        """Take the samples that are due by now."""
        while len(self.samples) < SETUP_SAMPLES and time.monotonic() >= self.due:
            self._sample()
            self.due += self.interval

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_SAMPLES:
            self._sample()
        return self.samples


def median(xs) -> float:
    """The median, or 0 when every report failed (the run is then incorrect)."""
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def rate(times) -> float:
    """Reports per second of the summed times, or 0 when none was timed."""
    return len(times) / sum(times) if times else 0.0


class Client:
    """Runs reports one after another and keeps what each one gave."""

    def __init__(self, cli, calibration):
        self.cli = cli
        self.calibration = calibration
        self.attempted = 0
        self.last_wall = 0.0
        # per timed report: (reference, wall, thread CPU) seconds; per whole
        # round: the same, divided by the reports in the round
        self.times: list[tuple[float, float, float]] = []
        self.rounds: list[tuple[float, float, float]] = []
        self.digits: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self._round_start = 0

    def column(self, i: int, rows=None) -> list[float]:
        return [t[i] for t in (self.times if rows is None else rows)]

    def warm_up(self, report) -> None:
        """Run one report as set-up: untimed, unjudged and uncounted.  The
        first report of a process runs on a cold allocator and pays about a
        million page faults that later reports do not, so timing it would
        make a run's figures depend on how many reports it held.  It also
        builds the jet tables the program asks for (``workloads.jet_tables``)."""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                self.cli.main(report.argv)
        except (Exception, SystemExit):
            pass  # the same report runs again, counted, and shows the failure

    def _fail(self, report, why: str) -> None:
        self.failed += 1
        self.errors.append(f"{' '.join(report.argv)}: failed: {why}")

    def run(self, report) -> None:
        pin(self.attempted)
        # a CLI process never holds an earlier report's garbage; collecting
        # it first keeps the cyclic collector, and the allocator state it
        # leaves behind, from deciding how long this report takes
        gc.collect()
        self.attempted += 1
        out = io.StringIO()
        code = cpu = None

        def call() -> float:
            nonlocal code, cpu
            start, cpu_start = time.perf_counter(), time.thread_time()
            with contextlib.redirect_stdout(out):
                code = self.cli.main(report.argv)
            cpu = time.thread_time() - cpu_start
            return time.perf_counter() - start

        try:
            # one kernel run per half second of the last report
            wall, ref = self.calibration.scaled(call, max(1, round(self.last_wall / 0.5)))
        except SystemExit as exc:  # argparse: the diagnostic went to stderr
            self._fail(report, f"exit {exc.code}")
            return
        except Exception as exc:
            traceback.print_exc()
            self._fail(report, repr(exc))
            return
        if code:  # 1: a check failed; 3: FinslerError, diagnostic on stderr
            self._fail(report, f"exit {code}")
            return
        self.last_wall = wall
        self.times.append((ref, wall, cpu))
        try:
            d = report.judge(json.loads(out.getvalue()))
        except Exception as exc:  # Incorrect, or a report missing its fields
            self.errors.append(f"{' '.join(report.argv)}: {exc!r}")
            return
        if d is not None:
            self.digits.append(d)

    def end_round(self, size: int) -> None:
        """Close a round of ``size`` reports: its time per report is one
        sample of ``report_p50_s``.  A round holds its kinds of report in a
        fixed proportion, so these samples form one cluster even when the
        kinds cost differently (``compare_ball2``)."""
        timed = self.times[self._round_start:]
        if len(timed) == size:
            self.rounds.append(tuple(sum(col) / size for col in zip(*timed)))
        self._round_start = len(self.times)


def run_rounds(client, rounds, deadline: float, between=None) -> int:
    """Run whole rounds until the deadline, calling ``between`` after each
    report; return the number of rounds run.

    A round starts only if, judged by the length of the last one, it would
    end less than half a round past the deadline, so a run of long rounds
    ends near the deadline on average instead of always past it.
    At least one round runs.
    """
    done, last = 0, 0.0
    for rnd in rounds:
        begun = time.monotonic()
        if done and begun + last / 2 >= deadline:
            break
        for report in rnd:
            client.run(report)
            if between:
                between()
        client.end_round(len(rnd))
        done += 1
        last = time.monotonic() - begun
    return done


def end_to_end(workload, rounds, seconds: float, calibration):
    import workloads

    import finslerlab.cli as cli

    client = Client(cli, calibration)
    first = next(rounds)
    client.warm_up(first[0])
    tables = workloads.jet_tables()
    start = time.monotonic()
    sampler = SetupSampler(workload.name, tables, seconds, calibration)
    sampler.poll()
    run_rounds(client, itertools.chain([first], rounds), start + seconds, sampler.poll)
    setup = sampler.finish()
    metrics = {
        "setup_s": (median(setup), "s"),
        "reports_per_s": (rate(client.column(0)), "report/s"),
        "report_p50_s": (median(client.column(0, client.rounds)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "accuracy_digits": (min(client.digits, default=0.0), "digits"),
    }
    # the same figures in wall seconds and in CPU seconds, beside them
    other = {base: {
        "setup_s": median(samples),
        "reports_per_s": rate(client.column(i)),
        "report_p50_s": median(client.column(i, client.rounds)),
    } for base, i, samples in (("wall", 1, sampler.wall), ("cpu", 2, sampler.cpu))}
    return metrics, (client,), {"other_bases": other, "jet_tables": tables,
                                "jet_tables_built_by_timed_reports":
                                    sorted(set(workloads.jet_tables()) - set(tables)),
                                "setup_samples": setup, "setup_wall_samples": sampler.wall,
                                "setup_cpu_samples": sampler.cpu}, None


def per_layer(workload, rounds, seconds: float, calibration):
    import workloads
    from tracing import Tracer, layer_metrics

    import finslerlab.cli as cli
    from finslerlab.jets import jet_space

    plain = Client(cli, calibration)
    ran = [next(rounds)]
    plain.warm_up(ran[0][0])
    # build the tables the warm-up asked for again, traced
    tables = workloads.jet_tables()
    jet_space.cache_clear()
    with Tracer() as setup_tracer:
        workloads.setup(workload.name, tables)
    start = time.monotonic()

    def recorded():
        yield ran[0]
        for rnd in rounds:
            ran.append(rnd)
            yield rnd

    run_rounds(plain, recorded(), start + seconds / 2)
    traced = Client(cli, calibration)
    with Tracer() as tracer:
        n = run_rounds(traced, ran, start + seconds)
    reports = sum(len(r) for r in ran[:n])
    untraced_s = statistics.mean(plain.column(0) or [0.0])
    traced_s = statistics.mean(traced.column(0) or [0.0])
    names, _, dur, _ = setup_tracer.arrays()
    metrics = layer_metrics(tracer, reports)
    metrics.update({
        "jets.space_build_s": (float(dur[names == "jets.JetSpace.__init__"].sum()), "s"),
        "trace.overhead_ratio": (traced_s / untraced_s if untraced_s else 0.0, "ratio"),
        "trace.traced_report_s": (traced_s, "s"),
        "trace.untraced_report_s": (untraced_s, "s"),
    })
    return metrics, (plain, traced), {"traced_reports": reports, "jet_tables": tables}, tracer


def environment() -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(CPUS), **SINGLE_THREAD}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "finslerlab" / "cli.py").is_file():
        print(f"error: no finslerlab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads
    from calibration import Calibration

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)

    def rounds():
        while True:
            yield workload.make_round(rng)

    measure = per_layer if args.trace else end_to_end
    metrics, clients, extra, tracer = measure(workload, rounds(), args.seconds,
                                              Calibration())

    attempted = sum(c.attempted for c in clients)
    failed = sum(c.failed for c in clients)
    # a report that failed to finish is an error as much as a wrong one
    errors = [e for c in clients for e in c.errors]
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    env = environment()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "environment": env, "errors": errors, **result,
              "report_seconds": [c.column(0) for c in clients],
              "report_wall_seconds": [c.column(1) for c in clients],
              "report_cpu_seconds": [c.column(2) for c in clients],
              "report_digits": [c.digits for c in clients], **extra}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.npz")

    for e in errors:
        print(f"INCORRECT {e}", file=sys.stderr)
    for t in extra.get("jet_tables_built_by_timed_reports", ()):
        print(f"warning: jet table {t} was first built by a timed report, so "
              "setup_s leaves it out", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  "
          + "  ".join(f"{k} {v}" for k, v in env.items()))
    print(f"reports attempted {attempted}  failed {failed}  "
          f"incorrect {len(errors) - failed}")
    if "other_bases" in extra:
        print("times below are in reference seconds (calibration.py); the same in")
        for base, figures in extra["other_bases"].items():
            print(f"  {base} seconds: "
                  + "  ".join(f"{k} {v:.6g}" for k, v in figures.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
