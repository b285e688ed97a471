import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import finslerlab
from finslerlab import (cli, connection, equivalence, finsler_forms, frame_bundle, geodesics,
                        parallelism)
from finslerlab.cli import MAX_SAMPLES, main
from finslerlab.metric_dsl import MetricProgram


def run(argv):
    return main(argv)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_list_metrics(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run(["list-metrics", "--json", str(out)]) == 0
    rep = load(out)
    assert any(m["id"] == "poincare_disc" for m in rep["metrics"])
    capsys.readouterr()


def test_check_flat_passes(tmp_path, capsys):
    out = tmp_path / "check.json"
    code = run(["check", "--metric", "flat_2", "--samples", "4",
                "--seed", "7", "--json", str(out)])
    assert code == 0
    rep = load(out)
    assert rep["all_pass"]
    names = {c["name"] for c in rep["checks"]}
    assert {"homogeneity_identities", "levi_strong_pseudoconvexity",
            "gram_condition", "connection_tangency", "structure_equations",
            "bianchi_identities", "hermitian_dichotomy"} <= names
    capsys.readouterr()


def test_check_reads_sigma0_at_every_sample(tmp_path, capsys, twisted):
    # the Hermitian dichotomy reads sigma0, the largest entry of the pure
    # quadratic form on the block e_1..e_{n-1}, at every sample, not only at
    # the three that get structure functions: on twisted, with seed 0, the
    # largest of ten is at sample 7 (0.499997), and the first three reach
    # 0.499758 (sample 1)
    from finslerlab.finsler_forms import forms_at
    from finslerlab.frame_bundle import adapted_frame
    from finslerlab.registry import sample_points

    metric = tmp_path / "twisted.fmetric"
    metric.write_text(f"dim = 2\nF2 = {twisted.source.f2_expr}\n", encoding="utf-8")
    out = tmp_path / "check.json"
    assert run(["check", "--metric", str(metric), "--samples", "10", "--seed", "0",
                "--json", str(out)]) == 0
    capsys.readouterr()
    rep = load(out)
    sigma0 = []
    for z, v in sample_points(twisted, None, 10, 0):
        p = adapted_frame(twisted, z, v)
        sigma0.append(float(np.max(np.abs(forms_at(twisted, p.z, p.e0, p.U).h_pure[1:, 1:]))))
    assert int(np.argmax(sigma0)) == 7 and max(sigma0[:3]) < max(sigma0) - 2e-4
    assert abs(rep["sigma0_norm"] - max(sigma0)) <= 1e-12
    dichotomy = next(c for c in rep["checks"] if c["name"] == "hermitian_dichotomy")
    assert dichotomy["residual"] == rep["sigma0_norm"] and dichotomy["pass"]


def test_check_quartic_norm_reports_dichotomy(tmp_path, capsys):
    out = tmp_path / "check.json"
    code = run(["check", "--metric", "l4_finsler", "--samples", "4",
                "--seed", "1", "--json", str(out)])
    assert code == 0
    rep = load(out)
    assert rep["all_pass"]
    assert rep["hermitian"] is False
    assert rep["sigma0_norm"] > 1e-3
    capsys.readouterr()


def assert_check_fails_only(tmp_path, capsys, metric, name):
    """check at two points of metric fails the check name at both and
    passes every other check."""
    out = tmp_path / "check.json"
    assert run(["check", "--metric", metric, "--samples", "2", "--seed", "1",
                "--json", str(out)]) == 1
    checks = load(out)["checks"]
    assert [c["pass"] for c in checks if c["name"] == name] == [False] * 2
    assert all(c["pass"] for c in checks if c["name"] != name)
    capsys.readouterr()


def test_check_fails_a_bracket_off_the_fields(tmp_path, capsys, monkeypatch):
    # 1e-9 times an increment off the fields' span, the frame's scaling
    # (delta, A) = (0, I) along which the Gram map moves, added to one
    # bracket fails bracket_decomposition and no other check
    table = parallelism._bracket_table

    def displaced(fd):
        t = table(fd)
        off = 1e-9 * parallelism._increment_coordinates(np.zeros(fd.n), np.eye(fd.n))
        br = t.br.copy()
        br[0, 1] += off
        br[1, 0] -= off
        return dataclasses.replace(t, br=br)

    monkeypatch.setattr(parallelism, "_bracket_table", displaced)
    assert_check_fails_only(tmp_path, capsys, "l4_finsler", "bracket_decomposition")


def test_check_fails_a_vertical_curvature_off_by_1e_9(tmp_path, capsys, monkeypatch):
    # the closed-form Q the structure equations compare, scaled by 1 + 1e-9,
    # fails structure_equations (6.7e-10 relative measured) and no other
    # check
    closed = parallelism.closed_form_Q
    monkeypatch.setattr(parallelism, "closed_form_Q", lambda fd: closed(fd) * (1 + 1e-9))
    assert_check_fails_only(tmp_path, capsys, "l4_finsler", "structure_equations")


def test_check_fails_curvature_lift_derivatives_off_by_1e_9(tmp_path, capsys, monkeypatch):
    # the curvature's derivatives along the lifts times 1 + 1e-9 noise fail
    # bianchi_identities (at least 1.3e-10 measured) and no other check; on
    # a Kaehler metric a uniform scale keeps the symmetry they are checked
    # for, so the noise is what breaks it
    lift = parallelism._lift_derivative_of
    rng = np.random.default_rng(0)

    def noisy(sf):
        return tuple(d * (1 + 1e-9 * rng.standard_normal(d.shape)) for d in lift(sf))

    monkeypatch.setattr(parallelism, "_lift_derivative_of", noisy)
    assert_check_fails_only(tmp_path, capsys, "hermitian_nonconstant", "bianchi_identities")


@pytest.mark.parametrize("name", ["nd1", "nd2", "nd3"])
def test_check_passes_near_degenerate_levi_forms(near_degenerate, tmp_path, capsys, name):
    # the structure-equation residuals are relative to the terms they sum:
    # on nd3, absolute, eq536 reached 3.8e-9 over the 20 points of this
    # seed (|Q| up to 1.3e8) and failed check at 1.2e-10; relative, it is at
    # most 2.6e-14
    assert run(["check", "--metric", near_degenerate[name], "--samples", "20",
                "--seed", "5"]) == 0
    capsys.readouterr()


def test_check_reproducible(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["check", "--metric", "flat_2", "--samples", "3",
                "--seed", "7", "--json", str(a)]) == 0
    assert run(["check", "--metric", "flat_2", "--samples", "3",
                "--seed", "7", "--json", str(b)]) == 0
    ra, rb = load(a), load(b)
    ra.pop("timestamp")
    rb.pop("timestamp")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    capsys.readouterr()


def test_classify_ball(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = run(["classify", "--metric", "poincare_ball_2", "--samples", "5",
                "--seed", "1", "--json", str(out)])
    assert code == 0
    rep = load(out)["report"]
    assert rep["e_manifold"] is True
    assert abs(rep["constant_hsc"]["c"] + 4.0) < 1e-3
    capsys.readouterr()


def test_structure_schema(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = run(["structure", "--metric", "l4_finsler",
                "--at", "z=0.1,0.2;v=1,0.8", "--json", str(out)])
    assert code == 0
    pt = load(out)["points"][0]
    assert {"point", "frame", "T", "R", "P", "Q", "h_vert", "H_vert",
            "residuals", "finsler_norms"} <= set(pt)
    assert {"eq529", "eq533", "eq534", "eq535", "eq536", "bianchi"} \
        <= set(pt["residuals"])
    assert {"sigma", "sigma0", "pi", "phi"} <= set(pt["finsler_norms"])
    capsys.readouterr()


def test_connection_and_tensors(tmp_path, capsys):
    out = tmp_path / "e.json"
    assert run(["connection", "--metric", "poincare_disc",
                "--at", "z=0.5;v=1", "--json", str(out)]) == 0
    rep = load(out)["points"][0]
    assert rep["E"][0][0][0][0] == pytest.approx(-1.0, abs=1e-10)
    out2 = tmp_path / "t.json"
    assert run(["tensors", "--metric", "flat_2",
                "--at", "z=0,0;v=1,0", "--json", str(out2)]) == 0
    t = load(out2)["points"][0]
    h = np.array(t["h_mixed"])  # [[re, im] entries]
    assert h[0, 0, 0] == pytest.approx(1.0)
    # a metric file whose F2 is a flat sum of 1,200 terms
    long_fm = tmp_path / "long.fm"
    long_fm.write_text(long_metric_file(0))
    assert run(["tensors", "--metric", str(long_fm), "--at", "z=0.1;v=1",
                "--json", str(out2)]) == 0
    t = load(out2)["points"][0]
    assert t["frame"][0][0][0] == pytest.approx(1 / np.sqrt(1200))
    capsys.readouterr()


def long_metric_file(depth: int) -> str:
    """dim = 1 and F2 = 1,200 abs2(v1) terms in `depth` parentheses."""
    return f"dim = 1\nF2 = {'(' * depth}{' + '.join(['abs2(v1)'] * 1200)}{')' * depth}\n"


def test_geodesic_csv_svg(tmp_path, capsys):
    csv = tmp_path / "g.csv"
    svg = tmp_path / "g.svg"
    out = tmp_path / "g.json"
    code = run(["geodesic", "--metric", "poincare_disc", "--from", "0",
                "--dir", "1", "--t-max", "1", "--dt", "0.005",
                "--csv", str(csv), "--svg", str(svg), "--json", str(out)])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,Re z1,Im z1,F_speed,gram_residual"
    assert len(lines) == 202
    assert svg.read_text().startswith("<svg")
    rep = load(out)
    assert abs(rep["endpoint"][0][0] - np.tanh(1.0)) < 1e-4
    capsys.readouterr()


def test_compare_command(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    code = run(["compare", "--metric-a", "flat_1", "--metric-b", "poincare_disc",
                "--at-a", "z=0;v=1", "--at-b", "z=0;v=1",
                "--order", "0", "--json", str(out)])
    assert code == 0
    rep = load(out)
    assert rep["comparison"]["verdict"] == "differ"
    assert rep["comparison"]["distance"] > 1.0
    capsys.readouterr()


def test_tol_scales_check_and_thresholds_compare(capsys):
    def report(argv):
        assert run(argv) == 0
        return json.loads(capsys.readouterr().out)

    check = ["check", "--metric", "flat_1", "--samples", "1"]
    base, scaled = report(check), report(check + ["--tol", "4"])
    # every tolerance is scaled but the two thresholds on non-zero quantities
    fixed = {"levi_strong_pseudoconvexity", "hermitian_dichotomy"}
    assert [c["tolerance"] * (1 if c["name"] in fixed else 4) for c in base["checks"]] == \
        [c["tolerance"] for c in scaled["checks"]]
    compare = ["compare", "--metric-a", "flat_1", "--metric-b", "poincare_disc",
               "--at-a", "z=0;v=1", "--at-b", "z=0;v=1"]
    default, loose = report(compare), report(compare + ["--tol", "1e6"])
    assert default["comparison"]["tolerance"] == 1e-3
    assert (default["comparison"]["verdict"], loose["comparison"]["verdict"]) == \
        ("differ", "match")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_compare_across_chart_dimensions_is_strict_json(capsys):
    # RFC 8259 JSON has no Infinity: metrics of different dimensions differ
    # with a null distance
    code = run(["compare", "--metric-a", "poincare_disc", "--metric-b", "poincare_ball_2",
                "--at-a", "z=0;v=1", "--at-b", "z=0,0;v=1,0"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert rep["comparison"]["verdict"] == "differ"
    assert rep["comparison"]["reason"] == "different chart dimensions"
    assert rep["comparison"]["distance"] is None


def test_at_parser_accepts_i_suffix(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run(["tensors", "--metric", "flat_2",
                "--at", "z=0.3+0i,0;v=1,0", "--json", str(out)]) == 0
    capsys.readouterr()


BAD_ARGUMENTS = [
    ["check"],  # missing --metric
    ["geodesic", "--metric", "poincare_disc", "--from", "0", "--dir", "1", "--dt", "0"],
    ["geodesic", "--metric", "poincare_disc", "--from", "0", "--dir", "1", "--dt", "-0.1"],
    ["geodesic", "--metric", "poincare_disc", "--from", "0", "--dir", "1", "--t-max", "-1"],
    ["geodesic", "--metric", "poincare_disc", "--from", "nan", "--dir", "1"],
    ["tensors", "--metric", "poincare_disc", "--at", "z=0.5;v=inf"],
    ["tensors", "--metric", "poincare_disc", "--at", "z=0.5;w=1"],
    ["check", "--metric", "flat_1", "--samples", "0"],
    ["check", "--metric", "flat_1", "--samples", "-3"],
    # point component counts are checked against the metric's dimension
    ["tensors", "--metric", "poincare_disc", "--at", "z=0.5,1;v=1"],
    ["compare", "--metric-a", "poincare_ball_2", "--metric-b", "poincare_ball_2",
     "--at-a", "z=0.1;v=1", "--at-b", "z=0.1,0.2;v=1,0.5"],
    # signature order 0..2, fiber samples >= 0, tolerances positive and finite
    ["compare", "--metric-a", "poincare_disc", "--metric-b", "poincare_disc",
     "--at-a", "z=0.1;v=1", "--at-b", "z=0.2;v=1", "--order", "-1"],
    ["compare", "--metric-a", "poincare_disc", "--metric-b", "poincare_disc",
     "--at-a", "z=0.1;v=1", "--at-b", "z=0.2;v=1", "--order", "3"],
    ["compare", "--metric-a", "poincare_disc", "--metric-b", "poincare_disc",
     "--at-a", "z=0.1;v=1", "--at-b", "z=0.2;v=1", "--fiber-samples", "-2"],
    ["check", "--metric", "flat_1", "--samples", "1", "--tol", "0"],
    ["check", "--metric", "flat_1", "--samples", "1", "--tol", "nan"],
    # --tol belongs to check and compare only
    ["tensors", "--metric", "flat_1", "--samples", "1", "--tol", "1"],
    ["connection", "--metric", "flat_1", "--samples", "1", "--tol", "1"],
    ["structure", "--metric", "flat_1", "--samples", "1", "--tol", "1"],
    ["classify", "--metric", "flat_1", "--samples", "1", "--tol", "1"],
    # seeds are non-negative
    ["check", "--metric", "poincare_disc", "--samples", "1", "--seed", "-1"],
    ["compare", "--metric-a", "poincare_disc", "--metric-b", "poincare_disc",
     "--at-a", "z=0.1;v=1", "--at-b", "z=0.2;v=1", "--fiber-samples", "0", "--seed", "-3"],
    # sample counts are bounded above
    ["check", "--metric", "flat_1", "--samples", str(MAX_SAMPLES + 1)],
    ["compare", "--metric-a", "poincare_disc", "--metric-b", "poincare_disc",
     "--at-a", "z=0.1;v=1", "--at-b", "z=0.2;v=1", "--fiber-samples", "99999999999"],
]


def test_bad_arguments_exit_2(capsys):
    for argv in BAD_ARGUMENTS:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err, argv


def test_one_parser_serves_every_call_in_a_process(capsys):
    # main builds its parser once per process: a report, a usage error and
    # another subcommand, in that order, each give the exit code and output
    # they give with a parser built for them alone
    calls = [["structure", "--metric", "poincare_disc", "--at", "z=0.1+0.2i;v=1"],
             ["check", "--metric", "poincare_disc", "--samples", "0"],
             ["tensors", "--metric", "poincare_ball_2", "--samples", "1", "--seed", "2"]]

    def outcome(argv):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        rep = json.loads(out) if out else None
        if rep is not None:
            rep.pop("timestamp")
        return code, rep, err

    shared = [outcome(argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, _, _ in shared] == [0, 2, 0]
    assert "usage:" in shared[1][2]
    assert shared == fresh


def test_point_values_may_start_with_minus(tmp_path, capsys):
    reports = []
    for argv in (["--from", "-0.3+0.1i", "--dir", "-1"],
                 ["--from=-0.3+0.1i", "--dir=-1"]):
        out = tmp_path / "g.json"
        assert run(["geodesic", "--metric", "poincare_disc", *argv, "--t-max", "0.1",
                    "--dt", "0.01", "--json", str(out)]) == 0
        rep = load(out)
        rep.pop("timestamp")
        reports.append(rep)
    assert reports[0] == reports[1]
    assert reports[0]["from"] == [[-0.3, 0.1]]
    capsys.readouterr()


@pytest.mark.parametrize("metric, start, direction, code", [
    ("poincare_disc", "0,0", "1", 2),
    ("poincare_ball_2", "0", "1,0", 2),
    ("poincare_ball_2", "0,0", "1,0,0", 2),
    ("poincare_disc", "2", "1", 3),
])
def test_geodesic_start_and_direction_are_checked(capsys, metric, start, direction, code):
    # as for --at: a wrong component count is a usage error, a start outside
    # the catalog domain a domain failure
    argv = ["geodesic", "--metric", metric, "--from", start, "--dir", direction,
            "--t-max", "0.01", "--dt", "0.005"]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "usage:" in err and "components" in err
    else:
        got = run(argv)
        err = capsys.readouterr().err
        assert_clean_exit(got, err)
        assert got == 3
        assert json.loads(err)["error"] == \
            f"--from base point lies outside the domain of {metric}"


def test_numerical_failure_exit_3(capsys):
    code = run(["tensors", "--metric", "poincare_disc", "--at", "z=0;v=0"])
    assert code == 3
    code = run(["check", "--metric", "no_such_metric"])
    assert code == 3
    capsys.readouterr()


def test_point_outside_catalog_domain_exit_3(tmp_path, capsys):
    for argv in (["connection", "--metric", "poincare_disc", "--at", "z=2;v=1"],
                 ["compare", "--metric-a", "poincare_ball_2", "--metric-b", "poincare_ball_2",
                  "--at-a", "z=0.1,0;v=1,0", "--at-b", "z=0.7,0.7;v=1,0"]):
        assert run(argv) == 3, argv
        err = capsys.readouterr().err
        assert "outside the domain" in json.loads(err)["error"], argv
    # a metric file has no catalog domain
    disc_fm = tmp_path / "disc.fm"
    disc_fm.write_text("dim = 1\nF2 = abs2(v1)/(1 - abs2(z1))^2\n")
    assert run(["connection", "--metric", str(disc_fm), "--at", "z=2;v=1"]) == 0
    capsys.readouterr()


def test_deeply_nested_metric_file_exit_3(tmp_path, capsys):
    deep_fm = tmp_path / "deep.fm"
    deep_fm.write_text(long_metric_file(400))
    assert run(["tensors", "--metric", str(deep_fm), "--at", "z=0.1;v=1"]) == 3
    err = capsys.readouterr().err
    assert json.loads(err)["type"] == "MetricSyntaxError"
    assert "Traceback" not in err


def test_continued_metric_file_is_read_whole(tmp_path, capsys):
    # an F2 that continues on the next line is the whole expression: the
    # disc, not the flat metric its first line would be
    reports = []
    for name, f2 in (("one.fm", "abs2(v1)/(1 - abs2(z1))^2"),
                     ("two.fm", "abs2(v1)\n   / (1 - abs2(z1))^2")):
        path = tmp_path / name
        path.write_text(f"dim = 1\nF2 = {f2}\n")
        assert run(["classify", "--metric", str(path), "--samples", "3", "--seed", "1"]) == 0
        rep = json.loads(capsys.readouterr().out)
        reports.append(rep["report"])
    assert reports[0] == reports[1]
    assert reports[0]["constant_hsc"]["c"] == pytest.approx(-4.0, abs=1e-6)


@pytest.mark.parametrize("name, content, error_type", [
    ("a directory", None, "FinslerError"),
    ("a 0xFF byte", b"dim = 1\nF2 = abs2(v1)\xff\n", "FinslerError"),
    ("a superscript two", "dim = 1\nF2 = abs2(v1)\u00b2\n", "MetricSyntaxError"),
    ("an Arabic-Indic index", "dim = 1\nF2 = abs2(v\u0661)\n", "MetricSyntaxError"),
    ("an Arabic-Indic dim", "dim = \u0661\nF2 = abs2(v1)\n", "MetricSyntaxError"),
    ("a trailing line", "dim = 1\nF2 = abs2(v1)\nextra = 3\n", "MetricSyntaxError"),
])
def test_hostile_metric_file_exit_3(tmp_path, capsys, name, content, error_type):
    path = tmp_path / "m.fm"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    code = run(["structure", "--metric", str(path), "--samples", "1"])
    out, err = capsys.readouterr()
    assert_clean_exit(code, err)
    assert code == 3 and out == "", name
    assert json.loads(err)["type"] == error_type, name


def test_threads_env_does_not_change_results(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["check", "--metric", "flat_1", "--samples", "4",
                "--seed", "5", "--json", str(a)]) == 0
    monkeypatch.setenv("FINSLERLAB_THREADS", "2")
    assert run(["check", "--metric", "flat_1", "--samples", "4",
                "--seed", "5", "--json", str(b)]) == 0
    ra, rb = load(a), load(b)
    ra.pop("timestamp")
    rb.pop("timestamp")
    assert ra == rb
    capsys.readouterr()


def assert_clean_exit(code, err):
    """The README's contract: exit 0, 2 or 3, no traceback, and a stderr that
    is empty or one JSON diagnostic."""
    assert code in (0, 2, 3) and "Traceback" not in err, (code, err)
    assert not err or isinstance(json.loads(err), dict), err


def test_closed_stdout_ends_quietly():
    src = str(Path(finslerlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "finslerlab.cli", "list-metrics"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before the report is written, as after `| head`
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert_clean_exit(proc.wait(timeout=60), err)
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["tensors", "--metric", "poincare_disc", "--at", "z=0.5;v=1", "--json", "{missing}/x.json"],
    ["geodesic", "--metric", "poincare_disc", "--from", "0", "--dir", "1", "--t-max", "0.02",
     "--dt", "0.01", "--csv", "{missing}/g.csv"],
    ["geodesic", "--metric", "poincare_disc", "--from", "0", "--dir", "1", "--t-max", "0.02",
     "--dt", "0.01", "--svg", "{missing}/g.svg"],
    ["list-metrics", "--json", "{tmp}"],  # a directory
])
def test_unwritable_output_path_exit_3(tmp_path, capsys, argv):
    code = run([a.format(missing=tmp_path / "missing", tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert_clean_exit(code, err)
    assert code == 3 and json.loads(err)["type"] == "OutputError"


@pytest.mark.parametrize("option", ["--json", "--csv", "--svg"])
def test_output_path_is_checked_before_any_work(tmp_path, capsys, monkeypatch, option):
    def refuse(*args, **kwargs):
        raise AssertionError("the geodesic started before its output path was checked")

    monkeypatch.setattr(cli, "integrate_geodesic", refuse)
    path = tmp_path / "missing" / "out"
    code = run(["geodesic", "--metric", "poincare_disc", "--from", "0", "--dir", "1",
                "--t-max", "2", "--dt", "0.001", option, str(path)])
    err = capsys.readouterr().err
    assert_clean_exit(code, err)
    diag = json.loads(err)
    assert code == 3 and diag["type"] == "OutputError"
    assert diag["error"] == f"cannot write {option} {path}: No such file or directory"


def test_structure_extracts_once_at_the_point(capsys, monkeypatch):
    # the report hands its structure functions to the structure-equation and
    # Bianchi residuals, and Bianchi differentiates them exactly, at the point
    points = []
    extract = parallelism.extract_structure

    def counted(prog, p):
        points.append(p.z.tobytes() + p.U.tobytes())
        return extract(prog, p)

    monkeypatch.setattr(parallelism, "extract_structure", counted)
    monkeypatch.setattr(cli, "extract_structure", counted)
    assert run(["structure", "--metric", "poincare_ball_2", "--at", "z=0.1,0.2i;v=1,0.5"]) == 0
    capsys.readouterr()
    assert len(points) == 1


def test_check_extracts_once_at_each_frame(capsys, monkeypatch):
    # the structure-equation and Bianchi residuals of one frame share its
    # structure functions, and Bianchi extracts at no displaced point
    points = []
    extract = parallelism.extract_structure

    def counted(prog, p):
        points.append(p.z.tobytes() + p.U.tobytes())
        return extract(prog, p)

    monkeypatch.setattr(parallelism, "extract_structure", counted)
    monkeypatch.setattr(cli, "extract_structure", counted)
    run(["check", "--metric", "l4_finsler", "--samples", "3", "--seed", "1"])
    capsys.readouterr()
    assert len(points) == 3  # the 3 frames
    assert [points.count(k) for k in points[:3]] == [1, 1, 1]


@pytest.mark.parametrize("argv, points", [
    (["check", "--metric", "l4_finsler", "--samples", "2", "--seed", "1"], 2),
    (["structure", "--metric", "poincare_ball_3",
      "--at", "z=0.1+0.2i,0.05-0.1i,0.2i;v=0.5,0.3+0.2i,-0.4i"], 1),
    (["compare", "--metric-a", "poincare_ball_2", "--metric-b", "fubini_study_2",
      "--at-a", "z=0.1+0.2i,0.3i;v=1,0.5", "--at-b", "z=-0.2,0.1+0.1i;v=0.3,1i",
      "--order", "1"], 2),
])
def test_report_builds_frame_data_and_brackets_once_per_point(capsys, monkeypatch, argv,
                                                                points):
    # a point's frame data is built once and handed down to every stage that
    # works there, its bracket table with it; no stage builds them elsewhere
    frames, tables = [], []
    init, table = connection.FrameData.__init__, parallelism._bracket_table

    def counted_init(self, prog, z, U):
        frames.append(np.asarray(z, dtype=complex).tobytes()
                      + np.asarray(U, dtype=complex).tobytes())
        init(self, prog, z, U)

    def counted_table(fd):
        tables.append(fd.z.tobytes() + fd.U.tobytes())
        return table(fd)

    monkeypatch.setattr(connection.FrameData, "__init__", counted_init)
    for module in (cli, parallelism, equivalence):
        monkeypatch.setattr(module, "_bracket_table", counted_table)
    assert run(argv) == 0
    capsys.readouterr()
    assert len(frames) == len(set(frames)) == points
    assert len(tables) == len(set(tables)) == points


@pytest.mark.parametrize("argv, counts", [
    (["structure", "--metric", "poincare_ball_3",
      "--at", "z=0.1+0.2i,0.05-0.1i,0.2i;v=0.5,0.3+0.2i,-0.4i"], (3, 9, 1, 1)),
    (["compare", "--metric-a", "poincare_ball_2", "--metric-b", "fubini_study_2",
      "--at-a", "z=0.1+0.2i,0.3i;v=1,0.5", "--at-b", "z=-0.2,0.1+0.1i;v=0.3,1i",
      "--order", "1"], (8, 24, 2, 2)),
    (["check", "--metric", "l4_finsler", "--samples", "2", "--seed", "1"], (6, 22, 2, 2)),
])
def test_report_work_counts(capsys, monkeypatch, argv, counts):
    # (frame_derivatives misses, tensor_derivative, jet(2, 0), _coframe)
    # calls per report.  A miss takes a derivative of (E, C20, C21), the one
    # call that reads fd.partials, by three tensor_derivative calls (C20,
    # C21, Dh); memo hits and reads at a chunk of rows take none.  A point
    # takes the derivatives along the fields, the increment basis and pairs
    # of lifts, whose order-1 derivative is read off the fields' (a table of
    # the lifts alone took 4 for structure): 3 for structure, 3 at each of
    # check's two points (whose two form_derivative calls a point, the
    # tangency system and the lifts', make the other 4 tensor_derivative
    # calls), and compare 3 at each frame and 2 more for tier 2 at frame A.
    # check reads one jet(2, 0) a point, in its Levi check, and the coframe
    # is evaluated once a point, for the bracket table's coframe matrix.
    calls = {}

    def counting(key, f):
        def counted(*args):
            calls[key] = calls.get(key, 0) + 1
            return f(*args)
        return counted

    for name, home in (("tensor_derivative", finsler_forms), ("_coframe", parallelism)):
        counted = counting(name, getattr(home, name))
        for module in (cli, connection, finsler_forms, frame_bundle, geodesics, parallelism,
                       equivalence):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(connection.FrameData, "partials",
                        counting("frame_derivatives", connection.FrameData.partials))
    jet = MetricProgram.jet_unchecked

    def counted_jet(self, z, v, fiber_order, base_order, frame=None):
        if (fiber_order, base_order) == (2, 0):
            calls["jet20"] = calls.get("jet20", 0) + 1
        return jet(self, z, v, fiber_order, base_order, frame)

    monkeypatch.setattr(MetricProgram, "jet_unchecked", counted_jet)
    assert run(argv) == 0
    capsys.readouterr()
    keys = ("frame_derivatives", "tensor_derivative", "jet20", "_coframe")
    assert tuple(calls.get(k) for k in keys) == counts


@pytest.mark.parametrize("argv, fills", [
    (["structure", "--metric", "poincare_ball_3",
      "--at", "z=0.1+0.2i,0.05-0.1i,0.2i;v=0.5,0.3+0.2i,-0.4i"], 3),
    (["check", "--metric", "l4_finsler", "--samples", "2", "--seed", "1"], 6),
])
def test_report_generator_fills(capsys, monkeypatch, argv, fills):
    # generator derivatives filled from frame derivatives per report, three
    # a point: along the fields, along the increment basis and along pairs
    # of lifts.  Along the lifts alone they are read off the table's whole
    # one, which took one fill a point (structure 4 to 3, check 8 to 6)
    calls = []
    fill = parallelism._generator_derivatives

    def counted(derivs):
        calls.append(derivs[0].shape)
        return fill(derivs)

    monkeypatch.setattr(parallelism, "_generator_derivatives", counted)
    assert run(argv) == 0
    capsys.readouterr()
    assert len(calls) == fills


def test_structure_report_takes_second_derivatives_along_the_lifts_only(capsys, monkeypatch):
    # Bianchi reads the curvature's derivatives along the 2n = 6 lifts off
    # the brackets among them, so the connection's and the forms' second
    # derivatives are taken along pairs of lifts, 6 x 6, not 15 x 15 fields
    shapes = []
    derivative = connection.tensor_derivative

    def recorded(pq, t, d, stacks):
        out = derivative(pq, t, d, stacks)
        if len(stacks) == 2:
            shapes.append(out.shape[:2])
        return out

    monkeypatch.setattr(connection, "tensor_derivative", recorded)
    assert run(["structure", "--metric", "poincare_ball_3",
                "--at", "z=0.1+0.2i,0.05-0.1i,0.2i;v=0.5,0.3+0.2i,-0.4i"]) == 0
    capsys.readouterr()
    assert shapes == [(6, 6)] * 3


def test_geodesic_step_count_is_bounded_before_any_work(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the geodesic started before its step count was checked")

    monkeypatch.setattr(geodesics, "adapted_frame", refuse)
    for t_max, dt in (("1e6", "1e-300"), ("1e300", "1e-300"),
                      (str((geodesics.MAX_STEPS + 1) * 1e-3), "1e-3")):
        code = run(["geodesic", "--metric", "poincare_disc", "--from", "0", "--dir", "1",
                    "--t-max", t_max, "--dt", dt])
        err = capsys.readouterr().err
        assert_clean_exit(code, err)
        assert code == 3 and json.loads(err)["type"] == "IntegrationError", t_max


def test_numpy_warnings_stay_off_stderr(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["structure", "--metric", "poincare_disc", "--at", "z=0;v=1e300"])
    err = capsys.readouterr().err
    assert_clean_exit(code, err)
    assert code == 3 and json.loads(err)["type"] == "EvaluationError"
    assert not caught, [str(w.message) for w in caught]
