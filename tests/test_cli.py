import json

import numpy as np
import pytest

from finslerlab.cli import main


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
    capsys.readouterr()


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
]


def test_bad_arguments_exit_2(capsys):
    for argv in BAD_ARGUMENTS:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err, argv


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


def test_numerical_failure_exit_3(capsys):
    code = run(["tensors", "--metric", "poincare_disc", "--at", "z=0;v=0"])
    assert code == 3
    code = run(["check", "--metric", "no_such_metric"])
    assert code == 3
    capsys.readouterr()


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
