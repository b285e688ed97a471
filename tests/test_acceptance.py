"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and then asserts, so the suite doubles as a machine-checked report.
"""

import json

import numpy as np
import pytest

from finslerlab.cli import main as cli_main
from finslerlab.connection import frame_data, horizontal_lift, solve_connection
from finslerlab.equivalence import compare, regularity, signature
from finslerlab.finsler_forms import hermitian_test, homogeneity_identities
from finslerlab.frame_bundle import BundlePoint, adapted_frame, gram_residual, group_act
from finslerlab.geodesics import classify, integrate_geodesic
from finslerlab.equivalence import _haar_group_element
from finslerlab.parallelism import (
    _real_field_matrix,
    bianchi_residuals,
    closed_form_P,
    closed_form_Q,
    extract_structure,
    labels_real,
    structure_equation_residuals,
)
from finslerlab.registry import sample_points
from oracles import e_manifold_closed_forms, energy_first_variation, structure_checks

HERMITIAN_IDS = ("flat_1", "flat_2", "flat_3", "poincare_disc", "poincare_ball_2",
                 "poincare_ball_3", "fubini_study_1", "fubini_study_2",
                 "hermitian_nonconstant")


def report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} [{desc}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_homogeneity(progs, entries):
    worst = 0.0
    for mid, prog in progs.items():
        for z, v in sample_points(prog, entries[mid], 50, seed=101):
            worst = max(worst, homogeneity_identities(prog, z, v)["max"])
    report(1, "homogeneity identities, 50 pts/metric", worst < 1e-8,
           f"worst residual {worst:.2e}")


def test_criterion_02_hermitian_dichotomy(progs, entries):
    ok = True
    detail = []
    for mid in HERMITIAN_IDS:
        prog = progs[mid]
        pts = sample_points(prog, entries[mid], 8, seed=102)
        herm, _ = hermitian_test(prog, pts)
        sigma = 0.0
        for z, v in pts[:4]:
            p = adapted_frame(prog, z, v)
            fd = frame_data(prog, p.z, p.U)
            n = prog.dim
            if n > 1:
                sigma = max(sigma, float(np.max(np.abs(fd.C(2, 1)[1:, 1:, :]))))
        ok = ok and herm and sigma < 1e-6
        detail.append(f"{mid}: sigma={sigma:.1e}")
    prog = progs["l4_finsler"]
    pts = sample_points(prog, entries["l4_finsler"], 8, seed=102)
    herm, witness = hermitian_test(prog, pts)
    sigma0 = 0.0
    for z, v in pts[:4]:
        p = adapted_frame(prog, z, v)
        sigma0 = max(sigma0, float(np.max(np.abs(
            frame_data(prog, p.z, p.U).C(2, 0)[1:, 1:]))))
    ok = ok and (not herm) and witness is not None and sigma0 > 1e-3
    report(2, "Hermitian dichotomy", ok,
           f"l4 sigma0={sigma0:.2e}, hermitian metrics all below 1e-6")


def test_criterion_03_connection_uniqueness(progs, entries):
    rng = np.random.default_rng(103)
    worst_gap = 0.0
    min_ratio = np.inf
    worst_equiv = 0.0
    for mid, prog in progs.items():
        pts = sample_points(prog, entries[mid], 20, seed=103)
        for z, v in pts:
            p = adapted_frame(prog, z, v)
            cm = solve_connection(prog, p)
            worst_gap = max(worst_gap, cm.closed_form_gap)
            min_ratio = min(min_ratio, cm.min_singular_ratio)
        p = adapted_frame(prog, *pts[0])
        E = solve_connection(prog, p).E
        for _ in range(10):
            g = _haar_group_element(prog.dim, rng)
            Eg = solve_connection(prog, group_act(p, g)).E
            pred = np.einsum("aA,Abc,bB,cC->aBC", np.conj(g).T, E, g, g)
            worst_equiv = max(worst_equiv, float(np.max(np.abs(Eg - pred))))
    ok = worst_gap < 1e-8 and min_ratio > 1e-6 and worst_equiv < 1e-8
    report(3, "connection uniqueness + equivariance", ok,
           f"closed-form gap {worst_gap:.1e}, sigma ratio {min_ratio:.1e}, "
           f"equivariance {worst_equiv:.1e}")


def test_criterion_04_parallelism_dimension(progs, entries):
    ok = True
    details = []
    for mid in ("poincare_disc", "l4_finsler", "poincare_ball_3"):
        prog = progs[mid]
        n = prog.dim
        for z, v in sample_points(prog, entries[mid], 3, seed=104):
            p = adapted_frame(prog, z, v)
            fields = _real_field_matrix(prog, p.z, p.U)  # one packed-real column a field
            sv = np.linalg.svd(fields, compute_uv=False)
            ok = ok and len(labels_real(n)) == fields.shape[1] == n * n + 2 * n
            ok = ok and sv[-1] / sv[0] > 1e-6
        details.append(f"n={n}: {n * n + 2 * n} fields")
    report(4, "parallelism dimension n^2+2n", ok, "; ".join(details))


def test_criterion_05_bracket_relations(progs, entries):
    worst_rel = 0.0
    worst_closed = 0.0
    for mid, prog in progs.items():
        pts = sample_points(prog, entries[mid], 10, seed=105)
        for z, v in pts:
            p = adapted_frame(prog, z, v)
            sf = extract_structure(prog, p)
            checks = structure_checks(sf)
            worst_rel = max(worst_rel,
                            checks["rotation_horizontal"],
                            checks["rotation_vertical"],
                            checks["vertical_holomorphic_brackets"],
                            checks["vertical_mixed_t_coefficient"])
            if prog.dim > 1:
                worst_closed = max(worst_closed, float(np.max(np.abs(
                    sf.Q - closed_form_Q(sf.table.frame)))))
                ph, pH = closed_form_P(sf.table)
                worst_closed = max(worst_closed,
                                   float(np.max(np.abs(sf.P_h - ph), initial=0.0)),
                                   float(np.max(np.abs(sf.P_H - pH), initial=0.0)))
    ok = worst_rel < 1e-5 and worst_closed < 1e-5
    report(5, "bracket relations + P/Q closed forms", ok,
           f"relations {worst_rel:.1e}, closed-form gap {worst_closed:.1e}")


def test_criterion_06_structure_equations(progs, entries):
    ok = True
    worst_h = worst_l4 = worst_b = 0.0
    for mid, prog in progs.items():
        pts = sample_points(prog, entries[mid], 2, seed=106)
        for z, v in pts:
            p = adapted_frame(prog, z, v)
            r = structure_equation_residuals(extract_structure(prog, p))
            res = max(r["eq529"], r["eq533"], r["eq534"], r["eq535"], r["eq536"])
            if mid == "l4_finsler":
                worst_l4 = max(worst_l4, res)
            else:
                worst_h = max(worst_h, res)
        z, v = pts[0]
        b = bianchi_residuals(extract_structure(prog, adapted_frame(prog, z, v)))
        worst_b = max(worst_b, max(b.values()))
    ok = worst_h <= 1e-12 and worst_l4 <= 1e-12 and worst_b < 1e-3
    report(6, "structure equations + Bianchi", ok,
           f"hermitian {worst_h:.1e}, l4 {worst_l4:.1e}, bianchi {worst_b:.1e}")


def test_criterion_07_curvature_values(progs, entries):
    def top_curvatures(mid, k=10, seed=107):
        prog = progs[mid]
        vals = []
        for z, v in sample_points(prog, entries[mid], k, seed=seed):
            sf = extract_structure(prog, adapted_frame(prog, z, v))
            vals.append(complex(sf.R[0, 0, 0, 0]))
        return np.array(vals)

    disc = top_curvatures("poincare_disc")
    ball = top_curvatures("poincare_ball_2")
    flat = top_curvatures("flat_2")
    fs = np.concatenate([top_curvatures("fubini_study_1"),
                         top_curvatures("fubini_study_2")])
    ok = (np.max(np.abs(disc + 4)) < 1e-3 and np.max(np.abs(ball + 4)) < 1e-3
          and np.max(np.abs(flat)) < 1e-8 and np.max(np.abs(fs - 4)) < 1e-3)
    report(7, "curvature anchors -4 / 0 / +4", ok,
           f"disc {np.max(np.abs(disc + 4)):.1e}, ball {np.max(np.abs(ball + 4)):.1e}, "
           f"flat {np.max(np.abs(flat)):.1e}, fs {np.max(np.abs(fs - 4)):.1e}")


def test_criterion_08_e_manifold_classification(progs, entries):
    ok = True
    details = []
    for mid, c in (("poincare_ball_2", -4.0), ("fubini_study_2", 4.0)):
        prog = progs[mid]
        pts = sample_points(prog, entries[mid], 6, seed=108)
        rep = classify(prog, pts)
        ok = ok and rep.e_manifold and abs(rep.c - c) < 1e-3
        details.append(f"{mid}: c={rep.c:+.4f}")
        worst = 0.0
        for z, v in pts[:2]:
            res = e_manifold_closed_forms(prog, adapted_frame(prog, z, v), c)
            worst = max(worst, res["max"])
            ok = ok and res["local_identity"] < 1e-3
        ok = ok and worst < 1e-3
        details.append(f"closed forms {worst:.1e}")
    rep = classify(progs["hermitian_nonconstant"],
                   sample_points(progs["hermitian_nonconstant"],
                                 entries["hermitian_nonconstant"], 6, seed=108))
    ok = ok and not rep.constant_hsc and not rep.e_manifold
    details.append(f"nonconstant spread {rep.hsc_spread:.2f}")
    report(8, "E-manifold classification + closed forms", ok, "; ".join(details))


def test_criterion_09_geodesics(progs):
    flat = progs["flat_2"]
    path = integrate_geodesic(flat, [0.1, -0.2], [3.0, 4.0], 1.0, 0.01)
    err_flat = float(np.max(np.abs(
        path.zs[-1] - (np.array([0.1, -0.2]) + np.array([0.6, 0.8])))))

    disc = progs["poincare_disc"]
    dpath = integrate_geodesic(disc, [0], [1], 1.0, 0.002)
    err_disc = abs(abs(dpath.zs[-1, 0]) - np.tanh(1.0))

    fs = progs["fubini_study_1"]
    fpath = integrate_geodesic(fs, [0], [1], 0.8, 0.002)
    err_fs = abs(abs(fpath.zs[-1, 0]) - np.tan(0.8))

    rng = np.random.default_rng(109)
    worst_var = 0.0
    for prog, path_ in ((flat, path), (disc, dpath), (fs, fpath)):
        n = prog.dim
        tmax = path_.ts[-1]
        for _ in range(5):
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            pert = lambda t: (a * np.sin(np.pi * t / tmax)
                              + b * np.sin(2 * np.pi * t / tmax))
            scale = np.linalg.norm(a) + np.linalg.norm(b)
            worst_var = max(worst_var,
                            abs(energy_first_variation(prog, path_, pert)) / scale)

    errs = []
    for dt in (0.02, 0.01):
        p = integrate_geodesic(disc, [0], [1], 1.0, dt)
        errs.append(abs(abs(p.zs[-1, 0]) - np.tanh(1.0)))
    ratio = errs[0] / errs[1]

    ok = (err_flat < 1e-8 and err_disc < 1e-5 and err_fs < 1e-4
          and worst_var < 1e-4 and 12.0 <= ratio <= 20.0)
    report(9, "geodesics: endpoints, energy, order", ok,
           f"flat {err_flat:.1e}, tanh {err_disc:.1e}, tan {err_fs:.1e}, "
           f"dE/ds {worst_var:.1e}, ratio {ratio:.1f}")


def test_criterion_10_equivalence(progs):
    flat = progs["flat_1"]
    disc = progs["poincare_disc"]
    rep = compare(flat, adapted_frame(flat, [0.0], [1.0]),
                  disc, adapted_frame(disc, [0.0], [1.0]), order=0)
    differ_ok = rep["verdict"] == "differ" and rep["distance"] > 1.0

    ball = progs["poincare_ball_2"]
    a = np.array([0.3, 0.1 + 0.2j])
    na2 = float(np.vdot(a, a).real)
    s = np.sqrt(1 - na2)

    def phi(z):
        z = np.asarray(z, dtype=complex)
        za = np.vdot(a, z)
        Pz = (za / na2) * a
        return (a - Pz - s * (z - Pz)) / (1 - za)

    z = np.array([0.1 + 0.05j, -0.2])
    v = np.array([0.7, 0.3j])
    h = 1e-6
    dphi = np.column_stack([(phi(z + h * e) - phi(z - h * e)) / (2 * h)
                            for e in np.eye(2)])
    pA = adapted_frame(ball, z, v)
    pB = BundlePoint(np.asarray(phi(z)), dphi @ pA.U)
    dist = signature(ball, pA, 1).distance(signature(ball, pB, 1))
    match_ok = dist < 1e-3

    reg = regularity(flat, adapted_frame(flat, [0.1], [1.0]), alpha_max=2)
    rank_ok = reg.rank == 0 and reg.stabilized

    ok = differ_ok and match_ok and rank_ok
    report(10, "equivalence signatures", ok,
           f"flat-vs-disc {rep['distance']:.2f}, automorphism match {dist:.1e}, "
           f"flat rank {reg.rank}")


def test_criterion_11_reproducibility(tmp_path, capsys):
    files = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli_main(["check", "--metric", "flat_2", "--samples", "3",
                         "--seed", "7", "--json", str(out)])
        assert code == 0
        files.append(out)
    reports = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            rep = json.load(fh)
        rep.pop("timestamp")
        reports.append(json.dumps(rep, sort_keys=True))
    capsys.readouterr()
    report(11, "seeded reproducibility of check", reports[0] == reports[1])
