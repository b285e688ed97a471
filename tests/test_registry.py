import numpy as np
import pytest

from finslerlab.finsler_forms import levi_check
from finslerlab.metric_dsl import FinslerError
from finslerlab.registry import catalog, resolve_metric, sample_points


def test_catalog_ids_unique_and_compile():
    entries = catalog()
    ids = [e.id for e in entries]
    assert len(set(ids)) == len(ids)
    required = {"flat_1", "flat_2", "poincare_disc", "poincare_ball_2",
                "fubini_study_1", "fubini_study_2", "hermitian_nonconstant",
                "l4_finsler"}
    assert required <= set(ids)
    for e in entries:
        prog = e.program()
        assert prog.dim == e.source.dim


def test_expected_fields_present():
    for e in catalog():
        assert set(e.expected) >= {"hermitian", "kahler", "hsc", "e_manifold"}


def test_ball_reduces_to_disc_on_axis(entries):
    ball = entries["poincare_ball_2"].program()
    disc = entries["poincare_disc"].program()
    z, v = 0.37, 0.9 - 0.2j
    assert ball.eval([z, 0], [v, 0]) == pytest.approx(disc.eval([z], [v]))


def test_resolve_metric_file(tmp_path):
    path = tmp_path / "m.fm"
    path.write_text("dim = 2\nF2 = abs2(v1) + abs2(v2)\n")
    prog, entry = resolve_metric(str(path))
    assert entry is None
    assert prog.eval([0, 0], [1, 0]) == pytest.approx(1.0)
    with pytest.raises(FinslerError):
        resolve_metric("no_such_metric")


def test_sampling_deterministic_and_admissible():
    for e in catalog():
        prog = e.program()
        a = sample_points(prog, e, 6, seed=42)
        b = sample_points(prog, e, 6, seed=42)
        for (za, va), (zb, vb) in zip(a, b):
            assert np.array_equal(za, zb) and np.array_equal(va, vb)
        for z, v in a:
            assert e.domain(z)
            assert np.linalg.norm(v) == pytest.approx(1.0)
            if e.fiber_ok is not None:
                assert e.fiber_ok(v)


def test_quartic_norm_samples_are_strongly_pseudoconvex(entries):
    # confirmation required before using this metric in acceptance suites:
    # the fiber predicate keeps the Levi form uniformly positive
    e = entries["l4_finsler"]
    prog = e.program()
    for z, v in sample_points(prog, e, 25, seed=3):
        rep = levi_check(prog, z, v)
        assert rep.verdict == "strongly-pseudoconvex"
        assert np.min(rep.eigenvalues) > 0.05


def test_catalog_expectations_reproduced_by_pipeline():
    # the catalog never asserts unverified values: every expectation is
    # re-derived here by the classification pipeline
    from finslerlab.geodesics import classify
    from finslerlab.registry import catalog, sample_points

    for e in catalog():
        prog = e.program()
        pts = sample_points(prog, e, 5, seed=90)
        rep = classify(prog, pts)
        assert rep.hermitian == e.expected["hermitian"], e.id
        assert rep.e_manifold == e.expected["e_manifold"], e.id
        if isinstance(e.expected["hsc"], float):
            assert rep.constant_hsc, e.id
            assert abs(rep.c - e.expected["hsc"]) < 1e-3, e.id
        else:
            assert not rep.constant_hsc, e.id
        if e.expected["kahler"]:
            assert rep.geodetically_torsion_free, e.id
