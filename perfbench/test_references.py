"""The benchmark's references against values known in closed form.

A wrong reference would pass or fail the program for the wrong reason, so
each one is checked here on its own, without finslerlab.
"""

import math

import numpy as np
import pytest

from references import digits, space_form_curvature, space_form_distance


@pytest.mark.parametrize("r", [0.0, 1e-9, 0.3, 0.9, 0.999])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_distance_from_origin(n, r):
    rng = np.random.default_rng(n)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z = r * u / np.linalg.norm(u)
    r = float(np.linalg.norm(z))  # the radius as rounded, since atanh is steep near 1
    origin = np.zeros(n)
    assert math.isclose(space_form_distance(origin, z, -4.0), math.atanh(r),
                        rel_tol=1e-13, abs_tol=1e-15)
    assert math.isclose(space_form_distance(z, origin, 4.0), math.atan(r),
                        rel_tol=1e-13, abs_tol=1e-15)
    big = 7.5 * u / np.linalg.norm(u)
    assert math.isclose(space_form_distance(origin, big, 4.0), math.atan(7.5),
                        rel_tol=1e-14)


def test_disc_distance_is_the_mobius_formula():
    a, b = 0.3 - 0.2j, -0.5 + 0.4j
    expected = math.atanh(abs((a - b) / (1 - np.conj(a) * b)))
    assert math.isclose(space_form_distance(a, b, -4.0), expected, rel_tol=1e-14)


@pytest.mark.parametrize("c", [-4.0, 4.0])
def test_distance_is_invariant_and_a_metric(c):
    rng = np.random.default_rng(7)
    n = 2
    z, w, x = (r * u / np.linalg.norm(u) for r, u in zip(
        (0.3, 0.6, 0.9), rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))))
    d = space_form_distance(z, w, c)
    assert d > 0
    assert math.isclose(d, space_form_distance(w, z, c), rel_tol=1e-14)
    assert space_form_distance(z, z, c) == 0.0
    assert d <= space_form_distance(z, x, c) + space_form_distance(x, w, c)
    # unitary maps fixing the origin are isometries of both space forms
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    assert math.isclose(space_form_distance(q @ z, q @ w, c), d, rel_tol=1e-13)


def test_distance_along_a_radius_adds_up():
    # points on one ray lie on one geodesic, so distances add exactly
    u = np.array([0.6, 0.8j])
    for c in (-4.0, 4.0):
        d1 = space_form_distance(0.2 * u, 0.5 * u, c)
        d2 = space_form_distance(0.5 * u, 0.9 * u, c)
        assert math.isclose(d1 + d2, space_form_distance(0.2 * u, 0.9 * u, c),
                            rel_tol=1e-13)


def test_distance_rejects_points_outside_the_ball_and_other_curvatures():
    with pytest.raises(ValueError):
        space_form_distance([0.0], [1.0], -4.0)
    with pytest.raises(ValueError):
        space_form_distance([0.0], [0.5], 1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("c", [-4.0, 4.0])
def test_space_form_curvature(n, c):
    R = space_form_curvature(n, c)
    assert R.shape == (n,) * 4
    assert R[0, 0, 0, 0] == c
    assert np.array_equal(R, np.transpose(R, (0, 2, 1, 3)))   # symmetric in (b, g)
    assert np.array_equal(R, np.transpose(R, (3, 1, 2, 0)))   # and in (a, d)
    # holomorphic sectional curvature R(x, x, x, x)/|x|^4 = c for every x
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    hsc = np.einsum("abgd,a,b,g,d->", R, np.conj(x), x, x, np.conj(x)).real
    assert math.isclose(hsc / np.vdot(x, x).real ** 2, c, rel_tol=1e-13)
    if n > 1:
        assert R[0, 1, 1, 0] == 0.0
        assert R[0, 0, 1, 1] == c / 2
        assert R[0, 1, 0, 1] == c / 2
        assert R[0, 0, 0, 1] == 0.0


def test_digits():
    assert digits(1e-8) == pytest.approx(8.0)
    assert digits(0.0) == 17.0
