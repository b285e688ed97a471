"""The holomorphic sectional curvature of the Kähler catalog metrics against
an independent reference in 40-digit arithmetic: the Chern curvature of the
closed-form Hermitian matrix g_{i jbar}, differentiated by mpmath."""

import mpmath
import pytest

from finslerlab.frame_bundle import adapted_frame
from oracles import structure_at

mp = mpmath.mp


def _ball(sign: int):
    """g_{i jbar} of the unit ball (sign -1) or of Fubini-Study (sign +1):
    ((1 + s|z|^2) delta_ij - s conj(z_i) z_j) / (1 + s|z|^2)^2, the
    coefficients of v^i conj(v^j) in the catalog's F^2."""
    def g(z):
        q = 1 + sign * sum(abs(x) ** 2 for x in z)
        return mp.matrix([[((q if i == j else 0) - sign * mp.conj(z[i]) * z[j]) / q ** 2
                           for j in range(len(z))] for i in range(len(z))])
    return g


def _hermitian_nonconstant(z):
    return mp.matrix([[1 + abs(z[0]) ** 2, 0], [0, 1]])


KAHLER = {
    "poincare_disc": (_ball(-1), [0.3 + 0.2j], [1.0]),
    "poincare_ball_2": (_ball(-1), [0.1 + 0.2j, -0.3j], [1.0, 0.5]),
    "fubini_study_2": (_ball(1), [0.2, 0.1 + 0.3j], [0.5, 1j]),
    "hermitian_nonconstant": (_hermitian_nonconstant, [0.1 + 0.2j, 0.3j], [1.0, 0.5]),
}


def reference_curvature(g, z, v) -> complex:
    """2 R(v, vbar, v, vbar) / g(v, vbar)^2 at z, with the Chern curvature
    R_{i jbar k lbar} = -d_k d_lbar g_{i jbar} + g^{p qbar} d_k g_{i qbar}
    d_lbar g_{p jbar}.  Contracted with v, every derivative is along the
    complex line z + w v: d_w = (d_s - i d_u) / 2 and d_wbar = (d_s + i d_u)
    / 2 for w = s + i u, taken by mpmath.diff."""
    with mp.workdps(40):
        z0, vv = [mp.mpc(x) for x in z], [mp.mpc(x) for x in v]
        n = len(z0)

        def entry(f):
            # f(G) at z0 + (s + i u) v, a function of the real (s, u)
            return lambda s, u: f(g([a + mp.mpc(s, u) * b for a, b in zip(z0, vv)]))

        def d(f, orders):
            return mpmath.diff(entry(f), (0, 0), orders)

        def h(G):  # g(v, vbar)
            return sum(G[i, j] * vv[i] * mp.conj(vv[j]) for i in range(n) for j in range(n))

        def a(q):  # g_{i qbar} v^i
            return lambda G: sum(G[i, q] * vv[i] for i in range(n))

        def b(p):  # g_{p jbar} conj(v^j)
            return lambda G: sum(G[p, j] * mp.conj(vv[j]) for j in range(n))

        ddbar = (d(h, (2, 0)) + d(h, (0, 2))) / 4
        da = [(d(a(q), (1, 0)) - 1j * d(a(q), (0, 1))) / 2 for q in range(n)]
        db = [(d(b(p), (1, 0)) + 1j * d(b(p), (0, 1))) / 2 for p in range(n)]
        G0 = g(z0)
        inv = G0 ** -1  # g^{p qbar} = inv[q, p]: sum_q g_{r qbar} g^{p qbar} = delta_rp
        R = -ddbar + sum(inv[q, p] * da[q] * db[p] for p in range(n) for q in range(n))
        return complex(2 * R / h(G0) ** 2)


@pytest.mark.parametrize("mid", sorted(KAHLER))
def test_holomorphic_sectional_curvature_matches_the_mpmath_reference(progs, entries, mid):
    # structure's R[0, 0, 0, 0] at the adapted frame of (z, v) is the
    # holomorphic sectional curvature in the direction v: -4 on the disc and
    # the ball, +4 on Fubini-Study (the catalog's constants), and
    # -1.1270780501549733 on hermitian_nonconstant here
    g, z, v = KAHLER[mid]
    prog = progs[mid]
    R = structure_at(prog, adapted_frame(prog, z, v)).R[0, 0, 0, 0]
    ref = reference_curvature(g, z, v)
    hsc = entries[mid].expected["hsc"]
    if hsc != "non-constant":
        assert abs(ref - hsc) <= 1e-15
    assert abs(R - ref) <= 1e-12 * max(1.0, abs(ref)), (R, ref)
