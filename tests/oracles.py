"""Independent references that the library's faster code is checked against."""

import numpy as np

from finslerlab.connection import frame_data, frame_derivatives
from finslerlab.finsler_forms import HOMOGENEITY_SEED, form_derivative
from finslerlab.frame_bundle import NESTED_STEP, AmbientTangent, along, pack_real
from finslerlab.geodesics import spray_coefficients
from finslerlab.jets import V, VBAR, Z, ZBAR
from finslerlab.parallelism import (
    _complex_lift_derivative,
    _complex_pairs,
    _field_stack,
    _generators,
    _lift_derivative_of,
    _stack_layout,
)


def frame_contract(t: np.ndarray, p: int, q: int, U: np.ndarray, kinds: tuple = ()) -> np.ndarray:
    """A coordinate tensor on the columns of U: the leading axes of the
    derivatives along kinds, then the p holomorphic slots, contracted with
    the columns of U (V, Z and holomorphic slots) or their conjugates (VBAR,
    ZBAR and conjugate slots).  What a jet seeded in the frame U reads with
    no contraction."""
    for M in [U if kind in (V, Z) else np.conj(U) for kind in kinds] + [U] * p \
            + [np.conj(U)] * q:
        t = np.tensordot(t, M, axes=(0, 0))
    return t


def contract(tensor: np.ndarray, unbarred, barred) -> complex:
    """Contract a (p, q) fiber tensor with vectors (barred ones conjugated)."""
    out = tensor
    for x in unbarred:
        out = np.tensordot(np.asarray(x, dtype=complex), out, axes=(0, 0))
    for y in barred:
        out = np.tensordot(np.conj(np.asarray(y, dtype=complex)), out, axes=(0, 0))
    return complex(out)


def nested(raw, xs) -> complex:
    """Nested derivative of F^2 along trivially extended real vectors.

    Each x in xs is the complex component vector of a real tangent vector;
    the value expands over holomorphic/antiholomorphic splittings.
    """
    k = len(xs)
    total = 0.0 + 0.0j
    for mask in range(1 << k):
        unb = [xs[i] for i in range(k) if mask >> i & 1]
        brd = [xs[i] for i in range(k) if not mask >> i & 1]
        total += contract(raw[(len(unb), len(brd))], unb, brd)
    return total


def homogeneity_identities(prog, z, v) -> dict:
    """finsler_forms.homogeneity_identities, one contraction per term: each
    nested derivative, rotated vectors included, expanded over its splits."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    n = prog.dim
    rng = np.random.default_rng(HOMOGENEITY_SEED)
    directions = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(6)]
    raw = {}
    jet = prog.jet_unchecked(z, v, 5, 0)
    for p in range(6):
        for q in range(6 - p):
            raw[(p, q)] = jet.fiber_tensor(p, q)
    f2 = float(np.real(raw[(0, 0)]))
    scale = max(1.0, abs(f2))

    res = {}
    # radial and rotational derivatives of F^2 itself
    d10 = contract(raw[(1, 0)], [v], [])
    res["a_radial"] = abs(d10 + np.conj(d10) - 2 * f2) / scale
    res["a_rotation"] = abs(1j * d10 - 1j * np.conj(d10)) / scale
    res["d_radial10"] = abs(d10 - f2) / scale

    # degree counting and rotation identity on nested derivatives, k <= 4
    res_b = 0.0
    res_c = 0.0
    for k in range(1, 5):
        for t in range(len(directions) - k + 1):
            xs = directions[t:t + k]
            g = nested(raw, xs)
            gscale = max(scale, abs(g))
            res_b = max(res_b, abs(nested(raw, xs + [v]) - (2 - k) * g) / gscale)
            rot = sum(nested(raw, xs[:j] + [1j * xs[j]] + xs[j + 1:])
                      for j in range(k))
            res_c = max(res_c, abs(rot + nested(raw, xs + [1j * v])) / gscale)
    res["b_degree"] = res_b
    res["c_rotation"] = res_c

    # pairings of h with the radial direction
    res_d = 0.0
    for x in directions:
        res_d = max(res_d, abs(contract(raw[(2, 0)], [x, v], [])) / scale)
        lhs = contract(raw[(1, 1)], [x], [v])
        rhs = contract(raw[(1, 0)], [x], [])
        res_d = max(res_d, abs(lhs - rhs) / scale)
    res["d_pairing"] = res_d

    # cubic and quartic contractions with the radial direction
    res_e = 0.0
    for i, x in enumerate(directions):
        for y in directions[i + 1:]:
            zc = directions[(i + 2) % len(directions)]
            e21 = contract(raw[(2, 1)], [x, v], [y])
            e12 = contract(raw[(1, 2)], [x], [y, v])
            res_e = max(res_e, abs(e21), abs(e12))
            h20 = contract(raw[(2, 0)], [x, y], [])
            res_e = max(res_e, abs(contract(raw[(3, 0)], [x, y, v], []) + h20))
            res_e = max(res_e, abs(contract(raw[(2, 1)], [x, y], [v]) - h20))
            res_e = max(res_e, abs(contract(raw[(2, 2)], [x, y], [zc, v])))
            res_e = max(res_e, abs(contract(raw[(2, 2)], [v, x], [y, zc])))
            res_e = max(res_e, abs(contract(raw[(3, 1)], [v, x, y], [zc])
                                   + contract(raw[(2, 1)], [x, y], [zc])))
            res_e = max(res_e, abs(contract(raw[(1, 3)], [x], [y, zc, v])
                                   + contract(raw[(1, 2)], [x], [y, zc])))
    res["e_cubic_quartic"] = res_e / scale
    res["max"] = max(res.values())
    return res


def full_stack_spray(prog, p):
    """geodesics.geodesic_spray from every parallelism field: row 0 of the
    stack _field_stack builds, plus the vertical pairs e_{2 lam},
    e_{2 lam + 1} weighted by Re a_lam and Im a_lam, one tangent at a time."""
    fd = frame_data(prog, p.z, p.U)
    dz, dU = _field_stack(fd)
    G = AmbientTangent(dz[0], dU[0])
    a = spray_coefficients(fd)
    for lam in range(1, prog.dim):
        j = 2 * prog.dim + 2 * lam - 2
        G = G + AmbientTangent(dz[j], dU[j]).scale(float(a[lam - 1].real))
        G = G + AmbientTangent(dz[j + 1], dU[j + 1]).scale(float(a[lam - 1].imag))
    return G


def fd_derivative(prog, z, v, v_idx=(), vbar_idx=(), z_idx=(), zbar_idx=(),
                  step: float | None = None, richardson: bool = False) -> complex:
    """Central-difference Wirtinger mixed partial of F^2, the reference for
    the program's jets.

    The default step grows with total derivative order to balance
    truncation against roundoff; pass ``step`` to override.  With
    ``richardson`` the step-h and step-h/2 estimates are combined to
    cancel the leading truncation term.
    """
    order = len(v_idx) + len(vbar_idx) + len(z_idx) + len(zbar_idx)
    if step is None:
        step = {0: 1e-5, 1: 1e-5, 2: 1e-4, 3: 2e-3, 4: 6e-3}.get(order, 6e-3)
    if richardson:
        f_h = fd_derivative(prog, z, v, v_idx, vbar_idx, z_idx, zbar_idx, step)
        f_h2 = fd_derivative(prog, z, v, v_idx, vbar_idx, z_idx, zbar_idx, step / 2)
        return (4.0 * f_h2 - f_h) / 3.0
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    # absolute steps fixed from the base point, so halving the step
    # rescales the whole stencil exactly (Richardson needs this)
    hv = [step * max(1.0, abs(x)) for x in v]
    hz = [step * max(1.0, abs(x)) for x in z]

    def rec(z, v, pending):
        if not pending:
            return prog.eval_complex(z, v)
        (kind, k), rest = pending[0], pending[1:]
        h = hv[k] if kind in (V, VBAR) else hz[k]

        def at(delta):
            z2, v2 = z.copy(), v.copy()
            (v2 if kind in (V, VBAR) else z2)[k] += delta
            return rec(z2, v2, rest)

        dre = (at(h) - at(-h)) / (2 * h)
        dim_ = (at(1j * h) - at(-1j * h)) / (2 * h)
        if kind in (V, Z):
            return 0.5 * (dre - 1j * dim_)
        return 0.5 * (dre + 1j * dim_)

    pending = ([(V, k) for k in v_idx] + [(VBAR, k) for k in vbar_idx]
               + [(Z, k) for k in z_idx] + [(ZBAR, k) for k in zbar_idx])
    return rec(z, v, tuple(pending))


def lift_derivatives(fd):
    """The derivatives along the holomorphic lifts and their conjugates, as
    parallelism._complex_lift_derivative returns them, by the direct route:
    the lifts' frame increments rebuilt from a fresh generator stack, one
    form_derivative per frame form, and frame_derivatives along the lifts
    for the torsion T = E - E^T."""
    lifts = slice(0, 2 * fd.n)
    W, G = _stack_layout(fd.n)[1][lifts], _generators(fd)[lifts]
    out = {pq: _complex_pairs(form_derivative(fd.jet, pq, W, G))
           for pq in ((2, 0), (2, 1), (1, 2))}
    dE = frame_derivatives(fd, W, G)[0]
    out["T"] = _complex_pairs(dE - np.swapaxes(dE, -1, -2))
    return out


def lift_difference_of(fd, table, func):
    """Derivatives of a point function func(z, U) along the 2n horizontal
    lifts at the point of fd, by one central difference (NESTED_STEP) along
    the lift rows of its bracket table: the route parallelism's Bianchi
    residuals once took for the curvature, the accuracy reference for the
    exact _lift_derivative_of.  Returns (holomorphic, antiholomorphic)
    arrays with leading index g."""
    d_real = []
    for i in range(2 * fd.n):
        t = AmbientTangent(table.dz[i], table.X[i])
        h = NESTED_STEP * (1.0 + t.norm())
        d_real.append(along(func, fd.z, fd.U, pack_real(t), h))
    return _complex_pairs(np.array(d_real))


def bianchi_residuals(prog, p, sf):
    """parallelism.bianchi_residuals, one index tuple at a time: the same
    derivatives along the lifts, each identity summed term by term."""
    n = prog.dim
    T, R = sf.T, sf.R_raw
    fd, table = sf.frame, sf.table
    C21 = fd.C(2, 1)
    dT_h, dT_a = _complex_lift_derivative(table, "T")
    dR_h, dR_a = _lift_derivative_of(fd, table)
    d12_h = _complex_lift_derivative(table, (1, 2))[0]
    d21_a = _complex_lift_derivative(table, (2, 1))[1]

    scale = max(1.0, float(np.max(np.abs(R))), float(np.max(np.abs(T))))
    r1 = r2 = r3 = r4 = 0.0
    for a in range(n):
        for b in range(n):
            for g in range(n):
                for d in range(n):
                    # cyclic torsion identity
                    v = (dT_h[b][a, g, d] + dT_h[g][a, d, b] + dT_h[d][a, b, g]
                         + sum(T[a, e, b] * T[e, g, d] + T[a, e, d] * T[e, b, g]
                               + T[a, e, g] * T[e, d, b] for e in range(n)))
                    r1 = max(r1, abs(v))
                    # antisymmetrized curvature vs torsion derivative
                    v = (R[a, b, g, d] - R[a, g, b, d] - dT_a[d][a, b, g]
                         - sum(C21[lam, b, a] * R[lam, 0, g, d]
                               - C21[lam, g, a] * R[lam, 0, b, d]
                               for lam in range(n)))
                    r2 = max(r2, abs(v))
                    for e in range(n):
                        # holomorphic derivative identity
                        v = (dR_h[g][a, b, d, e] - dR_h[d][a, b, g, e]
                             + sum(R[a, b, zz, e] * T[zz, g, d] for zz in range(n))
                             + sum(d12_h[g][b, a, lam] * R[0, lam, d, e]
                                   - d12_h[d][b, a, lam] * R[0, lam, g, e]
                                   for lam in range(n)))
                        r3 = max(r3, abs(v))
                        # antiholomorphic derivative identity
                        v = (dR_a[d][a, b, g, e] - dR_a[e][a, b, g, d]
                             + sum(R[a, b, g, zz] * np.conj(T[zz, d, e])
                                   for zz in range(n))
                             + sum(d21_a[d][b, lam, a] * R[lam, 0, g, e]
                                   - d21_a[e][b, lam, a] * R[lam, 0, g, d]
                                   for lam in range(n)))
                        r4 = max(r4, abs(v))
    return {"b541": r1 / scale, "b542": r2 / scale,
            "b543": r3 / scale, "b544": r4 / scale}


def closed_form_Q(fd):
    """parallelism.closed_form_Q, one index tuple at a time."""
    n = fd.n
    C22, C21, C12 = fd.C(2, 2), fd.C(2, 1), fd.C(1, 2)
    Q = np.zeros((n - 1,) * 4, dtype=complex)
    for rho in range(1, n):
        for sig in range(1, n):
            for lam in range(1, n):
                for mu in range(1, n):
                    val = C22[sig, lam, mu, rho]
                    val -= sum(C12[nu, mu, rho] * C21[sig, lam, nu] for nu in range(n))
                    Q[rho - 1, sig - 1, lam - 1, mu - 1] = val
    return Q
