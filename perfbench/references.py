"""Closed-form references that judge the program's reports.

Nothing here imports finslerlab: each value comes from the classical
geometry of the complex space forms, in the catalog's normalization (the
unit disc |v|^2/(1-|z|^2)^2 has holomorphic sectional curvature -4).
"""

from __future__ import annotations

import math

import numpy as np


def space_form_distance(z, w, c: float) -> float:
    """Geodesic distance between chart points z and w of the space form with
    constant holomorphic sectional curvature c = -4 (unit ball, Bergman
    chart) or c = +4 (Fubini-Study, affine chart of CP^n).

    Both come from the invariant cross-ratio of the two points:
    ball: tanh^2 d = 1 - (1-|z|^2)(1-|w|^2) / |1-<z,w>|^2;
    Fubini-Study: cos^2 d = |1+<z,w>|^2 / ((1+|z|^2)(1+|w|^2)).
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    zw = complex(np.vdot(w, z))
    zz = float(np.vdot(z, z).real)
    ww = float(np.vdot(w, w).real)
    if c == -4.0:
        if zz >= 1.0 or ww >= 1.0:
            raise ValueError("points must lie in the unit ball")
        # |z-w|^2 - |z|^2|w|^2 + |<z,w>|^2 is the exact numerator of
        # 1 - (1-|z|^2)(1-|w|^2)/|1-<z,w>|^2; it avoids cancellation near z = w
        num = float(np.vdot(z - w, z - w).real) - zz * ww + abs(zw) ** 2
        return math.atanh(math.sqrt(max(num, 0.0)) / abs(1.0 - zw))
    if c == 4.0:
        # the same cancellation-free form: sin^2 d = (|z-w|^2 + |z|^2|w|^2
        # - |<z,w>|^2) / ((1+|z|^2)(1+|w|^2)), taken through atan2
        num = float(np.vdot(z - w, z - w).real) + zz * ww - abs(zw) ** 2
        return math.atan2(math.sqrt(max(num, 0.0)), abs(1.0 + zw))
    raise ValueError("only the space forms c = -4 and c = +4 are tabulated")


def space_form_curvature(n: int, c: float) -> np.ndarray:
    """Curvature tensor R[a, b, g, d] of a Kaehler space form of constant
    holomorphic sectional curvature c in a unitary frame:
    (c/2)(delta_ab delta_gd + delta_ag delta_bd)."""
    eye = np.eye(n)
    return 0.5 * c * (np.einsum("ab,gd->abgd", eye, eye)
                      + np.einsum("ag,bd->abgd", eye, eye))


def digits(err: float) -> float:
    """-log10 of an error, capped at 17 digits where the error is zero."""
    return -math.log10(max(err, 1e-17))
