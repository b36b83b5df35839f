"""Sasaki lift, almost complex structure, and the almost-Kahler form.

The Sasaki metric is block-diagonal (g, g) in the adapted frame
{delta/delta x, d/dy}; J swaps the blocks (J delta/delta x^i = -d/dy^i,
J d/dy^i = delta/delta x^i).  The fundamental 2-form is assembled two ways:
invariantly as Omega(X, Y) = G(JX, Y), and from the local expression
Omega = g_ij delta-y^i wedge dx^j; both are compared in the checks.

Closedness of Omega is tested pointwise through the frame-field formula
  d Omega(X,Y,Z) = X Omega(Y,Z) - Y Omega(X,Z) + Z Omega(X,Y)
                   - Omega([X,Y],Z) + Omega([X,Z],Y) - Omega([Y,Z],X)
with jet-differentiated coefficients, reusing the bracket engine.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .jets import left_sum
from .spray import Workspace, bracket, directional


def kahler_coordinate_invariant(Jc: np.ndarray, Gc: np.ndarray) -> np.ndarray:
    """Coordinate matrix of Omega from Omega(X, Y) = G(JX, Y), given the
    coordinate matrices of J and G."""
    return np.einsum("bki,bkj->bij", Jc, Gc)


def kahler_coordinate_local(ws: Workspace) -> np.ndarray:
    """Coordinate matrix of Omega from g_ij delta-y^i wedge dx^j."""
    B, n = ws.B, ws.n
    C = np.einsum("bia,bic->bac", ws.N_val, ws.g_val)  # (N^T g)_{ab}
    zero = np.zeros((B, n, n))
    return np.block([[C - C.transpose(0, 2, 1), -ws.g_val], [ws.g_val, zero]])


def frame_pairings(X: np.ndarray, Om: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """[b, t] = X_t^i Om_ij Y_t^j for stacks X, Y (B, T, 2n) of fixed T and
    one matrix Om (B, 2n, 2n) per point: X Om as a stacked product, then
    its row dot with Y added over j in index order."""
    terms = (X @ Om) * Y
    return left_sum(terms[..., j] for j in range(Y.shape[-1]))


# -- residual engines -------------------------------------------------------------


def radial_norm_residuals(ws: Workspace) -> np.ndarray:
    """G(Gamma, Gamma) = F^2, relative to F^2."""
    gamma = ws.gamma_field.value
    return np.abs(ws.sasaki_values(gamma, gamma) - ws.L_val) / ws.L_val


def kahler_residuals(ws: Workspace) -> dict:
    """The two coordinate assemblies of Omega, entry by entry."""
    Jc, Gc = ws.complex_structure_val, ws.sasaki_coordinate_val
    diff = kahler_coordinate_invariant(Jc, Gc) - kahler_coordinate_local(ws)
    return {"two_assemblies": np.abs(diff).max(axis=(1, 2)) / ws.L_val}


def compatibility_residuals(ws: Workspace) -> dict:
    """J^2 = -I, the frame Gram of G against blockdiag(g, g) (the coordinate
    Sasaki matrix transformed back to the adapted frame), J-compatibility of
    G on frame pairs and pointwise closedness of Omega."""
    B, n = ws.B, ws.n
    rows = ws.frame_val
    Jc = ws.complex_structure_val
    Gc = ws.sasaki_coordinate_val
    jrows = np.einsum("bai,bji->baj", rows, Jc)
    gram = rows @ Gc @ rows.transpose(0, 2, 1)
    jgram = jrows @ Gc @ jrows.transpose(0, 2, 1)
    res = {
        "j_squared": np.abs(Jc @ Jc + np.eye(2 * n)).max(axis=(1, 2)),
        "coordinate_roundtrip": np.abs(gram - ws.adapted_metric_val).max(axis=(1, 2)) / ws.L_val,
        "j_compatibility": np.abs(jgram - gram).max(axis=(1, 2)) / ws.L_val,
    }

    dim = 2 * n
    # brackets of the adapted frame {delta/dx_i, d/dy_i}; the coordinate fields d/dy commute
    brackets = np.zeros((B, dim, dim, dim))
    brackets[:, :n, :n] = ws.dx_dx_brackets
    brackets[:, :n, n:] = bracket(ws.dx_fields[:, None], ws.dy_fields[None, :])
    # d_along[b, k, i, j]: frame field k applied to Omega on the adapted frame
    # pair (i, j): the mixed blocks are +-g_ij, the pure blocks vanish
    # identically (Sasaki block-diagonality and J)
    g_along = np.stack([directional(f, ws.g) for f in list(ws.dx_fields) + list(ws.dy_fields)], axis=1)
    d_along = np.zeros((B, dim, dim, dim))
    d_along[:, :, :n, n:] = -g_along
    d_along[:, :, n:, :n] = g_along.transpose(0, 1, 3, 2)
    a, b, c = np.array(list(combinations(range(dim), 3))).T
    # Omega([p, q], r) on the adapted frame for (p, q; r) = (a, b; c), (a, c; b), (b, c; a)
    p, q, r = np.concatenate([a, a, b]), np.concatenate([b, c, c]), np.concatenate([c, b, a])
    om = frame_pairings(brackets[:, p, q], kahler_coordinate_invariant(Jc, Gc), rows[:, r]).reshape(B, 3, -1)
    term = d_along[:, a, b, c] - d_along[:, b, a, c] + d_along[:, c, a, b]
    res["closedness"] = np.abs(term - om[:, 0] + om[:, 1] - om[:, 2]).max(axis=1)
    return res
