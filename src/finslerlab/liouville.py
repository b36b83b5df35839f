"""Liouville fields, the orthogonal vertical frame, and the adapted frame pack.

The vertical Liouville field Gamma = y^i d/dy^i and its horizontal image
xi = J Gamma generate the radial line distributions; the fields
bar_k = d/dy^k - t_k Gamma (with t_k = dF/dy^k / F) span the indicatrix
distribution orthogonal to Gamma inside the vertical bundle.  One of the n
bar-fields is dependent; we drop m = argmax |y^k| per point for conditioning.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet
from .spray import Workspace, bracket, gather_rows

# -- residual engines (batched over a Workspace) --------------------------------


def t_consistency_residuals(ws: Workspace) -> np.ndarray:
    """Agreement of the two expressions for t_k: y^i g_ki / F^2 vs dF/dy^k / F."""
    t_from_g = np.einsum("bi,bik->bk", ws.y, ws.g_val) / ws.L_val[:, None]
    yn = np.linalg.norm(ws.y, axis=1)
    return np.abs(t_from_g - ws.t_val).max(axis=1) * yn


def coefficient_identity_residuals(ws: Workspace) -> dict:
    """Five scalar identities satisfied by the t_k (dimensionless); the sixth,
    y^i bar_i = 0, is the relation of `dependence_residuals`."""
    y = ws.y
    yn = np.linalg.norm(y, axis=1)
    t = ws.t_val
    dt = ws.t.deriv(ws.yvars).value  # dt[b, l, k] = dt_l/dy^k
    gamma_t = np.einsum("blk,bk->bl", dt, y)  # Gamma(t_l)

    res = {}
    res["normalization"] = np.abs(np.einsum("bi,bi->b", y, t) - 1.0)
    rhs = -2.0 * np.einsum("bk,bl->blk", t, t) + ws.g_val / ws.L_val[:, None, None]
    res["t_gradient"] = np.abs(dt - rhs).max(axis=(1, 2)) * yn**2
    res["t_radial_derivative"] = np.abs(gamma_t + t).max(axis=1) * yn
    res["t_gradient_contraction"] = np.abs(np.einsum("bj,bjk->bk", y, dt) + t).max(axis=1) * yn
    res["radial_pairing"] = np.abs(np.einsum("bi,bi->b", y, gamma_t) + 1.0)
    return res


def bar_bracket_residuals(ws: Workspace) -> dict:
    """Numeric brackets of the bar-frame vs their structural forms:
    [bar_i, bar_j] = t_i bar_j - t_j bar_i and [bar_i, Gamma] = bar_i."""
    n = ws.n
    bar_vals = ws.bar_fields.value  # (B, n, 2n)
    t = ws.t_val
    structural = t[:, :, None, None] * bar_vals[:, None] - t[:, None, :, None] * bar_vals[:, :, None]
    i, j = np.triu_indices(n, 1)
    pair_res = np.abs(ws.bar_bar_brackets[:, i, j] - structural[:, i, j]).max(axis=(1, 2))
    w = bracket(ws.bar_fields, ws.gamma_field[None])
    gamma_res = np.abs(w - bar_vals).max(axis=(1, 2))
    return {"pair_brackets": pair_res * ws.F_val, "radial_brackets": gamma_res * ws.F_val}


def orthogonality_residuals(ws: Workspace) -> np.ndarray:
    """max_k |G(bar_k, Gamma)| / F^2."""
    inner = ws.E_val @ (ws.g_val @ ws.y[:, :, None])  # (B, n, 1)
    return np.abs(inner[:, :, 0]).max(axis=1) / ws.L_val


def dependence_residuals(ws: Workspace) -> np.ndarray:
    """Residual of the dependent-field relation
    bar_m = -(1/y^m) sum_{a != m} y^a bar_a (componentwise): y^i bar_i = 0,
    divided by y^m, the largest |y^k|."""
    ym = ws.y_dropped
    Em = gather_rows(ws.E_val, ws.dropped_index)
    total = np.einsum("ba,bai->bi", ws.y, ws.E_val)  # sum over all a of y^a bar_a
    rest = total - ym[:, None] * Em
    return np.abs(Em + rest / ym[:, None]).max(axis=1)


# -- adapted frame pack ----------------------------------------------------------


def pack_rows(ws: Workspace) -> np.ndarray:
    """Adapted frame rows (coordinate components) ordered
    {bar_delta_a (kept), xi, bar_a (kept), Gamma}: (B, 2n, 2n), the values
    of the Workspace's field families."""
    return np.concatenate([gather_rows(ws.bar_delta_fields.value, ws.kept_indices), ws.xi_field.value[:, None],
                           ws.kept_bar_fields.value, ws.gamma_field.value[:, None]], axis=1)


def pack_gram(ws: Workspace, P: np.ndarray) -> np.ndarray:
    """Sasaki Gram G(P_a, P_c) (B, 2n, 2n) of the pack rows P."""
    return P @ ws.sasaki_coordinate_val @ P.transpose(0, 2, 1)


# A frame pack whose condition number is not below this is ill-conditioned:
# the `frames.pack_conditioning` row fails and `finslerlab frames` warns.
PACK_CONDITION_LIMIT = 1e10


def pack_residuals(ws: Workspace) -> dict:
    """Gram block-orthogonality, J-image residuals and the conditioning guard
    (0 below PACK_CONDITION_LIMIT, else 1) of one frame pack."""
    n = ws.n
    P = pack_rows(ws)
    gram = pack_gram(ws, P)
    # zero out the four diagonal blocks {L'_xi, L_xi, L'_Gamma, L_Gamma}
    sizes = [n - 1, 1, n - 1, 1]
    off = gram.copy()
    start = 0
    for s in sizes:
        off[:, start : start + s, start : start + s] = 0.0
        start += s
    res_gram = np.abs(off).max(axis=(1, 2)) / ws.L_val

    Jc = ws.complex_structure_val
    imaged = np.einsum("bai,bji->baj", P[:, n:, :], Jc)  # J of {bar kept, Gamma} rows
    res_j = np.abs(imaged - P[:, :n, :]).max(axis=(1, 2))
    conditioning = np.where(np.linalg.cond(P) < PACK_CONDITION_LIMIT, 0.0, 1.0)
    return {"gram_offblock": res_gram, "j_images": res_j, "conditioning": conditioning}


# -- Frobenius (involutivity) leakage ---------------------------------------------


def frobenius_residuals(ws: Workspace) -> dict:
    """Bracket leakage out of each integrable distribution, per point.

    The vertical distribution and the two radial line fields are involutive
    by construction (coordinate fields commute; a line field brackets with
    itself to zero), so only the indicatrix, level-set and radial-plane
    distributions are measured.  Leakage is measured with the Sasaki metric
    and normalized by F^2 (for the Gamma-coefficient leakages) or F (for
    vector norms).
    """
    n, F2 = ws.n, ws.L_val
    gamma_vals = ws.gamma_field.value

    def gamma_leak(w):
        """Largest |G(w, Gamma)| / F^2 over bracket values w (B, pairs, 2n)."""
        return (np.abs(ws.sasaki_values(w, gamma_vals)) / F2[:, None]).max(axis=1)

    # indicatrix distribution: leakage = Gamma coefficient of vertical brackets
    i, j = np.triu_indices(n, 1)
    bar_pairs = ws.bar_bar_brackets[:, i, j]
    out = {"indicatrix": gamma_leak(bar_pairs)}

    # level-set distribution (everything orthogonal to Gamma): the pairs among
    # {bar_delta, xi}, theirs with the bar fields, and the bar pairs
    horizontal = Jet(ws.dim, 1, np.concatenate([ws.bar_delta_fields.buf, ws.xi_field[None].buf], axis=2))
    i, j = np.triu_indices(n + 1, 1)
    among = bracket(horizontal[:, None], horizontal[None, :])[:, i, j]
    with_bars = bracket(horizontal[:, None], ws.bar_fields[None, :]).reshape(ws.B, -1, ws.dim)
    out["level_set"] = gamma_leak(np.concatenate([among, with_bars, bar_pairs], axis=1))

    # plane spanned by Gamma and xi
    w = bracket(ws.gamma_field, ws.xi_field)
    xi_vals = ws.xi_field.value
    leak = (
        w
        - (ws.sasaki_values(w, gamma_vals) / F2)[:, None] * gamma_vals
        - (ws.sasaki_values(w, xi_vals) / F2)[:, None] * xi_vals
    )
    out["radial_plane"] = np.sqrt(np.abs(ws.sasaki_values(leak, leak))) / ws.F_val
    return out
