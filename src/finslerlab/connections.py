"""The adapted connection triple and its basicness checks.

Three connections live on the bundles split off by the vertical and radial
line foliations:

* the Vranceanu connection, whose horizontal restriction is basic with
  respect to the vertical foliation by construction: its table has no
  vertical-direction term on horizontal sections, so no residual reports it;
* the Vaisman (second) connection on the vertical bundle, preserving the
  indicatrix/radial splitting, with leafwise coefficients built by the Koszul
  formula and mixed coefficients from the projected bracket (partial Bott
  connection).  It lives on the kept orthogonal vertical frame bar_a, the
  n - 1 fields the indicatrix bundle is spanned by: its Gram, Koszul and
  mixed systems, its checks and its sections carry kept indices only, and
  the dependent field is the relation of the row frames.dependence;
* their direct sum on the orthogonal complement of the radial line field.

Every "basic" property is verified against its defining form: the connection
applied along the radial foliation equals the projected Lie bracket,
nabla_X Z = pi_0 [X, Z], at X = Gamma.  That identity is linear in the section,
and the engines read a section's gradient rows only along Gamma, so a fixed
basis of order-1 unit sections settles it at every point: the value units e_k
and the radial units rho e_k, with rho of value 0 and Gamma(rho) = 1.  The
direction a Gamma and a lift b add only a multiple of pi_0 Gamma =
(1 - G(Gamma, Gamma)/F^2) Gamma, the residual of the row euler.squared_norm:
nabla is tensorial in its direction, and pi_0 [a Gamma, Z + b Gamma] =
a pi_0 [Gamma, Z] + (a Gamma(b) - b Gamma(a) - Z(a)) pi_0 Gamma.  The units
of each check are carried on a leading axis of one order-1 jet, so each check
is one stacked pass: the engines (`apply_vaisman`, `apply_composite`, ...)
take one field and section or a stack of them, and the pass brackets all its
unit sections in one call.  No check draws random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .jets import Jet, TangentPoint, left_sum
from .metrics import FinslerMetric
from .spray import Workspace, bracket, contract, directional, gather_rows, workspace_at

# -- unit sections ----------------------------------------------------------------------


def _radial_units(ws: Workspace, family: Jet) -> Jet:
    """rho f_i for each member f_i of an order-1 family (k, ...): rho is the
    order-1 jet of value 0 and gradient rows (0, t), so Gamma(rho) = y^j t_j
    = 1, and rho f_i has value 0 and gradient rows d(rho) f_i(p)."""
    value = family.value
    buf = np.zeros((1 + ws.dim,) + value.shape)
    buf[1 + ws.n :] = ws.t_val.T.reshape((ws.n, ws.B) + (1,) * (value.ndim - 1)) * value
    return Jet(ws.dim, 1, buf)


def _units(ws: Workspace, family: Jet) -> Jet:
    """The unit sections over an order-1 family (k, ...): its members f_i,
    then the radial units rho f_i, as one (2k, ...) jet."""
    return Jet(ws.dim, 1, np.concatenate([family.buf, _radial_units(ws, family).buf], axis=2))


def _coefficient_units(ws: Workspace, k: int) -> Jet:
    """The constant coefficient units e_1 ... e_k, a (k, k) order-1 jet."""
    return Jet.constant(np.broadcast_to(np.eye(k), (ws.B, k, k)), ws.dim, 1)


def _basicness(ws: Workspace, lhs: np.ndarray, sections: Jet) -> np.ndarray:
    """Defining basicness on a stack of unit sections Z (S, 2n): `lhs`
    (B, S, 2n), the connection's derivative of each Z along Gamma, against
    pi_0 [Gamma, Z] in one `bracket`.  The worst residual over the units, per
    point."""
    w = ws.project_off_gamma(bracket(ws.gamma_field[None], sections))
    return np.abs(lhs - w).max(axis=(1, 2))


# -- Vranceanu tables ------------------------------------------------------------------


def vranceanu_values(ws: Workspace) -> dict:
    """Coefficient tables C[b,k,i,j], Gc[b,k,i,j], Fc[b,k,i,j] with k the
    output frame index, i the section index, j the direction index."""
    dgy = ws.dg_val
    dgx = ws.g.deriv(ws.xvars).value - np.einsum("blk,bijl->bijk", ws.N_val, dgy)  # delta g_ij / delta x^k
    C = 0.5 * np.einsum("bkl,bijl->bkij", ws.ginv_val, dgy)
    Gc = ws.dN_val.transpose(0, 1, 3, 2)  # Gc^k_ij = dN^k_j/dy^i
    # symmetrized horizontal derivative: dg_il/dx^j + dg_jl/dx^i - dg_ij/dx^l
    sym = dgx.transpose(0, 1, 3, 2) + dgx.transpose(0, 3, 1, 2) - dgx
    Fc = 0.5 * np.einsum("bkl,bijl->bkij", ws.ginv_val, sym)
    return {"C": C, "Gc": Gc, "Fc": Fc}


def vranceanu_structure_residuals(ws: Workspace, tables: dict | None = None) -> dict:
    tables = vranceanu_values(ws) if tables is None else tables
    C = tables["C"]
    yn = np.linalg.norm(ws.y, axis=1)
    res = {}
    res["c_symmetry"] = np.abs(C - C.transpose(0, 1, 3, 2)).max(axis=(1, 2, 3)) * yn
    res["c_radial"] = np.abs(np.einsum("bkij,bi->bkj", C, ws.y)).max(axis=(1, 2))  # = C^k_ij y^j: C is symmetric
    Fc = tables["Fc"]
    res["fc_symmetry"] = np.abs(Fc - Fc.transpose(0, 1, 3, 2)).max(axis=(1, 2, 3)) * yn
    return res


# -- Vaisman connection ----------------------------------------------------------------


@dataclass(frozen=True)
class VaismanSolved:
    """Batched Vaisman coefficients on the kept orthogonal vertical frame
    bar_a (`Workspace.kept_indices`, `Workspace.E_kept`), the frame of the
    indicatrix bundle: every index below is a kept-frame index."""

    gram_kept: np.ndarray  # (B, n-1, n-1): G(bar_a, bar_c)
    s_bar: np.ndarray  # (B, n-1, n-1, n-1): [direction a, section q, coeff e]
    beta: np.ndarray  # (B, n, n-1, n-1): [direction i, section a, coeff e]
    bar_gram_dirs: np.ndarray  # (B, n-1, n-1, n-1): bar_a(G(bar_q, bar_c))


def vertical_pairings(ws: Workspace, W: np.ndarray, E: np.ndarray) -> np.ndarray:
    """[b, ..., c] = g_kl W^k E_c^l for vertical components W (B, ..., n)
    of a fixed shape per point and rows E (B, c, n): one stacked product
    W g E^T per point."""
    B, n = ws.B, ws.n
    return (W.reshape(B, -1, n) @ ws.g_val @ E.transpose(0, 2, 1)).reshape(W.shape[:-1] + E.shape[1:2])


def _kept_brackets(ws: Workspace) -> tuple:
    """The bracket inputs of the Vaisman system, one per-point gather of each
    cached table: [bar_a, bar_q] over the kept pairs a < q, (B, P, 2n), and
    [delta/dx_i, bar_a] over the kept a, (B, n, n-1, 2n).  (Bracketing the
    kept family itself measured slower.)"""
    B, n, kept = ws.B, ws.n, ws.kept_indices
    a, q = np.triu_indices(n - 1, 1)
    pairs = gather_rows(ws.bar_bar_brackets.reshape(B, n * n, 2 * n), kept[:, a] * n + kept[:, q])
    return pairs, gather_rows(ws.dx_bar_brackets, kept, axis=2)


def solve_vaisman(ws: Workspace) -> VaismanSolved:
    B, n, k = ws.B, ws.n, ws.n - 1
    pairs, mixed = _kept_brackets(ws)

    # Sasaki Gram G(bar_a, bar_c) = g_pq E_ap E_cq on the kept frame, summed
    # over (p, q) in order for each pair a <= c and mirrored, so it is
    # exactly symmetric
    upper = np.triu_indices(k)
    mirror = np.zeros((k, k), dtype=np.intp)
    mirror[upper] = mirror[upper[::-1]] = np.arange(len(upper[0]))
    Ea, Ec, g = ws.E_kept[upper[0]], ws.E_kept[upper[1]], ws.g.truncated(1)
    gbar = left_sum(g[p, q] * Ea[:, p] * Ec[:, q] for p in range(n) for q in range(n))[mirror]
    gram = gbar.value
    DG = np.einsum("bal,bqcl->baqc", ws.E_kept_val, gbar.deriv(ws.yvars).value)  # bar_a(gbar_qc)

    a, q = np.triu_indices(k, 1)
    gBR = np.zeros((B, k, k, k))  # G([bar_a, bar_q], bar_c), antisymmetric in (a, q)
    gBR[:, a, q] = vertical_pairings(ws, pairs[..., n:], ws.E_kept_val)
    gBR[:, q, a] = -gBR[:, a, q]

    # Koszul right-hand side, indices [b, a(dir), q(section), c(pairing)]:
    # bar_a g(q,c) + bar_q g(a,c) - bar_c g(a,q)
    #   + G([a,q],c) - G([a,c],q) - G([q,c],a)
    rhs = (DG + DG.transpose(0, 2, 1, 3) - DG.transpose(0, 2, 3, 1)
           + gBR - gBR.transpose(0, 1, 3, 2) - gBR.transpose(0, 3, 1, 2))
    s_bar = 0.5 * np.linalg.solve(gram[:, None, None, :, :], rhs[..., None])[..., 0]

    # mixed coefficients: projection of [delta/dx_i, bar_a] onto the indicatrix span
    rows = vertical_pairings(ws, ws.project_off_gamma(mixed)[..., n:], ws.E_kept_val)  # (B, n, n-1, n-1)
    beta = np.linalg.solve(gram[:, None, None], rows[..., None])[..., 0]

    return VaismanSolved(gram_kept=gram, s_bar=s_bar, beta=beta, bar_gram_dirs=DG)


def _per_point(a: np.ndarray, like: np.ndarray) -> np.ndarray:
    """The per-point array a (B, ...) with an axis of length 1 after the point
    axis for each sample axis of `like`, a (B, ..., 2n) stack of field values."""
    return a.reshape(a.shape[:1] + (1,) * (like.ndim - 2) + a.shape[1:])


def _vaisman_coefficients(ws: Workspace, vs: VaismanSolved, Xval: np.ndarray) -> np.ndarray:
    """coef[b, ..., a, e]: component along kept bar_e of the Vaisman
    derivative of kept bar_a along the field with coordinate components Xval
    (B, 2n), or along each of a stack of fields (B, S, 2n); each sum over a
    frame index by `contract`."""
    n = ws.n
    Xh, vvert = ws.hv_split_values(Xval)
    lam = contract(vvert, ws.t_val[:, :, None])[..., 0]  # t_j v^j
    bar_part = vvert - lam[..., None] * _per_point(ws.y, Xval)
    mu_rhs = contract(bar_part, (ws.E_kept_val @ ws.g_val).transpose(0, 2, 1))
    mu = np.linalg.solve(_per_point(vs.gram_kept, Xval), mu_rhs[..., None])[..., 0]
    coef = contract(mu, vs.s_bar) - lam[..., None, None] * np.eye(n - 1)
    return coef + contract(Xh, vs.beta)


def apply_vaisman(ws: Workspace, vs: VaismanSolved, X, zeta) -> np.ndarray:
    """Vertical coefficient values (over d/dy) of the Vaisman derivative of
    the section sum_a zeta^a bar_a over the kept frame along the vector
    field X: (B, n) for one field X (2n,) and one section zeta (n-1,),
    (B, S, n) for a stack of S of each, X (S, 2n) and zeta (S, n-1).
    X(zeta^a) bar_a, then zeta^a coef[a, e] bar_e with the sum over a in
    index order; each sum over a frame index by `contract`."""
    coef = _vaisman_coefficients(ws, vs, X.value)
    zv = zeta.value
    zc = left_sum(zv[..., a, None] * coef[..., a, :] for a in range(ws.n - 1))
    return contract(directional(X, zeta), ws.E_kept_val) + contract(zc, ws.E_kept_val)


def vaisman_line_residuals(ws: Workspace) -> np.ndarray:
    """Local basicness display on the vertical bundle: the projected bracket
    with the radial field has eigenvalue -1, pi_0[Gamma, bar_i] = -bar_i."""
    w = ws.project_off_gamma(bracket(ws.gamma_field[None], ws.bar_fields))
    return np.abs(w + ws.bar_fields.value).max(axis=(1, 2)) * ws.F_val


def vaisman_condition_residuals(ws: Workspace, vs: VaismanSolved) -> dict:
    """Residuals of the defining conditions of the second connection on the
    kept frame: partial torsion and partial metricity.  Splitting
    preservation is frame orthogonality, the row `frames.orthogonality`; the
    torsion with the radial argument, bar_a - [bar_a, Gamma], is the bracket
    relation of the row `brackets.indicatrix_radial`."""
    n = ws.n
    res = {}
    pairs, mixed = _kept_brackets(ws)

    # torsion on indicatrix pairs: nabla_a q - nabla_q a - [bar_a, bar_q],
    # indicatrix component must vanish (no kept pair at n = 2)
    a, q = np.triu_indices(n - 1, 1)
    w = ws.project_off_gamma(pairs)[..., n:]
    diff = np.einsum("bpe,bei->bpi", vs.s_bar[:, a, q] - vs.s_bar[:, q, a], ws.E_kept_val) - w
    res["torsion_indicatrix"] = np.abs(diff).max(axis=(1, 2), initial=0.0) * ws.F_val

    # mixed horizontal torsion: the beta system must reproduce the projected bracket
    w = ws.project_off_gamma(mixed)[..., n:]
    diff = np.einsum("biae,bej->biaj", vs.beta, ws.E_kept_val) - w
    res["torsion_mixed"] = np.abs(diff).max(axis=(1, 2, 3)) * ws.F_val

    # metric condition on kept triples; the defect has degree -1 in y, so
    # times F the residual has degree 0
    s_g = np.einsum("bqae,bec->bqac", vs.s_bar, vs.gram_kept)  # G(nabla_q a, c)
    metric_defect = vs.bar_gram_dirs - s_g - s_g.transpose(0, 1, 3, 2)
    res["metric_indicatrix"] = np.abs(metric_defect).max(axis=(1, 2, 3)) * ws.F_val

    # metric condition on the radial span: Gamma(F^2) = 2 F^2 forces the unit
    # radial-radial coefficient
    gammaL = np.einsum("bj,bj->b", ws.y, ws.L.truncated(1).deriv(ws.yvars).value)
    res["metric_radial"] = np.abs(gammaL - 2.0 * ws.L_val) / ws.L_val
    return res


def vaisman_basic_residuals(ws: Workspace, vs: VaismanSolved) -> np.ndarray:
    """Defining basicness of the Vaisman connection, nabla_Gamma Z =
    pi_0 [Gamma, Z], on the 2(n-1) unit sections over the kept frame: bar_a
    (zeta = e_a) and rho bar_a (zeta = rho e_a).  Every section's residual
    is a combination of theirs, with a multiple of pi_0 Gamma for a radial
    coefficient a and a lift b.  The dependent field adds none:
    bar_m = sum_a c_a bar_a with c_a = -y^a/y^m homogeneous of degree 0, so
    Gamma(c_a) = 0 and its residual is sum_a c_a times the kept units', with
    |c_a| <= 1."""
    lhs = apply_vaisman(ws, vs, ws.gamma_field[None], _units(ws, _coefficient_units(ws, ws.n - 1)))
    return _basicness(ws, np.concatenate([np.zeros_like(lhs), lhs], axis=-1), _units(ws, ws.kept_bar_fields))


# -- composite connection ---------------------------------------------------------------


def radial_horizontal_residuals(ws: Workspace) -> dict:
    """[Gamma, delta/dx_i] = 0, as it stands ("commutator") and projected off
    Gamma ("horizontal_display": pi_2[Gamma, delta/dx_i] = 0)."""
    w = bracket(ws.gamma_field[None], ws.dx_fields)
    return {"commutator": np.abs(w).max(axis=(1, 2)),
            "horizontal_display": np.abs(ws.project_off_gamma(w)).max(axis=(1, 2))}


def apply_horizontal_connection(ws: Workspace, Fc: np.ndarray, X, H) -> np.ndarray:
    """Horizontal-restriction derivative: coefficients (over delta/dx) of the
    derivative of sum_i H^i delta/dx_i along X, (B, n) for one field and
    section, (B, S, n) for a stack of S of each: Fc[k, i, j] Xh^j H^i, summed
    over j by `contract` and then over i in index order."""
    Xh, Hv = X.value[..., : ws.n], H.value
    XF = contract(Xh, Fc.transpose(0, 3, 1, 2))  # [b, ..., k, i]
    return directional(X, H) + left_sum(XF[..., i] * Hv[..., i, None] for i in range(ws.n))


def apply_composite(ws: Workspace, vs: VaismanSolved, Fc: np.ndarray, X, H, zeta) -> np.ndarray:
    """Coordinate components of the direct-sum derivative of the section
    sum_i H^i delta/dx_i + sum_a zeta^a bar_a, over the kept frame, along X:
    the horizontal restriction on the first summand plus the Vaisman
    derivative on the second; (B, 2n), or (B, S, 2n) for a stack of S fields
    and sections."""
    lhs_h = apply_horizontal_connection(ws, Fc, X, H)
    lhs_v = apply_vaisman(ws, vs, X, zeta)
    return np.concatenate([lhs_h, -contract(lhs_h, ws.N_val.transpose(0, 2, 1)) + lhs_v], axis=-1)


def composite_basic_residuals(ws: Workspace, vs: VaismanSolved, Fc: np.ndarray) -> np.ndarray:
    """Defining basicness of the direct-sum connection on the orthogonal
    complement of the radial field, on the n radial horizontal units
    rho delta/dx_i (H = rho e_i, zeta = 0).  Its other units repeat kept rows
    bit for bit: the vertical-summand units give the residuals of
    `vaisman_basic_residuals`, and the constant horizontal units, where the
    derivative is 0, those of `radial_horizontal_residuals`'
    "horizontal_display"."""
    n = ws.n
    H = _radial_units(ws, _coefficient_units(ws, n))
    zeta = Jet.constant(np.zeros((ws.B, n, n - 1)), ws.dim, 1)
    lhs = apply_composite(ws, vs, Fc, ws.gamma_field[None], H, zeta)
    return _basicness(ws, lhs, _radial_units(ws, ws.dx_fields))


# -- special-case oracles ------------------------------------------------------------------


def euclidean_table_residuals(ws: Workspace, vs: VaismanSolved, tables: dict) -> np.ndarray:
    """For the flat euclidean metric every Vranceanu table vanishes and the
    leafwise coefficients reduce to the round-sphere values
    nabla_{bar_a} bar_q = -t_q bar_a, with vanishing mixed coefficients."""
    B, n = ws.B, ws.n
    res = np.abs(tables["C"]).max(axis=(1, 2, 3))
    res = np.maximum(res, np.abs(tables["Gc"]).max(axis=(1, 2, 3)))
    res = np.maximum(res, np.abs(tables["Fc"]).max(axis=(1, 2, 3)))
    t_kept = gather_rows(ws.t_val, ws.kept_indices)
    eye = np.broadcast_to(np.eye(n - 1), (B, n - 1, n - 1))
    oracle = -np.einsum("bq,bae->baqe", t_kept, eye)
    res = np.maximum(res, np.abs(vs.s_bar - oracle).max(axis=(1, 2, 3)))
    res = np.maximum(res, np.abs(vs.beta).max(axis=(1, 2, 3)))
    return res


# -- public per-point API ---------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectionTriple:
    """The adapted connection triple at one point.

    Vranceanu tables C, Gc, Fc are indexed [k, i, j] = output frame index,
    section index, direction index.  The Vaisman coefficients s_bar
    (n-1, n-1, n-1) and beta (n, n-1, n-1) are indexed in the kept orthogonal
    vertical frame, all bar fields but the dropped one.  The direct sum on the
    complement of the radial line reads (Fc, s_bar, beta).

    The structural coefficients are the same at every point: the radial
    derivative of a bar field is -1 times itself, the radial-radial
    coefficient is 1, the radial derivative of a horizontal field and the
    bar-direction and horizontal derivatives of the radial field vanish.
    """

    C: np.ndarray
    Gc: np.ndarray
    Fc: np.ndarray
    dropped: int
    kept: tuple
    s_bar: np.ndarray
    beta: np.ndarray
    at: TangentPoint

    radial_bar: ClassVar[float] = -1.0
    radial_radial: ClassVar[float] = 1.0
    radial_horizontal: ClassVar[float] = 0.0
    bundle: ClassVar[str] = "radial_complement"

    @property
    def bar_radial(self) -> np.ndarray:
        return np.zeros(len(self.kept))

    @property
    def horizontal_radial(self) -> np.ndarray:
        return np.zeros(len(self.Fc))

    @property
    def frame(self) -> str:
        """The direct sum's frame: the horizontal fields and the kept bar fields."""
        return f"delta/dx + bar(drop {self.dropped})"


def connection_triple(M: FinslerMetric, p: TangentPoint) -> ConnectionTriple:
    """The Vranceanu, Vaisman and direct-sum connections at p, from one
    order-4 workspace and one Vaisman solve."""
    ws = workspace_at(M, p)
    tables = vranceanu_values(ws)
    vs = solve_vaisman(ws)
    return ConnectionTriple(
        C=tables["C"][0],
        Gc=tables["Gc"][0],
        Fc=tables["Fc"][0],
        dropped=int(ws.dropped_index[0]),
        kept=tuple(int(k) for k in ws.kept_indices[0]),
        s_bar=vs.s_bar[0],
        beta=vs.beta[0],
        at=p,
    )
