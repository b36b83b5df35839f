"""The connection triple: tables, basicness, torsion/metricity."""

import dataclasses

import numpy as np
import pytest

import finslerlab.connections as cn
import finslerlab.liouville as lv
import finslerlab.spray as sp
from finslerlab.checks import CHUNK_SIZE, ChunkContext, check_point, select_checks
from finslerlab.jets import Jet, TangentPoint, left_sum
from finslerlab.metrics import FinslerMetric, sample_points
from finslerlab.spray import Workspace, bracket, contract, directional, workspace_at

from helpers import (CATALOG_NAMES, full_index_vaisman, jet_poly_section, load_catalog_metric, randers2, randers3,
                     riemann2, stack)
from test_mutations import drop_lambda, perturb_e_kept, perturb_hv_split, swap_composite_summands


def ws_of(M, count=40, seed=17):
    x, y = sample_points(M, count, seed)
    return Workspace(M, x, y, order=4)


def test_riemannian_vertical_table_vanishes():
    ws = ws_of(riemann2())
    assert np.abs(cn.vranceanu_values(ws)["C"]).max() <= 1e-12


def test_euclidean_tables_all_zero():
    ws = ws_of(FinslerMetric.euclidean(3))
    tables = cn.vranceanu_values(ws)
    for key in ("C", "Gc", "Fc"):
        assert np.abs(tables[key]).max() <= 1e-14


def test_table_structure_residuals():
    ws = ws_of(randers3())
    res = cn.vranceanu_structure_residuals(ws)
    assert res["c_symmetry"].max() == 0.0
    assert res["c_radial"].max() <= 1e-10  # with c_symmetry, also C^k_ij y^j = 0
    assert res["fc_symmetry"].max() <= 1e-10


def test_horizontal_table_matches_fd_assembly():
    """Fc from finite differences of g (with the AD nonlinear connection
    supplying the horizontal transport term) agrees with the jet route."""
    M = randers2()
    x0 = np.array([0.3, -0.4])
    y0 = np.array([1.1, 0.7])
    ws = Workspace(M, x0[None, :], y0[None, :], order=4)
    Fc = cn.vranceanu_values(ws)["Fc"][0]
    h = 1e-5
    n = 2

    def gmat(x, y):
        return workspace_at(M, TangentPoint(x, y), order=2).g_val[0]

    dgx = np.zeros((n, n, n))
    dgy = np.zeros((n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        dgx[:, :, k] = (gmat(x0 + e, y0) - gmat(x0 - e, y0)) / (2 * h)
        dgy[:, :, k] = (gmat(x0, y0 + e) - gmat(x0, y0 - e)) / (2 * h)
    delta_g = dgx - np.einsum("lk,ijl->ijk", ws.N_val[0], dgy)
    ginv = np.linalg.inv(gmat(x0, y0))
    Fc_fd = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                s = 0.0
                for l in range(n):
                    s += ginv[k, l] * (delta_g[i, l, j] + delta_g[j, l, i] - delta_g[i, j, l])
                Fc_fd[k, i, j] = 0.5 * s
    assert np.abs(Fc - Fc_fd).max() <= 1e-6


def test_vaisman_table_structural_values():
    va = cn.connection_triple(randers2(), TangentPoint([0.2, -0.3], [1.0, 0.6]))
    assert va.radial_bar == -1.0
    assert va.radial_radial == 1.0
    assert np.all(va.bar_radial == 0.0)
    assert np.all(va.horizontal_radial == 0.0)
    assert va.s_bar.shape == (1, 1, 1)
    assert va.beta.shape == (2, 1, 1)
    assert va.dropped not in va.kept


def test_vaisman_line_display():
    for M in (FinslerMetric.euclidean(2), randers3()):
        assert cn.vaisman_line_residuals(ws_of(M)).max() <= 1e-10


def test_vaisman_defining_conditions():
    ws = ws_of(randers3())
    vs = cn.solve_vaisman(ws)
    res = cn.vaisman_condition_residuals(ws, vs)
    assert lv.orthogonality_residuals(ws).max() <= 1e-9  # splitting preservation is frame orthogonality
    assert res["torsion_indicatrix"].max() <= 1e-7
    assert lv.bar_bracket_residuals(ws)["radial_brackets"].max() <= 1e-7  # torsion with the radial argument
    assert res["torsion_mixed"].max() <= 1e-7
    assert res["metric_indicatrix"].max() <= 1e-8
    assert res["metric_radial"].max() <= 1e-10


@pytest.mark.parametrize("config", CATALOG_NAMES)
def test_metric_indicatrix_has_degree_zero_in_y(config):
    """The geometry at (x, lam y) is the geometry at (x, y), so the row
    `vaisman.metric_indicatrix` reads roundoff at every lam: on the sweep's
    points with y scaled by 1e-3 and 1e3 its maximum stays within one decade
    of its maximum at lam = 1, and within its tolerance.  Divided by F^2, as
    the defect of degree -1 was, it scaled as |y|^-3 and failed at lam = 1e-3."""
    M = load_catalog_metric(config)
    (row,) = select_checks(M, ["vaisman.metric_indicatrix"])
    x, y = sample_points(M, CHUNK_SIZE, 42)
    worst = {lam: row.fn(ChunkContext(M, x, lam * y)).max() for lam in (1e-3, 1.0, 1e3)}
    assert all(0.1 * worst[1.0] <= w <= min(10.0 * worst[1.0], row.tolerance) for w in worst.values()), worst


def test_euclidean_round_indicatrix_oracle():
    """Flat case oracle (derived by hand from the Koszul formula on the round
    indicatrix): nabla_{bar_a} bar_q = -t_q bar_a, all mixed terms zero."""
    for n in (2, 3):
        ws = ws_of(FinslerMetric.euclidean(n))
        vs = cn.solve_vaisman(ws)
        tables = cn.vranceanu_values(ws)
        assert cn.euclidean_table_residuals(ws, vs, tables).max() <= 1e-10


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_kept_frame_solve_equals_the_full_index_assembly(name):
    """The Vaisman systems assembled on the kept frame give the Gram and
    beta of the full-index assembly, which picked the kept entries out per
    point, bit for bit, and s_bar and bar_a(G(bar_q, bar_c)) to 1e-15
    relative: einsum may pick another kernel for the (n-1)^3 table."""
    ws = ws_of(load_catalog_metric(name), count=256, seed=42)
    vs, ref = cn.solve_vaisman(ws), full_index_vaisman(ws)
    assert vs.gram_kept.tobytes() == ref["gram_kept"].tobytes()
    assert vs.beta.tobytes() == ref["beta"].tobytes()
    for key in ("s_bar", "bar_gram_dirs"):
        assert np.abs(getattr(vs, key) - ref[key]).max() <= 1e-15 * np.abs(ref[key]).max(), key


def kept_torsion(ws, vs) -> float:
    """Largest nabla_{bar_a} bar_q - nabla_{bar_q} bar_a - pi[bar_a, bar_q]
    over kept indicatrix pairs, each derivative through `apply_vaisman` on
    the kept unit e_q along X = bar_a, whose leafwise part mu is e_a."""
    n, bars, units = ws.n, ws.kept_bar_fields, cn._coefficient_units(ws, ws.n - 1)
    worst = 0.0
    for a in range(n - 1):
        for q in range(a + 1, n - 1):
            w = ws.project_off_gamma(bracket(bars[a], bars[q]))[:, n:]
            nabla = cn.apply_vaisman(ws, vs, bars[a], units[q]) - cn.apply_vaisman(ws, vs, bars[q], units[a])
            worst = max(worst, np.abs(nabla - w).max())
    return worst


@pytest.mark.parametrize("name", ["euclidean4", "riemann3", "randers3"])
def test_vaisman_torsion_along_indicatrix_directions(name, monkeypatch):
    """The leafwise coefficients along a non-radial direction: the torsion
    on kept indicatrix pairs vanishes, and dropping mu from
    `_vaisman_coefficients` makes it fail."""
    ws = ws_of(load_catalog_metric(name))
    vs = cn.solve_vaisman(ws)
    assert kept_torsion(ws, vs) <= 1e-9
    raw = cn._vaisman_coefficients

    def without_mu(ws, vs, Xval):
        return raw(ws, dataclasses.replace(vs, s_bar=np.zeros_like(vs.s_bar)), Xval)

    monkeypatch.setattr(cn, "_vaisman_coefficients", without_mu)
    assert kept_torsion(ws, vs) > 1e-3


def random_sections(ws, k: int, seed: int) -> Jet:
    """k random degree-2 polynomial sections, as one (k,) order-1 jet."""
    rng = np.random.default_rng(seed)
    return stack([jet_poly_section(ws, rng, 1) for _ in range(k)])


def over_kept_frame(ws, zeta: Jet) -> Jet:
    """The coefficients zeta (n,) of a section sum_k zeta^k bar_k over the
    full bar system, rewritten over the kept frame as an (n-1,) jet with its
    gradient rows: zeta_kept^a = zeta^{kept[a]} - zeta^m y^{kept[a]} / y^m,
    from bar_m = -(1/y^m) sum_a y^{kept[a]} bar_{kept[a]}."""

    def rows(jet, idx):  # the components idx[b] (B, k) at point b, with their gradient rows
        return Jet(jet.m, 1, np.take_along_axis(jet.truncated(1).buf, idx[None], axis=2))

    kept, m = ws.kept_indices, ws.dropped_index[:, None]
    return rows(zeta, kept) - rows(zeta, m) * (rows(ws.yj, kept) / rows(ws.yj, m))


def eliminated_vaisman(ws, vs, X, zeta) -> np.ndarray:
    """The Vaisman derivative of a section sum_k zeta^k bar_k over the full bar
    system along one field X, by elimination of the dependent field: the
    share of zeta^m goes to the kept fields through bar_m = sum_a c_a bar_a,
    c_a = -y^a/y^m, differentiated along X as a coordinate ratio."""
    n, kept, m = ws.n, ws.kept_indices, ws.dropped_index[:, None]
    Xval, zv = X.value, zeta.value
    coef = cn._vaisman_coefficients(ws, vs, Xval)
    z_kept, z_m = np.take_along_axis(zv, kept, axis=1), np.take_along_axis(zv, m, axis=1)
    y_kept, y_m = np.take_along_axis(ws.y, kept, axis=1), np.take_along_axis(ws.y, m, axis=1)
    Xy_kept, Xy_m = np.take_along_axis(Xval[:, n:], kept, axis=1), np.take_along_axis(Xval[:, n:], m, axis=1)
    Xc = -(Xy_kept * y_m - y_kept * Xy_m) / (y_m**2)
    total = z_kept + z_m * (-y_kept / y_m)
    zc = left_sum(total[:, a, None] * coef[:, a] for a in range(n - 1))
    return contract(directional(X, zeta), ws.E_val) + contract(zc, ws.E_kept_val) + z_m * contract(Xc, ws.E_kept_val)


def unit_residuals(ws, vs, Fc, composite: bool) -> np.ndarray:
    """The residual vectors (B, S, 2n) of the basicness check on every unit
    section along Gamma: over the kept frame, the value units then the
    radial units; for the direct sum first the same over delta/dx
    (zeta = 0), then over the kept frame (H = 0)."""
    n, gamma = ws.n, ws.gamma_field[None]
    kept_units, units = cn._units(ws, cn._coefficient_units(ws, n - 1)), cn._units(ws, cn._coefficient_units(ws, n))

    def residuals(lhs, Z):
        return lhs - ws.project_off_gamma(bracket(gamma, Z))

    def zero(*shape):
        return Jet.constant(np.zeros((ws.B,) + shape), ws.dim, 1)

    bars = residuals(np.concatenate([np.zeros((ws.B, 2 * n - 2, n)), cn.apply_vaisman(ws, vs, gamma, kept_units)],
                                    axis=-1), cn._units(ws, ws.kept_bar_fields))
    if not composite:
        return bars
    horizontal = residuals(cn.apply_composite(ws, vs, Fc, gamma, units, zero(2 * n, n - 1)),
                           cn._units(ws, ws.dx_fields))
    vertical = residuals(cn.apply_composite(ws, vs, Fc, gamma, zero(2 * n - 2, n), kept_units),
                         cn._units(ws, ws.kept_bar_fields))
    return np.concatenate([horizontal, vertical], axis=1)


def assert_random_sections_combine_units(ws, vs, Fc, composite: bool, seed: int) -> np.ndarray:
    """For random sections Z = H^i delta/dx_i + zeta^k bar_k, a radial
    coefficient a and a lift b (H = 0 for the Vaisman check), the residual
    nabla_{a Gamma} Z - pi_0 [a Gamma, Z + b Gamma] equals
    a sum_k (zeta^k D_k + Gamma(zeta^k) R_k / Gamma(rho)) over the unit
    residuals D_k, R_k, up to (Z(a) - a Gamma(b) + b Gamma(a)) pi_0 Gamma,
    whose size euler.squared_norm bounds, and roundoff.  zeta is over the
    kept frame: random coefficients over the full bar system, rewritten by
    `over_kept_frame`.  Returns the random residual vectors."""
    n, gamma = ws.n, ws.gamma_field
    P = random_sections(ws, 2 * n + 2, seed)
    a, b, H, zeta = P[0], P[1], P[2 : 2 + n], over_kept_frame(ws, P[2 + n :])
    X = a * gamma
    Z = left_sum(f * F for f, F in [*zip(H, ws.dx_fields)] * composite + [*zip(zeta, ws.kept_bar_fields)])
    if composite:
        lhs = cn.apply_composite(ws, vs, Fc, X, H, zeta)
    else:
        lhs = np.concatenate([np.zeros((ws.B, n)), cn.apply_vaisman(ws, vs, X, zeta)], axis=1)
    w = ws.project_off_gamma(bracket(X, Z + b * gamma))
    got = lhs - w

    units = unit_residuals(ws, vs, Fc, composite)
    rho = cn._radial_units(ws, Jet.constant(np.ones(ws.B), ws.dim, 1))
    coefficients = [H, zeta] if composite else [zeta]
    weights = np.concatenate([np.concatenate([c.value, directional(gamma, c) / directional(gamma, rho)[:, None]],
                                             axis=1) for c in coefficients], axis=1)
    want = a.value[:, None] * np.einsum("bs,bsc->bc", weights, units)

    c = directional(Z, a) - a.value * directional(gamma, b) + b.value * directional(gamma, a)
    pi0_gamma = np.abs(ws.project_off_gamma(gamma.value)).max(axis=1)
    bound = 4 * np.abs(c) * pi0_gamma + 64 * np.finfo(float).eps * (
        np.abs(lhs).max(axis=1) + np.abs(w).max(axis=1)
        + np.abs(a.value) * np.einsum("bs,bs->b", np.abs(weights), np.abs(units).max(axis=2)) + 1.0)
    assert (np.abs(got - want).max(axis=1) <= bound).all()
    return got


def test_vaisman_basic_zero_lift_euclidean():
    """The defining display with the zero lift: nabla_Gamma Z = pi_0[Gamma, Z]."""
    M = FinslerMetric.euclidean(2)
    ws = ws_of(M, count=20)
    vs = cn.solve_vaisman(ws)
    zeta = over_kept_frame(ws, random_sections(ws, 2, seed=4))
    gamma = ws.gamma_field
    lhs = cn.apply_vaisman(ws, vs, gamma, zeta)
    Z = zeta[0] * ws.kept_bar_fields[0]
    w = ws.project_off_gamma(bracket(gamma, Z))
    assert np.abs(np.concatenate([np.zeros((ws.B, 2)), lhs], axis=1) - w).max() <= 1e-11


def test_vaisman_basic_and_random_sections():
    """Random sections, radial coefficients and lifts: each residual is the
    combination of the unit residuals up to a multiple of pi_0 Gamma, which
    euler.squared_norm reads, so it stays at roundoff where the units do."""
    ws = ws_of(randers3())
    vs = cn.solve_vaisman(ws)
    assert cn.vaisman_basic_residuals(ws, vs).max() <= 1e-14
    first = assert_random_sections_combine_units(ws, vs, None, False, seed=2)
    second = assert_random_sections_combine_units(ws, vs, None, False, seed=7)
    assert max(np.abs(first).max(), np.abs(second).max()) <= 1e-12


def test_composite_line_displays():
    ws = ws_of(randers3())
    assert cn.radial_horizontal_residuals(ws)["horizontal_display"].max() <= 1e-10
    assert cn.vaisman_line_residuals(ws).max() <= 1e-10


def test_composite_basicness():
    """The direct sum's residual on a random section is the combination of
    its unit residuals, and the check on its radial horizontal units holds."""
    ws = ws_of(randers3())
    vs = cn.solve_vaisman(ws)
    Fc = cn.vranceanu_values(ws)["Fc"]
    assert cn.composite_basic_residuals(ws, vs, Fc).max() <= 1e-14
    for seed in (3, 8):
        assert np.abs(assert_random_sections_combine_units(ws, vs, Fc, True, seed)).max() <= 1e-12


# fault -> the checks it moves (False: the Vaisman check, True: the direct sum's); N = 0 on euclidean4
REACHED = {drop_lambda: (False, True), perturb_e_kept: (False, True), perturb_hv_split: (True,),
           swap_composite_summands: (True,)}


@pytest.mark.parametrize("fault", [None, *REACHED], ids=lambda f: "clean" if f is None else f.__name__)
@pytest.mark.parametrize("name", ["riemann2", "randers3", "euclidean4"])
def test_random_sections_are_combinations_of_the_unit_sections(name, fault, monkeypatch):
    """The residual on random sections, radial coefficients and lifts is the
    combination of the unit residuals, clean and under each fault that
    either basicness row is to catch: the identity is linear in the section,
    so the units settle it.  A fault moves the random residuals to 2e-7 or
    more, and the combination still holds."""
    if fault is not None:
        fault(monkeypatch)
    ws = ws_of(load_catalog_metric(name))
    vs = cn.solve_vaisman(ws)
    Fc = cn.vranceanu_values(ws)["Fc"]
    reached = () if fault is None or (fault is perturb_hv_split and name == "euclidean4") else REACHED[fault]
    for composite in (False, True):
        worst = np.abs(assert_random_sections_combine_units(ws, vs, Fc, composite, seed=11)).max()
        assert worst >= 2e-7 if composite in reached else worst <= 1e-13, (composite, worst)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_the_direct_sums_other_units_repeat_kept_rows_bitwise(name):
    """On its vertical-summand units over the kept frame (H = 0) the direct
    sum's residual is `vaisman.basic`'s, and on its constant horizontal units
    (zeta = 0, where its derivative is 0) `composite.horizontal_display`'s,
    bit for bit: so `composite.basic` runs only on the radial horizontal
    units."""
    ws = ws_of(load_catalog_metric(name), count=256, seed=42)
    vs, Fc, n = cn.solve_vaisman(ws), cn.vranceanu_values(ws)["Fc"], ws.n
    gamma, kept_units = ws.gamma_field[None], cn._coefficient_units(ws, n - 1)
    zero = Jet.constant(np.zeros((ws.B, 2 * n - 2, n)), ws.dim, 1)
    vertical = cn._basicness(ws, cn.apply_composite(ws, vs, Fc, gamma, zero, cn._units(ws, kept_units)),
                             cn._units(ws, ws.kept_bar_fields))
    assert vertical.tobytes() == cn.vaisman_basic_residuals(ws, vs).tobytes()
    zero = Jet.constant(np.zeros((ws.B, n, n - 1)), ws.dim, 1)
    horizontal = cn._basicness(ws, cn.apply_composite(ws, vs, Fc, gamma, cn._coefficient_units(ws, n), zero),
                               ws.dx_fields)
    assert horizontal.tobytes() == cn.radial_horizontal_residuals(ws)["horizontal_display"].tobytes()


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_stacked_random_sections_equal_the_per_sample_loops_bitwise(name):
    """The engines of the basicness checks take a stack of fields and
    sections and give each sample the bits of its own call, at 256 points:
    along a stack of radial fields a Gamma, and along the one field Gamma
    broadcast over the stack, as the checks run their unit sections."""
    ws = ws_of(load_catalog_metric(name), count=256, seed=42)
    vs, Fc, n, gamma = cn.solve_vaisman(ws), cn.vranceanu_values(ws)["Fc"], ws.n, ws.gamma_field
    S = 3
    P = random_sections(ws, S * 2 * n, seed=5)
    P = Jet(P.m, 1, P.buf.reshape(P.buf.shape[:2] + (S, 2 * n)))
    H, zeta = P[:, 1 : 1 + n], P[:, 1 + n :]
    X = stack([P[s, 0] * gamma for s in range(S)])
    Z = stack([left_sum(f * F for f, F in [*zip(H[s], ws.dx_fields), *zip(zeta[s], ws.kept_bar_fields)])
               for s in range(S)])
    stacked = {"composite": cn.apply_composite(ws, vs, Fc, X, H, zeta),
               "vaisman along Gamma": cn.apply_vaisman(ws, vs, gamma[None], zeta),
               "projected bracket": ws.project_off_gamma(bracket(X, Z))}
    for s in range(S):
        alone = {"composite": cn.apply_composite(ws, vs, Fc, X[s], H[s], zeta[s]),
                 "vaisman along Gamma": cn.apply_vaisman(ws, vs, gamma, zeta[s]),
                 "projected bracket": ws.project_off_gamma(bracket(X[s], Z[s]))}
        for key, value in alone.items():
            assert stacked[key][:, s].tobytes() == value.tobytes(), (key, s)


def test_splitting_compatibility():
    """Rewriting a vertical section over the kept frame commutes with the
    Vaisman connection: a random section over the full bar system and its
    rewrite by `over_kept_frame` are one field, and the Vaisman derivative of
    the rewrite along random fields is the one the elimination of the
    dependent field gives, to roundoff."""
    for M in (riemann2(), randers3()):
        ws = ws_of(M)
        vs, n = cn.solve_vaisman(ws), ws.n
        P = random_sections(ws, 3 * n, seed=5)
        X, zeta = P[: 2 * n], P[2 * n :]
        kept = over_kept_frame(ws, zeta)
        full = left_sum(z * F for z, F in zip(zeta, ws.bar_fields))
        rewritten = left_sum(z * F for z, F in zip(kept, ws.kept_bar_fields))
        assert np.abs(full.buf - rewritten.buf).max() <= 1e-12
        assert np.abs(cn.apply_vaisman(ws, vs, X, kept) - eliminated_vaisman(ws, vs, X, zeta)).max() <= 1e-9


def test_dg_dy_is_one_read_only_value_per_workspace(monkeypatch):
    """The Vranceanu tables and the Euler check read the workspace's dg/dy:
    g is differentiated along y once, whichever of them runs."""
    ws = ws_of(randers3())
    g, raw, calls = ws.g, Jet.deriv, []

    def deriv(self, index):
        if self is g:
            calls.append(np.array(index).tolist())
        return raw(self, index)

    monkeypatch.setattr(Jet, "deriv", deriv)
    tables = cn.vranceanu_values(ws)
    vertical = sp.vertical_radial_residuals(ws)
    assert calls.count(ws.yvars.tolist()) == 1
    assert np.abs(tables["C"]).max() > 0.0 and vertical.max() <= 1e-10
    with pytest.raises(ValueError, match="read-only"):
        ws.dg_val[0] = 0.0


def test_per_point_check_apis():
    M = randers2()
    p = TangentPoint([0.2, -0.1], [0.9, 1.1])
    out = check_point(M, p, ["vaisman", "composite"])
    assert out["vaisman.line_display"] <= 1e-10 and out["vaisman.basic"] <= 1e-8
    assert out["composite.horizontal_display"] <= 1e-10 and out["composite.basic"] <= 1e-7
    table = cn.connection_triple(M, p)
    assert table.bundle == "radial_complement"
    assert table.radial_bar == -1.0
