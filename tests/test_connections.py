"""The connection triple: tables, basicness, torsion/metricity."""

import dataclasses

import numpy as np
import pytest

import finslerlab.checks as checks
import finslerlab.connections as cn
import finslerlab.liouville as lv
import finslerlab.spray as sp
from finslerlab.checks import check_point
from finslerlab.jets import Jet, TangentPoint
from finslerlab.metrics import FinslerMetric, sample_points
from finslerlab.spray import Workspace, bracket, workspace_at

from helpers import (CATALOG_NAMES, jet_poly_section, load_catalog_metric, per_sample_composite_basic,
                     per_sample_splitting, per_sample_vaisman_basic, randers2, randers3, riemann2, stack)


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
    assert res["c_radial"].max() <= 1e-10
    assert res["c_radial_trace"].max() <= 1e-10
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


def test_euclidean_round_indicatrix_oracle():
    """Flat case oracle (derived by hand from the Koszul formula on the round
    indicatrix): nabla_{bar_a} bar_q = -t_q bar_a, all mixed terms zero."""
    for n in (2, 3):
        ws = ws_of(FinslerMetric.euclidean(n))
        vs = cn.solve_vaisman(ws)
        tables = cn.vranceanu_values(ws)
        assert cn.euclidean_table_residuals(ws, vs, tables).max() <= 1e-10


def kept_torsion(ws, vs) -> float:
    """Largest nabla_{bar_a} bar_q - nabla_{bar_q} bar_a - pi[bar_a, bar_q]
    over kept indicatrix pairs, each derivative through `apply_vaisman_kept`
    along X = bar_a (whose leafwise part mu is the unit vector e_a)."""
    n = ws.n
    bars = Jet(ws.dim, 1, np.take_along_axis(ws.bar_fields.buf, ws.kept_indices[None, :, :, None], axis=2))

    def nabla(a, q):
        unit = Jet.constant(np.broadcast_to(np.eye(n - 1)[q], (ws.B, n - 1)), ws.dim, 1)
        return cn.apply_vaisman_kept(ws, vs, bars[a], unit)

    worst = 0.0
    for a in range(n - 1):
        for q in range(a + 1, n - 1):
            w = ws.project_off_gamma(bracket(bars[a], bars[q]))[:, n:]
            worst = max(worst, np.abs(nabla(a, q) - nabla(q, a) - w).max())
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


@pytest.mark.parametrize("name", ["riemann2", "randers3", "euclidean4"])
def test_random_sections_match_jet_arithmetic_bitwise(name):
    """The sections written from their Taylor coefficients equal the ones
    summed term by term in order-1 jet arithmetic, signed zeros included, and
    draw the same random numbers (n = 2, 3, 4), at the widths 1, n, one
    sample's n + 2, 2n + 2 and 3n, and the one stacked pass's of each check."""
    ws = ws_of(load_catalog_metric(name), count=16)
    n = ws.n
    for k in (1, n, n + 2, 2 * n + 2, 3 * n, *(cn.SAMPLES * w for w in (n + 2, 2 * n + 2, 3 * n))):
        for seed in range(8):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = cn.random_poly_jet(ws, rng, k)
            want = stack([jet_poly_section(ws, oracle_rng, 1) for _ in range(k)])
            assert got.order == want.order == 1 and got.buf.shape == want.buf.shape
            assert got.buf.tobytes() == want.buf.tobytes(), (k, seed)
            assert got.buf.flags.c_contiguous
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("name", ["riemann2", "randers3", "euclidean4"])
def test_one_wide_draw_is_two_narrow_draws(name):
    """A draw of width a + b is a draw of width a followed by one of width b,
    bit for bit, and leaves the generator in the same state: each check
    draws all its samples' polynomials in one call."""
    ws = ws_of(load_catalog_metric(name), count=16)
    n = ws.n
    for a, b in ((n, 3), (1, 2 * n + 2), (2 * n, n), (1, 1)):
        for seed in range(4):
            rng, split_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            wide = cn.random_poly_jet(ws, rng, a + b)
            first, second = cn.random_poly_jet(ws, split_rng, a), cn.random_poly_jet(ws, split_rng, b)
            assert wide[:a].buf.tobytes() == first.buf.tobytes(), (a, b, seed)
            assert wide[a:].buf.tobytes() == second.buf.tobytes(), (a, b, seed)
            assert rng.bit_generator.state == split_rng.bit_generator.state


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_stacked_random_sections_equal_the_per_sample_loops_bitwise(name):
    """Each random-section producer runs its samples in one stacked pass and
    equals the per-sample loop it replaced bit for bit, at 256 points, and
    leaves its generator in the same state."""
    ws = ws_of(load_catalog_metric(name), count=256, seed=42)
    vs, Fc = cn.solve_vaisman(ws), cn.vranceanu_values(ws)["Fc"]
    cases = [(cn.vaisman_basic_residuals, per_sample_vaisman_basic, (ws, vs)),
             (cn.composite_basic_residuals, per_sample_composite_basic, (ws, vs, Fc)),
             (cn.splitting_compatibility_residuals, per_sample_splitting, (ws, vs))]
    for seed, (stacked, oracle, args) in enumerate(cases):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = stacked(*args, rng), oracle(*args, oracle_rng)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].shape == (ws.B,) and got[key].tobytes() == want[key].tobytes(), (stacked.__name__, key)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


RANDOM_SECTION_CHECKS = {  # id -> (producer, per-sample oracle, generator tag)
    "vaisman.basic": (cn.vaisman_basic_residuals, per_sample_vaisman_basic, "vaisman.basic"),
    "composite.basic": (cn.composite_basic_residuals, per_sample_composite_basic, "composite.basic"),
    "connections.vertical_embedding": (cn.splitting_compatibility_residuals, per_sample_splitting,
                                       "connections.splitting"),
}


def _oracle_args(ctx, cid):
    return (ctx.ws, ctx.vaisman, ctx.vranceanu["Fc"]) if cid == "composite.basic" else (ctx.ws, ctx.vaisman)


@pytest.mark.parametrize("name", ["riemann2", "randers3"])
def test_each_random_section_check_draws_once_per_chunk(name, monkeypatch):
    """Each random-section producer draws all its samples' polynomials in one
    `random_poly_jet` call per chunk: one stacked pass, one lift per sample."""
    M = load_catalog_metric(name)
    x, y = sample_points(M, 32, 42)
    ctx = checks.ChunkContext(M, x, y, 42, 0)
    raw, widths = cn.random_poly_jet, []

    def counted(ws, rng, k):
        widths.append(k)
        return raw(ws, rng, k)

    monkeypatch.setattr(cn, "random_poly_jet", counted)
    n = M.n
    for cid, width in (("vaisman.basic", n + 2), ("composite.basic", 2 * n + 2),
                       ("connections.vertical_embedding", 3 * n)):
        widths.clear()
        producer, _, tag = RANDOM_SECTION_CHECKS[cid]
        producer(*_oracle_args(ctx, cid), ctx.rng(tag))
        assert widths == [cn.SAMPLES * width], cid


def test_random_section_checks_follow_the_sweep_seed():
    """The random sections come from the chunk's generator for the check's
    tag, so two seeds test two sets of sections and read two residuals, both
    within tolerance, each the per-sample oracle's on that generator."""
    M, p = randers3(), TangentPoint([0.2, -0.1, 0.3], [0.9, 1.1, -0.4])
    tolerance = {c.id: c.tolerance for c in checks.CHECKS}
    for cid, (_, oracle, tag) in RANDOM_SECTION_CHECKS.items():
        read = []
        for seed in (1, 2):
            got = check_point(M, p, [cid], seed)[cid]
            ctx = checks.ChunkContext(M, p.x[None], p.y[None], seed, 0)
            want = oracle(*_oracle_args(ctx, cid), ctx.rng(tag))
            assert got == float(want[cid.split(".")[1]][0]), (cid, seed)
            read.append(got)
        assert read[0] != read[1] and max(read) <= tolerance[cid], cid


def test_vaisman_basic_zero_lift_euclidean():
    """The defining display with the zero lift: nabla_Gamma Z = pi_0[Gamma, Z]."""
    M = FinslerMetric.euclidean(2)
    ws = ws_of(M, count=20)
    vs = cn.solve_vaisman(ws)
    rng = np.random.default_rng(4)
    zeta = cn.random_poly_jet(ws, rng, k=2)
    gamma = ws.gamma_field
    lhs = cn.apply_vaisman(ws, vs, gamma, zeta)
    Z = zeta[0] * ws.bar_fields[0] + zeta[1] * ws.bar_fields[1]
    w = ws.project_off_gamma(bracket(gamma, Z))
    assert np.abs(np.concatenate([np.zeros((ws.B, 2)), lhs], axis=1) - w).max() <= 1e-11


def test_vaisman_basic_and_lift_independence():
    """Basicness holds for the drawn lift and for an independent one, and the
    two residuals agree: the gap of two lifts is pi_0[a Gamma, c Gamma], which
    euler.squared_norm reads, so the sweep draws one lift."""
    ws = ws_of(randers3())
    vs = cn.solve_vaisman(ws)
    res = cn.vaisman_basic_residuals(ws, vs, np.random.default_rng(2))
    assert res["basic"].max() <= 1e-8
    other = np.random.default_rng(7)
    second = per_sample_vaisman_basic(ws, vs, np.random.default_rng(2),
                                      lift=lambda P: cn.random_poly_jet(ws, other, 1)[0])
    assert second["basic"].max() <= 1e-8
    assert np.abs(res["basic"] - second["basic"]).max() <= 1e-10


def test_composite_line_displays():
    ws = ws_of(randers3())
    assert cn.radial_horizontal_residuals(ws)["horizontal_display"].max() <= 1e-10
    assert cn.vaisman_line_residuals(ws).max() <= 1e-10


def test_composite_basicness():
    """Basicness of the direct sum for the drawn lift and for an independent
    one, whose residuals agree."""
    ws = ws_of(randers3())
    vs = cn.solve_vaisman(ws)
    Fc = cn.vranceanu_values(ws)["Fc"]
    res = cn.composite_basic_residuals(ws, vs, Fc, np.random.default_rng(3))
    assert res["basic"].max() <= 1e-7
    other = np.random.default_rng(8)
    second = per_sample_composite_basic(ws, vs, Fc, np.random.default_rng(3),
                                        lift=lambda P: cn.random_poly_jet(ws, other, 1)[0])
    assert second["basic"].max() <= 1e-7
    assert np.abs(res["basic"] - second["basic"]).max() <= 1e-10


def test_splitting_compatibility():
    for M in (riemann2(), randers3()):
        ws = ws_of(M)
        vs = cn.solve_vaisman(ws)
        res = cn.splitting_compatibility_residuals(ws, vs, np.random.default_rng(5))
        assert res["vertical_embedding"].max() <= 1e-9


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
    out = check_point(M, p, ["vaisman", "composite", "connections"])
    assert out["vaisman.line_display"] <= 1e-10 and out["vaisman.basic"] <= 1e-8
    assert out["composite.horizontal_display"] <= 1e-10 and out["composite.basic"] <= 1e-7
    assert out["connections.vertical_embedding"] <= 1e-9
    table = cn.connection_triple(M, p)
    assert table.bundle == "radial_complement"
    assert table.radial_bar == -1.0
