"""Mutation harness: every check in the table can fail.

Each entry of FAULTS is a seeded fault, a monkeypatch of one engine that a
correct laboratory must notice.  A fault runs the 256-point sweep of
`run_verification` on every catalog config it applies to, at the default
tolerances, and must fail at least one check on each.  The kill matrix maps
every check id to the faults that fail it; an id that no fault fails needs a
stated reason in NO_KILL.  A sweep that raises is a harness error, not a kill.

Run with `-s` to print the kill matrix.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from functools import cached_property, partial

import numpy as np
import pytest

import finslerlab.charts as ch
import finslerlab.checks as checks
import finslerlab.connections as cn
import finslerlab.metrics as mt
import finslerlab.spray as sp
from finslerlab.checks import run_verification
from finslerlab.jets import Jet

from helpers import CATALOG_NAMES, funk, load_catalog_metric

POINTS = 256
SEED = 42
CURVED = tuple(name for name in CATALOG_NAMES if name != "euclidean4")  # N, G and the tables vanish on euclidean4
RIEMANN = ("riemann2", "riemann3")  # the configs with off-diagonal polynomial entries a_ij


def _patch_workspace(mp, name: str, transform) -> None:
    """Replace the cached `Workspace.<name>` by transform(ws, true value)."""
    raw = sp.Workspace.__dict__[name].func
    prop = cached_property(lambda ws: transform(ws, raw(ws)))
    prop.__set_name__(sp.Workspace, name)
    mp.setattr(sp.Workspace, name, prop)


def _with_entry(jet: Jet, index: tuple, change) -> Jet:
    """A copy of the array jet with the component at `index` replaced by
    change(component), every derivative row with it."""
    buf = jet.buf.copy()
    buf[(slice(None), slice(None)) + index] = change(jet[index]).buf
    return Jet(jet.m, jet.order, buf)


def flip_n01(mp):
    """The sign of one nonlinear-connection coefficient N^0_1 is flipped."""
    _patch_workspace(mp, "N", lambda ws, N: _with_entry(N, (0, 1), lambda c: -c))


def transpose_vranceanu(mp):
    """The Vranceanu tables are stored with the output and section index
    swapped: C^i_kj for C^k_ij and F^i_kj for F^k_ij."""
    raw = cn.vranceanu_values

    def vranceanu_values(ws):
        tables = raw(ws)
        return {**tables, "C": tables["C"].transpose(0, 2, 1, 3), "Fc": tables["Fc"].transpose(0, 2, 1, 3)}

    mp.setattr(cn, "vranceanu_values", vranceanu_values)


def drop_lambda(mp):
    """The Vaisman coefficients lose the radial part -lambda of the direction,
    for one field (B, 2n) or a stack of them (B, S, 2n)."""
    raw = cn._vaisman_coefficients

    def coefficients(ws, vs, Xval):
        _, vvert = ws.hv_split_values(Xval)
        lam = np.einsum("bj,b...j->b...", ws.t_val, vvert)
        return raw(ws, vs, Xval) + lam[..., None, None] * np.eye(ws.n - 1)

    mp.setattr(cn, "_vaisman_coefficients", coefficients)


def perturb_sbar(mp):
    """The Koszul coefficients s_bar of the Vaisman connection are off by 1e-6 relative."""
    raw = cn.solve_vaisman

    def solve_vaisman(ws):
        vs = raw(ws)
        return dataclasses.replace(vs, s_bar=vs.s_bar * (1.0 + 1e-6))

    mp.setattr(cn, "solve_vaisman", solve_vaisman)


def perturb_j(mp):
    """One entry of the almost complex structure J is off by 1e-6."""

    def perturbed(ws, J):
        J = J.copy()
        J[:, 0, ws.n] += 1e-6
        return J

    _patch_workspace(mp, "complex_structure_val", perturbed)


def wrong_chart_drop(mp):
    """Each chart target reports a dropped index its kept frame does not drop."""
    raw = checks.ChunkContext.chart_target

    def chart_target(ctx, name):
        wt = raw(ctx, name)
        wt.kept_indices  # cached from the true dropped index first
        wt.dropped_index = (np.argmax(np.abs(wt.y), axis=1) + 1) % wt.n
        return wt

    mp.setattr(checks.ChunkContext, "chart_target", chart_target)


def offset_pushforward(mp, size=1e-6):
    """The pushed-forward metric reads its point off by `size` in every chart
    coordinate, x and y."""
    raw = ch.pushforward_metric

    def pushforward_metric(M, C):
        Mt = raw(M, C)
        return dataclasses.replace(
            Mt, evaluate=lambda xt, yt: Mt.evaluate([a + size for a in xt], [b + size for b in yt])
        )

    mp.setattr(ch, "pushforward_metric", pushforward_metric)


def swap_composite_summands(mp):
    """The direct sum puts the Vaisman derivative in the horizontal slot and
    the horizontal restriction's in the vertical slot, for one field and
    section or a stack of them."""

    def apply_composite(ws, vs, Fc, X, H, zeta):
        lhs_h = cn.apply_horizontal_connection(ws, Fc, X, H)
        lhs_v = cn.apply_vaisman(ws, vs, X, zeta)
        return np.concatenate([lhs_v, -np.einsum("bji,b...i->b...j", ws.N_val, lhs_v) + lhs_h], axis=-1)

    mp.setattr(cn, "apply_composite", apply_composite)


def perturb_t(mp):
    """The Liouville coefficient t_0 = (dF/dy^0)/F is off by 1e-6 relative,
    with its jet rows."""
    _patch_workspace(mp, "t", lambda ws, t: _with_entry(t, (0,), lambda c: c * (1.0 + 1e-6)))


def perturb_e_kept(mp):
    """The first kept orthogonal vertical row, as the Vaisman engines read
    it, is off by 1e-6 relative in its first component."""

    def perturbed(ws, E_kept):
        E_kept = E_kept.copy()
        E_kept[:, 0, 0] *= 1.0 + 1e-6
        return E_kept

    _patch_workspace(mp, "E_kept_val", perturbed)


def perturb_g(mp):
    """The fundamental tensor entry g_00 is off by 1e-6 relative."""
    _patch_workspace(mp, "g", lambda ws, g: _with_entry(g, (0, 0), lambda c: c * (1.0 + 1e-6)))


def inhomogeneous_g(mp):
    """The fundamental tensor entry g_00 gains 1e-6 y^0, with its jet rows, so
    g is no longer homogeneous of degree 0 in y."""
    _patch_workspace(mp, "g", lambda ws, g: _with_entry(g, (0, 0), lambda c: c + 1e-6 * ws.yj[0]))


def perturb_g0(mp):
    """The spray coefficient G^0 gains 1e-6 F^2, in both the Workspace pipeline
    and the geodesic integrator's `spray_values`: still a spray, but not the
    metric's."""
    _patch_workspace(mp, "spray_G", lambda ws, G: _with_entry(G, (0,), lambda c: c + 1e-6 * ws.L))
    perturb_integrator_g0(mp)


def perturb_integrator_g0(mp):
    """The integrator half of `perturb_g0`: `spray_values` gains 1e-6 F^2 in G^0."""
    raw = sp.spray_values

    def spray_values(M, z):
        G = raw(M, z)
        G[:, 0] += 1e-6 * M.F(z[:, : M.n], z[:, M.n :]) ** 2
        return G

    mp.setattr(sp, "spray_values", spray_values)


def inhomogeneous_f(mp):
    """The square root in the catalog evaluators returns sqrt(q) (1 + 1e-6 q),
    so F is no longer homogeneous of degree 1 in y.  A Randers metric's
    Workspace reads it through `CatalogEvaluator.squared_jet`; a Riemannian
    one's L = q takes no square root, so there it reaches only the values of
    F (the load probe, the integrator's F and the FD cross-check) and the
    chart targets, whose pushed-forward evaluators call the catalog one."""
    raw = mt.sqrt
    mp.setattr(mt, "sqrt", lambda q: raw(q) * (1.0 + 1e-6 * q))


def transpose_frame_n(mp):
    """The adapted frame rows delta/dx_i carry -N^i_j where -N^j_i belongs."""

    def transposed(ws, frame):
        frame = frame.copy()
        frame[:, : ws.n, ws.n :] = -ws.N_val
        return frame

    _patch_workspace(mp, "frame_val", transposed)


def perturb_bar_bracket(mp):
    """The cached bracket table entry [bar_0, bar_1] is off by 1e-6 relative."""

    def perturbed(ws, table):
        table = table.copy()
        table[:, 0, 1] *= 1.0 + 1e-6
        return table

    _patch_workspace(mp, "bar_bar_brackets", perturbed)


def perturb_hv_split(mp):
    """The horizontal/vertical split of coordinate components scales its
    N u_x term by 1 + 1e-6: v = u_y + (1 + 1e-6) N u_x."""
    raw = sp.Workspace.hv_split_values

    def hv_split_values(ws, comps_val):
        h, v = raw(ws, comps_val)
        return h, v + 1e-6 * (v - comps_val[..., ws.n :])

    mp.setattr(sp.Workspace, "hv_split_values", hv_split_values)


def partial_for_delta(mp):
    """delta N / delta x is computed as the partial dN/dx: the -N dN/dy term is dropped."""
    _patch_workspace(mp, "deltaN_val", lambda ws, d: d + np.einsum("blk,bjil->bjik", ws.N_val, ws.dN_val))


def halve_offdiagonal(mp):
    """The catalog builder weighs the off-diagonal polynomial terms a_ij y^i y^j
    once, not twice: F is a valid metric, but not the configured one."""
    raw = mt._quadratic_terms
    mp.setattr(mt, "_quadratic_terms",
               lambda a, n: tuple((1.0 if i != j else w, c, i, j) for w, c, i, j in raw(a, n)))


def poly_jet_taylor_coefficients(mp):
    """`Poly.jet` stores the Taylor coefficients d^alpha p / alpha! where the
    packed layout wants the derivatives d^alpha p: the integrator's spray
    reads a g with halved diagonal, and so does the source Workspace, whose
    L the catalog evaluator writes from the same rows."""
    raw = mt._taylor_factor
    mp.setattr(mt, "_taylor_factor",
               lambda powers, alpha: raw(powers, alpha) / math.prod(math.factorial(a) for a in alpha))


# fault name -> (installer, catalog configs it applies to)
# Not listed: dropping mu^c s_bar[c] from `_vaisman_coefficients` fails no
# check.  Every basicness check differentiates along a radial direction, where
# mu = 0.
FAULTS = {
    "flip_n01": (flip_n01, CURVED),
    "transpose_vranceanu": (transpose_vranceanu, CURVED),
    "drop_lambda": (drop_lambda, CATALOG_NAMES),
    "perturb_sbar": (perturb_sbar, CATALOG_NAMES),
    "perturb_j": (perturb_j, CATALOG_NAMES),
    "wrong_chart_drop": (wrong_chart_drop, CATALOG_NAMES),
    "offset_pushforward": (offset_pushforward, CATALOG_NAMES),
    # the cubic rows' tolerance of 1e-9 is what catches an offset this small
    "offset_pushforward_1e-9": (partial(offset_pushforward, size=1e-9), CATALOG_NAMES),
    "swap_composite_summands": (swap_composite_summands, CATALOG_NAMES),
    "perturb_t": (perturb_t, CATALOG_NAMES),
    "perturb_e_kept": (perturb_e_kept, CATALOG_NAMES),
    "perturb_g": (perturb_g, CATALOG_NAMES),
    "inhomogeneous_g": (inhomogeneous_g, CATALOG_NAMES),
    "perturb_g0": (perturb_g0, CATALOG_NAMES),
    "inhomogeneous_f": (inhomogeneous_f, CATALOG_NAMES),
    "transpose_frame_n": (transpose_frame_n, CURVED),
    "perturb_bar_bracket": (perturb_bar_bracket, CATALOG_NAMES),
    "perturb_hv_split": (perturb_hv_split, CURVED),
    "partial_for_delta": (partial_for_delta, CURVED),
    "halve_offdiagonal": (halve_offdiagonal, RIEMANN),
    "poly_jet_taylor_coefficients": (poly_jet_taylor_coefficients, CURVED),
}

# check id -> why no fault in FAULTS fails it
NO_KILL = {
    "frames.pack_conditioning": "a conditioning guard: it fails only where the adapted frame pack "
    "degenerates (condition number above 1e10), which no small engine fault causes",
}


def _failing(fault: str | None, name: str) -> set:
    """The ids that fail the sweep of config `name` under `fault` (None: no fault)."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the load-time probe warns about some faulted evaluators
        if fault is not None:
            FAULTS[fault][0](mp)
        report = run_verification(load_catalog_metric(name), points=POINTS, seed=SEED)
    return {c["id"] for c in report["checks"] if not c["pass"]}


@pytest.fixture(scope="module")
def kill_matrix():
    """({check id: faults that fail it}, {(fault, config): failing ids})."""
    jobs = [(None, name) for name in CATALOG_NAMES]
    jobs += [(fault, name) for fault, (_, configs) in FAULTS.items() for name in configs]
    # a fault patches module attributes, so each sweep runs in a worker process
    # of its own interpreter; two workers keep the harness within two cores
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        failing = dict(zip(jobs, pool.map(_failing, *zip(*jobs))))
    clean = {name: failing.pop((None, name)) for name in CATALOG_NAMES}
    assert clean == dict.fromkeys(CATALOG_NAMES, set()), "a check fails without a fault"

    selected = {c.id for name in CATALOG_NAMES for c in checks.select_checks(load_catalog_metric(name))}
    matrix = {cid: [f for f in FAULTS if any(cid in failing.get((f, name), ()) for name in CATALOG_NAMES)]
              for cid in sorted(selected)}
    print("\nkill matrix (check id: faults that fail it)")
    for cid, faults in matrix.items():
        print(f"  {cid}: {', '.join(faults) or '-'}")
    return matrix, failing


def test_every_fault_fails_a_check_on_every_config_it_applies_to(kill_matrix):
    _, failing = kill_matrix
    assert [job for job, ids in failing.items() if not ids] == []


def test_every_check_is_killed_or_has_a_stated_reason(kill_matrix):
    matrix, _ = kill_matrix
    assert [cid for cid, faults in matrix.items() if not faults and cid not in NO_KILL] == []
    # a stated reason is only kept while it is needed
    assert [cid for cid in NO_KILL if cid not in matrix or matrix[cid]] == []


def test_euler_rows_watch_the_fundamental_tensor(kill_matrix):
    """`inhomogeneous_f` breaks every identity of a Randers metric at once
    (a Riemannian Workspace's L = q takes no sqrt); each `euler.*` row is
    also failed by a fault of g itself.  `inhomogeneous_g` fails the Euler
    form of g's homogeneity on every config, and on the Riemannian ones the
    vanishing Cartan table, the Euler form of g's independence of y."""
    matrix, failing = kill_matrix
    rows = [cid for cid in matrix if cid.startswith("euler.")]
    assert [cid for cid in rows if not set(matrix[cid]) - {"inhomogeneous_f"}] == []
    for name in CATALOG_NAMES:
        watched = {"euler.vertical_radial"}
        if name in RIEMANN:
            watched.add("special.riemannian_cartan_zero")
        assert watched <= failing[("inhomogeneous_g", name)], name


def test_basicness_rows_watch_the_connection_engines(kill_matrix):
    """On every config each fault applies to, `vaisman.basic` catches the
    Vaisman coefficients without -lambda, and `composite.basic` the direct
    sum with swapped summands and a faulty horizontal/vertical split.  The
    first two faults fail no other row."""
    _, failing = kill_matrix
    for fault, cid, only in (("drop_lambda", "vaisman.basic", True),
                             ("swap_composite_summands", "composite.basic", True),
                             ("perturb_hv_split", "composite.basic", False)):
        for name in FAULTS[fault][1]:
            assert cid in failing[(fault, name)], (fault, name)
            assert not only or failing[(fault, name)] == {cid}, (fault, name, failing[(fault, name)])


def test_chart_rows_catch_a_pushforward_offset_of_1e_9(kill_matrix):
    """An offset of 1e-9 in the pushed-forward metric's point moves the
    `charts.cubic.*` residuals to about 3e-9-5e-9, so at their tolerance of
    1e-9 a chart row fails on every config, and no other row does."""
    _, failing = kill_matrix
    for name in CATALOG_NAMES:
        ids = failing[("offset_pushforward_1e-9", name)]
        assert ids and all(cid.startswith("charts.cubic.") for cid in ids), (name, ids)


@pytest.mark.parametrize("name", ["funk2", "funk3", "euclidean4"])
def test_rk4_order_floors_roundoff_drift_and_keeps_its_kill(name, monkeypatch):
    """RK4 follows Funk and euclidean geodesics to roundoff, so
    `numerics.rk4_order` reads 0.0 there (without its floor it reads up to
    6.0 on Funk).  The integrator half of `perturb_g0` drifts F by about 1e-5
    at every dt, and the row fails (reads 4.0).  Each Funk metric costs about
    0.85 s here: its spray runs on jets."""
    M = funk(int(name[-1])) if name.startswith("funk") else load_catalog_metric(name)
    for seed in (42, 1, 7):
        assert checks._rk4_order(M, seed).tolist() == [0.0, 0.0], seed
    perturb_integrator_g0(monkeypatch)
    report = run_verification(M, points=1, seed=SEED, checks=["numerics.rk4_order"])
    assert [(r["id"], r["pass"]) for r in report["checks"]] == [("numerics.rk4_order", False)]
