"""Liouville fields, the orthogonal vertical frame, frame pack, Frobenius."""

import numpy as np

import finslerlab.liouville as lv
from finslerlab.checks import check_point
from finslerlab.jets import TangentPoint
from finslerlab.metrics import FinslerMetric, sample_points
from finslerlab.spray import Workspace, workspace_at

from helpers import randers2, randers3, riemann2


def ws_of(M, count=60, seed=13, order=4):
    x, y = sample_points(M, count, seed)
    return Workspace(M, x, y, order=order)


def test_euclidean_t_values():
    ws = workspace_at(FinslerMetric.euclidean(2), TangentPoint([0.0, 0.0], [3.0, 4.0]))
    assert np.abs(ws.t_val[0] - np.array([3.0, 4.0]) / 25.0).max() <= 1e-15
    assert lv.t_consistency_residuals(ws)[0] <= 1e-12


def test_t_normalization_on_samples():
    for M in (FinslerMetric.euclidean(3), randers2(), riemann2()):
        ws = ws_of(M)
        res = lv.coefficient_identity_residuals(ws)["normalization"]
        assert res.max() <= 1e-12


def test_t_two_formulas_agree():
    assert lv.t_consistency_residuals(ws_of(randers2())).max() <= 1e-10


def test_bar_frame_euclidean_axis_point():
    ws = workspace_at(FinslerMetric.euclidean(2), TangentPoint([0.0, 0.0], [0.0, 1.0]))
    assert ws.dropped_index[0] == 1
    assert np.abs(ws.E_val[0][0] - np.array([1.0, 0.0])).max() <= 1e-15
    assert np.abs(ws.E_val[0][1]).max() <= 1e-15
    assert ws.E_kept_val[0].shape == (1, 2)


def test_bar_frame_orthogonality():
    for M in (randers2(), randers3()):
        assert lv.orthogonality_residuals(ws_of(M)).max() <= 1e-10


def test_dependent_field_relation():
    assert lv.dependence_residuals(ws_of(randers2())).max() <= 1e-10
    assert lv.dependence_residuals(ws_of(randers3())).max() <= 1e-10


def test_frame_pack_is_well_conditioned():
    assert np.linalg.cond(lv.pack_rows(ws_of(randers3()))).max() < lv.PACK_CONDITION_LIMIT


def test_coefficient_identities():
    euc = lv.coefficient_identity_residuals(ws_of(FinslerMetric.euclidean(2)))
    assert max(v.max() for v in euc.values()) <= 1e-12
    rie = lv.coefficient_identity_residuals(ws_of(riemann2()))
    assert max(v.max() for v in rie.values()) <= 1e-10
    ran = lv.coefficient_identity_residuals(ws_of(randers2()))
    assert ran["t_radial_derivative"].max() <= 1e-10


def test_bracket_relations():
    euc = lv.bar_bracket_residuals(ws_of(FinslerMetric.euclidean(2)))
    assert max(v.max() for v in euc.values()) <= 1e-11
    ran = lv.bar_bracket_residuals(ws_of(randers3()))
    assert max(v.max() for v in ran.values()) <= 1e-8


def test_bracket_same_index_is_zero():
    ws = ws_of(randers2(), count=5)
    from finslerlab.spray import bracket

    w = bracket(ws.bar_fields[0], ws.bar_fields[0])
    assert np.abs(w).max() == 0.0
    assert np.abs(ws.bar_bar_brackets[:, range(2), range(2)]).max() == 0.0  # the table's diagonal


def test_frame_pack_hand_example():
    # euclidean n=2 at y = (0, 1): the pack is a coordinate permutation
    ws = workspace_at(FinslerMetric.euclidean(2), TangentPoint([0.7, -0.3], [0.0, 1.0]))
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],  # bar_delta: delta/dx^1
            [0.0, 1.0, 0.0, 0.0],  # xi = y^i delta/dx^i = delta/dx^2
            [0.0, 0.0, 1.0, 0.0],  # bar_1 = d/dy^1
            [0.0, 0.0, 0.0, 1.0],  # Gamma = d/dy^2
        ]
    )
    assert np.abs(lv.pack_rows(ws)[0] - expected).max() <= 1e-14
    assert ws.dropped_index[0] == 1


def test_frame_pack_gram_blocks_and_j_images():
    for M in (randers2(), randers3()):
        ws = ws_of(M)
        res = lv.pack_residuals(ws)
        assert res["gram_offblock"].max() <= 1e-9
        assert res["j_images"].max() <= 1e-10
        assert res["conditioning"].max() == 0.0  # condition number below 1e10 at every point


def test_radial_norms():
    ws = ws_of(randers2())
    gam = ws.gamma_field.value
    xi = np.concatenate([ws.y, -np.einsum("bji,bi->bj", ws.N_val, ws.y)], axis=1)
    assert np.abs(ws.sasaki_values(gam, gam) - ws.L_val).max() / ws.L_val.min() <= 1e-10
    assert np.abs(ws.sasaki_values(xi, xi) - ws.L_val).max() / ws.L_val.min() <= 1e-10
    assert np.abs(ws.sasaki_values(gam, xi)).max() / ws.L_val.min() <= 1e-10


def test_frobenius_leakages():
    for M, tol_ind in ((riemann2(), 1e-8), (randers3(), 1e-8)):
        res = lv.frobenius_residuals(ws_of(M, count=40))
        assert res["indicatrix"].max() <= tol_ind
        assert res["level_set"].max() <= 1e-7
        assert res["radial_plane"].max() <= 1e-8


def test_t_scaling_homogeneity():
    M = randers2()
    x, y = sample_points(M, 40, 21)
    t0 = Workspace(M, x, y, order=1).t_val
    for lam in (0.5, 2.0):
        t1 = Workspace(M, x, lam * y, order=1).t_val
        assert np.abs(lam * t1 - t0).max() <= 1e-10


def test_frobenius_checks_per_point_api():
    out = check_point(randers2(), TangentPoint([0.2, 0.4], [1.0, -0.8]), ["frobenius"])
    assert set(out) == {"frobenius.indicatrix", "frobenius.level_set", "frobenius.radial_plane"}
    assert all(v <= 1e-7 for v in out.values())
