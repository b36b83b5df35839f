"""Sasaki lift, almost complex structure, almost-Kahler form."""

from collections import Counter
from functools import cached_property

import numpy as np

import finslerlab.sasaki as sk
from finslerlab.checks import CHUNK_SIZE, run_verification
from finslerlab.jets import TangentPoint
from finslerlab.metrics import FinslerMetric, sample_points
from finslerlab.spray import Workspace

from helpers import randers2, randers3, riemann2


def ws_of(M, count=40, seed=13):
    x, y = sample_points(M, count, seed)
    return Workspace(M, x, y, order=4)


def test_euclidean_sasaki_is_identity():
    S = sk.sasaki(FinslerMetric.euclidean(2), TangentPoint([0.0, 0.0], [3.0, 4.0]))
    assert np.abs(S.adapted - np.eye(4)).max() <= 1e-14
    assert np.abs(S.coordinate - np.eye(4)).max() <= 1e-14


def test_radial_norm_identity():
    ws = ws_of(randers2())
    assert sk.sasaki_residuals(ws)["radial_norm"].max() <= 1e-10


def test_coordinate_roundtrip():
    ws = ws_of(randers3())
    assert sk.sasaki_residuals(ws)["coordinate_roundtrip"].max() <= 1e-10


def test_euclidean_kahler_is_symplectic():
    Om = sk.kahler_form(FinslerMetric.euclidean(2), TangentPoint([0.0, 0.0], [1.0, 2.0]))
    J = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    assert np.abs(Om - J).max() <= 1e-14


def test_kahler_two_assemblies_agree():
    for M in (riemann2(), randers3()):
        assert sk.kahler_residuals(ws_of(M))["two_assemblies"].max() <= 1e-10


def test_kahler_volume_identity():
    assert sk.kahler_residuals(ws_of(randers3()))["volume_identity"].max() <= 1e-8


def test_kahler_pairing_random_vectors():
    assert sk.kahler_residuals(ws_of(randers2()))["pairing_random"].max() <= 1e-10


def test_j_squared_of_the_complex_structure():
    """J^2 = -I for the coordinate matrix of J, which depends on N: to
    roundoff on curved metrics, exactly where N = 0."""
    for M in (riemann2(), randers3()):
        assert sk.compatibility_residuals(ws_of(M))["j_squared"].max() <= 1e-15
    assert sk.compatibility_residuals(ws_of(FinslerMetric.euclidean(3)))["j_squared"].max() == 0.0


def test_j_compatibility():
    for M in (riemann2(), randers3()):
        assert sk.compatibility_residuals(ws_of(M))["j_compatibility"].max() <= 1e-9


def test_closedness_riemannian():
    assert sk.compatibility_residuals(ws_of(riemann2()))["closedness"].max() <= 1e-8


def test_closedness_randers():
    assert sk.compatibility_residuals(ws_of(randers3()))["closedness"].max() <= 1e-7


def test_orthogonal_radial_pair():
    ws = ws_of(randers2(), count=20)
    gam = ws.gamma_values()
    xi = np.concatenate([ws.y, -np.einsum("bji,bi->bj", ws.N_val, ws.y)], axis=1)
    Jc = sk.complex_structure_matrix(ws)
    Gc = sk.coordinate_metric(ws)
    jg = np.einsum("bij,bj->bi", Jc, gam)
    jx = np.einsum("bij,bj->bi", Jc, xi)
    lhs = np.einsum("bi,bij,bj->b", jg, Gc, jx)
    rhs = np.einsum("bi,bij,bj->b", gam, Gc, xi)
    assert np.abs(lhs - rhs).max() <= 1e-10 * ws.L_val.max()
    assert np.abs(rhs).max() <= 1e-10 * ws.L_val.max()


def test_compatibility_checks_per_point_api():
    out = sk.compatibility_checks(randers2(), TangentPoint([0.1, -0.2], [0.8, 1.1]))
    assert out["closedness"] <= 1e-7
    assert out["j_compatibility"] <= 1e-9
    assert out["two_assemblies"] <= 1e-10


def test_invariant_pairing_matches_four_operand_oracle():
    for M in (randers2(), randers3()):
        ws = ws_of(M)
        Jc, Gc = sk.complex_structure_matrix(ws), sk.coordinate_metric(ws)
        rng = np.random.default_rng(5)
        u, w = rng.normal(size=(2, 20, 2 * ws.n))
        oracle = np.einsum("bki,pi,bkj,qj->bpq", Jc, u, Gc, w)
        got = sk._invariant_pairing(Jc, Gc, u, w)
        assert np.abs(got - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_kahler_pairing_detects_wrong_complex_structure(monkeypatch):
    true_j = sk.complex_structure_matrix
    monkeypatch.setattr(sk, "complex_structure_matrix", lambda ws: -true_j(ws))
    assert sk.kahler_residuals(ws_of(randers2()))["pairing_random"].min() >= 0.1


def test_coordinate_matrices_built_once_per_chunk(monkeypatch):
    """Every Sasaki and frame-pack residual of a chunk reads the same
    coordinate metric and J, built once on the chunk's workspace."""
    builds = Counter()
    for name in ("sasaki_coordinate_val", "complex_structure_val"):
        build = Workspace.__dict__[name].func

        def counted(ws, build=build, name=name):
            builds[name] += 1
            return build(ws)

        prop = cached_property(counted)
        prop.__set_name__(Workspace, name)
        monkeypatch.setattr(Workspace, name, prop)
    report = run_verification(riemann2(), points=CHUNK_SIZE, seed=3)
    assert report["pass"] is True
    assert builds == {"sasaki_coordinate_val": 1, "complex_structure_val": 1}
