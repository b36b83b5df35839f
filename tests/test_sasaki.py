"""Sasaki lift, almost complex structure, almost-Kahler form."""

from collections import Counter
from functools import cached_property

import numpy as np
import pytest

import finslerlab.sasaki as sk
from finslerlab.checks import CHUNK_SIZE, check_point, run_verification
from finslerlab.jets import TangentPoint
from finslerlab.metrics import FinslerMetric, sample_points
from finslerlab.spray import Workspace, workspace_at

from helpers import randers2, randers3, riemann2


def ws_of(M, count=40, seed=13):
    x, y = sample_points(M, count, seed)
    return Workspace(M, x, y, order=4)


def test_euclidean_sasaki_is_identity():
    ws = workspace_at(FinslerMetric.euclidean(2), TangentPoint([0.0, 0.0], [3.0, 4.0]))
    assert np.abs(ws.adapted_metric_val[0] - np.eye(4)).max() <= 1e-14
    assert np.abs(ws.sasaki_coordinate_val[0] - np.eye(4)).max() <= 1e-14


def test_radial_norm_identity():
    ws = ws_of(randers2())
    assert sk.radial_norm_residuals(ws).max() <= 1e-10


def test_sasaki_values_of_a_stack_match_one_vector_at_a_time():
    """A stack of vectors is summed in the order of one vector's call, so
    the pairings and the projections off Gamma of the stack have the bits of
    one call per vector."""
    ws = ws_of(randers3())
    stack, gam = ws.dx_bar_brackets, ws.gamma_field.value  # (B, n, n, 2n), (B, 2n)
    pairing, projected = ws.sasaki_values(stack, gam), ws.project_off_gamma(stack)
    for i, k in np.ndindex(stack.shape[1:3]):
        assert pairing[:, i, k].tobytes() == ws.sasaki_values(stack[:, i, k], gam).tobytes()
        assert projected[:, i, k].tobytes() == ws.project_off_gamma(stack[:, i, k]).tobytes()


def test_coordinate_roundtrip():
    ws = ws_of(randers3())
    assert sk.compatibility_residuals(ws)["coordinate_roundtrip"].max() <= 1e-10


def test_euclidean_kahler_is_symplectic():
    """N = 0 and g = I, so the local assembly g_ij delta-y^i wedge dx^j is the
    standard symplectic matrix."""
    Om = sk.kahler_coordinate_local(workspace_at(FinslerMetric.euclidean(2), TangentPoint([0.0, 0.0], [1.0, 2.0])))[0]
    J = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    assert np.abs(Om - J).max() <= 1e-14


def test_kahler_two_assemblies_agree():
    for M in (riemann2(), randers3()):
        assert sk.kahler_residuals(ws_of(M))["two_assemblies"].max() <= 1e-10


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
    gam = ws.gamma_field.value
    xi = np.concatenate([ws.y, -np.einsum("bji,bi->bj", ws.N_val, ws.y)], axis=1)
    Jc = ws.complex_structure_val
    Gc = ws.sasaki_coordinate_val
    jg = np.einsum("bij,bj->bi", Jc, gam)
    jx = np.einsum("bij,bj->bi", Jc, xi)
    lhs = np.einsum("bi,bij,bj->b", jg, Gc, jx)
    rhs = np.einsum("bi,bij,bj->b", gam, Gc, xi)
    assert np.abs(lhs - rhs).max() <= 1e-10 * ws.L_val.max()
    assert np.abs(rhs).max() <= 1e-10 * ws.L_val.max()


def test_compatibility_checks_per_point_api():
    out = check_point(randers2(), TangentPoint([0.1, -0.2], [0.8, 1.1]), ["sasaki"])
    assert out["sasaki.kahler_closed"] <= 1e-7
    assert out["sasaki.j_compatibility"] <= 1e-9
    assert out["sasaki.kahler_two_ways"] <= 1e-10


def test_kahler_pairing_detects_wrong_complex_structure(monkeypatch):
    """-J in place of J makes the two assemblies of Omega differ by 2 Omega:
    the row sasaki.kahler_two_ways catches it."""
    true_j = Workspace.__dict__["complex_structure_val"].func
    prop = cached_property(lambda ws: -true_j(ws))
    prop.__set_name__(Workspace, "complex_structure_val")
    monkeypatch.setattr(Workspace, "complex_structure_val", prop)
    assert sk.kahler_residuals(ws_of(randers2()))["two_assemblies"].min() >= 0.1


FRAMES = ("frame_val", "coframe_val", "adapted_metric_val", "E_kept_val", "y_dropped")


def test_coordinate_matrices_built_once_per_chunk(monkeypatch):
    """Every Sasaki, frame, chart and connection residual of a chunk reads
    the same coordinate metric, J, adapted frame, coframe, adapted metric and
    kept vertical frame, built once on the chunk's workspace.  y^m is built
    once on it and once on the chart-target workspace."""
    builds = Counter()
    for name in ("sasaki_coordinate_val", "complex_structure_val") + FRAMES:
        build = Workspace.__dict__[name].func

        def counted(ws, build=build, name=name):
            builds[name, ws] += 1  # the key keeps ws alive, so no two workspaces share it
            return build(ws)

        prop = cached_property(counted)
        prop.__set_name__(Workspace, name)
        monkeypatch.setattr(Workspace, name, prop)
    report = run_verification(riemann2(), points=CHUNK_SIZE, seed=3)
    assert report["pass"] is True
    assert set(builds.values()) == {1}
    assert Counter(name for name, _ in builds) == {
        "sasaki_coordinate_val": 1,
        "complex_structure_val": 1,
        "frame_val": 1,
        "coframe_val": 1,
        "adapted_metric_val": 1,
        "E_kept_val": 1,
        "y_dropped": 2,
    }


def test_cached_frames_are_read_only():
    """No reader can write into a frame the workspace hands out."""
    ws = ws_of(randers3(), count=4)
    for name in FRAMES:
        frame = getattr(ws, name)
        with pytest.raises(ValueError, match="read-only"):
            frame[0] = 0.0

