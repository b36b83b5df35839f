"""Two-chart consistency: changing rules and the determinant formula."""

import numpy as np
import pytest

import finslerlab.charts as ch
from finslerlab.checks import check_point
from finslerlab.errors import ConfigError
from finslerlab.jets import TangentPoint, fd_oracle
from finslerlab.metrics import FinslerMetric, Poly, sample_points
from finslerlab.spray import Workspace, workspace_at

from helpers import CATALOG_NAMES, identity_map, load_catalog_metric, randers2, randers3, riemann2


def chart_residuals(M, C, x, y):
    """The two-chart residuals between the sweep's order-4 source pipeline at
    (x, y) and the target pipeline `target_workspace` builds at its images."""
    return ch.chart_residuals(C, Workspace(M, x, y, order=4), ch.target_workspace(M, C, x, y))


def closed_determinant(M, C, p):
    """The closed form of the vertical basis change at p, from the helper
    that `chart_residuals` compares the numeric determinant with."""
    ws = workspace_at(M, p)
    wt = ch.target_workspace(M, C, ws.x, ws.y)
    return float(ch._frame_change_closed(ws, wt, C.inverse_jacobian(wt.x))[0])


def test_identity_map_all_residuals_vanish():
    M = randers2()
    x, y = sample_points(M, 40, 3)
    res = chart_residuals(M, identity_map(2), x, y)
    for key, v in res.items():
        assert v.max() <= 1e-12, key


def linear_map(n, A=None):
    """The linear map A: the cubic map at shear size 0."""
    return ch.cubic_map(n, eps=0.0, A=A)


def test_linear_map_jacobian_blocks():
    A = np.array([[1.0, 0.4], [-0.2, 1.3]])
    C = linear_map(2, A)
    p = TangentPoint([0.3, -0.1], [1.0, 0.5])
    J = C.induced_jacobian(p.x[None, :], p.y[None, :])[0]
    assert np.abs(J[:2, :2] - A).max() <= 1e-14
    assert np.abs(J[2:, 2:] - A).max() <= 1e-14
    assert np.abs(J[2:, :2]).max() <= 1e-14
    assert np.abs(C.apply(p.x)[0] - A @ p.x).max() <= 1e-14
    assert np.abs(J[:2, :2] @ p.y - A @ p.y).max() <= 1e-14
    assert np.array_equal(C.second_derivative(p.x[None, :]), np.zeros((1, 2, 2, 2)))


def test_cubic_map_jacobian_matches_fd():
    C = ch.cubic_map(3)
    x0 = np.array([0.4, -0.3, 0.2])
    J = C.jacobian(x0[None, :])[0]
    fd = fd_oracle(C.apply, [x0] * 3, [[0], [1], [2]])  # fd[k, i] = d phi_i / dx_k
    for i in range(3):
        for k in range(3):
            assert J[i, k] == pytest.approx(fd[k, i], abs=1e-6)


def test_linear_map_residuals_euclidean():
    M = FinslerMetric.euclidean(2)
    x, y = sample_points(M, 40, 5)
    res = chart_residuals(M, linear_map(2), x, y)
    assert res["covector_rule"].max() <= 1e-10
    assert res["scalar_invariance"].max() <= 1e-10


def test_cubic_map_residuals_randers():
    M = randers3()
    x, y = sample_points(M, 40, 7)
    res = chart_residuals(M, ch.cubic_map(3), x, y)
    assert res["scalar_invariance"].max() <= 1e-10
    assert res["covector_rule"].max() <= 1e-7
    assert res["bar_frame_rule"].max() <= 1e-8
    assert res["kept_frame_rule"].max() <= 1e-8
    assert res["metric_tensor_rule"].max() <= 1e-8
    assert res["horizontal_pushforward"].max() <= 1e-8


def test_determinant_formula_linear_n2():
    M = riemann2()
    x, y = sample_points(M, 40, 9)
    res = chart_residuals(M, linear_map(2), x, y)
    assert res["determinant_formula"].max() <= 1e-9


def test_determinant_formula_cubic_n3():
    M = randers3()
    x, y = sample_points(M, 40, 11)
    res = chart_residuals(M, ch.cubic_map(3), x, y)
    assert res["determinant_formula"].max() <= 1e-7


def test_determinant_identity_map_same_drop():
    M = randers2()
    C, p = identity_map(2), TangentPoint([0.1, 0.2], [0.5, 1.2])
    closed = closed_determinant(M, C, p)
    assert closed == pytest.approx(1.0, abs=1e-12)
    # |numeric - closed| / |closed|, so the numeric determinant is 1 as well
    assert ch.chart_checks(M, C, p)["determinant_formula"] <= 1e-12


def test_determinant_sign_with_distinct_dropped_indices():
    # a linear map that swaps dominance between y components, forcing m != k
    A = np.array([[0.2, 1.1], [1.1, 0.2]])
    C = linear_map(2, A)
    M = FinslerMetric.euclidean(2)
    p = TangentPoint([0.1, -0.2], [1.0, 0.3])  # m = 0; image y ~ (0.53, 1.16): k = 1
    assert ch.chart_checks(M, C, p)["determinant_formula"] <= 1e-9  # numeric = closed, relative
    closed = closed_determinant(M, C, p)
    # brute-force parity cross-check of the sign factor
    xt = C.apply(p.x[None, :])[0]
    Dpsi = C.inverse_jacobian(xt[None, :])[0]
    yt = C.jacobian(p.x[None, :])[0] @ p.y
    m, k = 0, int(np.argmax(np.abs(yt)))
    assert m != k
    sign = (-1.0) ** (m + k)
    assert closed == pytest.approx(sign * (yt[k] / p.y[m]) * np.linalg.det(Dpsi), rel=1e-12)


def test_scalar_invariance_relative_to_f():
    M = randers3()
    x, y = sample_points(M, 60, 13)
    res = chart_residuals(M, ch.cubic_map(3), x, y)
    assert res["scalar_invariance"].max() <= 1e-10


def test_chart_map_probe_rejects_singular():
    """A singular matrix is a ConfigError naming the determinant, raised
    before the matrix is inverted, with or without the shear."""
    for eps in (0.0, 0.3):
        with pytest.raises(ConfigError, match=r"chart map cubic: \|det Dphi\|"):
            ch.cubic_map(2, eps=eps, A=np.array([[1.0, 1.0], [1.0, 1.0]]))


def randers4() -> FinslerMetric:
    def bump(k):  # 1 + 0.2 x_k^2
        return Poly(4, ((1.0, (0, 0, 0, 0)), (0.2, tuple(2 if j == k else 0 for j in range(4)))))

    a = [[bump((i + 1) % 4) if i == j else 0.0 for j in range(4)] for i in range(4)]
    b = [0.1, Poly(4, ((0.1, (1, 0, 0, 0)),)), 0.05, Poly(4, ((0.1, (0, 0, 1, 1)),))]
    return FinslerMetric.randers(4, a, b, name="randers4-test")


METRICS_BY_DIM = {2: randers2, 3: randers3, 4: randers4}


def test_pushforward_metric_round_trip():
    for n, make in METRICS_BY_DIM.items():
        M = make()
        C = ch.cubic_map(n)
        Mt = ch.pushforward_metric(M, C)
        x, y = sample_points(M, 10, 5)
        for xk, yk in zip(x, y):
            xt = C.apply(xk[None, :])[0]
            yt = C.jacobian(xk[None, :])[0] @ yk
            assert Mt.F(xt, yt) == pytest.approx(M.F(xk, yk), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chart_jacobians_are_mutually_inverse(n):
    x, _ = sample_points(METRICS_BY_DIM[n](), 32, n)
    for C in ch.chart_catalog(n):
        product = np.einsum("bik,bkj->bij", C.inverse_jacobian(C.apply(x)), C.jacobian(x))
        assert np.abs(product - np.eye(n)).max() <= 1e-12, C.name


@pytest.mark.parametrize("n", [2, 3, 4])
def test_inverse_program_tangent_is_inverse_jacobian(n):
    rng = np.random.default_rng(n)
    xt, yt = rng.uniform(-1.0, 1.0, size=(2, 32, n))
    for C in ch.chart_catalog(n):
        pairs = C.inverse([ch._Tangent(a, b) for a, b in zip(xt.T, yt.T)])
        assert np.array_equal(np.stack([p.v for p in pairs], axis=1), C.apply_inverse(xt)), C.name
        expected = np.einsum("bik,bk->bi", C.inverse_jacobian(xt), yt)
        assert np.abs(np.stack([p.t for p in pairs], axis=1) - expected).max() <= 1e-13, C.name


@pytest.mark.parametrize("n", [2, 3, 4])
def test_second_derivative_matches_fd_of_jacobian(n):
    C = ch.cubic_map(n)
    x = np.random.default_rng(n).uniform(-0.8, 0.8, size=(8, n))
    D2 = C.second_derivative(x)
    h = 1e-5
    for k in range(n):
        step = np.zeros(n)
        step[k] = h
        fd = (C.jacobian(x + step) - C.jacobian(x - step)) / (2 * h)
        assert np.abs(D2[:, :, :, k] - fd).max() <= 1e-8
    assert np.array_equal(D2, D2.transpose(0, 1, 3, 2))


def test_chart_catalog_contents():
    maps = ch.chart_catalog(3)
    assert [c.name for c in maps] == ["cubic"]


def test_chart_checks_cover_every_residual_for_any_chart_map():
    """`chart_checks` reports every two-chart residual at one point, also for
    a chart map outside the catalog."""
    M = randers3()
    p = TangentPoint([0.2, -0.1, 0.3], [0.9, 1.1, -0.4])
    A = np.array([[1.0, 0.2, 0.0], [0.0, 0.9, -0.3], [0.4, 0.0, 1.2]])
    out = ch.chart_checks(M, ch.cubic_map(3, eps=0.5, A=A), p)
    x, y = p.x[None, :], p.y[None, :]
    assert set(out) == set(chart_residuals(M, identity_map(3), x, y))
    assert max(out.values()) <= 1e-7
    assert max(ch.chart_checks(M, identity_map(3), p).values()) <= 1e-12


@pytest.mark.parametrize("C", [linear_map(4), ch.cubic_map(2)], ids=["larger", "smaller"])
def test_chart_checks_rejects_a_chart_map_of_another_dimension(monkeypatch, C):
    """A chart map whose dimension is not the metric's is named, with both
    dimensions, before any Workspace is built."""
    def no_workspace(*args, **kwargs):
        raise AssertionError("a Workspace was built")

    monkeypatch.setattr(ch, "workspace_at", no_workspace)
    monkeypatch.setattr(ch, "Workspace", no_workspace)
    p = TangentPoint([0.2, -0.1, 0.3], [0.9, 1.1, -0.4])
    with pytest.raises(ValueError, match=rf"chart map {C.name} is of dimension {C.n}, .* of dimension 3"):
        ch.chart_checks(load_catalog_metric("riemann3"), C, p)


@pytest.mark.parametrize("config", CATALOG_NAMES)
def test_chart_checks_equal_the_sweep_rows_bit_for_bit(config):
    """At one point, `chart_checks` on each catalog chart map gives the bits
    of the sweep's `charts.<map>.*` rows there: both read the order-4 source
    Workspace of that point."""
    M = load_catalog_metric(config)
    x, y = sample_points(M, 1, 17)
    p = TangentPoint(x[0], y[0])
    rows = check_point(M, p, ["charts."])
    for C in ch.chart_catalog(M.n):
        out = ch.chart_checks(M, C, p)
        assert out == {k: rows[f"charts.{C.name}.{k}"] for k in out}, C.name
