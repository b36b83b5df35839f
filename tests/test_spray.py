"""Spray coefficients, nonlinear connection, frames, brackets, geodesics."""

import dataclasses
import warnings
from itertools import combinations_with_replacement

import numpy as np
import pytest

import finslerlab.charts as ch
import finslerlab.metrics as mt
import finslerlab.spray as sp
from finslerlab.connections import connection_triple
from finslerlab.errors import ChartExitError, DegenerateMetricError, SingularEvaluationError
from finslerlab.jets import Jet, TangentPoint
from finslerlab.metrics import FinslerMetric, Poly, sample_points
from finslerlab.spray import (
    Workspace,
    bracket,
    integrate_geodesic,
    integrate_geodesics,
    spray_values,
    workspace_at,
)

from helpers import (
    CATALOG_NAMES,
    christoffel_spray_oracle,
    component_bracket,
    component_fields,
    funk,
    gauss_jordan_spray,
    load_catalog_metric,
    randers2,
    randers3,
    riemann2,
    riemann2_amatrix,
    split_spray_values,
)


def test_euclidean_spray_vanishes():
    ws = workspace_at(FinslerMetric.euclidean(2), TangentPoint([0.1, 0.2], [3.0, 4.0]))
    assert np.abs(ws.G_val[0]).max() == 0.0
    assert np.abs(ws.N_val[0]).max() == 0.0
    assert np.abs(ws.dN_val[0]).max() == 0.0


def test_riemannian_spray_matches_christoffel_oracle():
    M = riemann2()
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-0.8, 0.8, 2)
        y = rng.uniform(0.5, 1.5, 2)
        G = workspace_at(M, TangentPoint(x, y)).G_val[0]
        G_oracle = christoffel_spray_oracle(riemann2_amatrix, x, y)
        assert np.abs(G - G_oracle).max() <= 1e-6


def test_nonlinear_connection_matches_fd_of_spray():
    M = randers2()
    x = np.array([0.3, -0.4])
    y = np.array([1.2, 0.7])
    N = workspace_at(M, TangentPoint(x, y)).N_val[0]
    h = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (spray_values(M, np.r_[x, y + e][None])[0] - spray_values(M, np.r_[x, y - e][None])[0]) / (2 * h)
        fd2 = (spray_values(M, np.r_[x, y + e / 2][None])[0] - spray_values(M, np.r_[x, y - e / 2][None])[0]) / h
        rich = (4 * fd2 - fd) / 3
        assert np.abs(N[:, i] - rich).max() <= 1e-6


def test_spray_homogeneity():
    M = randers2()
    x, y = sample_points(M, 40, 3)
    ws1 = Workspace(M, x, y, order=3)
    ws2 = Workspace(M, x, 2.0 * y, order=3)
    assert np.abs(ws2.G_val - 4.0 * ws1.G_val).max() / np.abs(ws1.G_val).max() <= 1e-9
    assert np.abs(ws2.N_val - 2.0 * ws1.N_val).max() / np.abs(ws1.N_val).max() <= 1e-9


@pytest.mark.parametrize("quantity, needed", [("dN_val", 4), ("deltaN_val", 4), ("N", 3), ("g", 2)])
def test_workspace_names_the_order_a_quantity_needs(quantity, needed):
    M = randers2()
    x, y = sample_points(M, 4, 5)
    ws = Workspace(M, x, y, order=needed - 1)
    with pytest.raises(ValueError, match=rf"Workspace\.{quantity} needs jet order >= {needed}; this workspace has order {needed - 1}"):
        getattr(ws, quantity)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("build", [workspace_at, connection_triple], ids=["workspace_at", "connection_triple"])
def test_a_point_of_the_wrong_dimension_is_rejected(build, n):
    """A randers2 metric at a point of dimension 1 or 3 used to fail deep in
    the evaluator with 'generator raised StopIteration'."""
    p = TangentPoint([0.1] * n, [0.9] * n)
    with pytest.raises(ValueError, match="the point needs x and y of length n = 2"):
        build(randers2(), p)


def test_connection_radial_homogeneity():
    M = randers2()
    x, y = sample_points(M, 40, 4)
    ws = Workspace(M, x, y, order=4)
    contracted = np.einsum("bjik,bk->bji", ws.dN_val, y)
    assert np.abs(contracted - ws.N_val).max() <= 1e-9 * (1 + np.abs(ws.N_val).max())


def test_frame_coframe_duality():
    M = randers2()
    ws = workspace_at(M, TangentPoint([0.3, -0.4], [1.2, 0.7]))
    assert np.abs(ws.coframe_val[0] @ ws.frame_val[0].T - np.eye(4)).max() <= 1e-10
    we = workspace_at(FinslerMetric.euclidean(2), TangentPoint([0.0, 0.0], [1.0, 0.0]))
    assert np.array_equal(we.frame_val[0][:2], np.concatenate([np.eye(2), np.zeros((2, 2))], axis=1))


def test_frame_rows_are_the_field_family_values():
    """`frame_val` stacks the values of `dx_fields` and `dy_fields` bit for
    bit, [[I, -N^T], [0, I]]; an order-3 Workspace, whose N keeps no
    derivative row for the fields, refuses it."""
    M = randers3()
    x, y = sample_points(M, 20, 8)
    ws = Workspace(M, x, y, order=4)
    assert np.array_equal(ws.frame_val[:, :3], ws.dx_fields.value)
    assert np.array_equal(ws.frame_val[:, 3:], ws.dy_fields.value)
    assert np.array_equal(ws.frame_val[:, :3, 3:], -ws.N_val.transpose(0, 2, 1))
    with pytest.raises(ValueError, match=r"Workspace.frame_val needs jet order >= 4; this workspace has order 3"):
        Workspace(M, x, y, order=3).frame_val


def test_nonlinear_curvature_flat_cases():
    assert np.abs(workspace_at(FinslerMetric.euclidean(3), TangentPoint([0.0] * 3, [1.0, 2.0, 0.3])).R_val[0]).max() == 0.0
    M = FinslerMetric.riemannian(2, [[2.0, 0.3], [0.3, 1.5]])  # constant coefficients
    R = workspace_at(M, TangentPoint([0.2, 0.1], [1.0, -0.5])).R_val[0]
    assert np.abs(R).max() <= 1e-12


def test_nonlinear_curvature_vs_bracket():
    M = randers2()
    x, y = sample_points(M, 30, 6)
    ws = Workspace(M, x, y, order=4)
    R = ws.R_val
    for i in range(2):
        for j in range(i + 1, 2):
            w = ws.dx_dx_brackets[:, i, j]
            assert np.abs(w[:, :2]).max() <= 1e-12
            assert np.abs(w[:, 2:] + R[:, :, i, j]).max() <= 1e-7


def test_curvature_antisymmetry_exact():
    M = randers2()
    R = workspace_at(M, TangentPoint([0.3, -0.4], [1.2, 0.7])).R_val[0]
    assert np.array_equal(R, -R.transpose(0, 2, 1))


def test_radial_horizontal_commutator():
    M = randers2()
    x, y = sample_points(M, 30, 7)
    ws = Workspace(M, x, y, order=4)
    for i in range(2):
        w = bracket(ws.gamma_field, ws.dx_fields[i])
        assert np.abs(w).max() <= 1e-8


def test_geodesic_euclidean_straight_line():
    M = FinslerMetric.euclidean(2)
    res = integrate_geodesic(M, TangentPoint([0.0, 0.0], [0.3, 0.1]), 100, 1e-2)
    assert res.drift <= 1e-12
    assert np.abs(res.x[-1] - np.array([0.3, 0.1])).max() <= 1e-12
    assert res.t[-1] == pytest.approx(1.0)


def test_geodesic_riemannian_drift_small():
    M = riemann2()
    res = integrate_geodesic(M, TangentPoint([0.0, 0.0], [0.6, 0.4]), 1000, 1e-3)
    assert res.drift <= 1e-8


def test_geodesic_reversal_retraces():
    M = riemann2()
    fwd = integrate_geodesic(M, TangentPoint([0.0, 0.0], [0.6, 0.4]), 400, 1e-3)
    back = integrate_geodesic(M, TangentPoint(fwd.x[-1], -fwd.y[-1]), 400, 1e-3)
    assert np.abs(back.x[-1] - np.array([0.0, 0.0])).max() <= 1e-8
    assert np.abs(back.y[-1] + np.array([0.6, 0.4])).max() <= 1e-8


def test_geodesic_fourth_order_drift():
    M = riemann2()
    p0 = TangentPoint([0.05, -0.1], [1.5, 1.4])
    T = 0.4
    drifts = [integrate_geodesic(M, p0, int(round(T / dt)), dt).drift for dt in (1e-2, 5e-3, 2.5e-3)]
    for a, b in zip(drifts, drifts[1:]):
        assert 8.0 <= a / b <= 32.0  # 2^4 within a factor 2


def test_geodesic_chart_exit():
    M = FinslerMetric.euclidean(2)
    with pytest.raises(ChartExitError) as err:
        integrate_geodesic(M, TangentPoint([0.9, 0.0], [1.0, 0.0]), 1000, 1e-2)
    assert err.value.last_valid_index >= 9


def test_geodesic_argument_validation():
    M = FinslerMetric.euclidean(2)
    with pytest.raises(ValueError):
        integrate_geodesic(M, TangentPoint([0.0, 0.0], [1.0, 0.0]), 10, 0.0)
    with pytest.raises(ValueError):
        integrate_geodesic(M, TangentPoint([0.0, 0.0], [1.0, 0.0]), 0, 1e-3)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_spray_values_is_batch_invariant(name):
    """A 400-point batch gives every row the bits of the one-point call."""
    M = load_catalog_metric(name)
    z = np.concatenate(sample_points(M, 400, 7), axis=1)
    rows = np.concatenate([spray_values(M, z[b : b + 1]) for b in range(400)])
    assert spray_values(M, z).tobytes() == rows.tobytes()


@pytest.mark.parametrize("name", CATALOG_NAMES + ("funk2", "funk3"))
@pytest.mark.parametrize("B", [1, 3, 400])
def test_stacked_spray_values_is_the_split_route(name, B):
    """`spray_values` on the stacked points z = (x, y) gives the bits of the
    route on separate x and y arrays with Python-loop sums
    (`helpers.split_spray_values`), on the catalog rows and on the generic
    route of the Funk evaluator."""
    M = funk(int(name[-1])) if name.startswith("funk") else load_catalog_metric(name)
    x, y = sample_points(M, B, 19)
    assert spray_values(M, np.concatenate([x, y], axis=1)).tobytes() == split_spray_values(M, x, y).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("B", [1, 3, 256])
def test_stage_kernels_are_the_linalg_kernels(n, B):
    """The gufuncs that `spray_values` and `Workspace.ginv_val` call give
    the bits of np.linalg.eigvalsh and np.linalg.inv: on positive definite
    and on indefinite stacks of g, and, for the eigenvalues, on stacks with
    a non-finite entry in the lower triangle that the kernel reads.  Where
    the wrapper raises LinAlgError for such a stack, the kernel gives NaN
    eigenvalues for the non-finite g and the wrapper's bits for the rest."""
    rng = np.random.default_rng(10 * n + B)
    Q = np.linalg.qr(rng.standard_normal((B, n, n)))[0]
    eig = rng.uniform(0.5, 2.0, (B, n))
    definite = (Q * eig[:, None, :]) @ Q.transpose(0, 2, 1)
    eig[:, 0] *= -1.0
    indefinite = (Q * eig[:, None, :]) @ Q.transpose(0, 2, 1)
    for g in (definite, indefinite):
        assert sp._eigvalsh(g).tobytes() == np.linalg.eigvalsh(g).tobytes()
        assert sp._inv(g).tobytes() == np.linalg.inv(g).tobytes()
    assert (np.linalg.eigvalsh(indefinite)[:, 0] < 0.0).all()
    for bad in (np.nan, np.inf, -np.inf):
        g = definite.copy()
        i = int(rng.integers(n))
        j = int(rng.integers(i + 1))  # on or below the diagonal
        g[0, i, j] = g[0, j, i] = bad
        with sp._silenced():  # as in spray_values: LAPACK's flags on a failed g are not warnings
            kernel = sp._eigvalsh(g)
        try:
            wrapper = np.linalg.eigvalsh(g)
        except np.linalg.LinAlgError:
            assert np.isnan(kernel[0]).all()
            if B > 1:
                assert kernel[1:].tobytes() == np.linalg.eigvalsh(g[1:]).tobytes()
        else:
            assert kernel.tobytes() == wrapper.tobytes()


def test_stage_runs_without_the_linalg_wrappers(monkeypatch):
    """The RK4 stage and the one inverse of g call no np.linalg wrapper: with
    np.linalg.eigvalsh and np.linalg.inv made to raise, 10-step geodesics
    on the catalog rows (riemann2, randers3) and on the generic route
    (Funk) still run, and so does `Workspace.ginv_val`."""
    metrics = [load_catalog_metric("riemann2"), load_catalog_metric("randers3"), funk(2)]
    starts = [TangentPoint(*(a[0] for a in sample_points(M, 1, 5))) for M in metrics]

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg wrapper called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    for M, p in zip(metrics, starts):
        assert integrate_geodesic(M, p, 10, 1e-3).x.shape == (11, M.n)
    x, y = sample_points(metrics[1], 4, 5)
    assert np.isfinite(Workspace(metrics[1], x, y, order=2).ginv_val).all()


@pytest.mark.parametrize("shape", [(1, 3), (2, 5), (4,), (1, 1, 4)])
def test_spray_values_rejects_points_that_are_not_B_by_2n(shape):
    with pytest.raises(ValueError, match=r"shape \(B, 4\)"):
        spray_values(riemann2(), np.full(shape, 0.5))


@pytest.mark.parametrize("B", [1, 400])
def test_poly_rows_sum_left_to_right_past_8_slots(B):
    """A row of ten terms adds them left to right, as a Python loop does, at
    B = 1 too, where np.add.reduce would sum the one column pairwise: at
    the first point the terms 1 and nine times 2^-53 add to 1.0 left to
    right and to more than 1.0 pairwise."""
    P = Poly(10, tuple((1.0, tuple(int(i == j) for j in range(10))) for i in range(10)))
    z = np.random.default_rng(23).uniform(-1.0, 1.0, (B, 10)) * np.logspace(0, -15, 10)
    z[0] = [1.0] + [2.0**-53] * 9
    loop = z[:, 0].copy()
    for i in range(1, 10):
        loop = loop + z[:, i]
    rows = mt._poly_rows(mt._rows_plan(10, [(P, ())]), z)
    assert rows.shape == (1, B) and rows[0].tobytes() == loop.tobytes()
    assert loop[0] == 1.0 and np.add.reduce(z[0]) > 1.0


def test_geodesic_makes_four_module_level_spray_calls_per_step(monkeypatch):
    """A k-step geodesic makes 4k calls of the module-level `spray_values`,
    one per RK4 stage on the stacked state (1, 2n): a patch of the module
    global, as the mutation harness makes, reaches every stage."""
    raw, calls = sp.spray_values, []
    monkeypatch.setattr(sp, "spray_values", lambda M, z: calls.append(z.shape) or raw(M, z))
    integrate_geodesic(load_catalog_metric("randers3"), TangentPoint([0.1, 0.0, -0.1], [0.6, 0.4, 0.3]), 7, 1e-3)
    assert calls == [(1, 6)] * 28


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_exact_spray_matches_the_generic_route(name):
    """The catalog evaluator's exact polynomial jets give the spray of a
    custom wrapper of the same evaluator, which evaluates F on seed jets,
    within 1e-13 of its largest entry."""
    M = load_catalog_metric(name)
    wrapped = FinslerMetric.custom(M.n, lambda x, y: M.evaluate(x, y), M.x_box)
    z = np.concatenate(sample_points(M, 1000, 12), axis=1)
    exact, generic = spray_values(M, z), spray_values(wrapped, z)
    assert np.abs(exact - generic).max() <= 1e-13 * np.abs(generic).max()


def test_only_catalog_evaluators_take_the_exact_route(monkeypatch):
    """A pushed-forward metric and a metric with a replaced evaluator keep
    the generic route, in the integrator and in the Workspace: they never
    call `squared_rows` or `squared_jet`."""
    M = load_catalog_metric("randers3")
    x, y = sample_points(M, 8, 13)
    calls = []
    for method in ("squared_rows", "squared_jet"):
        raw = getattr(mt.CatalogEvaluator, method)
        monkeypatch.setattr(mt.CatalogEvaluator, method, lambda self, *args, _raw=raw, _name=method:
                            calls.append((_name, self)) or _raw(self, *args))
    spray_values(M, np.concatenate([x, y], axis=1))
    Workspace(M, x, y, order=4).L
    assert calls == [("squared_rows", M.evaluate), ("squared_jet", M.evaluate)]
    calls.clear()
    for other in (ch.pushforward_metric(M, ch.cubic_map(M.n)),
                  dataclasses.replace(M, evaluate=lambda xs, ys: M.evaluate(xs, ys))):
        spray_values(other, np.concatenate([x, y], axis=1))
        Workspace(other, x, y, order=4).L
    assert calls == []


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_spray_makes_no_jet_products(name, monkeypatch):
    """The catalog route reads L = F^2 at the value level: no jet product and
    no jet composition, where the generic route of the same evaluator makes
    both.  Without a drift the catalog `Workspace.L` is q itself, the rows
    of `Poly.jet`, with neither; q is quadratic in y, so dg/dy reads
    exactly 0.0."""
    M = load_catalog_metric(name)
    x, y = sample_points(M, 5, 13)
    z = np.concatenate([x, y], axis=1)
    calls = []
    for method in ("__mul__", "__rmul__", "_compose"):
        raw = getattr(Jet, method)
        monkeypatch.setattr(Jet, method, lambda self, *args, _raw=raw, _name=method: calls.append(_name)
                            or _raw(self, *args))
    spray_values(M, z)
    ws = Workspace(M, x, y, order=4)
    if M.family != "randers":
        ws.L
    assert calls == []
    spray_values(FinslerMetric.custom(M.n, lambda xs, ys: M.evaluate(xs, ys), M.x_box), z)
    assert {"__mul__", "_compose"} <= set(calls)
    if M.family != "randers":
        assert np.abs(ws.dg_val).max() == 0.0


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("B", [1, 5])
def test_squared_rows_pass_has_the_bits_of_separate_poly_jets(name, B):
    """The one fused pass over q and beta gives each row the bits of that
    row of `Poly.jet(z, 2)`, of q and of beta called apart: the value, the
    gradient and the y rows d2/dy^i dz^c of the Hessian."""
    M = load_catalog_metric(name)
    ev, n, m = M.evaluate, M.n, 2 * M.n
    x, y = sample_points(M, B, 17)
    z = np.concatenate([x, y], axis=1)
    packed = [()] + [(a,) for a in range(m)] + list(combinations_with_replacement(range(m), 2))
    wanted = [()] + [(a,) for a in range(m)] + [tuple(sorted((n + i, c))) for i in range(n) for c in range(m)]
    picks = [packed.index(alpha) for alpha in wanted]
    polys = [P for P in (ev.q, ev.beta) if P is not None]
    assert len(polys) == (2 if M.family == "randers" else 1)
    separate = np.concatenate([P.jet(z, 2).buf[picks] for P in polys])
    assert mt._poly_rows(ev._plan, z).tobytes() == separate.tobytes()


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("B", [1, 5])
def test_squared_rows_are_rows_of_the_catalog_L_jet(name, B):
    """A catalog metric has one definition of F^2, read at two widths: the
    integrator's `squared_rows` are the value, the gradient and the y rows
    d2/dy^i dz^c of the Hessian of the order-2 `squared_jet`, bit for bit."""
    M = load_catalog_metric(name)
    x, y = sample_points(M, B, 17)
    L, dL, Hy = M.evaluate.squared_rows(np.concatenate([x, y], axis=1))
    jet = M.evaluate.squared_jet(x, y, 2)
    assert L.tobytes() == jet.value.tobytes()
    assert dL.tobytes() == jet.coeffs[1].tobytes()
    assert Hy.tobytes() == jet.tensor(2)[:, M.n :].tobytes()


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_L_matches_the_seed_jet_route(name):
    """The catalog Workspace's L, written from the polynomial rows, is the
    order-4 jet that a custom wrapper of the same evaluator builds on seed
    jets: every rank within 1e-13 of the wrapper's largest entry of that
    rank, or of the whole jet where the exact rank is zero (ranks 3 and 4
    of L = |y|^2 on euclidean4)."""
    M = load_catalog_metric(name)
    wrapped = FinslerMetric.custom(M.n, lambda x, y: M.evaluate(x, y), M.x_box)
    x, y = sample_points(M, 1000, 12)
    exact, generic = Workspace(M, x, y, order=4).L, Workspace(wrapped, x, y, order=4).L
    for r in range(5):
        a, b = exact.tensor(r), generic.tensor(r)
        scale = np.abs(b).max() if np.any(a) else np.abs(generic.buf).max()
        assert np.abs(a - b).max() <= 1e-13 * scale, r


@pytest.mark.parametrize("order", [-1, 5, 7])
def test_workspace_rejects_an_order_outside_the_jets(order):
    """The jets' compositions stop at order 4.  An order-5 riemann2 Workspace
    used to be built, its seed-jet L reading order-5 rows up to 20.09 at
    this point, where L = q has 0.0; with the polynomial L the rows would look right and the
    compositions after it would not."""
    M, p = riemann2(), TangentPoint([0.1, 0.2], [0.9, -0.4])
    with pytest.raises(ValueError, match=rf"a Workspace needs jet order 0\.\.4, not {order}"):
        workspace_at(M, p, order=order)
    assert [workspace_at(M, p, order=k).L.order for k in range(5)] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("bad", [0.5, 0.9], ids=["q=0", "q<0"])
def test_randers_spray_guards_F2_where_q_is_not_positive(bad):
    """A Randers catalog metric whose quadratic form q = (1 - 4 x0^2) y0^2 +
    y1^2 is zero (x0 = 0.5) or negative (x0 = 0.9) at a point: the catalog
    route raises the F^2 error naming that point, and numpy stays silent."""
    a00 = Poly(2, ((1.0, (0, 0)), (-4.0, (2, 0))))
    M = FinslerMetric.randers(2, [[a00, 0.0], [0.0, 1.0]], [0.1, 0.0])
    x, y = np.array([[0.1, 0.0], [bad, 0.0], [0.95, 0.0]]), np.array([[1.0, 0.0]] * 3)
    message = rf"F\^2 not finite and positive .* x=\[{bad}, 0\.0\], y=\[1\.0, 0\.0\]"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularEvaluationError, match=message):
            spray_values(M, np.concatenate([x, y], axis=1))


def test_workspace_L_guards_its_derivative_rows():
    """A Randers point with q = 0 and y != 0 has F^2 = beta^2 > 0 but
    non-finite derivatives of sqrt(q): `Workspace.L` raises naming that point,
    at every order and for the integrator's generic route, and numpy stays
    silent."""
    a00 = Poly(2, ((1.0, (0, 0)), (-4.0, (2, 0))))
    M = FinslerMetric.randers(2, [[a00, 0.0], [0.0, 1.0]], [0.1, 0.0])
    x, y = np.array([[0.1, 0.0], [0.5, 0.0], [0.2, 0.0]]), np.array([[1.0, 0.0]] * 3)
    message = r"F\^2 has a non-finite derivative .* x=\[0\.5, 0\.0\], y=\[1\.0, 0\.0\]"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in (1, 2, 4):
            with pytest.raises(SingularEvaluationError, match=message):
                Workspace(M, x, y, order=order).L
        with pytest.raises(SingularEvaluationError, match=message):
            spray_values(FinslerMetric.custom(2, lambda xs, ys: M.evaluate(xs, ys)), np.hstack([x, y]))

def test_spray_values_guards_F2():
    """Where F^2 < 0 the integrator's spray raises the F^2 error of
    `Workspace.L`, naming the first such point, and numpy stays silent."""
    a00 = Poly(2, ((1.0, (0, 0)), (-2.0, (2, 0))))
    M = FinslerMetric.riemannian(2, [[a00, 0.0], [0.0, 1.0]])
    x, y = np.array([[0.1, 0.0], [0.9, 0.0], [0.95, 0.0]]), np.array([[1.0, 0.0]] * 3)
    message = r"F\^2 not finite and positive .* x=\[0\.9, 0\.0\], y=\[1\.0, 0\.0\]"
    for metric in (M, FinslerMetric.custom(2, lambda xs, ys: M.evaluate(xs, ys))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularEvaluationError, match=message):
                spray_values(metric, np.concatenate([x, y], axis=1))


@pytest.mark.parametrize("name", CATALOG_NAMES + ("funk2", "funk3"))
def test_geodesic_F_equals_pointwise_F(name):
    """F along a path is one batched `M.F` call; it has the bits of `M.F` at
    each point, on the dividing Funk evaluator too."""
    M = funk(int(name[-1])) if name.startswith("funk") else load_catalog_metric(name)
    res = integrate_geodesic(M, TangentPoint(np.full(M.n, 0.1), np.linspace(0.6, 0.3, M.n)), 60, 1e-3)
    pointwise = np.array([M.F(x, y) for x, y in zip(res.x, res.y)])
    assert res.F.tobytes() == pointwise.tobytes()


def _same_result(a, b):
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in ("t", "x", "y", "F")) and (
        np.float64(a.drift).tobytes() == np.float64(b.drift).tobytes()
    )


@pytest.mark.parametrize("name", ["riemann2", "randers3", "euclidean4"])
def test_lockstep_paths_equal_each_path_alone(name):
    """Every path of one lockstep call equals the one-path call bit for bit,
    with the paths given shortest first and longest first."""
    M = load_catalog_metric(name)
    rng = np.random.default_rng(3)
    starts = [TangentPoint(rng.uniform(-0.2, 0.2, M.n), rng.uniform(0.3, 0.6, M.n)) for _ in range(3)]
    steps, dts = [20, 45, 80], [1e-2, 4e-3, 2.5e-3]
    alone = [integrate_geodesic(M, p, s, dt) for p, s, dt in zip(starts, steps, dts)]
    for perm in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        together = integrate_geodesics(M, [starts[p] for p in perm], [steps[p] for p in perm], [dts[p] for p in perm])
        assert all(_same_result(r, alone[p]) for r, p in zip(together, perm))


def _textbook_rk4(M, p0, steps, dt):
    """Classical RK4 on xdot = y, ydot = -2G(x, y), on separate x and y
    arrays, one `spray_values` call per stage."""
    x, y = np.empty((steps + 1, M.n)), np.empty((steps + 1, M.n))
    x[0], y[0] = p0.x, p0.y

    def ydot(xs, ys):
        return -2.0 * spray_values(M, np.concatenate([xs, ys])[None])[0]

    for k in range(steps):
        k1x, k1y = y[k], ydot(x[k], y[k])
        k2x, k2y = y[k] + 0.5 * dt * k1y, ydot(x[k] + 0.5 * dt * k1x, y[k] + 0.5 * dt * k1y)
        k3x, k3y = y[k] + 0.5 * dt * k2y, ydot(x[k] + 0.5 * dt * k2x, y[k] + 0.5 * dt * k2y)
        k4x, k4y = y[k] + dt * k3y, ydot(x[k] + dt * k3x, y[k] + dt * k3y)
        x[k + 1] = x[k] + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        y[k + 1] = y[k] + dt / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
    return x, y


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_stacked_integrator_is_textbook_rk4(name):
    """The one-path call and every path of a three-dt lockstep call give the
    bytes of RK4 written out on separate x and y arrays."""
    M = load_catalog_metric(name)
    rng = np.random.default_rng(5)
    starts = [TangentPoint(rng.uniform(-0.2, 0.2, M.n), rng.uniform(0.3, 0.6, M.n)) for _ in range(3)]
    steps, dts = [30, 12, 21], [2.5e-3, 1e-2, 4e-3]
    paths = integrate_geodesics(M, starts, steps, dts) + [integrate_geodesic(M, starts[0], steps[0], dts[0])]
    for res, p0, s, dt in zip(paths, starts + starts[:1], steps + steps[:1], dts + dts[:1]):
        x, y = _textbook_rk4(M, p0, s, dt)
        assert res.x.tobytes() == x.tobytes() and res.y.tobytes() == y.tobytes()
        assert res.t.tobytes() == (dt * np.arange(s + 1)).tobytes()


def _exit_error(fn, *args):
    with pytest.raises(ChartExitError) as err:
        fn(*args)
    return str(err.value), err.value.last_valid_index


def test_lockstep_raises_the_exit_error_of_the_path_alone():
    M = FinslerMetric.euclidean(2)
    inside = TangentPoint([0.0, 0.0], [1.0, 0.0])
    leaves = TangentPoint([0.9, 0.0], [1.0, 0.3])
    alone = _exit_error(integrate_geodesic, M, leaves, 100, 1e-2)
    assert alone[1] == 10
    assert _exit_error(integrate_geodesics, M, [inside, leaves], [50, 100], [1e-2, 1e-2]) == alone
    assert _exit_error(integrate_geodesics, M, [inside, leaves], [200, 30], [1e-3, 1e-2]) == alone


def test_lockstep_raises_the_first_exiting_path_in_argument_order():
    """Path 1 leaves the box first in time, but a loop over the paths would
    meet path 0's exit first, so that is the error raised."""
    M = FinslerMetric.euclidean(2)
    late = TangentPoint([0.5, 0.0], [1.0, 0.0])
    early = TangentPoint([0.9, 0.0], [1.0, 0.0])
    first = _exit_error(integrate_geodesic, M, late, 100, 1e-2)
    assert first[1] > _exit_error(integrate_geodesic, M, early, 100, 1e-2)[1]
    assert _exit_error(integrate_geodesics, M, [late, early], [100, 100], [1e-2, 1e-2]) == first


@pytest.mark.parametrize(
    "paths, steps, dts",
    [(2, [10, 10], [1e-3, 0.0]), (2, [10, 10], [-1e-3, 1e-3]), (2, [10, 0], [1e-3, 1e-3]), (2, [10], [1e-3, 1e-3]),
     (0, [], []), pytest.param([TangentPoint([0.1], [1.0])] * 2, [10, 10], [1e-3, 1e-3], id="short-starts"),
     pytest.param(2, [10, 10], [1e-3, float("nan")], id="nan-dt"),
     pytest.param(2, [10, 10], [1e-3, float("inf")], id="inf-dt"),
     pytest.param([TangentPoint([0.0, 0.0], [1.0, 0.0]), TangentPoint([5.0, 5.0], [1.0, 0.0])], [10, 10],
                  [1e-3, 1e-3], id="start-outside-box")],
)
def test_lockstep_rejects_bad_arguments_before_any_step(paths, steps, dts, monkeypatch):
    """`paths` is a count of valid starts, or the starts themselves; the
    short starts (n = 1 on a metric with n = 2) would otherwise broadcast
    into the path array, and a start outside the domain box would take one
    step and report a chart exit with last valid step index 0."""
    def no_step(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(sp, "spray_values", no_step)
    p = TangentPoint([0.0, 0.0], [1.0, 0.0])
    starts = paths if isinstance(paths, list) else [p] * paths
    with pytest.raises(ValueError):
        integrate_geodesics(FinslerMetric.euclidean(2), starts, steps, dts)


def test_ginv_rejects_indefinite_fundamental_tensor():
    # |b|_a = 1.5 > 1: where F < 0 (F^2 > 0 passes the F^2 guard), g is
    # indefinite but well conditioned, so only a definiteness test stops it
    M = FinslerMetric.randers(2, [[1.0, 0.0], [0.0, 1.0]], [1.5, 0.0])
    x = np.array([[0.1, 0.2], [0.1, 0.2]])
    y = np.array([[0.3, 1.0], [-1.0, 0.2]])
    ws = Workspace(M, x, y, order=3)
    assert np.linalg.cond(ws.g_val).max() < 1e3
    # the one inverse of g and every reader of it pass the guard: the spray
    # jet, the values, the one-point Workspace and the integrator's spray
    for read in (
        lambda: Workspace(M, x, y, order=3).spray_G,
        lambda: Workspace(M, x, y, order=3).ginv_val,
        lambda: workspace_at(M, TangentPoint(x[1], y[1]), order=2).ginv_val,
        lambda: spray_values(M, np.concatenate([x, y], axis=1)),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the kernels run outside np.linalg's errstate, and still warn of nothing
            with pytest.raises(DegenerateMetricError, match=r"not positive definite .* y=\[-1\.0, 0\.2\]"):
                read()


def test_spray_values_names_a_non_finite_g_without_a_warning():
    """Where q is tiny (y ~ 1e-105) q^-1.5 overflows, so F^2 is finite and
    positive but g is not finite: the definiteness test yields NaN, which
    the guard names, at n = 3 as at n = 2, without a numpy warning (the
    np.linalg.eigvalsh wrapper raised LinAlgError at n = 3 instead)."""
    for name in ("randers2", "randers3"):
        M = load_catalog_metric(name)
        n = M.n
        z = np.concatenate([np.full(n, 0.1), 1e-105 * np.arange(1.0, n + 1)])[None, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateMetricError, match=r"not positive definite \(lowest eigenvalue nan\)"):
                spray_values(M, z)


def test_ginv_rejects_ill_conditioned_fundamental_tensor():
    """A positive definite g with condition number 1e13, above the limit
    1e12, is rejected by the inverse and its reader, the spray; a singular
    g (lowest eigenvalue 0) is rejected as not positive definite, without a
    numpy warning from the condition number."""
    x, y = np.array([[0.1, 0.2]]), np.array([[0.5, 1.0]])
    cases = {
        1e-13: r"fundamental tensor ill-conditioned \(cond=1\.000e\+13\) at x=\[0\.1, 0\.2\], y=\[0\.5, 1\.0\]",
        0.0: r"fundamental tensor not positive definite \(lowest eigenvalue 0\.000e\+00\) at x=\[0\.1, 0\.2\]",
    }
    for a11, message in cases.items():
        M = FinslerMetric.riemannian(2, [[1.0, 0.0], [0.0, a11]])
        for quantity in ("ginv_val", "spray_G"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DegenerateMetricError, match=message):
                    getattr(Workspace(M, x, y, order=3), quantity)


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_spray_solve_matches_the_gauss_jordan_route(name, order):
    """The spray jet solved from the value inverse of g equals, to a
    relative 1e-14, the jet inverse of g by Gauss-Jordan times A/4: every
    row of G, N and dN (observed at most 7e-16 on 256 points)."""
    M = load_catalog_metric(name)
    x, y = sample_points(M, 256, 42)
    ws = Workspace(M, x, y, order=order)
    want = gauss_jordan_spray(ws)
    pairs = [(ws.spray_G.buf, want.buf), (ws.N_val, want.deriv(ws.yvars).value)]
    if order == 4:
        pairs.append((ws.dN_val, want.deriv(ws.yvars).deriv(ws.yvars).value))
    for got, ref in pairs:
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("M", [riemann2(), randers3()], ids=lambda M: M.name)
def test_bracket_matches_component_list_engine_bitwise(M):
    """The value-level brackets of the stacked frame families, one broadcast
    call per pair of families, and the Workspace's cached bracket tables equal
    bit for bit the component-list engine on the same fields built entry by
    entry, for every pair of fields in the order of `component_fields`."""
    x, y = sample_points(M, 16, 9)
    ws = Workspace(M, x, y, order=4)
    n = ws.n
    families = {"dx": ws.dx_fields, "dy": ws.dy_fields, "gamma": ws.gamma_field[None], "bar": ws.bar_fields,
                "xi": ws.xi_field[None], "bar_delta": ws.bar_delta_fields}
    names = {name: [name] if F.shape[0] == 1 else [f"{name}{k}" for k in range(n)] for name, F in families.items()}
    lists = component_fields(ws)
    assert [f for fields in names.values() for f in fields] == list(lists)
    order = list(families)
    for a, first in enumerate(order):
        for second in order[a:]:
            got = bracket(families[first][:, None], families[second][None, :])
            for p, f in enumerate(names[first]):
                for q, g in enumerate(names[second]):
                    if first == second and q < p:
                        continue
                    want = component_bracket(lists[f], lists[g], ws.B)
                    assert got[:, p, q].tobytes() == want.tobytes(), (f, g)
    tables = {("bar", "bar"): ws.bar_bar_brackets, ("dx", "bar"): ws.dx_bar_brackets, ("dx", "dx"): ws.dx_dx_brackets}
    for (first, second), table in tables.items():
        assert not table.flags.writeable
        for i in range(n):
            for k in range(i if first == second else 0, n):
                want = component_bracket(lists[f"{first}{i}"], lists[f"{second}{k}"], ws.B)
                assert table[:, i, k].tobytes() == want.tobytes(), (first, second, i, k)


def test_field_from_an_order_zero_part_names_the_order_it_needs():
    M = randers2()
    x, y = sample_points(M, 4, 5)
    ws = Workspace(M, x, y, order=3)  # N has order 0 here: no gradient rows for a bracket
    with pytest.raises(ValueError, match=r"needs component jets of order >= 1, got order 0 \(this workspace has order 3\)"):
        ws.dx_fields
