"""Metric families, the fundamental tensor, and the config loader."""

import json
import warnings

import numpy as np
import pytest

from finslerlab.checks import check_point
from finslerlab.errors import ConfigError, DegenerateMetricError
from finslerlab.jets import Jet, TangentPoint, fd_oracle
from finslerlab.metrics import CatalogEvaluator, FinslerMetric, Poly, coefficient_jet, load_metric, sample_points
from finslerlab.spray import Workspace, workspace_at

from helpers import (
    CATALOG_NAMES,
    funk,
    load_catalog_metric,
    randers2,
    randers3,
    riemann2,
    riemann2_amatrix,
    walking_evaluator,
)


def test_euclidean_g_is_identity():
    M = FinslerMetric.euclidean(3)
    ws = workspace_at(M, TangentPoint([0.0, 0.0, 0.0], [3.0, 4.0, 0.5]), order=2)
    assert np.abs(ws.g_val[0] - np.eye(3)).max() < 1e-14
    assert np.abs(ws.g_val[0] @ ws.ginv_val[0] - np.eye(3)).max() < 1e-10


def test_riemannian_g_equals_coefficient_matrix():
    M = riemann2()
    x = np.array([0.4, -0.7])
    for y in ([1.0, 0.2], [-0.3, 1.4]):
        g = workspace_at(M, TangentPoint(x, y), order=2).g_val[0]
        assert np.abs(g - riemann2_amatrix(x)).max() < 1e-12


def test_randers_g_matches_fd_hessian():
    M = randers2()
    p = TangentPoint([0.3, -0.5], [1.1, 0.6])
    g = workspace_at(M, p, order=2).g_val[0]

    def half_f2(c):
        F = M.F(c[:, :2], c[:, 2:])
        return 0.5 * F * F

    fd = fd_oracle(half_f2, [np.concatenate([p.x, p.y])] * 4, [[2, 2], [2, 3], [3, 2], [3, 3]])
    assert g.ravel() == pytest.approx(fd, rel=1e-6)


def test_euler_identities_euclidean():
    M = FinslerMetric.euclidean(2)
    out = check_point(M, TangentPoint([0.0, 0.0], [3.0, 4.0]), ["euler", "liouville.t_consistency"])
    assert out["euler.squared_norm"] <= 1e-12
    assert out["liouville.t_consistency"] <= 1e-12
    assert out["euler.vertical_radial"] <= 1e-12


def test_euler_identities_randers_sampled():
    M = randers2()
    x, y = sample_points(M, 200, 5)
    for xk, yk in zip(x, y):
        out = check_point(M, TangentPoint(xk, yk), ["euler.squared_norm", "liouville.t_consistency",
                                                    "euler.vertical_radial"])
        assert max(out.values()) <= 1e-10


def test_g_zero_homogeneous_in_y():
    M = randers2()
    x, y = sample_points(M, 50, 8)
    g0 = Workspace(M, x, y, order=2).g_val
    for lam in (0.5, 2.0):
        g1 = Workspace(M, x, lam * y, order=2).g_val
        assert np.abs(g1 - g0).max() / np.abs(g0).max() <= 1e-10


def test_riemannian_g_independent_of_y():
    M = riemann2()
    x, y = sample_points(M, 50, 9)
    g0 = Workspace(M, x, y, order=2).g_val
    g1 = Workspace(M, x, np.roll(y, 1, axis=1) + 0.3, order=2).g_val
    assert np.abs(g1 - g0).max() <= 1e-12


def test_degenerate_metric_error_names_point():
    # rank-one quadratic form: g is singular everywhere it is defined
    M = FinslerMetric.custom(2, lambda x, y: (y[0] * y[0]) ** 0.5 if isinstance(y[0], float) else (y[0] * y[0]).sqrt())
    with pytest.raises(DegenerateMetricError, match="x="):
        workspace_at(M, TangentPoint([0.0, 0.0], [1.0, 0.5]), order=2).ginv_val


def test_load_metric_examples():
    M = load_metric({"family": "euclidean", "n": 3})
    assert M.family == "euclidean" and M.n == 3
    M = load_metric({"family": "randers", "n": 2, "a": [[1, 0], [0, 1]], "b": [0.3, 0]})
    assert M.family == "randers"


def test_load_metric_json_string():
    M = load_metric(json.dumps({"family": "euclidean", "n": 2}))
    assert M.n == 2


def test_load_metric_rejections():
    with pytest.raises(ConfigError, match="convexity"):
        load_metric({"family": "randers", "n": 2, "a": [[1, 0], [0, 1]], "b": [1.5, 0]})
    with pytest.raises(ConfigError, match="unknown config fields"):
        load_metric({"family": "euclidean", "n": 2, "extra": 1})
    with pytest.raises(ConfigError, match="unknown family"):
        load_metric({"family": "kropina", "n": 2})
    with pytest.raises(ConfigError, match="2x2"):
        load_metric({"family": "riemannian", "n": 2, "a": [[1, 0]]})
    with pytest.raises(ConfigError, match="degree"):
        load_metric(
            {
                "family": "riemannian",
                "n": 2,
                "a": [
                    [{"poly": [{"coef": 1.0, "powers": [4, 0]}]}, 0],
                    [0, 1],
                ],
            }
        )
    with pytest.raises(ConfigError, match="JSON"):
        load_metric("{not json")
    for n in (2.7, "2", True, 2.0, None):  # only a JSON integer is a dimension
        with pytest.raises(ConfigError, match="'n' must be a positive integer"):
            load_metric({"family": "euclidean", "n": n})


def test_constructors_check_polynomial_entries_as_the_loader_does():
    """`FinslerMetric.riemannian` and `randers` reject a polynomial entry of a
    or b that is not in the n chart variables (its n, or a term's powers) or
    not of degree 0..3, and a number or a term's coef that is not a finite
    number, with a ConfigError naming the entry.  A 3-variable b on n = 2
    used to give M.F and Workspace.L two different metrics, and a 3-variable
    a_00 a bare RuntimeError in M.F; a NaN entry gave F = nan, an infinite
    coef F = inf, a string a bare ValueError, and True read as 1.0."""
    a = [[1.0, 0.0], [0.0, 1.0]]
    cases = [
        (lambda: FinslerMetric.randers(2, a, [Poly(3, ((0.1, (1, 0, 0)),)), 0.0]), r"b\[0\] must be in the 2"),
        (lambda: FinslerMetric.riemannian(2, [[Poly(3, ((1.0, (0, 0, 0)),)), 0.0], [0.0, 1.0]]),
         r"a\[0\]\[0\] must be in the 2"),
        (lambda: FinslerMetric.riemannian(2, [[1.0, 0.0], [0.0, Poly(2, ((1.0, (0, 0, 0)),))]]),
         r"a\[1\]\[1\] must be in the 2"),
        (lambda: FinslerMetric.randers(2, a, [0.1, Poly(2, ((0.01, (5, 0)),))]), r"b\[1\] must have degree"),
        (lambda: FinslerMetric.riemannian(2, [[Poly(2, ((1.0, (0, 0)), (0.1, (4, 0)))), 0.0], [0.0, 1.0]]),
         r"a\[0\]\[0\] must have degree"),
        (lambda: FinslerMetric.riemannian(2, [[float("nan"), 0.0], [0.0, 1.0]]),
         r"a\[0\]\[0\] must be a finite number, not nan"),
        (lambda: FinslerMetric.randers(2, a, [Poly(2, ((float("inf"), (1, 0)),)), 0.0]),
         r"coef of a term in b\[0\] must be a finite number, not inf"),
        (lambda: FinslerMetric.riemannian(2, [[1.0, "x"], ["x", 1.0]]), r"a\[0\]\[1\] must be a finite number, not 'x'"),
        (lambda: FinslerMetric.randers(2, a, [True, 0.0]), r"b\[0\] must be a finite number, not True"),
    ]
    for build, match in cases:
        with pytest.raises(ConfigError, match=match):
            build()
    M = FinslerMetric.randers(2, a, [Poly(2, ((0.1, (1, 0)),)), 0.0])  # the same b in the 2 chart variables
    x, y = np.array([0.3, 0.2]), np.array([1.0, 0.5])
    assert abs(M.F(x, y) - np.sqrt(Workspace(M, x, y).L_val[0])) <= 1e-15


@pytest.mark.parametrize("name", CATALOG_NAMES + ("funk2", "funk3"))
def test_batched_F_has_the_bits_of_each_point(name):
    """`M.F` at a batch of points is one evaluator call on float arrays, and
    each point gets the bits of its own call, on a dividing evaluator too."""
    M = funk(int(name[-1])) if name.startswith("funk") else load_catalog_metric(name)
    x, y = sample_points(M, 1000, 5)
    batched = M.F(x, y)
    pointwise = np.array([M.F(xk, yk) for xk, yk in zip(x, y)])
    assert batched.shape == (1000,) and batched.tobytes() == pointwise.tobytes()


def test_load_probe_reads_F_in_one_call_per_scaling(monkeypatch):
    """The load probe reads F at its 8 probes in one batched evaluator call
    and then one per homogeneity lambda: 4 calls, where a loop over the
    probes made 32.  Where F is NaN it warns at the first such probe after
    the one call, and numpy stays silent."""
    shapes = []
    raw = CatalogEvaluator.__call__

    def counted(self, x, y):
        shapes.append(np.shape(y[0]))
        return raw(self, x, y)

    monkeypatch.setattr(CatalogEvaluator, "__call__", counted)
    load_catalog_metric("randers2")
    assert shapes == [(8,)] * 4
    shapes.clear()
    a00 = {"poly": [{"coef": 1, "powers": [0, 0]}, {"coef": -2, "powers": [2, 0]}]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_metric({"family": "riemannian", "n": 2, "a": [[a00, 0], [0, 1]]})
    assert shapes == [(8,)]
    assert [str(w.message).split(" at x=")[0] for w in caught] == ["riemannian: F cannot be evaluated"]
    assert str(caught[0].message).endswith("(F = nan)")


def test_probe_warns_on_inhomogeneous_custom_metric():
    bad = FinslerMetric.custom(2, lambda x, y: y[0] * y[0] + y[1] * y[1] + 1.0)

    import finslerlab.metrics as mt

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mt._probe_metric(bad)
    assert any("homogeneous" in str(w.message) for w in caught)


def test_sampling_policy():
    M = FinslerMetric.euclidean(3)
    x, y = sample_points(M, 500, 42)
    assert x.shape == (500, 3) and y.shape == (500, 3)
    assert np.all(np.abs(x) <= 1.0)
    r = np.linalg.norm(y, axis=1)
    assert np.all((r >= 0.5) & (r <= 2.0))
    x2, y2 = sample_points(M, 500, 42)
    assert np.array_equal(x, x2) and np.array_equal(y, y2)


def test_polynomial_coefficients_evaluate():
    p = Poly(2, ((2.0, (1, 1)), (1.0, (0, 0))))
    assert p([3.0, 4.0]) == 25.0
    assert p.degree() == 2


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("B", [1, 64])
def test_catalog_evaluators_match_walking_oracle_bitwise(name, order, B):
    """Skipping zero entries, unit factors and 0.0-seeded sums changes no
    bit of F, on jets over all 2n chart variables and on float arrays."""
    M = load_catalog_metric(name)
    x, y = sample_points(M, B, seed=order + B)
    n = M.n
    xs = [Jet.variable(x[:, i], i, 2 * n, order) for i in range(n)]
    ys = [Jet.variable(y[:, i], n + i, 2 * n, order) for i in range(n)]
    got, want = M.evaluate(xs, ys), walking_evaluator(M)(xs, ys)
    assert got.buf.tobytes() == want.buf.tobytes()
    assert M.F(x, y).tobytes() == walking_evaluator(M)(list(x.T), list(y.T)).tobytes()


@pytest.mark.parametrize("M", [riemann2(), randers2(), randers3()], ids=lambda M: M.name)
def test_poly_coefficients_match_walking_oracle_bitwise(M):
    """Poly and MonomialCache on per-point x arrays with y jets: the
    evaluators keep their bits when x carries no derivative rows."""
    x, y = sample_points(M, 16, seed=4)
    ys = [Jet.variable(y[:, i], i, M.n, 3) for i in range(M.n)]
    got, want = M.evaluate(list(x.T), ys), walking_evaluator(M)(list(x.T), ys)
    assert got.buf.tobytes() == want.buf.tobytes()


def _random_poly(rng, m: int, degree: int, terms: int = 6) -> Poly:
    """`terms` terms with coefficients uniform in [-1, 1], each of a degree
    drawn from 0..degree spread over random variables."""
    out = []
    for _ in range(terms):
        powers = [0] * m
        for v in rng.integers(0, m, size=int(rng.integers(0, degree + 1))):
            powers[v] += 1
        out.append((float(rng.uniform(-1.0, 1.0)), tuple(powers)))
    return Poly(m, tuple(out))


def _product_jet(P: Poly, z: np.ndarray, order: int) -> Jet:
    """P on seed jets: its monomials as `MonomialCache` jet products."""
    got = P(list(Jet.variable(z, 0, P.n, order)))
    return got if isinstance(got, Jet) else Jet.constant(np.full(len(z), got), P.n, order)


@pytest.mark.parametrize("m", [2, 4, 6, 8])
@pytest.mark.parametrize("degree", [2, 5])
def test_poly_jet_matches_jet_products(m, degree):
    """`Poly.jet` against the jet products at orders 0-4 and B in {1, 5}.
    Every row agrees within 1e-14 of its terms' magnitude, the jet of the
    |coef| polynomial at |z|.  Up to degree 2 both routes multiply the same
    pairs of numbers, and every row is equal."""
    rng = np.random.default_rng([m, degree])
    for _ in range(4):
        P = _random_poly(rng, m, degree)
        magnitude = Poly(m, tuple((abs(c), p) for c, p in P.terms))
        for order in range(5):
            for B in (1, 5):
                z = rng.uniform(-1.0, 1.0, size=(B, m))
                got, want = P.jet(z, order), _product_jet(P, z, order)
                assert (got.m, got.order, got.buf.shape) == (want.m, want.order, want.buf.shape)
                bound = 1e-14 * _product_jet(magnitude, np.abs(z), order).buf
                assert np.all(np.abs(got.buf - want.buf) <= bound)
                if degree <= 2:
                    assert np.array_equal(got.buf, want.buf)


@pytest.mark.parametrize("m", [2, 6])
def test_poly_jet_is_batch_invariant(m):
    """A batch gives every point the bits of its one-point call."""
    rng = np.random.default_rng(m)
    P = _random_poly(rng, m, 5, terms=10)
    z = rng.uniform(-1.0, 1.0, size=(9, m))
    for order in range(5):
        rows = np.concatenate([P.jet(z[b : b + 1], order).buf for b in range(len(z))], axis=1)
        assert P.jet(z, order).buf.tobytes() == rows.tobytes()


@pytest.mark.parametrize("name", [name for name in CATALOG_NAMES if name != "euclidean4"])
@pytest.mark.parametrize("B", [1, 5])
def test_coefficient_jet_has_the_rows_of_poly_jet(name, B):
    """Each entry of the coefficient reader's array jet has the bits of
    `Poly.jet(x, order).buf` for a Poly, and is an exact constant for a
    number, at orders 0-3."""
    M = load_catalog_metric(name)
    x, _ = sample_points(M, B, 21)
    for key, c in M.params.items():
        entries = np.array(c, dtype=object)
        for order in range(4):
            got = coefficient_jet(c, x, order)
            assert (got.m, got.order, got.shape, got.value.shape) == (M.n, order, entries.shape, (B,) + entries.shape)
            for index, e in np.ndenumerate(entries):
                rows = got[index].buf
                if isinstance(e, Poly):
                    assert rows.tobytes() == e.jet(x, order).buf.tobytes()
                else:
                    assert rows[0].tolist() == [e] * B and not rows[1:].any()


def test_randers_drift_too_large_at_some_probe_points_is_rejected_as_a_loop_would():
    """A polynomial drift with |b|_a >= 1 at only some of the 16 probe
    points is rejected with the message and the first offending point of a
    loop over the probe points in draw order, not the worst one."""
    x_box = np.array([[-1.0, 1.0], [-0.5, 1.5]])
    a01 = {"poly": [{"coef": 0.1, "powers": [1, 0]}]}
    config = {
        "family": "randers",
        "n": 2,
        "a": [[{"poly": [{"coef": 1.0, "powers": [0, 0]}, {"coef": 0.2, "powers": [0, 1]}]}, a01], [a01, 1.0]],
        "b": [{"poly": [{"coef": 1.1, "powers": [1, 0]}]}, {"poly": [{"coef": 0.8, "powers": [1, 1]}]}],
        "domain": {"x": x_box.tolist()},
    }
    rng = np.random.default_rng(2024)  # the probe set
    xs = rng.uniform(size=(16, 2)) * (x_box[:, 1] - x_box[:, 0]) + x_box[:, 0]
    norms = []
    for x0, x1 in xs:
        a = np.array([[1.0 + 0.2 * x1, 0.1 * x0], [0.1 * x0, 1.0]])
        b = np.array([1.1 * x0, 0.8 * x0 * x1])
        norms.append(np.sqrt(b @ np.linalg.solve(a, b)))
    bad = [k for k, norm in enumerate(norms) if norm >= 1.0]
    assert 0 < len(bad) < 16 and bad[0] != int(np.argmax(norms))
    k = bad[0]
    expected = (f"randers drift too large: |b|_a = {norms[k]:.4f} >= 1 at x={xs[k].tolist()} "
                "(indicatrix convexity violated)")
    with pytest.raises(ConfigError) as exc:
        load_metric(config)
    assert str(exc.value) == expected
