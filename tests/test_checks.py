"""The check table: unique ids, known classes, one run per producer per chunk,
no residual computed and never read, pattern selection errors, `check_point`
and the geodesic starts of the global checks."""

import zlib
from collections import Counter
from functools import cached_property

import numpy as np
import pytest

import finslerlab.charts as ch
import finslerlab.checks as checks
import finslerlab.connections as cn
import finslerlab.liouville as lv
import finslerlab.metrics as mt
import finslerlab.sasaki as sk
import finslerlab.spray as sp
from finslerlab.errors import ConfigError
from finslerlab.jets import TangentPoint
from finslerlab.metrics import sample_points

from helpers import CATALOG_NAMES, load_catalog_metric, per_spot_fd_cross, stack


def test_ids_unique_and_classes_known():
    ids = [c.id for c in checks.CHECKS]
    assert len(ids) == len(set(ids))
    assert {c.klass for c in checks.CHECKS} <= set(checks.TOLERANCE_CLASSES)
    # one id per residual: no two point rows read the same (producer, key)
    reads = Counter(c.fn.args for c in checks.CHECKS if c.scope == "point")
    assert [read for read, count in reads.items() if count > 1] == []


def test_one_chunk_runs_each_producer_once_and_reads_every_output_key(monkeypatch):
    """On one 256-point chunk every producer runs once, no residual engine runs
    twice on the same inputs, and each key of a produced dict feeds some id.
    The counted arguments are kept alive to the end, so no freed object's id
    is reused for another's."""
    engine_calls, counted_args = Counter(), []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counted_args.append(args[:2])
            engine_calls[(name, *map(id, args[:2]))] += 1
            return fn(*args, **kwargs)

        return wrapper

    for mod in (ch, cn, lv, mt, sk):
        for name, fn in list(vars(mod).items()):
            if name.endswith("_residuals") and callable(fn):
                monkeypatch.setattr(mod, name, counted(name, fn))

    producer_runs = Counter()

    class CountingCache(dict):
        def __setitem__(self, producer, value):
            producer_runs[producer] += 1
            super().__setitem__(producer, value)

    M = load_catalog_metric("riemann2")
    x, y = sample_points(M, 256, 42)
    ctx = checks.ChunkContext(M, x, y)
    ctx._outputs = CountingCache()
    point = [c for c in checks.select_checks(M) if c.scope == "point"]
    for c in point:
        c.fn(ctx)

    assert set(producer_runs) == {c.fn.args[0] for c in point}
    assert set(producer_runs.values()) == {1}
    assert engine_calls and max(engine_calls.values()) == 1, [k[0] for k, v in engine_calls.items() if v > 1]

    read = {c.fn.args for c in checks.CHECKS if c.scope == "point"}  # (producer, key)
    unread = [
        (producer, key) for producer, out in ctx._outputs.items() if isinstance(out, dict)
        for key in out if (producer, key) not in read
    ]
    assert not unread


FRAME_FAMILIES = ("dx_fields", "dy_fields", "gamma_field", "bar_fields", "xi_field", "bar_delta_fields")


def test_one_chunk_builds_each_frame_family_once_and_brackets_it_in_tables(monkeypatch):
    """On one 256-point euclidean4 chunk each frame family is built once, all
    six on the chunk's Workspace and none on a chart target.  `bracket` runs
    12 times, where the per-pair loops ran it 176 times and the per-sample
    lifts 51: once per bracket table of the chunk's Workspace ([bar, bar],
    [delta/dx, bar], [delta/dx, delta/dx]), once per other pair of families
    a producer reads, and once per basicness check for all of its unit
    sections, in one stacked pass."""
    builds = Counter()
    for name in FRAME_FAMILIES:
        raw = sp.Workspace.__dict__[name].func

        def build(ws, raw=raw, name=name):
            builds[id(ws), name] += 1
            return raw(ws)

        prop = cached_property(build)
        prop.__set_name__(sp.Workspace, name)
        monkeypatch.setattr(sp.Workspace, name, prop)
    calls = Counter()
    for mod in (sp, lv, cn, sk):
        raw = mod.bracket

        def counted(X, Y, raw=raw):
            calls["bracket"] += 1
            return raw(X, Y)

        monkeypatch.setattr(mod, "bracket", counted)

    M = load_catalog_metric("euclidean4")
    x, y = sample_points(M, 256, 42)
    ctx = checks.ChunkContext(M, x, y)
    for c in checks.select_checks(M):
        if c.scope == "point":
            c.fn(ctx)

    assert set(builds.values()) == {1}
    assert {name for (ws, name) in builds if ws == id(ctx.ws)} == set(FRAME_FAMILIES)
    assert {ws for (ws, name) in builds} == {id(ctx.ws)}
    assert calls["bracket"] == 12  # one stacked pass per basicness check


@pytest.mark.parametrize("name", ["riemann2", "randers3"])
def test_point_checks_build_one_source_workspace_and_one_target_per_chart_map(name, monkeypatch):
    """A one-chunk sweep of every point check builds the chunk's order-4
    Workspace and the order-3 target of each chart map, and no other
    Workspace (the load probe's order-2 Workspace is built before counting)."""
    M = load_catalog_metric(name)
    orders = Counter()
    init = sp.Workspace.__init__

    def counting_init(self, metric, x, y, order=4):
        orders[order] += 1
        init(self, metric, x, y, order)

    monkeypatch.setattr(sp.Workspace, "__init__", counting_init)
    prefixes = sorted({c.id.split(".")[0] for c in checks.CHECKS} - {"numerics"})
    report = checks.run_verification(M, points=256, seed=42, checks=prefixes)
    assert report["pass"] and all(r["worst_point"] is not None for r in report["checks"])
    assert orders == {4: 1, 3: len(ch.chart_catalog(M.n))}


CONSTANT_RIEMANN2 = {"family": "riemannian", "n": 2, "a": [[2, 0.5], [0.5, 1]]}
CONSTANT_RANDERS3 = {"family": "randers", "n": 3, "a": [[2, 0.3, 0], [0.3, 1.5, 0.2], [0, 0.2, 1]],
                     "b": [0.2, -0.1, 0.1]}


@pytest.mark.parametrize("config", [CONSTANT_RIEMANN2, CONSTANT_RANDERS3], ids=["riemannian2", "randers3"])
def test_constant_coefficient_metric_passes_every_row_with_exact_geodesics(config):
    """Coefficients that do not depend on x give straight geodesics, which
    RK4 follows to roundoff: `numerics.rk4_order` runs, as on every metric,
    and its roundoff floor reads 0.0 where the drift ratio would be inf."""
    report = checks.run_verification(mt.load_metric(config), points=1000, seed=42)
    rk4 = next(r for r in report["checks"] if r["id"] == "numerics.rk4_order")
    assert rk4["max_residual"] == 0.0
    assert report["pass"], [r["id"] for r in report["checks"] if not r["pass"]]


def test_select_checks_rejects_a_pattern_that_matches_no_id():
    randers = load_catalog_metric("randers2")
    with pytest.raises(ConfigError, match="'euler.nosuch'"):
        checks.select_checks(randers, ["euler", "euler.nosuch"])
    # registered but not applicable to this metric: a valid, empty selection
    assert checks.select_checks(randers, ["special.spray_christoffel"]) == []
    assert [c.id for c in checks.select_checks(randers, ["frames.dep*"])] == ["frames.dependence"]
    with pytest.raises(ConfigError, match="empty check pattern"):
        checks.select_checks(randers, ["euler", ""])


def test_run_verification_rejects_a_sweep_without_points(monkeypatch):
    """points < 1 is a ValueError naming the bound, raised before the sampler
    runs, not numpy's error on an empty list of chunks."""
    M = load_catalog_metric("riemann2")
    monkeypatch.setattr(checks, "sample_points", None)  # any call would raise a TypeError
    for points in (0, -3):
        with pytest.raises(ValueError, match="points >= 1"):
            checks.run_verification(M, points=points)


def test_custom_metric_selects_every_check_not_tied_to_a_catalog_family():
    """A metric built in code has family "custom": it gets the checks that are
    not restricted to the euclidean or riemannian families, as a Randers metric
    does, numerics.rk4_order included."""
    randers = load_catalog_metric("randers2")
    custom = mt.FinslerMetric.custom(2, randers.evaluate)
    ids = [c.id for c in checks.select_checks(custom)]
    assert ids == [c.id for c in checks.select_checks(randers)]
    assert "numerics.rk4_order" in ids and not any(i.startswith("special.") for i in ids)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_batched_fd_cross_equals_the_per_spot_check(name):
    """The batched `numerics.fd_cross` producer gives every spot the bits of
    the spot-by-spot computation, kinds 3 and 4 included (their spray and
    connection differences run as one batch each)."""
    M = load_catalog_metric(name)
    for seed in (42, 7):
        assert checks._fd_cross_check(M, seed).tobytes() == per_spot_fd_cross(M, seed).tobytes()
    assert checks._fd_cross_check(M, 3, spots=4).tobytes() == per_spot_fd_cross(M, 3, spots=4).tobytes()


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_check_point_equals_a_one_point_sweep(name):
    """`check_point` at the point a one-point sweep samples returns every
    point row of that sweep's report, with the same bits."""
    M = load_catalog_metric(name)
    seed = 7
    report = checks.run_verification(M, points=1, seed=seed)
    x, y = sample_points(M, 1, seed)
    got = checks.check_point(M, TangentPoint(x[0], y[0]))
    rows = {r["id"]: r["max_residual"] for r in report["checks"] if r["worst_point"] is not None}
    assert list(got) == list(rows)
    assert {k: np.float64(v).tobytes() for k, v in got.items()} == {k: np.float64(v).tobytes() for k, v in rows.items()}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_check_point_equals_the_point_row_of_a_later_chunk(name):
    """`check_point` at points of chunks 1-3 of a 1000-point sweep returns
    their rows of the chunk's residuals, with the same bits: no point row
    reads the chunk index or the seed."""
    M = load_catalog_metric(name)
    x, y = sample_points(M, 1000, 42)
    point_checks = [c for c in checks.select_checks(M, None) if c.scope == "point"]
    for lo in (256, 512, 768):
        hi = min(lo + checks.CHUNK_SIZE, 1000)
        rows = checks._run_point_checks(point_checks, checks.ChunkContext(M, x[lo:hi], y[lo:hi]))
        for k in (0, hi - lo - 1):
            got = checks.check_point(M, TangentPoint(x[lo + k], y[lo + k]))
            mismatched = [cid for cid, v in got.items() if np.float64(v).tobytes() != rows[cid][k].tobytes()]
            assert mismatched == [], (lo, k)


def test_no_point_row_draws_random_numbers(monkeypatch):
    """Every point row runs with `np.random.default_rng` patched to raise: no
    residual has a random ingredient.  The chart maps are built first, since
    each checks its own invertibility on a fixed probe set when built."""
    for name in CATALOG_NAMES:
        M = load_catalog_metric(name)
        x, y = sample_points(M, 8, 42)
        ctx = checks.ChunkContext(M, x, y)
        ctx.chart_maps
        point_checks = [c for c in checks.select_checks(M) if c.scope == "point"]
        with monkeypatch.context() as mp:
            mp.setattr(np.random, "default_rng", None)  # any call raises a TypeError
            rows = checks._run_point_checks(point_checks, ctx)
        assert list(rows) == [c.id for c in point_checks] and all(r.shape == (8,) for r in rows.values())


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_check_point_equals_the_point_row_of_a_full_chunk(name):
    """`check_point` at each of the first points of a 256-point chunk 0
    returns that point's row of the chunk's residuals, with the same bits:
    every contraction sums a point's terms in an order that does not depend
    on the batch (at n = 2, numpy's einsum summed a one-point batch along
    another path)."""
    M = load_catalog_metric(name)
    seed = 42
    x, y = sample_points(M, checks.CHUNK_SIZE, seed)
    point_checks = [c for c in checks.select_checks(M, None) if c.scope == "point"]
    rows = checks._run_point_checks(point_checks, checks.ChunkContext(M, x, y))
    for k in range(16):
        got = checks.check_point(M, TangentPoint(x[k], y[k]))
        assert list(got) == list(rows)
        mismatched = [cid for cid, v in got.items() if np.float64(v).tobytes() != rows[cid][k].tobytes()]
        assert mismatched == [], k


def test_check_point_selects_as_the_sweep_does_and_rejects_a_wrong_dimension():
    M = load_catalog_metric("randers2")
    p = TangentPoint([0.2, -0.1], [0.9, 1.1])
    got = checks.check_point(M, p, ["frames.gram*", "frames.dep*"])
    assert list(got) == ["frames.dependence", "frames.gram_blocks"]  # table order
    assert checks.check_point(M, p, ["numerics"]) == {}  # global rows have no point
    with pytest.raises(ConfigError, match="'euler.nosuch'"):
        checks.check_point(M, p, ["euler.nosuch"])
    with pytest.raises(ValueError, match="n = 2"):
        checks.check_point(M, TangentPoint([0.2, -0.1, 0.0], [0.9, 1.1, 0.3]))


def test_geodesic_starts_fit_the_domain_box():
    """The RK4 checks start inside the box at a speed scaled to its smallest
    half-width: on [-1, 1]^n the seeded draws themselves, and a custom metric
    on [-0.5, 0.5]^2 passes numerics.rk4_order with no ChartExitError."""
    M = load_catalog_metric("riemann2")
    rng = np.random.default_rng([42, zlib.crc32(b"rk4")])
    x0, y0 = rng.uniform(-0.15, 0.15, size=2), rng.uniform(1.3, 1.7, size=2)
    p0 = checks._rk4_start(M, 42)
    assert p0.x.tobytes() == x0.tobytes() and p0.y.tobytes() == y0.tobytes()

    boxed = mt.FinslerMetric.custom(2, M.evaluate, x_box=[[-0.5, 0.5], [-0.5, 0.5]])
    report = checks.run_verification(boxed, points=4, seed=42, checks=["numerics.rk4"])
    assert [(r["id"], r["pass"]) for r in report["checks"]] == [("numerics.rk4_order", True)]
    shifted = mt.FinslerMetric.custom(2, M.evaluate, x_box=[[0.2, 0.6], [-0.9, -0.1]])
    p0 = checks._rk4_start(shifted, 42)
    assert shifted.in_box(p0.x).all() and np.abs(p0.y).max() <= 0.2 * 1.7


@pytest.mark.parametrize("name", ["riemann2", "riemann3"])
def test_christoffel_row_catches_a_spray_off_by_1e_9_F2(name, monkeypatch):
    """The exact Christoffel oracle meets the Workspace's G at roundoff, so
    the spray G^0 + 1e-9 F^2 fails `special.spray_christoffel` at its
    algebraic tolerance 1e-10."""
    M = load_catalog_metric(name)

    def row():
        report = checks.run_verification(M, points=256, seed=42, checks=["special.spray_christoffel"])
        return report["checks"][0]

    clean = row()
    assert clean["tolerance"] == 1e-10 and clean["max_residual"] <= 1e-15
    raw = sp.Workspace.__dict__["spray_G"].func

    def spray_G(ws):
        G = raw(ws)
        return stack([G[0] + 1e-9 * ws.L, *list(G)[1:]])

    faulty = cached_property(spray_G)
    faulty.__set_name__(sp.Workspace, "spray_G")
    monkeypatch.setattr(sp.Workspace, "spray_G", faulty)
    assert not row()["pass"]
