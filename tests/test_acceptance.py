"""Acceptance suite: the exit criteria of the laboratory.

Runs the full verification sweep (5 catalog metrics x 1000 points, one seed)
through the same check registry the CLI uses, then asserts each criterion at
its pinned tolerance and prints one pass/fail line per criterion.
"""

import pytest

from finslerlab.checks import run_verification

from helpers import CATALOG_NAMES, load_catalog_metric

POINTS = 1000
SEED = 42


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name in CATALOG_NAMES:
        out[name] = run_verification(load_catalog_metric(name), points=POINTS, seed=SEED)
    return out


def worst_of(reports, check_ids):
    """Max residual of the listed checks across all catalog metrics, with the
    tolerance each check ran at.  Every listed id must run on some metric (an
    id of one family needs only that family's report)."""
    rows = []
    for name, rep in reports.items():
        for c in rep["checks"]:
            if c["id"] in check_ids:
                rows.append((name, c["id"], c["max_residual"], c["tolerance"]))
    missing = set(check_ids) - {cid for _, cid, _, _ in rows}
    assert not missing, f"no report holds the checks {sorted(missing)}"
    return rows


def assert_cluster(num, label, reports, check_ids, tolerance=None):
    rows = worst_of(reports, check_ids)
    bad = [(m, cid, r, tolerance if tolerance is not None else t) for m, cid, r, t in rows
           if r > (tolerance if tolerance is not None else t)]
    worst = max(rows, key=lambda r: r[2])
    status = "PASS" if not bad else "FAIL"
    print(f"ACCEPTANCE {num}: {status}  {label}  (worst {worst[2]:.3e} at {worst[0]}:{worst[1]})", flush=True)
    assert not bad, f"criterion {num} failed: {bad}"


def test_criterion_1_homogeneity_suite(reports):
    assert_cluster(
        1,
        "degree-1 homogeneity identities: F^2 = y^i y^j g_ij = G(Gamma, Gamma), the Euler gradient "
        "and y^i dg_ij/dy^k = 0, <= 1e-8",
        reports,
        {"euler.squared_norm", "liouville.t_consistency", "euler.vertical_radial"},
        tolerance=1e-8,
    )


def test_criterion_2_coefficient_identities(reports):
    assert_cluster(
        2,
        "six radial-coefficient identities (y^i bar_i = 0 is frames.dependence), <= 1e-8",
        reports,
        {
            "liouville.normalization",
            "frames.dependence",
            "liouville.t_gradient",
            "liouville.t_radial_derivative",
            "liouville.t_gradient_contraction",
            "liouville.radial_pairing",
        },
        tolerance=1e-8,
    )


def test_criterion_3_bracket_relations(reports):
    assert_cluster(
        3,
        "orthogonal vertical frame bracket relations (the radial one is the Vaisman radial torsion), <= 1e-7",
        reports,
        {"brackets.indicatrix_pairs", "brackets.indicatrix_radial"},
        tolerance=1e-7,
    )


def test_criterion_4_frame_suite(reports):
    # J^2 = -I asserted at roundoff separately from the toleranced residuals:
    # exactly where N = 0, within a few ulps elsewhere
    for name, rep in reports.items():
        j2 = next(c for c in rep["checks"] if c["id"] == "sasaki.j_squared")
        if name == "euclidean4":
            assert j2["max_residual"] == 0.0, name
        else:
            assert j2["max_residual"] <= 1e-15, name
    assert_cluster(
        4,
        "frame orthogonality/dependence, Gram blocks, J-compatibility, "
        "two-form assemblies and closedness (per-check tolerances)",
        reports,
        {
            "frames.orthogonality",
            "frames.dependence",
            "frames.gram_blocks",
            "frames.j_images",
            "sasaki.j_compatibility",
            "sasaki.kahler_two_ways",
            "sasaki.kahler_closed",
        },
    )


def test_criterion_5_chart_suite(reports):
    ids = set()
    for rep in reports.values():
        ids.update(c["id"] for c in rep["checks"] if c["id"].startswith("charts."))
    assert_cluster(
        5,
        "two-chart rules on the cubic map, <= 1e-9",
        reports,
        ids,
    )


def test_criterion_6_connection_suite(reports):
    clusters = {
        # the radial torsion is the bracket row brackets.indicatrix_radial, splitting preservation
        # the orthogonality row frames.orthogonality, the direct sum's vertical display the
        # Vaisman line display, and lift independence the residual of euler.squared_norm
        1e-7: {"vaisman.torsion_indicatrix", "brackets.indicatrix_radial",
               "vaisman.torsion_mixed", "vaisman.metric_indicatrix", "vaisman.metric_radial",
               "composite.basic"},
        1e-10: {"vaisman.line_display", "frames.orthogonality", "composite.horizontal_display"},
    }
    for tol, ids in clusters.items():
        rows = worst_of(reports, ids)
        bad = [(m, c, r) for m, c, r, _ in rows if r > tol]
        assert not bad, f"connection cluster at {tol}: {bad}"
    assert_cluster(
        6,
        "basicness and defining conditions "
        "of the connection triple (1e-7 / 1e-10 clusters)",
        reports,
        set().union(*clusters.values()),
    )


def test_criterion_7_special_case_oracles(reports):
    riem = {"special.riemannian_cartan_zero": 1e-12, "special.spray_christoffel": 1e-10}
    for name in ("riemann2", "riemann3"):
        for cid, tol in riem.items():
            c = next(c for c in reports[name]["checks"] if c["id"] == cid)
            assert c["max_residual"] <= tol, (name, cid, c["max_residual"])
    euc = next(c for c in reports["euclidean4"]["checks"] if c["id"] == "special.euclidean_tables")
    assert euc["max_residual"] <= 1e-10
    assert_cluster(
        7,
        "special-case oracles: Christoffel spray, vanishing vertical table, "
        "round-indicatrix connection values",
        reports,
        {"special.riemannian_cartan_zero", "special.spray_christoffel", "special.euclidean_tables"},
    )


def test_criterion_8_numerics(reports):
    for name, rep in reports.items():
        fd = next(c for c in rep["checks"] if c["id"] == "numerics.fd_cross")
        assert fd["max_residual"] <= 1e-5, (name, fd["max_residual"])
        rk = next(c for c in rep["checks"] if c["id"] == "numerics.rk4_order")
        if rep["meta"]["family"] == "euclidean":
            assert rk["max_residual"] == 0.0  # straight lines: every drift within the roundoff floor
        else:
            assert rk["max_residual"] <= 1.0  # |log2(ratio) - 4| <= 1: factor 2 around dt^4
    assert_cluster(
        8,
        "AD vs finite differences (50 spots/metric, <= 1e-5) and 4th-order "
        "geodesic drift scaling (factor 2)",
        reports,
        {"numerics.fd_cross", "numerics.rk4_order"},
    )


def strip_volatile(report):
    import copy

    doc = copy.deepcopy(report)
    doc["meta"].pop("wall_time_s")
    doc["meta"].pop("threads")
    return doc


def test_criterion_9_determinism():
    M = load_catalog_metric("randers3")
    a = run_verification(M, points=300, seed=9, threads=1)
    b = run_verification(M, points=300, seed=9, threads=1)
    c = run_verification(M, points=300, seed=9, threads=3)
    ok = strip_volatile(a) == strip_volatile(b) == strip_volatile(c)
    print(f"ACCEPTANCE 9: {'PASS' if ok else 'FAIL'}  identical reports across reruns and thread counts", flush=True)
    assert strip_volatile(a) == strip_volatile(b)
    assert strip_volatile(a) == strip_volatile(c)


def test_catalog_wide_pass(reports):
    """Every registered check passes at its own pinned tolerance, catalog-wide."""
    for name, rep in reports.items():
        bad = [(c["id"], c["max_residual"], c["tolerance"]) for c in rep["checks"] if not c["pass"]]
        assert rep["pass"], f"{name}: {bad}"


def test_a_criterion_fails_on_an_id_no_report_holds():
    """A criterion that names a deleted id fails; it does not pass on the
    ids that are left."""
    reports = {"m": {"checks": [{"id": "a", "max_residual": 0.0, "tolerance": 1e-10}]}}
    assert worst_of(reports, {"a"}) == [("m", "a", 0.0, 1e-10)]
    with pytest.raises(AssertionError, match="deleted.row"):
        worst_of(reports, {"a", "deleted.row"})
