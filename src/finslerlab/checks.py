"""Check registry and verification sweep.

Every identity the package can verify is one row of `_TABLE`:
(id, identity, class, producer, key, tolerance override, applies).  The row
order is the report order.  A producer is a callable on the chunk's
`ChunkContext` returning either one (B,) residual array (key None) or a dict
of residual arrays that several ids read by key.  `ChunkContext.output` runs
each producer at most once per chunk and hands its result to every row that
names it, so a shared residual is computed once whichever of its ids run.
Checks of the `numerics` group are global: their producer takes
(metric, seed) and runs once per sweep.  The CLI sweep, `check_point` and
the acceptance suite all run through this registry and one evaluation loop,
so they cannot drift apart.

Determinism: points are sampled once from (n, count, seed) and chunked by a
fixed partition (CHUNK_SIZE) independent of the thread count.  No point row
draws random numbers, so a point's residuals depend on the point alone, not
on its chunk or the seed.  The global rows derive their generators from the
seed, so they too are bit-identical across runs and thread counts.
"""

from __future__ import annotations

import sys
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from operator import methodcaller
from typing import Callable

import numpy as np

from . import charts as ch
from . import connections as cn
from . import liouville as lv
from . import metrics as mt
from . import sasaki as sk
from . import spray as sp
from .errors import ConfigError
from .jets import TangentPoint, fd_oracle
from .metrics import FinslerMetric, sample_points

CHUNK_SIZE = 256

TOLERANCE_CLASSES = {
    "exact": 0.0,
    "algebraic": 1e-10,
    "derivative": 1e-8,
    "bracket": 1e-8,
    "third": 1e-7,
}


class ChunkContext:
    """Lazy per-chunk pipeline state shared by all point-scope checks."""

    def __init__(self, metric: FinslerMetric, x: np.ndarray, y: np.ndarray):
        self.metric = metric
        self.x = x
        self.y = y
        self._outputs = {}

    def output(self, producer: Callable):
        """`producer(self)`, computed on first use and cached for the chunk."""
        if producer not in self._outputs:
            self._outputs[producer] = producer(self)
        return self._outputs[producer]

    @cached_property
    def ws(self) -> sp.Workspace:
        return sp.Workspace(self.metric, self.x, self.y, order=4)

    @cached_property
    def vaisman(self) -> cn.VaismanSolved:
        return cn.solve_vaisman(self.ws)

    @cached_property
    def vranceanu(self) -> dict:
        return cn.vranceanu_values(self.ws)

    @cached_property
    def chart_maps(self) -> dict:
        return {c.name: c for c in ch.chart_catalog(self.metric.n)}

    def chart_target(self, name: str) -> sp.Workspace:
        """Order-3 pipeline of the pushed-forward metric at the image points;
        its one reader, `chart`, runs once per map and chunk through `output`."""
        return ch.target_workspace(self.metric, self.chart_maps[name], self.x, self.y)

    def chart(self, name: str) -> dict:
        return ch.chart_residuals(self.chart_maps[name], self.ws, self.chart_target(name))


@dataclass(frozen=True)
class CheckDef:
    id: str
    identity: str
    klass: str
    tolerance: float
    fn: Callable  # ChunkContext -> (B,) residuals, or (metric, seed) -> array for globals
    scope: str = "point"  # "point" | "global"
    applies: str | None = None  # a family name ("riemannian", "euclidean"): that family only; None: all

    def applicable(self, metric: FinslerMetric) -> bool:
        return self.applies is None or metric.family == self.applies


# -- producers -------------------------------------------------------------------------
# Library residual engines are called through their modules at run time, never
# stored in the table, so a wrapper installed on a module attribute (such as
# the per-layer tracer in perfbench/) sees every call.


def _euler(ctx):
    return sp.vertical_radial_residuals(ctx.ws)


def _liouville_identities(ctx):
    return lv.coefficient_identity_residuals(ctx.ws)


def _t_consistency(ctx):
    return lv.t_consistency_residuals(ctx.ws)


def _bar_brackets(ctx):
    return lv.bar_bracket_residuals(ctx.ws)


def _orthogonality(ctx):
    return lv.orthogonality_residuals(ctx.ws)


def _dependence(ctx):
    return lv.dependence_residuals(ctx.ws)


def _pack(ctx):
    return lv.pack_residuals(ctx.ws)


def _radial_norm(ctx):
    return sk.radial_norm_residuals(ctx.ws)


def _compatibility(ctx):
    return sk.compatibility_residuals(ctx.ws)


def _kahler(ctx):
    return sk.kahler_residuals(ctx.ws)


def _frobenius(ctx):
    return lv.frobenius_residuals(ctx.ws)


def _connection_homogeneity(ctx):
    contracted = np.einsum("bjik,bk->bji", ctx.ws.dN_val, ctx.ws.y)
    scale = np.abs(ctx.ws.N_val).max(axis=(1, 2)) + ctx.ws.F_val
    return np.abs(contracted - ctx.ws.N_val).max(axis=(1, 2)) / scale


def _radial_horizontal(ctx):
    return cn.radial_horizontal_residuals(ctx.ws)


def _curvature_vs_bracket(ctx):
    ws, n = ctx.ws, ctx.ws.n
    i, j = np.triu_indices(n, 1)
    w = ws.dx_dx_brackets[:, i, j]  # (B, pairs, 2n)
    target = -ws.R_val[:, :, i, j].transpose(0, 2, 1)
    return np.maximum(np.abs(w[..., n:] - target).max(axis=(1, 2)), np.abs(w[..., :n]).max(axis=(1, 2)))


def _vaisman_line(ctx):
    return cn.vaisman_line_residuals(ctx.ws)


def _vranceanu_structure(ctx):
    return cn.vranceanu_structure_residuals(ctx.ws, ctx.vranceanu)


def _vaisman_conditions(ctx):
    return cn.vaisman_condition_residuals(ctx.ws, ctx.vaisman)


def _vaisman_basic(ctx):
    return cn.vaisman_basic_residuals(ctx.ws, ctx.vaisman)


def _composite_basic(ctx):
    return cn.composite_basic_residuals(ctx.ws, ctx.vaisman, ctx.vranceanu["Fc"])


def _riemannian_cartan(ctx):
    return np.abs(ctx.vranceanu["C"]).max(axis=(1, 2, 3))


def _christoffel_oracle(ctx):
    """Independent spray oracle: the Christoffel symbols of a(x) from its
    exact coefficient derivatives (`metrics.coefficient_jet`, never a
    Workspace jet), hence the spray."""
    a = mt.coefficient_jet(ctx.metric.params["a"], ctx.x, 1)
    da = a.coeffs[1]  # da[b, l, j, k] = d a_lj / d x^k
    # gamma^i_jk = 1/2 a^il (d_k a_lj + d_j a_lk - d_l a_jk)
    lowered = da + da.transpose(0, 1, 3, 2) - da.transpose(0, 3, 1, 2)
    gamma = 0.5 * np.einsum("bil,bljk->bijk", np.linalg.inv(a.value), lowered)
    gamma_y = (gamma @ ctx.y[:, None, :, None])[..., 0]  # gamma^i_jk y^k
    G_oracle = 0.5 * (gamma_y @ ctx.y[:, :, None])[..., 0]
    scale = np.abs(ctx.ws.G_val).max(axis=1) + ctx.ws.L_val
    return np.abs(ctx.ws.G_val - G_oracle).max(axis=1) / scale


def _euclidean_tables(ctx):
    return cn.euclidean_table_residuals(ctx.ws, ctx.vaisman, ctx.vranceanu)


# -- global producers: (metric, seed) -> residuals -------------------------------------


def _fd_cross_check(metric: FinslerMetric, seed: int, spots: int = 50) -> np.ndarray:
    """AD vs finite differences on random spot checks: derivatives of F^2 up
    to order 3 (kinds 0-2), the nonlinear connection against differences of
    the spray (kind 3), and its derivative against differences of N (kind 4).

    Spot s has kind s % 5.  The AD side reads one Workspace per reader group
    (kinds 0-2 read only L, so the ginv guard runs only for kinds 3-4).  The
    FD side is one `fd_oracle` call per kind: on F^2 from the batched
    `metric.F`, the route of the integrator's F, on `spray_values`, and on
    the order-3 Workspace's N values.  For a catalog metric kinds 0-2
    compare two routes to F^2: the Workspace's L is written from the
    polynomial rows of q and beta, the FD side calls the evaluator on float
    arrays."""
    rng = np.random.default_rng([seed, zlib.crc32(b"fd_cross")])
    n = metric.n
    x, y = sample_points(metric, spots, seed + 101)
    kinds = [s % 5 for s in range(spots)]
    draws = []
    for kind in kinds:
        if kind in (0, 1, 2):
            draws.append([int(k) for k in rng.integers(0, 2 * n, size=kind + 1)])
        elif kind == 3:
            draws.append([int(v) for v in rng.integers(0, n, size=2)])
        else:
            draws.append([int(v) for v in rng.integers(0, n, size=2)] + [int(rng.integers(0, 2 * n))])
    low = [s for s in range(spots) if kinds[s] < 3]
    three = [s for s in range(spots) if kinds[s] == 3]
    four = [s for s in range(spots) if kinds[s] == 4]
    ad, fd = np.zeros(spots), np.zeros(spots)

    if low:
        L = sp.Workspace(metric, x[low], y[low], order=4).L
        for row, s in enumerate(low):
            jet = L
            for slot in draws[s]:
                jet = jet.deriv(slot)
            ad[s] = jet.value[row]

    if three or four:
        ws = sp.Workspace(metric, x[three + four], y[three + four], order=4)
        for row, s in enumerate(three):
            j, i = draws[s]
            ad[s] = ws.N_val[row, j, i]
        for row, s in enumerate(four, start=len(three)):
            j, i, k = draws[s]
            ad[s] = ws.N[j, i].deriv(k).value[row]

    def F2(c):
        F = metric.F(c[:, :n], c[:, n:])
        return F * F

    chart = np.concatenate([x, y], axis=1)
    for kind in range(3):
        group = [s for s in low if kinds[s] == kind]
        if group:
            fd[group] = fd_oracle(F2, chart[group], [draws[s] for s in group])
    if three:
        G = fd_oracle(lambda c: sp.spray_values(metric, c), chart[three], [[n + draws[s][1]] for s in three])
        fd[three] = [G[row, draws[s][0]] for row, s in enumerate(three)]
    if four:
        N = fd_oracle(lambda c: sp.Workspace(metric, c[:, :n], c[:, n:], order=3).N_val, chart[four],
                      [[draws[s][2]] for s in four])
        fd[four] = [N[row, draws[s][0], draws[s][1]] for row, s in enumerate(four)]

    return np.abs(ad - fd) / np.maximum(np.maximum(np.abs(fd), np.abs(ad)), 1.0)


def _rk4_start(metric: FinslerMetric, seed: int) -> TangentPoint:
    """A seeded geodesic start fitted to the domain box: x0 = center +
    half-width * u with u uniform in [-0.15, 0.15]^n, and y0 uniform in
    [1.3, 1.7]^n scaled by the smallest half-width, so the path shrinks with
    the box.  On [-1, 1]^n, x0 and y0 are the draws themselves, bit for bit."""
    rng = np.random.default_rng([seed, zlib.crc32(b"rk4")])
    center = metric.x_box.mean(axis=1)
    half = 0.5 * (metric.x_box[:, 1] - metric.x_box[:, 0])
    x0 = center + half * rng.uniform(-0.15, 0.15, size=metric.n)
    y0 = half.min() * rng.uniform(1.3, 1.7, size=metric.n)
    return TangentPoint(x0, y0)


def _rk4_order(metric: FinslerMetric, seed: int) -> np.ndarray:
    """Conserved-quantity drift must scale as dt^4: log2 of successive drift
    ratios within 1 of 4 across dt in {1e-2, 5e-3, 2.5e-3}, the three paths
    integrated in lockstep.

    A pair whose two drifts are both at most 64 eps F(0) reads 0.0: RK4
    follows a straight line of constant coefficients, or a Funk metric's
    geodesic, to roundoff (drifts up to about 7 eps F(0)), and roundoff has
    no order to measure.  Over seeds 1-11 the smallest pair maximum of the
    four curved catalog configs is 206 eps F(0) (randers3), above the floor."""
    p0 = _rk4_start(metric, seed)
    T = 0.4
    dts = (1e-2, 5e-3, 2.5e-3)
    results = sp.integrate_geodesics(metric, [p0] * len(dts), [int(round(T / dt)) for dt in dts], dts)
    drifts = [res.drift for res in results]
    floor = 64 * np.finfo(float).eps * results[0].F[0]
    out = []
    for a, b in zip(drifts, drifts[1:]):
        if max(a, b) <= floor:
            out.append(0.0)
        else:
            ratio = a / b if b > 0 else np.inf
            out.append(abs(np.log2(ratio) - 4.0))
    return np.array(out)


# -- the table -------------------------------------------------------------------------

_LIOUVILLE_IDENTITIES = {
    "normalization": "y^i t_i = 1",
    "t_gradient": "dt_l/dy^k = -2 t_k t_l + g_kl / F^2",
    "t_radial_derivative": "Gamma(t_k) = -t_k",
    "t_gradient_contraction": "y^j dt_j/dy^i = -t_i",
    "radial_pairing": "y^i Gamma(t_i) = -1",
}
_FROBENIUS_TOL = {"indicatrix": 1e-8, "level_set": 1e-7, "radial_plane": 1e-8}
_CHART_TOL = {"cubic": 1e-9}
_CHART_KEYS = (
    "scalar_invariance",
    "covector_rule",
    "metric_tensor_rule",
    "bar_frame_rule",
    "kept_frame_rule",
    "determinant_formula",
    "horizontal_pushforward",
)
_CHARTS = {name: methodcaller("chart", name) for name in _CHART_TOL}

# (id, identity, class, producer, key, tolerance override, applies); trailing Nones omitted
_TABLE = [
    # Gamma has no horizontal part, so G(Gamma, Gamma) = y^i y^j g_ij: one row reads both forms.
    # dF/dy^k = F t_k, so the Euler gradient dF/dy^k = y^i g_ki / F is the row liouville.t_consistency
    ("euler.squared_norm", "F^2 = y^i y^j g_ij = G(Gamma, Gamma)", "derivative", _radial_norm),
    ("euler.vertical_radial", "y^i dg_ij/dy^k = 0", "derivative", _euler),
    *((f"liouville.{k}", text, "derivative", _liouville_identities, k) for k, text in _LIOUVILLE_IDENTITIES.items()),
    ("liouville.t_consistency", "y^i g_ki / F^2 = (dF/dy^k) / F, i.e. dF/dy^k = y^i g_ki / F", "algebraic",
     _t_consistency),
    ("brackets.indicatrix_pairs", "[bar_i, bar_j] = t_i bar_j - t_j bar_i", "third", _bar_brackets, "pair_brackets"),
    ("brackets.indicatrix_radial", "[bar_i, Gamma] = bar_i (the Vaisman torsion with the radial argument vanishes)",
     "third", _bar_brackets, "radial_brackets"),
    ("frames.orthogonality", "G(bar_k, Gamma) = 0 (the Vaisman connection keeps the indicatrix/radial splitting)",
     "algebraic", _orthogonality),
    ("frames.dependence", "bar_m = -(1/y^m) sum_{a != m} y^a bar_a, i.e. y^i bar_i = 0 componentwise", "algebraic",
     _dependence),
    ("frames.gram_blocks", "adapted frame Gram is block diagonal over the four distributions", "algebraic",
     _pack, "gram_offblock", 1e-9),
    ("frames.j_images", "J(bar_a) = bar_delta_a and J(Gamma) = xi", "algebraic", _pack, "j_images"),
    ("frames.pack_conditioning", "frame pack condition number below 1e10", "exact", _pack, "conditioning"),
    ("sasaki.coordinate_roundtrip", "coordinate Sasaki matrix transforms back to blockdiag(g, g)", "algebraic",
     _compatibility, "coordinate_roundtrip"),
    ("sasaki.j_squared", "J^2 = -identity (coordinate matrix of J)", "algebraic", _compatibility, "j_squared"),
    ("sasaki.j_compatibility", "G(JX, JY) = G(X, Y) on adapted frame pairs", "algebraic",
     _compatibility, "j_compatibility", 1e-9),
    ("sasaki.kahler_two_ways", "Omega from G(J., .) equals Omega from g_ij delta-y^i wedge dx^j", "algebraic",
     _kahler, "two_assemblies"),
    ("sasaki.kahler_closed", "d Omega = 0 via the frame-field formula on all adapted triples", "third",
     _compatibility, "closedness"),
    *(
        (f"frobenius.{k}", f"{k} distribution closed under brackets (leakage)", "bracket", _frobenius, k, tol)
        for k, tol in _FROBENIUS_TOL.items()
    ),
    ("spray.connection_homogeneity", "y^k dN^j_i/dy^k = N^j_i", "derivative", _connection_homogeneity, None, 1e-9),
    ("spray.radial_horizontal_commutator", "[Gamma, delta/dx_i] = 0", "bracket", _radial_horizontal, "commutator"),
    ("spray.curvature_bracket", "[delta/dx_i, delta/dx_j] = -R^k_ij d/dy_k", "third", _curvature_vs_bracket),
    *(
        (f"charts.{name}.{k}", f"{k.replace('_', ' ')} under the {name} chart map", "third", _CHARTS[name], k, tol)
        for name, tol in _CHART_TOL.items()
        for k in _CHART_KEYS
    ),
    ("vranceanu.c_symmetry", "C^k_ij symmetric in (i, j)", "exact", _vranceanu_structure, "c_symmetry", 1e-12),
    ("vranceanu.c_radial", "C^k_ij y^i = 0, and so C^k_ij y^j = 0 (C is symmetric in i, j)", "algebraic",
     _vranceanu_structure, "c_radial"),
    ("vranceanu.fc_symmetry", "F^k_ij symmetric in (i, j)", "algebraic", _vranceanu_structure, "fc_symmetry"),
    ("vaisman.line_display", "projected bracket with Gamma acts as -1 on the bar frame (also the direct sum's "
     "vertical display)", "algebraic", _vaisman_line),
    ("vaisman.torsion_indicatrix", "vertical torsion vanishes on indicatrix pairs", "third",
     _vaisman_conditions, "torsion_indicatrix", 1e-7),
    ("vaisman.torsion_mixed", "mixed horizontal torsion reproduces the projected bracket", "third",
     _vaisman_conditions, "torsion_mixed", 1e-7),
    ("vaisman.metric_indicatrix", "Koszul coefficients are metric on indicatrix triples", "third",
     _vaisman_conditions, "metric_indicatrix", 1e-8),
    ("vaisman.metric_radial", "radial metricity forces the unit radial coefficient", "third",
     _vaisman_conditions, "metric_radial", 1e-10),
    # the identity is linear in the section, so unit sections settle it; a radial coefficient a and a
    # lift b add a multiple of pi_0 Gamma = (1 - G(Gamma, Gamma)/F^2) Gamma, which is euler.squared_norm;
    # the dependent bar_m is sum_a c_a bar_a with Gamma(c_a) = 0, so its residual combines the kept units'
    ("vaisman.basic", "radial derivative equals projected bracket on the kept unit sections bar_a and rho bar_a "
     "(a lift or a radial coefficient adds euler.squared_norm)", "bracket", _vaisman_basic),
    ("composite.horizontal_display", "projected bracket of Gamma with delta/dx_i vanishes", "algebraic",
     _radial_horizontal, "horizontal_display"),
    ("composite.basic", "direct-sum connection equals projected bracket on the unit sections rho delta/dx_i "
     "(the vertical-summand units are vaisman.basic, the constant horizontal units "
     "composite.horizontal_display)", "third", _composite_basic),
    ("special.riemannian_cartan_zero", "riemannian: the vertical coefficient table vanishes", "exact",
     _riemannian_cartan, None, 1e-12, "riemannian"),
    ("special.spray_christoffel", "riemannian: spray equals the Christoffel oracle from exact coefficient derivatives",
     "algebraic", _christoffel_oracle, None, None, "riemannian"),
    ("special.euclidean_tables", "euclidean: connection tables reduce to the round-indicatrix values", "algebraic",
     _euclidean_tables, None, None, "euclidean"),
    ("numerics.fd_cross", "AD derivatives match finite differences on random spot checks", "derivative",
     _fd_cross_check, None, 1e-5),
    ("numerics.rk4_order", "geodesic conserved-quantity drift scales as dt^4 (factor 2)", "derivative",
     _rk4_order, None, 1.0),
]


def _read(producer, key, ctx):
    out = ctx.output(producer)
    return out if key is None else out[key]


def _check(cid, identity, klass, producer, key=None, tolerance=None, applies=None) -> CheckDef:
    tol = TOLERANCE_CLASSES[klass] if tolerance is None else tolerance
    if cid.startswith("numerics."):
        return CheckDef(cid, identity, klass, tol, producer, "global", applies)
    return CheckDef(cid, identity, klass, tol, partial(_read, producer, key), "point", applies)


CHECKS: list[CheckDef] = [_check(*row) for row in _TABLE]


# -- sweep runner ---------------------------------------------------------------------------------------


def select_checks(metric: FinslerMetric, patterns=None) -> list:
    """The checks applicable to `metric` whose id starts with one of
    `patterns` (a trailing `*` is ignored), in table order.  An empty pattern,
    or one that matches no registered id, is a ConfigError."""
    patterns = list(patterns or ())
    if "" in patterns:
        raise ConfigError("empty check pattern (a stray comma in --checks?)")
    unmatched = [p for p in patterns if not any(_matches(c, p) for c in CHECKS)]
    if unmatched:
        raise ConfigError(f"no check id matches the pattern {', '.join(map(repr, unmatched))}")
    return [c for c in CHECKS if c.applicable(metric) and (not patterns or any(_matches(c, p) for p in patterns))]


def _matches(check: CheckDef, pattern: str) -> bool:
    return check.id.startswith(pattern.rstrip("*"))


def _run_point_checks(point_checks: list, ctx: ChunkContext) -> dict:
    """{id: (B,) residuals} of the point-scope checks on one chunk."""
    return {c.id: np.asarray(c.fn(ctx)) for c in point_checks}


def check_point(metric: FinslerMetric, p: TangentPoint, checks=None) -> dict:
    """{id: residual} of the point-scope checks that `select_checks(metric,
    checks)` picks, at the one point p: a one-chunk sweep of p.  It equals
    p's row of any sweep that samples p, bit for bit: no point row draws
    random numbers, and no sum over a point's terms runs in an order that
    depends on the batch."""
    if p.n != metric.n:
        raise ValueError(f"the point needs x and y of length n = {metric.n}, the metric's dimension")
    point_checks = [c for c in select_checks(metric, checks) if c.scope == "point"]
    ctx = ChunkContext(metric, p.x[None], p.y[None])
    return {cid: float(res[0]) for cid, res in _run_point_checks(point_checks, ctx).items()}


def run_verification(
    metric: FinslerMetric,
    points: int = 1000,
    seed: int = 42,
    checks=None,
    tolerance: float | None = None,
    tol_profile: dict | None = None,
    threads: int = 1,
) -> dict:
    """Run the check suite over sampled points and aggregate a report."""
    if points < 1:
        raise ValueError(f"the sweep needs points >= 1, got {points}")
    start = time.perf_counter()
    overrides = _tolerance_overrides(tolerance, tol_profile)
    selected = select_checks(metric, checks)
    try:
        x, y = sample_points(metric, points, seed)
    except (ValueError, MemoryError) as exc:  # numpy refuses an array that large
        raise ConfigError(f"cannot sample points = {points} (--points): {exc}") from exc
    bounds = [(i, min(i + CHUNK_SIZE, points)) for i in range(0, points, CHUNK_SIZE)]
    point_checks = [c for c in selected if c.scope == "point"]

    def run_chunk(bound):
        lo, hi = bound
        return _run_point_checks(point_checks, ChunkContext(metric, x[lo:hi], y[lo:hi]))

    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunk_results = list(pool.map(run_chunk, bounds))
    else:
        chunk_results = [run_chunk(bound) for bound in bounds]

    rows = []
    for c in selected:
        if c.scope == "point":
            res = np.concatenate([cr[c.id] for cr in chunk_results])
            k = int(np.argmax(res))
            worst_point = {"x": x[k].tolist(), "y": y[k].tolist()}
        else:
            res = np.asarray(c.fn(metric, seed))
            worst_point = None
        tol = overrides.get(c.klass, c.tolerance)
        rows.append(
            {
                "id": c.id,
                "identity": c.identity,
                "class": c.klass,
                "tolerance": tol,
                "max_residual": float(res.max()),
                "mean_residual": float(res.mean()),
                "worst_point": worst_point,
                "pass": bool(res.max() <= tol),
            }
        )

    wall = time.perf_counter() - start
    return {
        "meta": {
            "tool": "finslerlab",
            "version": _version(),
            "metric": metric.name,
            "family": metric.family,
            "n": metric.n,
            "points": points,
            "seed": seed,
            "threads": threads,
            "chunk": CHUNK_SIZE,
            "checks_selected": [c.id for c in selected],
            "wall_time_s": wall,
        },
        "checks": rows,
        "pass": all(r["pass"] for r in rows),
    }


def _tolerance_overrides(tolerance, tol_profile) -> dict:
    """The {class: tolerance} that replaces the pinned tolerances: every class
    at `tolerance` when it is given, else the classes of `tol_profile`.  A
    profile that is not an object, an unknown class, or a value that is not a
    finite number >= 0 is a ConfigError."""
    if tol_profile is not None and not isinstance(tol_profile, dict):
        raise ConfigError(f"tolerance profile must be a JSON object {{class: tolerance}}, got {tol_profile!r}")
    named = {} if tolerance is None else {"tolerance override": tolerance}
    for klass, value in (tol_profile or {}).items():
        if klass not in TOLERANCE_CLASSES:
            known = ", ".join(TOLERANCE_CLASSES)
            raise ConfigError(f"tolerance profile names unknown class {klass!r}; classes: {known}")
        named[f"tolerance profile class {klass!r}"] = value
    for what, value in named.items():
        # int/float comparisons are exact: NaN, inf and integers beyond the float range fail
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= sys.float_info.max:
            raise ConfigError(f"{what} must be a finite number >= 0, got {value!r}")
    if tolerance is not None:
        return dict.fromkeys(TOLERANCE_CLASSES, float(tolerance))
    return {k: float(v) for k, v in (tol_profile or {}).items()}


def _version() -> str:
    from . import __version__

    return __version__
