"""Shared fixtures-in-plain-functions for the test suite."""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

from finslerlab import spray as sp
from finslerlab.charts import ChartMap
from finslerlab.jets import _GATHER_LIMIT, Jet, _compose_table, _mul_table, _raise_table, fd_oracle, left_sum, sqrt
from finslerlab.metrics import FinslerMetric, Poly, load_metric, sample_points

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

CATALOG_NAMES = ("euclidean4", "riemann2", "riemann3", "randers2", "randers3")


def readme_python_block(heading: str) -> str:
    """The first ```python block under `## heading` in README.md."""
    text = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("\n```", start) + 1]


def load_catalog_metric(name: str) -> FinslerMetric:
    return load_metric(str(CONFIG_DIR / f"{name}.json"))


def identity_map(n: int) -> ChartMap:
    """The identity as a chart map: the two-chart machinery's self-test, on
    which every chart residual vanishes by construction (so the catalog
    does not hold it)."""
    return ChartMap(n, "identity", list, list)  # list(xs): the same scalars, in a new list


def randers2() -> FinslerMetric:
    """x-dependent Randers metric on n = 2, the standard hard case."""
    a = [
        [Poly(2, ((1.0, (0, 0)), (0.3, (0, 2)))), 0.0],
        [0.0, Poly(2, ((1.0, (0, 0)), (0.3, (2, 0))))],
    ]
    return FinslerMetric.randers(2, a, [0.2, 0.1], name="randers2-test")


def randers3() -> FinslerMetric:
    a = [
        [Poly(3, ((1.0, (0, 0, 0)), (0.1, (0, 2, 0)))), 0.0, 0.0],
        [0.0, Poly(3, ((1.0, (0, 0, 0)), (0.1, (0, 0, 2)))), 0.0],
        [0.0, 0.0, Poly(3, ((1.0, (0, 0, 0)), (0.1, (2, 0, 0))))],
    ]
    b = [
        Poly(3, ((0.15, (0, 0, 0)), (0.1, (0, 1, 0)))),
        Poly(3, ((0.1, (0, 0, 1)),)),
        Poly(3, ((0.05, (1, 0, 0)),)),
    ]
    return FinslerMetric.randers(3, a, b, name="randers3-test")


def riemann2() -> FinslerMetric:
    a = [
        [Poly(2, ((1.0, (0, 0)), (0.25, (2, 0)))), Poly(2, ((0.1, (1, 1)),))],
        [Poly(2, ((0.1, (1, 1)),)), Poly(2, ((1.0, (0, 0)), (0.25, (0, 2))))],
    ]
    return FinslerMetric.riemannian(2, a, name="riemann2-test")


def funk(n: int) -> FinslerMetric:
    """The Funk metric of the unit ball, F = (s + <x, y>) / (1 - |x|^2) with
    s = sqrt((1 - |x|^2) |y|^2 + <x, y>^2), on [-0.4, 0.4]^n: projectively
    flat, so RK4 follows its geodesics to roundoff."""

    def evaluate(xs, ys):
        xy = left_sum(a * b for a, b in zip(xs, ys))
        w = 1.0 - left_sum(a * a for a in xs)
        return (sqrt(w * left_sum(b * b for b in ys) + xy * xy) + xy) / w

    return FinslerMetric.custom(n, evaluate, x_box=[[-0.4, 0.4]] * n, name=f"funk{n}")


def riemann2_amatrix(x: np.ndarray) -> np.ndarray:
    """Closed form of the riemann2 coefficient matrix (for oracles)."""
    return np.array(
        [
            [1.0 + 0.25 * x[0] ** 2, 0.1 * x[0] * x[1]],
            [0.1 * x[0] * x[1], 1.0 + 0.25 * x[1] ** 2],
        ]
    )


def christoffel_spray_oracle(amatrix, x: np.ndarray, y: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Spray coefficients from central differences of a quadratic-form field:
    G^i = (1/2) gamma^i_jk y^j y^k with finite-difference Christoffel symbols."""
    n = x.shape[0]
    da = np.zeros((n, n, n))  # da[l, j, k] = d a_lj / d x^k
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        da[:, :, k] = (amatrix(x + e) - amatrix(x - e)) / (2 * h)
    ainv = np.linalg.inv(amatrix(x))
    gamma = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = 0.0
                for l in range(n):
                    s += ainv[i, l] * (da[l, j, k] + da[l, k, j] - da[j, k, l])
                gamma[i, j, k] = 0.5 * s
    return 0.5 * np.einsum("ijk,j,k->i", gamma, y, y)


def stack(jets) -> Jet:
    """Jets of one order and shape as one jet with a new leading component axis."""
    return Jet(jets[0].m, jets[0].order, np.stack([j.buf for j in jets], axis=2))


# -- oracle for the spray solve: the jet Gauss-Jordan it replaced ---------------------


def jet_matrix_inverse(a: Jet) -> Jet:
    """Gauss-Jordan inverse of an (n, n) jet with diagonal pivots, on its
    rows, each an (n,) jet (stable for positive-definite values)."""
    n = a.shape[-1]
    work = list(a)
    inv = list(Jet.constant(np.broadcast_to(np.eye(n), a.value.shape), a.m, a.order))
    for k in range(n):
        ipiv = 1.0 / work[k][k]
        work[k], inv[k] = work[k] * ipiv, inv[k] * ipiv
        for i in range(n):
            if i != k:
                f = work[i][k]
                work[i], inv[i] = work[i] - f * work[k], inv[i] - f * inv[k]
    return stack(inv)


def gauss_jordan_spray(ws) -> Jet:
    """G^i = (1/4) g^{ik} A_k of a Workspace, with g^{ik} the jet inverse of
    g by `jet_matrix_inverse` and A_k = d2F2/dy^k dx^h y^h - dF2/dx^k."""
    dLy = ws.L.deriv(ws.yvars)
    A = left_sum(ws.yj[h] * dLy.deriv(h) for h in range(ws.n)) - ws.L.deriv(ws.xvars)
    ginv = jet_matrix_inverse(ws.g)
    return 0.25 * left_sum(ginv[:, k] * A[k] for k in range(ws.n))


def split_spray_values(M: FinslerMetric, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """G^i values at the points (x, y) (B, n) as `spray.spray_values` gave
    them on separate x and y arrays, each sum over h and k a `left_sum` of
    Python terms, the guards as there."""
    x = np.atleast_2d(np.asarray(x, float))
    y = np.atleast_2d(np.asarray(y, float))
    n = x.shape[1]
    squared_rows = getattr(M.evaluate, "squared_rows", None)
    if squared_rows is not None:
        with sp._silenced():
            L, dL, Hy = squared_rows(np.concatenate([x, y], axis=1))
        sp._check_F2(L, x, y)
    else:
        L = sp.Workspace(M, x, y, order=2).L
        dL, Hy = L.coeffs[1], L.tensor(2)[:, n:]
    g = 0.5 * Hy[:, :, n:]
    lowest = np.linalg.eigvalsh(g)[:, 0]
    if not lowest.min() > 0.0:
        k = int(np.argmax(~(lowest > 0.0)))
        raise sp._degenerate(f"not positive definite (lowest eigenvalue {lowest[k]:.3e})", x[k], y[k])
    yH = y[:, None, :] * Hy[:, :, :n]
    A = left_sum(yH[..., h] for h in range(n))
    terms = np.linalg.inv(g) * (A - dL[:, :n])[:, None, :]
    return 0.25 * left_sum(terms[..., k] for k in range(n))


# -- oracles for the straight-line catalog evaluators --------------------------------


class WalkingMonomials:
    """Monomial cache that builds every monomial from the constant 1.0."""

    def __init__(self, xs):
        self.xs = list(xs)
        self.values = {(0,) * len(self.xs): 1.0}

    def monomial(self, powers):
        got = self.values.get(powers)
        if got is not None:
            return got
        i = next(k for k, p in enumerate(powers) if p > 0)
        prev = tuple(p - 1 if k == i else p for k, p in enumerate(powers))
        val = self.monomial(prev) * self.xs[i]
        self.values[powers] = val
        return val


def _walk_coef(c, cache: WalkingMonomials):
    if not isinstance(c, Poly):
        return c
    total = 0.0
    for coef, powers in c.terms:
        total = total + coef * cache.monomial(powers)
    return total


def walking_evaluator(M: FinslerMetric):
    """F of a catalog metric evaluated by walking every entry of a and b,
    zero and unit factors included, each sum seeded with 0.0."""
    n, a, b = M.n, M.params.get("a"), M.params.get("b")

    def ev(x, y):
        if a is None:
            q = y[0] * y[0]
            for i in range(1, n):
                q = q + y[i] * y[i]
            return sqrt(q)
        cache = WalkingMonomials(x)
        q = 0.0
        for i in range(n):
            for j in range(i, n):
                w = 1.0 if i == j else 2.0
                q = q + w * _walk_coef(a[i][j], cache) * y[i] * y[j]
        if b is None:
            return sqrt(q)
        lin = 0.0
        for i in range(n):
            lin = lin + _walk_coef(b[i], cache) * y[i]
        return sqrt(q) + lin

    return ev


# -- oracles for the flat jet buffer: the per-rank kernels it replaced --------------


def jet_from_coeffs(m: int, order: int, coeffs) -> Jet:
    """A jet from per-rank blocks: the value (B,) and rank r as (B, K_r)."""
    return Jet(m, order, np.concatenate([coeffs[0][None]] + [c.T for c in coeffs[1:]]))


def _products(factors):
    """The products of one term group, in order, gathered in chunks of at
    most _GATHER_LIMIT elements (at least one term)."""
    (first, first_cols), *rest = factors
    terms, K = first_cols.shape
    step = max(1, _GATHER_LIMIT // (K * first.shape[1]))
    for p in range(0, terms, step):
        prod = first[first_cols[p : p + step]]
        for block, cols in rest:
            prod *= block[cols[p : p + step]]
        yield from prod


def per_rank_mul(a: Jet, b: Jet) -> Jet:
    """Leibniz product one rank and one term group at a time."""
    order, m = min(a.order, b.order), a.m
    ac = [c.T for c in a.truncated(order).coeffs]
    bc = [c.T for c in b.truncated(order).coeffs]
    out = [ac[0] * bc[0]]
    for r in range(1, order + 1):
        t = ac[r] * bc[0] + ac[0] * bc[r]
        for swap, ((s, left), (_, right)) in _mul_table(m, r):
            g, h = (bc, ac) if swap else (ac, bc)
            for term in _products(((g[s], left), (h[r - s], right))):
                t += term
        out.append(t.T)
    return jet_from_coeffs(m, order, out)


def per_rank_compose(u: Jet, d) -> Jet:
    """Faa di Bruno chain rule one rank and one partition group at a time."""
    order, m = u.order, u.m
    uc = [c.T for c in u.coeffs]
    out = [np.asarray(d[0], dtype=float)]
    for r in range(1, order + 1):
        t = np.asarray(d[1]) * uc[r]
        for k, factors in _compose_table(m, r):
            dk = np.asarray(d[k])
            for term in _products([(uc[rank], cols) for rank, cols in factors]):
                term *= dk
                t += term
        out.append(t.T)
    return jet_from_coeffs(m, order, out)


def per_rank_deriv(a: Jet, index: int) -> Jet:
    """Derivative tower gathered one rank at a time."""
    c = a.coeffs
    coeffs = [c[1][:, index]] + [c[r + 1].T[_raise_table(a.m, r)[index]].T for r in range(1, a.order)]
    return jet_from_coeffs(a.m, a.order - 1, coeffs)


# -- oracle for the value-level bracket: the component-list engine it replaced --------


def _is_zero(c) -> bool:
    return not isinstance(c, Jet) and float(c) == 0.0


def component_bracket(X, Y, B: int) -> np.ndarray:
    """Values (B, 2n) of the Lie bracket of two fields given as lists of 2n
    components (scalar jets, or floats for constant components): per
    component, X^d d_d(Y^c) - Y^d d_d(X^c) over d in order, float components
    contributing no derivative terms and zero ones no terms at all."""
    out = []
    for c in range(len(X)):
        acc = None
        for d in range(len(X)):
            if not _is_zero(X[d]) and isinstance(Y[c], Jet):
                term = (X[d].truncated(0) if isinstance(X[d], Jet) else X[d]) * Y[c].truncated(1).deriv(d)
                acc = term if acc is None else acc + term
            if not _is_zero(Y[d]) and isinstance(X[c], Jet):
                term = (Y[d].truncated(0) if isinstance(Y[d], Jet) else Y[d]) * X[c].truncated(1).deriv(d)
                acc = acc - term if acc is not None else -term
        out.append(np.full(B, 0.0) if acc is None else acc.value)
    return np.stack(out, axis=1)


def component_fields(ws) -> dict:
    """The frame fields of a Workspace as lists of 2n components, built from
    its scalar entries the way the component-list engine built them."""
    n = ws.n
    N = [[ws.N[j, i] for i in range(n)] for j in range(n)]
    E = [list(ws.E[k]) for k in range(n)]
    yj = list(ws.yj)

    def horizontal(coef):
        comps = list(coef)
        for j in range(n):
            acc = coef[0] * N[j][0]
            for i in range(1, n):
                acc = acc + coef[i] * N[j][i]
            comps.append(-acc)
        return comps

    def unit(i):
        return [1.0 if k == i else 0.0 for k in range(2 * n)]

    fields = {f"dx{i}": unit(i)[:n] + [-N[j][i] for j in range(n)] for i in range(n)}
    fields.update({f"dy{i}": unit(n + i) for i in range(n)})
    fields["gamma"] = [0.0] * n + yj
    fields.update({f"bar{k}": [0.0] * n + E[k] for k in range(n)})
    fields["xi"] = horizontal(yj)
    fields.update({f"bar_delta{k}": horizontal(E[k]) for k in range(n)})
    return fields


# -- oracle for the kept-frame Vaisman solve: the full-index assembly it replaced ----------


def full_index_vaisman(ws) -> dict:
    """The Vaisman Gram, Koszul and mixed systems assembled over all n
    dependent bar fields, their kept entries then picked out per point:
    the kept Gram, s_bar and beta, and bar_a(G(bar_q, bar_c)) on kept
    triples."""
    B, n, kept = ws.B, ws.n, ws.kept_indices
    upper = np.triu_indices(n)
    mirror = np.zeros((n, n), dtype=np.intp)
    mirror[upper] = mirror[upper[::-1]] = np.arange(len(upper[0]))
    Ei, Ej, g = ws.E[upper[0]], ws.E[upper[1]], ws.g.truncated(1)
    gbar = left_sum(g[p, q] * Ei[:, p] * Ej[:, q] for p in range(n) for q in range(n))[mirror]
    DG = np.einsum("bal,bijl->baij", ws.E_val, gbar.deriv(ws.yvars).value)  # bar_a(gbar_ij)
    i, j = np.triu_indices(n, 1)
    gBR = np.zeros((B, n, n, n))  # G([bar_i, bar_j], bar_c)
    gBR[:, i, j] = ws.bar_bar_brackets[:, i, j, n:] @ ws.g_val @ ws.E_val.transpose(0, 2, 1)
    gBR[:, j, i] = -gBR[:, i, j]
    rhs = (DG + DG.transpose(0, 2, 1, 3) - DG.transpose(0, 2, 3, 1)
           + gBR - gBR.transpose(0, 1, 3, 2) - gBR.transpose(0, 3, 1, 2))
    point = np.arange(B)[:, None, None, None]
    triples = (point, kept[:, :, None, None], kept[:, None, :, None], kept[:, None, None, :])
    gram = gbar.value[np.arange(B)[:, None, None], kept[:, :, None], kept[:, None, :]]
    s_bar = 0.5 * np.linalg.solve(gram[:, None, None, :, :], rhs[triples][..., None])[..., 0]
    w = ws.project_off_gamma(ws.dx_bar_brackets)[..., n:]
    rows = (w.reshape(B, -1, n) @ ws.g_val @ ws.E_kept_val.transpose(0, 2, 1)).reshape(B, n, n, n - 1)
    rows = np.take_along_axis(rows, kept[:, None, :, None], axis=2)
    beta = np.linalg.solve(gram[:, None, None], rows[..., None])[..., 0]
    return {"gram_kept": gram, "s_bar": s_bar, "beta": beta, "bar_gram_dirs": DG[triples]}


# -- random sections, the oracle of the basicness checks' unit sections ------------------


def jet_poly_section(ws, rng: np.random.Generator, order: int = 2) -> Jet:
    """A random degree-2 polynomial in the chart variables summed term by
    term in scalar jet arithmetic: c_0 + c_1 z_0 first, then c_{1+l} z_l in
    turn, then (r z_i) z_j, from the draws uniform(size=1+d), integers(size=2)
    and uniform()."""
    scalars = list(ws.seed.truncated(order))
    c = rng.uniform(-1.0, 1.0, size=1 + len(scalars))
    acc = scalars[0] * float(c[1]) + float(c[0])
    for i in range(1, len(scalars)):
        acc = acc + float(c[1 + i]) * scalars[i]
    i, j = rng.integers(0, len(scalars), size=2)
    acc = acc + float(rng.uniform(-0.5, 0.5)) * scalars[int(i)] * scalars[int(j)]
    return acc


# -- oracle for the batched fd_cross check: one spot at a time ---------------------------


def per_spot_fd_cross(metric: FinslerMetric, seed: int, spots: int = 50) -> np.ndarray:
    """`numerics.fd_cross` computed spot by spot: a one-point order-4
    Workspace per spot, and a one-row `fd_oracle` call per spot, on F^2 from
    `M.F` at the spot's shifted copies, on one-point sprays or on order-3
    Workspaces."""
    rng = np.random.default_rng([seed, zlib.crc32(b"fd_cross")])
    n = metric.n
    x, y = sample_points(metric, spots, seed + 101)
    out = np.zeros(spots)

    def F2(charts):
        F = metric.F(charts[:, :n], charts[:, n:])
        return F * F

    def G(charts):
        return np.concatenate([sp.spray_values(metric, c[None]) for c in charts])

    def N(charts):
        return np.concatenate([sp.Workspace(metric, c[None, :n], c[None, n:], order=3).N_val for c in charts])

    for s in range(spots):
        chart = np.concatenate([x[s], y[s]])[None, :]
        kind = s % 5
        ws = sp.Workspace(metric, x[s][None, :], y[s][None, :], order=4)
        if kind in (0, 1, 2):
            idx = [int(k) for k in rng.integers(0, 2 * n, size=kind + 1)]
            fd = fd_oracle(F2, chart, [idx])[0]
            jet = ws.L
            for k in idx:
                jet = jet.deriv(k)
            ad = float(jet.value[0])
        elif kind == 3:
            j, i = (int(v) for v in rng.integers(0, n, size=2))
            fd = fd_oracle(G, chart, [[n + i]])[0, j]
            ad = float(ws.N_val[0, j, i])
        else:
            j, i = (int(v) for v in rng.integers(0, n, size=2))
            k = int(rng.integers(0, 2 * n))
            fd = fd_oracle(N, chart, [[k]])[0, j, i]
            ad = float(ws.N[j, i].deriv(k).value[0])
        scale = max(abs(fd), abs(ad), 1.0)
        out[s] = abs(ad - fd) / scale
    return out
