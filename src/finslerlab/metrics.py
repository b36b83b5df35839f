"""Finsler metric catalog: families, sampling, config loading, load-time probes.

A metric is a positive, positively 1-homogeneous-in-y scalar field F on the
slit chart.  Coefficient data for the riemannian / randers families may be
constant or polynomial in x (degree <= 3), so exact jets are always available.
The catalog families share one evaluator, `CatalogEvaluator`: called, it
walks the coefficients on float arrays or jets and takes `sqrt` of the
quadratic form.  A catalog metric's L = F^2 has one definition, from the
rows of the polynomials of the quadratic form q and the drift beta
(`_poly_rows`, which `Poly.jet` runs): L = q itself when there is no drift,
(sqrt(q) + beta)^2 with one.  The checks read everything derived from F, the fundamental
tensor g and the homogeneity identities included, off `spray.Workspace`,
whose L is the jet `CatalogEvaluator.squared_jet`.  The geodesic
integrator's `spray.spray_values` builds its own g values from
`CatalogEvaluator.squared_rows` at the stacked points z = (x, y): L with its
gradient and the y rows of its Hessian, from one pass over q and beta with
no jet arithmetic, the bits of those rows of the order-2 jet.  Any other
metric's Workspace evaluates F by calling its evaluator on seed jets, and
its integrator reads the jet of `Workspace.L`.  The rows multiply in one
reduce and add in one running sum (np.add.accumulate): np.add.reduce sums
pairwise from 8 terms, so a one-point call would lose the bits of its row
in a batch.  `coefficient_jet` reads a(x) or b(x)
at a batch of x as one array jet from `Poly.jet`, exact derivatives that no
Workspace enters.
Values of F alone have one route, `FinslerMetric.F`: one evaluator call on
the columns of a batch of points, where `sqrt` reads NaN outside the
domain.  The load probe, the integrator's F and the F^2 of the
finite-difference cross-check read it.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateMetricError, SingularEvaluationError
from .jets import Jet, Number, left_sum, sqrt

_HOMOGENEITY_LAMBDAS = (0.5, 2.0, 3.7)


class MonomialCache:
    """Shared monomial values for evaluating many polynomials at once.

    Polynomials over the same scalars (floats, float arrays or jets) share
    every power product, which matters when the scalars are jets: each
    multiply carries full derivative tensors.  The constant monomial is 1.0
    and a degree-1 monomial is the scalar itself.
    """

    def __init__(self, xs):
        self.xs = list(xs)
        self.values = {(0,) * len(self.xs): 1.0}

    def monomial(self, powers):
        got = self.values.get(powers)
        if got is None:
            i, prev = _monomial_step(powers)
            got = self.xs[i] if prev is None else self.monomial(prev) * self.xs[i]
            self.values[powers] = got
        return got


@lru_cache(maxsize=None)
def _monomial_step(powers: tuple) -> tuple:
    """(i, prev) with x^powers = x^prev * x_i for the first variable i in
    the monomial; prev is None for a degree-1 monomial."""
    i = next(k for k, p in enumerate(powers) if p > 0)
    prev = tuple(p - 1 if k == i else p for k, p in enumerate(powers))
    return i, (prev if any(prev) else None)


def _scaled(c, v):
    """c * v, where a unit number c returns v itself."""
    return v if isinstance(c, float) and c == 1.0 else c * v


@dataclass(frozen=True)
class Poly:
    """Polynomial in n variables: sum of coef * prod x_i^powers_i."""

    n: int
    terms: tuple  # ((coef, powers), ...)
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # order -> _RowsPlan

    def __call__(self, x, cache: MonomialCache | None = None):
        """The polynomial at x: n floats, float arrays or jets alike."""
        cache = MonomialCache(x) if cache is None else cache
        return left_sum(_scaled(coef, cache.monomial(powers)) for coef, powers in self.terms if coef != 0.0)

    def degree(self) -> int:
        return max((sum(p) for _, p in self.terms), default=0)

    def jet(self, z, order: int) -> Jet:
        """The order-`order` jet of the polynomial at the points z (B, n),
        its n variables the seeds: every packed row, written from the terms
        by `_poly_rows` with no jet product."""
        plan = self._plans.get(order)
        if plan is None:
            rows = [alpha for r in range(order + 1) for alpha in combinations_with_replacement(range(self.n), r)]
            plan = self._plans[order] = _rows_plan(self.n, [(self, alpha) for alpha in rows])
        return Jet(self.n, order, _poly_rows(plan, z))


def _taylor_factor(powers: tuple, alpha: tuple) -> int:
    """d^alpha z^powers = _taylor_factor(powers, alpha) z^(powers - alpha):
    the product of the falling factorials p!/(p - a)! (0 where a > p)."""
    return math.prod(math.perm(p, a) for p, a in zip(powers, alpha))


class _RowsPlan(NamedTuple):
    """What `_poly_rows` evaluates: rows of derivatives of polynomials."""

    variables: slice | np.ndarray  # the variables that occur in some monomial
    top: int  # highest power of one variable, at least 1
    picks: np.ndarray  # (monomials, V): row k V + i (z_i^k) of the flat powers table, per z^(powers - alpha), 1 first
    slots: np.ndarray  # (K, rows): the monomial of term slot k of each row
    coefs: np.ndarray  # (K, rows, 1): its coefficient; a signed zero past the row's terms


def _rows_plan(n: int, rows) -> _RowsPlan:
    """The plan of the rows d^alpha poly for the (poly, alpha) pairs `rows`,
    polynomials in the same n variables and alpha a tuple of variable
    indices, one per derivative, in any order.  A row holds the terms coef * _taylor_factor(powers, alpha) *
    z^(powers - alpha) with a nonzero factor, in slots 0, 1, ... in the order
    of `poly.terms`.  Every slot past them reads the monomial 1 with
    coefficient -0.0, which adds nothing to any sum, and a row without terms
    reads +0.0 in slot 0: so each row gets the bits of its own terms, whatever
    other rows share the plan."""
    per_row = []
    for poly, alpha in rows:
        counts = tuple(alpha.count(i) for i in range(n))
        row = []
        for coef, powers in poly.terms:
            factor = _taylor_factor(powers, counts) if coef != 0.0 else 0
            if factor:
                row.append((coef * factor, tuple(p - a for p, a in zip(powers, counts))))
        per_row.append(row)
    monomials = sorted({e for row in per_row for _, e in row} | {(0,) * n})  # the monomial 1 is number 0
    used = [i for i in range(n) if any(e[i] for e in monomials)] or [0]
    where = {e: k for k, e in enumerate(monomials)}
    K = max(1, max(len(row) for row in per_row))
    slots = np.zeros((K, len(rows)), dtype=np.intp)
    coefs = np.full((K, len(rows), 1), -0.0)
    coefs[0] = 0.0
    for r, row in enumerate(per_row):
        for k, (coef, e) in enumerate(row):
            slots[k, r], coefs[k, r] = where[e], coef
    picks = np.array([[e[i] * len(used) + k for k, i in enumerate(used)] for e in monomials], dtype=np.intp)
    variables = slice(None) if len(used) == n else np.array(used)
    return _RowsPlan(variables, max(1, *map(max, monomials)), picks, slots, coefs)


def _poly_rows(plan: _RowsPlan, z) -> np.ndarray:
    """The (rows, B) values of the plan's rows at the points z (B, n), in
    one pass: one table of powers of single variables, their product per
    monomial in one np.multiply.reduce (left to right), then every row adds
    its terms in one running sum over slots (np.add.accumulate: np.add.reduce
    would sum pairwise from 8 terms).  All arithmetic is elementwise, so
    each point gets the same bits in any batch."""
    zt = np.asarray(z, dtype=float).T[plan.variables]
    powers = np.empty((plan.top + 1,) + zt.shape)  # powers[k, i] = z_i^k
    powers[0] = 1.0
    powers[1] = zt
    for k in range(2, plan.top + 1):
        np.multiply(powers[k - 1], zt, out=powers[k])
    monomials = np.multiply.reduce(powers.reshape(-1, zt.shape[1]).take(plan.picks, axis=0), axis=1)
    terms = monomials.take(plan.slots, axis=0)
    terms *= plan.coefs
    return np.add.accumulate(terms, axis=0, out=terms)[-1]


def _eval_coef(c, x, cache: MonomialCache | None = None):
    return c(x, cache) if isinstance(c, Poly) else c


def coefficient_jet(c, x, order: int) -> Jet:
    """The coefficient vector or matrix c (such as `params["b"]`, `["a"]`)
    at the points x (B, n) as one array jet of order `order` in the n
    variables x: each Poly entry has the rows of `Poly.jet`, a number is constant."""
    entries = np.array(c, dtype=object)
    B, n = np.shape(x)
    buf = np.zeros((math.comb(n + order, order), B, entries.size))
    for k, e in enumerate(entries.flat):
        if isinstance(e, Poly):
            buf[:, :, k] = e.jet(x, order).buf
        else:
            buf[0, :, k] = e
    return Jet(n, order, buf.reshape(buf.shape[:2] + entries.shape))


def _quadratic_terms(a, n: int) -> tuple:
    """Nonzero terms of a_ij y^i y^j over i <= j as (weight, a_ij, i, j);
    the off-diagonal weight 2 is folded into constant entries."""
    terms = []
    for i in range(n):
        for j in range(i, n):
            w, c = (1.0 if i == j else 2.0), a[i][j]
            if isinstance(c, Poly):
                terms.append((w, c, i, j))
            elif c != 0.0:
                terms.append((1.0, w * c, i, j))
    return tuple(terms)


def _quadratic_form(terms: tuple, x, y, cache: MonomialCache):
    """a_ij(x) y^i y^j from `_quadratic_terms`, each term (w a_ij y^i) y^j."""
    return left_sum(_scaled(_scaled(w, _eval_coef(c, x, cache)), y[i]) * y[j] for w, c, i, j in terms)


def _chart_poly(n: int, entries) -> Poly:
    """The sum of w c(x) y^slots over the (w, c, slots) entries, c a number
    or a Poly in x, as one polynomial in the 2n chart variables (x, y)."""
    terms = []
    for w, c, slots in entries:
        y_powers = tuple(slots.count(i) for i in range(n))
        for coef, powers in c.terms if isinstance(c, Poly) else ((c, (0,) * n),):
            terms.append((w * coef, powers + y_powers))
    return Poly(2 * n, tuple(terms))


class CatalogEvaluator:
    """F = sqrt(a_ij(x) y^i y^j) + b_i(x) y^i of the catalog families (no
    drift for euclidean and riemannian), from `_quadratic_terms` and the
    nonzero drift entries (b_i, i).

    Calling it walks the coefficients on float arrays or jets alike, sharing
    one `MonomialCache` and looking `sqrt` up in this module; every value of
    F takes this route, through `FinslerMetric.F`.  L = F^2 and its
    derivatives come from the polynomials q = a_ij(x) y^i y^j and beta =
    b_i(x) y^i in the 2n chart variables, with no sqrt without a drift:
    `squared_jet` gives the Workspace the whole jet of L, and `squared_rows`
    gives the integrator's spray the rows of it that it reads, at the value
    level in one pass with no jet arithmetic.
    """

    def __init__(self, n: int, quad: tuple, drift: tuple = ()):
        self.n = n
        self.quad, self.drift = quad, drift
        self.q = _chart_poly(n, ((w, c, (i, j)) for w, c, i, j in quad))
        self.beta = _chart_poly(n, ((1.0, c, (i,)) for c, i in drift)) if drift else None

    def __call__(self, x, y):
        cache = MonomialCache(x)
        F = sqrt(_quadratic_form(self.quad, x, y, cache))
        if not self.drift:
            return F
        return F + left_sum(_scaled(_eval_coef(c, x, cache), y[i]) for c, i in self.drift)

    @cached_property
    def _plan(self) -> _RowsPlan:
        """The rows `squared_rows` reads, of q and then of beta: the value, the
        2n gradient rows, and the n x 2n second derivatives d2/dy^i dz^c."""
        n, m = self.n, 2 * self.n
        alphas = [()] + [(a,) for a in range(m)] + [(n + i, c) for i in range(n) for c in range(m)]
        polys = (self.q,) if self.beta is None else (self.q, self.beta)
        return _rows_plan(m, [(p, alpha) for p in polys for alpha in alphas])

    def squared_rows(self, z: np.ndarray) -> tuple:
        """L = F^2 at the stacked chart points z = (x, y) (B, 2n) and the
        derivatives of it that the spray reads: (L (B,), dL/dz^a (B, 2n),
        d2L/dy^i dz^c (B, n, 2n)).

        Without a drift L is q itself.  With one, alpha = sqrt(q), F = alpha
        + beta, F_a = q_a / (2 alpha) + beta_a, F_ia = q_ia / (2 alpha) - q_i q_a
        / (4 alpha^3) + beta_ia, L_a = 2 F F_a and L_ia = 2 (F F_ia + F_i F_a),
        each rounded as the jets' sqrt and product round it and summed in
        the order above, the gradient and Hessian rows as one stack.  L is
        NaN where q <= 0, since F is not smooth there.  Numpy may warn
        outside the domain; the caller decides.
        """
        n, m = self.n, 2 * self.n
        rows = _poly_rows(self._plan, z)
        R = 1 + m + n * m
        L, Lr = rows[0], rows[1:R]  # Lr: the m gradient rows, then the n m Hessian rows
        if self.beta is not None:
            q, d1, d2 = L, 0.5 * L**-0.5, -0.25 * L**-1.5
            F = np.sqrt(q) + rows[R]
            Fr = d1 * Lr
            Fr[m:] += (Lr[n:m, None] * Lr[:m] * d2).reshape(n * m, -1)
            Fr += rows[R + 1 :]
            P = (Fr[n:m, None] * Fr[:m]).reshape(n * m, -1)
            L, Lr = np.where(q > 0.0, F * F, np.nan), F * Fr
            Lr += Lr
            Lr[m:] += P
            Lr[m:] += P
        return L, Lr[:m].T, Lr[m:].reshape(n, m, -1).transpose(2, 0, 1)

    def squared_jet(self, x: np.ndarray, y: np.ndarray, order: int) -> Jet:
        """The order-`order` jet of L = F^2 at the points (x, y) (B, n) over
        the chart variables z = (x, y), from the rows of `Poly.jet`: q itself
        without a drift, else (sqrt(q) + beta)^2 in jet arithmetic.  Its
        value, gradient and y rows of the Hessian have the bits of
        `squared_rows`.  Where q <= 0 it is no F^2: its value is not finite
        and positive, or the rows of sqrt(q) are not finite; `Workspace.L`
        guards it."""
        z = np.concatenate([x, y], axis=1)
        q = self.q.jet(z, order)
        if self.beta is None:
            return q
        F = sqrt(q) + self.beta.jet(z, order)
        return F * F


@dataclass(frozen=True)
class FinslerMetric:
    """A Finsler function with declared dimension and chart domain.

    Immutable and shareable across threads; evaluation is pure.  `evaluate`
    runs on float arrays and jets alike.
    """

    n: int
    family: str
    evaluate: Callable = field(repr=False)
    x_box: np.ndarray = field(default=None)
    params: dict = field(default_factory=dict, repr=False)
    name: str = "metric"

    def __post_init__(self):
        box = self.x_box
        if box is None:
            box = np.array([[-1.0, 1.0]] * self.n)
        object.__setattr__(self, "x_box", np.asarray(box, dtype=float))

    def F(self, x, y):
        """F at one point, x and y (n,), or at a batch (B, n): one evaluator
        call on their columns, NaN where F cannot be evaluated."""
        return self.evaluate(list(np.asarray(x, float).T), list(np.asarray(y, float).T))

    def in_box(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        return np.all((x >= self.x_box[:, 0]) & (x <= self.x_box[:, 1]), axis=1)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def euclidean(n: int, name: str = "euclidean") -> "FinslerMetric":
        ev = CatalogEvaluator(n, _quadratic_terms(np.eye(n).tolist(), n))
        return FinslerMetric(n, "euclidean", ev, name=name)

    @staticmethod
    def riemannian(n: int, a, x_box=None, name: str = "riemannian") -> "FinslerMetric":
        a = _check_coef_matrix(a, n)
        ev = CatalogEvaluator(n, _quadratic_terms(a, n))
        return FinslerMetric(n, "riemannian", ev, x_box, {"a": a}, name)

    @staticmethod
    def randers(n: int, a, b, x_box=None, name: str = "randers") -> "FinslerMetric":
        a = _check_coef_matrix(a, n)
        b = _check_coef_vector(b, n)
        drift = tuple((c, i) for i, c in enumerate(b) if isinstance(c, Poly) or c != 0.0)
        ev = CatalogEvaluator(n, _quadratic_terms(a, n), drift)
        return FinslerMetric(n, "randers", ev, x_box, {"a": a, "b": b}, name)

    @staticmethod
    def custom(n: int, evaluator: Callable, x_box=None, name: str = "custom") -> "FinslerMetric":
        """User-supplied evaluator; smoothness on the slit chart is taken on
        trust (probes only warn)."""
        return FinslerMetric(n, "custom", evaluator, x_box, name=name)


def _check_coef(c, n: int, where: str):
    """A coefficient entry as the loader reads it: a finite number, as a
    float, or a Poly in the n chart variables (its n and every term's powers
    of length n) of degree 0..3 with finite coefs."""
    if not isinstance(c, Poly):
        return _finite_number(c, where)
    for coef, _ in c.terms:
        _finite_number(coef, f"coef of a term in {where}")
    if c.n != n or any(len(powers) != n for _, powers in c.terms):
        raise ConfigError(f"polynomial in {where} must be in the {n} chart variables")
    if c.degree() > 3:
        raise ConfigError(f"polynomial in {where} must have degree 0..3")
    return c


def _check_coef_matrix(a, n):
    a = [list(row) for row in a]
    if len(a) != n or any(len(row) != n for row in a):
        raise ConfigError(f"coefficient matrix must be {n}x{n}")
    a = [[_check_coef(c, n, f"a[{i}][{j}]") for j, c in enumerate(row)] for i, row in enumerate(a)]
    for i in range(n):
        for j in range(i):
            same = a[i][j] == a[j][i] if not isinstance(a[i][j], Poly) else a[i][j].terms == a[j][i].terms
            if not same:
                raise ConfigError("coefficient matrix must be symmetric")
    return tuple(tuple(row) for row in a)


def _check_coef_vector(b, n):
    b = list(b)
    if len(b) != n:
        raise ConfigError(f"coefficient vector must have length {n}")
    return tuple(_check_coef(c, n, f"b[{i}]") for i, c in enumerate(b))


# -- sampling ---------------------------------------------------------------


def sample_points(M: FinslerMetric, count: int, seed: int):
    """Deterministic sample of chart points: x uniform in the domain box,
    y = (uniform radius in [0.5, 2]) x (uniform direction).

    Draw order is fixed (x block, then directions, then radii) so the sample
    depends only on (n, count, seed).
    """
    rng = np.random.default_rng(seed)
    lo, hi = M.x_box[:, 0], M.x_box[:, 1]
    x = rng.uniform(size=(count, M.n)) * (hi - lo) + lo
    direction = rng.normal(size=(count, M.n))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = rng.uniform(0.5, 2.0, size=count)
    return x, direction * radius[:, None]


# -- configuration ----------------------------------------------------------

_TOP_FIELDS = {"family", "n", "a", "b", "domain", "name"}


def _finite_number(value, where: str) -> float:
    """A config value that must be a finite JSON or numpy number (not a
    string, null, true, NaN or Infinity), as a float."""
    if isinstance(value, bool) or not isinstance(value, Number) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, not {value!r}")
    return float(value)


def _parse_poly(entry, n, where):
    if isinstance(entry, (int, float)):  # true and false too, which are not numbers
        return _finite_number(entry, where)
    if isinstance(entry, dict) and set(entry) == {"poly"} and isinstance(entry["poly"], list):
        terms = []
        for t in entry["poly"]:
            if not isinstance(t, dict) or set(t) != {"coef", "powers"}:
                raise ConfigError(f"bad polynomial term in {where}: {t}")
            powers = t["powers"]
            if not (isinstance(powers, list) and len(powers) == n
                    and all(isinstance(p, int) and not isinstance(p, bool) and p >= 0 for p in powers)):
                raise ConfigError(f"powers of a term in {where} must be {n} non-negative integers, not {powers!r}")
            if sum(powers) > 3:
                raise ConfigError(f"polynomial in {where} must have degree 0..3")
            terms.append((_finite_number(t["coef"], f"coef of a term in {where}"), tuple(powers)))
        return Poly(n, tuple(terms))
    raise ConfigError(f"entry in {where} must be a number or {{'poly': [...]}}")


def load_metric(config) -> FinslerMetric:
    """Build a metric from a config document (dict, JSON string, or path).

    Unknown fields are rejected.  After construction, 1-homogeneity and
    positive-definiteness are probed at 8 seeded points; failures are
    reported as warnings naming the offending point.  A randers metric with
    |b|_a >= 1 (indicatrix convexity violated) is rejected outright.
    """
    if isinstance(config, str):
        text = config
        if not config.lstrip().startswith("{"):
            try:
                with open(config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read metric config {config}: {exc.strerror}") from exc
        try:
            config = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - _TOP_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    family = config.get("family")
    if family not in ("euclidean", "riemannian", "randers"):
        raise ConfigError(
            f"unknown family {family!r}; config supports euclidean, riemannian, "
            "randers (custom metrics are constructed programmatically)"
        )
    n = config.get("n")
    if isinstance(n, bool) or not isinstance(n, int):  # 2.7, "2" and true are not JSON integers
        raise ConfigError(f"config field 'n' must be a positive integer, not {n!r}")
    if n < 2:
        raise ConfigError("dimension n must be >= 2")
    name = config.get("name", family)

    x_box = None
    if "domain" in config:
        dom = config["domain"]
        if not isinstance(dom, dict) or set(dom) - {"x"}:
            raise ConfigError("domain must be {'x': [[lo, hi], ...]}")
        rows = dom["x"]
        if isinstance(rows, list) and len(rows) == n and all(isinstance(r, list) and len(r) == 2 for r in rows):
            x_box = np.array([[_finite_number(v, f"domain.x[{i}][{k}]") for k, v in enumerate(r)]
                              for i, r in enumerate(rows)])
        if x_box is None or np.any(x_box[:, 0] >= x_box[:, 1]):
            raise ConfigError("domain.x must be n rows of [lo, hi] with lo < hi")

    if family == "euclidean":
        if "a" in config or "b" in config:
            raise ConfigError("euclidean takes no coefficient fields")
        M = FinslerMetric.euclidean(n, name=name)
        M = FinslerMetric(n, "euclidean", M.evaluate, x_box, name=name)
    else:
        if "a" not in config:
            raise ConfigError(f"family {family} requires field 'a'")
        a_rows = config["a"]
        if not isinstance(a_rows, list) or len(a_rows) != n:
            raise ConfigError(f"'a' must be an {n}x{n} array")
        a = [[_parse_poly(e, n, f"a[{i}][{j}]") for j, e in enumerate(row)] for i, row in enumerate(a_rows)]
        if family == "riemannian":
            if "b" in config:
                raise ConfigError("riemannian takes no field 'b'")
            M = FinslerMetric.riemannian(n, a, x_box, name=name)
        else:
            if "b" not in config:
                raise ConfigError("randers requires field 'b'")
            b_row = config["b"]
            if not isinstance(b_row, list) or len(b_row) != n:
                raise ConfigError(f"'b' must have length {n}")
            b = [_parse_poly(e, n, f"b[{i}]") for i, e in enumerate(b_row)]
            M = FinslerMetric.randers(n, a, b, x_box, name=name)
            _check_randers_validity(M)

    _probe_metric(M)
    return M


def _check_randers_validity(M: FinslerMetric):
    """Reject an a that is not positive definite, then |b|_a >= 1, anywhere
    on the probe set, naming the first such probe: g loses positive
    definiteness and the indicatrix stops being convex."""
    rng = np.random.default_rng(2024)
    lo, hi = M.x_box[:, 0], M.x_box[:, 1]
    xs = rng.uniform(size=(16, M.n)) * (hi - lo) + lo
    a = coefficient_jet(M.params["a"], xs, 0).value
    b = coefficient_jet(M.params["b"], xs, 0).value
    lowest = np.linalg.eigvalsh(a)[:, 0]
    if not lowest.min() > 0.0:
        k = int(np.argmax(~(lowest > 0.0)))
        raise ConfigError(f"randers coefficient matrix a is not positive definite at x={xs[k].tolist()} "
                          f"(lowest eigenvalue {lowest[k]:.3e})")
    norm2 = np.einsum("bi,bi->b", b, np.linalg.solve(a, b[:, :, None])[:, :, 0])
    if np.any(norm2 >= 1.0):
        k = int(np.argmax(norm2 >= 1.0))
        raise ConfigError(
            f"randers drift too large: |b|_a = {np.sqrt(norm2[k]):.4f} >= 1 at "
            f"x={xs[k].tolist()} (indicatrix convexity violated)"
        )


def _probe_metric(M: FinslerMetric, probes: int = 8, seed: int = 7):
    """Sanity probes after construction: warn (not fail) on violations.  F
    is one batched call at the probes, then one per homogeneity lambda."""
    x, y = sample_points(M, probes, seed)
    with np.errstate(all="ignore"):
        F = M.F(x, y)
    if not np.all(np.isfinite(F)):
        k = int(np.argmax(~np.isfinite(F)))
        warnings.warn(
            f"{M.name}: F cannot be evaluated at x={x[k].tolist()}, y={y[k].tolist()} (F = {F[k]})",
            stacklevel=2,
        )
        return
    try:
        for lam in _HOMOGENEITY_LAMBDAS:
            rel = np.abs(M.F(x, lam * y) - lam * F) / np.abs(lam * F)
            if np.any(rel > 1e-10):
                k = int(np.argmax(rel))
                warnings.warn(
                    f"{M.name}: F not 1-homogeneous at x={x[k].tolist()}, "
                    f"y={y[k].tolist()} (lambda={lam}, rel={rel[k]:.2e})",
                    stacklevel=2,
                )
                break
        if np.any(F <= 0):
            k = int(np.argmax(F <= 0))
            warnings.warn(f"{M.name}: F <= 0 at x={x[k].tolist()}, y={y[k].tolist()}", stacklevel=2)
        from .spray import Workspace  # spray imports this module

        Workspace(M, x, y, order=2).ginv_val  # the guard of every inverse of g names the first bad point
    except (DegenerateMetricError, SingularEvaluationError) as exc:
        warnings.warn(f"{M.name}: degenerate at probe point: {exc}", stacklevel=2)
