"""Forward-mode jets: truncated derivative towers on a chart.

A `Jet` carries the value and all partial derivatives of a scalar quantity up
to a truncation order (0..4), with respect to a fixed set of m active
variables, batched over a leading axis of evaluation points.  The arithmetic
propagates the derivatives exactly (no truncation error beyond floating-point
roundoff), so downstream identity residuals are pure roundoff.

Packed layout: a derivative of order r is symmetric in its r indices, so each
distinct entry is stored once, under its sorted multi-index.  `coeffs[0]` is
the value, shape (B,); `coeffs[r]` for r >= 1 has shape (B, C(m+r-1, r)), one
column per sorted multi-index in `itertools.combinations_with_replacement`
order (order 1 is the plain gradient).  Each block is stored as the transpose
of a C-contiguous (K, B) array, so a gather over multi-indices copies whole
batch rows.

Products and compositions compute each packed entry as the Leibniz / Faa di
Bruno sum over its terms, every term one product of gathered operand columns,
added in a fixed order; the index tables are cached per (m, order), so only
distinct Taylor coefficients are ever propagated.  Symmetry is exact by
construction: every permutation of an index tuple reads the same stored
number.  `deriv(i)` is a table gather, and `tensor(r)` expands order r into
the dense (B, m, ..., m) array for the few consumers that want one.

The public order-3 view (`Jet3`, `eval_jet3`) is what the rest of the
package's per-point API exposes; the batched engine and the order-4 tower are
used internally by the geometry pipelines.  `fd_oracle` is an independent
finite-difference estimator used only for cross-checks; it never touches the
jet arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Callable, Sequence

import numpy as np

from .errors import SingularEvaluationError

MAX_ORDER = 4

Number = (int, float, np.integer, np.floating)


# -- packed index tables ------------------------------------------------------------


@lru_cache(maxsize=None)
def _multi_indices(m: int, rank: int) -> np.ndarray:
    """(K, rank) sorted multi-indices over m variables, one row per packed
    column."""
    rows = list(combinations_with_replacement(range(m), rank))
    return np.array(rows, dtype=np.intp).reshape(len(rows), rank)


@lru_cache(maxsize=None)
def _dense_table(m: int, rank: int) -> np.ndarray:
    """Packed column of every entry of a dense rank-`rank` tensor."""
    table = np.empty((m,) * rank, dtype=np.intp)
    sorted_rows = _multi_indices(m, rank)
    table[tuple(sorted_rows.T)] = np.arange(len(sorted_rows))
    return table[tuple(np.sort(np.indices((m,) * rank), axis=0))]


def _gather_table(m: int, rank: int, slot_groups) -> tuple:
    """Index arrays for products of packed factors.

    `slot_groups` lists the terms of a rank-`rank` output, each a tuple of
    blocks of output slots (one block per factor, all terms with the same
    block sizes).  Returns (order, columns) per factor, where columns has
    shape (terms, K): for every term and sorted output multi-index, the packed
    column of the sub-multi-index that the factor's block of slots picks out.
    """
    out = _multi_indices(m, rank)
    tables = []
    for f, block in enumerate(slot_groups[0]):
        dense = _dense_table(m, len(block))
        tables.append((len(block), np.stack([dense[tuple(out[:, term[f]].T)] for term in slot_groups])))
    return tuple(tables)


def _complement(rank: int, block: tuple) -> tuple:
    return tuple(s for s in range(rank) if s not in block)


@lru_cache(maxsize=None)
def _mul_table(m: int, rank: int) -> tuple:
    """Cross terms of the order-`rank` Leibniz rule, in summation order.

    Each entry is (swap, factors): the products take order s of one operand on
    a block of s slots and order rank-s of the other on the rest; `swap` puts
    the second operand on the block.
    """
    groups = []
    for s in range(1, rank // 2 + 1):
        blocks = [(b, _complement(rank, b)) for b in combinations(range(rank), s)]
        table = _gather_table(m, rank, blocks)
        groups.append((False, table))
        if 2 * s != rank:
            groups.append((True, table))
    return tuple(groups)


# Faa di Bruno over set partitions of the output slots, in summation order:
# (number of blocks, blocks of every term).  The terms of one group share
# block sizes, so their factors gather together.
_PARTITIONS = {
    2: [(2, [((0,), (1,))])],
    3: [
        (2, [((0,), (1, 2)), ((1,), (0, 2)), ((2,), (0, 1))]),
        (3, [((0,), (1,), (2,))]),
    ],
    4: [
        (2, [((0, 1, 2), (3,)), ((0, 1, 3), (2,)), ((0, 2, 3), (1,)), ((1, 2, 3), (0,))]),
        (2, [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]),
        (3, [((0, 1), (2,), (3,)), ((0, 2), (1,), (3,)), ((0, 3), (1,), (2,)),
             ((1, 2), (0,), (3,)), ((1, 3), (0,), (2,)), ((2, 3), (0,), (1,))]),
        (4, [((0,), (1,), (2,), (3,))]),
    ],
}


@lru_cache(maxsize=None)
def _compose_table(m: int, rank: int) -> tuple:
    """(k, factor column tables) per partition group of order `rank`."""
    return tuple((k, _gather_table(m, rank, terms)) for k, terms in _PARTITIONS.get(rank, ()))


@lru_cache(maxsize=None)
def _raise_table(m: int, rank: int) -> np.ndarray:
    """(m, K) columns of order rank+1 at (multi-index, i) for each variable i:
    the table that `Jet.deriv` gathers order rank from."""
    return _dense_table(m, rank + 1)[tuple(_multi_indices(m, rank).T)].T


# Elements (128 KiB of floats, glibc's default mmap threshold) that one gather
# of a term group may fill.  Gathering several terms at once saves dispatch on
# small batches; larger temporaries may be mapped and page-faulted afresh on
# every call, which made whole-group gathers up to 11x slower than term by term.
_GATHER_LIMIT = 1 << 14


def _products(factors):
    """The products of one term group, in order, each a (K, B) array that
    aliases no operand.  `factors` holds ((K_f, B) block, (terms, K) columns)
    pairs, multiplied left to right; terms are gathered in chunks of at most
    _GATHER_LIMIT elements (at least one term)."""
    (first, first_cols), *rest = factors
    terms, K = first_cols.shape
    step = max(1, _GATHER_LIMIT // (K * first.shape[1]))
    for p in range(0, terms, step):
        prod = first[first_cols[p : p + step]]
        for block, cols in rest:
            prod *= block[cols[p : p + step]]
        yield from prod


def _size(m: int, rank: int) -> int:
    return math.comb(m + rank - 1, rank)


class Jet:
    """Batched truncated derivative tower of one scalar quantity.

    coeffs[0] is the value, shape (B,); coeffs[r] (r >= 1) holds the order-r
    derivatives packed over sorted multi-indices, shape (B, C(m+r-1, r)).
    Instances are immutable by convention: no operation mutates its inputs.
    """

    __slots__ = ("m", "order", "coeffs")

    # make ndarray <op> Jet defer to the reflected Jet methods
    __array_ufunc__ = None

    def __init__(self, m: int, order: int, coeffs):
        self.m = m
        self.order = order
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def variable(values: np.ndarray, index: int, m: int, order: int) -> "Jet":
        values = np.asarray(values, dtype=float)
        B = values.shape[0]
        coeffs = [values]
        if order >= 1:
            g = np.zeros((m, B))
            g[index] = 1.0
            coeffs.append(g.T)
        for r in range(2, order + 1):
            coeffs.append(np.zeros((_size(m, r), B)).T)
        return Jet(m, order, coeffs)

    @staticmethod
    def constant(values, m: int, order: int, B: int | None = None) -> "Jet":
        values = np.asarray(values, dtype=float)
        if values.ndim == 0:
            if B is None:
                raise ValueError("batch size required for scalar constant")
            values = np.full(B, float(values))
        B = values.shape[0]
        coeffs = [values] + [np.zeros((_size(m, r), B)).T for r in range(1, order + 1)]
        return Jet(m, order, coeffs)

    # -- views ---------------------------------------------------------------

    @property
    def value(self) -> np.ndarray:
        return self.coeffs[0]

    def tensor(self, r: int) -> np.ndarray:
        """Order-r derivatives as a dense (B, m, ..., m) array, every
        permutation of an index tuple reading the same stored entry."""
        if r <= 1:
            return self.coeffs[r]
        return self.coeffs[r][:, _dense_table(self.m, r)]

    def deriv(self, index: int) -> "Jet":
        """Tower of the partial derivative with respect to variable `index`
        (one order lower)."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        m, c = self.m, self.coeffs
        coeffs = [c[1][:, index]] + [c[r + 1].T[_raise_table(m, r)[index]].T for r in range(1, self.order)]
        return Jet(m, self.order - 1, coeffs)

    def truncated(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        return Jet(self.m, order, self.coeffs[: order + 1])

    # -- arithmetic ----------------------------------------------------------

    def _lift_other(self, other):
        """Return (jet, jet) aligned to a common order, or (self, scalar)."""
        if isinstance(other, Jet):
            if other.m != self.m:
                raise ValueError("jets over different variable sets")
            order = min(self.order, other.order)
            return self.truncated(order), other.truncated(order)
        return self, other

    @staticmethod
    def _bcast(values):
        """A scalar or per-point (B,) factor, shaped to broadcast along the
        batch axis of a (K, B) coefficient block."""
        values = np.asarray(values)
        return values if values.ndim <= 1 else values.reshape(values.shape[:1])

    def __add__(self, other):
        a, b = self._lift_other(other)
        if isinstance(b, Jet):
            return Jet(a.m, a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])
        if isinstance(b, Number) or isinstance(b, np.ndarray):
            coeffs = list(self.coeffs)
            coeffs[0] = coeffs[0] + b
            return Jet(self.m, self.order, coeffs)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.m, self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._lift_other(other)
        if isinstance(b, Jet):
            return Jet(a.m, a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])
        if isinstance(b, Number) or isinstance(b, np.ndarray):
            coeffs = list(self.coeffs)
            coeffs[0] = coeffs[0] - b
            return Jet(self.m, self.order, coeffs)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        a, b = self._lift_other(other)
        if not isinstance(b, Jet):
            if isinstance(b, Number) or isinstance(b, np.ndarray):
                f = self._bcast(b)
                return Jet(self.m, self.order, [(c.T * f).T for c in self.coeffs])
            return NotImplemented
        order, m = a.order, a.m
        ac, bc = [c.T for c in a.coeffs], [c.T for c in b.coeffs]
        out = [ac[0] * bc[0]]
        for r in range(1, order + 1):
            t = ac[r] * bc[0] + ac[0] * bc[r]
            for swap, ((s, left), (_, right)) in _mul_table(m, r):
                g, h = (bc, ac) if swap else (ac, bc)
                for term in _products(((g[s], left), (h[r - s], right))):
                    t += term
            out.append(t.T)
        return Jet(m, order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._lift_other(other)
        if isinstance(b, Jet):
            return a * b._reciprocal()
        if isinstance(b, Number) or isinstance(b, np.ndarray):
            return self * (1.0 / np.asarray(b, dtype=float))
        return NotImplemented

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, exponent):
        if isinstance(exponent, (int, np.integer)):
            k = int(exponent)
            if k < 0:
                return self._reciprocal() ** (-k)
            if k == 0:
                return Jet.constant(np.ones_like(self.value), self.m, self.order)
            result = self
            for _ in range(k - 1):
                result = result * self
            return result
        p = float(exponent)
        u = self.value
        derivs = [u ** p]
        fac = 1.0
        for r in range(1, self.order + 1):
            fac *= p - (r - 1)
            derivs.append(fac * u ** (p - r))
        return self._compose(derivs)

    # -- elementary functions --------------------------------------------------

    def _compose(self, d: Sequence[np.ndarray]) -> "Jet":
        """Chain rule through the tower for a scalar function with derivative
        values d[0..order] at self.value (Faa di Bruno over set partitions)."""
        order, m = self.order, self.m
        u = [c.T for c in self.coeffs]
        out = [d[0]]
        for r in range(1, order + 1):
            t = self._bcast(d[1]) * u[r]
            for k, factors in _compose_table(m, r):
                dk = self._bcast(d[k])
                for term in _products([(u[rank], cols) for rank, cols in factors]):
                    term *= dk
                    t += term
            out.append(t.T)
        return Jet(m, order, out)

    def _reciprocal(self) -> "Jet":
        u = self.value
        derivs = [1.0 / u]
        sign, fac = -1.0, 1.0
        for r in range(1, self.order + 1):
            fac *= r
            derivs.append(sign * fac / u ** (r + 1))
            sign = -sign
        return self._compose(derivs)

    def sqrt(self) -> "Jet":
        s = np.sqrt(self.value)
        derivs = [s]
        coef = 0.5
        for r in range(1, self.order + 1):
            derivs.append(coef * self.value ** (0.5 - r))
            coef *= 0.5 - r
        return self._compose(derivs)

    def exp(self) -> "Jet":
        e = np.exp(self.value)
        return self._compose([e] * (self.order + 1))

    def log(self) -> "Jet":
        u = self.value
        derivs = [np.log(u)]
        sign, fac = 1.0, 1.0
        for r in range(1, self.order + 1):
            derivs.append(sign * fac / u ** r)
            fac *= r
            sign = -sign
        return self._compose(derivs)

    def sin(self) -> "Jet":
        s, c = np.sin(self.value), np.cos(self.value)
        cycle = [s, c, -s, -c]
        return self._compose([cycle[r % 4] for r in range(self.order + 1)])

    def cos(self) -> "Jet":
        s, c = np.sin(self.value), np.cos(self.value)
        cycle = [c, -s, -c, s]
        return self._compose([cycle[r % 4] for r in range(self.order + 1)])


def sqrt(v):
    """sqrt usable on jets and plain numbers alike (for generic evaluators)."""
    if isinstance(v, Jet):
        return v.sqrt()
    return math.sqrt(v)


# -- public per-point types ----------------------------------------------------


@dataclass(frozen=True)
class TangentPoint:
    """A chart point (x, y) with y != 0 (point of the slit tangent bundle)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("x and y must be equal-length 1-d arrays")
        if not np.any(self.y != 0.0):
            raise SingularEvaluationError(
                "y = 0 is excluded: t_k = y^i g_ki / F^2 is singular there; "
                "points must lie on the slit tangent bundle (y != 0)"
            )

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class ScalarField:
    """A scalar field on the 2n-dimensional chart.

    `evaluator(x, y)` receives two length-n sequences of scalars and must be
    written generically (arithmetic, **, and `jets.sqrt`), so the same code
    runs on floats and on jets.  Evaluation is pure and deterministic.
    """

    n: int
    evaluator: Callable

    def __call__(self, x, y):
        return self.evaluator(x, y)


@dataclass(frozen=True)
class Jet3:
    """Value and derivative tensors through order 3 at one point.

    grad/hess/third are indexed in the order the active variables were given;
    hess and third are symmetric to exact equality by construction.
    """

    value: float
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray
    active: tuple = field(default=())


def variable_index(name: str, n: int) -> int:
    """Map a variable name 'x<i>'/'y<i>' (0-based i) to its chart index."""
    if len(name) < 2 or name[0] not in "xy":
        raise ValueError(f"bad variable name {name!r}; use 'x0'..'y{n-1}'")
    i = int(name[1:])
    if not 0 <= i < n:
        raise ValueError(f"variable index out of range in {name!r}")
    return i if name[0] == "x" else n + i


def _point_scalars(f: ScalarField, p: TangentPoint, active: Sequence[str], order: int):
    n = f.n
    if p.n != n:
        raise ValueError("point dimension does not match field dimension")
    m = len(active)
    slots = [variable_index(a, n) for a in active]
    if len(set(slots)) != m or m < 1:
        raise ValueError("active variables must be a nonempty set")
    chart = list(np.concatenate([p.x, p.y]))
    for j, slot in enumerate(slots):
        chart[slot] = Jet.variable(np.array([chart[slot]]), j, m, order)
    return chart[:n], chart[n:]


def eval_jet3(f: ScalarField, p: TangentPoint, active: Sequence[str]) -> Jet3:
    """All partials of f w.r.t. the active variables through order 3.

    Exact modulo roundoff: the evaluator runs on an order-3 jet arithmetic,
    with inactive variables held as plain numbers.
    """
    xs, ys = _point_scalars(f, p, active, order=3)
    try:
        with np.errstate(invalid="ignore", divide="ignore"):
            out = f(xs, ys)
    except (ZeroDivisionError, FloatingPointError, ValueError) as exc:
        raise SingularEvaluationError(f"field evaluation failed at {p}: {exc}") from exc
    if not isinstance(out, Jet):
        out = Jet.constant(np.array([float(out)]), len(active), 3)
    if not np.all(np.isfinite(out.value)):
        raise SingularEvaluationError(f"field evaluation not finite at {p}")
    return Jet3(
        value=float(out.coeffs[0][0]),
        grad=out.coeffs[1][0].copy(),
        hess=out.tensor(2)[0],
        third=out.tensor(3)[0],
        active=tuple(active),
    )


_FD_DEFAULT_STEPS = {1: 1e-5, 2: 5e-4, 3: 4e-3}


def fd_oracle(
    f: ScalarField,
    p: TangentPoint,
    multi_index: Sequence[str],
    step: float | None = None,
    richardson: bool = True,
) -> float:
    """Central-difference estimate of one mixed partial (order 1..3).

    Used only in tests, as the independent cross-check of the jet path.  The
    default step depends on the derivative order (1e-5 / 5e-4 / 4e-3): higher
    orders need larger steps to keep the difference quotient above roundoff.
    One Richardson level (h, h/2) cancels the leading h^2 error term.
    """
    order = len(multi_index)
    if not 1 <= order <= 3:
        raise ValueError("multi_index must have 1 to 3 entries")
    h = _FD_DEFAULT_STEPS[order] if step is None else float(step)
    slots = [variable_index(a, f.n) for a in multi_index]

    def value(chart):
        return float(f(list(chart[: f.n]), list(chart[f.n :])))

    def diff(chart, remaining, h):
        if not remaining:
            return value(chart)
        slot, rest = remaining[0], remaining[1:]
        plus = list(chart)
        plus[slot] += h
        minus = list(chart)
        minus[slot] -= h
        return (diff(plus, rest, h) - diff(minus, rest, h)) / (2.0 * h)

    chart = list(np.concatenate([p.x, p.y]))
    d_h = diff(chart, slots, h)
    if not richardson:
        return d_h
    d_h2 = diff(chart, slots, h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0
