"""Forward-mode jets: truncated derivative towers on a chart.

A `Jet` carries the value and all partial derivatives, up to a truncation
order (0..4), of a scalar or of an array of quantities (a vector, a matrix,
the components of a vector field), with respect to a fixed set of m active
variables, batched over a leading axis of evaluation points.  The arithmetic
propagates the derivatives exactly (no truncation error beyond floating-point
roundoff), so downstream identity residuals are pure roundoff.

Packed layout: a derivative of order r is symmetric in its r indices, so each
distinct entry is stored once, under its sorted multi-index.  All orders of
one jet share a single buffer `buf` of shape (C(m+order, order), B, *shape):
row 0 is the value, then order r takes C(m+r-1, r) rows, one per sorted
multi-index in `itertools.combinations_with_replacement` order (order 1 is
the plain gradient).  The component axes `shape` are () for a scalar jet.
`value` (= `coeffs[0]`), shape (B, *shape), and `coeffs[r]`, shape
(B, *shape, C(m+r-1, r)), are views into `buf`.  So a gather over
multi-indices copies whole batch rows, and a sum, difference, negation,
scaling or truncation is one numpy call on the whole buffer.  Indexing a jet
indexes its components, and iterating it yields its leading components.

Arithmetic is componentwise, broadcasting the component shapes as numpy
does.  Products and compositions compute each packed entry as the Leibniz /
Faa di Bruno sum over its terms, every term one product of gathered operand
rows, added straight into the output in a fixed order, so each component
gets the same bits as the scalar jets' product.  The terms of all orders
are gathered together, as many whole terms per gather as fit in
`_GATHER_LIMIT` elements (at least one), through flat index tables looked
up per (m, order, rows per gather) and shared by every batch size that
splits the terms alike; only distinct Taylor coefficients are ever
propagated.  Symmetry is exact by construction: every permutation of an
index tuple reads the same stored number.  `deriv(i)` is one gather through
a cached table (an index array appends its shape to the components), and
`tensor(r)` expands order r into the dense (B, *shape, m, ..., m) array for
the few consumers that want one.

`fd_oracle` is the independent finite-difference estimator for
cross-checks (the sweep's `numerics.fd_cross` and the tests): it reads only
the values of a batched function, never a jet's derivative rows.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
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
    the order-rank part of `_deriv_table`."""
    return _dense_table(m, rank + 1)[tuple(_multi_indices(m, rank).T)].T


def _rows(m: int, order: int) -> int:
    """Rows of the flat buffer of an order-`order` jet over m variables:
    C(m+order, order), the packed columns of ranks 0..order together."""
    return math.comb(m + order, order)


def _block(m: int, rank: int) -> slice:
    """Rows of rank `rank` in a flat buffer."""
    return slice(_rows(m, rank - 1) if rank else 0, _rows(m, rank))


@lru_cache(maxsize=None)
def _deriv_table(m: int, order: int) -> np.ndarray:
    """(m, rows of order-1) flat rows that `Jet.deriv(i)` gathers from an
    order-`order` buffer: rank r of the derivative is rank r+1 at
    (multi-index, i)."""
    ranks = [np.arange(1, m + 1)[:, None]]
    ranks += [_block(m, r + 1).start + _raise_table(m, r) for r in range(1, order)]
    return np.concatenate(ranks, axis=1)


def _mul_terms(m: int, order: int) -> list:
    """Leibniz cross terms of ranks 2..order in summation order, each
    (rank, 2, (flat rows of the left operand, flat rows of the right))."""
    terms = []
    for r in range(2, order + 1):
        for swap, ((s, left), (_, right)) in _mul_table(m, r):
            for cols in zip(_block(m, s).start + left, _block(m, r - s).start + right):
                terms.append((r, 2, cols[::-1] if swap else cols))
    return terms


def _compose_terms(m: int, order: int) -> list:
    """Faa di Bruno terms of ranks 2..order in summation order, each
    (rank, k, flat rows of its k factors)."""
    terms = []
    for r in range(2, order + 1):
        for k, factors in _compose_table(m, r):
            for cols in zip(*(_block(m, rank).start + c for rank, c in factors)):
                terms.append((r, k, cols))
    return terms


# Elements (128 KiB of floats, glibc's default mmap threshold) that one gather
# of terms may fill.  Gathering several terms at once saves dispatch on small
# batches; larger temporaries may be mapped and page-faulted afresh on every
# call, which made whole-group gathers up to 11x slower than term by term.
_GATHER_LIMIT = 1 << 14


def _split(terms: list, max_rows: int) -> tuple:
    """Terms per gather when the terms, in summation order, are split into
    gathers of at most `max_rows` rows (at least one term each)."""
    counts, rows = [], 0
    for term in terms:
        size = len(term[2][0])
        if not counts or rows + size > max_rows:
            counts.append(0)
            rows = 0
        counts[-1] += 1
        rows += size
    return tuple(counts)


def _plan(m: int, terms: list, split: tuple) -> tuple:
    """Gathers of the terms, `split` terms each, in summation order.

    A gather lays its products out by factor count k, so factor p covers the
    rows from some start on.  Per gather: (start, flat rows) per factor
    position, (k, rows) per factor count, and (output block, product rows)
    per term in summation order.
    """
    plan, first_term = [], 0
    for count in split:
        chunk = terms[first_term : first_term + count]
        first_term += count
        layout = sorted(range(len(chunk)), key=lambda t: chunk[t][1])
        counts = [chunk[t][1] for t in layout]
        starts = np.cumsum([0] + [len(chunk[t][2][0]) for t in layout]).tolist()
        factors = []
        for p in range(counts[-1]):
            first = bisect_right(counts, p)
            factors.append((starts[first], np.concatenate([chunk[t][2][p] for t in layout[first:]])))
        segments = [(k, slice(starts[bisect_left(counts, k)], starts[bisect_right(counts, k)]))
                    for k in set(counts)]
        at = {t: slice(starts[i], starts[i + 1]) for i, t in enumerate(layout)}
        adds = [(_block(m, rank), at[t]) for t, (rank, _, _) in enumerate(chunk)]
        plan.append((tuple(factors), tuple(segments), tuple(adds)))
    return tuple(plan)


@lru_cache(maxsize=None)
def _split_plan(terms_of, m: int, order: int, split: tuple) -> tuple:
    """The plan of one split: batch sizes whose gathers split the terms
    alike share its index arrays."""
    return _plan(m, terms_of(m, order), split)


@lru_cache(maxsize=None)
def _mul_plan(m: int, order: int, max_rows: int) -> tuple:
    return _split_plan(_mul_terms, m, order, _split(_mul_terms(m, order), max_rows))


@lru_cache(maxsize=None)
def _compose_plan(m: int, order: int, max_rows: int) -> tuple:
    return _split_plan(_compose_terms, m, order, _split(_compose_terms(m, order), max_rows))


def _add_terms(out: np.ndarray, plan: tuple, sources, scales=None) -> None:
    """Add the terms of `plan` into the flat buffer `out`, in summation
    order.  Each term is the product, left to right, of its factor rows,
    factor p gathered from sources[p], then times scales[k] for a term of k
    factors when `scales` is given."""
    for factors, segments, adds in plan:
        (_, rows), *rest = factors
        prod = sources[0][rows]
        for p, (start, rows) in enumerate(rest, 1):
            prod[start:] *= sources[p][rows]
        if scales is not None:
            for k, seg in segments:
                prod[seg] *= scales[k]
        for block, seg in adds:
            out[block] += prod[seg]


def _aligned(x: np.ndarray, y: np.ndarray) -> tuple:
    """Two buffers with the component axes of the lower-rank one padded on
    the left, so numpy broadcasts them as it broadcasts the jets' values."""
    k = max(x.ndim, y.ndim)
    return tuple(b[(slice(None), slice(None)) + (None,) * (k - b.ndim)] for b in (x, y))


def _operands(x: np.ndarray, y: np.ndarray) -> tuple:
    """Aligned buffers of one shape, C-contiguous, for the product gathers:
    gathering rows of a broadcast or strided view is several times slower."""
    if x.ndim != y.ndim:
        x, y = _aligned(x, y)
    shape = np.broadcast(x, y).shape
    out = []
    for b in (x, y):
        if b.shape != shape or not b.flags.c_contiguous:
            full = np.empty(shape)
            full[...] = b
            b = full
        out.append(b)
    return out


class Jet:
    """Batched truncated derivative tower of a scalar or an array of quantities.

    `buf` is the flat (C(m+order, order), B, *shape) buffer; coeffs[0] is the
    value, shape (B, *shape), and coeffs[r] (r >= 1) the order-r derivatives
    packed over sorted multi-indices, shape (B, *shape, C(m+r-1, r)), both
    views into `buf`.  Instances are immutable by convention: no operation
    mutates its inputs.
    """

    __slots__ = ("m", "order", "buf", "_coeffs")

    # make ndarray <op> Jet defer to the reflected Jet methods
    __array_ufunc__ = None

    def __init__(self, m: int, order: int, buf: np.ndarray):
        self.m = m
        self.order = order
        self.buf = buf
        self._coeffs = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def variable(values: np.ndarray, index: int, m: int, order: int) -> "Jet":
        """The seed jet of variable `index` at the points `values` (B,); for
        a (B, k) block, one (k,)-shaped jet of variables index .. index+k-1.
        Each component of a block owns a contiguous (rows, B) slab, so the
        evaluators multiply its components as fast as separate seeds."""
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            buf = np.zeros((_rows(m, order), values.shape[0]))
            buf[0] = values
            if order >= 1:
                buf[1 + index] = 1.0
            return Jet(m, order, buf)
        buf = np.zeros((values.shape[1], _rows(m, order), values.shape[0]))
        buf[:, 0] = values.T
        for k in range(values.shape[1] if order >= 1 else 0):
            buf[k, 1 + index + k] = 1.0
        return Jet(m, order, buf.transpose(1, 2, 0))

    @staticmethod
    def constant(values, m: int, order: int, B: int | None = None) -> "Jet":
        values = np.asarray(values, dtype=float)
        if values.ndim == 0:
            if B is None:
                raise ValueError("batch size required for scalar constant")
            values = np.full(B, float(values))
        buf = np.zeros((_rows(m, order),) + values.shape)
        buf[0] = values
        return Jet(m, order, buf)

    # -- views ---------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        """Component shape: () for a scalar jet."""
        return self.buf.shape[2:]

    @property
    def coeffs(self) -> tuple:
        """Per-rank views into `buf`, built on first use."""
        if self._coeffs is None:
            buf, m = self.buf, self.m
            axes = tuple(range(1, buf.ndim)) + (0,)
            self._coeffs = (buf[0],) + tuple(buf[_block(m, r)].transpose(axes) for r in range(1, self.order + 1))
        return self._coeffs

    @property
    def value(self) -> np.ndarray:
        return self.buf[0]

    def tensor(self, r: int) -> np.ndarray:
        """Order-r derivatives as a dense (B, *shape, m, ..., m) array, every
        permutation of an index tuple reading the same stored entry."""
        if r <= 1:
            return self.coeffs[r]
        return self.coeffs[r][..., _dense_table(self.m, r)]

    def deriv(self, index) -> "Jet":
        """Tower of the partial derivative with respect to variable `index`
        (one order lower).  For an array of indices, the derivatives along
        each, with the index shape appended to the component axes."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        rows = _deriv_table(self.m, self.order)[index]
        buf = self.buf[rows]
        if rows.ndim > 1:
            k = rows.ndim - 1
            buf = np.ascontiguousarray(np.moveaxis(buf, tuple(range(k)), tuple(range(-k, 0))))
        return Jet(self.m, self.order - 1, buf)

    def truncated(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        return Jet(self.m, order, self.buf[: _rows(self.m, order)])

    def __getitem__(self, key) -> "Jet":
        """Components `key`, indexed as the value is without its batch axis:
        a view for integers and slices, a copy for index arrays."""
        key = key if isinstance(key, tuple) else (key,)
        return Jet(self.m, self.order, self.buf[(slice(None), slice(None)) + key])

    def __iter__(self):
        """The jets of the leading components, as views."""
        if self.buf.ndim < 3:
            raise TypeError("a scalar jet has no components")
        slabs = self.buf.transpose((2, 0, 1) + tuple(range(3, self.buf.ndim)))
        return (Jet(self.m, self.order, slab) for slab in slabs)

    # -- arithmetic ----------------------------------------------------------

    def _lift_other(self, other):
        """Return (jet, jet) aligned to a common order, or (self, scalar)."""
        if isinstance(other, Jet):
            if other.m != self.m:
                raise ValueError("jets over different variable sets")
            if other.order == self.order:
                return self, other
            order = min(self.order, other.order)
            return self.truncated(order), other.truncated(order)
        return self, other

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._lift_other(other)
            x, y = (a.buf, b.buf) if a.buf.ndim == b.buf.ndim else _aligned(a.buf, b.buf)
            return Jet(a.m, a.order, x + y)
        if isinstance(other, Number) or isinstance(other, np.ndarray):
            buf = self.buf.copy()
            buf[0] += other
            return Jet(self.m, self.order, buf)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.m, self.order, -self.buf)

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b = self._lift_other(other)
            x, y = (a.buf, b.buf) if a.buf.ndim == b.buf.ndim else _aligned(a.buf, b.buf)
            return Jet(a.m, a.order, x - y)
        if isinstance(other, Number) or isinstance(other, np.ndarray):
            buf = self.buf.copy()
            buf[0] -= other
            return Jet(self.m, self.order, buf)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, Number) or isinstance(other, np.ndarray):
            buf = -self.buf
            buf[0] += other
            return Jet(self.m, self.order, buf)
        return NotImplemented

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if isinstance(other, Number) or isinstance(other, np.ndarray):
                return Jet(self.m, self.order, self.buf * other)
            return NotImplemented
        a, x, y = self, self.buf, other.buf
        if not (x.ndim == 2 == y.ndim and self.order == other.order and self.m == other.m):
            a, b = self._lift_other(other)
            x, y = _operands(a.buf, b.buf)
        out = x * y[0]
        if a.order:
            out[1:] += x[0] * y[1:]
        _add_terms(out, _mul_plan(a.m, a.order, _GATHER_LIMIT * len(x) // x.size), (x, y))
        return Jet(a.m, a.order, out)

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
        values d[0..order] at self.value (Faa di Bruno over set partitions),
        applied to every component.  The partitions stop at rank MAX_ORDER,
        so a deeper jet is a ValueError, not a tower that loses terms."""
        if not 0 <= self.order <= MAX_ORDER:
            raise ValueError(f"jet composition needs order 0..{MAX_ORDER}, not {self.order}")
        u = self.buf
        out = np.empty(u.shape)
        out[0] = d[0]
        if self.order:
            np.multiply(d[1], u[1:], out=out[1:])
            _add_terms(out, _compose_plan(self.m, self.order, _GATHER_LIMIT * len(u) // u.size), (u,) * self.order, d)
        return Jet(self.m, self.order, out)

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
        u = self.value
        derivs = [np.sqrt(u)]
        coef = 0.5
        for r in range(1, self.order + 1):
            derivs.append(coef * u ** (0.5 - r))
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
    """sqrt for evaluators: `v.sqrt()` of a jet, `np.sqrt` of anything else
    (a number or a float array), which reads NaN outside the domain."""
    if isinstance(v, Jet):
        return v.sqrt()
    return np.sqrt(v)


def left_sum(terms):
    """Left-to-right sum of the terms (jets or numbers), 0.0 when there are
    none: one fixed order, so each sum keeps its bits."""
    total = None
    for t in terms:
        total = t if total is None else total + t
    return 0.0 if total is None else total


# -- tangent points and the finite-difference oracle -------------------------


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


# Central-difference step per derivative order: higher orders need larger
# steps to keep the difference quotient above roundoff.
_FD_STEPS = {1: 1e-5, 2: 5e-4, 3: 4e-3}


def fd_oracle(fn: Callable, points: np.ndarray, slots) -> np.ndarray:
    """Central-difference estimates of mixed partials of order r = 1..3.

    `fn` maps (K, d) points to (K, ...) values; row s of the (S, ...) result
    is the partial of fn at points[s] along the coordinates slots[s], for
    `slots` of shape (S, r).  All 2 * 2^r shifted copies of every point go
    to `fn` in one call.  A copy is shifted along the slots outer to inner,
    one add each; the innermost difference is taken first, at the step h of
    `_FD_STEPS[r]` and at h/2, and one Richardson level cancels the leading
    h^2 error term.  Each row gets the float ops of its one-row call.
    """
    points = np.asarray(points, dtype=float)
    slots = np.asarray(slots, dtype=np.intp)
    S, r = slots.shape
    if not 1 <= r <= 3:
        raise ValueError("each row of slots must have 1 to 3 entries")
    h = _FD_STEPS[r]
    steps = np.array([h, h / 2.0])
    # copy c moves slot k down if bit k of c is set; the innermost slot's
    # bit varies slowest, so its +/- pair is the leading axis below
    signs = 1.0 - 2.0 * ((np.arange(2**r)[:, None] >> np.arange(r)) & 1)
    shifted = np.tile(points, (2, 2**r, 1, 1))
    rows = np.arange(S)
    for k in range(r):
        shifted[:, :, rows, slots[:, k]] += (steps[:, None] * signs[:, k])[..., None]
    vals = fn(shifted.reshape(-1, points.shape[1]))
    vals = vals.reshape((2,) + (2,) * r + (S,) + vals.shape[1:])

    def diff(v, step):
        for _ in range(r):
            v = (v[0] - v[1]) / (2.0 * step)
        return v

    return (4.0 * diff(vals[1], steps[1]) - diff(vals[0], steps[0])) / 3.0
