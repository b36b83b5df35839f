"""Spray, nonlinear connection, adapted frames, and the bracket engine.

The `Workspace` evaluates the whole geometric pipeline of one metric at a
batch of chart points in jet arithmetic, from one jet of L = F^2: a catalog
metric's is written from the rows of its polynomials, any other metric's is
F * F of its evaluator on seed jets.  Every derived quantity (fundamental
tensor, spray, nonlinear connection, Liouville coefficients, frame
coefficients) is one jet whose component axes carry its indices and whose
remaining derivative slots feed the Lie-bracket engine.  g has one inverse,
on values behind one guard (`ginv_val`), and the spray jet is solved from it
one pass per jet order.  All identity checks elsewhere consume a Workspace.

A vector field is an order-1 jet with a trailing axis of its 2n coordinate
components (d/dx, then d/dy).  The Workspace builds each adapted frame
family once, as one cached stacked jet: `dx_fields` (delta/delta x),
`dy_fields`, `gamma_field`, `bar_fields`, `kept_bar_fields`, `xi_field` and
`bar_delta_fields`.
`bracket` and `directional` read each field's value row and gradient rows and
return values, summed over the chart directions in one fixed order; `bracket`
broadcasts over families, so `bracket(F[:, None], G[None, :])` gives every
pair with the bits of its own call.  The bracket tables that several checks
read ([bar, bar], [delta/dx, bar], [delta/dx, delta/dx]) are computed once per
Workspace and cached read-only; a check brackets other families in one call
per pair of families, and each basicness check brackets all its unit
sections in one call.  The adapted frame
rows on values are these families' values: `frame_val` stacks `dx_fields`
and `dy_fields`.
`sasaki_values` and `project_off_gamma` take a whole stack of vectors in one
call, each sum over a frame index in one fixed order (`contract`), so each
vector of the stack gets the bits of its own call.  The global check `numerics.rk4_order` integrates its geodesics
here, on every metric: where RK4 follows the geodesic to roundoff (a
straight line of constant coefficients, a Funk metric's), its drifts sit
below the check's roundoff floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ChartExitError, ConfigError, DegenerateMetricError, SingularEvaluationError
from .jets import MAX_ORDER, Jet, TangentPoint, left_sum
from .metrics import FinslerMetric

CONDITION_LIMIT = 1e12

# The LAPACK gufuncs behind np.linalg.eigvalsh (UPLO='L') and np.linalg.inv,
# called directly: on float64 stacks they are the wrappers' kernels, bit for
# bit, without the wrappers' fixed cost (type checks, errstate and result
# wrapping take about 3 us a call, twice the kernel's on one 2x2 or 3x3 g).
_eigvalsh = _umath_linalg.eigvalsh_lo
_inv = _umath_linalg.inv

# -- the bracket engine ----------------------------------------------------------


def bracket(X: Jet, Y: Jet) -> np.ndarray:
    """Values (B, *shape, 2n) of the Lie brackets of two vector fields, or of
    two families whose component shapes broadcast (`F[:, None]` against
    `G[None, :]` gives every pair):
    [X, Y]^c = X^d d_d(Y^c) - Y^d d_d(X^c), added over d = 0, 1, ... with the
    X term of each d first.  The work runs on copies with the point axis
    last, so each numpy call runs along the points; each pair gets the bits
    of its own call."""
    m = X.m
    Xt, Yt = (np.ascontiguousarray(np.moveaxis(J.buf[: 1 + m], 1, -1)) for J in (X, Y))  # (1 + m, *shape, B)
    out = np.zeros(np.broadcast_shapes(Xt.shape[1:], Yt.shape[1:]))
    term = np.empty_like(out)  # one scratch buffer: a fresh large temporary per term costs page faults
    for d in range(m):
        out += np.multiply(Xt[0, ..., d, None, :], Yt[1 + d], out=term)
        out -= np.multiply(Yt[0, ..., d, None, :], Xt[1 + d], out=term)
    return np.ascontiguousarray(np.moveaxis(out, -1, 0))


def directional(X: Jet, s: Jet) -> np.ndarray:
    """Values of the derivative of the jet s along the vector field X,
    X^d d_d s, added over d = 0, 1, ...  The leading component axes of X,
    if any (a stack of fields), broadcast against the leading ones of s: X of
    shape (2n,) gives (B, *s.shape), and X of shape (S, 2n) along s of shape
    (S, k) gives (B, S, k)."""
    Xv = np.moveaxis(X.value, -1, 0)  # (2n, B, *leading)
    Xv = Xv.reshape(Xv.shape + (1,) * (s.value.ndim - Xv.ndim + 1))
    out = np.zeros(np.broadcast_shapes(Xv.shape[1:], s.value.shape))
    for d in range(X.m):
        out += Xv[d] * s.buf[1 + d]
    return out


def contract(v: np.ndarray, A: np.ndarray) -> np.ndarray:
    """sum_k v[b, ..., k] A[b, k, *rest], (B, ..., *rest), for a stack of
    vectors v (B, ..., K) and one array A (B, K, *rest) per point, added over
    k = 0, 1, ... in one fixed order: each vector of the stack gets the bits
    of its own call, which numpy's einsum and a stacked matrix product over
    the stack do not give."""
    lead, rest = v.ndim - 1, A.ndim - 2
    A = A.reshape(A.shape[:1] + (1,) * (lead - 1) + A.shape[1:])
    out = v[(..., 0) + (None,) * rest] * A[(slice(None),) * lead + (0,)]
    for k in range(1, v.shape[-1]):
        out += v[(..., k) + (None,) * rest] * A[(slice(None),) * lead + (k,)]
    return out


def gather_rows(arr: np.ndarray, idx: np.ndarray, axis: int = 1) -> np.ndarray:
    """Per-point selection along `axis` of a batch array whose point axis is
    0, broadcast over the axes between them (a sample axis): entry idx[b] at
    point b for idx of shape (B,), entries idx[b, :] for idx of shape (B, k).
    A negative `axis` counts from the end."""
    axis %= arr.ndim
    shape = (idx.shape[0],) + (1,) * (axis - 1) + (-1,) + (1,) * (arr.ndim - axis - 1)
    out = np.take_along_axis(arr, idx.reshape(shape), axis=axis)
    return out if idx.ndim > 1 else out[(slice(None),) * axis + (0,)]


def _check_F2(L: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Raise SingularEvaluationError naming the first of the points (x, y)
    (B, n) where the value L of F^2 is not finite and positive."""
    if not (np.minimum.reduce(L) > 0.0 and np.maximum.reduce(L) < np.inf):  # a NaN fails both
        k = int(np.argmax(~(np.isfinite(L) & (L > 0.0))))
        raise SingularEvaluationError(
            f"F^2 not finite and positive on the batch, first at x={x[k].tolist()}, y={y[k].tolist()}"
        )


def _silenced():
    """Numpy errors ignored: points outside F's domain yield NaN, which
    `_check_F2` reports, not numpy warnings."""
    return np.errstate(invalid="ignore", divide="ignore", over="ignore")


def _degenerate(what: str, x: np.ndarray, y: np.ndarray) -> DegenerateMetricError:
    """The error for a fundamental tensor that is `what` at the point (x, y)."""
    return DegenerateMetricError(f"fundamental tensor {what} at x={x.tolist()}, y={y.tolist()}", x=x, y=y)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _adapted_coframe(N: np.ndarray) -> np.ndarray:
    """Rows {dx^i, delta y^i = dy^i + N^i_j dx^j} in coordinate components,
    [[I, 0], [N, I]], from N of shape (B, n, n)."""
    B, n = N.shape[:2]
    ident = np.broadcast_to(np.eye(n), (B, n, n))
    return np.block([[ident, np.zeros((B, n, n))], [N, ident]])


# -- the pipeline ---------------------------------------------------------------


class Workspace:
    """All derived geometry of one metric at a batch of chart points.

    Quantities are computed lazily and cached; everything is a pure function
    of (metric, x, y, order), so instances are safe to share read-only across
    threads.  `order` (0..4) is the truncation order of the jet of L; order 4
    keeps one derivative slot on the nonlinear connection, which the brackets
    of horizontal frame fields consume.
    """

    def __init__(self, metric: FinslerMetric, x: np.ndarray, y: np.ndarray, order: int = 4):
        self.metric = metric
        self.x = np.atleast_2d(np.asarray(x, dtype=float))
        self.y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.x.shape != self.y.shape:
            raise ValueError("x and y batches must have equal shapes")
        if self.x.shape[1] != metric.n:
            raise ValueError(f"the point needs x and y of length n = {metric.n}, the metric's dimension")
        if not 0 <= order <= MAX_ORDER:  # a catalog L would be right there, but not the compositions after it
            raise ValueError(f"a Workspace needs jet order 0..{MAX_ORDER}, not {order}")
        self.B, self.n = self.x.shape
        self.dim = 2 * self.n
        self.order = order
        self.xvars = np.arange(self.n)
        self.yvars = np.arange(self.n, self.dim)

    # seeds -------------------------------------------------------------

    @property
    def seed(self) -> Jet:
        """The chart variables (x, y) as one (2n,)-shaped variable jet, built
        on each use and not kept: at order 4 it is the largest buffer of the
        workspace.  Only `L` of a metric without polynomial rows (a custom or
        pushed-forward evaluator) reads it."""
        return Jet.variable(np.concatenate([self.x, self.y], axis=1), 0, self.dim, self.order)

    @cached_property
    def yj(self) -> Jet:
        """y as an (n,) variable jet of order at most 2: every reader but `L`
        multiplies it into jets of order 2 or less."""
        return Jet.variable(self.y, self.n, self.dim, min(self.order, 2))

    def _require_order(self, quantity: str, order: int) -> None:
        """Fail clearly when `quantity` needs a deeper jet of L than this
        workspace carries (each derivative consumes one jet order)."""
        if self.order < order:
            raise ValueError(
                f"Workspace.{quantity} needs jet order >= {order}; this workspace has order {self.order}"
            )

    # scalars -------------------------------------------------------------

    @cached_property
    def L(self) -> Jet:
        """F^2 as a jet over the chart variables, the one jet builder of F^2.
        A catalog metric's evaluator writes it from the rows of its
        polynomials (`CatalogEvaluator.squared_jet`, the jet that
        `squared_rows` reads at order 2); any other metric's is F * F of its
        evaluator on the seed jets.  Behind `_check_F2` and a guard naming the
        first point where a derivative is not finite: F is not smooth there,
        as where q = 0 < F^2 = beta^2 (Randers)."""
        squared_jet = getattr(self.metric.evaluate, "squared_jet", None)
        with _silenced():
            if squared_jet is not None:
                L = squared_jet(self.x, self.y, self.order)
            else:
                seed = self.seed
                F = self.metric.evaluate(list(seed[: self.n]), list(seed[self.n :]))
                L = F * F
        _check_F2(L.value, self.x, self.y)
        smooth = np.isfinite(L.buf).all(axis=0)
        if not smooth.all():
            k = int(np.argmax(~smooth))
            raise SingularEvaluationError(f"F^2 has a non-finite derivative (F is not smooth) on the batch, "
                                          f"first at x={self.x[k].tolist()}, y={self.y[k].tolist()}")
        return L

    @cached_property
    def F_val(self) -> np.ndarray:
        """F = sqrt(F^2) at the points; no reader needs its derivatives."""
        return np.sqrt(self.L_val)

    @cached_property
    def L_val(self) -> np.ndarray:
        return self.L.value

    # fundamental tensor ---------------------------------------------------

    @cached_property
    def g(self) -> Jet:
        """g[i, j] = (1/2) d2F2/dy^i dy^j, an (n, n) jet two orders down."""
        self._require_order("g", 2)
        return 0.5 * self.L.deriv(self.yvars).deriv(self.yvars)

    @cached_property
    def g_val(self) -> np.ndarray:
        return self.g.value

    @cached_property
    def dg_val(self) -> np.ndarray:
        """dg[b, i, j, k] = dg_ij/dy^k (values, read-only)."""
        self._require_order("dg_val", 3)
        return _read_only(self.g.deriv(self.yvars).value)

    @cached_property
    def ginv_val(self) -> np.ndarray:
        """The one inverse of g, at the points, behind the one guard of g:
        positive definite, and condition number lambda_max / lambda_min (from
        the eigenvalues of the definiteness test) below CONDITION_LIMIT.
        Both come from the LAPACK gufuncs `_eigvalsh` and `_inv`, as in
        `spray_values`: the bits of np.linalg.eigvalsh and np.linalg.inv
        without their per-call wrappers.  Neither sets a numpy error flag:
        `L` guards every entry of g finite, and `_inv` sees only a g that
        passed."""
        eig = _eigvalsh(self.g_val)
        lowest = eig[:, 0]
        cond = np.divide(eig[:, -1], lowest, out=np.full(self.B, np.inf), where=lowest > 0.0)
        bad = ~(cond < CONDITION_LIMIT)  # also where lowest is not > 0, whose cond is inf
        if np.any(bad):
            k = int(np.argmax(bad))
            what = (f"ill-conditioned (cond={cond[k]:.3e})" if lowest[k] > 0.0
                    else f"not positive definite (lowest eigenvalue {lowest[k]:.3e})")
            raise _degenerate(what, self.x[k], self.y[k])
        return _inv(self.g_val)

    # spray and nonlinear connection ---------------------------------------

    @cached_property
    def spray_G(self) -> Jet:
        """Spray coefficients G^i, an (n,) jet solving g G = A/4 with
        A_k = d2F2/dy^k dx^h y^h - dF2/dx^k, from the values V = `ginv_val`:
        G = V A/4 has the exact value row and, as g - g(p) has a zero value
        row, each pass G <- V (A/4 - (g - g(p)) G) makes one more order exact,
        so A.order passes give the jet to roundoff.  Each contraction adds its
        terms in index order."""
        n, V = self.n, self.ginv_val
        dLy = self.L.deriv(self.yvars)
        A = left_sum(self.yj[h] * dLy.deriv(h) for h in range(n)) - self.L.deriv(self.xvars)
        quarter_A, g_shift = 0.25 * A, self.g - self.g_val

        def times_V(r: Jet) -> Jet:  # V r, V one matrix per point
            return left_sum(r[k, None] * V[:, :, k] for k in range(n))

        G = times_V(quarter_A)
        for _ in range(A.order):
            G = times_V(quarter_A - left_sum(g_shift[:, k] * G[k] for k in range(n)))
        return G

    @cached_property
    def N(self) -> Jet:
        """Nonlinear connection N[j, i] = dG^j/dy^i, an (n, n) jet (one order left)."""
        self._require_order("N", 3)
        return self.spray_G.deriv(self.yvars)

    @cached_property
    def G_val(self) -> np.ndarray:
        return self.spray_G.value

    @cached_property
    def N_val(self) -> np.ndarray:
        return self.N.value

    @cached_property
    def dN_val(self) -> np.ndarray:
        """dN[b, j, i, k] = dN^j_i/dy^k (values)."""
        self._require_order("dN_val", 4)
        return self.N.deriv(self.yvars).value

    @cached_property
    def deltaN_val(self) -> np.ndarray:
        """deltaN[b, j, i, k] = delta N^j_i / delta x^k (values)."""
        self._require_order("deltaN_val", 4)
        Nx = self.N.deriv(self.xvars).value
        return Nx - np.einsum("blk,bjil->bjik", self.N_val, self.dN_val)

    @cached_property
    def R_val(self) -> np.ndarray:
        """Curvature of the nonlinear connection: R[b, k, i, j] = deltaN^k_j/dx^i - deltaN^k_i/dx^j."""
        dN = self.deltaN_val
        return dN.transpose(0, 1, 3, 2) - dN

    # Liouville data --------------------------------------------------------

    @cached_property
    def t(self) -> Jet:
        """t_k = dF/dy^k / F = dF2/dy^k / (2 F^2), an (n,) jet of order at most
        1: its readers take values and first derivatives, whose rows are the
        same at any truncation."""
        L = self.L.truncated(2)
        return L.deriv(self.yvars) / (2.0 * L.truncated(1))

    @cached_property
    def t_val(self) -> np.ndarray:
        return self.t.value

    @cached_property
    def E(self) -> Jet:
        """Coefficients of the orthogonal vertical fields in the dy basis:
        E[k, i] = delta^i_k - t_k y^i, an (n, n) jet of the order of t."""
        return np.eye(self.n) - self.t[:, None] * self.yj[None, :]

    @cached_property
    def E_val(self) -> np.ndarray:
        return self.E.value

    @cached_property
    def dropped_index(self) -> np.ndarray:
        """Per-point dependent vertical index m = argmax_k |y^k| (conditioning)."""
        return np.argmax(np.abs(self.y), axis=1)

    @cached_property
    def kept_indices(self) -> np.ndarray:
        """(B, n-1) sorted kept indices (all but the dropped one)."""
        n = self.n
        all_idx = np.broadcast_to(np.arange(n), (self.B, n))
        mask = all_idx != self.dropped_index[:, None]
        return all_idx[mask].reshape(self.B, n - 1)

    @cached_property
    def E_kept(self) -> Jet:
        """Coefficient rows of the kept orthogonal vertical fields, the frame
        of the indicatrix bundle: an (n-1, n) jet of the order of E, one
        per-point gather of E's buffer."""
        return Jet(self.E.m, self.E.order, np.take_along_axis(self.E.buf, self.kept_indices[None, :, :, None], axis=2))

    @cached_property
    def E_kept_val(self) -> np.ndarray:
        """(B, n-1, n) the value of `E_kept` (read-only)."""
        return _read_only(self.E_kept.value)

    @cached_property
    def y_dropped(self) -> np.ndarray:
        """(B,) y^m at the dropped index m (read-only)."""
        return _read_only(gather_rows(self.y, self.dropped_index))

    # frame fields and their bracket tables: each family is one stacked order-1
    # jet of the 2n coordinate components, (k, 2n) for k fields or (2n,) for one

    def _fields(self, horizontal, vertical) -> Jet:
        """The fields with d/dx components `horizontal` and d/dy components
        `vertical`, jets or arrays of constants of one shape (k, n) or (n,)."""
        parts = [p if isinstance(p, Jet) else Jet.constant(np.broadcast_to(p, (self.B,) + np.shape(p)), self.dim, 1)
                 for p in (horizontal, vertical)]
        if min(p.order for p in parts) < 1:
            raise ValueError(f"a vector field needs component jets of order >= 1, got order "
                             f"{min(p.order for p in parts)} (this workspace has order {self.order})")
        buf = np.concatenate([p.truncated(1).buf for p in parts], axis=-1)
        if buf.ndim > 3:  # each field of a family owns a contiguous slab, as a field built alone
            buf = np.moveaxis(np.ascontiguousarray(np.moveaxis(buf, 2, 0)), 0, 2)
        return Jet(self.dim, 1, buf)

    def _horizontal_fields(self, c: Jet) -> Jet:
        """The fields c^i delta/delta x^i = c^i d/dx^i - c^i N^j_i d/dy^j for
        coefficients c of shape (k, n) or (n,), added over i in order."""
        return self._fields(c, -left_sum(c[..., i, None] * self.N[:, i] for i in range(self.n)))

    @cached_property
    def dx_fields(self) -> Jet:
        """delta/delta x^i = d/dx^i - N^j_i d/dy^j, row i of an (n, 2n) jet."""
        N_T = Jet(self.N.m, self.N.order, self.N.buf.swapaxes(2, 3))  # [i, j] = N^j_i
        return self._fields(np.eye(self.n), -N_T)

    @cached_property
    def dy_fields(self) -> Jet:
        """d/dy^i, row i of an (n, 2n) jet."""
        return self._fields(np.zeros((self.n, self.n)), np.eye(self.n))

    @cached_property
    def gamma_field(self) -> Jet:
        """Vertical Liouville field y^i d/dy^i, a (2n,) jet."""
        return self._fields(np.zeros(self.n), self.yj)

    @cached_property
    def bar_fields(self) -> Jet:
        """Orthogonal vertical fields bar_k = d/dy^k - t_k Gamma, row k of an (n, 2n) jet."""
        return self._fields(np.zeros((self.n, self.n)), self.E)

    @cached_property
    def kept_bar_fields(self) -> Jet:
        """The kept orthogonal vertical fields, row a of an (n-1, 2n) jet: the
        rows of `bar_fields` at `kept_indices`, built from `E_kept`."""
        return self._fields(np.zeros((self.n - 1, self.n)), self.E_kept)

    @cached_property
    def xi_field(self) -> Jet:
        """Horizontal Liouville field y^i delta/delta x^i, a (2n,) jet."""
        return self._horizontal_fields(self.yj)

    @cached_property
    def bar_delta_fields(self) -> Jet:
        """Horizontal images E_k^i delta/delta x^i of the bar fields, row k of an (n, 2n) jet."""
        return self._horizontal_fields(self.E)

    @cached_property
    def bar_bar_brackets(self) -> np.ndarray:
        """[bar_i, bar_j] values (B, n, n, 2n), one broadcast `bracket` (read-only)."""
        return _read_only(bracket(self.bar_fields[:, None], self.bar_fields[None, :]))

    @cached_property
    def dx_bar_brackets(self) -> np.ndarray:
        """[delta/delta x^i, bar_k] values (B, n, n, 2n) (read-only)."""
        return _read_only(bracket(self.dx_fields[:, None], self.bar_fields[None, :]))

    @cached_property
    def dx_dx_brackets(self) -> np.ndarray:
        """[delta/delta x^i, delta/delta x^j] values (B, n, n, 2n) (read-only)."""
        return _read_only(bracket(self.dx_fields[:, None], self.dx_fields[None, :]))

    # Sasaki metric and almost complex structure on component values ----------

    @cached_property
    def frame_val(self) -> np.ndarray:
        """Coordinate components of the adapted frame {delta/delta x_i, d/dy_i}
        as rows, (B, 2n, 2n): the values of `dx_fields` and `dy_fields`
        (read-only)."""
        self._require_order("frame_val", 4)
        return _read_only(np.concatenate([self.dx_fields.value, self.dy_fields.value], axis=1))

    @cached_property
    def coframe_val(self) -> np.ndarray:
        """Coordinate components of the adapted coframe {dx^i, delta y^i} as
        rows, (B, 2n, 2n); also the coordinate-to-adapted component map
        (read-only)."""
        return _read_only(_adapted_coframe(self.N_val))

    @cached_property
    def adapted_metric_val(self) -> np.ndarray:
        """Sasaki metric in the adapted frame: blockdiag(g, g) (read-only)."""
        zero = np.zeros((self.B, self.n, self.n))
        return _read_only(np.block([[self.g_val, zero], [zero, self.g_val]]))

    def hv_split_values(self, comps_val: np.ndarray):
        """Split coordinate components (B, ..., 2n) into horizontal/vertical
        frame coefficients: h^i = u_x^i, v^j = u_y^j + N^j_i u_x^i, the sum
        over i by `contract`, so each vector of a stack gets the bits of its
        own call."""
        h = comps_val[..., : self.n]
        v = comps_val[..., self.n :] + contract(h, self.N_val.transpose(0, 2, 1))
        return h, v

    def sasaki_values(self, u_val: np.ndarray, w_val: np.ndarray) -> np.ndarray:
        """G(u, w) (B, ...) for coordinate components u (B, ..., 2n) and w
        (B, 2n) or (B, ..., 2n): g_ij u^i w^j on the horizontal and on the
        vertical coefficients, summed over j by `contract` and then over i in
        index order, so each vector of a stack gets the bits of its own
        call."""
        w_val = w_val.reshape(w_val.shape[:1] + (1,) * (u_val.ndim - w_val.ndim) + w_val.shape[1:])

        def pair(a, b):
            terms = a * contract(b, self.g_val)  # g is symmetric
            return left_sum(terms[..., i] for i in range(self.n))

        (hu, vu), (hw, vw) = self.hv_split_values(u_val), self.hv_split_values(w_val)
        return pair(hu, hw) + pair(vu, vw)

    @cached_property
    def sasaki_coordinate_val(self) -> np.ndarray:
        """Sasaki metric in the coordinate frame: C^T blockdiag(g, g) C with C
        the coframe, the coordinate-to-adapted component map."""
        C = self.coframe_val
        return C.transpose(0, 2, 1) @ self.adapted_metric_val @ C

    @cached_property
    def complex_structure_val(self) -> np.ndarray:
        """J acting on coordinate components: blocks [[N, I], [-(N^2 + I), -N]]."""
        B, n = self.B, self.n
        ident = np.broadcast_to(np.eye(n), (B, n, n))
        NN = np.einsum("bij,bjk->bik", self.N_val, self.N_val)
        return np.block([[self.N_val, ident], [-(NN + ident), -self.N_val]])

    # projections (value level) ---------------------------------------------

    def project_off_gamma(self, w_val: np.ndarray) -> np.ndarray:
        """G-orthogonal projection killing the Gamma component of coordinate
        components (B, ..., 2n), the whole stack in one `sasaki_values`
        call (works inside V for the indicatrix split and on all of T
        for the F-level split)."""
        gam = self.gamma_field.value
        coef = self.sasaki_values(w_val, gam) / self.L_val.reshape((self.B,) + (1,) * (w_val.ndim - 2))
        return w_val - coef[..., None] * gam.reshape((self.B,) + (1,) * (w_val.ndim - 2) + (self.dim,))


# -- the point API ----------------------------------------------------------------


def workspace_at(M: FinslerMetric, p: TangentPoint, order: int = 4) -> Workspace:
    """The Workspace of the one point p; each of its values has row 0 at p."""
    return Workspace(M, p.x[None, :], p.y[None, :], order=order)


def vertical_radial_residuals(ws: Workspace) -> np.ndarray:
    """max_{j,k} |y^i dg_ij/dy^k| scaled by |y|^2/F^2, per point."""
    yn = np.linalg.norm(ws.y, axis=1)
    return np.abs(np.einsum("bi,bijk->bjk", ws.y, ws.dg_val)).max(axis=(1, 2)) * yn**2 / ws.L_val


@dataclass(frozen=True)
class GeodesicResult:
    t: np.ndarray
    x: np.ndarray  # (steps+1, n)
    y: np.ndarray
    F: np.ndarray
    drift: float


def spray_values(M: FinslerMetric, z: np.ndarray) -> np.ndarray:
    """G^i values (B, n) at the stacked chart points z = (x, y) (B, 2n), for
    the integrator, from L = F^2, its gradient and the y rows of its Hessian:
    a catalog metric's `CatalogEvaluator.squared_rows` (no jet arithmetic),
    any other metric's order-2 `Workspace.L`.  Raises SingularEvaluationError
    at the first point where F^2 is not finite and positive (the guards of
    `Workspace.L`), DegenerateMetricError at the first where g is not
    positive definite (the condition number is left to the Workspace guard).
    Each row gets its bits in any batch: the sums over h and k run in index
    order, as `Workspace.spray_G` adds them, each one np.add.accumulate
    (einsum picks another kernel for one row, np.add.reduce sums pairwise).

    The definiteness test and the inverse call numpy's LAPACK gufuncs
    (`_eigvalsh`, `_inv`) directly, the kernels of np.linalg.eigvalsh and
    np.linalg.inv: the same bits, without the wrappers' fixed cost, about
    a quarter of a one-point call.  The test runs in the numpy error state
    that the rows are made in, so a g with a non-finite entry (F^2 finite,
    its rows not, as where a tiny q makes q^-1.5 overflow) gets NaN
    eigenvalues, which the guard names, and no numpy warning."""
    n, z = M.n, np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] != 2 * n:
        raise ValueError(f"spray_values needs points z = (x, y) of shape (B, {2 * n}), not {z.shape}")
    squared_rows = getattr(M.evaluate, "squared_rows", None)
    with _silenced():
        if squared_rows is not None:
            L, dL, Hy = squared_rows(z)
            _check_F2(L, z[:, :n], z[:, n:])
        else:
            L = Workspace(M, z[:, :n], z[:, n:], order=2).L
            dL, Hy = L.coeffs[1], L.tensor(2)[:, n:]
        g = 0.5 * Hy[:, :, n:]
        lowest = _eigvalsh(g)[:, 0]
    if not np.minimum.reduce(lowest) > 0.0:  # a NaN fails too
        k = int(np.argmax(~(lowest > 0.0)))
        raise _degenerate(f"not positive definite (lowest eigenvalue {lowest[k]:.3e})", z[k, :n], z[k, n:])
    A = np.add.accumulate(z[:, None, n:] * Hy[:, :, :n], axis=2)[..., -1]  # y^h d2L/dy^i dx^h
    terms = _inv(g) * (A - dL[:, :n])[:, None, :]
    return 0.25 * np.add.accumulate(terms, axis=2)[..., -1]


def integrate_geodesics(M: FinslerMetric, starts, steps, dts) -> list:
    """Fixed-step RK4 on xdot = y, ydot = -2G(x, y) for several paths in
    lockstep: path p starts at `starts[p]` and takes `steps[p]` steps of
    `dts[p]`.  Returns one GeodesicResult per path, in argument order.

    The state is one array zs (steps+1, paths, 2n) of z = (x, y): each RK4
    stage point is one z0 + dt/2 k and each update one z0 + dt/6 (k1 + 2k2
    + 2k3 + k4), elementwise, so x and y get the bits of separate arrays.
    Each stage is one `spray_values` call on the rows of the running
    paths, kept ordered by step count, longest first, so they are a leading
    slice; each path's dt is a column, so every row sees the float
    operations it sees alone.  F is a first integral of the flow;
    the reported drift max_t |F - F(0)| is the conserved-quantity error and
    scales as dt^4.  A path stops at the step that leaves the domain box, and
    the ChartExitError (with the last valid step index) of the first such
    path in argument order is raised, as a loop over the paths would raise it.
    A start of the wrong dimension or outside the domain box, a dt that is
    not finite and positive, or fewer than one step is a ValueError, and a
    path too long to allocate a ConfigError, both before any step.
    """
    steps = [int(s) for s in steps]
    dts = [float(dt) for dt in dts]
    if not 0 < len(starts) == len(steps) == len(dts):
        raise ValueError("starts, steps and dts must have one entry per path, for at least one path")
    if not all(math.isfinite(dt) and dt > 0.0 for dt in dts):
        raise ValueError("dt must be finite and positive")
    if any(s < 1 for s in steps):
        raise ValueError("steps must be >= 1")
    n = M.n
    if any(len(p.x) != n or len(p.y) != n for p in starts):
        raise ValueError(f"every start needs x and y of length n = {n}, the metric's dimension")
    outside = [p.x.tolist() for p in starts if not M.in_box(p.x)[0]]
    if outside:
        raise ValueError(f"a geodesic start must lie in the domain box {M.x_box.tolist()}; x={outside[0]} does not")
    order = sorted(range(len(starts)), key=lambda p: -steps[p])  # slot -> path
    last = [steps[p] for p in order]  # steps each slot takes
    try:
        zs = np.empty((last[0] + 1, len(order), 2 * n))
    except (ValueError, MemoryError) as exc:  # numpy refuses an array that large
        raise ConfigError(f"cannot hold a path of steps = {last[0]} (--steps): {exc}") from exc
    zs[0] = [np.concatenate([starts[p].x, starts[p].y]) for p in order]
    dt = np.array([[dts[p]] for p in order])
    half, sixth = 0.5 * dt, dt / 6.0  # rounded as the one-path 0.5 * dt and dt / 6.0
    lo, hi = M.x_box.T
    exits = {}
    live = len(order)

    def rhs(z):  # spray_values is looked up in the module at each call, so a patch of it reaches every stage
        k = np.empty_like(z)
        k[:, :n] = z[:, n:]
        np.multiply(spray_values(M, z), -2.0, out=k[:, n:])
        return k

    for k in range(last[0]):
        while live and last[live - 1] <= k:
            live -= 1
        if not live:
            break
        z0, h, h2 = zs[k, :live], dt[:live], half[:live]
        k1 = rhs(z0)
        k2 = rhs(z0 + h2 * k1)
        k3 = rhs(z0 + h2 * k2)
        k4 = rhs(z0 + h * k3)
        z1 = np.add(z0, sixth[:live] * (k1 + 2 * k2 + 2 * k3 + k4), out=zs[k + 1, :live])
        x1 = z1[:, :n]
        inside = (x1 >= lo) & (x1 <= hi)
        if not inside.all():
            for j in np.flatnonzero(~inside.all(axis=1)):
                exits[order[j]] = ChartExitError(
                    f"geodesic left the chart domain box after step {k + 1} "
                    f"(x={x1[j].tolist()}); last valid step index {k}",
                    last_valid_index=k,
                )
                last[j] = k + 1
            perm = sorted(range(len(order)), key=lambda j: -last[j])
            order, last = [order[j] for j in perm], [last[j] for j in perm]
            zs, dt, half, sixth = zs[:, perm], dt[perm], half[perm], sixth[perm]
    if exits:
        raise exits[min(exits)]
    results = [None] * len(order)
    for j, p in enumerate(order):
        x, y = zs[: steps[p] + 1, j, :n].copy(), zs[: steps[p] + 1, j, n:].copy()
        F = M.F(x, y)
        results[p] = GeodesicResult(
            t=dts[p] * np.arange(steps[p] + 1), x=x, y=y, F=F, drift=float(np.abs(F - F[0]).max())
        )
    return results


def integrate_geodesic(M: FinslerMetric, p0: TangentPoint, steps: int, dt: float) -> GeodesicResult:
    """Fixed-step RK4 on xdot = y, ydot = -2G(x, y) from p0: the one-path
    call of `integrate_geodesics`.  Raises ChartExitError (with the last valid
    step index) if the position leaves the domain box."""
    return integrate_geodesics(M, [p0], [steps], [dt])[0]
