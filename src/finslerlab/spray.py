"""Spray, nonlinear connection, adapted frames, and the bracket engine.

The `Workspace` evaluates the whole geometric pipeline of one metric at a
batch of chart points in jet arithmetic: every derived quantity (fundamental
tensor, spray, nonlinear connection, Liouville coefficients, frame
coefficients) is carried as a jet whose remaining derivative slots feed the
Lie-bracket engine.  All identity checks elsewhere in the package consume a
Workspace.

Vector fields are plain lists of 2n coordinate components (jets, or python
floats for constant entries); `bracket` combines component jets with their
derivative towers, so one implementation serves every bracket/Frobenius/
basic-connection check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ChartExitError, DegenerateMetricError
from .jets import Jet, TangentPoint
from .metrics import CONDITION_LIMIT, FinslerMetric, _F_and_F2

# -- jet-valued dense linear algebra (n <= 4 matrices of jets) -----------------


def jet_matrix_inverse(a):
    """Gauss-Jordan inverse with diagonal pivots.

    Valid for matrices with positive-definite values (the fundamental tensor
    and frame Grams): diagonal pivoting is stable there and avoids
    data-dependent row swaps, which would break batching.
    """
    n = len(a)
    work = [list(row) for row in a]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for k in range(n):
        ipiv = 1.0 / work[k][k]
        work[k] = [e * ipiv for e in work[k]]
        inv[k] = [e * ipiv for e in inv[k]]
        for i in range(n):
            if i == k:
                continue
            f = work[i][k]
            work[i] = [e - f * w for e, w in zip(work[i], work[k])]
            inv[i] = [e - f * w for e, w in zip(inv[i], inv[k])]
    return inv


def comp_value(c, B: int) -> np.ndarray:
    """Numeric value of one vector-field component (jet or constant)."""
    if isinstance(c, Jet):
        return c.value
    return np.full(B, float(c))


def comp_deriv(c, d: int):
    """Derivative tower of one component along chart variable d (None if 0)."""
    if isinstance(c, Jet):
        return c.deriv(d)
    return None


def components_values(comps, B: int) -> np.ndarray:
    """Stack a component list into a (B, len(comps)) array."""
    return np.stack([comp_value(c, B) for c in comps], axis=1)


def bracket(X, Y, order: int = 0):
    """Lie bracket of two vector fields given as 2n-component lists.

    [X, Y]^c = X^d d_d(Y^c) - Y^d d_d(X^c); consumes one derivative order of
    the component jets.  Constant (float) components contribute no derivative
    terms and are skipped.  Components are truncated to the requested output
    order (default: values only), which keeps the arithmetic off the
    expensive top-order tensors.
    """
    dim = len(X)

    def trunc(c, o):
        return c.truncated(o) if isinstance(c, Jet) else c

    out = []
    for c in range(dim):
        acc = None
        for d in range(dim):
            if not _is_zero(X[d]):
                dy = comp_deriv(trunc(Y[c], order + 1), d)
                if dy is not None:
                    term = trunc(X[d], order) * dy
                    acc = term if acc is None else acc + term
            if not _is_zero(Y[d]):
                dx = comp_deriv(trunc(X[c], order + 1), d)
                if dx is not None:
                    term = trunc(Y[d], order) * dx
                    acc = acc - term if acc is not None else -term
        out.append(0.0 if acc is None else acc)
    return out


def _is_zero(c) -> bool:
    return not isinstance(c, Jet) and float(c) == 0.0


def scale_field(f, comps):
    """Multiply a component list by a scalar (jet or number)."""
    return [0.0 if _is_zero(c) else f * c for c in comps]


def add_fields(*fields):
    out = []
    for comps in zip(*fields):
        live = [c for c in comps if not _is_zero(c)]
        if not live:
            out.append(0.0)
        else:
            acc = live[0]
            for c in live[1:]:
                acc = acc + c
            out.append(acc)
    return out


# -- the pipeline ---------------------------------------------------------------


class Workspace:
    """All derived geometry of one metric at a batch of chart points.

    Quantities are computed lazily and cached; everything is a pure function
    of (metric, x, y, order), so instances are safe to share read-only across
    threads.  `order` is the truncation order of the seed jets; order 4 keeps
    one derivative slot on the nonlinear connection, which the brackets of
    horizontal frame fields consume.
    """

    def __init__(self, metric: FinslerMetric, x: np.ndarray, y: np.ndarray, order: int = 4):
        self.metric = metric
        self.x = np.atleast_2d(np.asarray(x, dtype=float))
        self.y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.x.shape != self.y.shape:
            raise ValueError("x and y batches must have equal shapes")
        self.B, self.n = self.x.shape
        self.dim = 2 * self.n
        self.order = order

    # seeds -------------------------------------------------------------

    @cached_property
    def xj(self):
        return [Jet.variable(self.x[:, i], i, self.dim, self.order) for i in range(self.n)]

    @cached_property
    def yj(self):
        return [Jet.variable(self.y[:, i], self.n + i, self.dim, self.order) for i in range(self.n)]

    def yvar(self, i: int) -> int:
        return self.n + i

    def _require_order(self, quantity: str, order: int) -> None:
        """Fail clearly when `quantity` needs deeper seed jets than this
        workspace carries (each derivative consumes one jet order)."""
        if self.order < order:
            raise ValueError(
                f"Workspace.{quantity} needs jet order >= {order}; this workspace has order {self.order}"
            )

    # scalars -------------------------------------------------------------

    @cached_property
    def L(self) -> Jet:
        return _F_and_F2(self.metric, self.xj, self.yj, self.x, self.y)[1]

    @cached_property
    def F(self) -> Jet:
        return self.L.sqrt()

    @cached_property
    def F_val(self) -> np.ndarray:
        return self.F.value

    @cached_property
    def L_val(self) -> np.ndarray:
        return self.L.value

    # fundamental tensor ---------------------------------------------------

    @cached_property
    def g(self):
        self._require_order("g", 2)
        n = self.n
        g = [[None] * n for _ in range(n)]
        for i in range(n):
            di = self.L.deriv(self.yvar(i))
            for j in range(i, n):
                gij = 0.5 * di.deriv(self.yvar(j))
                g[i][j] = gij
                g[j][i] = gij
        return g

    @cached_property
    def g_val(self) -> np.ndarray:
        return np.stack([np.stack([self.g[i][j].value for j in range(self.n)], axis=1) for i in range(self.n)], axis=1)

    @cached_property
    def ginv(self):
        """Jet inverse of g; the diagonal-pivot elimination it uses needs g
        positive definite and well conditioned at every point."""
        cond = np.linalg.cond(self.g_val)
        lowest = np.linalg.eigvalsh(self.g_val)[:, 0]
        bad = ~(cond < CONDITION_LIMIT) | ~(lowest > 0.0)
        if np.any(bad):
            k = int(np.argmax(bad))
            if lowest[k] > 0.0:
                what = f"ill-conditioned (cond={cond[k]:.3e})"
            else:
                what = f"not positive definite (lowest eigenvalue {lowest[k]:.3e})"
            raise DegenerateMetricError(
                f"fundamental tensor {what} at x={self.x[k].tolist()}, y={self.y[k].tolist()}",
                x=self.x[k],
                y=self.y[k],
            )
        return jet_matrix_inverse(self.g)

    @cached_property
    def ginv_val(self) -> np.ndarray:
        return np.linalg.inv(self.g_val)

    # spray and nonlinear connection ---------------------------------------

    @cached_property
    def spray_G(self):
        """Spray coefficients G^i = (1/4) g^{ik} (d2F2/dy^k dx^h y^h - dF2/dx^k)."""
        n = self.n
        A = []
        for k in range(n):
            dk = self.L.deriv(self.yvar(k))
            acc = None
            for h in range(n):
                term = self.yj[h] * dk.deriv(h)
                acc = term if acc is None else acc + term
            A.append(acc - self.L.deriv(k))
        G = []
        for i in range(n):
            acc = None
            for k in range(n):
                term = self.ginv[i][k] * A[k]
                acc = term if acc is None else acc + term
            G.append(0.25 * acc)
        return G

    @cached_property
    def N(self):
        """Nonlinear connection N[j][i] = dG^j/dy^i (jets, one order left)."""
        self._require_order("N", 3)
        return [[self.spray_G[j].deriv(self.yvar(i)) for i in range(self.n)] for j in range(self.n)]

    @cached_property
    def G_val(self) -> np.ndarray:
        return np.stack([gj.value for gj in self.spray_G], axis=1)

    @cached_property
    def N_val(self) -> np.ndarray:
        return np.stack(
            [np.stack([self.N[j][i].value for i in range(self.n)], axis=1) for j in range(self.n)], axis=1
        )

    @cached_property
    def dN_val(self) -> np.ndarray:
        """dN[b, j, i, k] = dN^j_i/dy^k (values)."""
        self._require_order("dN_val", 4)
        n = self.n
        return np.stack(
            [
                np.stack(
                    [np.stack([self.N[j][i].deriv(self.yvar(k)).value for k in range(n)], axis=1) for i in range(n)],
                    axis=1,
                )
                for j in range(n)
            ],
            axis=1,
        )

    @cached_property
    def deltaN_val(self) -> np.ndarray:
        """deltaN[b, j, i, k] = delta N^j_i / delta x^k (values)."""
        self._require_order("deltaN_val", 4)
        n = self.n
        Nx = np.stack(
            [
                np.stack(
                    [np.stack([self.N[j][i].deriv(k).value for k in range(n)], axis=1) for i in range(n)],
                    axis=1,
                )
                for j in range(n)
            ],
            axis=1,
        )
        return Nx - np.einsum("blk,bjil->bjik", self.N_val, self.dN_val)

    @cached_property
    def R_val(self) -> np.ndarray:
        """Curvature of the nonlinear connection: R[b, k, i, j] = deltaN^k_j/dx^i - deltaN^k_i/dx^j."""
        dN = self.deltaN_val
        return dN.transpose(0, 1, 3, 2) - dN

    # Liouville data --------------------------------------------------------

    @cached_property
    def t(self):
        """t_k = dF/dy^k / F = dF2/dy^k / (2 F^2) (jets, one order down)."""
        return [self.L.deriv(self.yvar(k)) / (2.0 * self.L) for k in range(self.n)]

    @cached_property
    def t_val(self) -> np.ndarray:
        return np.stack([tk.value for tk in self.t], axis=1)

    @cached_property
    def E(self):
        """Coefficients of the orthogonal vertical fields in the dy basis:
        E[k][i] = delta^i_k - t_k y^i."""
        n = self.n
        return [[(1.0 if i == k else 0.0) - self.t[k] * self.yj[i] for i in range(n)] for k in range(n)]

    @cached_property
    def E_val(self) -> np.ndarray:
        return np.stack(
            [np.stack([comp_value(self.E[k][i], self.B) for i in range(self.n)], axis=1) for k in range(self.n)],
            axis=1,
        )

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

    # frame fields (coordinate components, lists of 2n entries) --------------

    def vf_dx(self, i: int):
        """delta/delta x^i = d/dx^i - N^j_i d/dy^j."""
        comps = [0.0] * self.dim
        comps[i] = 1.0
        for j in range(self.n):
            comps[self.n + j] = -self.N[j][i]
        return comps

    def vf_dy(self, i: int):
        comps = [0.0] * self.dim
        comps[self.n + i] = 1.0
        return comps

    def vf_gamma(self):
        """Vertical Liouville field y^i d/dy^i."""
        return [0.0] * self.n + list(self.yj)

    def vf_bar(self, k: int):
        """Orthogonal vertical field d/dy^k - t_k Gamma."""
        return [0.0] * self.n + [self.E[k][i] for i in range(self.n)]

    def vf_xi(self):
        """Horizontal Liouville field y^i delta/delta x^i."""
        comps = list(self.yj)
        for j in range(self.n):
            acc = None
            for i in range(self.n):
                term = self.yj[i] * self.N[j][i]
                acc = term if acc is None else acc + term
            comps.append(-acc)
        return comps

    def vf_bar_delta(self, k: int):
        """Horizontal image E_k^i delta/delta x^i of the k-th vertical field."""
        comps = [self.E[k][i] for i in range(self.n)]
        for j in range(self.n):
            acc = None
            for i in range(self.n):
                term = self.E[k][i] * self.N[j][i]
                acc = term if acc is None else acc + term
            comps.append(-acc)
        return comps

    # Sasaki metric and almost complex structure on components ----------------

    def hv_split_values(self, comps_val: np.ndarray):
        """Split coordinate components (B, 2n) into horizontal/vertical frame
        coefficients: h^i = u_x^i, v^j = u_y^j + N^j_i u_x^i."""
        h = comps_val[:, : self.n]
        v = comps_val[:, self.n :] + np.einsum("bji,bi->bj", self.N_val, h)
        return h, v

    def sasaki_values(self, u_val: np.ndarray, w_val: np.ndarray) -> np.ndarray:
        hu, vu = self.hv_split_values(u_val)
        hw, vw = self.hv_split_values(w_val)
        return np.einsum("bij,bi,bj->b", self.g_val, hu, hw) + np.einsum("bij,bi,bj->b", self.g_val, vu, vw)

    @cached_property
    def sasaki_coordinate_val(self) -> np.ndarray:
        """Sasaki metric in the coordinate frame: B^T diag(g, g) B with
        B = [[I, 0], [N, I]] the coordinate-to-adapted component map."""
        B, n = self.B, self.n
        ident = np.broadcast_to(np.eye(n), (B, n, n))
        zero = np.zeros((B, n, n))
        Bmat = np.block([[ident, zero], [self.N_val, ident]])
        Gd = np.block([[self.g_val, zero], [zero, self.g_val]])
        return np.einsum("bki,bkl,blj->bij", Bmat, Gd, Bmat)

    @cached_property
    def complex_structure_val(self) -> np.ndarray:
        """J acting on coordinate components: blocks [[N, I], [-(N^2 + I), -N]]."""
        B, n = self.B, self.n
        ident = np.broadcast_to(np.eye(n), (B, n, n))
        NN = np.einsum("bij,bjk->bik", self.N_val, self.N_val)
        return np.block([[self.N_val, ident], [-(NN + ident), -self.N_val]])

    def gamma_values(self) -> np.ndarray:
        return np.concatenate([np.zeros_like(self.y), self.y], axis=1)

    def hv_split(self, comps):
        """Jet version of the horizontal/vertical split."""
        h = comps[: self.n]
        v = []
        for j in range(self.n):
            acc = comps[self.n + j]
            for i in range(self.n):
                if not _is_zero(h[i]):
                    acc = acc + self.N[j][i] * h[i]
            v.append(acc)
        return h, v

    def sasaki(self, u, w, order: int = 1) -> Jet:
        """Sasaki inner product of two component lists, as a jet of the
        requested order (default 1: enough for one directional derivative)."""

        def trunc(c):
            return c.truncated(order) if isinstance(c, Jet) else c

        hu, vu = self.hv_split(u)
        hw, vw = self.hv_split(w)
        acc = None
        for i in range(self.n):
            for j in range(self.n):
                for a, b in ((hu[i], hw[j]), (vu[i], vw[j])):
                    if _is_zero(a) or _is_zero(b):
                        continue
                    term = self.g[i][j].truncated(order) * trunc(a) * trunc(b)
                    acc = term if acc is None else acc + term
        return acc if acc is not None else 0.0

    def directional(self, X, s: Jet, order: int = 0) -> Jet:
        """Derivative of scalar jet s along the vector field X (components),
        truncated to the requested output order (default: values only)."""
        acc = None
        strunc = s.truncated(order + 1)
        for d in range(self.dim):
            if _is_zero(X[d]):
                continue
            xd = X[d].truncated(order) if isinstance(X[d], Jet) else X[d]
            term = xd * strunc.deriv(d)
            acc = term if acc is None else acc + term
        return acc

    # projections (value level) ---------------------------------------------

    def project_off_gamma(self, w_val: np.ndarray) -> np.ndarray:
        """G-orthogonal projection killing the Gamma component (works inside
        V for the indicatrix split and on all of T for the F-level split)."""
        gam = self.gamma_values()
        coef = self.sasaki_values(w_val, gam) / self.L_val
        return w_val - coef[:, None] * gam

    def vertical_part_values(self, w_val: np.ndarray) -> np.ndarray:
        """Coordinate components of the vertical part: (0, u_y + N u_x)."""
        _, v = self.hv_split_values(w_val)
        return np.concatenate([np.zeros_like(v), v], axis=1)


# -- public spray API ------------------------------------------------------------


@dataclass(frozen=True)
class SprayData:
    """Spray coefficients, nonlinear connection and its y-derivative at a point."""

    G: np.ndarray  # (n,)
    N: np.ndarray  # (n, n): N[j, i] = dG^j/dy^i
    dN: np.ndarray  # (n, n, n): dN[j, i, k] = dN^j_i/dy^k
    at: TangentPoint


@dataclass(frozen=True)
class HorizontalFrame:
    """Rows of delta/delta x^i in the coordinate basis, plus the dual pair."""

    rows: np.ndarray  # (n, 2n)
    frame: np.ndarray  # (2n, 2n): rows = {delta/delta x, d/dy}
    coframe: np.ndarray  # (2n, 2n): rows = {dx, delta y}


def workspace_at(M: FinslerMetric, p: TangentPoint, order: int = 4) -> Workspace:
    return Workspace(M, p.x[None, :], p.y[None, :], order=order)


def spray(M: FinslerMetric, p: TangentPoint) -> SprayData:
    ws = workspace_at(M, p)
    return SprayData(G=ws.G_val[0], N=ws.N_val[0], dN=ws.dN_val[0], at=p)


def horizontal_frame(S: SprayData) -> HorizontalFrame:
    n = S.N.shape[0]
    rows = np.concatenate([np.eye(n), -S.N.T], axis=1)  # row i = (e_i, -N^._i)
    frame = np.block([[np.eye(n), -S.N.T], [np.zeros((n, n)), np.eye(n)]])
    coframe = np.block([[np.eye(n), np.zeros((n, n))], [S.N, np.eye(n)]])
    return HorizontalFrame(rows=rows, frame=frame, coframe=coframe)


def nonlinear_curvature(M: FinslerMetric, p: TangentPoint) -> np.ndarray:
    """R[k, i, j] = delta N^k_j/delta x^i - delta N^k_i/delta x^j (antisymmetric
    in (i, j) by construction)."""
    ws = workspace_at(M, p)
    return ws.R_val[0]


@dataclass(frozen=True)
class GeodesicResult:
    t: np.ndarray
    x: np.ndarray  # (steps+1, n)
    y: np.ndarray
    F: np.ndarray
    drift: float


def spray_values(M: FinslerMetric, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """G^i values only (order-2 evaluation), for the integrator."""
    x = np.atleast_2d(np.asarray(x, float))
    y = np.atleast_2d(np.asarray(y, float))
    n = x.shape[1]
    dim = 2 * n
    xs = [Jet.variable(x[:, i], i, dim, 2) for i in range(n)]
    ys = [Jet.variable(y[:, i], n + i, dim, 2) for i in range(n)]
    F = M.evaluate(xs, ys)
    L = F * F
    H = L.tensor(2)
    g = 0.5 * H[:, n:, n:]
    A = sum(y[:, h, None] * H[:, n:, h] for h in range(n)) - L.coeffs[1][:, :n]
    return 0.25 * np.einsum("bik,bk->bi", np.linalg.inv(g), A)


def integrate_geodesic(M: FinslerMetric, p0: TangentPoint, steps: int, dt: float) -> GeodesicResult:
    """Fixed-step RK4 on xdot = y, ydot = -2G(x, y).

    F is a first integral of the flow; the reported drift max_t |F - F(0)| is
    the conserved-quantity error and scales as dt^4.  Raises ChartExitError
    (with the last valid step index) if the position leaves the domain box.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = p0.n
    xs = np.empty((steps + 1, n))
    ys = np.empty((steps + 1, n))
    xs[0], ys[0] = p0.x, p0.y

    def rhs(x, y):
        return y, -2.0 * spray_values(M, x[None, :], y[None, :])[0]

    for k in range(steps):
        x0, y0 = xs[k], ys[k]
        k1x, k1y = rhs(x0, y0)
        k2x, k2y = rhs(x0 + 0.5 * dt * k1x, y0 + 0.5 * dt * k1y)
        k3x, k3y = rhs(x0 + 0.5 * dt * k2x, y0 + 0.5 * dt * k2y)
        k4x, k4y = rhs(x0 + dt * k3x, y0 + dt * k3y)
        xs[k + 1] = x0 + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        ys[k + 1] = y0 + dt / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
        if not M.in_box(xs[k + 1][None, :])[0]:
            raise ChartExitError(
                f"geodesic left the chart domain box after step {k + 1} "
                f"(x={xs[k + 1].tolist()}); last valid step index {k}",
                last_valid_index=k,
            )
    t = dt * np.arange(steps + 1)
    F = np.array([M.F(xs[k], ys[k]) for k in range(steps + 1)])
    return GeodesicResult(t=t, x=xs, y=ys, F=F, drift=float(np.abs(F - F[0]).max()))
