"""Two-chart consistency: tensor changing rules and the frame determinant.

A chart map is a diffeomorphism xtilde = phi(x) with an exact inverse psi,
both held as straight-line programs: functions from a list of n scalars to a
list of n scalars that use only +, - and products.  The scalars may be floats,
numpy arrays or jets, so one program gives the map's values, its Jacobian and
second derivatives (order-1 and order-2 jets over the n x-variables), and, run
once on (value, tangent) pairs, the induced map (xt, yt) -> (psi(xt),
Dpsi(xt) yt).  The catalog holds one map, a unipotent triangular cubic shear
composed with a linear map; the shear is inverted by its back substitution,
O(n) products.  At shear size 0 the map is that linear map, so the catalog
keeps no linear map beside it.  Nor does it hold an identity map: that is no
change of chart, its Jacobians are exactly I and its target pipeline
evaluates F again at the same points, so every residual would read 0.0 by
construction (the tests keep it as a self-test of the machinery).  The
pushed-forward metric Ftilde(xt, yt) = F(psi(xt), Dpsi(xt) yt) is evaluated
through that pair pass in the target workspace's own jets, so the
target-chart pipeline is as exact as the source and never uses the
transformation laws it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .jets import Jet, TangentPoint
from .metrics import FinslerMetric
from .spray import Workspace, gather_rows, workspace_at

# -- chart map --------------------------------------------------------------------


def _derivatives(program: Callable, x: np.ndarray, r: int) -> np.ndarray:
    """Order-r derivatives of a chart program at the points x, with entries
    [b, i, k1, .., kr] = d^r f_i / dx_k1 .. dx_kr.  Returned C-ordered, like
    every other batch array: einsum's accumulation order follows the memory
    layout of its operands."""
    x = np.atleast_2d(np.asarray(x, float))
    n = x.shape[1]
    out = program(list(Jet.variable(x, 0, n, r)))
    return np.ascontiguousarray(np.stack([f.tensor(r) for f in out], axis=1))


@dataclass(frozen=True)
class ChartMap:
    """Diffeomorphism xtilde = phi(x) with exact inverse psi = phi^{-1}, both
    straight-line programs on lists of n scalars (floats, arrays or jets)."""

    n: int
    name: str
    forward: Callable  # phi: list of n scalars -> list of n scalars
    inverse: Callable  # psi

    def __post_init__(self):
        xs = np.random.default_rng(3).uniform(-1.0, 1.0, size=(16, self.n))
        dets = np.linalg.det(self.jacobian(xs))
        if np.any(np.abs(dets) <= 1e-3):
            raise ConfigError(f"chart map {self.name}: |det Dphi| <= 1e-3 on the domain box")
        # round trip must be identity to roundoff
        back = self.apply_inverse(self.apply(xs))
        if np.abs(back - xs).max() > 1e-9:
            raise ConfigError(f"chart map {self.name}: inverse is not exact")

    # evaluation (plain values, batched)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.stack(self.forward(list(np.atleast_2d(np.asarray(x, float)).T)), axis=1)

    def apply_inverse(self, xt: np.ndarray) -> np.ndarray:
        return np.stack(self.inverse(list(np.atleast_2d(np.asarray(xt, float)).T)), axis=1)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Dphi with entries [b, i, k] = d phi_i / d x_k."""
        return _derivatives(self.forward, x, 1)

    def inverse_jacobian(self, xt: np.ndarray) -> np.ndarray:
        """Dpsi (= dx/dxtilde) evaluated at target points."""
        return _derivatives(self.inverse, xt, 1)

    def second_derivative(self, x: np.ndarray) -> np.ndarray:
        """D2phi with entries [b, i, k, l]."""
        return _derivatives(self.forward, x, 2)

    def induced_jacobian(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The 2n x 2n Jacobian [[J, 0], [D2phi . y, J]], J = Dphi(x), of the
        induced map (x, y) -> (phi(x), Dphi(x) y) on the slit tangent bundle,
        at a batch of points (B, n)."""
        B, n = x.shape
        J = self.jacobian(x)
        full = np.zeros((B, 2 * n, 2 * n))
        full[:, :n, :n] = J
        full[:, n:, n:] = J
        full[:, n:, :n] = np.einsum("bikl,bk->bil", self.second_derivative(x), y)
        return full


# -- catalog -----------------------------------------------------------------------


def _linear_program(A: np.ndarray) -> Callable:
    """x -> A x, skipping zero entries."""
    rows = [[(k, float(a)) for k, a in enumerate(row) if a != 0.0] for row in A]

    def program(xs):
        out = []
        for row in rows:
            acc = 0.0
            for k, a in row:
                acc = acc + a * xs[k]
            out.append(acc)
        return out

    return program


_LINEAR_MIX = 0.3


def _default_linear_matrix(n: int) -> np.ndarray:
    A = np.eye(n)
    for i in range(n):
        A[i, (i + 1) % n] += _LINEAR_MIX
        A[i, i] += 0.1 * i
    return A


def cubic_map(n: int, eps: float = 0.3, A: np.ndarray | None = None) -> ChartMap:
    """phi = A o u with u a unipotent triangular cubic shear:
    u_0 = x_0, u_1 = x_1 + eps x_0^3, u_i = x_i + eps x_{i-2} x_{i-1} (i >= 2).
    psi = u^{-1} o A^{-1}, with u^{-1} the back substitution of the shear.
    At eps = 0 it is the linear map A: its Jacobian is A and its second
    derivative exactly 0."""
    A = _default_linear_matrix(n) if A is None else np.asarray(A, float)
    if abs(np.linalg.det(A)) <= 1e-3:  # det Dphi = det A, as u is unipotent; checked before A is inverted
        raise ConfigError("chart map cubic: |det Dphi| <= 1e-3 on the domain box")
    to_target = _linear_program(A)
    to_shear = _linear_program(np.linalg.inv(A))

    def shear_term(i, v):
        return v[0] * v[0] * v[0] if i == 1 else v[i - 2] * v[i - 1]

    def forward(xs):
        return to_target([xs[0]] + [xs[i] + eps * shear_term(i, xs) for i in range(1, n)])

    def inverse(xts):
        z = to_shear(xts)
        for i in range(1, n):
            z[i] = z[i] - eps * shear_term(i, z)  # reads z[i-2], z[i-1], already inverted
        return z

    return ChartMap(n, "cubic", forward, inverse)


def chart_catalog(n: int) -> list:
    return [cubic_map(n)]


# -- pushforward -------------------------------------------------------------------


class _Tangent:
    """A scalar with its derivative along one direction: (value, tangent)
    under +, - and products, so a chart program run on pairs seeded with
    (xt_k, yt_k) returns (psi(xt), Dpsi(xt) yt)."""

    __slots__ = ("v", "t")

    def __init__(self, v, t):
        self.v = v
        self.t = t

    def __add__(self, other):
        if isinstance(other, _Tangent):
            return _Tangent(self.v + other.v, self.t + other.t)
        return _Tangent(self.v + other, self.t)

    __radd__ = __add__

    def __neg__(self):
        return _Tangent(-self.v, -self.t)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _Tangent):
            return _Tangent(self.v * other.v, self.t * other.v + self.v * other.t)
        return _Tangent(self.v * other, self.t * other)

    __rmul__ = __mul__


def pushforward_metric(M: FinslerMetric, C: ChartMap) -> FinslerMetric:
    """The same Finsler structure expressed in the target chart."""
    n = M.n

    def ev(xt, yt):
        pairs = C.inverse([_Tangent(a, b) for a, b in zip(xt, yt)])
        return M.evaluate([p.v for p in pairs], [p.t for p in pairs])

    wide = np.array([[-1e6, 1e6]] * n)
    return FinslerMetric(n, M.family, ev, wide, name=f"{M.name}@{C.name}", params=M.params)


def target_workspace(M: FinslerMetric, C: ChartMap, x: np.ndarray, y: np.ndarray) -> Workspace:
    """The order-3 pipeline of the pushed-forward metric at the images
    (phi(x), Dphi(x) y) of the source points (B, n)."""
    yt = np.einsum("bik,bk->bi", C.jacobian(x), y)
    return Workspace(pushforward_metric(M, C), C.apply(x), yt, order=3)


# -- two-chart residuals -------------------------------------------------------------


def _frame_change_closed(ws: Workspace, wt: Workspace, Dpsi: np.ndarray) -> np.ndarray:
    """Per point, the closed form (-1)^(m+k) (ytilde^k / y^m) det Dpsi of the
    determinant of the change of basis between {bar (drop m), Gamma} at the
    source and the pulled target {bar-tilde (drop k), Gamma}."""
    sign = np.where((ws.dropped_index + wt.dropped_index) % 2 == 0, 1.0, -1.0)
    return sign * (wt.y_dropped / ws.y_dropped) * np.linalg.det(Dpsi)


def chart_residuals(C: ChartMap, ws: Workspace, wt: Workspace) -> dict:
    """All two-chart consistency residuals between the source pipeline `ws`,
    of order 4 as it reads `frame_val`, and the target pipeline `wt`
    (`target_workspace` at the same points).

    Index conventions: J[b, i, k] = dphi_i/dx_k (dxtilde/dx) at the source
    points; Dpsi[b, i, k] = dpsi_i/dxtilde_k (dx/dxtilde) at the images.
    Vertical vectors push forward with J and pull back with Dpsi.
    """
    y, n = ws.y, ws.n
    Jfull = C.induced_jacobian(ws.x, y)
    J = np.ascontiguousarray(Jfull[:, :n, :n])
    Dpsi = C.inverse_jacobian(wt.x)

    res = {}
    res["scalar_invariance"] = np.abs(ws.F_val - wt.F_val) / ws.F_val

    # covector rule: ttilde_k1 = (dx^k/dxtilde^k1) t_k
    t_push = np.einsum("bki,bk->bi", Dpsi, ws.t_val)
    res["covector_rule"] = np.abs(wt.t_val - t_push).max(axis=1) * ws.F_val

    # fundamental tensor transforms as a (0,2) tensor in the y slot
    g_push = Dpsi.transpose(0, 2, 1) @ ws.g_val @ Dpsi
    res["metric_tensor_rule"] = np.abs(wt.g_val - g_push).max(axis=(1, 2)) / np.abs(wt.g_val).max(axis=(1, 2))

    # vertical frame rule: bar-tilde_i1 = (dx^k/dxtilde^i1) bar_k, compared in
    # target coordinates (source coefficients pushed with J)
    rhs = Dpsi.transpose(0, 2, 1) @ ws.E_val @ J.transpose(0, 2, 1)
    res["bar_frame_rule"] = np.abs(wt.E_val - rhs).max(axis=(1, 2))

    # kept-frame relation: pull target kept fields back and expand them over
    # the kept source fields with Q[i, i1] = Dpsi[i, i1] - (y^i/y^m) Dpsi[m, i1]
    Dm = gather_rows(Dpsi, ws.dropped_index)
    Q = Dpsi - (y / ws.y_dropped[:, None])[:, :, None] * Dm[:, None, :]
    pulled = np.einsum("blj,bij->bil", Dpsi, wt.E_val)  # [b, target field i1, source coeff l]
    expansion = np.einsum("bqi,bql->bil", gather_rows(Q, ws.kept_indices), ws.E_kept_val)  # [b, i1, coeff l]
    lhs_kept = gather_rows(pulled, wt.kept_indices)
    rhs_kept = gather_rows(expansion, wt.kept_indices)
    res["kept_frame_rule"] = np.abs(lhs_kept - rhs_kept).max(axis=(1, 2))

    # the same change of basis, numerically: {pulled kept fields, Gamma} over {kept fields, Gamma}
    S = np.concatenate([ws.E_kept_val, y[:, None, :]], axis=1)
    T = np.concatenate([lhs_kept, y[:, None, :]], axis=1)
    det_numeric = np.linalg.det(T) / np.linalg.det(S)
    det_closed = _frame_change_closed(ws, wt, Dpsi)
    res["determinant_formula"] = np.abs(det_numeric - det_closed) / np.abs(det_closed)

    # horizontal frame pushes to horizontal frame (vertical leakage at image)
    pushed = np.einsum("bci,bai->bac", Jfull, ws.frame_val[:, :n])
    vert = wt.hv_split_values(pushed)[1]
    res["horizontal_pushforward"] = np.abs(vert).max(axis=(1, 2)) / (1.0 + np.abs(pushed).max(axis=(1, 2)))
    return res


# -- public per-point op ---------------------------------------------------------------


def chart_checks(M: FinslerMetric, C: ChartMap, p: TangentPoint) -> dict:
    """Every `chart_residuals` residual at one point, for any chart map C of
    the metric's dimension, between the sweep's order-4 source pipeline and
    the order-3 target pipeline there."""
    if C.n != M.n:
        raise ValueError(f"chart map {C.name} is of dimension {C.n}, the metric {M.name} of dimension {M.n}")
    ws = workspace_at(M, p)
    return {k: float(v[0]) for k, v in chart_residuals(C, ws, target_workspace(M, C, ws.x, ws.y)).items()}
