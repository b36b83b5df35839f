"""The frame contractions against numpy's einsum, and a guard against
three-operand einsum calls in the package.

Every contraction of the Sasaki, frame, chart and connection checks is a
stacked matrix product (where each point's operands have a fixed shape) or a
sum over one index in a fixed order (where a stack axis varies).  Each
rewritten site must equal the einsum formula it replaced, kept here as its
oracle, to a few ulps of the same contraction of the operands' absolute
values: a bound on the rounding of any summation order.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import finslerlab.charts as ch
import finslerlab.checks as checks
import finslerlab.connections as cn
import finslerlab.liouville as lv
import finslerlab.metrics as mt
import finslerlab.sasaki as sk
from finslerlab.jets import Jet
from finslerlab.metrics import sample_points
from finslerlab.spray import Workspace, directional

from helpers import CATALOG_NAMES, jet_poly_section, load_catalog_metric, stack

EPS = np.finfo(float).eps
ULPS = 8  # allowed error, in units of EPS times the contraction of absolute values

SRC = Path(__file__).resolve().parents[1] / "src" / "finslerlab"


def ein(formula: str, *ops):
    """The einsum oracle of a contraction and its scale, the same contraction
    of the operands' absolute values."""
    return np.einsum(formula, *ops), np.einsum(formula, *(np.abs(op) for op in ops))


def assert_close(got, want, scale, label):
    got, want = np.broadcast_arrays(got, want)
    assert got.shape == want.shape, label
    excess = np.abs(got - want) - ULPS * EPS * scale
    assert excess.max(initial=-1.0) <= 0.0, label


def stacked_fields(ws: Workspace, width: int, S: int = 3) -> Jet:
    """A (S, width) order-1 jet of random polynomial sections."""
    rng = np.random.default_rng(5)
    P = stack([jet_poly_section(ws, rng, 1) for _ in range(S * width)])
    return Jet(P.m, 1, P.buf.reshape(P.buf.shape[:2] + (S, width)))


@pytest.fixture(scope="module", params=CATALOG_NAMES)
def ws(request):
    M = load_catalog_metric(request.param)
    x, y = sample_points(M, 24, 11)
    return Workspace(M, x, y, order=4)


def test_workspace_contractions(ws):
    n = ws.n
    C = ws.coframe_val
    assert_close(ws.sasaki_coordinate_val, *ein("bki,bkl,blj->bij", C, ws.adapted_metric_val, C), "coordinate G")

    for comps in (ws.xi_field.value, ws.dx_bar_brackets):  # one vector, and a (n, n) stack
        h, v = ws.hv_split_values(comps)
        want, scale = ein("bji,b...i->b...j", ws.N_val, comps[..., :n])
        assert_close(v, comps[..., n:] + want, np.abs(comps[..., n:]) + scale, "hv split")

    gam = ws.gamma_field.value
    for u, w in ((ws.dx_bar_brackets, gam), (ws.dx_bar_brackets, ws.dx_bar_brackets)):
        (hu, vu), (hw, vw) = ws.hv_split_values(u), ws.hv_split_values(w)
        horizontal, vertical = ein("bij,b...i,b...j->b...", ws.g_val, hu, hw), ein("bij,b...i,b...j->b...", ws.g_val, vu, vw)
        assert_close(ws.sasaki_values(u, w), horizontal[0] + vertical[0], horizontal[1] + vertical[1], "sasaki")


def test_sasaki_contractions(ws):
    B, n, L = ws.B, ws.n, ws.L_val
    rows, Jc, Gc = ws.frame_val, ws.complex_structure_val, ws.sasaki_coordinate_val
    res = sk.compatibility_residuals(ws)
    gram, gram_scale = ein("bai,bij,bcj->bac", rows, Gc, rows)
    jrows = np.einsum("bai,bji->baj", rows, Jc)
    jgram, jgram_scale = ein("bai,bij,bcj->bac", jrows, Gc, jrows)
    roundtrip = np.abs(gram - ws.adapted_metric_val).max(axis=(1, 2)) / L
    assert_close(res["coordinate_roundtrip"], roundtrip, gram_scale.max(axis=(1, 2)) / L, "gram")
    compat = np.abs(jgram - gram).max(axis=(1, 2)) / L
    assert_close(res["j_compatibility"], compat, (jgram_scale + gram_scale).max(axis=(1, 2)) / L, "J gram")

    X, Y = ws.dx_dx_brackets.reshape(B, -1, 2 * n), ws.dx_bar_brackets.reshape(B, -1, 2 * n)
    Om = sk.kahler_coordinate_invariant(Jc, Gc)
    assert_close(sk.frame_pairings(X, Om, Y), *ein("bti,bij,btj->bt", X, Om, Y), "closedness pairings")


def test_frame_pack_and_orthogonality_contractions(ws):
    P = lv.pack_rows(ws)
    assert_close(lv.pack_gram(ws, P), *ein("bai,bij,bcj->bac", P, ws.sasaki_coordinate_val, P), "pack gram")
    inner, scale = ein("bij,bki,bj->bk", ws.g_val, ws.E_val, ws.y)
    got = lv.orthogonality_residuals(ws)
    assert_close(got, np.abs(inner).max(axis=1) / ws.L_val, scale.max(axis=1) / ws.L_val, "orthogonality")


def test_chart_contractions(ws):
    n = ws.n
    for C in ch.chart_catalog(n):
        wt = ch.target_workspace(ws.metric, C, ws.x, ws.y)
        res = ch.chart_residuals(C, ws, wt)
        Dpsi, J = C.inverse_jacobian(wt.x), C.induced_jacobian(ws.x, ws.y)[:, :n, :n]
        g_push, scale = ein("bki,bkl,blj->bij", Dpsi, ws.g_val, Dpsi)
        norm = np.abs(wt.g_val).max(axis=(1, 2))
        want = np.abs(wt.g_val - g_push).max(axis=(1, 2)) / norm
        assert_close(res["metric_tensor_rule"], want, scale.max(axis=(1, 2)) / norm, C.name)
        rhs, scale = ein("bki,bjl,bkl->bij", Dpsi, J, ws.E_val)
        assert_close(res["bar_frame_rule"], np.abs(wt.E_val - rhs).max(axis=(1, 2)), scale.max(axis=(1, 2)), C.name)


@pytest.mark.parametrize("name", ["riemann2", "riemann3"])
def test_christoffel_contraction(name):
    """The spray oracle of `special.spray_christoffel`, which reads a
    Riemannian metric's coefficients."""
    M = load_catalog_metric(name)
    x, y = sample_points(M, 24, 11)
    ws = Workspace(M, x, y, order=4)
    ctx = checks.ChunkContext(ws.metric, ws.x, ws.y)
    a = mt.coefficient_jet(ws.metric.params["a"], ws.x, 1)
    da = a.coeffs[1]
    lowered = da + da.transpose(0, 1, 3, 2) - da.transpose(0, 3, 1, 2)
    gamma = 0.5 * np.einsum("bil,bljk->bijk", np.linalg.inv(a.value), lowered)
    G, scale = ein("bijk,bj,bk->bi", gamma, ws.y, ws.y)
    denominator = np.abs(ws.G_val).max(axis=1) + ws.L_val
    want = np.abs(ws.G_val - 0.5 * G).max(axis=1) / denominator
    assert_close(checks._christoffel_oracle(ctx), want, 0.5 * scale.max(axis=1) / denominator, "christoffel")


def test_vaisman_solve_contractions(ws):
    n = ws.n
    pairs, mixed = cn._kept_brackets(ws)
    W = pairs[..., n:]
    assert_close(cn.vertical_pairings(ws, W, ws.E_kept_val), *ein("bkl,bpk,bcl->bpc", ws.g_val, W, ws.E_kept_val),
                 "gBR")
    w = ws.project_off_gamma(mixed)[..., n:]
    got = cn.vertical_pairings(ws, w, ws.E_kept_val)
    assert_close(got, *ein("bkl,bijk,bcl->bijc", ws.g_val, w, ws.E_kept_val), "mixed rows")


def test_connection_contractions(ws, monkeypatch):
    """The Vaisman coefficients (with mu solved from the recorded right-hand
    side, so the solve does not amplify the rounding), the Vaisman and
    direct-sum derivatives (with the recorded coefficients), for one field
    and for a stack of fields."""
    n = ws.n
    vs, Fc = cn.solve_vaisman(ws), cn.vranceanu_values(ws)["Fc"]
    E_kept, t = ws.E_kept_val, ws.t_val
    solve, coefficients = np.linalg.solve, cn._vaisman_coefficients
    seen = {}

    def recording_solve(a, b):
        seen["mu_rhs"] = b[..., 0]
        return solve(a, b)

    def recording_coefficients(*args):
        seen["coef"] = coefficients(*args)
        return seen["coef"]

    P = stacked_fields(ws, 4 * n - 1)
    for F in (P, P[0]):  # a stack of fields and sections, and one of each
        X, H, zeta = F[..., : 2 * n], F[..., 2 * n : 3 * n], F[..., 3 * n :]
        Xval = X.value

        def per_point(a):
            return cn._per_point(a, Xval)

        # coefficients: lam, the mu right-hand side (whose scale also bounds
        # the rounding of lam), then coef from the recorded mu
        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        got = cn._vaisman_coefficients(ws, vs, Xval)
        monkeypatch.setattr(np.linalg, "solve", solve)
        Xh, vvert = ws.hv_split_values(Xval)
        lam, lam_scale = ein("bj,b...j->b...", t, vvert)
        bar_part = vvert - lam[..., None] * per_point(ws.y)
        bar_scale = np.abs(vvert) + lam_scale[..., None] * per_point(np.abs(ws.y))
        mu_rhs = "bai,bij,b...j->b...a"
        assert_close(seen["mu_rhs"], ein(mu_rhs, E_kept, ws.g_val, bar_part)[0],
                     ein(mu_rhs, E_kept, ws.g_val, bar_scale)[1], "mu rhs")
        mu = solve(per_point(vs.gram_kept), seen["mu_rhs"][..., None])[..., 0]
        (ms, ms_scale), (xb, xb_scale) = ein("b...c,bcae->b...ae", mu, vs.s_bar), ein("b...i,biae->b...ae", Xh, vs.beta)
        eye = np.eye(n - 1)
        assert_close(got, ms - lam[..., None, None] * eye + xb,
                     ms_scale + lam_scale[..., None, None] * eye + xb_scale, "coef")

        # the Vaisman derivative of a section over the kept frame
        monkeypatch.setattr(cn, "_vaisman_coefficients", recording_coefficients)
        got = cn.apply_vaisman(ws, vs, X, zeta)
        terms = [ein("b...a,bai->b...i", directional(X, zeta), E_kept),
                 ein("b...a,b...ae,bei->b...i", zeta.value, seen["coef"], E_kept)]
        assert_close(got, sum(v for v, _ in terms), sum(s for _, s in terms), "apply_vaisman")

        # the horizontal restriction and the direct sum
        Hv = H.value
        got = cn.apply_horizontal_connection(ws, Fc, X, H)
        d = directional(X, H)
        FH, FH_scale = ein("b...j,bkij,b...i->b...k", Xval[..., :n], Fc, Hv)
        assert_close(got, d + FH, np.abs(d) + FH_scale, "horizontal")
        got = cn.apply_composite(ws, vs, Fc, X, H, zeta)
        lhs_v = cn.apply_vaisman(ws, vs, X, zeta)
        NH, NH_scale = ein("bji,b...i->b...j", ws.N_val, got[..., :n])
        assert_close(got[..., n:], lhs_v - NH, np.abs(lhs_v) + NH_scale, "composite")
        monkeypatch.setattr(cn, "_vaisman_coefficients", coefficients)


def _einsum_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else f.id if isinstance(f, ast.Name) else None
            if name == "einsum":
                yield node


def test_no_einsum_with_three_or_more_operands():
    """numpy's einsum runs a contraction of three or more operands as one
    unvectorised loop; the package writes such contractions as pairwise
    products instead.  Fails naming file:line of each such call."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for call in _einsum_calls(ast.parse(path.read_text(), filename=str(path))):
            operands = len(call.args) - 1  # the first argument is the subscripts string
            if operands >= 3 or any(isinstance(a, ast.Starred) for a in call.args):
                offenders.append(f"{path.name}:{call.lineno}")
    assert offenders == []


def test_the_einsum_guard_sees_a_three_operand_call():
    source = "import numpy as np\nx = np.einsum('ij,jk,kl->il', a, b, c)\ny = np.einsum('ij,jk->ik', a, b)\n"
    calls = list(_einsum_calls(ast.parse(source)))
    assert [(c.lineno, len(c.args) - 1) for c in calls] == [(2, 3), (3, 2)]
