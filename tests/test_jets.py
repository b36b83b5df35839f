"""Jet arithmetic: exactness, symmetry, and the finite-difference oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab.errors import SingularEvaluationError
from finslerlab.jets import (
    _GATHER_LIMIT,
    Jet,
    Jet3,
    ScalarField,
    TangentPoint,
    _compose_plan,
    _mul_plan,
    eval_jet3,
    fd_oracle,
    sqrt,
    stack,
)
from finslerlab.spray import directional

from helpers import per_rank_compose, per_rank_deriv, per_rank_mul, randers2


def quadratic_field():
    return ScalarField(2, lambda x, y: y[0] ** 2 + y[1] ** 2)


def test_polynomial_example():
    p = TangentPoint([0.0, 0.0], [3.0, 4.0])
    j = eval_jet3(quadratic_field(), p, ["y0", "y1"])
    assert j.value == 25.0
    assert np.array_equal(j.grad, [6.0, 8.0])
    assert np.array_equal(j.hess, 2.0 * np.eye(2))
    assert np.all(j.third == 0.0)


def test_constant_field():
    f = ScalarField(2, lambda x, y: 4.25)
    j = eval_jet3(f, TangentPoint([0.1, 0.2], [1.0, -1.0]), ["x0", "y1"])
    assert j.value == 4.25
    assert np.all(j.grad == 0.0) and np.all(j.hess == 0.0) and np.all(j.third == 0.0)


def test_linear_field_second_order_fd():
    f = ScalarField(2, lambda x, y: 3.0 * y[0] - 2.0 * y[1] + x[0])
    p = TangentPoint([0.5, 0.0], [1.0, 1.0])
    assert abs(fd_oracle(f, p, ["y0", "y1"])) < 1e-7


def test_fd_cubic_third_derivative():
    f = ScalarField(1, lambda x, y: y[0] ** 3)
    assert fd_oracle(f, TangentPoint([0.0], [1.3]), ["y0", "y0", "y0"]) == pytest.approx(6.0, abs=1e-6)


@pytest.mark.parametrize(
    "multi",
    [["y0"], ["x0"], ["y0", "y1"], ["x1", "y0"], ["y0", "y0", "y1"], ["x0", "y1", "y1"], ["y1", "y1", "y1"]],
)
def test_randers_jets_match_fd(multi):
    M = randers2()
    f = M.field_F
    p = TangentPoint([0.3, -0.5], [1.1, 0.6])
    active = ["x0", "x1", "y0", "y1"]
    j = eval_jet3(f, p, active)
    idx = [active.index(v) for v in multi]
    if len(idx) == 1:
        ad = j.grad[idx[0]]
    elif len(idx) == 2:
        ad = j.hess[idx[0], idx[1]]
    else:
        ad = j.third[idx[0], idx[1], idx[2]]
    fd = fd_oracle(f, p, multi)
    assert ad == pytest.approx(fd, rel=1e-6)


def test_active_variable_masking():
    M = randers2()
    p = TangentPoint([0.3, -0.5], [1.1, 0.6])
    full = eval_jet3(M.field_F, p, ["x0", "x1", "y0", "y1"])
    ysub = eval_jet3(M.field_F, p, ["y0", "y1"])
    assert ysub.value == full.value
    assert np.array_equal(ysub.grad, full.grad[2:])
    assert np.array_equal(ysub.hess, full.hess[2:, 2:])


def test_hessian_and_third_exactly_symmetric():
    M = randers2()
    j = eval_jet3(M.field_F, TangentPoint([0.2, 0.1], [0.9, -1.2]), ["x0", "x1", "y0", "y1"])
    assert np.array_equal(j.hess, j.hess.T)
    T = j.third
    for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        assert np.array_equal(T, T.transpose(perm))


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    y0=st.floats(0.3, 2.0),
    y1=st.floats(-2.0, -0.3),
)
def test_linearity_exact(a, b, y0, y1):
    f = ScalarField(2, lambda x, y: y[0] * y[0] * y[1] + y[1] ** 3)
    g = ScalarField(2, lambda x, y: y[0] * y[1] + 2.0 * y[0])
    combo = ScalarField(2, lambda x, y: a * f(x, y) + b * g(x, y))
    p = TangentPoint([0.0, 0.0], [y0, y1])
    jf = eval_jet3(f, p, ["y0", "y1"])
    jg = eval_jet3(g, p, ["y0", "y1"])
    jc = eval_jet3(combo, p, ["y0", "y1"])
    assert jc.value == a * jf.value + b * jg.value
    assert np.array_equal(jc.grad, a * jf.grad + b * jg.grad)
    assert np.array_equal(jc.hess, a * jf.hess + b * jg.hess)
    assert np.array_equal(jc.third, a * jf.third + b * jg.third)


@settings(max_examples=25, deadline=None)
@given(y0=st.floats(0.4, 1.8), y1=st.floats(0.4, 1.8), x0=st.floats(-0.9, 0.9))
def test_leibniz_through_order_three(y0, y1, x0):
    def fe(x, y):
        return sqrt(y[0] * y[0] + y[1] * y[1]) + 0.2 * x[0] * y[0]

    def ge(x, y):
        return y[0] * y[1] + x[0] * x[0] + 1.5

    prod = ScalarField(2, lambda x, y: fe(x, y) * ge(x, y))
    p = TangentPoint([x0, 0.1], [y0, y1])
    active = ["x0", "y0", "y1"]
    jf = eval_jet3(ScalarField(2, fe), p, active)
    jg = eval_jet3(ScalarField(2, ge), p, active)
    jp = eval_jet3(prod, p, active)

    conv_val = jf.value * jg.value
    conv_grad = jf.grad * jg.value + jf.value * jg.grad
    conv_hess = (
        jf.hess * jg.value
        + jf.value * jg.hess
        + np.einsum("i,j->ij", jf.grad, jg.grad)
        + np.einsum("i,j->ij", jg.grad, jf.grad)
    )
    conv_third = jf.third * jg.value + jf.value * jg.third
    for g1, h2 in ((jf.grad, jg.hess), (jg.grad, jf.hess)):
        conv_third = conv_third + np.einsum("i,jk->ijk", g1, h2)
        conv_third = conv_third + np.einsum("j,ik->ijk", g1, h2)
        conv_third = conv_third + np.einsum("k,ij->ijk", g1, h2)

    scale = abs(conv_val) + 1.0
    assert jp.value == pytest.approx(conv_val, rel=1e-14)
    assert np.abs(jp.grad - conv_grad).max() <= 1e-14 * scale
    assert np.abs(jp.hess - conv_hess).max() <= 1e-14 * scale
    assert np.abs(jp.third - conv_third).max() <= 1e-13 * scale


def test_internal_tower_matches_compose_closed_forms():
    vals = np.array([1.5, 0.7, 2.0])
    v = Jet.variable(vals, 0, 2, 4)
    s = v.sqrt()
    assert np.abs(s.tensor(4)[:, 0, 0, 0, 0] - (-15.0 / 16.0) * vals**-3.5).max() < 1e-15
    r = 1.0 / v
    assert np.abs(r.tensor(4)[:, 0, 0, 0, 0] - 24.0 * vals**-5.0).max() < 1e-14


def _random_jet(m, order, B, seed):
    """A non-polynomial jet of a random linear form, so every order is dense."""
    rng = np.random.default_rng(seed)
    lin = sum(Jet.variable(rng.uniform(-1, 1, B), i, m, order) * rng.uniform(-0.6, 0.6) for i in range(m))
    return (lin * lin + 1.2).sqrt() + lin.sin()


@pytest.mark.parametrize("m", [2, 4, 8])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_derivative_tensors_bitwise_symmetric(m, order):
    a = _random_jet(m, order, 16, seed=m * 10 + order)
    b = _random_jet(m, order, 16, seed=m * 10 + order + 1).exp()
    for name, jet in (("a*b", a * b), ("a/b", a / b), ("sqrt", a.sqrt()), ("pow", a**2.5)):
        for r in range(2, order + 1):
            T = jet.tensor(r)
            for perm in itertools.permutations(range(1, r + 1)):
                assert np.array_equal(T, T.transpose((0,) + perm)), (name, r, perm)


def _closed_form(coef, value, r):
    """coef^{(x) r} * value as a dense (B, m, ..., m) array."""
    out = value
    for _ in range(r):
        out = out[..., None] * coef.reshape((1,) * out.ndim + (-1,))
    return out


@pytest.mark.parametrize("m", [4, 6, 8])
@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("B", [8, 64])  # 64 splits some term groups into several gathers
def test_exponential_products_match_closed_forms(m, order, B):
    rng = np.random.default_rng(m + order)
    z = rng.uniform(-1, 1, (m, B))
    u, v = rng.uniform(-0.7, 0.7, m), rng.uniform(-0.7, 0.7, m)
    zs = [Jet.variable(z[i], i, m, order) for i in range(m)]
    eu = sum(zi * ui for zi, ui in zip(zs, u)).exp()
    ev = sum(zi * vi for zi, vi in zip(zs, v)).exp()
    for jet, coef in ((eu, u), (ev, v), (eu * ev, u + v)):
        for r in range(order + 1):
            expect = _closed_form(coef, jet.value, r)
            assert np.abs(jet.tensor(r) - expect).max() <= 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize("m, order", [(3, 4), (4, 4), (6, 3)])
def test_double_derivative_reads_the_dense_tensor(m, order):
    a = _random_jet(m, order, 8, seed=7)
    for i in range(m):
        for j in range(m):
            dij = a.deriv(i).deriv(j)
            for r in range(order - 1):
                assert np.array_equal(dij.tensor(r), a.tensor(r + 2)[(slice(None), i, j)]), (i, j, r)


def _bits(jet):
    return (jet.m, jet.order, jet.buf.shape, jet.buf.tobytes())


def _per_rank(monkeypatch, op):
    """op() with products and compositions run by the per-rank kernels."""
    flat_mul = Jet.__mul__

    def mul(self, other):
        return per_rank_mul(self, other) if isinstance(other, Jet) else flat_mul(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(Jet, "__mul__", mul)
        patch.setattr(Jet, "__rmul__", mul)
        patch.setattr(Jet, "_compose", per_rank_compose)
        return op()


@pytest.mark.parametrize("m", [1, 2, 4, 8])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("B", [1, 7, 256])
def test_flat_kernels_match_per_rank_oracle_bitwise(m, order, B, monkeypatch):
    a = _random_jet(m, order, B, seed=100 * m + order)
    b = _random_jet(m, order, B, seed=100 * m + order + 1).exp()
    ops = {
        "a*b": lambda: a * b,
        "b*a": lambda: b * a,
        "a/b": lambda: a / b,
        "sqrt": lambda: b.sqrt(),
        "pow": lambda: b**2.5,
        "exp": lambda: a.exp(),
        "log": lambda: b.log(),
        "sin": lambda: a.sin(),
        "cos": lambda: a.cos(),
        "mixed orders": lambda: a * b.truncated(order - 1),
    }
    for name, op in ops.items():
        assert _bits(op()) == _bits(_per_rank(monkeypatch, op)), name
    for i in range(m):
        assert _bits(a.deriv(i)) == _bits(per_rank_deriv(a, i)), ("deriv", i)


@pytest.mark.parametrize("plan", [_mul_plan, _compose_plan])
def test_oracle_cases_split_a_rank_across_gathers(plan):
    """At m = 4, order 4, B = 256 (a case of the oracle test above) one
    gather holds several terms and some rank's terms span several gathers."""
    gathers = plan(4, 4, _GATHER_LIMIT // 256)
    ranks = [[block.start for block, _ in adds] for _, _, adds in gathers]
    assert any(len(r) > 1 for r in ranks)
    assert any(sum(start in r for r in ranks) > 1 for start in set(itertools.chain(*ranks)))


@pytest.mark.parametrize("plan", [_mul_plan, _compose_plan])
def test_batches_that_split_alike_share_one_plan(plan):
    """Chunks of 232 and 256 points (70 and 64 rows per gather) split the
    m = 8, order-4 terms alike and so hold one plan; a single point does not."""
    shared = plan(8, 4, _GATHER_LIMIT // 256)
    assert plan(8, 4, _GATHER_LIMIT // 232) is shared
    assert plan(8, 4, _GATHER_LIMIT) is not shared


@pytest.mark.parametrize("m, order, B", [(1, 1, 1), (3, 4, 7), (8, 2, 256), (4, 4, 1)])
def test_coeffs_are_views_into_one_buffer(m, order, B):
    a = _random_jet(m, order, B, seed=3)
    assert a.buf.shape == (math.comb(m + order, order), B) and a.buf.flags.c_contiguous
    for jet in [a] + [a.truncated(k) for k in range(order)]:
        assert np.shares_memory(jet.buf, a.buf) and jet.buf.flags.c_contiguous
        assert jet.coeffs[0].shape == (B,)
        for r, c in enumerate(jet.coeffs):
            if r:
                assert c.shape == (B, math.comb(m + r - 1, r))
            assert np.shares_memory(c, a.buf)
            assert np.array_equal(c, a.coeffs[r])
    assert a.coeffs is a.coeffs  # the views are built once


def test_zero_velocity_rejected():
    with pytest.raises(SingularEvaluationError, match="slit tangent bundle"):
        TangentPoint([0.0, 0.0], [0.0, 0.0])


def test_domain_error_reported_as_singular_evaluation():
    f = ScalarField(1, lambda x, y: sqrt(y[0] - 10.0))
    with pytest.raises(SingularEvaluationError):
        eval_jet3(f, TangentPoint([0.0], [1.0]), ["y0"])


def test_fd_oracle_step_override():
    f = ScalarField(1, lambda x, y: y[0] ** 2)
    p = TangentPoint([0.0], [1.0])
    assert fd_oracle(f, p, ["y0"], step=1e-4) == pytest.approx(2.0, rel=1e-9)
    assert fd_oracle(f, p, ["y0"], step=1e-4, richardson=False) == pytest.approx(2.0, rel=1e-7)


def test_jet3_dataclass_shape():
    j = eval_jet3(quadratic_field(), TangentPoint([0.0, 0.0], [1.0, 2.0]), ["y0", "y1"])
    assert isinstance(j, Jet3)
    assert j.grad.shape == (2,) and j.hess.shape == (2, 2) and j.third.shape == (2, 2, 2)
    assert j.active == ("y0", "y1")


# -- array-valued jets -------------------------------------------------------------


def _component_bits(jet, index):
    """Bits of one component of an array jet, as a scalar jet's would read."""
    return _bits(type(jet)(jet.m, jet.order, np.ascontiguousarray(jet[index].buf)))


def _random_array(shape, m, order, B, seed):
    """(array jet, {index: the scalar jet stacked there}) of the given shape."""
    if not shape:
        jet = _random_jet(m, order, B, seed)
        return jet, {(): jet}
    parts = [_random_array(shape[1:], m, order, B, seed * 7 + i) for i in range(shape[0])]
    entries = {(i,) + index: e for i, (_, part) in enumerate(parts) for index, e in part.items()}
    return stack([jet for jet, _ in parts]), entries


@pytest.mark.parametrize("m", [2, 4, 8])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("B", [1, 256])
@pytest.mark.parametrize("shape", [(), (3,), (3, 3)])
def test_array_jets_match_per_entry_scalar_jets_bitwise(shape, m, order, B):
    a, a_entries = _random_array(shape, m, order, B, seed=m + 10 * order)
    b, b_entries = _random_array(shape, m, order, B, seed=m + 10 * order + 5)
    b, b_entries = b.exp(), {k: v.exp() for k, v in b_entries.items()}
    s = _random_jet(m, order, B, seed=99)
    idx = np.array([m - 1, 0, m // 2])
    ops = {
        "a*b": (a * b, lambda i: a_entries[i] * b_entries[i]),
        "a+b": (a + b, lambda i: a_entries[i] + b_entries[i]),
        "a-b": (a - b, lambda i: a_entries[i] - b_entries[i]),
        "a/b": (a / b, lambda i: a_entries[i] / b_entries[i]),
        "sqrt": (b.sqrt(), lambda i: b_entries[i].sqrt()),
        "s*a": (s * a, lambda i: s * a_entries[i]),
        "a*s": (a * s, lambda i: a_entries[i] * s),
        "a-s": (a - s, lambda i: a_entries[i] - s),
        "mixed orders": (a * b.truncated(order - 1), lambda i: a_entries[i] * b_entries[i].truncated(order - 1)),
    }
    for name, (jet, entry) in ops.items():
        assert jet.shape == shape and jet.buf.flags.c_contiguous, name
        for index in a_entries:
            assert _component_bits(jet, index) == _bits(entry(index)), (name, index)
    d = a.deriv(idx)
    assert d.shape == shape + idx.shape and d.value.flags.c_contiguous
    for index in a_entries:
        for k, var in enumerate(idx):
            assert _component_bits(d, index + (k,)) == _bits(a_entries[index].deriv(var)), (index, var)


@pytest.mark.parametrize("order", [0, 1, 4])
@pytest.mark.parametrize("B", [1, 256])
def test_variable_block_matches_one_variable_at_a_time(order, B):
    values = np.random.default_rng(order + B).uniform(-1, 1, (B, 5))
    block = Jet.variable(values, 3, 8, order)
    assert block.shape == (5,)
    for i in range(5):
        assert _component_bits(block, i) == _bits(Jet.variable(values[:, i], 3 + i, 8, order))


def test_width_eight_component_sum_adds_left_to_right():
    """A sum over an axis of 2n = 8 components (euclidean4) adds its terms in
    order.  numpy's sum along a contiguous axis of 8 or more terms is pairwise
    and rounds differently, which the last assertion shows on these points."""
    m, B = 8, 256
    rng = np.random.default_rng(8)
    X = stack([_random_jet(m, 1, B, seed=200 + k) * rng.uniform(0.5, 2.0) for k in range(m)])
    s = _random_jet(m, 2, B, seed=300)
    terms = X.value * s.coeffs[1]  # (B, 8): X^d d_d s
    sequential = np.zeros(B)
    for d in range(m):
        sequential = sequential + terms[:, d]
    assert directional(X, s).tobytes() == sequential.tobytes()
    assert not np.array_equal(np.sum(terms, axis=1), sequential)


def test_iterating_a_scalar_jet_is_an_error():
    with pytest.raises(TypeError, match="scalar jet"):
        list(_random_jet(2, 1, 4, seed=1))
