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
    MAX_ORDER,
    Jet,
    TangentPoint,
    _compose_plan,
    _mul_plan,
    fd_oracle,
    sqrt,
)
from finslerlab.metrics import sample_points
from finslerlab.spray import directional

from helpers import per_rank_compose, per_rank_deriv, per_rank_mul, randers2, stack


def point_jet(fn, x, y, order=3):
    """The order-`order` jet of fn(x, y) at one point, over all 2n chart
    variables (x0.., then y0..) as `Jet.variable` seeds them."""
    n = len(x)
    seeds = list(Jet.variable(np.array([list(x) + list(y)], dtype=float), 0, 2 * n, order))
    return fn(seeds[:n], seeds[n:])


def batched_F(M):
    """F of the metric M as a batched (K, 2n) -> (K,) value function."""
    return lambda c: M.F(c[:, : M.n], c[:, M.n :])


def test_polynomial_example():
    j = point_jet(lambda x, y: y[0] ** 2 + y[1] ** 2, [0.0, 0.0], [3.0, 4.0])
    assert j.value[0] == 25.0
    assert np.array_equal(j.tensor(1)[0], [0.0, 0.0, 6.0, 8.0])
    assert np.array_equal(j.tensor(2)[0], np.diag([0.0, 0.0, 2.0, 2.0]))
    assert np.all(j.tensor(3)[0] == 0.0)


def test_constant_field():
    j = Jet.constant(4.25, 4, 3, B=1)
    assert j.value[0] == 4.25
    assert all(np.all(j.tensor(r) == 0.0) for r in (1, 2, 3))


def test_linear_field_second_order_fd():
    """The mixed partial of a linear field is 0."""
    linear = lambda c: 3.0 * c[:, 2] - 2.0 * c[:, 3] + c[:, 0]  # noqa: E731
    assert abs(fd_oracle(linear, [[0.5, 0.0, 1.0, 1.0]], [[2, 3]])[0]) < 1e-7


def test_fd_cubic_third_derivative():
    assert fd_oracle(lambda c: c[:, 1] ** 3, [[0.0, 1.3]], [[1, 1, 1]])[0] == pytest.approx(6.0, abs=1e-6)


# slots over the chart (x0, x1, y0, y1) = 0..3
@pytest.mark.parametrize("multi", [[2], [0], [2, 3], [1, 2], [2, 2, 3], [0, 3, 3], [3, 3, 3]])
def test_randers_jets_match_fd(multi):
    M = randers2()
    x, y = [0.3, -0.5], [1.1, 0.6]
    ad = point_jet(M.evaluate, x, y).tensor(len(multi))[(0,) + tuple(multi)]
    fd = fd_oracle(batched_F(M), [x + y], [multi])[0]
    assert ad == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_fd_oracle_batch_rows_are_their_one_row_calls(r):
    """One `fn` call on all 2 * 2^r shifted copies of every point, and every
    row with the bits of its one-row call, repeated slots included."""
    M = randers2()
    x, y = sample_points(M, 6, r)
    charts = np.concatenate([x, y], axis=1)
    slots = np.random.default_rng(r).integers(0, 4, size=(6, r))
    slots[0] = 1
    sizes = []

    def fn(c):
        sizes.append(len(c))
        F = batched_F(M)(c)
        return np.stack([F * F, F], axis=1)

    batch = fd_oracle(fn, charts, slots)
    assert sizes == [2 * 2**r * 6] and batch.shape == (6, 2)
    for s in range(6):
        assert batch[s].tobytes() == fd_oracle(fn, charts[s : s + 1], slots[s : s + 1])[0].tobytes()
    with pytest.raises(ValueError, match="1 to 3"):
        fd_oracle(fn, charts, np.zeros((6, 4), dtype=int))


def test_hessian_and_third_exactly_symmetric():
    j = point_jet(randers2().evaluate, [0.2, 0.1], [0.9, -1.2])
    H, T = j.tensor(2)[0], j.tensor(3)[0]
    assert np.array_equal(H, H.T)
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
    def f(x, y):
        return y[0] * y[0] * y[1] + y[1] ** 3

    def g(x, y):
        return y[0] * y[1] + 2.0 * y[0]

    point = ([0.0, 0.0], [y0, y1])
    jf, jg = point_jet(f, *point), point_jet(g, *point)
    jc = point_jet(lambda x, y: a * f(x, y) + b * g(x, y), *point)
    for r in range(4):
        assert np.array_equal(jc.tensor(r), a * jf.tensor(r) + b * jg.tensor(r)), r


@settings(max_examples=25, deadline=None)
@given(y0=st.floats(0.4, 1.8), y1=st.floats(0.4, 1.8), x0=st.floats(-0.9, 0.9))
def test_leibniz_through_order_three(y0, y1, x0):
    def fe(x, y):
        return sqrt(y[0] * y[0] + y[1] * y[1]) + 0.2 * x[0] * y[0]

    def ge(x, y):
        return y[0] * y[1] + x[0] * x[0] + 1.5

    point = ([x0, 0.1], [y0, y1])
    jf, jg = point_jet(fe, *point), point_jet(ge, *point)
    jp = point_jet(lambda x, y: fe(x, y) * ge(x, y), *point)
    (fv, f1, f2, f3), (gv, g1, g2, g3) = ([j.tensor(r)[0] for r in range(4)] for j in (jf, jg))

    conv_val = fv * gv
    conv_grad = f1 * gv + fv * g1
    conv_hess = f2 * gv + fv * g2 + np.einsum("i,j->ij", f1, g1) + np.einsum("i,j->ij", g1, f1)
    conv_third = f3 * gv + fv * g3
    for v1, h2 in ((f1, g2), (g1, f2)):
        conv_third = conv_third + np.einsum("i,jk->ijk", v1, h2)
        conv_third = conv_third + np.einsum("j,ik->ijk", v1, h2)
        conv_third = conv_third + np.einsum("k,ij->ijk", v1, h2)

    scale = abs(conv_val) + 1.0
    assert jp.value[0] == pytest.approx(conv_val, rel=1e-14)
    assert np.abs(jp.tensor(1)[0] - conv_grad).max() <= 1e-14 * scale
    assert np.abs(jp.tensor(2)[0] - conv_hess).max() <= 1e-14 * scale
    assert np.abs(jp.tensor(3)[0] - conv_third).max() <= 1e-13 * scale


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


@pytest.mark.parametrize("order", [5, 6])
def test_composition_above_max_order_is_an_error(order):
    """The Faa di Bruno partitions stop at rank MAX_ORDER = 4: an order-5
    sqrt used to read 0.0 for the fifth derivative of sqrt at 0.7, where
    16.334 is exact."""
    assert MAX_ORDER == 4
    v = Jet.variable(np.array([0.7]), 0, 1, order)
    with pytest.raises(ValueError, match=r"jet composition needs order 0\.\.4, not " + str(order)):
        v.sqrt()
