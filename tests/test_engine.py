import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matformer import engine
from matformer.engine import (
    BatchNormState,
    Tensor,
    backward,
    batch_norm,
    layer_norm,
    segment_mean,
    segment_softmax,
)
from matformer.model import Matformer, ModelConfig
from oracles import (
    batch_norm_reference,
    composed_gated_pair_matmul,
    composed_pair_product,
    composed_sigmoid_norm_message,
    finite_difference_gradients,
    layer_norm_grads,
    max_relative_error,
)

RNG = np.random.default_rng(100)


def param(shape, scale=1.0):
    return Tensor(RNG.standard_normal(shape) * scale, requires_grad=True)


def fd_check(build, params, h=1e-5, tol=1e-4):
    out = build()
    for p in params.values():
        p.zero_grad()
    out = build()
    backward(out)
    numeric = finite_difference_gradients(build, params, h=h)
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.values)
        err = max_relative_error(analytic, numeric[name])
        assert err < tol, f"{name}: rel err {err:.2e}"


class TestForwardSemantics:
    def test_matmul_identity(self):
        x = Tensor(RNG.standard_normal((4, 3)))
        assert np.allclose(engine.matmul(Tensor(np.eye(4)), x).values, x.values)

    def test_sigmoid_at_zero(self):
        assert engine.sigmoid(Tensor(0.0)).values == pytest.approx(0.5)

    def test_silu_fixed_point(self):
        assert engine.silu(Tensor(0.0)).values == pytest.approx(0.0)

    def test_layer_norm_constant_vector(self):
        out = layer_norm(Tensor(np.full((2, 8), 3.0)), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.abs(out.values).max() < 1e-2

    def test_layer_norm_length_one_errors(self):
        with pytest.raises(ValueError, match="length-1"):
            layer_norm(Tensor(np.ones((3, 1))), Tensor(np.ones(1)), Tensor(np.zeros(1)))

    def test_softmax_rows_sum_to_one(self):
        out = engine.softmax(Tensor(RNG.standard_normal((5, 4))))
        assert np.allclose(out.values.sum(axis=1), 1.0)

    def test_segment_softmax_normalizes_per_segment(self):
        x = Tensor(RNG.standard_normal((6, 3)))
        seg = np.array([0, 0, 1, 1, 1, 2])
        out = segment_softmax(x, seg, 3)
        sums = np.zeros((3, 3))
        np.add.at(sums, seg, out.values)
        assert np.allclose(sums, 1.0)

    def test_scatter_then_gather(self):
        x = Tensor(RNG.standard_normal((5, 2)))
        idx = np.array([0, 1, 1, 2, 0])
        out = engine.scatter_sum(x, idx, 3)
        assert np.allclose(out.values[1], x.values[1] + x.values[2])

    def test_segment_mean_requires_full_coverage(self):
        with pytest.raises(ValueError, match="non-empty"):
            segment_mean(Tensor(np.ones((2, 2))), np.array([0, 0]), 2)

    def test_finite_guard(self):
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            engine.exp(Tensor(np.array([1e6])))

    def test_deterministic_forward(self):
        x = RNG.standard_normal((8, 8))
        a = engine.softmax(engine.matmul(Tensor(x), Tensor(x))).values
        b = engine.softmax(engine.matmul(Tensor(x), Tensor(x))).values
        assert np.array_equal(a, b)


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        w = param((3, 4))
        out = engine.tensor_sum(w)
        backward(out)
        assert np.array_equal(w.grad, np.ones((3, 4)))

    def test_half_norm_gradient_is_w(self):
        w = param((5,))
        out = engine.scale(engine.tensor_sum(engine.mul(w, w)), 0.5)
        backward(out)
        assert np.allclose(w.grad, w.values)

    def test_rejects_non_scalar_root(self):
        w = param((2, 2))
        with pytest.raises(ValueError, match="scalar"):
            backward(engine.mul(w, w))

    def test_grad_accumulates_across_reuse(self):
        w = param((3,))
        out = engine.tensor_sum(engine.add(w, w))
        backward(out)
        assert np.allclose(w.grad, 2.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_softplus_gradient_at_a_huge_negative_input_is_its_limit_without_a_warning(self):
        # exp(800) overflows in the backward's 1 + exp(-x); g / inf is 0, the limit
        x = Tensor(np.array([-800.0, 0.0, 3.0]), requires_grad=True)
        backward(engine.tensor_sum(engine.softplus(x)))
        assert np.array_equal(x.grad, [0.0, 0.5, 1.0 / (1.0 + np.exp(-3.0))])


class TestTapeRelease:
    """backward frees the tape: only leaves keep gradients, one backward per graph."""

    def test_only_leaf_gradients_are_kept(self):
        w, x = param((3, 4)), param((4, 2))
        hidden = engine.matmul(w, x)
        act = engine.sigmoid(hidden)
        out = engine.mean(act)
        entries = [node._entry for node in (hidden, act, out)]
        assert [e.parents for e in entries] == [(w, x), (entries[0],), (entries[1],)]
        backward(out)
        assert w.grad is not None and x.grad is not None
        for node, entry in zip((hidden, act, out), entries):
            assert node.grad is None and entry.grad is None
            assert entry.parents == ()

    def test_leaf_gradient_does_not_alias_upstream_buffers(self):
        a, b = param((3,)), param((3,))
        backward(engine.tensor_sum(engine.add(a, b)))
        assert a.grad is not b.grad
        a.grad += 1.0
        assert np.array_equal(b.grad, np.ones(3))

    def test_second_backward_raises(self):
        w = param((3,))
        out = engine.tensor_sum(engine.mul(w, w))
        backward(out)
        first = w.grad.copy()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            backward(out)
        assert np.array_equal(w.grad, first)

    def test_backward_through_a_released_intermediate_raises(self):
        w = param((3,))
        hidden = engine.mul(w, w)
        backward(engine.tensor_sum(hidden))
        with pytest.raises(RuntimeError, match="already backpropagated"):
            backward(engine.tensor_sum(engine.scale(hidden, 2.0)))

    def test_fresh_forward_after_backward_works(self):
        w = param((3,))
        backward(engine.tensor_sum(engine.mul(w, w)))
        w.zero_grad()
        backward(engine.tensor_sum(engine.mul(w, w)))
        assert np.allclose(w.grad, 2.0 * w.values)


class TestTapeHoldsOnlyWhatBackwardReads:
    """The tape keeps each closure's forward-time arrays, never an op's output as such."""

    def test_linear_frees_its_matmul_output(self, monkeypatch):
        x, w, b = param((5, 4)), param((4, 3)), param((3,))
        products = []
        matmul = engine.matmul

        def spy(*args):
            out = matmul(*args)
            products.append(weakref.ref(out.values))
            return out

        monkeypatch.setattr(engine, "matmul", spy)
        out = engine.linear(x, w, b)
        assert len(products) == 1 and products[0]() is None
        matmul_entry, bias = out._entry.parents
        assert matmul_entry.backward_fn is not None and bias is b
        backward(engine.tensor_sum(out))
        assert np.array_equal(w.grad, x.values.T @ np.ones((5, 3)))
        assert np.array_equal(x.grad, np.ones((5, 3)) @ w.values.T)
        assert np.array_equal(b.grad, np.full(3, 5.0))

    def test_scale_frees_its_input(self):
        x = param((4, 3))
        hidden = engine.add(x, x)
        ref = weakref.ref(hidden.values)
        out = engine.scale(hidden, 2.0)
        del hidden
        assert ref() is None
        backward(engine.tensor_sum(out))
        assert np.array_equal(x.grad, np.full((4, 3), 4.0))

    def test_mul_keeps_its_inputs_until_backward(self):
        a, b = param((4, 3)), param((4, 3))
        u, v = engine.scale(a, 1.0), engine.scale(b, 1.0)
        refs = (weakref.ref(u.values), weakref.ref(v.values))
        out = engine.mul(u, v)
        del u, v
        assert all(r() is not None for r in refs)
        backward(engine.tensor_sum(out))
        assert np.array_equal(a.grad, b.values)
        assert np.array_equal(b.grad, a.values)
        assert all(r() is None for r in refs)


class TestNoGrad:
    """Inside no_grad() ops record no tape; outputs keep every bit."""

    def test_outputs_record_no_tape_and_match_taped_values(self):
        x, w, b = param((5, 4)), param((4, 3)), param((3,))
        taped = engine.silu(engine.linear(x, w, b))
        with engine.no_grad():
            out = engine.silu(engine.linear(x, w, b))
        assert out._entry is None and not out.requires_grad
        assert taped._entry is not None
        assert np.array_equal(out.values, taped.values)

    def test_closure_arrays_are_freed_when_the_op_returns(self):
        a, b = param((4, 3)), param((4, 3))
        with engine.no_grad():
            u = engine.scale(a, 1.0)
            ref = weakref.ref(u.values)
            out = engine.mul(u, b)
            del u
            assert ref() is None
        assert out._entry is None

    def test_scope_is_restored_after_an_exception(self):
        w = param((3,))
        with pytest.raises(ValueError, match="inside"):
            with engine.no_grad():
                raise ValueError("raised inside the scope")
        assert engine.mul(w, w)._entry is not None

    def test_nested_scopes(self):
        w = param((3,))
        with engine.no_grad():
            with engine.no_grad():
                assert engine.mul(w, w)._entry is None
            assert engine.mul(w, w)._entry is None
        assert engine.mul(w, w)._entry is not None

    def test_non_finite_output_still_names_the_op(self):
        x, w = param((2, 3)), param((3, 3))
        w.values[0, 0] = np.nan
        with engine.no_grad(), pytest.raises(FloatingPointError, match="matmul"):
            engine.matmul(x, w)

    def test_backward_from_a_no_grad_root_raises(self):
        w = param((3,))
        with engine.no_grad():
            out = engine.tensor_sum(engine.mul(w, w))
        with pytest.raises(RuntimeError, match=r"records no tape.*no_grad\(\) or from constants"):
            backward(out)
        assert w.grad is None

    def test_backward_from_a_constant_root_raises(self):
        out = engine.tensor_sum(engine.mul(Tensor(np.ones(3)), Tensor(np.ones(3))))
        with pytest.raises(RuntimeError, match="records no tape"):
            backward(out)

    def test_a_leaf_needing_a_gradient_is_still_a_root(self):
        w = param(())
        backward(w)
        assert np.array_equal(w.grad, np.ones(()))


class TestUnchecked:
    """Inside unchecked() ops skip the finite check of their outputs."""

    def test_ops_inside_skip_the_check(self):
        with engine.unchecked(), np.errstate(over="ignore"):
            out = engine.exp(Tensor(np.array([1e6])))
        assert np.isinf(out.values).all()

    def test_scope_is_restored_after_an_exception(self):
        with pytest.raises(ValueError, match="inside"):
            with engine.unchecked():
                raise ValueError("raised inside the scope")
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="exp"):
            engine.exp(Tensor(np.array([1e6])))


class TestGradientSlots:
    """A slot's first gradient is a copy of what its consumer hands on; later ones are added in place."""

    def test_the_two_inputs_of_an_add_get_separate_arrays(self):
        p, q = param((3, 4)), param((3, 4))
        w1, w2, w3 = (RNG.standard_normal((3, 4)) for _ in range(3))
        u, v = engine.scale(p, 1.0), engine.scale(q, 1.0)
        # u's and v's slots both take the add's gradient, then one more each
        terms = [engine.tensor_sum(engine.mul(x, Tensor(w))) for x, w in ((engine.add(u, v), w1), (u, w2), (v, w3))]
        backward(engine.add(engine.add(terms[0], terms[1]), terms[2]))
        assert np.array_equal(p.grad, w1 + w2) and np.array_equal(q.grad, w1 + w3)

    def test_a_leaf_gradient_holds_no_negative_zero(self):
        w = param((2,))
        backward(engine.tensor_sum(engine.mul(w, Tensor(np.array([0.0, -0.0])))))
        assert not np.signbit(w.grad).any()

    def test_a_scalar_leaf_gets_an_array_gradient(self):
        w = param(())
        backward(engine.scale(engine.mul(w, w), 3.0))
        assert isinstance(w.grad, np.ndarray) and np.array_equal(w.grad, 6.0 * w.values)


@st.composite
def _layer_norm_cases(draw):
    rows = draw(st.integers(1, 12))
    # (E, d) and (E, 3d) at the compact and the paper widths
    dim = draw(st.sampled_from([2, 8, 24, 128, 384]))
    gain_shape = draw(st.sampled_from([(dim,), (1, dim), (rows, dim)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((rows, dim)) * 10.0 ** draw(st.integers(-3, 3))
    return x, rng.standard_normal(gain_shape), rng.standard_normal((rows, dim))


class TestLayerNormBackwardOracle:
    """The in-place layer-norm backward against the out-of-place formula, compared bit for bit."""

    @given(_layer_norm_cases())
    @settings(max_examples=100, deadline=None)
    def test_gradients_match_the_out_of_place_formula(self, case):
        x, gain_values, g = case
        a, gain = Tensor(x, requires_grad=True), Tensor(gain_values, requires_grad=True)
        bias = Tensor(np.zeros(x.shape[-1]), requires_grad=True)
        # d(sum(out * g))/d(out) is g itself
        backward(engine.tensor_sum(engine.mul(layer_norm(a, gain, bias), Tensor(g))))
        d_a, d_gain = layer_norm_grads(x, gain_values, g)
        assert a.grad.tobytes() == d_a.tobytes()
        assert gain.grad.shape == gain_values.shape and gain.grad.tobytes() == d_gain.tobytes()


def _add_at(x, index, num_rows):
    """The ``np.add.at`` scatter-add the segment sum must reproduce bit for bit."""
    out = np.zeros((num_rows,) + x.shape[1:])
    np.add.at(out, index, x)
    return out


@st.composite
def _segment_cases(draw):
    num_rows = draw(st.integers(1, 7))
    n = draw(st.integers(0, 40))
    index = np.array(draw(st.lists(st.integers(0, num_rows - 1), min_size=n, max_size=n)), dtype=int)
    if draw(st.booleans()):
        index = np.sort(index)
    trailing = draw(st.sampled_from([(), (1,), (3,), (2, 5)]))
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).standard_normal((n,) + trailing) * 10.0 ** draw(st.integers(-3, 3))
    return x, index, num_rows


class TestSegmentSumOracle:
    """The stable-sort segment sum against ``np.add.at``, compared exactly."""

    @given(_segment_cases())
    @settings(max_examples=200, deadline=None)
    def test_scatter_sum_forward(self, case):
        x, index, num_rows = case
        out = engine.scatter_sum(Tensor(x), index, num_rows)
        assert out.values.shape == (num_rows,) + x.shape[1:]
        assert np.array_equal(out.values, _add_at(x, index, num_rows))

    @given(_segment_cases())
    @settings(max_examples=200, deadline=None)
    def test_gather_rows_backward(self, case):
        g, index, num_rows = case
        a = Tensor(np.zeros((num_rows,) + g.shape[1:]), requires_grad=True)
        w = Tensor(g)
        backward(engine.tensor_sum(engine.mul(engine.gather_rows(a, index), w)))
        assert np.array_equal(a.grad, _add_at(g, index, num_rows))

    @given(_segment_cases())
    @settings(max_examples=200, deadline=None)
    def test_segment_softmax(self, case):
        x, index, num_rows = case
        a = Tensor(x, requires_grad=True)
        w = Tensor(np.cos(np.arange(x.size)).reshape(x.shape))
        out = segment_softmax(a, index, num_rows)

        seg_max = np.full((num_rows,) + x.shape[1:], -np.inf)
        np.maximum.at(seg_max, index, x)
        e = np.exp(x - seg_max[index])
        s = e / _add_at(e, index, num_rows)[index]
        assert np.array_equal(out.values, s)

        backward(engine.tensor_sum(engine.mul(out, w)))
        g = np.broadcast_to(w.values, x.shape)
        expected = s * (g - _add_at(g * s, index, num_rows)[index])
        assert np.array_equal(a.grad, 0.0 + expected)

    def test_empty_segments_and_zero_edges(self):
        x = RNG.standard_normal((3, 2))
        out = engine.scatter_sum(Tensor(x), np.array([4, 0, 4]), 6)
        assert np.array_equal(out.values, _add_at(x, np.array([4, 0, 4]), 6))
        assert np.array_equal(out.values[[1, 2, 3, 5]], np.zeros((4, 2)))
        none = engine.scatter_sum(Tensor(np.zeros((0, 2))), np.zeros(0, dtype=int), 3)
        assert np.array_equal(none.values, np.zeros((3, 2)))


def _build_op_cases():
    cases = {}

    a, b = param((3, 4)), param((3, 4))
    cases["add"] = (lambda: engine.mean(engine.add(a, b)), {"a": a, "b": b})

    a2, b2 = param((3, 4)), param((4,))
    cases["add_broadcast"] = (lambda: engine.mean(engine.add(a2, b2)), {"a": a2, "b": b2})

    c, d = param((3, 4)), param((3, 4))
    cases["sub"] = (lambda: engine.mean(engine.sub(c, d)), {"c": c, "d": d})

    e, f = param((3, 4)), param((3, 4))
    cases["mul"] = (lambda: engine.mean(engine.mul(e, f)), {"e": e, "f": f})

    g1, g2 = param((3, 4)), param((4, 5))
    cases["matmul"] = (lambda: engine.mean(engine.matmul(g1, g2)), {"a": g1, "b": g2})

    h1, h2 = param((3, 2)), param((3, 3))
    cases["concat"] = (lambda: engine.mean(engine.mul(x := engine.concat([h1, h2]), x)), {"a": h1, "b": h2})

    s = param((3, 4), scale=0.5)
    cases["sigmoid"] = (lambda: engine.mean(engine.sigmoid(s)), {"s": s})

    si = param((3, 4), scale=0.5)
    cases["silu"] = (lambda: engine.mean(engine.mul(engine.silu(si), si)), {"s": si})

    sp = param((3, 4), scale=0.5)
    cases["softplus"] = (lambda: engine.mean(engine.softplus(sp)), {"s": sp})

    ex = param((3, 4), scale=0.3)
    cases["exp"] = (lambda: engine.mean(engine.exp(ex)), {"s": ex})

    sc = param((3, 4))
    cases["scale"] = (lambda: engine.mean(engine.scale(sc, -2.5)), {"s": sc})

    sm = param((4, 5))
    w_sm = param((4, 5))
    cases["softmax"] = (
        lambda: engine.mean(engine.mul(engine.softmax(sm), w_sm)),
        {"x": sm, "w": w_sm},
    )

    seg_x = param((6, 3))
    seg_w = param((6, 3))
    seg = np.array([0, 0, 1, 1, 1, 2])
    cases["segment_softmax"] = (
        lambda: engine.mean(engine.mul(segment_softmax(seg_x, seg, 3), seg_w)),
        {"x": seg_x, "w": seg_w},
    )

    ln_x, ln_g, ln_b = param((4, 6)), param((6,)), param((6,))
    ln_w = param((4, 6))
    cases["layer_norm"] = (
        lambda: engine.mean(engine.mul(layer_norm(ln_x, ln_g, ln_b), ln_w)),
        {"x": ln_x, "gain": ln_g, "bias": ln_b, "w": ln_w},
    )

    gx = param((5, 3))
    idx = np.array([0, 2, 2, 4, 1, 0])
    gw = param((6, 3))
    cases["gather_rows"] = (
        lambda: engine.mean(engine.mul(engine.gather_rows(gx, idx), gw)),
        {"x": gx, "w": gw},
    )

    sx = param((6, 3))
    sw = param((4, 3))
    sidx = np.array([0, 1, 1, 3, 2, 0])
    cases["scatter_sum"] = (
        lambda: engine.mean(engine.mul(engine.scatter_sum(sx, sidx, 4), sw)),
        {"x": sx, "w": sw},
    )

    mx = param((4, 5))
    cases["mean_axis0"] = (lambda: engine.mean(engine.mul(m := engine.mean(mx, axis=0), m)), {"x": mx})

    sx2 = param((4, 5), scale=0.3)
    cases["sum_axis1"] = (lambda: engine.mean(engine.mul(m := engine.tensor_sum(sx2, axis=1), m)), {"x": sx2})

    rx = param((4, 6))
    cases["reshape"] = (lambda: engine.mean(engine.mul(r := engine.reshape(rx, (8, 3)), r)), {"x": rx})

    smx = param((6, 3))
    smw = param((3, 3))
    smidx = np.array([0, 1, 1, 2, 2, 2])
    cases["segment_mean"] = (
        lambda: engine.mean(engine.mul(segment_mean(smx, smidx, 3), smw)),
        {"x": smx, "w": smw},
    )

    # six edges over four nodes: a repeated (src, dst) pair, node 3 with no out-edges
    psrc, pdst = np.array([0, 1, 1, 2, 0, 1]), np.array([1, 0, 0, 3, 2, 2])
    pq, pk, pe, pw = param((4, 2)), param((4, 2)), param((6, 2)), param((6, 6))
    cases["pair_product"] = (
        lambda: engine.mean(engine.mul(engine.pair_product(pq, pk, pe, psrc, pdst), pw)),
        {"q": pq, "k": pk, "e": pe, "w": pw},
    )

    for name, width in (("gated_pair_matmul", 6), ("gated_pair_matmul_row_gate", 1)):
        gg, gv, ge, gw2 = param((6, width)), param((4, 2)), param((6, 2)), param((6, 3))
        gout = param((6, 3))
        cases[name] = (
            lambda gg=gg, gv=gv, ge=ge, gw2=gw2, gout=gout: engine.mean(
                engine.mul(engine.gated_pair_matmul(gg, gv, ge, psrc, pdst, gw2), gout)),
            {"gate": gg, "v": gv, "e": ge, "w": gw2, "out": gout},
        )

    mq, mk, mv, me = param((4, 2)), param((4, 2)), param((4, 2)), param((6, 2))
    mg, mb, mw, mout = param((6,)), param((6,)), param((6, 3)), param((6, 3))
    cases["sigmoid_norm_message"] = (
        lambda: engine.mean(engine.mul(engine.sigmoid_norm_message(mq, mk, mv, me, mg, mb, mw, psrc, pdst), mout)),
        {"q": mq, "k": mk, "v": mv, "e": me, "gain": mg, "bias": mb, "w": mw, "out": mout},
    )

    return cases


@pytest.mark.parametrize("name", sorted(_build_op_cases().keys()))
def test_op_gradients_match_finite_differences(name):
    build, params = _build_op_cases()[name]
    fd_check(build, params)


@st.composite
def _pair_cases(draw):
    """Node rows, edge rows and indices for the pair ops: repeated (src, dst)
    pairs, nodes with no out-edges and single edges all occur."""
    n_nodes, n_edges, d = draw(st.integers(1, 5)), draw(st.integers(1, 10)), draw(st.integers(1, 4))
    node = st.integers(0, n_nodes - 1)
    src = np.array(draw(st.lists(node, min_size=n_edges, max_size=n_edges)), dtype=int)
    dst = np.array(draw(st.lists(node, min_size=n_edges, max_size=n_edges)), dtype=int)
    gate_width = draw(st.sampled_from([1, 3 * d]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = {"q": (n_nodes, d), "k": (n_nodes, d), "v": (n_nodes, d), "e": (n_edges, d),
              "gate": (n_edges, gate_width), "w": (3 * d, 2), "g_alpha": (n_edges, 3 * d), "g_out": (n_edges, 2)}
    return {name: rng.standard_normal(shape) for name, shape in shapes.items()}, src, dst


class TestPairOpsMatchComposedChain:
    """The two pair ops against the gathers, concatenations and products they
    replace (``tests/oracles.py``), compared bit for bit."""

    @staticmethod
    def run(case, pair_product, gated_pair_matmul):
        arrays, src, dst = case
        leaves = {name: Tensor(arrays[name], requires_grad=True) for name in ("q", "k", "v", "e", "gate", "w")}
        alpha = pair_product(leaves["q"], leaves["k"], leaves["e"], src, dst)
        out = gated_pair_matmul(leaves["gate"], leaves["v"], leaves["e"], src, dst, leaves["w"])
        # e feeds both ops, as in an attention head
        backward(engine.add(engine.tensor_sum(engine.mul(alpha, Tensor(arrays["g_alpha"]))),
                            engine.tensor_sum(engine.mul(out, Tensor(arrays["g_out"])))))
        return alpha.values, out.values, {name: leaf.grad for name, leaf in leaves.items()}

    @given(_pair_cases())
    @settings(max_examples=200, deadline=None)
    def test_values_and_every_gradient(self, case):
        alpha, out, grads = self.run(case, engine.pair_product, engine.gated_pair_matmul)
        want_alpha, want_out, want_grads = self.run(case, composed_pair_product, composed_gated_pair_matmul)
        assert alpha.tobytes() == want_alpha.tobytes()
        assert out.tobytes() == want_out.tobytes()
        for name, want in want_grads.items():
            assert grads[name].shape == want.shape and grads[name].tobytes() == want.tobytes(), name

    def test_tape_holds_node_rows_not_pairs(self):
        src, dst = np.array([0, 1, 1, 2]), np.array([1, 0, 0, 1])
        q, k, v, e = param((3, 2)), param((3, 2)), param((3, 2)), param((4, 2))
        gate, w = engine.sigmoid(param((4, 6))), param((6, 2))
        alpha = engine.pair_product(q, k, e, src, dst)
        out = engine.gated_pair_matmul(gate, v, e, src, dst, w)
        for result, inputs in ((alpha, (q, k, e)), (out, (gate, v, e, w))):
            held = [c.cell_contents for c in result._entry.backward_fn.__closure__]
            arrays = {id(a) for a in held if isinstance(a, np.ndarray)}
            assert arrays == {id(t.values) for t in inputs} | {id(src), id(dst)}


MESSAGE_INPUTS = ("q", "k", "v", "e", "gain", "bias", "w")


@st.composite
def _message_cases(draw):
    """``_pair_cases`` plus a layer-norm gain and bias, and the inputs that
    need a gradient: any non-empty subset."""
    arrays, src, dst = draw(_pair_cases())
    width = 3 * arrays["q"].shape[1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = dict(arrays, gain=1.0 + 0.5 * rng.standard_normal(width), bias=0.5 * rng.standard_normal(width))
    needs = draw(st.sets(st.sampled_from(MESSAGE_INPUTS), min_size=1))
    return arrays, src, dst, needs


class TestSigmoidNormMessageMatchesComposedChain:
    """``sigmoid_norm_message`` against the composed pair product, scale,
    layer norm, sigmoid and gated matmul (``tests/oracles.py``), bit for bit."""

    @staticmethod
    def run(case, op):
        arrays, src, dst, needs = case
        leaves = {name: Tensor(arrays[name], requires_grad=name in needs) for name in MESSAGE_INPUTS}
        out = op(*(leaves[name] for name in MESSAGE_INPUTS), src, dst)
        backward(engine.tensor_sum(engine.mul(out, Tensor(arrays["g_out"]))))
        return out.values, {name: leaf.grad for name, leaf in leaves.items()}

    @given(_message_cases())
    @settings(max_examples=200, deadline=None)
    def test_value_and_all_seven_gradients(self, case):
        out, grads = self.run(case, engine.sigmoid_norm_message)
        want_out, want_grads = self.run(case, composed_sigmoid_norm_message)
        assert out.tobytes() == want_out.tobytes()
        needs = case[3]
        for name, want in want_grads.items():
            assert (want is None) == (name not in needs) == (grads[name] is None), name
            if want is not None:
                assert grads[name].shape == want.shape and grads[name].tobytes() == want.tobytes(), name

    def test_tape_holds_only_the_inputs(self):
        src, dst = np.array([0, 1, 1, 2]), np.array([1, 0, 0, 1])
        inputs = (param((3, 2)), param((3, 2)), param((3, 2)), param((4, 2)), param((6,)), param((6,)), param((6, 2)))
        out = engine.sigmoid_norm_message(*inputs, src, dst)
        held = [c.cell_contents for c in out._entry.backward_fn.__closure__]
        arrays = {id(a) for a in held if isinstance(a, np.ndarray)}
        assert arrays == {id(t.values) for t in inputs} | {id(src), id(dst)}


class TestBatchNorm:
    def test_train_mode_gradients(self):
        x, gamma, beta, w = param((6, 4)), param((4,)), param((4,)), param((6, 4))
        state = BatchNormState.create(4)

        def build():
            fresh = BatchNormState.create(4)  # stats update must not leak into FD evals
            return engine.mean(engine.mul(batch_norm(x, gamma, beta, fresh, training=True), w))

        fd_check(build, {"x": x, "gamma": gamma, "beta": beta, "w": w})
        batch_norm(x, gamma, beta, state, training=True)
        assert state.num_batches == 1
        assert not np.allclose(state.running_mean, 0.0)

    def test_eval_mode_gradients(self):
        x, gamma, beta, w = param((5, 3)), param((3,)), param((3,)), param((5, 3))
        state = BatchNormState.create(3)
        state.running_mean = RNG.standard_normal(3)
        state.running_var = np.abs(RNG.standard_normal(3)) + 0.5

        def build():
            return engine.mean(engine.mul(batch_norm(x, gamma, beta, state, training=False), w))

        fd_check(build, {"x": x, "gamma": gamma, "beta": beta, "w": w})

    def test_running_stats_momentum(self):
        x = Tensor(RNG.standard_normal((50, 2)) + 3.0)
        state = BatchNormState.create(2)
        batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=True)
        assert np.allclose(state.running_mean, 0.1 * x.values.mean(axis=0))

    def test_eval_is_pure(self):
        x = Tensor(RNG.standard_normal((4, 2)))
        state = BatchNormState.create(2)
        before = state.running_mean.copy()
        batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=False)
        assert np.array_equal(before, state.running_mean)

    def test_train_needs_two_rows(self):
        state = BatchNormState.create(2)
        with pytest.raises(ValueError, match="2 rows"):
            batch_norm(Tensor(np.ones((1, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)), state, True)


BATCH_NORM_INPUTS = ("x", "gamma", "beta")


@st.composite
def _batch_norm_cases(draw):
    """2-8 rows, widths 2-16, either mode, running statistics off their
    initial values, and any non-empty subset of the inputs needing a gradient."""
    rows, width = draw(st.integers(2, 8)), draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = {
        "x": rng.standard_normal((rows, width)) * 10.0 ** draw(st.integers(-3, 3)) + rng.standard_normal(width),
        "gamma": 1.0 + 0.5 * rng.standard_normal(width),
        "beta": 0.5 * rng.standard_normal(width),
        "g": rng.standard_normal((rows, width)),
        "running_mean": rng.standard_normal(width),
        "running_var": 0.5 + rng.random(width),
    }
    training = draw(st.booleans())
    needs = draw(st.sets(st.sampled_from(BATCH_NORM_INPUTS), min_size=1))
    return arrays, training, needs, draw(st.integers(0, 100))


class TestBatchNormMatchesInlineFormulas:
    """``batch_norm`` on the shared normalization kernel against its former
    inline formulas (``tests/oracles.py``), bit for bit."""

    @given(_batch_norm_cases())
    @settings(max_examples=200, deadline=None)
    def test_output_gradients_and_running_statistics(self, case):
        arrays, training, needs, num_batches = case
        leaves = {name: Tensor(arrays[name], requires_grad=name in needs) for name in BATCH_NORM_INPUTS}
        state = BatchNormState(arrays["running_mean"].copy(), arrays["running_var"].copy(), num_batches=num_batches)
        out = batch_norm(leaves["x"], leaves["gamma"], leaves["beta"], state, training)
        # d(sum(out * g))/d(out) is g itself
        backward(engine.tensor_sum(engine.mul(out, Tensor(arrays["g"]))))
        want_out, want_grads, want_mean, want_var = batch_norm_reference(
            arrays["x"], arrays["gamma"], arrays["beta"], arrays["running_mean"], arrays["running_var"],
            arrays["g"], training)
        assert out.values.tobytes() == want_out.tobytes()
        for name, leaf in leaves.items():
            if name in needs:
                assert leaf.grad.shape == want_grads[name].shape, name
                assert leaf.grad.tobytes() == want_grads[name].tobytes(), name
            else:
                assert leaf.grad is None, name
        assert state.running_mean.shape == want_mean.shape and state.running_mean.tobytes() == want_mean.tobytes()
        assert state.running_var.shape == want_var.shape and state.running_var.tobytes() == want_var.tobytes()
        assert state.num_batches == num_batches + training


class TestCheckpoint:
    CONFIG = ModelConfig(n_layers=1, n_heads=1, d_model=3, rbf_kernels=4, readout_hidden=7)

    def test_exact_round_trip(self):
        model = Matformer(self.CONFIG, seed=0)
        model.readout["w1"].values = RNG.standard_normal((3, 7)) * 1e3
        model.readout["b1"].values = RNG.standard_normal(7) * 1e-7
        params = model.parameters()
        text = json.dumps(model.to_checkpoint())
        loaded = Matformer.from_checkpoint(json.loads(text)).parameters()
        for name in params:
            assert np.array_equal(params[name].values, loaded[name].values)
        # a second JSON round-trip keeps every f64 bit
        again = Matformer.from_checkpoint(json.loads(json.dumps(json.loads(text)))).parameters()
        for name in params:
            assert np.array_equal(params[name].values, again[name].values)

    def test_strict_loading(self):
        data = Matformer(self.CONFIG, seed=0).to_checkpoint()
        data["params"] = {"other": data["params"]["readout.b2"]}
        with pytest.raises(ValueError, match="mismatch"):
            Matformer.from_checkpoint(data)
