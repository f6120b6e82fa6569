"""Tensor ops: frozen-oracle values, autodiff vs finite differences,
invariants, determinism, acyclic training graphs, and the allocator policy
that keeps a step's freed memory mapped."""

import ctypes
import gc
import json
import math
import subprocess
import sys
import types
import warnings
import zlib

import numpy as np
import pytest

from dialoqa import tensor as T
from dialoqa.corpus import AnswerSpan, Dialogue, Utterance, make_example
from dialoqa.encoder import STAGE_FINETUNED, STAGE_TMLM, ModelConfig, init_encoder_weights
from dialoqa.errors import ConfigError, ShapeError
from dialoqa.finetune import encode_for_qa, qa_batch_loss
from dialoqa.optim import grad_check
from dialoqa.pretrain import build_tmlm_instance, encode_dialogue, mlm_batch_loss
from dialoqa.vocab import build_vocab

# High-precision reference values (50-digit erf/exp evaluation, frozen).
SOFTMAX_123 = [0.090030573170380458, 0.24472847105479765, 0.66524095577482189]
GELU_1 = 0.84134474606854295
CE_123_TARGET2 = 0.40760596444438030

# (2, 5) bool key mask: the second sequence's last two keys are padding
PAD_LAST_TWO = np.array([[True] * 5, [True, True, True, False, False]])


def test_tensor_views_and_invariants():
    t = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    assert t.shape == (2, 3)
    assert len(t.data) == 6
    assert t.grad is None
    T.tsum(t).backward()
    assert len(t.grad) == 6
    assert np.all(np.isfinite(t.data))


class TestLinear:
    @pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 4)])
    def test_equals_matmul_plus_bias(self, x_shape):
        rng = np.random.default_rng(7)
        x, w, b = (rng.normal(size=s) for s in (x_shape, (4, 3), (3,)))
        probe = rng.normal(size=x_shape[:-1] + (3,))
        params = [T.Tensor(v, requires_grad=True) for v in (x, w, b)]
        out = T.linear(*params)
        np.testing.assert_allclose(out.array, x @ w + b, rtol=0, atol=1e-12)
        T.tsum(out * T.Tensor(probe)).backward()
        rows, g = x.reshape(-1, 4), probe.reshape(-1, 3)
        for param, ref in zip(params, (probe @ w.T, rows.T @ g, g.sum(axis=0))):
            assert param.grad_array().shape == ref.shape
            np.testing.assert_allclose(param.grad_array(), ref, rtol=0, atol=1e-12)

    def test_without_bias_is_matmul_with_no_bias_parent(self):
        rng = np.random.default_rng(8)
        x, w = (T.Tensor(rng.normal(size=s), requires_grad=True) for s in ((2, 5, 4), (4, 3)))
        out = T.linear(x, w)
        np.testing.assert_array_equal(out.array, (x.array.reshape(-1, 4) @ w.array).reshape(2, 5, 3))
        assert out._parents == (x, w)
        T.tsum(out).backward()
        np.testing.assert_allclose(w.grad_array(), x.array.reshape(-1, 4).sum(0)[:, None].repeat(3, 1))

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = T.linear(T.Tensor(a), T.Tensor(b), T.Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.array, expected, rtol=0, atol=1e-12)

    def test_leading_axes_gradients(self):
        rng = np.random.default_rng(0)
        x = T.Tensor(rng.normal(size=(3, 2, 4, 5)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        b = T.Tensor(np.zeros(6), requires_grad=True)
        T.tsum(T.linear(x, w, b)).backward()
        assert x.grad_array().shape == (3, 2, 4, 5)
        # oracle: d(sum(X@W))/dW[k,j] = sum over every leading axis of X[..,k]
        expected_w = np.einsum("xypk->k", x.array)[:, None].repeat(6, axis=1)
        np.testing.assert_allclose(w.grad_array(), expected_w, atol=1e-12)
        np.testing.assert_array_equal(b.grad_array(), np.full(6, 24.0))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.linear(T.Tensor(np.zeros((2, 4))), T.Tensor(np.zeros((3, 5))), T.Tensor(np.zeros(5)))
        with pytest.raises(ShapeError):
            T.linear(T.Tensor(np.zeros((2, 4))), T.Tensor(np.zeros((4, 5))), T.Tensor(np.zeros(4)))
        with pytest.raises(ShapeError):
            T.linear(T.Tensor(np.zeros((2, 4))), T.Tensor(np.zeros((3, 5))))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(T.Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.array, [0.5, 0.5], atol=1e-15)

    def test_stabilized_large_inputs(self):
        out = T.softmax(T.Tensor([1000.0, 1000.0, 1000.0]))
        assert np.all(np.isfinite(out.array))
        np.testing.assert_allclose(out.array, [1 / 3] * 3, atol=1e-15)

    def test_high_precision_oracle(self):
        out = T.softmax(T.Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.array, SOFTMAX_123, rtol=0, atol=1e-12)

    def test_rows_sum_to_one_up_to_1e4(self):
        rng = np.random.default_rng(1)
        for scale in (1.0, 100.0, 1e4):
            x = T.Tensor(rng.uniform(-scale, scale, size=(8, 13)))
            sums = T.softmax(x, axis=-1).array.sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)

    def test_empty_axis_is_dimension_error(self):
        with pytest.raises(ShapeError):
            T.softmax(T.Tensor(np.zeros((2, 0))), axis=-1)


class TestLayerNorm:
    def test_constant_vector_zeroed_by_eps(self):
        out = T.layer_norm(
            T.Tensor([5.0, 5.0, 5.0]), T.Tensor([1.0, 1.0, 1.0]), T.Tensor([0.0, 0.0, 0.0])
        )
        np.testing.assert_allclose(out.array, [0.0, 0.0, 0.0], atol=1e-6)

    def test_unit_variance_pair(self):
        out = T.layer_norm(
            T.Tensor([1.0, 3.0]), T.Tensor([1.0, 1.0]), T.Tensor([0.0, 0.0]), eps=1e-15
        )
        np.testing.assert_allclose(out.array, [-1.0, 1.0], atol=1e-6)

    def test_moment_oracle(self):
        rng = np.random.default_rng(2)
        x = T.Tensor(rng.normal(size=(4, 16)))
        out = T.layer_norm(x, T.Tensor(np.ones(16)), T.Tensor(np.zeros(16)), eps=1e-12).array
        assert np.abs(out.mean(axis=-1)).max() < 1e-9
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-6)

    def test_bad_eps(self):
        with pytest.raises(ConfigError):
            T.layer_norm(T.Tensor([1.0]), T.Tensor([1.0]), T.Tensor([0.0]), eps=0.0)


class TestResidualLayerNorm:
    """``residual_layer_norm`` is ``layer_norm(add(x, dropout(y)))`` as one
    node, bit for bit, drawing the same dropout noise."""

    def _inputs(self, seed):
        rng = np.random.default_rng(seed)
        return [
            T.Tensor(rng.normal(size=s), requires_grad=True)
            for s in ((2, 5, 8), (2, 5, 8), (8,), (8,))
        ], rng.normal(size=(2, 5, 8))

    @pytest.mark.parametrize("p,drawn", [(0.1, False), (0.0, True), (0.1, True)])
    def test_equals_the_unfused_chain(self, p, drawn):
        (x, y, g, b), dout = self._inputs(4)
        twin = [T.Tensor(t.array.copy(), requires_grad=True) for t in (x, y, g, b)]
        draw, twin_draw = (
            (np.random.default_rng(2), np.random.default_rng(2)) if drawn else (None, None)
        )
        fused = T.residual_layer_norm(x, y, g, b, p, draw, 1e-12)
        tx, ty, tg, tb = twin
        chain = T.layer_norm(T.add(tx, T.dropout(ty, p, twin_draw)), tg, tb, 1e-12)
        np.testing.assert_array_equal(fused.array, chain.array)
        if drawn:
            assert draw.bit_generator.state == twin_draw.bit_generator.state
        T.tsum(fused * T.Tensor(dout)).backward()
        T.tsum(chain * T.Tensor(dout)).backward()
        for a, c in zip((x, y, g, b), twin):
            np.testing.assert_array_equal(a.grad_array(), c.grad_array())

    def test_no_branch_is_layer_norm(self):
        (x, _, g, b), _ = self._inputs(5)
        np.testing.assert_array_equal(
            T.residual_layer_norm(x, None, g, b, 0.5, None).array,
            T.layer_norm(x, g, b).array,
        )

    def test_training_records_one_node(self):
        (x, y, g, b), _ = self._inputs(6)
        out = T.residual_layer_norm(x, y, g, b, 0.1, np.random.default_rng(0))
        assert out._parents == (x, y, g, b)

    @pytest.mark.parametrize(
        "y_shape,g_shape",
        [((2, 5, 7), (8,)), ((5, 8), (8,)), ((2, 5, 8), (7,))],
    )
    def test_shape_errors(self, y_shape, g_shape):
        x, y = T.Tensor(np.zeros((2, 5, 8))), T.Tensor(np.zeros(y_shape))
        with pytest.raises(ShapeError):
            T.residual_layer_norm(x, y, T.Tensor(np.ones(g_shape)), T.Tensor(np.zeros(8)),
                                  0.1, None)

    @pytest.mark.parametrize(
        "p,rng,eps",
        [(1.0, np.random.default_rng(0), 1e-12), (-0.1, None, 1e-12), (1.0, None, 1e-12),
         (0.1, np.random.default_rng(0), 0.0)],
    )
    def test_config_errors(self, p, rng, eps):
        x, y = T.Tensor(np.zeros((2, 8))), T.Tensor(np.zeros((2, 8)))
        with pytest.raises(ConfigError):
            T.residual_layer_norm(x, y, T.Tensor(np.ones(8)), T.Tensor(np.zeros(8)),
                                  p, rng, eps)


@pytest.fixture(scope="module")
def scipy_erf():
    """The oracle of ``tensor.erf``: scipy runs the same Cephes algorithm."""
    return pytest.importorskip("scipy.special").erf


class TestErf:
    @pytest.mark.parametrize("scale", [0.05, 0.3, 1.0, 3.0, 30.0])
    def test_equals_scipy_bit_for_bit_on_normal_draws(self, scipy_erf, scale):
        x = np.random.default_rng(zlib.crc32(repr(scale).encode())).normal(0.0, scale, 10**6)
        np.testing.assert_array_equal(T.erf(x).view(np.int64), scipy_erf(x).view(np.int64))

    def test_equals_scipy_bit_for_bit_on_the_edges(self, scipy_erf):
        """Both branches' ends, Cephes' underflow cut at sqrt(709.78) (26
        and 27.3 straddle it), subnormals, infinities and nan; the sign of
        a zero is kept."""
        edges = np.array([0.0, 1.0, np.nextafter(1.0, 2.0), 8.0, np.nextafter(8.0, 0.0),
                          26.0, 27.3, 5e-324, np.inf])
        x = np.concatenate([edges, -edges, [np.nan]])
        out = T.erf(x)
        np.testing.assert_array_equal(out.view(np.int64), scipy_erf(x).view(np.int64))
        assert np.signbit(out[len(edges)]) and not np.signbit(out[0])

    def test_keeps_the_shape(self, scipy_erf):
        x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        assert T.erf(x).shape == (2, 3, 4)
        np.testing.assert_array_equal(T.erf(x), scipy_erf(x))
        assert T.erf(np.zeros((0, 4))).shape == (0, 4)

    def test_huge_inputs_raise_no_warning(self):
        """Squaring 1e155 overflows, so such inputs never reach x*x."""
        big = np.array([1e154, 1.4e154, 1e300, np.finfo(np.float64).max, np.inf])
        x = np.concatenate([big, -big, [0.5, np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = T.erf(x)
        np.testing.assert_array_equal(out[:10], np.sign(x[:10]))
        assert np.isnan(out[-1])


class TestGelu:
    def test_zero(self):
        assert T.gelu(T.Tensor([0.0])).array[0] == 0.0

    def test_asymptote(self):
        assert abs(T.gelu(T.Tensor([10.0])).array[0] - 10.0) < 1e-6

    def test_erf_oracle(self):
        assert abs(T.gelu(T.Tensor([1.0])).array[0] - GELU_1) < 1e-9

    def test_gradient_past_both_erf_branch_points(self):
        """Inputs beyond ±sqrt(2), where erf(x/sqrt(2)) leaves its |x| <= 1
        formula, and beyond ±8 sqrt(2), where its erfc term is 0; the
        model's activations rarely reach either."""
        x = T.Tensor([[-13.0, -11.0, -2.5, -1.5, -0.3], [0.4, 1.5, 3.0, 11.5, 14.0]],
                     requires_grad=True)
        probe = T.Tensor(np.random.default_rng(3).normal(size=(2, 5)))
        report = grad_check(lambda: T.tsum(T.gelu(x) * probe), [x], h=1e-5)
        assert report.max_rel_err < 1e-6, report


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = T.mean_cross_entropy(T.Tensor(np.zeros((1, 4))), [2])
        assert abs(loss.item() - math.log(4)) < 1e-12

    def test_confident_correct(self):
        loss = T.mean_cross_entropy(T.Tensor([[30.0, -30.0]]), [0])
        assert loss.item() < 1e-9

    def test_direct_oracle(self):
        loss = T.mean_cross_entropy(T.Tensor([[1.0, 2.0, 3.0]]), [2])
        assert abs(loss.item() - CE_123_TARGET2) < 1e-12

    def test_gradient_is_softmax_minus_onehot(self):
        logits = T.Tensor([[1.0, 2.0, 3.0]], requires_grad=True)
        T.mean_cross_entropy(logits, [2]).backward()
        expected = np.array(SOFTMAX_123)
        expected[2] -= 1.0
        np.testing.assert_allclose(logits.grad, expected, atol=1e-12)

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            T.mean_cross_entropy(T.Tensor([[0.0, 0.0]]), [2])


class TestDropout:
    def test_p_zero_identity(self):
        x = T.Tensor([1.0, 2.0])
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_inference_identity(self):
        x = T.Tensor([1.0, 2.0])
        assert T.dropout(x, 0.5, None) is x

    def test_monte_carlo_rate(self):
        rng = np.random.default_rng(7)
        x = T.Tensor(np.ones(10**6))
        out = T.dropout(x, 0.1, rng).array
        zeroed = np.mean(out == 0.0)
        assert abs(zeroed - 0.1) < 0.002
        # survivors inversely scaled
        np.testing.assert_allclose(out[out != 0], 1.0 / 0.9)

    def test_bad_probability(self):
        with pytest.raises(ConfigError):
            T.dropout(T.Tensor([1.0]), 1.0, np.random.default_rng(0))

    def test_equals_scaled_float_mask_bit_for_bit(self):
        rng = np.random.default_rng(3)
        x = T.Tensor(rng.normal(size=(50, 40)), requires_grad=True)
        dout = rng.normal(size=(50, 40))
        draw, twin = np.random.default_rng(6), np.random.default_rng(6)
        out = T.dropout(x, 0.1, draw)
        T.tsum(out * T.Tensor(dout)).backward()
        keep = (twin.random(x.shape) >= 0.1) / (1 - 0.1)
        np.testing.assert_array_equal(out.array, x.array * keep)
        np.testing.assert_array_equal(x.grad_array(), dout * keep)
        assert draw.bit_generator.state == twin.bit_generator.state

    def test_identical_seed_identical_mask(self):
        x = T.Tensor(np.ones(1000))
        a = T.dropout(x, 0.3, np.random.default_rng(5)).array
        b = T.dropout(x, 0.3, np.random.default_rng(5)).array
        assert np.array_equal(a, b)


def _attention_reference(q, k, v, key_mask, num_heads, keep=None):
    """Plain numpy multi-head attention, one head and one sequence at a time;
    the softmax runs over the real keys only, and padding keys get 0."""
    b, sq, h = q.shape
    d = h // num_heads
    out = np.zeros((b, sq, h))
    for i in range(b):
        real = np.ones(k.shape[1], dtype=bool) if key_mask is None else key_mask[i]
        for j in range(num_heads):
            cols = slice(j * d, (j + 1) * d)
            scores = q[i, :, cols] @ k[i][real, cols].T / math.sqrt(d)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            probs = np.zeros((sq, k.shape[1]))
            probs[:, real] = e / e.sum(axis=-1, keepdims=True)
            if keep is not None:
                probs = probs * keep[i, j]
            out[i, :, cols] = probs @ v[i, :, cols]
    return out


class TestAttention:
    def _inputs(self, seed, sq=5, sk=5, requires_grad=False):
        rng = np.random.default_rng(seed)
        return [
            T.Tensor(rng.normal(size=(2, s, 4)), requires_grad=requires_grad)
            for s in (sq, sk, sk)
        ]

    @pytest.mark.parametrize("sq,mask", [(5, PAD_LAST_TWO), (3, None)])
    def test_matches_numpy_reference(self, sq, mask):
        q, k, v = self._inputs(0, sq=sq)
        out = T.attention(q, k, v, mask, 2, 0.1, None)
        ref = _attention_reference(q.array, k.array, v.array, mask, 2)
        assert out.shape == (2, sq, 4)
        np.testing.assert_allclose(out.array, ref, rtol=0, atol=1e-12)

    def test_padding_keys_get_no_weight(self):
        q, k, v = self._inputs(1)
        out = T.attention(q, k, v, PAD_LAST_TWO, 2, 0.0, None).array
        v.array[1, 3:] = 1e6
        k.array[1, 3:] = -7.0
        again = T.attention(q, k, v, PAD_LAST_TWO, 2, 0.0, None).array
        np.testing.assert_array_equal(again, out)

    def test_training_draws_one_dropout_mask(self):
        q, k, v = self._inputs(2)
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        out = T.attention(q, k, v, PAD_LAST_TWO, 2, 0.3, rng)
        keep = (twin.random((2, 2, 5, 5)) >= 0.3) / 0.7
        assert rng.bit_generator.state == twin.bit_generator.state
        ref = _attention_reference(q.array, k.array, v.array, PAD_LAST_TWO, 2, keep)
        np.testing.assert_allclose(out.array, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "shapes,mask_shape,heads",
        [
            (((5, 4), (2, 5, 4), (2, 5, 4)), None, 2),  # q rank
            (((2, 5, 4), (2, 5, 4), (2, 6, 4)), None, 2),  # k/v lengths
            (((3, 5, 4), (2, 5, 4), (2, 5, 4)), None, 2),  # batch sizes
            (((2, 5, 6), (2, 5, 4), (2, 5, 4)), None, 2),  # widths
            (((2, 5, 4), (2, 5, 4), (2, 5, 4)), None, 3),  # h % num_heads
            (((2, 5, 4), (2, 5, 4), (2, 5, 4)), (2, 4), 2),  # mask
        ],
    )
    def test_shape_errors(self, shapes, mask_shape, heads):
        q, k, v = (T.Tensor(np.zeros(s)) for s in shapes)
        mask = None if mask_shape is None else np.ones(mask_shape, dtype=bool)
        with pytest.raises(ShapeError):
            T.attention(q, k, v, mask, heads, 0.0, None)

    def test_an_additive_float_mask_is_refused(self):
        # 0 on real keys and MASK_SCORE on padding would read inverted as bool
        q, k, v = self._inputs(3)
        with pytest.raises(ShapeError, match="float64"):
            T.attention(q, k, v, np.where(PAD_LAST_TWO, 0.0, T.MASK_SCORE), 2, 0.0, None)

    def test_constant_inputs_get_no_gradient(self):
        q, k, v = self._inputs(4)
        for trainable in (q, v):
            for t in (q, k, v):
                t.requires_grad = t is trainable
                t.zero_grad()
            T.tsum(T.attention(q, k, v, PAD_LAST_TWO, 2, 0.0, None)).backward()
            for t in (q, k, v):
                assert (t.grad is not None) == (t is trainable)

    def test_frozen_inputs_record_no_graph(self):
        out = T.attention(*self._inputs(5), PAD_LAST_TWO, 2, 0.0, None)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None

    def test_dropout_gradients_match_finite_differences(self):
        q, k, v = self._inputs(6, sq=3, requires_grad=True)
        probe = T.Tensor(np.random.default_rng(7).normal(size=(2, 3, 4)))

        def loss():  # a fresh rng each call: the same dropout mask every time
            out = T.attention(q, k, v, None, 2, 0.4, np.random.default_rng(8))
            return T.tsum(out * probe)

        assert grad_check(loss, [q, k, v], h=1e-4).max_rel_err < 1e-4


class TestAutodiff:
    """Analytic gradients match central finite differences on random inputs."""

    @pytest.mark.parametrize(
        "name,fn,shapes",
        [
            ("add", lambda a, b: a + b, [(3, 4), (4,)]),
            ("mul", lambda a, b: a * b, [(3, 4), (3, 4)]),
            (
                "attention-self",
                lambda q, k, v: T.attention(q, k, v, PAD_LAST_TWO, 2, 0.0, None),
                [(2, 5, 4)] * 3,
            ),
            ("softmax", lambda a: T.softmax(a, -1), [(3, 5)]),
            ("gelu", T.gelu, [(3, 4)]),
            ("reshape", lambda a: T.reshape(a, (4, 3)), [(3, 4)]),
            ("transpose", lambda a: T.transpose(a, (1, 0)), [(3, 4)]),
            ("mean", lambda a: T.mean(a, axis=1), [(3, 4)]),
            ("linear", T.linear, [(3, 4), (4, 2), (2,)]),
            ("linear-3d", T.linear, [(2, 3, 4), (4, 2), (2,)]),
            (
                "attention-cross",
                lambda q, k, v: T.attention(q, k, v, None, 2, 0.0, None),
                [(2, 3, 4), (2, 5, 4), (2, 5, 4)],
            ),
            (
                "residual-layer-norm",
                lambda x, y, g, b: T.residual_layer_norm(x, y, g, b, 0.1, None, 1e-6),
                [(3, 8), (3, 8), (8,), (8,)],
            ),
            (  # a fresh rng each call: the same dropout mask every time
                "residual-layer-norm-dropout",
                lambda x, y, g, b: T.residual_layer_norm(
                    x, y, g, b, 0.3, np.random.default_rng(8), 1e-6
                ),
                [(2, 3, 8), (2, 3, 8), (8,), (8,)],
            ),
            (
                "dropout",
                lambda a: T.dropout(a, 0.4, np.random.default_rng(9)),
                [(3, 4)],
            ),
            ("linear-no-bias", T.linear, [(2, 3, 4), (4, 2)]),
            (
                "index-select-2d",
                lambda a: T.index_select(a, [[3, 0, 3], [1, 3, 0]]),
                [(4, 5)],
            ),
        ],
    )
    def test_op_gradients(self, name, fn, shapes):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        params = [T.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        probe = T.Tensor(rng.normal(size=fn(*params).shape))

        def loss():
            return T.tsum(fn(*params) * probe)

        report = grad_check(loss, params, h=1e-4)
        assert report.max_rel_err < 1e-4, f"{name}: {report}"

    def test_layer_norm_gradients(self):
        rng = np.random.default_rng(11)
        x = T.Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        g = T.Tensor(rng.normal(size=8), requires_grad=True)
        b = T.Tensor(rng.normal(size=8), requires_grad=True)
        probe = T.Tensor(rng.normal(size=(3, 8)))

        def loss():
            return T.tsum(T.layer_norm(x, g, b, eps=1e-6) * probe)

        assert grad_check(loss, [x, g, b]).max_rel_err < 1e-4

    def test_index_select_accumulates_duplicates(self):
        x = T.Tensor(np.arange(4.0).reshape(4, 1), requires_grad=True)
        out = T.index_select(x, [1, 1, 3])
        T.tsum(out).backward()
        np.testing.assert_array_equal(x.grad_array()[:, 0], [0.0, 2.0, 0.0, 1.0])

    def test_index_select_scatter_equals_add_at(self):
        rng = np.random.default_rng(21)
        for shape, idx_shape in (((7, 5), (200,)), ((4,), (3, 30)), ((6, 2, 3), (50,))):
            x = T.Tensor(rng.normal(size=shape), requires_grad=True)
            idx = rng.integers(0, shape[0], size=idx_shape)
            dout = rng.normal(size=idx_shape + shape[1:])
            T.tsum(T.index_select(x, idx) * T.Tensor(dout)).backward()
            expected = np.zeros(shape)
            np.add.at(expected, idx, dout)
            np.testing.assert_array_equal(x.grad_array(), expected)

    def test_shared_node_gradient(self):
        # x used twice: d(x*x)/dx = 2x
        x = T.Tensor([3.0], requires_grad=True)
        (x * x).backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_no_two_nodes_share_a_gradient_buffer(self):
        # add's backward hands one dout to a and b; a's later gradient from
        # a * a must not reach b's buffer
        rng = np.random.default_rng(13)
        a, b, c = (T.Tensor(rng.normal(size=4), requires_grad=True) for _ in range(3))
        loss = T.tsum((a + b) * c) + T.tsum(a * a)
        loss.backward()
        np.testing.assert_array_equal(b.grad_array(), c.array)
        np.testing.assert_allclose(a.grad_array(), c.array + 2 * a.array, rtol=0, atol=1e-15)

    def test_backward_releases_every_op_node(self):
        """Only leaves keep a gradient; the sweep drops each op node's
        gradient, closure and inputs once its backward has run."""
        rng = np.random.default_rng(17)
        x, w, b, g, beta = (
            T.Tensor(rng.normal(size=s), requires_grad=True)
            for s in ((2, 3, 4), (4, 4), (4,), (4,), (4,))
        )
        hidden = T.linear(x, w, b)
        normed = T.residual_layer_norm(x, hidden, g, beta, 0.2, np.random.default_rng(1))
        probs = T.softmax(normed, -1)
        square = probs * probs
        act = T.gelu(square)
        loss = T.mean(act)
        ops = [hidden, normed, probs, square, act, loss]
        loss.backward()
        for node in ops:
            assert node._grad is None
            assert node._parents == () and node._backward is None
        for leaf in (x, w, b, g, beta):
            assert leaf.grad_array() is not None and leaf.grad_array().shape == leaf.shape

    def test_constant_operands_get_no_gradient(self):
        x = T.Tensor(np.ones((2, 3)), requires_grad=True)
        mask, scale = T.Tensor(np.zeros((1, 3))), T.Tensor(2.0)
        T.tsum((x + mask) * scale).backward()
        assert mask.grad is None and scale.grad is None
        np.testing.assert_array_equal(x.grad_array(), np.full((2, 3), 2.0))


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.uniform(-1e4, 1e4, size=(5, 7)))
    for out in (
        T.softmax(x, -1),
        T.gelu(x),
        T.layer_norm(x, T.Tensor(np.ones(7)), T.Tensor(np.zeros(7))),
    ):
        assert np.all(np.isfinite(out.array))


def test_operation_determinism():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 6))
    bias = T.Tensor(np.zeros(6))
    a = T.linear(T.softmax(T.Tensor(x), -1), T.gelu(T.Tensor(x)), bias).array
    b = T.linear(T.softmax(T.Tensor(x), -1), T.gelu(T.Tensor(x)), bias).array
    assert np.array_equal(a, b)


def test_training_graphs_are_freed_by_reference_counting():
    """Backward closures never reference their output node, so a dropped
    graph leaves nothing for the cyclic collector."""
    d = Dialogue(1, "s", tuple(
        Utterance(f"spk{i}", tuple(f"w{i}{j}" for j in range(3))) for i in range(3)
    ))
    vocab = build_vocab([d])
    cfg = ModelConfig(vocab_size=len(vocab), hidden_size=8, intermediate_size=16)
    rng = np.random.default_rng(0)
    qa_w = init_encoder_weights(cfg, STAGE_FINETUNED, rng)
    mlm_w = init_encoder_weights(cfg, STAGE_TMLM, rng)
    answerable = make_example("a", "what w01", (AnswerSpan(0, 1, 2, "w01 w02"),))
    encodings = [encode_for_qa(vocab, cfg, q, d) for q in (answerable, make_example("b", "who", ()))]
    tmlm = [build_tmlm_instance(vocab, cfg, encode_dialogue(vocab, d), rng) for _ in range(2)]
    gc.collect()
    gc.disable()
    try:
        loss = qa_batch_loss(qa_w, encodings, rng=rng)
        loss.backward()
        loss = mlm_batch_loss(mlm_w, tmlm, rng=rng)
        loss.backward()
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestAllocatorPolicy:
    def test_without_mallopt_nothing_is_set(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert T._keep_freed_memory_mapped() is False

    def test_a_refused_mmap_threshold_leaves_the_trim_threshold(self, monkeypatch):
        params = []
        fake = types.SimpleNamespace(mallopt=lambda param, value: params.append(param) or 0)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: fake)
        assert T._keep_freed_memory_mapped() is False
        assert params == [-3]

    # 2 warm-up and 5 measured 32-question finetune steps at the default
    # RunConfig, in a fresh process so that no other test has shaped its heap
    FAULT_PROBE = """
import json, resource
import numpy as np
from dialoqa.encoder import STAGE_FINETUNED, init_encoder_weights
from dialoqa.finetune import encode_for_qa, qa_batch_loss
from dialoqa.optim import adam_step
from dialoqa.synth import generate_corpus
from dialoqa.training import RunConfig, qa_entries
from dialoqa.vocab import build_vocab

cfg = RunConfig()
corpus = generate_corpus(seed=0)
vocab = build_vocab(d for d, _ in corpus)
model = cfg.model_config(len(vocab))
weights = init_encoder_weights(model, STAGE_FINETUNED, np.random.default_rng(0))
batch = [encode_for_qa(vocab, model, q, d) for d, qs in qa_entries(cfg, corpus) for q in qs][:32]
adam, rng = cfg.adam_state(), np.random.default_rng(1)
faults = []
for step in range(1, 8):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    weights.zero_grads()
    qa_batch_loss(weights, batch, rng=rng).backward()
    adam_step(weights.vector, weights.grads(), adam, cfg.base_lr, step)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"questions": len(batch), "faults": faults}))
"""

    def test_warm_finetune_steps_reuse_freed_memory(self):
        if not T._keep_freed_memory_mapped():
            pytest.skip("the C library has no mallopt that takes the policy")
        out = subprocess.run(
            [sys.executable, "-c", self.FAULT_PROBE], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout)
        measured = result["faults"][2:]
        assert result["questions"] == 32
        # 900-1,300 minor faults per step when freed memory goes back to the OS
        assert sum(measured) / len(measured) < 50, result["faults"]
