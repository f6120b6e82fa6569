"""Encoder forwards: shapes, masking, permutation behavior, residual path,
and a full gradient check at toy scale."""

import numpy as np
import pytest
from conftest import grad_check

from dialoqa import encoder
from dialoqa import tensor as T
from dialoqa.encoder import (
    STAGE_FINETUNED,
    STAGE_GROUPS,
    STAGE_UOP,
    EncoderWeights,
    ModelConfig,
    group_shapes,
    init_encoder_weights,
    mha_forward,
    stage_layout,
    stage_shapes,
    te_forward,
    tl_forward,
)
from dialoqa.errors import CapacityError, ConfigError, ShapeError

TOY = ModelConfig(
    vocab_size=50, num_layers=2, num_heads=2, hidden_size=8,
    intermediate_size=16, max_tokens=6, max_utterances=4, dropout_p=0.0,
)


# Two sequences of five positions, the second padded after three.
PADDED = np.array([[True] * 5, [True, True, True, False, False]])


@pytest.fixture(scope="module")
def uop_weights():
    return init_encoder_weights(TOY, STAGE_UOP, np.random.default_rng(10))


@pytest.fixture(scope="module")
def ft_weights():
    return init_encoder_weights(TOY, STAGE_FINETUNED, np.random.default_rng(11))


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=10, hidden_size=10, num_heads=3)
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=0)


def test_tensor_shapes_consistent(uop_weights):
    for name, p in uop_weights.named():
        assert p.array.shape == stage_shapes(TOY, STAGE_UOP)[name]
        assert np.all(np.isfinite(p.array))


def test_stage_tensor_sets():
    tmlm = set(stage_shapes(TOY, "tmlm"))
    uop = set(stage_shapes(TOY, "uop"))
    ft = set(stage_shapes(TOY, "finetuned"))
    assert "vocab_bias" in tmlm and "tl.0.attn_wq" not in tmlm
    assert "tl.1.ff_w2" in uop and "uop_w" in uop and "vocab_bias" not in uop
    assert {"mha.wq", "uid_w", "sl_w", "sr_w"} <= ft and "uop_w" not in ft


@pytest.mark.parametrize("group, name, shape", [
    ("te", "token_pos_emb", (TOY.max_tokens * TOY.max_utterances + 1, 8)),
    ("te", "te.1.ff_w1", (8, 16)),
    ("tl", "utt_pos_emb", (TOY.max_utterances + 1, 8)),
    ("tl", "tl.1.ff_w2", (16, 8)),
    ("mlm", "vocab_bias", (TOY.vocab_size,)),
    ("uop", "uop_w", (8, 2)),
    ("qa", "mha.bv", (8,)),
    ("qa", "sr_w", (8, 1)),
])
def test_group_shape(group, name, shape):
    assert group_shapes(TOY, group)[name] == shape


def test_stage_shapes_follow_the_groups():
    for stage, groups in STAGE_GROUPS.items():
        names = [n for g in groups for n in group_shapes(TOY, g)]
        assert list(stage_shapes(TOY, stage)) == names
        assert list(init_encoder_weights(TOY, stage, np.random.default_rng(0)).params) == names
    assert len(group_shapes(TOY, "te")) == 2 + 15 * TOY.num_layers
    assert len(group_shapes(TOY, "tl")) == 1 + 15 * 2
    with pytest.raises(ConfigError):
        stage_shapes(TOY, "bogus")


def test_stage_layout_is_the_stage_table_computed_once():
    """Weights, checkpoint loads and their views read one layout per model
    config and stage: its shapes are ``stage_shapes`` and its offsets the
    running sizes, so every parameter views its own slice of the vector."""
    for stage in STAGE_GROUPS:
        shapes, offsets = stage_layout(TOY, stage)
        assert dict(shapes) == stage_shapes(TOY, stage)
        assert offsets == tuple(np.cumsum([0] + [int(np.prod(s)) for s in shapes.values()]))
        assert stage_layout(ModelConfig(**TOY.to_dict()), stage) is stage_layout(TOY, stage)
        weights = EncoderWeights(TOY, stage, np.arange(offsets[-1], dtype=np.float64))
        for (name, p), start in zip(weights.named(), offsets):
            assert p.array.reshape(-1)[0] == start and np.shares_memory(p.array, weights.vector)
    with pytest.raises(TypeError):
        stage_layout(TOY, STAGE_UOP)[0]["uop_w"] = (1, 1)


@pytest.mark.parametrize("shape", ["short", "long", "2-d"])
def test_a_vector_of_another_shape_is_refused(shape):
    n = stage_layout(TOY, STAGE_UOP)[1][-1]
    vector = np.zeros({"short": (n - 1,), "long": (n + 1,), "2-d": (1, n)}[shape])
    with pytest.raises(ShapeError, match="uop vector"):
        EncoderWeights(TOY, STAGE_UOP, vector)


class TestTeForward:
    def test_output_shape(self, uop_weights):
        cfg = ModelConfig(vocab_size=50, num_layers=1, num_heads=2, hidden_size=32,
                          intermediate_size=64, max_tokens=8, max_utterances=4,
                          dropout_p=0.0)
        w = init_encoder_weights(cfg, "tmlm", np.random.default_rng(0))
        out = te_forward(w, np.arange(16)[None])
        assert out.shape == (1, 16, 32)

    def test_capacity_error(self, uop_weights):
        too_long = np.zeros((1, TOY.token_position_capacity + 1), dtype=int)
        with pytest.raises(CapacityError):
            te_forward(uop_weights, too_long)

    def test_attention_rows_sum_to_one(self):
        # With W_v = 0 and b_v = c every value is c, so each query's output
        # is c @ W_o + b_o exactly when its probabilities sum to one.
        w = init_encoder_weights(TOY, "tmlm", np.random.default_rng(13))
        rng = np.random.default_rng(3)
        c = rng.normal(size=8)
        w["te.0.attn_wv"].array[:] = 0.0
        w["te.0.attn_bv"].array[:] = c
        want = c @ w["te.0.attn_wo"].array + w["te.0.attn_bo"].array
        x = T.Tensor(rng.normal(size=(2, 5, 8)))
        for key_mask in (None, PADDED):
            out = encoder._attention(w, "te.0.attn_", x, x, key_mask, None).array
            np.testing.assert_allclose(out, np.broadcast_to(want, out.shape), rtol=0, atol=1e-12)

    def test_attention_ignores_padded_keys(self, uop_weights):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 5, 8))
        changed = x.copy()
        changed[~PADDED] = 10.0 * rng.normal(size=(2, 8))
        a, b = (
            encoder._attention(uop_weights, "te.0.attn_", T.Tensor(v), T.Tensor(v),
                               PADDED, None).array
            for v in (x, changed)
        )
        assert np.array_equal(a[PADDED], b[PADDED])  # padded queries may change

    def test_padding_invariance(self, uop_weights):
        rng = np.random.default_rng(4)
        for _ in range(5):
            length = int(rng.integers(3, 10))
            pad = int(rng.integers(1, 6))
            ids = rng.integers(0, TOY.vocab_size, size=length)
            padded = np.concatenate([ids, np.zeros(pad, dtype=np.intp)])[None]
            mask = np.concatenate([np.ones(length, bool), np.zeros(pad, bool)])[None]
            base = te_forward(uop_weights, ids[None]).array[0]
            with_pad = te_forward(uop_weights, padded, mask).array[0]
            np.testing.assert_allclose(with_pad[:length], base, atol=1e-9)

    def test_batched_matches_single(self, uop_weights):
        rng = np.random.default_rng(5)
        ids = rng.integers(0, TOY.vocab_size, size=(3, 7))
        batched = te_forward(uop_weights, ids).array
        for b in range(3):
            single = te_forward(uop_weights, ids[b : b + 1]).array[0]
            np.testing.assert_allclose(batched[b], single, atol=1e-12)

    def test_dropout_deterministic_given_seed(self):
        cfg = ModelConfig(**{**TOY.to_dict(), "dropout_p": 0.2})
        w = init_encoder_weights(cfg, STAGE_UOP, np.random.default_rng(10))
        ids = np.arange(6)[None]
        a = te_forward(w, ids, rng=np.random.default_rng(9)).array
        b = te_forward(w, ids, rng=np.random.default_rng(9)).array
        assert np.array_equal(a, b)
        assert not np.array_equal(a, te_forward(w, ids).array)


class TestTlForward:
    def test_shape_preserved(self, uop_weights):
        x = np.random.default_rng(0).normal(size=(1, 5, 8))
        out = tl_forward(uop_weights, x, position_offset=0)
        assert out.shape == (1, 5, 8)

    def test_capacity(self, uop_weights):
        x = np.zeros((1, TOY.max_utterances + 2, 8))
        with pytest.raises(CapacityError):
            tl_forward(uop_weights, x)

    def test_permutation_equivariance_without_positions(self, uop_weights):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 8))
        perm = np.array([2, 0, 3, 1])
        saved = uop_weights["utt_pos_emb"].array.copy()
        uop_weights["utt_pos_emb"].array[:] = 0.0
        try:
            out = tl_forward(uop_weights, x[None]).array[0]
            out_perm = tl_forward(uop_weights, x[perm][None]).array[0]
        finally:
            uop_weights["utt_pos_emb"].array[:] = saved
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-9)

    def test_order_sensitivity_with_positions(self, uop_weights):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 8))
        perm = np.array([2, 0, 3, 1])
        out = tl_forward(uop_weights, x[None]).array[0]
        out_perm = tl_forward(uop_weights, x[perm][None]).array[0]
        assert np.abs(out_perm - out[perm]).max() > 1e-4

    def test_positions_disabled_by_config(self):
        cfg = ModelConfig(**{**TOY.to_dict(), "use_utterance_positions": False})
        w = init_encoder_weights(cfg, STAGE_UOP, np.random.default_rng(1))
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 8))
        perm = np.array([1, 3, 0, 2])
        out = tl_forward(w, x[None]).array[0]
        out_perm = tl_forward(w, x[perm][None]).array[0]
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-9)


class TestMhaForward:
    def test_output_length_is_utterance_length(self, ft_weights):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(1, 5, 8))
        u = rng.normal(size=(1, 7, 8))
        assert mha_forward(ft_weights, q, u).shape == (1, 7, 8)

    def test_attention_rows_sum_to_one(self):
        # With W_v = 0 and b_v = c every value is c, so the output is
        # u + c @ W_o + b_o exactly when each query's probabilities sum to one.
        w = init_encoder_weights(TOY, STAGE_FINETUNED, np.random.default_rng(15))
        rng = np.random.default_rng(1)
        c = rng.normal(size=8)
        w["mha.wv"].array[:] = 0.0
        w["mha.bv"].array[:] = c
        want = c @ w["mha.wo"].array + w["mha.bo"].array
        q = rng.normal(size=(2, 5, 8))
        u = rng.normal(size=(2, 7, 8))
        for question_mask in (None, PADDED):
            out = mha_forward(w, q, u, question_mask=question_mask).array
            np.testing.assert_allclose(out, u + want, rtol=0, atol=1e-12)

    def test_padded_question_rows_leave_the_output_unchanged(self, ft_weights):
        rng = np.random.default_rng(16)
        q = rng.normal(size=(2, 5, 8))
        u = rng.normal(size=(2, 7, 8))
        changed = q.copy()
        changed[~PADDED] = 10.0 * rng.normal(size=(2, 8))
        a, b = (
            mha_forward(ft_weights, v, u, question_mask=PADDED).array
            for v in (q, changed)
        )
        assert np.array_equal(a, b)

    def test_residual_identity_with_zeroed_output_projection(self, ft_weights):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(1, 4, 8))
        u = rng.normal(size=(1, 6, 8))
        saved_w = ft_weights["mha.wo"].array.copy()
        saved_b = ft_weights["mha.bo"].array.copy()
        ft_weights["mha.wo"].array[:] = 0.0
        ft_weights["mha.bo"].array[:] = 0.0
        try:
            out = mha_forward(ft_weights, q, u).array
        finally:
            ft_weights["mha.wo"].array[:] = saved_w
            ft_weights["mha.bo"].array[:] = saved_b
        np.testing.assert_array_equal(out, u)  # exact


def test_wrong_rank_input_is_shape_error(ft_weights):
    with pytest.raises(ShapeError, match=r"\(6,\)"):
        te_forward(ft_weights, np.arange(6))
    with pytest.raises(ShapeError, match=r"\(4, 8\)"):
        tl_forward(ft_weights, np.zeros((4, 8)))
    with pytest.raises(ShapeError, match=r"\(5, 8\)"):
        mha_forward(ft_weights, np.zeros((5, 8)), np.zeros((1, 7, 8)))


def test_mis_shaped_mask_is_shape_error(ft_weights):
    ids, x = np.ones((2, 5), dtype=np.intp), np.zeros((2, 5, 8))
    bad = np.ones((2, 4), dtype=bool)
    for forward in (
        lambda: te_forward(ft_weights, ids, bad),
        lambda: tl_forward(ft_weights, x, attention_mask=bad),
        lambda: mha_forward(ft_weights, x, np.zeros((2, 3, 8)), question_mask=bad),
    ):
        with pytest.raises(ShapeError, match=r"mask \(2, 4\)"):
            forward()


def test_te_gradcheck_toy_scale(uop_weights):
    rng = np.random.default_rng(12)
    w = init_encoder_weights(TOY, "tmlm", rng)
    ids = rng.integers(0, TOY.vocab_size, size=9)

    def loss():
        out = T.reshape(te_forward(w, ids[None]), (9, TOY.hidden_size))
        logits = T.linear(out, T.transpose(w["token_emb"], (1, 0)), w["vocab_bias"])
        return T.mean_cross_entropy(logits, ids)

    report = grad_check(
        loss, dict(w.named()), h=1e-4,
        rng=np.random.default_rng(13), max_coords_per_param=6,
    )
    assert report.max_rel_err < 1e-4, report
