"""Transformer encoder over token sequences (TE), the two-layer transformer
over utterance embeddings (TL1, TL2), and the cross attention between
question and utterance tokens (MHA).

Every forward takes a batch only: token ids (B, S), embeddings (B, S, h)
and boolean masks (B, S), True marking real (attendable) positions; a
single sequence is a batch of one. Forwards are read-only over the weights
and draw dropout noise from an explicit rng. ``pad_batch`` builds the id
rectangle and ``gather_rows`` reads TE output rows by flat index, the one
way the pre-training losses and the QA heads read TE's outputs.

All three attentions (TE and TL self-attention, MHA cross-attention) go
through ``_attention``: the q/k/v/o ``linear`` projections around one
``tensor.attention`` node, with padding keys masked by an additive (B, S)
score array.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, ConfigError, ShapeError
from .tensor import (
    MASK_SCORE,
    Tensor,
    as_tensor,
    attention,
    dropout,
    gelu,
    index_select,
    layer_norm,
    linear,
    reshape,
)

LN_EPS = 1e-12
INIT_STD = 0.02

STAGE_TMLM = "tmlm"
STAGE_UMLM = "umlm"
STAGE_UOP = "uop"
STAGE_FINETUNED = "finetuned"
STAGES = (STAGE_TMLM, STAGE_UMLM, STAGE_UOP, STAGE_FINETUNED)

# Accepted value types by annotation (a string under postponed evaluation);
# a bool is no number here.
_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool}


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    num_layers: int = 2
    num_heads: int = 2
    hidden_size: int = 32
    intermediate_size: int = 64
    max_tokens: int = 12  # n_max: words per utterance
    max_utterances: int = 8  # m_max: utterances per dialogue
    dropout_p: float = 0.1
    use_utterance_positions: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = _FIELD_KINDS[f.type]
            if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        for name in (
            "vocab_size",
            "num_layers",
            "num_heads",
            "hidden_size",
            "intermediate_size",
            "max_tokens",
            "max_utterances",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if self.hidden_size % self.num_heads != 0:
            raise ConfigError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")

    @property
    def token_position_capacity(self) -> int:
        return self.max_tokens * self.max_utterances + 1

    def to_dict(self) -> dict:
        return asdict(self)


def _layer_names(prefix: str) -> list[str]:
    return [
        f"{prefix}.attn_wq", f"{prefix}.attn_bq",
        f"{prefix}.attn_wk", f"{prefix}.attn_bk",
        f"{prefix}.attn_wv", f"{prefix}.attn_bv",
        f"{prefix}.attn_wo", f"{prefix}.attn_bo",
        f"{prefix}.ln1_g", f"{prefix}.ln1_b",
        f"{prefix}.ff_w1", f"{prefix}.ff_b1",
        f"{prefix}.ff_w2", f"{prefix}.ff_b2",
        f"{prefix}.ln2_g", f"{prefix}.ln2_b",
    ]


def stage_tensor_names(config: ModelConfig, stage: str) -> list[str]:
    """Canonical ordered tensor list owned by each pipeline stage."""
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    names = ["token_emb", "token_pos_emb"]
    for i in range(config.num_layers):
        names.extend(_layer_names(f"te.{i}"))
    if stage in (STAGE_TMLM, STAGE_UMLM):
        names.append("vocab_bias")
    else:
        names.append("utt_pos_emb")
        for i in range(2):
            names.extend(_layer_names(f"tl.{i}"))
        if stage == STAGE_UOP:
            names.extend(["uop_w", "uop_b"])
        else:
            names.extend([
                "mha.wq", "mha.bq", "mha.wk", "mha.bk", "mha.wv", "mha.bv",
                "mha.wo", "mha.bo", "mha.ln_g", "mha.ln_b",
                "uid_w", "uid_b", "sl_w", "sl_b", "sr_w", "sr_b",
            ])
    return names


def tensor_shape(config: ModelConfig, name: str) -> tuple[int, ...]:
    h = config.hidden_size
    inter = config.intermediate_size
    base = name.rsplit(".", 1)[-1]
    if name == "token_emb":
        return (config.vocab_size, h)
    if name == "token_pos_emb":
        return (config.token_position_capacity, h)
    if name == "utt_pos_emb":
        return (config.max_utterances + 1, h)
    if name == "vocab_bias":
        return (config.vocab_size,)
    if name == "uop_w":
        return (h, 2)
    if name == "uop_b":
        return (2,)
    if name in ("uid_w", "sl_w", "sr_w"):
        return (h, 1)
    if name in ("uid_b", "sl_b", "sr_b"):
        return (1,)
    if base in ("attn_wq", "attn_wk", "attn_wv", "attn_wo", "wq", "wk", "wv", "wo"):
        return (h, h)
    if base in ("ff_w1",):
        return (h, inter)
    if base in ("ff_w2",):
        return (inter, h)
    if base in ("ff_b1",):
        return (inter,)
    if base in (
        "attn_bq", "attn_bk", "attn_bv", "attn_bo", "bq", "bk", "bv", "bo",
        "ff_b2", "ln1_g", "ln1_b", "ln2_g", "ln2_b", "ln_g", "ln_b",
    ):
        return (h,)
    raise ConfigError(f"unknown tensor name {name!r}")


def _init_tensor(name: str, shape: tuple[int, ...], rng: np.random.Generator) -> Tensor:
    base = name.rsplit(".", 1)[-1]
    if base.startswith("ln") and base.endswith("_g"):
        arr = np.ones(shape)
    elif len(shape) == 1:
        arr = np.zeros(shape)  # biases
    else:
        arr = rng.normal(0.0, INIT_STD, size=shape)
    return Tensor(arr, requires_grad=True)


@dataclass
class EncoderWeights:
    """All learnable parameters for one pipeline stage, keyed by name.

    The vocabulary projection weight is the transpose of ``token_emb``
    (tied); only its bias is a separate tensor.
    """

    config: ModelConfig
    stage: str
    params: dict[str, Tensor] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def named(self) -> Iterable[tuple[str, Tensor]]:
        return self.params.items()

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def frozen(self) -> "EncoderWeights":
        """The same arrays (not copies) as constants, for inference: a
        forward over them records no autodiff graph."""
        params = {name: Tensor(p.array) for name, p in self.params.items()}
        return EncoderWeights(self.config, self.stage, params)

    def grads(self) -> dict[str, np.ndarray]:
        out = {}
        for name, p in self.params.items():
            g = p.grad_array()
            out[name] = np.zeros_like(p.array) if g is None else g
        return out


def init_encoder_weights(
    config: ModelConfig, stage: str, rng: np.random.Generator
) -> EncoderWeights:
    params = {
        name: _init_tensor(name, tensor_shape(config, name), rng)
        for name in stage_tensor_names(config, stage)
    }
    return EncoderWeights(config, stage, params)


# -- forward passes -----------------------------------------------------------


def pad_batch(
    sequences: Sequence[Sequence[int]], pad_id: int
) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id sequences to a rectangle; mask True on real positions."""
    n = len(sequences)
    width = max(len(s) for s in sequences)
    ids = np.full((n, width), pad_id, dtype=np.intp)
    mask = np.zeros((n, width), dtype=bool)
    for i, s in enumerate(sequences):
        ids[i, : len(s)] = s
        mask[i, : len(s)] = True
    return ids, mask


def gather_rows(out: Tensor, idx) -> Tensor:
    """Rows of a (B, L, h) output picked by flat index b*L + position; an
    index array of any shape gives ``idx.shape + (h,)``."""
    b, l, h = out.shape
    idx = np.asarray(idx, dtype=np.intp)
    rows = index_select(reshape(out, (b * l, h)), idx.reshape(-1))
    return reshape(rows, idx.shape + (h,))


def _batched(x, name: str) -> Tensor:
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"{name} must be (B, S, h), got shape {x.shape}")
    return x


def _additive_key_mask(mask: np.ndarray | None, batch: int, length: int) -> np.ndarray | None:
    """(B, S) additive key scores: 0 on real keys, MASK_SCORE on padding."""
    if mask is None:
        return None
    m = np.asarray(mask, dtype=bool)
    if m.shape != (batch, length):
        raise ShapeError(f"attention mask shape {m.shape} != {(batch, length)}")
    return np.where(m, 0.0, MASK_SCORE)


def _attention(
    w: EncoderWeights,
    prefix: str,
    x_q: Tensor,
    x_kv: Tensor,
    add_mask: np.ndarray | None,
    training: bool,
    rng,
) -> Tensor:
    """Multi-head attention of ``x_q`` over ``x_kv`` with the weights
    ``{prefix}wq`` .. ``{prefix}bo``: the four projections around one
    ``attention`` node, which applies dropout to the attention
    probabilities. Returns the output projection, before any residual."""
    cfg = w.config
    ctx = attention(
        linear(x_q, w[f"{prefix}wq"], w[f"{prefix}bq"]),
        linear(x_kv, w[f"{prefix}wk"], w[f"{prefix}bk"]),
        linear(x_kv, w[f"{prefix}wv"], w[f"{prefix}bv"]),
        add_mask, cfg.num_heads, cfg.dropout_p, training, rng,
    )
    return linear(ctx, w[f"{prefix}wo"], w[f"{prefix}bo"])


def _self_attention_block(
    w: EncoderWeights,
    prefix: str,
    x: Tensor,
    add_mask: np.ndarray | None,
    training: bool,
    rng,
) -> Tensor:
    p = w.config.dropout_p
    attn_out = _attention(w, f"{prefix}.attn_", x, x, add_mask, training, rng)
    x = layer_norm(
        x + dropout(attn_out, p, training, rng),
        w[f"{prefix}.ln1_g"], w[f"{prefix}.ln1_b"], LN_EPS,
    )
    hidden = gelu(linear(x, w[f"{prefix}.ff_w1"], w[f"{prefix}.ff_b1"]))
    ff = linear(hidden, w[f"{prefix}.ff_w2"], w[f"{prefix}.ff_b2"])
    return layer_norm(
        x + dropout(ff, p, training, rng),
        w[f"{prefix}.ln2_g"], w[f"{prefix}.ln2_b"], LN_EPS,
    )


def te_forward(
    weights: EncoderWeights,
    config: ModelConfig,
    token_ids,
    attention_mask=None,
    *,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Token ids (B, S) -> contextual embeddings (B, S, h).

    Padding keys are excluded from every softmax so appended PAD tokens
    leave real positions unchanged.
    """
    ids = np.asarray(token_ids, dtype=np.intp)
    if ids.ndim != 2:
        raise ShapeError(f"token_ids must be (B, S), got shape {ids.shape}")
    b, s = ids.shape
    if s > config.token_position_capacity:
        raise CapacityError(
            f"sequence length {s} exceeds positional capacity "
            f"{config.token_position_capacity}"
        )
    add_mask = _additive_key_mask(attention_mask, b, s)
    tok = index_select(weights["token_emb"], ids.reshape(-1))
    x = reshape(tok, (b, s, config.hidden_size))
    pos = index_select(weights["token_pos_emb"], np.arange(s))
    x = dropout(x + pos, config.dropout_p, training, rng)
    for i in range(config.num_layers):
        x = _self_attention_block(weights, f"te.{i}", x, add_mask, training, rng)
    return x


def tl_forward(
    weights: EncoderWeights,
    config: ModelConfig,
    utterance_embeddings,
    *,
    position_offset: int = 0,
    attention_mask=None,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Utterance embeddings (B, S, h) -> T^c of the same shape.

    Learned utterance-position embeddings (row ``position_offset + j`` for
    element j) are added before TL1 unless disabled in the config; without
    them the two layers are permutation-equivariant.
    """
    x = _batched(utterance_embeddings, "utterance_embeddings")
    b, s, _ = x.shape
    if position_offset + s > config.max_utterances + 1:
        raise CapacityError(
            f"utterance sequence of {s} at offset {position_offset} exceeds "
            f"capacity {config.max_utterances + 1}"
        )
    add_mask = _additive_key_mask(attention_mask, b, s)
    if config.use_utterance_positions:
        pos = index_select(
            weights["utt_pos_emb"], np.arange(position_offset, position_offset + s)
        )
        x = x + pos
    x = dropout(x, config.dropout_p, training, rng)
    for i in range(2):
        x = _self_attention_block(weights, f"tl.{i}", x, add_mask, training, rng)
    return x


def mha_forward(
    weights: EncoderWeights,
    config: ModelConfig,
    question_embeddings,
    utterance_embeddings,
    *,
    question_mask=None,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Cross attention: utterance token positions attend over the question.

    ``utterance_embeddings`` (B, S_u, h) are the queries and
    ``question_embeddings`` (B, S_q, h) the keys and values. The output adds
    a residual of the utterance input, so zeroing the output projection
    (weight and bias) returns the input exactly.
    """
    xq = _batched(question_embeddings, "question_embeddings")
    xu = _batched(utterance_embeddings, "utterance_embeddings")
    if xq.shape[1] == 0 or xu.shape[1] == 0:
        raise ShapeError("mha_forward requires non-empty question and utterance inputs")
    add_mask = _additive_key_mask(question_mask, xq.shape[0], xq.shape[1])
    normed = layer_norm(xu, weights["mha.ln_g"], weights["mha.ln_b"], LN_EPS)
    out = _attention(weights, "mha.", normed, xq, add_mask, training, rng)
    return xu + dropout(out, config.dropout_p, training, rng)
