"""Transformer encoder over token sequences (TE), the two-layer transformer
over utterance embeddings (TL1, TL2), and the cross attention between
question and utterance tokens (MHA).

Every forward takes a batch only: token ids (B, S), embeddings (B, S, h)
and boolean masks (B, S), True marking real (attendable) positions; a
single sequence is a batch of one. Forwards are read-only over the weights,
read every hyperparameter (dropout rate, head and layer counts, capacities)
from ``weights.config``, and draw dropout noise only from a generator they
are given: without ``rng`` a forward is the deterministic inference pass.
A padded batch has one form. ``pad_batch`` right-pads integer sequences
with 0 into a rectangle and a bool mask, True on real slots; it builds TE's
token ids and every flat row index that the pre-training losses and the QA
heads read TE's outputs by. 0 is both the PAD id and the row that a masked
index slot reads. ``gather_rows`` reads those rows, for an index array of any
shape, and every forward passes its mask to ``tensor.attention`` as it is.

All three attentions (TE and TL self-attention, MHA cross-attention) go
through ``_attention``: the q/k/v/o ``linear`` projections around one
``tensor.attention`` node, with padding keys masked by the (B, S) bool key
mask. Both sublayers of a TE or TL layer (attention, feed-forward)
end in one ``tensor.residual_layer_norm`` node, LayerNorm(x + dropout(out)).
The key projection and the UID/span heads carry no bias: a key bias would add
``q . bk`` to every score of a query row, and a head bias one constant to
every logit, a shift that softmax cancels, so neither could change any
probability, loss or answer.

The stage table is the one definition of the weights' names and shapes.
``STAGE_GROUPS`` lists each stage's parameter groups: "te" the token
encoder, "tl" the utterance transformer, and one task head, "mlm" (the bias
of the vocabulary projection tied to ``token_emb``), "uop" or "qa" (MHA and
the UID/span heads). ``group_shapes`` and ``stage_shapes`` give the tensor
names and shapes in init order, which is also the order of the init rng
draws. ``STAGE_SOURCES`` lists the stages whose checkpoint may start each
stage: token and utterance MLM train TE, order prediction adds TL, and
fine-tuning takes over both (Li & Choi 2020, section 3).
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, ConfigError, ShapeError
from .tensor import (
    Tensor,
    as_tensor,
    attention,
    dropout,
    gelu,
    index_select,
    layer_norm,
    linear,
    reshape,
    residual_layer_norm,
)

LN_EPS = 1e-12
INIT_STD = 0.02

STAGE_TMLM = "tmlm"
STAGE_UMLM = "umlm"
STAGE_UOP = "uop"
STAGE_FINETUNED = "finetuned"

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


# The stage table (see the module docstring). Transfer copies the groups in
# TRANSFERRED_GROUPS that the source stage owns; every other tensor starts fresh.
STAGE_GROUPS = {
    STAGE_TMLM: ("te", "mlm"),
    STAGE_UMLM: ("te", "mlm"),
    STAGE_UOP: ("te", "tl", "uop"),
    STAGE_FINETUNED: ("te", "tl", "qa"),
}
# The tmlm source of fine-tuning is the no-utterance-pretraining baseline.
STAGE_SOURCES = {
    STAGE_TMLM: (),
    STAGE_UMLM: (STAGE_TMLM,),
    STAGE_UOP: (STAGE_UMLM,),
    STAGE_FINETUNED: (STAGE_UOP, STAGE_TMLM),
}
TRANSFERRED_GROUPS = ("te", "tl")


def _projection_shapes(prefix: str, h: int) -> dict[str, tuple[int, ...]]:
    """The q/k/v/o weights and q/v/o biases that ``_attention`` reads."""
    names = ("wq", "bq", "wk", "wv", "bv", "wo", "bo")
    return {prefix + n: (h, h) if n[0] == "w" else (h,) for n in names}


def _layer_shapes(prefix: str, count: int, h: int, inter: int) -> dict[str, tuple[int, ...]]:
    """``count`` transformer layers, as ``_self_attention_block`` reads them."""
    out = {}
    for p in (f"{prefix}.{i}" for i in range(count)):
        out.update({
            **_projection_shapes(f"{p}.attn_", h),
            f"{p}.ln1_g": (h,), f"{p}.ln1_b": (h,),
            f"{p}.ff_w1": (h, inter), f"{p}.ff_b1": (inter,),
            f"{p}.ff_w2": (inter, h), f"{p}.ff_b2": (h,),
            f"{p}.ln2_g": (h,), f"{p}.ln2_b": (h,),
        })
    return out


def group_shapes(config: ModelConfig, group: str) -> dict[str, tuple[int, ...]]:
    """Ordered ``{tensor name: shape}`` of one parameter group."""
    h, inter = config.hidden_size, config.intermediate_size
    groups = {
        "te": {
            "token_emb": (config.vocab_size, h),
            "token_pos_emb": (config.token_position_capacity, h),
            **_layer_shapes("te", config.num_layers, h, inter),
        },
        "tl": {"utt_pos_emb": (config.max_utterances + 1, h), **_layer_shapes("tl", 2, h, inter)},
        "mlm": {"vocab_bias": (config.vocab_size,)},
        "uop": {"uop_w": (h, 2), "uop_b": (2,)},
        "qa": {
            **_projection_shapes("mha.", h), "mha.ln_g": (h,), "mha.ln_b": (h,),
            "uid_w": (h, 1), "sl_w": (h, 1), "sr_w": (h, 1),
        },
    }
    if group not in groups:
        raise ConfigError(f"unknown parameter group {group!r}")
    return groups[group]


def stage_shapes(config: ModelConfig, stage: str) -> dict[str, tuple[int, ...]]:
    """Ordered ``{tensor name: shape}`` of every tensor a stage owns."""
    if stage not in STAGE_GROUPS:
        raise ConfigError(f"unknown stage {stage!r}")
    out = {}
    for group in STAGE_GROUPS[stage]:
        out.update(group_shapes(config, group))
    return out


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
        name: _init_tensor(name, shape, rng)
        for name, shape in stage_shapes(config, stage).items()
    }
    return EncoderWeights(config, stage, params)


# -- forward passes -----------------------------------------------------------


def pad_batch(sequences: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad integer sequences with 0 to a rectangle; mask True on real
    positions."""
    n = len(sequences)
    width = max(len(s) for s in sequences)
    ids = np.zeros((n, width), dtype=np.intp)
    mask = np.zeros((n, width), dtype=bool)
    for i, s in enumerate(sequences):
        ids[i, : len(s)] = s
        mask[i, : len(s)] = True
    return ids, mask


def gather_rows(out: Tensor, idx) -> Tensor:
    """Rows of a (B, L, h) output picked by flat index b*L + position; an
    index array of any shape gives ``idx.shape + (h,)``."""
    b, l, h = out.shape
    return index_select(reshape(out, (b * l, h)), idx)


def _batched(x, name: str) -> Tensor:
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"{name} must be (B, S, h), got shape {x.shape}")
    return x


def _attention(
    w: EncoderWeights,
    prefix: str,
    x_q: Tensor,
    x_kv: Tensor,
    key_mask: np.ndarray | None,
    rng,
) -> Tensor:
    """Multi-head attention of ``x_q`` over ``x_kv`` with the weights
    ``{prefix}wq`` .. ``{prefix}bo``: the four projections around one
    ``attention`` node, which applies dropout to the attention
    probabilities. Returns the output projection, before any residual."""
    cfg = w.config
    ctx = attention(
        linear(x_q, w[f"{prefix}wq"], w[f"{prefix}bq"]),
        linear(x_kv, w[f"{prefix}wk"]),
        linear(x_kv, w[f"{prefix}wv"], w[f"{prefix}bv"]),
        key_mask, cfg.num_heads, cfg.dropout_p, rng,
    )
    return linear(ctx, w[f"{prefix}wo"], w[f"{prefix}bo"])


def _self_attention_block(
    w: EncoderWeights,
    prefix: str,
    x: Tensor,
    key_mask: np.ndarray | None,
    rng,
) -> Tensor:
    p = w.config.dropout_p
    attn_out = _attention(w, f"{prefix}.attn_", x, x, key_mask, rng)
    x = residual_layer_norm(
        x, attn_out, w[f"{prefix}.ln1_g"], w[f"{prefix}.ln1_b"], p, rng, LN_EPS
    )
    hidden = gelu(linear(x, w[f"{prefix}.ff_w1"], w[f"{prefix}.ff_b1"]))
    ff = linear(hidden, w[f"{prefix}.ff_w2"], w[f"{prefix}.ff_b2"])
    return residual_layer_norm(
        x, ff, w[f"{prefix}.ln2_g"], w[f"{prefix}.ln2_b"], p, rng, LN_EPS
    )


def te_forward(
    weights: EncoderWeights,
    token_ids,
    attention_mask=None,
    *,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Token ids (B, S) -> contextual embeddings (B, S, h).

    Padding keys are excluded from every softmax so appended PAD tokens
    leave real positions unchanged.
    """
    config = weights.config
    ids = np.asarray(token_ids, dtype=np.intp)
    if ids.ndim != 2:
        raise ShapeError(f"token_ids must be (B, S), got shape {ids.shape}")
    s = ids.shape[1]
    if s > config.token_position_capacity:
        raise CapacityError(
            f"sequence length {s} exceeds positional capacity "
            f"{config.token_position_capacity}"
        )
    x = index_select(weights["token_emb"], ids)
    pos = index_select(weights["token_pos_emb"], np.arange(s))
    x = dropout(x + pos, config.dropout_p, rng)
    for i in range(config.num_layers):
        x = _self_attention_block(weights, f"te.{i}", x, attention_mask, rng)
    return x


def tl_forward(
    weights: EncoderWeights,
    utterance_embeddings,
    *,
    position_offset: int = 0,
    attention_mask=None,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Utterance embeddings (B, S, h) -> T^c of the same shape.

    Learned utterance-position embeddings (row ``position_offset + j`` for
    element j) are added before TL1 unless ``weights.config`` disables them;
    without them the two layers are permutation-equivariant.
    """
    config = weights.config
    x = _batched(utterance_embeddings, "utterance_embeddings")
    s = x.shape[1]
    if position_offset + s > config.max_utterances + 1:
        raise CapacityError(
            f"utterance sequence of {s} at offset {position_offset} exceeds "
            f"capacity {config.max_utterances + 1}"
        )
    if config.use_utterance_positions:
        pos = index_select(
            weights["utt_pos_emb"], np.arange(position_offset, position_offset + s)
        )
        x = x + pos
    x = dropout(x, config.dropout_p, rng)
    for i in range(2):
        x = _self_attention_block(weights, f"tl.{i}", x, attention_mask, rng)
    return x


def mha_forward(
    weights: EncoderWeights,
    question_embeddings,
    utterance_embeddings,
    *,
    question_mask=None,
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
    normed = layer_norm(xu, weights["mha.ln_g"], weights["mha.ln_b"], LN_EPS)
    out = _attention(weights, "mha.", normed, xq, question_mask, rng)
    return xu + dropout(out, weights.config.dropout_p, rng)
