"""Versioned binary checkpoints and cross-stage weight transfer.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON header
(sorted keys), then the tensor payloads as little-endian float64 in header
directory order. Tensor names are sorted, offsets are derived, and the rng
state round-trips through the header, so save -> load -> save is
byte-identical. A save goes to a temporary file in the target directory that
then replaces the target, so an interrupted save leaves the old file whole;
a load checks the header's fields and their types, the payload length
against the directory and every payload value for finiteness, and raises
``CheckpointError`` for any file it cannot read. The directory is strict: it
holds exactly the tensors of the stage's ``encoder.stage_shapes``, and, when
the header has an Adam record, an ``adam.m.`` and an ``adam.v.`` moment of
each in that tensor's shape; a missing, extra or mis-shaped tensor raises
``CheckpointError`` naming it, so a resume never restarts a moment at zero.
Format 2 dropped the attention key biases and the QA head biases, which
format 1 held; a format-1 file raises ``CheckpointError`` naming its version.

``transfer_weights`` starts a stage from a checkpoint of one of its
``encoder.STAGE_SOURCES``: each group in ``TRANSFERRED_GROUPS`` (TE, TL)
that the source stage owns is copied exactly, and every other tensor is
drawn fresh.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoder import (
    STAGE_GROUPS,
    STAGE_SOURCES,
    TRANSFERRED_GROUPS,
    EncoderWeights,
    ModelConfig,
    _init_tensor,
    group_shapes,
    stage_shapes,
)
from .errors import CheckpointError, ConfigError, CorpusError, SequencingError
from .optim import AdamState
from .tensor import Tensor
from .vocab import Vocab

MAGIC = b"DLQACKP1"
FORMAT_VERSION = 2


@dataclass
class Checkpoint:
    weights: EncoderWeights
    vocab: Vocab
    global_step: int = 0
    adam: AdamState | None = None
    rng_state: dict | None = None
    train_state: dict = field(default_factory=dict)

    @property
    def config(self) -> ModelConfig:
        return self.weights.config

    @property
    def stage(self) -> str:
        return self.weights.stage

    def can_resume(self) -> bool:
        return self.adam is not None and self.rng_state is not None


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    tensors: dict[str, np.ndarray] = {
        name: p.array for name, p in ckpt.weights.named()
    }
    if ckpt.adam is not None:
        for name, m in ckpt.adam.first_moment.items():
            tensors[f"adam.m.{name}"] = m
        for name, v in ckpt.adam.second_moment.items():
            tensors[f"adam.v.{name}"] = v
    directory = []
    offset = 0
    for name in sorted(tensors):
        arr = tensors[name]
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 8
    header = {
        "format_version": FORMAT_VERSION,
        "stage": ckpt.stage,
        "global_step": ckpt.global_step,
        "model_config": ckpt.config.to_dict(),
        "vocab": list(ckpt.vocab.id_to_token),
        "adam": None if ckpt.adam is None else {k: getattr(ckpt.adam, k) for k in _ADAM_FIELDS},
        "rng_state": ckpt.rng_state,
        "train_state": ckpt.train_state,
        "tensors": directory,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for name in sorted(tensors):
                f.write(np.ascontiguousarray(tensors[name], dtype="<f8").tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


_NUMBER = (int, float)
_OPTIONAL_OBJECT = (dict, type(None))
# JSON type of each header field; a bool is no number here.
_HEADER_FIELDS = {
    "stage": str, "global_step": int, "model_config": dict, "vocab": list,
    "adam": _OPTIONAL_OBJECT, "rng_state": _OPTIONAL_OBJECT, "train_state": dict,
    "tensors": list,
}
_ADAM_FIELDS = {
    "beta1": _NUMBER, "beta2": _NUMBER, "epsilon": _NUMBER, "weight_decay": _NUMBER,
    "step": int,
}
_TENSOR_FIELDS = {"name": str, "shape": list, "offset": int}
# Optional train_state fields that resuming reads.
_TRAIN_STATE_FIELDS = {
    "epoch": int, "bad_evals": int, "history": list, "best_metrics": _OPTIONAL_OBJECT,
}


def _is(value, types) -> bool:
    types = types if isinstance(types, tuple) else (types,)
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


def _check_fields(obj, fields: dict, where: str) -> None:
    if not isinstance(obj, dict):
        raise CheckpointError(f"{where} is not a JSON object")
    for key, types in fields.items():
        if key not in obj:
            raise CheckpointError(f"{where} lacks the field {key!r}")
        if not _is(obj[key], types):
            raise CheckpointError(
                f"{where} field {key!r} has the wrong type {type(obj[key]).__name__}"
            )


def _check_header(header, path) -> None:
    """Raises CheckpointError unless the header has the format version and
    every field with its JSON type, no other field, and no step, epoch or
    count below 0 (-1 for the epoch of a best snapshot); the model config and
    vocabulary are checked by their own constructors."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format_version {header.get('format_version')} "
            f"unsupported (expected {FORMAT_VERSION})"
        )
    _check_fields(header, _HEADER_FIELDS, f"{path}: header")
    unknown = sorted(set(header) - {"format_version", *_HEADER_FIELDS})
    if unknown:
        raise CheckpointError(f"{path}: header has the unknown field {unknown[0]!r}")
    if header["stage"] not in STAGE_GROUPS:
        raise CheckpointError(f"{path}: unknown stage {header['stage']!r}")
    if not all(isinstance(tok, str) for tok in header["vocab"]):
        raise CheckpointError(f"{path}: vocabulary holds a non-string token")
    if header["adam"] is not None:
        _check_fields(header["adam"], _ADAM_FIELDS, f"{path}: header adam")
    state = header["train_state"]
    for key, types in _TRAIN_STATE_FIELDS.items():
        if key in state and not _is(state[key], types):
            raise CheckpointError(
                f"{path}: train_state field {key!r} has the wrong type "
                f"{type(state[key]).__name__}"
            )
    if not all(isinstance(rec, dict) for rec in state.get("history", [])):
        raise CheckpointError(f"{path}: train_state history holds a non-object")
    values = {"global_step": header["global_step"]}
    values.update({f"train_state {k}": state[k] for k in ("epoch", "bad_evals") if k in state})
    if header["adam"] is not None:
        values["adam step"] = header["adam"]["step"]
    for where, value in values.items():
        # a best snapshot (no Adam record) of the start weights is epoch -1
        lowest = -1 if where == "train_state epoch" and header["adam"] is None else 0
        if value < lowest:
            raise CheckpointError(f"{path}: {where} is {value}, below {lowest}")
    for i, ent in enumerate(header["tensors"]):
        _check_fields(ent, _TENSOR_FIELDS, f"{path}: header tensors[{i}]")
        if not all(_is(n, int) and n >= 0 for n in ent["shape"]):
            raise CheckpointError(f"{path}: tensor {ent['name']!r} has a bad shape")
    if header["rng_state"] is not None:
        try:
            np.random.PCG64(0).state = header["rng_state"]
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise CheckpointError(f"{path}: bad rng_state: {e!r}") from e


def load_checkpoint(path: str | Path) -> Checkpoint:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read checkpoint: {e}") from e
    if raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:8]!r}")
    if len(raw) < 16:
        raise CheckpointError(f"{path}: truncated before the header length")
    (hlen,) = struct.unpack("<Q", raw[8:16])
    if len(raw) < 16 + hlen:
        raise CheckpointError(f"{path}: truncated inside the {hlen}-byte header")
    try:
        header = json.loads(raw[16 : 16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header: {e}") from e
    _check_header(header, path)
    try:
        config = ModelConfig(**header["model_config"])
        vocab = Vocab.from_tokens(header["vocab"])
        adam = None if header["adam"] is None else AdamState(**header["adam"])
    except (TypeError, ConfigError, CorpusError) as e:
        raise CheckpointError(f"{path}: bad header: {e}") from e
    if len(vocab) != config.vocab_size:
        raise CheckpointError(
            f"{path}: vocabulary of {len(vocab)} tokens, config says {config.vocab_size}"
        )
    stage = header["stage"]
    payload = raw[16 + hlen :]
    entries = header["tensors"]
    counts = [math.prod(ent["shape"]) for ent in entries]
    ends = np.cumsum([0] + counts) * 8
    if [ent["offset"] for ent in entries] != ends[:-1].tolist() or len(payload) != ends[-1]:
        raise CheckpointError(
            f"{path}: payload of {len(payload)} bytes does not match the tensor "
            f"directory, which describes {ends[-1]} bytes"
        )
    arrays: dict[str, np.ndarray] = {
        ent["name"]: np.frombuffer(payload, dtype="<f8", count=count, offset=ent["offset"])
        .reshape(ent["shape"])
        .astype(np.float64)
        for ent, count in zip(entries, counts)
    }
    if not np.isfinite(np.frombuffer(payload, dtype="<f8")).all():
        name = next(n for n, arr in arrays.items() if not np.isfinite(arr).all())
        raise CheckpointError(f"{path}: tensor {name!r} holds a NaN or infinite value")

    # The directory holds exactly the stage's tensors, plus both Adam moments
    # of each in its shape when the header has an optimizer state.
    expected = stage_shapes(config, stage)
    want = dict(expected)
    if adam is not None:
        want.update({f"adam.{mv}.{n}": shape for mv in "mv" for n, shape in expected.items()})
    if len(arrays) != len(entries):
        raise CheckpointError(f"{path}: the tensor directory names a tensor twice")
    for name in sorted(want.keys() | arrays.keys()):
        if name not in arrays:
            raise CheckpointError(f"{path}: missing tensor {name!r} for stage {stage}")
        if name not in want:
            raise CheckpointError(f"{path}: tensor {name!r} does not belong to stage {stage}")
        if arrays[name].shape != want[name]:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {arrays[name].shape}, "
                f"config implies {want[name]}"
            )
    params = {name: Tensor(arrays[name], requires_grad=True) for name in expected}
    if adam is not None:
        adam.first_moment = {name: arrays[f"adam.m.{name}"] for name in expected}
        adam.second_moment = {name: arrays[f"adam.v.{name}"] for name in expected}
    return Checkpoint(
        weights=EncoderWeights(config, stage, params),
        vocab=vocab,
        global_step=header["global_step"],
        adam=adam,
        rng_state=header["rng_state"],
        train_state=header["train_state"],
    )


def transfer_weights(
    source: Checkpoint,
    target_stage: str,
    target_config: ModelConfig,
    rng: np.random.Generator,
) -> EncoderWeights:
    """Initialize weights for the next stage from a checkpoint of one of its
    ``STAGE_SOURCES``: a group in ``TRANSFERRED_GROUPS`` that the source
    stage owns is copied exactly; every other tensor (new task heads
    included) is freshly initialized, drawn from ``rng`` in table order."""
    sources = STAGE_SOURCES.get(target_stage, ())
    if source.stage not in sources:
        raise SequencingError(
            f"cannot transfer from stage {source.stage!r} to {target_stage!r}; "
            f"it starts from one of {list(sources)}"
        )
    params: dict[str, Tensor] = {}
    mismatched: list[str] = []
    for group in STAGE_GROUPS[target_stage]:
        copy = group in TRANSFERRED_GROUPS and group in STAGE_GROUPS[source.stage]
        for name, want in group_shapes(target_config, group).items():
            src = source.weights.params.get(name)
            if not copy:
                params[name] = _init_tensor(name, want, rng)
            elif src is None:
                mismatched.append(f"{name} (absent in source)")
            elif src.shape != want:
                mismatched.append(f"{name} (source {src.shape} vs target {want})")
            else:
                params[name] = Tensor(src.array.copy(), requires_grad=True)
    if mismatched:
        raise CheckpointError(
            "incompatible checkpoint for transfer; offending tensors: "
            + ", ".join(mismatched)
        )
    return EncoderWeights(target_config, target_stage, params)
