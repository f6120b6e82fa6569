"""Versioned binary checkpoints.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON header
(sorted keys), then the payload of little-endian float64 values: with an
Adam record, the first moment vector, the second, the best weights and the
weights (``EncoderWeights.vector``), each in the stage table's order; without
one, the weights alone. The header stores nothing that can be derived: no
tensor directory, no Adam step (it is ``global_step``) and no vocabulary size
(it is the vocabulary's length). It holds the ``zlib.crc32`` of the payload.
Its ``train_state`` is the dev history through the checkpoint's epoch, or
empty; each record holds its integer step. A ``-last`` holds the best
weights; a resume reads it alone and writes the ``-best`` again.
``save_checkpoint`` runs load's checks on what it is about to write, so it
writes no file load refuses: the header's fields and types, its Adam record
built into an ``AdamState`` (which checks the settings' ranges), the length
of each moment and of the best vector, and every value for finiteness. It
writes through ``files.write_file``. ``load_checkpoint`` runs the same checks
and those of the payload's length and digest, and raises ``CheckpointError``
for any file it cannot read, one of a format other than 6 included.
save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoder import STAGE_GROUPS, EncoderWeights, ModelConfig, stage_layout
from .errors import CheckpointError, ConfigError, CorpusError
from .files import write_file
from .optim import AdamState
from .vocab import Vocab

MAGIC = b"DLQACKP1"
FORMAT_VERSION = 6


@dataclass
class Checkpoint:
    weights: EncoderWeights
    vocab: Vocab
    global_step: int = 0
    adam: AdamState | None = None
    rng_state: dict | None = None
    train_state: dict = field(default_factory=dict)
    best: np.ndarray | None = None  # the best weights so far; saved with an Adam record only

    @property
    def config(self) -> ModelConfig:
        return self.weights.config

    @property
    def stage(self) -> str:
        return self.weights.stage

    def can_resume(self) -> bool:
        return self.adam is not None and self.rng_state is not None and self.best is not None


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    weights, adam = ckpt.weights, ckpt.adam
    vectors = [weights.vector]
    if adam is not None:
        vectors = [adam.first_moment, adam.second_moment, ckpt.best, weights.vector]
        if any(v is None or v.shape != weights.vector.shape for v in vectors[:3]):
            raise CheckpointError(
                f"{path}: an Adam moment or the best vector is not a vector as long as the weights"
            )
    payload = [np.ascontiguousarray(v, dtype="<f8").data for v in vectors]
    crc = 0
    for part in payload:
        crc = zlib.crc32(part, crc)
    header = {
        "format_version": FORMAT_VERSION,
        "stage": ckpt.stage,
        "global_step": ckpt.global_step,
        "model_config": {k: v for k, v in ckpt.config.to_dict().items() if k != "vocab_size"},
        "vocab": list(ckpt.vocab.id_to_token),
        "adam": None if adam is None else {k: getattr(adam, k) for k in _ADAM_FIELDS},
        "rng_state": ckpt.rng_state,
        "train_state": ckpt.train_state,
        "payload_crc32": crc,
    }
    _check_header(header, path)
    _check_finite(weights, vectors, path)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_file(path, [MAGIC + struct.pack("<Q", len(blob)) + blob, *payload])


_NUMBER = (int, float)
_OPTIONAL_OBJECT = (dict, type(None))
# JSON type of each field; a bool is no number here.
_HEADER_FIELDS = {
    "format_version": int, "stage": str, "global_step": int, "model_config": dict,
    "vocab": list, "adam": _OPTIONAL_OBJECT, "rng_state": _OPTIONAL_OBJECT,
    "train_state": dict, "payload_crc32": int,
}
_ADAM_FIELDS = {
    "beta1": _NUMBER, "beta2": _NUMBER, "epsilon": _NUMBER, "weight_decay": _NUMBER,
}
# Optional: a weights-only checkpoint may hold no dev history.
_TRAIN_STATE_FIELDS = {"history": list}


def _is(value, types) -> bool:
    types = types if isinstance(types, tuple) else (types,)
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


def _check_fields(obj, fields: dict, where: str, optional: bool = False) -> None:
    """Raises CheckpointError unless ``obj`` is an object with no field
    outside ``fields`` and each of them (unless ``optional``) of its type."""
    if not isinstance(obj, dict):
        raise CheckpointError(f"{where} is not a JSON object")
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise CheckpointError(f"{where} has the unknown field {unknown[0]!r}")
    for key, types in fields.items():
        if key not in obj and not optional:
            raise CheckpointError(f"{where} lacks the field {key!r}")
        if key in obj and not _is(obj[key], types):
            raise CheckpointError(
                f"{where} field {key!r} has the wrong type {type(obj[key]).__name__}"
            )


def _check_header(header, path) -> AdamState | None:
    """Raises CheckpointError unless the header has the format version, every
    field with its JSON type and no other, no step below 0 and Adam settings
    that ``AdamState`` accepts; returns that ``AdamState`` (None without an
    Adam record). The model config and vocabulary are checked by their
    constructors."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format_version {header.get('format_version')} "
            f"unsupported (expected {FORMAT_VERSION})"
        )
    _check_fields(header, _HEADER_FIELDS, f"{path}: header")
    if header["stage"] not in STAGE_GROUPS:
        raise CheckpointError(f"{path}: unknown stage {header['stage']!r}")
    if not all(isinstance(tok, str) for tok in header["vocab"]):
        raise CheckpointError(f"{path}: vocabulary holds a non-string token")
    state = header["train_state"]
    _check_fields(state, _TRAIN_STATE_FIELDS, f"{path}: train_state", optional=True)
    if not all(isinstance(rec, dict) and _is(rec.get("step"), int)
               for rec in state.get("history", [])):
        raise CheckpointError(f"{path}: train_state history holds a record without an integer step")
    if header["global_step"] < 0:
        raise CheckpointError(f"{path}: global_step is {header['global_step']}, below 0")
    if header["rng_state"] is not None:
        try:
            np.random.PCG64(0).state = header["rng_state"]
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise CheckpointError(f"{path}: bad rng_state: {e!r}") from e
    if header["adam"] is None:
        return None
    _check_fields(header["adam"], _ADAM_FIELDS, f"{path}: header adam")
    try:
        return AdamState(**header["adam"])
    except ConfigError as e:
        raise CheckpointError(f"{path}: bad header: {e}") from e


def _check_finite(weights: EncoderWeights, vectors: list[np.ndarray], path) -> None:
    """Raises CheckpointError naming the first tensor of the payload
    ``vectors`` (the moments and the best weights, if any, then the weights,
    each laid out like ``weights.vector``) that holds a NaN or infinite value."""
    if all(np.isfinite(v).all() for v in vectors):
        return
    prefixes = ("adam.m.", "adam.v.", "best.", "")[-len(vectors):]
    bad = [prefix + name for prefix, vector in zip(prefixes, vectors)
           for name, arr in weights.views(vector).items() if not np.isfinite(arr).all()]
    raise CheckpointError(f"{path}: tensor {bad[0]!r} holds a NaN or infinite value")


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
    adam = _check_header(header, path)
    try:
        vocab = Vocab.from_tokens(header["vocab"])
        config = ModelConfig(len(vocab), **header["model_config"])
    except (TypeError, ConfigError, CorpusError) as e:
        raise CheckpointError(f"{path}: bad header: {e}") from e
    stage = header["stage"]
    size = stage_layout(config, stage)[1][-1]
    parts = 1 if adam is None else 4
    payload = raw[16 + hlen :]
    if len(payload) != 8 * size * parts:
        moments = "with their Adam moments and best weights " if adam is not None else ""
        raise CheckpointError(
            f"{path}: payload of {len(payload)} bytes, but the {stage} tensors "
            f"{moments}take {8 * size * parts} bytes"
        )
    if zlib.crc32(payload) != header["payload_crc32"]:
        raise CheckpointError(f"{path}: the payload does not match its crc32")
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    vectors = [values[i * size : (i + 1) * size] for i in range(parts)]
    weights = EncoderWeights(config, stage, vectors[-1])
    _check_finite(weights, vectors, path)
    if adam is not None:
        adam.first_moment, adam.second_moment = vectors[:2]
    return Checkpoint(
        weights=weights,
        vocab=vocab,
        global_step=header["global_step"],
        adam=adam,
        rng_state=header["rng_state"],
        train_state=header["train_state"],
        best=None if adam is None else vectors[2],
    )

