"""Checkpoint byte-identity, the derived payload layout and the file's
digest, header validation, and staged weight transfer."""

import json
import operator
import re
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dialoqa import training
from dialoqa.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from dialoqa.corpus import Dialogue, Utterance
from dialoqa.encoder import (
    STAGE_SOURCES,
    ModelConfig,
    _init_array,
    group_shapes,
    init_encoder_weights,
    stage_shapes,
)
from dialoqa.errors import CheckpointError, SequencingError
from dialoqa.optim import AdamState
from dialoqa.tensor import Tensor
from dialoqa.vocab import build_vocab

CFG = ModelConfig(
    vocab_size=9, num_layers=1, num_heads=2, hidden_size=8,
    intermediate_size=16, max_tokens=4, max_utterances=4, dropout_p=0.0,
)


@pytest.fixture(scope="module")
def vocab():
    d = Dialogue(1, "s", (Utterance("ann", ("alpha", "beta", "gamma", "delta")),))
    return build_vocab([d])


def _checkpoint(vocab, stage="tmlm", seed=0, with_state=True, **model):
    cfg = ModelConfig(**{**CFG.to_dict(), "vocab_size": len(vocab), **model})
    weights = init_encoder_weights(cfg, stage, np.random.default_rng(seed))
    adam = rng_state = best = None
    if with_state:
        size = weights.vector.shape
        adam = AdamState(
            first_moment=np.random.default_rng(1).normal(size=size),
            second_moment=np.abs(np.random.default_rng(2).normal(size=size)),
        )
        rng_state = np.random.default_rng(33).bit_generator.state
        best = np.random.default_rng(3).normal(size=size)
    return Checkpoint(
        weights=weights,
        vocab=vocab,
        global_step=17 if with_state else 0,
        adam=adam,
        rng_state=rng_state,
        train_state={"history": [{"epoch": -1, "step": 0, "perplexity": 3.25}]},
        best=best,
    )


class TestRoundTrip:
    def test_save_load_save_byte_identical(self, vocab, tmp_path):
        ckpt = _checkpoint(vocab)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fields_survive(self, vocab, tmp_path):
        ckpt = _checkpoint(vocab)
        path = tmp_path / "c.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.stage == "tmlm"
        assert loaded.global_step == 17
        assert loaded.vocab.id_to_token == vocab.id_to_token
        assert loaded.rng_state == ckpt.rng_state
        assert loaded.train_state == ckpt.train_state
        for name, p in ckpt.weights.named():
            assert np.array_equal(loaded.weights[name].array, p.array)
            assert np.array_equal(
                loaded.weights.views(loaded.adam.first_moment)[name],
                ckpt.weights.views(ckpt.adam.first_moment)[name],
            )

    def test_the_best_vector_round_trips_bit_exact(self, vocab, tmp_path):
        """A ``-last`` holds the best weights, the ones a transfer or an
        evaluation from it reads."""
        ckpt = _checkpoint(vocab)
        ckpt.best[:3] = [np.nextafter(1.0, 2.0), -0.0, 5e-324]  # last-bit, signed-zero, subnormal
        path = tmp_path / "b.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.best.dtype == np.float64
        assert loaded.best.tobytes() == ckpt.best.tobytes()
        assert loaded.can_resume()

    @pytest.mark.parametrize("positions", [True, False], ids=["positions", "no-positions"])
    @pytest.mark.parametrize("with_state", [True, False], ids=["adam", "weights-only"])
    @pytest.mark.parametrize("stage", list(STAGE_SOURCES))
    def test_every_checkpoint_shape_round_trips(
        self, vocab, tmp_path, stage, with_state, positions
    ):
        """Each stage, with and without an Adam record and with utterance
        positions on and off, saves, loads and saves again byte for byte,
        and loads the stage's tensors and, with Adam, both moments and the
        best weights of each."""
        ckpt = _checkpoint(vocab, stage, with_state=with_state, use_utterance_positions=positions)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        want = stage_shapes(ckpt.config, stage)
        assert ("utt_pos_emb" in want) == (positions and stage in ("uop", "finetuned"))
        assert {name: p.shape for name, p in loaded.weights.named()} == want
        if with_state:
            for moment in (loaded.adam.first_moment, loaded.adam.second_moment, loaded.best):
                named = loaded.weights.views(moment)
                assert {name: m.shape for name, m in named.items()} == want
        else:
            assert loaded.adam is None and loaded.best is None

    def test_header_stores_no_layout_and_payload_is_in_table_order(self, vocab, tmp_path):
        """The payload is the first moment, the second, the best weights and
        the weights, each tensor by tensor in the stage table's order, and
        the trailer holds the crc32 of every byte before it; the header's
        model config has no vocabulary size, which is the vocabulary's
        length."""
        ckpt = _checkpoint(vocab, **TINY)
        path = tmp_path / "c.ckpt"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        header, payload = _split_file(raw)
        assert sorted(header) == [
            "adam", "format_version", "global_step", "model_config",
            "rng_state", "stage", "train_state", "vocab",
        ]
        assert "vocab_size" not in header["model_config"]
        names = list(stage_shapes(ckpt.config, "tmlm"))
        vectors = (ckpt.adam.first_moment, ckpt.adam.second_moment, ckpt.best, ckpt.weights.vector)
        arrays = [ckpt.weights.views(v)[n] for v in vectors for n in names]
        assert payload == b"".join(arr.astype("<f8").tobytes() for arr in arrays)
        assert raw[-4:] == struct.pack("<I", zlib.crc32(raw[:-4]))

    def test_weights_only_checkpoint(self, vocab, tmp_path):
        ckpt = _checkpoint(vocab, with_state=False)
        path = tmp_path / "w.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.adam is None and loaded.rng_state is None and loaded.best is None
        assert not loaded.can_resume()

    def test_bad_magic(self, vocab, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_every_truncation_raises_checkpoint_error(self, vocab, tmp_path):
        tiny = dict(hidden_size=2, num_heads=1, intermediate_size=2, max_tokens=2, max_utterances=1)
        full = tmp_path / "full.ckpt"
        save_checkpoint(_checkpoint(vocab, **tiny), full)
        raw = full.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for length in range(len(raw)):
            cut.write_bytes(raw[:length])
            with pytest.raises(CheckpointError):
                load_checkpoint(cut)

    def test_save_replaces_atomically(self, vocab, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(_checkpoint(vocab, seed=0), path)
        save_checkpoint(_checkpoint(vocab, seed=1), path)
        assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]
        assert np.array_equal(
            load_checkpoint(path).weights["token_emb"].array,
            _checkpoint(vocab, seed=1).weights["token_emb"].array,
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_restored_rng_continues_identically(self, vocab, tmp_path):
        rng = np.random.default_rng(5)
        rng.random(10)
        ckpt = _checkpoint(vocab)
        ckpt.rng_state = rng.bit_generator.state
        path = tmp_path / "r.ckpt"
        save_checkpoint(ckpt, path)
        expected = rng.random(5)
        restored = np.random.default_rng()
        restored.bit_generator.state = load_checkpoint(path).rng_state
        assert np.array_equal(restored.random(5), expected)


def _split_file(raw: bytes) -> tuple[dict, bytes]:
    """The header and the payload, without the trailer."""
    (hlen,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16 : 16 + hlen]), raw[16 + hlen : -4]


def _with_header(header, payload: bytes) -> bytes:
    """A file of ``header`` and ``payload`` with a matching trailer, so that
    a load reaches the checks past the digest."""
    blob = json.dumps(header).encode("utf-8")
    body = MAGIC + struct.pack("<Q", len(blob)) + blob + payload
    return body + struct.pack("<I", zlib.crc32(body))


def _poison(ckpt: Checkpoint, name: str, value: float) -> None:
    """Sets the first value of tensor ``name`` of the weights, of an Adam
    moment for a name with the prefix ``adam.m.`` or ``adam.v.``, or of the
    best weights for one with the prefix ``best.``."""
    vector = ckpt.weights.vector
    for prefix, other in (("adam.m.", ckpt.adam.first_moment),
                          ("adam.v.", ckpt.adam.second_moment), ("best.", ckpt.best)):
        if name.startswith(prefix):
            name, vector = name[len(prefix):], other
    ckpt.weights.views(vector)[name].flat[0] = value


TINY = dict(hidden_size=2, num_heads=1, intermediate_size=2, max_tokens=2, max_utterances=1)


class TestHeaderValidation:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda h: {"format_version": 1},
            lambda h: [1],
            lambda h: {**h, "model_config": {**h["model_config"], "vocab_size": "x"}},
            lambda h: {**h, "model_config": {**h["model_config"], "vocab_size": 9.0}},
            lambda h: {**h, "global_step": "7"},
            lambda h: {**h, "stage": "pretrain"},
            lambda h: {**h, "vocab": h["vocab"][1:]},
            lambda h: {**h, "adam": {"beta1": 0.9}},
            lambda h: {**h, "rng_state": {"bit_generator": "PCG64"}},
            lambda h: {**h, "train_state": {**h["train_state"], "epoch": "x"}},
            lambda h: {**h, "train_state": {**h["train_state"], "bad_evals": True}},
            lambda h: {**h, "train_state": {**h["train_state"], "history": {}}},
            lambda h: {**h, "train_state": {**h["train_state"], "history": [[-1, 0]]}},
            lambda h: {**h, "train_state": {**h["train_state"], "best_metrics": 3.25}},
            lambda h: {**h, "global_step": -5},
            lambda h: {**h, "adam": {**h["adam"], "step": -1}},
            lambda h: {**h, "train_state": {**h["train_state"], "epoch": -2}},
            lambda h: {**h, "train_state": {**h["train_state"], "bad_evals": -1}},
            lambda h: {**h, "bogus_field": 0},
            lambda h: {**h, "train_state": {**h["train_state"], "metrics": 3.25}},
            lambda h: {**h, "tensors": []},
            lambda h: {**h, "train_state": {"history": [{"epoch": -1, "perplexity": 3.25}]}},
            lambda h: {**h, "train_state": {"history": [{"epoch": -1, "step": 0.0}]}},
            lambda h: {**h, "payload_crc32": 0},
        ],
        ids=[
            "only-version", "list", "vocab-size-str", "vocab-size-float", "step-str",
            "unknown-stage", "vocab-short", "adam-fields", "rng-state",
            "epoch-str", "bad-evals-bool", "history-object", "history-record-list",
            "best-metrics-number", "step-negative", "adam-step-negative",
            "epoch-negative", "bad-evals-negative", "unknown-field", "metrics-number",
            "format-2-directory", "history-record-without-step", "history-step-float",
            "format-6-digest-field",
        ],
    )
    def test_bad_header_raises_checkpoint_error(self, vocab, tmp_path, mutate):
        path = tmp_path / "h.ckpt"
        save_checkpoint(_checkpoint(vocab, **TINY), path)
        header, payload = _split_file(path.read_bytes())
        path.write_bytes(_with_header(mutate(header), payload))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value, message", [
        ("global_step", -3, "global_step is -3, below 0"),
        ("train_state", {"bad_evals": 1}, "unknown field 'bad_evals'"),
    ], ids=["step-negative", "unknown-train-state-field"])
    def test_save_refuses_a_header_that_load_refuses(self, vocab, tmp_path, field, value, message):
        ckpt = replace(_checkpoint(vocab, **TINY), **{field: value})
        with pytest.raises(CheckpointError, match=re.escape(message)):
            save_checkpoint(ckpt, tmp_path / "h.ckpt")
        assert list(tmp_path.iterdir()) == []  # neither h.ckpt nor h.ckpt.tmp

    _JSON = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
        | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=2)
        | st.dictionaries(st.text(max_size=3), inner, max_size=2),
        max_leaves=4,
    )

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        global_step=st.integers(-2, 2),
        train_state=st.dictionaries(
            st.sampled_from(["epoch", "metrics", "history", "bad_evals"]), _JSON, max_size=3
        ),
    )
    def test_what_save_accepts_load_accepts(
        self, vocab, tmp_path, global_step, train_state
    ):
        ckpt = replace(_checkpoint(vocab, **TINY), global_step=global_step, train_state=train_state)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        first.unlink(missing_ok=True)
        try:
            save_checkpoint(ckpt, first)
        except CheckpointError:
            assert not first.exists() and not (tmp_path / "a.ckpt.tmp").exists()
            return
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["te.0.attn_wq", "adam.v.token_emb", "best.te.0.attn_wq"])
    def test_non_finite_payload_names_the_tensor(self, vocab, tmp_path, bad, name):
        """Load's own check, on a payload written past save's with a matching
        trailer."""
        ckpt = _checkpoint(vocab, **TINY)
        path = tmp_path / "n.ckpt"
        save_checkpoint(ckpt, path)
        header, _ = _split_file(path.read_bytes())
        _poison(ckpt, name, bad)
        vectors = (ckpt.adam.first_moment, ckpt.adam.second_moment, ckpt.best, ckpt.weights.vector)
        payload = b"".join(v.astype("<f8").tobytes() for v in vectors)
        path.write_bytes(_with_header(header, payload))
        with pytest.raises(CheckpointError, match=re.escape(f"tensor {name!r}")):
            load_checkpoint(path)

    @pytest.mark.parametrize("mutate, message", [
        (lambda ckpt: setattr(ckpt.adam, "beta1", 1.5),
         "bad header: beta1 must be in [0, 1), got 1.5"),
        (lambda ckpt: _poison(ckpt, "te.0.attn_wq", np.nan),
         "tensor 'te.0.attn_wq' holds a NaN or infinite value"),
        (lambda ckpt: _poison(ckpt, "adam.m.token_emb", np.nan),
         "tensor 'adam.m.token_emb' holds a NaN or infinite value"),
        (lambda ckpt: _poison(ckpt, "best.token_emb", np.nan),
         "tensor 'best.token_emb' holds a NaN or infinite value"),
    ], ids=["adam-beta1-set-after-construction", "nan-weight", "nan-moment", "nan-best"])
    def test_save_refuses_a_state_that_load_refuses(self, vocab, tmp_path, mutate, message):
        ckpt = _checkpoint(vocab, **TINY)
        mutate(ckpt)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            save_checkpoint(ckpt, tmp_path / "h.ckpt")
        assert list(tmp_path.iterdir()) == []  # neither h.ckpt nor h.ckpt.tmp

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_truncated_or_bit_flipped_loads_or_raises_checkpoint_error(
        self, vocab, tmp_path, data
    ):
        """Up to three distinct bits flipped anywhere, in a third of the
        examples only inside the header and in a third only past it, and a
        cut: the load raises ``CheckpointError`` whenever the file is cut or
        a bit is flipped, and loads the file otherwise. The trailer's crc32
        covers every byte, and CRC-32 catches every error of three bits or
        fewer in a message of up to 91,607 bits."""
        path = tmp_path / "f.ckpt"
        save_checkpoint(_checkpoint(vocab, **TINY), path)
        raw = bytearray(path.read_bytes())
        assert 8 * (len(raw) - 4) <= 91_607  # crc32's 3-bit guarantee
        payload_start = 16 + struct.unpack("<Q", raw[8:16])[0]
        length = data.draw(st.integers(len(raw) // 2, len(raw)), label="length")
        where = data.draw(st.sampled_from([
            st.integers(0, length - 1),
            st.integers(16, min(payload_start, length) - 1),
            st.integers(min(payload_start, length - 1), length - 1),
        ]), label="where")
        flips = data.draw(st.sets(st.tuples(where, st.integers(0, 7)), max_size=3), label="flips")
        for pos, bit in flips:
            raw[pos] ^= 1 << bit
        path.write_bytes(bytes(raw[:length]))
        if length < len(raw) or flips:
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
        else:
            load_checkpoint(path)

    def test_a_payload_that_does_not_match_its_digest_raises(self, vocab, tmp_path):
        """One flipped bit in the last weight's mantissa still loads as a
        finite number; the digest refuses it."""
        path = tmp_path / "f.ckpt"
        save_checkpoint(_checkpoint(vocab, **TINY), path)
        raw = bytearray(path.read_bytes())
        raw[-12] ^= 1  # the lowest byte of the last weight, before the trailer
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="the file does not match its crc32"):
            load_checkpoint(path)

    def test_a_header_that_does_not_match_its_digest_raises(self, vocab, tmp_path):
        """The low bit of a dev-history digit flipped in a ``-last`` turns
        the digit into another and keeps the header valid JSON, so only the
        digest, which covers the header too, refuses it."""
        path = tmp_path / "last.ckpt"
        ckpt = _checkpoint(vocab, **TINY)
        assert ckpt.can_resume()
        save_checkpoint(ckpt, path)
        raw = bytearray(path.read_bytes())
        digit = raw.index(b'"perplexity":3.25') + len(b'"perplexity":')
        raw[digit] ^= 1  # 3.25 -> 2.25
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="the file does not match its crc32"):
            load_checkpoint(path)


class TestStrictDirectory:
    """A checkpoint holds exactly its stage's tensors and, with an Adam
    record, both moments and the best weights of each: the weights are one
    vector of the stage's layout under a read-only map of names, so no
    tensor can be added, dropped or reshaped, and a save whose moment or best
    vectors are not as long as the weight vector raises. A load checks the
    payload against that layout's length."""

    @pytest.mark.parametrize("mutate, error, named", [
        (lambda c: c.weights.params.update(bogus=Tensor(np.zeros(3))), AttributeError, "update"),
        (lambda c: operator.delitem(c.weights.params, "uid_w"), TypeError, "deletion"),
        (lambda c: operator.setitem(c.weights.params, "uid_w", Tensor(np.zeros((2, 2)))),
         TypeError, "assignment"),
        (lambda c: setattr(c.adam, "second_moment", None), CheckpointError, "Adam moment"),
        (lambda c: setattr(c.adam, "second_moment", c.adam.second_moment[1:]),
         CheckpointError, "Adam moment"),
        (lambda c: setattr(c.adam, "first_moment", c.adam.first_moment.reshape(1, -1)),
         CheckpointError, "Adam moment"),
        (lambda c: setattr(c.adam, "first_moment", np.append(c.adam.first_moment, 0.0)),
         CheckpointError, "Adam moment"),
        (lambda c: setattr(c, "best", None), CheckpointError, "best vector"),
        (lambda c: setattr(c, "best", c.best[1:]), CheckpointError, "best vector"),
        (lambda c: setattr(c, "best", np.append(c.best, 0.0)), CheckpointError, "best vector"),
    ], ids=["extra", "missing", "shape", "one-moment", "missing-moment", "moment-shape",
            "extra-moment", "no-best", "short-best", "long-best"])
    def test_rejected_directory_names_the_tensor(self, vocab, tmp_path, mutate, error, named):
        ckpt = _checkpoint(vocab, stage="finetuned", **TINY)
        with pytest.raises(error, match=re.escape(named)):
            mutate(ckpt)
            save_checkpoint(ckpt, tmp_path / "d.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_moments_without_an_adam_record_are_rejected(self, vocab, tmp_path):
        path = tmp_path / "d.ckpt"
        save_checkpoint(_checkpoint(vocab, **TINY), path)
        header, payload = _split_file(path.read_bytes())
        path.write_bytes(_with_header({**header, "adam": None}, payload))
        with pytest.raises(CheckpointError, match="payload of .* tmlm tensors take"):
            load_checkpoint(path)

    @pytest.mark.parametrize("with_state", [True, False], ids=["adam", "weights-only"])
    @pytest.mark.parametrize("tokens", [lambda v: v + ["omega"], lambda v: v[:-1]],
                             ids=["longer", "shorter"])
    def test_a_vocabulary_of_another_length_fails_the_payload_length_check(
        self, vocab, tmp_path, tokens, with_state
    ):
        """The vocabulary size is the vocabulary's length, so a vocabulary of
        another length sizes ``token_emb`` and ``vocab_bias`` otherwise and
        the payload no longer fits."""
        path = tmp_path / "d.ckpt"
        save_checkpoint(_checkpoint(vocab, with_state=with_state, **TINY), path)
        header, payload = _split_file(path.read_bytes())
        path.write_bytes(_with_header({**header, "vocab": tokens(header["vocab"])}, payload))
        with pytest.raises(CheckpointError, match=f"payload of {len(payload)} bytes, but the tmlm"):
            load_checkpoint(path)

    def test_an_unknown_adam_field_is_rejected(self, vocab, tmp_path):
        path = tmp_path / "d.ckpt"
        save_checkpoint(_checkpoint(vocab, **TINY), path)
        header, payload = _split_file(path.read_bytes())
        path.write_bytes(_with_header({**header, "adam": {**header["adam"], "amsgrad": 1}}, payload))
        with pytest.raises(CheckpointError, match="amsgrad"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [("beta1", 1.5), ("epsilon", 0)])
    def test_an_adam_setting_out_of_range_is_rejected(self, vocab, tmp_path, field, value):
        path = tmp_path / "d.ckpt"
        save_checkpoint(_checkpoint(vocab, **TINY), path)
        header, payload = _split_file(path.read_bytes())
        path.write_bytes(_with_header({**header, "adam": {**header["adam"], field: value}}, payload))
        with pytest.raises(CheckpointError, match=f"bad header: {field} must be"):
            load_checkpoint(path)

    def test_format_1_names_the_version(self, vocab, tmp_path):
        """A file of format 1 or 2, whose headers held a tensor directory, of
        format 3, whose Adam record held a step, of format 4, whose best
        snapshots held an epoch and metrics and whose payload was in sorted
        name order, of format 5, whose ``-last`` held no best weights and
        whose header no payload digest, or of format 6, whose header held the
        payload's digest and whose file had no trailer, raises
        ``CheckpointError`` naming its version."""
        path = tmp_path / "d.ckpt"
        save_checkpoint(_checkpoint(vocab, **TINY), path)
        header, payload = _split_file(path.read_bytes())
        assert header["format_version"] == FORMAT_VERSION == 7
        for version in (1, 2, 3, 4, 5, 6):
            path.write_bytes(_with_header({**header, "format_version": version}, payload))
            with pytest.raises(CheckpointError, match=f"format_version {version} unsupported"):
                load_checkpoint(path)

    def test_adam_record_holds_the_settings_only(self, vocab, tmp_path):
        """Adam's step is the checkpoint's ``global_step``, so the record
        holds the four settings alone."""
        path = tmp_path / "d.ckpt"
        ckpt = _checkpoint(vocab, **TINY)
        save_checkpoint(ckpt, path)
        header, _ = _split_file(path.read_bytes())
        adam_settings = {"beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8, "weight_decay": 0.01}
        assert header["adam"] == adam_settings
        loaded = load_checkpoint(path).adam
        assert {name: getattr(loaded, name) for name in adam_settings} == adam_settings
        assert not hasattr(loaded, "step")


def _start(source: Checkpoint, stage: str, vocab) -> Checkpoint:
    """``stage``'s start state from ``source``, under a run config of the
    source's model."""
    model = {k: v for k, v in source.config.to_dict().items() if k != "vocab_size"}
    return training._init_stage_state(training.RunConfig(**model), stage, source, lambda: vocab)


class TestTransfer:
    def test_uop_to_finetune_copies_tl_bitwise(self, vocab):
        src = _checkpoint(vocab, stage="uop", seed=3, with_state=False)
        out = init_encoder_weights(src.config, "finetuned", np.random.default_rng(9), src.weights)
        for name in ("tl.0.attn_wq", "tl.1.ff_w1", "utt_pos_emb", "token_emb",
                     "te.0.attn_wo", "token_pos_emb"):
            assert np.array_equal(out[name].array, src.weights[name].array)
        assert "mha.wq" in out.params and "uid_w" in out.params

    def test_umlm_to_uop_initializes_tl_fresh(self, vocab):
        src = _checkpoint(vocab, stage="umlm", seed=4, with_state=False)
        assert "tl.0.attn_wq" not in src.weights.params
        out = init_encoder_weights(src.config, "uop", np.random.default_rng(10), src.weights)
        assert np.array_equal(out["token_emb"].array, src.weights["token_emb"].array)
        assert "tl.0.attn_wq" in out.params and "uop_w" in out.params

    def test_tmlm_to_umlm_head_fresh_encoder_copied(self, vocab):
        src = _checkpoint(vocab, stage="tmlm", seed=5, with_state=False)
        src.weights["vocab_bias"].array[:] = 7.0
        out = init_encoder_weights(src.config, "umlm", np.random.default_rng(11), src.weights)
        assert np.array_equal(out["te.0.ff_w2"].array, src.weights["te.0.ff_w2"].array)
        assert np.all(out["vocab_bias"].array == 0.0)  # task head freshly initialized

    def test_only_dropout_may_differ_from_the_source_model(self, vocab):
        """A source of another ``dropout_p`` transfers: dropout is a training
        setting, not part of the model. ``_init_stage_state`` refuses a source
        of another model before any copy (``TestStartSettings``)."""
        src = _checkpoint(vocab, stage="umlm", seed=6, with_state=False)
        other_dropout = replace(src.config, dropout_p=0.3)
        out = init_encoder_weights(other_dropout, "uop", np.random.default_rng(12), src.weights)
        assert out.config.dropout_p == 0.3
        assert np.array_equal(out["token_emb"].array, src.weights["token_emb"].array)

    def test_stage_order_enforced(self, vocab):
        src = _checkpoint(vocab, stage="uop", seed=7, with_state=False)
        for earlier in ("umlm", "tmlm"):
            with pytest.raises(SequencingError, match=f"from stage 'uop' to '{earlier}'"):
                _start(src, earlier, vocab)

    @pytest.mark.parametrize("target", list(STAGE_SOURCES))
    @pytest.mark.parametrize("source", list(STAGE_SOURCES))
    def test_allowed_exactly_from_the_stage_sources(self, vocab, source, target):
        """``_init_stage_state`` starts ``target`` from a weights-only
        checkpoint of ``source`` exactly when the table lists it. A
        checkpoint of the stage itself is a resume, which needs a ``-last``."""
        src = _checkpoint(vocab, stage=source, seed=16, with_state=False)
        if source in STAGE_SOURCES[target]:
            assert _start(src, target, vocab).stage == target
        elif source == target:
            with pytest.raises(CheckpointError, match="resume requires a"):
                _start(src, target, vocab)
        else:
            with pytest.raises(SequencingError, match="cannot transfer from stage"):
                _start(src, target, vocab)

    def test_tmlm_to_finetune_copies_te_and_starts_tl_fresh(self, vocab):
        src = _checkpoint(vocab, stage="tmlm", seed=18, with_state=False)
        out = init_encoder_weights(src.config, "finetuned", np.random.default_rng(19), src.weights)
        te = group_shapes(src.config, "te")
        for name in te:
            assert np.array_equal(out[name].array, src.weights[name].array)
        # every other tensor is drawn fresh, in table order, from the rng
        rng = np.random.default_rng(19)
        for name, shape in stage_shapes(src.config, "finetuned").items():
            if name not in te:
                assert np.array_equal(out[name].array, _init_array(name, shape, rng))
        assert np.all(out["tl.0.ln1_g"].array == 1.0) and np.all(out["tl.0.ff_b1"].array == 0.0)

    def test_tied_projection_preserved(self, vocab):
        # the vocab projection weight IS token_emb; transfer must keep them tied
        src = _checkpoint(vocab, stage="tmlm", seed=8, with_state=False)
        out = init_encoder_weights(src.config, "umlm", np.random.default_rng(15), src.weights)
        assert np.array_equal(out["token_emb"].array, src.weights["token_emb"].array)
