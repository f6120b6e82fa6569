"""Vocabulary construction, encoding round trips, and id stability."""

import numpy as np
import pytest

from dialoqa.corpus import Dialogue, Utterance
from dialoqa.errors import CorpusError
from dialoqa.vocab import (
    SPECIAL_TOKENS,
    UNK,
    Vocab,
    build_vocab,
    encode_utterance,
    tokenize,
)


def _dialogue(*turns, episode=1, scene="s0"):
    utts = tuple(Utterance(speaker, tuple(tokenize(text))) for speaker, text in turns)
    return Dialogue(episode, scene, utts)


def test_single_utterance_counts():
    v = build_vocab([_dialogue(("Ross", "Hi Hi"))], min_freq=1)
    assert len(v) == 6  # 4 specials + SPK:ross + "hi"
    assert v.speaker_id("Ross") == 4
    assert v.word_id("hi") == 5


def test_min_freq_threshold_leaves_specials_and_speakers():
    d = _dialogue(("A", "one two three"), ("B", "four five six"))
    v = build_vocab([d], min_freq=2)
    assert len(v) == 4 + 2
    assert v.word_id("one") == UNK


def test_specials_occupy_lowest_ids():
    v = build_vocab([_dialogue(("A", "x"))])
    assert tuple(v.id_to_token[:4]) == SPECIAL_TOKENS
    assert [v.token_to_id[t] for t in SPECIAL_TOKENS] == [0, 1, 2, 3]
    assert (v.cls, v.mask, UNK) == (1, 2, 3)


def test_id_assignment_order():
    d = _dialogue(("zoe", "b b b a a c"), ("amy", "a"))
    v = build_vocab([d])
    # speakers sorted lexicographically, then words by (-freq, lex)
    assert v.id_to_token[4:] == ("SPK:amy", "SPK:zoe", "a", "b", "c")


def test_build_is_order_insensitive():
    dialogues = [
        _dialogue(("ann", "red blue"), episode=1),
        _dialogue(("bob", "blue green green"), episode=2),
    ]
    v1 = build_vocab(dialogues)
    v2 = build_vocab(list(reversed(dialogues)))
    assert v1.id_to_token == v2.id_to_token


def test_empty_corpus_rejected():
    with pytest.raises(CorpusError):
        build_vocab([])


def test_encode_utterance():
    v = build_vocab([_dialogue(("Ross", "hi there"))])
    utt = Utterance("Ross", ("hi",))
    assert encode_utterance(v, utt) == [v.speaker_id("Ross"), v.word_id("hi")]


def test_unknown_word_maps_to_unk():
    v = build_vocab([_dialogue(("Ross", "hi"))])
    utt = Utterance("Ross", ("hi", "zzz"))
    ids = encode_utterance(v, utt)
    assert ids[-1] == UNK


def test_round_trip_with_unk_substitution():
    v = build_vocab([_dialogue(("Ross", "we were on a break"))])
    utt = Utterance("Ross", tuple(tokenize("We were ON a yacht")))
    ids = encode_utterance(v, utt)
    tokens = [v.id_to_token[i] for i in ids]
    assert tokens[0] == "SPK:ross"
    assert tokens[1:] == ["we", "were", "on", "a", "[UNK]"]


def test_speaker_and_word_ids_distinct():
    # "ross" spoken as a word and Ross the speaker get different ids
    v = build_vocab([_dialogue(("Ross", "ross is here"))])
    assert v.speaker_id("Ross") != v.word_id("ross")
    assert v.word_id("ross") >= 4


def test_random_round_trip_decode_encode_compatible():
    corpus = [_dialogue(("ann", "alpha beta gamma delta"), ("bob", "beta beta zeta"))]
    v = build_vocab(corpus)
    rng = np.random.default_rng(0)
    ids = rng.integers(4, len(v), size=20).tolist()
    words = [v.id_to_token[i] for i in ids]
    # every non-speaker token decoded from an id encodes back to that id
    for i, w in zip(ids, words):
        if not w.startswith("SPK:"):
            assert v.word_id(w) == i


def test_save_load_round_trip(tmp_path):
    v = build_vocab([_dialogue(("Ann", "to be or not to be"))])
    path = tmp_path / "vocab.txt"
    v.save(path)
    loaded = Vocab.from_tokens(path.read_text(encoding="utf-8").splitlines())
    assert loaded == v
    # one token per line, line number = id
    lines = path.read_text().splitlines()
    assert lines[v.word_id("be")] == "be"
