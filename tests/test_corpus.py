"""Corpus loading/validation, episode splitting, and truncation."""

import json
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dialoqa.corpus import (
    AnswerSpan,
    Dialogue,
    QAExample,
    Utterance,
    load_corpus,
    make_example,
    question_type_of,
    save_corpus,
    split_by_episode,
    truncate,
)
from dialoqa.errors import CorpusError
from dialoqa.vocab import Vocab, build_vocab

MINIMAL = {
    "dialogues": [
        {
            "episode_id": 3,
            "scene_id": "s1",
            "utterances": [
                {"speaker": "Ross", "text": "We were on a break"},
                {"speaker": "Rachel", "text": "At Central Perk"},
            ],
            "questions": [
                {
                    "qid": "q1",
                    "question": "Where were they",
                    "answers": [
                        {"utterance_index": 1, "token_start": 1, "token_end": 2,
                         "text": "central perk"}
                    ],
                }
            ],
        }
    ]
}


def _write(tmp_path, doc, name="c.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


# Every separator ``str.splitlines`` breaks a line at.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


# Python's own wording for a value of the wrong type, which a corpus error
# must not leak: every message names the field and the JSON type it needs.
PYTHON_WORDING = re.compile(
    r"NoneType|subscriptable|iterable|indices must be|has no attribute|unhashable"
    r"|object is not|'(int|float|str|bool|list|dict)'|\bgot (None|True|False)\b"
)


def _paths(node, prefix=()):
    """Key paths of every value below the document root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


class TestLoad:
    def test_minimal_file(self, tmp_path):
        corpus = load_corpus(_write(tmp_path, MINIMAL))
        assert len(corpus) == 1
        d, qs = corpus[0]
        assert d.episode_id == 3 and d.scene_id == "s1"
        assert d.utterances[0].speaker == "Ross"
        assert d.utterances[0].tokens == ("we", "were", "on", "a", "break")
        assert qs[0].qid == "q1"
        assert qs[0].question_type == "where"
        assert qs[0].answers[0].utterance_index == 1

    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"dialogues": [\n  {"oops"\n]}')
        with pytest.raises(CorpusError, match="line"):
            load_corpus(p)

    def test_span_out_of_range_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["dialogues"][0]["questions"][0]["answers"][0]["token_end"] = 99
        with pytest.raises(CorpusError, match="q1"):
            load_corpus(_write(tmp_path, doc))

    def test_span_text_mismatch_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["dialogues"][0]["questions"][0]["answers"][0]["text"] = "a break"
        with pytest.raises(CorpusError, match="q1"):
            load_corpus(_write(tmp_path, doc))

    def test_empty_utterance_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["dialogues"][0]["utterances"].append({"speaker": "x", "text": "  "})
        with pytest.raises(CorpusError, match="empty"):
            load_corpus(_write(tmp_path, doc))

    def test_question_without_a_token_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["dialogues"][0]["questions"][0]["question"] = " \t "
        with pytest.raises(CorpusError, match=r"dialogues\[0\]\.questions\[0\]: question 'q1'"):
            load_corpus(_write(tmp_path, doc))

    @pytest.mark.parametrize(
        "content",
        [None, b"\xff\xfe not utf-8", b'{"dialogues": 5}', b'{"dialogues": [{"episode_id": 1e999}]}'],
        ids=["missing", "not-utf8", "dialogues-int", "episode-inf"],
    )
    def test_unreadable_file_raises_corpus_error(self, tmp_path, content):
        p = tmp_path / "c.json"
        if content is not None:
            p.write_bytes(content)
        with pytest.raises(CorpusError):
            load_corpus(p)

    @pytest.mark.parametrize("field, value", [
        ("episode_id", 20.9), ("episode_id", True), ("episode_id", "3"),
        ("utterance_index", False), ("utterance_index", 1.0),
        ("token_start", 0.5), ("token_start", "1"),
        ("token_end", "1"), ("token_end", True),
    ])
    def test_a_non_integer_index_is_rejected_with_its_location(self, tmp_path, field, value):
        """``episode_id`` and each answer's indices must be JSON integers: a
        float, bool or string is refused, not rounded or read as 0 or 1."""
        doc = json.loads(json.dumps(MINIMAL))
        dialogue = doc["dialogues"][0]
        if field == "episode_id":
            dialogue[field], where = value, ""
        else:
            dialogue["questions"][0]["answers"][0][field] = value
            where = "bad question record: "
        with pytest.raises(CorpusError, match=rf"dialogues\[0\]: {where}{field} must be a JSON integer"):
            load_corpus(_write(tmp_path, doc))

    @pytest.mark.parametrize("value", [None, ["at", "central", "perk"], 3], ids=["null", "list", "int"])
    @pytest.mark.parametrize("field", ["scene_id", "speaker", "text", "qid", "question", "answer-text"])
    def test_a_non_string_field_is_rejected_with_its_location(self, tmp_path, field, value):
        """Each text field must be a JSON string: a null, list or number is
        refused, not loaded as its repr (``"text": null`` as the word ``none``)."""
        doc = json.loads(json.dumps(MINIMAL))
        dialogue = doc["dialogues"][0]
        question = dialogue["questions"][0]
        record, where = {
            "scene_id": (dialogue, ""), "speaker": (dialogue["utterances"][1], ""),
            "text": (dialogue["utterances"][1], ""), "qid": (question, "bad question record: "),
            "question": (question, "bad question record: "),
            "answer-text": (question["answers"][0], "bad question record: "),
        }[field]
        key = "text" if field == "answer-text" else field
        record[key] = value
        with pytest.raises(CorpusError, match=rf"dialogues\[0\]: {where}{key} must be a JSON string"):
            load_corpus(_write(tmp_path, doc))

    @pytest.mark.parametrize("separator", LINE_BREAKS, ids=lambda sep: "-".join(f"U+{ord(c):04X}" for c in sep))
    def test_a_speaker_with_a_line_break_is_rejected(self, tmp_path, separator):
        """``vocab.txt`` holds one token per line, so a speaker token split
        there would shift every later id when the vocabulary is read back."""
        assert len(f"a{separator}b".splitlines()) == 2
        doc = json.loads(json.dumps(MINIMAL))
        doc["dialogues"][0]["utterances"][1]["speaker"] = f"Joey{separator}Tribbiani"
        with pytest.raises(
            CorpusError, match=r"dialogues\[0\]: speaker 'Joey.+Tribbiani' contains a line break"
        ):
            load_corpus(_write(tmp_path, doc))

    @settings(
        max_examples=50, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(names=st.lists(st.text(max_size=6), min_size=1, max_size=4))
    @example(names=["Joey Tribbiani", "Mr.\tGeller", "Zoë", "\x1f", "\xa0", ""])
    def test_accepted_speakers_round_trip_through_the_vocab_file(self, tmp_path, names):
        doc = json.loads(json.dumps(MINIMAL))
        dialogue = doc["dialogues"][0]
        dialogue["utterances"] = [{"speaker": n, "text": "hi there"} for n in names]
        dialogue["questions"] = []
        breaks = any("".join(n.splitlines()) != n for n in names)
        try:
            loaded = load_corpus(_write(tmp_path, doc))
        except CorpusError as e:
            assert breaks and "contains a line break" in str(e)
            return
        assert not breaks
        vocab = build_vocab([d for d, _ in loaded])
        vocab.save(tmp_path / "vocab.txt")
        assert Vocab.load(tmp_path / "vocab.txt") == vocab

    def test_duplicate_qid_rejected_with_location(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["dialogues"].append(json.loads(json.dumps(MINIMAL["dialogues"][0])))
        with pytest.raises(CorpusError, match=r"dialogues\[1\].*'q1'.*dialogues\[0\]"):
            load_corpus(_write(tmp_path, doc))

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_json_loads_or_raises_corpus_error(self, tmp_path, data):
        doc = json.loads(json.dumps(MINIMAL))
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            paths = list(_paths(doc))
            if not paths:
                break
            *parent_keys, key = data.draw(st.sampled_from(paths), label="path")
            parent = doc
            for k in parent_keys:
                parent = parent[k]
            if isinstance(parent, dict) and data.draw(st.booleans(), label="delete"):
                del parent[key]
            else:
                parent[key] = data.draw(JSON_VALUES, label="value")
        try:
            load_corpus(_write(tmp_path, doc))
        except CorpusError:
            pass

    @pytest.mark.parametrize("mutate, message", [
        (lambda doc: doc["dialogues"].__setitem__(0, None), "dialogues[0] must be a JSON object, got null"),
        (lambda doc: doc["dialogues"][0]["utterances"].__setitem__(1, "At Central Perk"),
         'dialogues[0]: utterances[1] must be a JSON object, got "At Central Perk"'),
        (lambda doc: doc["dialogues"][0]["questions"][0].__setitem__("answers", None),
         "dialogues[0]: bad question record: answers must be a JSON array, got null"),
        (lambda doc: doc.__setitem__("dialogues", {}), "dialogues must be a JSON array, got an object"),
    ], ids=["null-dialogue", "string-utterance", "null-answers", "object-dialogues"])
    def test_a_mistyped_record_is_named_with_the_type_it_needs(self, tmp_path, mutate, message):
        doc = json.loads(json.dumps(MINIMAL))
        mutate(doc)
        with pytest.raises(CorpusError) as err:
            load_corpus(_write(tmp_path, doc))
        assert str(err.value).endswith(f": {message}")

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_a_value_of_another_json_type_is_named_at_every_path(self, tmp_path, data):
        """A value swapped for one of another JSON type, anywhere in the
        file, either loads or raises a ``CorpusError`` naming the dialogue,
        the field and the JSON type it needs, never in Python's words."""
        doc = json.loads(json.dumps(MINIMAL))
        *parent_keys, key = data.draw(st.sampled_from(list(_paths(doc))), label="path")
        parent = doc
        for k in parent_keys:
            parent = parent[k]
        old = parent[key]
        parent[key] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)), label="value")
        try:
            load_corpus(_write(tmp_path, doc))
        except CorpusError as e:
            message = str(e)
            assert not PYTHON_WORDING.search(message), message
            assert re.search(r" must be a JSON (object|array|string|integer), got ", message), message
            if len(parent_keys) >= 2:  # below dialogues[0]
                assert ": dialogues[0]: " in message, message

    def test_save_load_round_trip(self, tmp_path):
        fixture = []
        for ep in (1, 2, 3):
            utts = tuple(
                Utterance(f"spk{j}", (f"tok{ep}", "and", f"tok{j}")) for j in range(3)
            )
            d = Dialogue(ep, f"s{ep}", utts)
            qs = [
                make_example(
                    f"e{ep}q{k}",
                    f"what is tok{ep}",
                    (AnswerSpan(k, 0, 1, f"tok{ep} and"),),
                )
                for k in range(2)
            ] if ep < 3 else [make_example("noans", "why though", ())]
            fixture.append((d, qs))
        p = tmp_path / "roundtrip.json"
        save_corpus(fixture, p)
        loaded = load_corpus(p)
        assert loaded == [(d, list(qs)) for d, qs in fixture]


class TestQuestionTypes:
    @pytest.mark.parametrize(
        "question,expected",
        [
            ("where is the cat", "where"),
            ("tell me why it happened", "why"),
            ("does anyone know how", "how"),
            ("is this fine", "other"),
            ("what when both appear", "what"),
        ],
    )
    def test_first_interrogative_wins(self, question, expected):
        assert question_type_of(question.split()) == expected


class TestSplit:
    def _corpus(self, episodes):
        return [
            (Dialogue(ep, "s0", (Utterance("a", ("hi",)),)), [])
            for ep in episodes
        ]

    def test_table_boundaries(self):
        split = split_by_episode(self._corpus([1, 21, 23]), 20, 22)
        assert split.training[0][0].episode_id == 1
        assert split.development[0][0].episode_id == 21
        assert split.evaluation[0][0].episode_id == 23

    def test_partition_sizes_1_to_30(self):
        split = split_by_episode(self._corpus(range(1, 31)), 20, 22)
        assert (len(split.training), len(split.development), len(split.evaluation)) == (20, 2, 8)

    def test_disjoint_episode_sets(self):
        split = split_by_episode(self._corpus([1, 5, 20, 21, 22, 23, 29] * 3), 20, 22)
        eps = lambda part: {d.episode_id for d, _ in part}
        assert not eps(split.training) & eps(split.development)
        assert not eps(split.training) & eps(split.evaluation)
        assert not eps(split.development) & eps(split.evaluation)

    def test_bad_boundaries(self):
        with pytest.raises(CorpusError):
            split_by_episode(self._corpus([1]), 22, 20)


class TestTruncate:
    def _dialogue(self, m, n):
        utts = tuple(
            Utterance(f"s{i}", tuple(f"w{i}{j}" for j in range(n))) for i in range(m)
        )
        return Dialogue(1, "s0", utts)

    def test_within_limits_unchanged(self):
        d = self._dialogue(3, 4)
        assert truncate(d, 5, 6) == d

    def test_keeps_prefix(self):
        d = self._dialogue(5, 4)
        out = truncate(d, 3, 2)
        assert len(out.utterances) == 3
        assert out.utterances[0].tokens == ("w00", "w01")
        assert [u.speaker for u in out.utterances] == ["s0", "s1", "s2"]

    def test_idempotent(self):
        d = self._dialogue(6, 8)
        once = truncate(d, 4, 5)
        assert truncate(once, 4, 5) == once

    def test_bad_limits(self):
        with pytest.raises(CorpusError):
            truncate(self._dialogue(2, 2), 0, 5)
