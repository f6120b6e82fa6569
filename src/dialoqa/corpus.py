"""Corpus data model: dialogues made of speaker turns, questions with gold
answer spans, JSON ingestion with validation, episode-based splitting, and
length truncation.

On-disk schema (UTF-8 JSON):

    {"dialogues": [{
        "episode_id": int, "scene_id": str,
        "utterances": [{"speaker": str, "text": str}],
        "questions": [{"qid": str, "question": str,
                       "answers": [{"utterance_index": int, "token_start": int,
                                    "token_end": int, "text": str}]}]}]}

Token indices refer to whitespace tokenization of the lowercased utterance
text. Answer spans never cross utterance boundaries.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from .errors import CorpusError
from .vocab import tokenize

QUESTION_TYPES = ("what", "who", "when", "where", "why", "how")


@dataclass(frozen=True)
class Utterance:
    speaker: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class Dialogue:
    episode_id: int
    scene_id: str
    utterances: tuple[Utterance, ...]


@dataclass(frozen=True)
class AnswerSpan:
    utterance_index: int
    token_start: int
    token_end: int  # inclusive
    text: str


@dataclass(frozen=True)
class QAExample:
    qid: str
    question_tokens: tuple[str, ...]
    answers: tuple[AnswerSpan, ...]
    question_type: str

    @property
    def answerable(self) -> bool:
        return bool(self.answers)


@dataclass(frozen=True)
class CorpusSplit:
    training: tuple[tuple[Dialogue, tuple[QAExample, ...]], ...]
    development: tuple[tuple[Dialogue, tuple[QAExample, ...]], ...]
    evaluation: tuple[tuple[Dialogue, tuple[QAExample, ...]], ...]
    pretrain_extra: tuple[Dialogue, ...] = field(default_factory=tuple)


def question_type_of(question_tokens: Sequence[str]) -> str:
    """First interrogative word wins; 'other' when none appears."""
    for tok in question_tokens:
        w = tok.lower()
        if w in QUESTION_TYPES:
            return w
    return "other"


def normalize_text(text: str) -> str:
    """Lowercase, whitespace runs collapsed to one space, ends stripped."""
    return re.sub(r"\s+", " ", text.lower()).strip()


def make_example(qid: str, question: str, answers: Sequence[AnswerSpan]) -> QAExample:
    toks = tuple(tokenize(question))
    return QAExample(qid, toks, tuple(answers), question_type_of(toks))


def _validate_span(span: AnswerSpan, dialogue: Dialogue, qid: str) -> None:
    if not 0 <= span.utterance_index < len(dialogue.utterances):
        raise CorpusError(
            f"question {qid!r}: answer utterance_index {span.utterance_index} "
            f"out of range for {len(dialogue.utterances)} utterances"
        )
    toks = dialogue.utterances[span.utterance_index].tokens
    if not 0 <= span.token_start <= span.token_end < len(toks):
        raise CorpusError(
            f"question {qid!r}: answer span [{span.token_start}, {span.token_end}] "
            f"out of range for utterance of {len(toks)} tokens"
        )
    joined = " ".join(toks[span.token_start : span.token_end + 1])
    if normalize_text(span.text) != joined:
        raise CorpusError(
            f"question {qid!r}: answer text {span.text!r} does not match "
            f"span tokens {joined!r}"
        )


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer"}


def _got(value) -> str:
    """``value`` in JSON's words: its type for an object or array, else its text."""
    if isinstance(value, (dict, list)):
        return "an object" if isinstance(value, dict) else "an array"
    return json.dumps(value)


def _field(record: dict, key: str, typ: type, default=None):
    """``record[key]``, or ``default`` when the key is absent and a default
    is given; a ``TypeError`` naming the key unless the value has the JSON
    type of ``typ`` (an integer is no bool or float)."""
    if key not in record:
        if default is None:
            raise ValueError(f"{key} is missing")
        return default
    value = record[key]
    if type(value) is not typ:
        raise TypeError(f"{key} must be a JSON {_JSON_TYPES[typ]}, got {_got(value)}")
    return value


def _records(record: dict, key: str, default=None) -> list[dict]:
    """The array ``record[key]``, by ``_field``, with a ``TypeError`` naming
    each item that is no JSON object."""
    items = _field(record, key, list, default)
    for i, item in enumerate(items):
        if type(item) is not dict:
            raise TypeError(f"{key}[{i}] must be a JSON object, got {_got(item)}")
    return items


def load_corpus(path: str | Path) -> list[tuple[Dialogue, list[QAExample]]]:
    """Parse and validate a corpus file; rejects violating records, and a
    qid used twice, with their location (formatted only on failure). A value
    of the wrong JSON type is named with the type it needs."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise CorpusError(f"{path}: cannot read corpus file: {e}") from e
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise CorpusError(f"{path}: malformed JSON at line {e.lineno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise CorpusError(f"{path}: expected a top-level object with a 'dialogues' list")
    try:
        dialogues = _records(doc, "dialogues")
    except (TypeError, ValueError) as e:
        raise CorpusError(f"{path}: {e}") from e
    out: list[tuple[Dialogue, list[QAExample]]] = []
    first_seen: dict[str, tuple[int, int]] = {}
    for di, dd in enumerate(dialogues):
        try:
            episode_id = _field(dd, "episode_id", int)
            scene_id = _field(dd, "scene_id", str)
            utterances = []
            for ud in _records(dd, "utterances"):
                toks = tuple(tokenize(_field(ud, "text", str)))
                if not toks:
                    raise ValueError("utterance with empty text")
                speaker = _field(ud, "speaker", str)
                if "".join(speaker.splitlines()) != speaker:
                    # vocab.txt holds one token per line
                    raise ValueError(f"speaker {speaker!r} contains a line break")
                utterances.append(Utterance(speaker, toks))
            records = _records(dd, "questions", [])
        except (TypeError, ValueError) as e:
            raise CorpusError(f"{path}: dialogues[{di}]: {e}") from e
        if episode_id < 1:
            raise CorpusError(f"{path}: dialogues[{di}]: episode_id must be positive")
        if not utterances:
            raise CorpusError(f"{path}: dialogues[{di}]: dialogue has no utterances")
        dialogue = Dialogue(episode_id, scene_id, tuple(utterances))
        questions = []
        for qi, qd in enumerate(records):
            try:
                qid = _field(qd, "qid", str)
                spans = tuple(
                    AnswerSpan(
                        _field(ad, "utterance_index", int),
                        _field(ad, "token_start", int),
                        _field(ad, "token_end", int),
                        _field(ad, "text", str),
                    )
                    for ad in _records(qd, "answers", [])
                )
                ex = make_example(qid, _field(qd, "question", str), spans)
            except (TypeError, ValueError) as e:
                raise CorpusError(f"{path}: dialogues[{di}]: bad question record: {e}") from e
            if not ex.question_tokens:
                raise CorpusError(
                    f"{path}: dialogues[{di}].questions[{qi}]: question {qid!r} has no token"
                )
            for span in ex.answers:
                _validate_span(span, dialogue, ex.qid)
            if ex.qid in first_seen:
                first_di, first_qi = first_seen[ex.qid]
                raise CorpusError(
                    f"{path}: dialogues[{di}].questions[{qi}]: duplicate qid {ex.qid!r}, "
                    f"first used at {path}: dialogues[{first_di}].questions[{first_qi}]"
                )
            first_seen[ex.qid] = (di, qi)
            questions.append(ex)
        out.append((dialogue, questions))
    return out


def save_corpus(
    corpus: Sequence[tuple[Dialogue, Sequence[QAExample]]], path: str | Path
) -> None:
    doc = {
        "dialogues": [
            {
                "episode_id": d.episode_id,
                "scene_id": d.scene_id,
                "utterances": [
                    {"speaker": u.speaker, "text": " ".join(u.tokens)}
                    for u in d.utterances
                ],
                "questions": [
                    {
                        "qid": q.qid,
                        "question": " ".join(q.question_tokens),
                        "answers": [
                            {
                                "utterance_index": a.utterance_index,
                                "token_start": a.token_start,
                                "token_end": a.token_end,
                                "text": a.text,
                            }
                            for a in q.answers
                        ],
                    }
                    for q in qs
                ],
            }
            for d, qs in corpus
        ]
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")


def split_by_episode(
    corpus: Sequence[tuple[Dialogue, Sequence[QAExample]]],
    train_max_episode: int = 20,
    dev_max_episode: int = 22,
    pretrain_extra: Sequence[Dialogue] = (),
) -> CorpusSplit:
    """Partition by episode id: <= train_max train, <= dev_max development,
    the rest evaluation. Scenes of one episode never straddle splits."""
    if train_max_episode >= dev_max_episode:
        raise CorpusError(
            f"train_max_episode {train_max_episode} must be < "
            f"dev_max_episode {dev_max_episode}"
        )
    train, dev, evaluation = [], [], []
    for d, qs in corpus:
        entry = (d, tuple(qs))
        if d.episode_id <= train_max_episode:
            train.append(entry)
        elif d.episode_id <= dev_max_episode:
            dev.append(entry)
        else:
            evaluation.append(entry)
    return CorpusSplit(tuple(train), tuple(dev), tuple(evaluation), tuple(pretrain_extra))


def truncate(dialogue: Dialogue, m_max: int, n_max: int) -> Dialogue:
    """Keep the first m_max utterances and the first n_max tokens of each."""
    if m_max < 1 or n_max < 1:
        raise CorpusError(f"truncation limits must be >= 1, got ({m_max}, {n_max})")
    utts = tuple(
        replace(u, tokens=u.tokens[:n_max]) for u in dialogue.utterances[:m_max]
    )
    return replace(dialogue, utterances=utts)
