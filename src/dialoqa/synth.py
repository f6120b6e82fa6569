"""Deterministic synthetic dialogue/QA corpus generator.

Every utterance opens with an ordinal marker tied to its position (so
utterance order is recoverable from content) followed by one templated fact.
Questions ask about a fact's key entity, answers are spans inside the fact's
utterance, and unanswerable questions reference an entity the dialogue never
mentions. Entities are drawn without replacement inside a dialogue so each
question has a unique supporting utterance.

No pool runs dry. A fact kind whose pool is empty is drawn again from the
kinds that still have room, and an unanswerable question takes a fresh event
once the objects are gone. A fact takes at most one object or event, so the
12 objects and 8 events leave room for 8 facts and 8 unanswerable questions.
Only a draw that could not be built before is drawn again, so every corpus
that built before keeps its bytes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .corpus import AnswerSpan, Dialogue, QAExample, Utterance, make_example
from .errors import ConfigError

SPEAKERS = ("alice", "bob", "carol", "dave", "erin", "frank")
ORDINALS = ("first", "second", "third", "fourth", "fifth", "sixth", "seventh", "eighth")
OBJECTS = ("keys", "wallet", "phone", "book", "lamp", "ticket", "umbrella",
           "jacket", "letter", "camera", "map", "radio")
PLACES = ("kitchen", "garage", "office", "park", "library", "station", "attic", "cafe")
DAYS = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")
EVENTS = ("meeting", "party", "dinner", "rehearsal", "exam", "picnic", "concert", "game")
CAUSES = ("rain", "traffic", "noise", "strike", "fog", "thunder")
VEHICLES = ("train", "bus", "bike", "car", "tram")
NAMES = SPEAKERS

POOLS = {"objects": OBJECTS, "names": NAMES, "events": EVENTS}
# The pools each fact kind draws a fresh entity from.
FACT_POOLS = {
    "where": ("objects",),
    "who": ("objects",),
    "when": ("events",),
    "what": ("objects", "names"),
    "why": ("events",),
    "how": ("names",),
}
FACT_TYPES = tuple(FACT_POOLS)


Fresh = Callable[[str], str]


def _build_fact(kind: str, rng: np.random.Generator, fresh: Fresh):
    """Returns (utterance tokens, question text, relative answer span)."""
    if kind == "where":
        obj = fresh("objects")
        place = PLACES[int(rng.integers(len(PLACES)))]
        tokens = ["the", obj, "is", "in", "the", place]
        return tokens, f"where is the {obj}", (4, 5)
    if kind == "who":
        obj = fresh("objects")
        name = NAMES[int(rng.integers(len(NAMES)))]
        tokens = [name, "kept", "the", obj]
        return tokens, f"who kept the {obj}", (0, 0)
    if kind == "when":
        event = fresh("events")
        day = DAYS[int(rng.integers(len(DAYS)))]
        tokens = ["the", event, "is", "on", day]
        return tokens, f"when is the {event}", (3, 4)
    if kind == "what":
        obj = fresh("objects")
        name = fresh("names")  # the question keys on the name
        tokens = [name, "found", "the", obj]
        return tokens, f"what did {name} find", (2, 3)
    if kind == "why":
        event = fresh("events")
        cause = CAUSES[int(rng.integers(len(CAUSES)))]
        tokens = ["the", event, "stopped", "because", "of", "the", cause]
        return tokens, f"why did the {event} stop", (3, 6)
    if kind == "how":
        name = fresh("names")
        vehicle = VEHICLES[int(rng.integers(len(VEHICLES)))]
        tokens = [name, "traveled", "by", vehicle]
        return tokens, f"how did {name} travel", (2, 3)
    raise ValueError(f"unknown fact kind {kind!r}")


def generate_dialogue(
    episode_id: int,
    scene_id: str,
    rng: np.random.Generator,
    *,
    min_utterances: int = 4,
    max_utterances: int = 6,
    questions: int = 3,
    unanswerable_fraction: float = 0.15,
) -> tuple[Dialogue, list[QAExample]]:
    m = int(rng.integers(min_utterances, max_utterances + 1))
    cast = list(rng.choice(len(SPEAKERS), size=3, replace=False))
    left = {name: list(pool) for name, pool in POOLS.items()}

    def fresh(pool_name: str) -> str:  # without replacement, per dialogue
        return left[pool_name].pop(int(rng.integers(len(left[pool_name]))))

    def has_room(kind: str) -> bool:
        return all(left[name] for name in FACT_POOLS[kind])

    utterances = []
    facts = []  # (utterance index, question text, answer span)
    for i in range(m):
        kind = FACT_TYPES[int(rng.integers(len(FACT_TYPES)))]
        if not has_room(kind):
            room = [k for k in FACT_TYPES if has_room(k)]
            kind = room[int(rng.integers(len(room)))]
        tokens, question, (a0, a1) = _build_fact(kind, rng, fresh)
        full = [ORDINALS[i]] + tokens  # the marker shifts spans by one
        speaker = SPEAKERS[cast[int(rng.integers(len(cast)))]]
        utterances.append(Utterance(speaker, tuple(full)))
        facts.append((i, question, (a0 + 1, a1 + 1)))
    dialogue = Dialogue(episode_id, scene_id, tuple(utterances))

    examples = []
    q_count = min(questions, m)
    picks = rng.choice(m, size=q_count, replace=False)
    for k, fi in enumerate(sorted(int(p) for p in picks)):
        qid = f"e{episode_id}{scene_id}q{k}"
        ui, question, (a0, a1) = facts[fi]
        if rng.random() < unanswerable_fraction:
            if left["objects"]:
                question = f"where is the {fresh('objects')}"
            else:
                question = f"when is the {fresh('events')}"
            examples.append(make_example(qid, question, ()))
            continue
        text = " ".join(utterances[ui].tokens[a0 : a1 + 1])
        span = AnswerSpan(ui, a0, a1, text)
        examples.append(make_example(qid, question, (span,)))
    return dialogue, examples


def generate_corpus(
    *,
    num_episodes: int = 26,
    scenes_per_episode: int = 2,
    questions_per_dialogue: int = 3,
    seed: int = 0,
    min_utterances: int = 4,
    max_utterances: int = 6,
    unanswerable_fraction: float = 0.15,
) -> list[tuple[Dialogue, list[QAExample]]]:
    """Raises ConfigError unless 1 <= min_utterances <= max_utterances <=
    len(ORDINALS), num_episodes and scenes_per_episode >= 1,
    questions_per_dialogue >= 0 and 0 <= unanswerable_fraction <= 1; every
    other setting builds."""
    for name, value in (("num_episodes", num_episodes), ("scenes_per_episode", scenes_per_episode)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    if not 0.0 <= unanswerable_fraction <= 1.0:  # False for nan
        raise ConfigError(
            f"unanswerable_fraction must be in [0, 1], got {unanswerable_fraction}"
        )
    if not 1 <= min_utterances <= max_utterances <= len(ORDINALS):
        raise ConfigError(
            f"utterances per dialogue must satisfy 1 <= min ({min_utterances}) "
            f"<= max ({max_utterances}) <= {len(ORDINALS)}"
        )
    if questions_per_dialogue < 0:
        raise ConfigError(f"questions_per_dialogue must be >= 0, got {questions_per_dialogue}")
    rng = np.random.default_rng(seed)
    corpus = []
    for ep in range(1, num_episodes + 1):
        for sc in range(scenes_per_episode):
            corpus.append(
                generate_dialogue(
                    ep,
                    f"s{sc}",
                    rng,
                    min_utterances=min_utterances,
                    max_utterances=max_utterances,
                    questions=questions_per_dialogue,
                    unanswerable_fraction=unanswerable_fraction,
                )
            )
    return corpus
