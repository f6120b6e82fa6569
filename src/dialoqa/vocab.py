"""Closed word vocabulary over a dialogue corpus.

Tokenization is whitespace + lowercase. Speakers get dedicated ids with a
"SPK:" prefix so a name spoken as a word never collides with the speaker
token. Ids are assigned deterministically: the four specials occupy [0, 3],
then speakers sorted lexicographically, then words sorted by descending
frequency with lexicographic ties.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import CorpusError
from .files import write_file

PAD, CLS, MASK, UNK = 0, 1, 2, 3
SPECIAL_TOKENS = ("[PAD]", "[CLS]", "[MASK]", "[UNK]")
_SPEAKER_PREFIX = "SPK:"


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def speaker_token(name: str) -> str:
    return _SPEAKER_PREFIX + name.lower()


@dataclass(frozen=True)
class Vocab:
    token_to_id: dict[str, int]
    id_to_token: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def cls(self) -> int:
        return CLS

    @property
    def mask(self) -> int:
        return MASK

    def word_id(self, word: str) -> int:
        return self.token_to_id.get(word.lower(), UNK)

    def speaker_id(self, name: str) -> int:
        return self.token_to_id.get(speaker_token(name), UNK)

    def is_special(self, idx: int) -> bool:
        return idx < len(SPECIAL_TOKENS)

    def save(self, path: str | Path) -> None:
        """One token per line; line number == id."""
        write_file(path, [("\n".join(self.id_to_token) + "\n").encode("utf-8")])

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "Vocab":
        if tuple(tokens[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise CorpusError(
                f"vocabulary must start with the specials {SPECIAL_TOKENS}"
            )
        token_to_id = {tok: i for i, tok in enumerate(tokens)}
        if len(token_to_id) != len(tokens):
            raise CorpusError("vocabulary contains duplicate tokens")
        return cls(token_to_id, tuple(tokens))


def build_vocab(corpus: Iterable, min_freq: int = 1) -> Vocab:
    """Vocabulary from dialogues: 4 specials, one id per distinct speaker,
    every lowercased word with frequency >= min_freq."""
    if min_freq < 1:
        raise CorpusError(f"min_freq must be >= 1, got {min_freq}")
    dialogues = list(corpus)
    if not dialogues:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    speakers: set[str] = set()
    counts: Counter[str] = Counter()
    for d in dialogues:
        for utt in d.utterances:
            speakers.add(speaker_token(utt.speaker))
            counts.update(tok.lower() for tok in utt.tokens)
    tokens = list(SPECIAL_TOKENS)
    tokens.extend(sorted(speakers))
    tokens.extend(
        w for w, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])) if c >= min_freq
    )
    return Vocab.from_tokens(tokens)


def encode_utterance(vocab: Vocab, utterance) -> list[int]:
    """[speaker_id, word ids...] with UNK for out-of-vocabulary words."""
    ids = [vocab.speaker_id(utterance.speaker)]
    ids.extend(vocab.word_id(w) for w in utterance.tokens)
    return ids
