"""The synthetic corpus generator's argument checks and entity pools."""

import pytest

from dialoqa.errors import ConfigError
from dialoqa.synth import ORDINALS, generate_corpus


@pytest.mark.parametrize("kwargs", [
    dict(min_utterances=0, max_utterances=3),
    dict(min_utterances=5, max_utterances=4),
    dict(min_utterances=len(ORDINALS) + 1, max_utterances=len(ORDINALS) + 1),
    dict(questions_per_dialogue=-1),
])
def test_out_of_range_arguments_raise_config_error(kwargs):
    with pytest.raises(ConfigError):
        generate_corpus(num_episodes=1, **kwargs)


@pytest.mark.parametrize("utterances", [7, 8])
@pytest.mark.parametrize("questions, unanswerable", [(3, 0.15), (8, 1.0)])
def test_every_bound_setting_builds(utterances, questions, unanswerable):
    # the longest dialogues, alone or with only unanswerable questions, once
    # ran a pool dry (names for eight facts, objects for eight questions)
    for seed in range(40):
        corpus = generate_corpus(
            min_utterances=utterances, max_utterances=utterances,
            questions_per_dialogue=questions, unanswerable_fraction=unanswerable, seed=seed,
        )
        for dialogue, examples in corpus:
            words = {t for u in dialogue.utterances for t in u.tokens}
            for qa in examples:
                if not qa.answerable:  # keyed on an entity the dialogue never mentions
                    assert qa.question_tokens[-1] not in words


@pytest.mark.parametrize("size", [1, len(ORDINALS)])
def test_both_ends_of_the_range_are_accepted(size):
    corpus = generate_corpus(num_episodes=3, min_utterances=size, max_utterances=size,
                             questions_per_dialogue=0, seed=1)
    assert all(len(d.utterances) == size and qs == [] for d, qs in corpus)
