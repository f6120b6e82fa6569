"""The synthetic corpus generator's argument checks and entity pools."""

import pytest

from dialoqa.errors import ConfigError, CorpusError
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


def test_an_exhausted_pool_names_the_pool_and_the_dialogue():
    # eight facts can ask for more fresh names than the six there are
    with pytest.raises(CorpusError, match=r"dialogue e\d+s\d: all 6 names are taken"):
        generate_corpus(min_utterances=8, max_utterances=8, seed=15)


@pytest.mark.parametrize("size", [1, len(ORDINALS)])
def test_both_ends_of_the_range_are_accepted(size):
    corpus = generate_corpus(num_episodes=3, min_utterances=size, max_utterances=size,
                             questions_per_dialogue=0, seed=1)
    assert all(len(d.utterances) == size and qs == [] for d, qs in corpus)
