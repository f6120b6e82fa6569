"""Exception hierarchy shared across the package."""


class DialoQAError(Exception):
    """Base class for all library errors."""


class ShapeError(DialoQAError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(DialoQAError):
    """A hyperparameter or configuration value is out of its legal range."""


class CapacityError(DialoQAError):
    """A sequence exceeds the positional capacity of the model."""


class CorpusError(DialoQAError):
    """Corpus file failed to parse or violated a validation invariant."""


class SequencingError(DialoQAError):
    """A pipeline stage was started from a checkpoint of the wrong stage."""


class CheckpointError(DialoQAError):
    """Checkpoint file is malformed or incompatible with the requested config."""


class DivergenceError(DialoQAError):
    """A training loss stopped being finite."""
