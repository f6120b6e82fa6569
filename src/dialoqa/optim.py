"""Adam with decoupled weight decay and the linear warmup/decay schedule.
Adam updates whole vectors (``EncoderWeights.vector`` from
``EncoderWeights.grads()``), a few numpy calls however many tensors a stage
has. The finite-difference gradient checker, the autodiff engine's oracle,
is gone from the package: it is test code, in ``tests/conftest.py``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass
class AdamState:
    """The Adam settings and the first/second moments, each laid out like the
    parameter vector (None before the first step). The step count is the
    caller's: ``fit`` passes its global step."""

    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.01
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None

    def __post_init__(self):
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:  # False for nan
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0.0 < self.epsilon < np.inf:
            raise ConfigError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float, step: int) -> None:
    """Adam update number ``step`` (from 1, for the bias corrections) of the
    parameter vector from the gradient vector, with decoupled weight decay,
    mutating params and state. Elementwise, so one pass over a stage's
    vector equals one per tensor.

    Weight decay is applied directly to the weights (not through the
    moments). Must be called by one writer at a time.
    """
    if not 0.0 <= lr < np.inf:  # False for nan
        raise ConfigError(f"learning rate must be finite and >= 0, got {lr}")
    if step < 1:
        raise ConfigError(f"Adam step must be >= 1, got {step}")
    if grads.shape != params.shape:
        raise ShapeError(
            f"gradient shape {grads.shape} does not match parameter shape {params.shape}"
        )
    if state.first_moment is None:
        state.first_moment, state.second_moment = np.zeros_like(params), np.zeros_like(params)
    m, v = state.first_moment, state.second_moment
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**step
    bc2 = 1.0 - b2**step
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * (grads * grads)
    update = (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
    if state.weight_decay != 0.0:
        update = update + state.weight_decay * params
    params -= lr * update


@dataclass(frozen=True)
class LRSchedule:
    """Linear ramp 0 -> base_lr over the first warmup fraction of steps, then
    linear decay back to 0 at total_steps."""

    base_lr: float
    total_steps: int
    warmup_fraction: float = 0.10

    def __post_init__(self):
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")
        if not 0.0 < self.warmup_fraction < 1.0:
            raise ConfigError(
                f"warmup_fraction must be in (0, 1), got {self.warmup_fraction}"
            )
        if not 0.0 <= self.base_lr < np.inf:  # False for nan
            raise ConfigError(f"base_lr must be finite and >= 0, got {self.base_lr}")


def lr_at_step(schedule: LRSchedule, step: int | float) -> float:
    if not 0 <= step <= schedule.total_steps:
        raise ValueError(
            f"step {step} outside [0, {schedule.total_steps}]"
        )
    warm = schedule.warmup_fraction * schedule.total_steps
    if step <= warm:
        return schedule.base_lr * step / warm
    return schedule.base_lr * (schedule.total_steps - step) / (schedule.total_steps - warm)
