"""Adam with decoupled weight decay, the linear warmup/decay schedule, and a
finite-difference gradient checker used as the verification oracle for the
autodiff engine. Adam updates whole vectors (``EncoderWeights.vector`` from
``EncoderWeights.grads()``), a few numpy calls however many tensors a stage has."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DeterminismError, ShapeError
from .tensor import Tensor


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


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    worst_index: int
    worst_analytic: float
    worst_numeric: float
    checked: int

    def passed(self, tolerance: float) -> bool:
        return self.max_rel_err < tolerance


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: Mapping[str, Tensor] | Sequence[Tensor],
    h: float = 1e-4,
    tolerance: float = 1e-4,
    *,
    rng: np.random.Generator | None = None,
    max_coords_per_param: int | None = None,
) -> GradCheckReport:
    """Compare autodiff gradients of ``loss_fn`` against central differences.

    ``loss_fn`` must be deterministic (dropout disabled); it is evaluated
    twice up front and a mismatch raises DeterminismError. When
    ``max_coords_per_param`` is set, that many coordinates per parameter are
    sampled with ``rng`` instead of sweeping every coordinate.
    """
    if h <= 0:
        raise ConfigError(f"finite-difference step h must be > 0, got {h}")
    if isinstance(params, Mapping):
        named = list(params.items())
    else:
        named = [(f"param{i}", p) for i, p in enumerate(params)]

    first = loss_fn()
    second = loss_fn()
    if float(first.array) != float(second.array):
        raise DeterminismError(
            f"loss_fn not deterministic: {float(first.array)!r} vs {float(second.array)!r}"
        )

    for _, p in named:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {
        name: (np.zeros(p.size) if p.grad is None else p.grad.copy())
        for name, p in named
    }

    if max_coords_per_param is not None and rng is None:
        rng = np.random.default_rng(0)

    report = GradCheckReport(0.0, "", -1, 0.0, 0.0, 0)
    for name, p in named:
        flat = p.data  # view: in-place perturbations reach the model
        n = flat.shape[0]
        if max_coords_per_param is not None and n > max_coords_per_param:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = range(n)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(loss_fn().array)
            flat[i] = orig - h
            f_minus = float(loss_fn().array)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = analytic[name][i]
            # Absolute floor keeps O(h^2) truncation noise on small-gradient
            # coordinates from registering; real defects show up as O(1).
            denom = max(abs(a), abs(numeric), 1e-2)
            rel = abs(a - numeric) / denom
            report.checked += 1
            if rel > report.max_rel_err:
                report.max_rel_err = rel
                report.worst_param = name
                report.worst_index = int(i)
                report.worst_analytic = float(a)
                report.worst_numeric = float(numeric)
    return report
