"""Shared test helpers: the two oracles, finite-difference gradient checking
for the autodiff engine and brute-force answer selection, random score grids
for the latter and their padded form."""

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from dialoqa.errors import ConfigError, DialoQAError
from dialoqa.tensor import Tensor


class DeterminismError(DialoQAError):
    """A loss function expected to be deterministic produced differing values."""


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
        flat = p.array.reshape(-1)  # view: in-place perturbations reach the model
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




def brute_force_select(uid_scores, span_scores):
    """Exhaustive enumeration over all (utterance, l, r) candidates under the
    selection rule; returns (utterance_index, token_start, token_end) with
    (0, None, None) meaning no answer. Written independently of the library
    implementation."""
    uid = [float(x) for x in uid_scores]
    bearers = []
    for i, (ls, rs) in enumerate(span_scores):
        ls = [float(x) for x in ls]
        rs = [float(x) for x in rs]
        n = len(ls) - 1
        cands = [
            (ls[l] + rs[r], l, r)
            for l in range(1, n + 1)
            for r in range(l, n + 1)
        ]
        if not cands:
            continue
        best_sum = max(c[0] for c in cands)
        if best_sum > ls[0] + rs[0]:
            _, l, r = min(
                (c for c in cands if c[0] == best_sum), key=lambda c: (c[1], c[2])
            )
            bearers.append((i, l, r))
    top = uid.index(max(uid))
    if top == 0 or not bearers:
        return (0, None, None)
    best_uid = max(uid[b[0] + 1] for b in bearers)
    i, l, r = min((b for b in bearers if uid[b[0] + 1] == best_uid), key=lambda b: b[0])
    return (i + 1, l - 1, r - 1)


def random_score_grids(rng: np.random.Generator, *, integer: bool, min_width: int = 1):
    """A random selection problem with m <= 4 utterances of min_width <= n <= 5
    tokens, as per-utterance (left, right) arrays of n + 1 slots. Integer grids
    make ties frequent."""
    m = int(rng.integers(1, 5))
    uid = rng.integers(0, 4, size=m + 1).astype(float) if integer else rng.random(m + 1)
    spans = []
    for _ in range(m):
        n = int(rng.integers(min_width, 6))
        if integer:
            spans.append(
                (rng.integers(0, 3, size=n + 1).astype(float),
                 rng.integers(0, 3, size=n + 1).astype(float))
            )
        else:
            spans.append((rng.random(n + 1), rng.random(n + 1)))
    return uid, spans


def padded(span_scores, fill: float = 0.0):
    """Per-utterance (left, right) arrays in ``predict``'s layout: (left (m, S),
    right (m, S), widths), each slot past a width holding ``fill``."""
    widths = [len(ls) - 1 for ls, _ in span_scores]
    left = np.full((len(widths), max(widths, default=0) + 1), fill)
    right = left.copy()
    for i, (ls, rs) in enumerate(span_scores):
        left[i, : len(ls)] = ls
        right[i, : len(rs)] = rs
    return left, right, widths


def oracle_record(uid_scores, span_scores):
    """``brute_force_select``'s answer in the prediction record's convention:
    a 0-based (utterance_index, token_start, token_end), or all None."""
    i, l, r = brute_force_select(uid_scores, span_scores)
    return (None, None, None) if i == 0 else (i - 1, l, r)
