"""Shared test helpers: the independent brute-force answer-selection oracle,
random score grids for it and their padded form, and small fixture
builders."""

import numpy as np


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
