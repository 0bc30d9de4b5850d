"""Morphological complexity as shrinkage-smoothed word entropy.

Word-type probabilities are interpolated between maximum likelihood and the
uniform (maximum entropy) distribution with a data-driven weight, and the
Shannon entropy of the result, in bits, proxies morphological richness.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, NamedTuple

from .errors import EmptyCountsError
from .evaluation import pearson


class EntropyEstimate(NamedTuple):
    vocab_size: int
    total_tokens: int
    lambda_: float
    entropy_bits: float


def js_shrinkage_probs(
    counts: dict[str, int], lambda_override: float | None = None
) -> tuple[dict[str, float], float]:
    """Shrinkage-smoothed type probabilities p = lambda/V + (1-lambda)*ML.

    Without an override, lambda is the closed-form optimal shrinkage weight
    (1 - sum p_ML^2) / ((n-1) * sum (1/V - p_ML)^2), clamped to [0, 1];
    uniform counts make the denominator zero and pin lambda at 1.
    """
    if not counts:
        raise EmptyCountsError("no word counts")
    n = sum(counts.values())
    v = len(counts)
    ml = {w: c / n for w, c in counts.items()}
    if lambda_override is not None:
        lam = lambda_override
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")
    elif n <= 1:
        lam = 1.0
    else:
        numerator = 1.0 - math.fsum(p * p for p in ml.values())
        denominator = (n - 1) * math.fsum((1.0 / v - p) ** 2 for p in ml.values())
        lam = 1.0 if denominator == 0.0 else min(1.0, max(0.0, numerator / denominator))
    uniform = 1.0 / v
    probs = {w: lam * uniform + (1.0 - lam) * p for w, p in ml.items()}
    return probs, lam


def word_entropy(
    tokens: Iterable[str], lambda_override: float | None = None
) -> EntropyEstimate:
    """Shannon entropy (bits) of the word-type distribution.

    Types are exact surface forms, case-sensitive, nothing filtered.
    """
    counts = Counter(tokens)
    if not counts:
        raise EmptyCountsError("no tokens")
    probs, lam = js_shrinkage_probs(dict(counts), lambda_override)
    # 0.0 - x rather than -x: one word type sums to -0.0, which would print
    # as -0.0000
    entropy = 0.0 - math.fsum(p * math.log2(p) for p in probs.values() if p > 0.0)
    return EntropyEstimate(
        vocab_size=len(counts),
        total_tokens=sum(counts.values()),
        lambda_=lam,
        entropy_bits=entropy,
    )


def conciseness_correlation(
    entropies: dict[str, float], mean_leaf_counts: dict[str, float]
) -> float:
    """Pearson correlation between word entropy and mean tree leaf count,
    over the treebanks present in both maps (sorted key order)."""
    keys = sorted(set(entropies) & set(mean_leaf_counts))
    return pearson([entropies[k] for k in keys], [mean_leaf_counts[k] for k in keys])
