import math
import random

import pytest
from hypothesis import given, strategies as st

from morphagree import conciseness_correlation, js_shrinkage_probs, word_entropy
from morphagree.errors import EmptyCountsError, ZeroVarianceError

from oracles import entropy_bits_oracle, js_lambda_oracle


def test_lambda_zero_gives_maximum_likelihood_probs():
    probs, lam = js_shrinkage_probs({"a": 3, "b": 1}, lambda_override=0.0)
    assert lam == 0.0
    assert probs == {"a": 0.75, "b": 0.25}


def test_uniform_counts_pin_lambda_at_one():
    probs, lam = js_shrinkage_probs({"a": 5, "b": 5})
    assert lam == 1.0
    assert probs == {"a": 0.5, "b": 0.5}


def test_lambda_closed_form_matches_oracle():
    # frozen from the direct-formula oracle, computed before implementation
    probs, lam = js_shrinkage_probs({"a": 7, "b": 2, "c": 1})
    assert math.isclose(lam, 0.24731182795698933, abs_tol=1e-15)
    assert math.isclose(lam, js_lambda_oracle([7, 2, 1]), abs_tol=1e-15)
    assert math.isclose(probs["a"], 0.6093189964157705, abs_tol=1e-12)
    assert math.isclose(probs["b"], 0.23297491039426524, abs_tol=1e-12)
    assert math.isclose(probs["c"], 0.15770609318996417, abs_tol=1e-12)


def test_lambda_clamped_to_unit_interval():
    rng = random.Random(8)
    for _ in range(100):
        counts = {f"w{i}": rng.randint(1, 50) for i in range(rng.randint(1, 12))}
        _, lam = js_shrinkage_probs(counts)
        assert 0.0 <= lam <= 1.0


def test_probs_sum_to_one():
    rng = random.Random(12)
    for _ in range(100):
        counts = {f"w{i}": rng.randint(1, 50) for i in range(rng.randint(1, 12))}
        for lam in (None, 0.0, 0.3, 1.0):
            probs, _ = js_shrinkage_probs(counts, lam)
            assert math.isclose(sum(probs.values()), 1.0, abs_tol=1e-9)


def test_single_type_entropy_zero():
    estimate = word_entropy(["word"] * 6, lambda_override=0.0)
    assert estimate.entropy_bits == 0.0
    assert math.copysign(1.0, estimate.entropy_bits) == 1.0  # not -0.0
    assert estimate.vocab_size == 1
    assert estimate.total_tokens == 6


def test_uniform_types_entropy_is_log2_v_exactly():
    for v in (2, 4, 8, 16):
        tokens = [f"w{i}" for i in range(v)] * 3
        estimate = word_entropy(tokens, lambda_override=0.0)
        assert estimate.entropy_bits == math.log2(v)


def test_uniform_types_entropy_close_for_non_power_of_two():
    tokens = [f"w{i}" for i in range(5)] * 4
    estimate = word_entropy(tokens, lambda_override=0.0)
    assert math.isclose(estimate.entropy_bits, math.log2(5), abs_tol=1e-12)


def test_skewed_entropy_hand_computed():
    tokens = ["a"] * 7 + ["b"] * 2 + ["c"]
    estimate = word_entropy(tokens, lambda_override=0.0)
    assert math.isclose(estimate.entropy_bits, 1.1567796494470395, abs_tol=1e-12)
    assert math.isclose(
        estimate.entropy_bits, entropy_bits_oracle([0.7, 0.2, 0.1]), abs_tol=1e-12
    )


def test_entropy_invariant_to_order_and_duplication():
    tokens = ["a", "b", "a", "c", "a", "b"]
    rng = random.Random(0)
    shuffled = tokens[:]
    rng.shuffle(shuffled)
    base = word_entropy(tokens, lambda_override=0.0).entropy_bits
    assert word_entropy(shuffled, lambda_override=0.0).entropy_bits == base
    assert word_entropy(tokens * 3, lambda_override=0.0).entropy_bits == base


@given(
    st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=12)
)
def test_entropy_monotone_in_lambda(counts):
    tokens = [w for i, c in enumerate(counts) for w in [f"w{i}"] * c]
    lambdas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    entropies = [word_entropy(tokens, lam).entropy_bits for lam in lambdas]
    for lower, higher in zip(entropies, entropies[1:]):
        assert higher >= lower - 1e-12
    assert math.isclose(entropies[-1], math.log2(len(counts)), abs_tol=1e-9)


def test_empty_counts_rejected():
    with pytest.raises(EmptyCountsError):
        word_entropy([])
    with pytest.raises(EmptyCountsError):
        js_shrinkage_probs({})


def test_conciseness_two_points_max_correlation():
    r = conciseness_correlation({"tb1": 4.0, "tb2": 6.0}, {"tb1": 3.0, "tb2": 9.0})
    assert math.isclose(r, 1.0, abs_tol=1e-12)


def test_conciseness_shuffled_pairing_kills_correlation():
    rng = random.Random(42)
    n = 400
    entropies = {f"tb{i}": rng.uniform(3, 11) for i in range(n)}
    aligned = {k: 2.0 * v + rng.uniform(-0.1, 0.1) for k, v in entropies.items()}
    assert conciseness_correlation(entropies, aligned) > 0.99
    values = list(aligned.values())
    rng.shuffle(values)
    shuffled = dict(zip(aligned.keys(), values))
    assert abs(conciseness_correlation(entropies, shuffled)) < 0.3


def test_conciseness_identical_leaf_counts_degenerate():
    with pytest.raises(ZeroVarianceError):
        conciseness_correlation({"a": 1.0, "b": 2.0}, {"a": 5.0, "b": 5.0})


def test_conciseness_uses_matched_keys_only():
    r = conciseness_correlation(
        {"a": 1.0, "b": 2.0, "c": 3.0, "only-entropy": 9.0},
        {"a": 2.0, "b": 4.0, "c": 6.0, "only-leaves": 1.0},
    )
    assert math.isclose(r, 1.0, abs_tol=1e-12)
