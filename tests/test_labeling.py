import gc
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from morphagree import (
    ChanceModel,
    Label,
    Triple,
    chance_agreement_prob,
    chi_squared_gof,
    cramers_phi,
    FeatureSpec,
    PlantedGrammar,
    RulePattern,
    extract_instances,
    generate,
    label_leaf_hard,
    label_leaf_statistical,
    label_triple,
    merge_rules,
)
from morphagree import labeling, serialization
from morphagree.conllu import Treebank
from morphagree.errors import (
    EmptyMarginalsError,
    InvalidRuleSetError,
    MalformedRulesError,
    VerdictMismatchError,
)
from morphagree.labeling import (
    EXAMPLE_REFS_CAP,
    Constraint,
    LeafVerdict,
    ThresholdMode,
    _complement,
    _disjoint,
    _meet,
    _merge_to_fixpoint,
    _try_merge,
    LabeledRule,
    chi_square_survival,
    rules_for,
)
from morphagree.pipeline import ExtractionConfig, FeatureRules, label_leaves
from morphagree.serialization import (load_rules, rule_to_dict, rules_document,
                                      verdict_to_dict, write_json)
from morphagree.tree import (
    SLOT_ORDER,
    DecisionTree,
    HyperParams,
    Internal,
    Leaf,
    SplitPredicate,
    fit,
    leaves,
    predict_leaf,
)
from morphagree.triples import FeatureDataset

from conftest import agrees, make_edge, make_treebank, six_feature_conllu
from oracles import (chi2_sf_oracle, chi_squared_statistic_by_cells, merge_rules_restarting,
                     merge_to_fixpoint_pairwise, rule_for_scanning, try_merge_by_cases)
from treegen import random_labeled_tree, random_triple


# --- chance model ---

def test_chance_prob_ninety_ten_is_exactly_point_82():
    model = chance_agreement_prob({"Sing": 9, "Plur": 1})
    assert model.p_chance == 0.82
    assert model.value_probs == {"Plur": 0.1, "Sing": 0.9}


def test_chance_prob_single_value_is_one():
    assert chance_agreement_prob({"Fem": 5}).p_chance == 1.0


def test_chance_prob_three_values():
    assert chance_agreement_prob({"A": 1, "B": 1, "C": 2}).p_chance == 0.375


def test_chance_prob_probs_sum_to_one():
    rng = random.Random(1)
    for _ in range(50):
        counts = {f"v{i}": rng.randint(1, 40) for i in range(rng.randint(1, 9))}
        model = chance_agreement_prob(counts)
        assert math.isclose(sum(model.value_probs.values()), 1.0, abs_tol=1e-9)
        assert 0.0 < model.p_chance <= 1.0


def test_chance_prob_empty_rejected():
    with pytest.raises(EmptyMarginalsError):
        chance_agreement_prob({})


# --- chi-squared goodness of fit ---

def _model(p_chance: float) -> ChanceModel:
    """A model of the decimal p_chance, given as its exact fraction."""
    return ChanceModel(feature="F", value_probs={}, p_chance=p_chance,
                       p_chance_exact=Fraction(str(p_chance)).as_integer_ratio())


def test_chi2_zero_when_observed_equals_expected():
    chi2, p = chi_squared_gof((18, 82), _model(0.82))
    assert chi2 == 0.0
    assert p == 1.0


def test_chi2_hand_computed_example():
    chi2, p = chi_squared_gof((2, 98), _model(0.82))
    assert math.isclose(chi2, 256 / 18 + 256 / 82, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(chi2, 17.344173441734416, abs_tol=1e-12)
    # frozen from the quadrature oracle
    assert math.isclose(p, 3.1185290462843163e-05, rel_tol=1e-9)


def test_chi2_survival_matches_integration_oracle():
    oracles = [chi2_sf_oracle]
    try:  # scipy is optional: its survival function is a second oracle when present
        from scipy.stats import chi2
    except ImportError:
        pass
    else:
        oracles.append(lambda x: float(chi2.sf(x, 1)))
    for oracle in oracles:
        for x in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 17.344, 50.0):
            assert abs(chi_square_survival(x) - oracle(x)) < 1e-9


def test_chi2_survival_monotone_and_anchored():
    assert chi_square_survival(0.0) == 1.0
    xs = [0.0, 0.1, 0.5, 1.0, 3.0, 9.0, 30.0]
    values = [chi_square_survival(x) for x in xs]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_chi2_reads_a_float_p_chance_at_its_exact_binary_value():
    # 0.82 is stored as a binary fraction just below 82/100, so 82 of 100
    # agreeing deviates from it, a little
    assert 0 < chi_squared_gof((18, 82), ChanceModel("F", {}, 0.82))[0] < 1e-12


def test_chi2_degenerate_expected_convention():
    assert chi_squared_gof((0, 7), _model(1.0)) == (0.0, 1.0)
    chi2, p = chi_squared_gof((3, 4), _model(1.0))
    assert math.isinf(chi2) and p == 0.0


def test_chi2_beyond_the_largest_float_is_infinite():
    # the closed form's quotient overflows a float for a subnormal p_chance
    assert chi_squared_gof((0, 1), ChanceModel("F", {}, 2.225073858507203e-309)) == (
        math.inf, 0.0)
    verdict = label_leaf_statistical(Leaf(1, 5, 0), ChanceModel("F", {}, 1e-310))
    assert verdict.chi2 == math.inf and verdict.p_value == 0.0
    assert verdict.label is Label.REQUIRED


# models from counts as extract builds them, and hand-given p_chance
# values, degenerate ones included, as exact decimal fractions and as
# floats alone, read at their binary value
_chance_models = st.one_of(
    st.dictionaries(st.sampled_from("ABCDE"), st.integers(1, 10**6), min_size=1).map(
        chance_agreement_prob),
    st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.82]), st.floats(0.0, 1.0)).map(_model),
    st.floats(0.0, 1.0).map(lambda p_chance: ChanceModel("F", {}, p_chance)),
)
# (disagree, agree) counts of 1 to 10^7 instances
_observations = st.integers(1, 10**7).flatmap(
    lambda n: st.integers(0, n).map(lambda agree: (n - agree, agree)))


@settings(max_examples=500, deadline=None)
@given(_observations, _chance_models)
def test_chi2_closed_form_equals_the_exact_cell_sum(observed, chance):
    try:
        expected = chi_squared_statistic_by_cells(observed, chance)
    except OverflowError:
        # a subnormal hand-given p_chance: the statistic exceeds any float
        # and rounds to +inf
        assert chi_squared_gof(observed, chance) == (math.inf, 0.0)
        return
    chi2, p = chi_squared_gof(observed, chance)
    assert chi2 == expected
    assert p == chi_square_survival(chi2)


# --- effect size ---

def test_phi_zero_for_zero_chi2():
    assert cramers_phi(0.0, 100) == 0.0


def test_phi_paper_formula_and_sqrt_variant():
    assert cramers_phi(60.0, 100) == 0.6
    assert math.isclose(cramers_phi(60.0, 100, sqrt_variant=True), math.sqrt(0.6))


def test_phi_boundary_not_strictly_greater():
    phi = cramers_phi(50.0, 100)
    assert phi == 0.5
    assert not phi > 0.5


# --- leaf labeling ---

def _leaf(n_agree, n_disagree, leaf_id=1):
    return Leaf(leaf_id=leaf_id, n_agree=n_agree, n_disagree=n_disagree)


def test_hard_threshold_pure_leaf_required():
    verdict = label_leaf_hard(_leaf(100, 0))
    assert verdict.label is Label.REQUIRED
    assert verdict.chi2 is None and verdict.p_value is None and verdict.phi_c is None


def test_hard_threshold_is_strict():
    assert label_leaf_hard(_leaf(90, 10), threshold=0.9).label is Label.CHANCE


def test_hard_threshold_fig3_leaf():
    assert label_leaf_hard(_leaf(58076, 778)).label is Label.REQUIRED


def test_hard_threshold_monotone():
    leaf = _leaf(93, 7)
    labels = [label_leaf_hard(leaf, t).label for t in (0.5, 0.7, 0.9, 0.95, 1.0)]
    for earlier, later in zip(labels, labels[1:]):
        assert not (earlier is Label.CHANCE and later is Label.REQUIRED)


def test_hard_threshold_below_half_rejected():
    with pytest.raises(ValueError):
        label_leaf_hard(_leaf(5, 5), threshold=0.3)


def test_statistical_large_majority_leaf_can_still_be_chance():
    # ratio 0.6246 is significantly above chance 0.5032 at this n, but the
    # effect size stays small, so the verdict is chance
    model = chance_agreement_prob({"Fem": 54, "Masc": 46})
    verdict = label_leaf_statistical(_leaf(2433, 1462), model)
    assert verdict.label is Label.CHANCE
    assert verdict.p_value < 0.01
    assert verdict.phi_c < 0.5


def test_statistical_small_leaf_caution():
    verdict = label_leaf_statistical(_leaf(3, 0), _model(0.5))
    assert math.isclose(verdict.chi2, 3.0)
    assert math.isclose(verdict.p_value, 0.08326451666355043, rel_tol=1e-12)
    assert verdict.p_value > 0.01
    assert verdict.label is Label.CHANCE


def test_statistical_large_pure_leaf_required():
    verdict = label_leaf_statistical(_leaf(1000, 0), _model(0.5))
    assert math.isclose(verdict.chi2, 1000.0)
    assert verdict.phi_c == 1.0
    assert verdict.label is Label.REQUIRED


def test_statistical_ratio_equal_to_chance_is_chance_with_zero_chi2():
    verdict = label_leaf_statistical(_leaf(82, 18), _model(0.82))
    assert verdict.chi2 == 0.0
    assert verdict.p_value == 1.0
    assert verdict.label is Label.CHANCE


def test_statistical_disagree_majority_skips_test():
    verdict = label_leaf_statistical(_leaf(10, 30), _model(0.5))
    assert verdict.label is Label.CHANCE
    assert verdict.chi2 is None


def test_statistical_direction_gate_blocks_underagreement():
    # ratio 0.6 is far below chance 0.9: significant, large effect, but in
    # the wrong direction
    verdict = label_leaf_statistical(_leaf(60, 40), _model(0.9))
    assert verdict.p_value < 0.01
    assert verdict.phi_c > 0.5
    assert verdict.label is Label.CHANCE


def test_a_leaf_without_an_agreement_majority_is_chance_whatever_its_chi2():
    verdict = labeling.gated_verdict(_leaf(50, 50), 1e6, 0.3, 0.01, 0.5, False)
    assert verdict == LeafVerdict(leaf_id=1, label=Label.CHANCE, agree_ratio=0.5)


def test_each_gate_fails_at_its_boundary():
    def label(chi2, p_chance=0.5, alpha=0.01, phi_min=0.5):
        return labeling.gated_verdict(_leaf(90, 10), chi2, p_chance, alpha, phi_min, False).label

    assert label(1000.0) is Label.REQUIRED
    assert label(1000.0, p_chance=None) is Label.REQUIRED
    # agree ratio 0.9 equal to p_chance, p-value equal to alpha, phi_c 50 / 100
    assert label(1000.0, p_chance=0.9) is Label.CHANCE
    assert label(60.0, alpha=chi_square_survival(60.0)) is Label.CHANCE
    assert label(50.0) is Label.CHANCE


def test_statistical_sqrt_variant_loosens_effect_gate():
    model = _model(0.68)
    strict = label_leaf_statistical(_leaf(800, 0), model)
    loose = label_leaf_statistical(_leaf(800, 0), model, sqrt_variant=True)
    assert strict.label is Label.CHANCE  # (1-p)/p = 0.4706 < 0.5
    assert loose.label is Label.REQUIRED  # sqrt(0.4706) = 0.686 > 0.5


# --- merging ---

def _tree_from_root(root, training_size):
    return DecisionTree(
        feature="Gender", root=root, hyperparams=HyperParams(), training_size=training_size
    )


def _verdict(leaf_id, label):
    return LeafVerdict(leaf_id=leaf_id, label=label, agree_ratio=0.5)


def test_all_chance_leaves_collapse_to_single_universal_rule():
    root = Internal(
        SplitPredicate("relation", "det"),
        Leaf(1, 5, 5),
        Internal(SplitPredicate("dep_pos", "NOUN"), Leaf(2, 1, 3), Leaf(3, 2, 2)),
    )
    tree = _tree_from_root(root, 18)
    ruleset = merge_rules(
        tree, [_verdict(1, Label.CHANCE), _verdict(2, Label.CHANCE), _verdict(3, Label.CHANCE)]
    )
    assert len(ruleset.rules) == 1
    rule = ruleset.rules[0]
    assert all(c.trivial for c in rule.constraints.values())
    assert rule.n_agree == 8 and rule.n_disagree == 10
    assert label_triple(ruleset, Triple("anything", "at", "all")) is Label.CHANCE


def test_fig3_style_merge_unions_relation_values():
    # child-pos==NOUN subtree: relation==comp:obj leaf vs {conj,det} leaf,
    # both chance; non-noun side required
    node2 = Internal(
        SplitPredicate("relation", "comp:obj"),
        Leaf(1, 373, 268),
        Internal(SplitPredicate("relation", "conj"), Leaf(2, 900, 700), Leaf(3, 1533, 762)),
    )
    root = Internal(SplitPredicate("dep_pos", "NOUN"), node2, Leaf(4, 58076, 778))
    tree = _tree_from_root(root, 373 + 268 + 900 + 700 + 1533 + 762 + 58076 + 778)
    verdicts = [
        _verdict(1, Label.CHANCE),
        _verdict(2, Label.CHANCE),
        _verdict(3, Label.CHANCE),
        _verdict(4, Label.REQUIRED),
    ]
    ruleset = merge_rules(tree, verdicts)
    assert len(ruleset.rules) == 2
    chance_rule = next(r for r in ruleset.rules if r.label is Label.CHANCE)
    required_rule = next(r for r in ruleset.rules if r.label is Label.REQUIRED)
    # the three noun leaves fold into dep=NOUN with no relation constraint
    assert chance_rule.constraints["dep_pos"] == Constraint("in", frozenset({"NOUN"}))
    assert chance_rule.constraints["relation"].trivial
    assert chance_rule.source_leaf_ids == (1, 2, 3)
    assert required_rule.constraints["dep_pos"] == Constraint(
        "not_in", frozenset({"NOUN"})
    )
    assert label_triple(ruleset, Triple("NOUN", "conj", "NOUN")) is Label.CHANCE
    assert label_triple(ruleset, Triple("NOUN", "det", "ADJ")) is Label.REQUIRED


def test_partial_merge_unions_in_sets():
    # relation chain det -> subj -> conj with labels C, R, C, C:
    # det and conj leaves cannot fold structurally but union their values
    root = Internal(
        SplitPredicate("relation", "det"),
        Leaf(1, 1, 9),
        Internal(
            SplitPredicate("relation", "subj"),
            Leaf(2, 10, 0),
            Internal(SplitPredicate("relation", "conj"), Leaf(3, 2, 8), Leaf(4, 3, 7)),
        ),
    )
    tree = _tree_from_root(root, 40)
    ruleset = merge_rules(
        tree,
        [
            _verdict(1, Label.CHANCE),
            _verdict(2, Label.REQUIRED),
            _verdict(3, Label.CHANCE),
            _verdict(4, Label.CHANCE),
        ],
    )
    assert len(ruleset.rules) == 2
    chance_rule = next(r for r in ruleset.rules if r.label is Label.CHANCE)
    assert chance_rule.constraints["relation"] == Constraint(
        "not_in", frozenset({"subj"})
    )
    assert chance_rule.n_agree == 6 and chance_rule.n_disagree == 24


def test_merge_conserves_counts_and_is_idempotent():
    rng = random.Random(17)
    for _ in range(100):
        tree, verdicts = random_labeled_tree(rng)
        ruleset = merge_rules(tree, verdicts)
        total = sum(r.n_agree + r.n_disagree for r in ruleset.rules)
        assert total == tree.training_size
        again = _merge_to_fixpoint(list(ruleset.rules))
        assert len(again) == len(ruleset.rules)
        assert {(r.label, tuple(sorted((s, c.mode, tuple(sorted(c.values)))
                                       for s, c in r.constraints.items())))
                for r in again} == \
               {(r.label, tuple(sorted((s, c.mode, tuple(sorted(c.values)))
                                       for s, c in r.constraints.items())))
                for r in ruleset.rules}


def test_merge_equivalence_on_random_trees():
    rng = random.Random(99)
    for _ in range(200):
        tree, verdicts = random_labeled_tree(rng)
        by_leaf = {v.leaf_id: v.label for v in verdicts}
        ruleset = merge_rules(tree, verdicts)
        for _ in range(50):
            triple = random_triple(rng)
            assert label_triple(ruleset, triple) is by_leaf[predict_leaf(tree, triple)]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.booleans())
def test_merge_equals_restarting_oracle_on_random_trees(seed, max_depth, dead_branches):
    # dead branches put empty in constraints into the rules, where the merge
    # step meets the pairs that it refuses
    tree, verdicts = random_labeled_tree(random.Random(seed), max_depth=max_depth,
                                         dead_branches=dead_branches)
    assert merge_rules(tree, verdicts).rules == merge_rules_restarting(tree, verdicts)


# --- the constraint algebra, read as explicit sets over a small vocabulary
# plus one value that no constraint names ---

_VOCAB = ("*", "a", "b")
_UNIVERSE = frozenset(_VOCAB + ("unseen",))
_constraints = st.builds(Constraint, st.sampled_from(("in", "not_in")),
                         st.frozensets(st.sampled_from(_VOCAB)))


def _admitted(constraint):
    """The values of _UNIVERSE the constraint admits."""
    if constraint.mode == "in":
        return constraint.values
    return _UNIVERSE - constraint.values


@given(_constraints, _constraints)
def test_meet_intersects_complement_complements_and_disjoint_is_an_empty_meet(a, b):
    assert _admitted(_meet(a, b)) == _admitted(a) & _admitted(b)
    assert _admitted(_complement(a)) == _UNIVERSE - _admitted(a)
    assert _disjoint(a, b) == (not _admitted(a) & _admitted(b)) == (not _admitted(_meet(a, b)))


@given(_constraints, _constraints, _constraints, st.sampled_from(SLOT_ORDER))
def test_try_merge_unites_the_one_slot_that_differs(ca, cb, other, slot):
    assume(ca != cb)
    rest = dict.fromkeys(SLOT_ORDER, other)
    a = LabeledRule(1, Label.REQUIRED, {**rest, slot: ca}, 1, 0, (1,))
    b = LabeledRule(2, Label.REQUIRED, {**rest, slot: cb}, 0, 1, (2,))
    merged = _try_merge(a, b)
    assert merged == try_merge_by_cases(a, b)
    assert (merged is not None) == (ca.mode == cb.mode == "in" or _disjoint(ca, cb))
    if merged is not None:
        assert merged.constraints == {**rest, slot: merged.constraints[slot]}
        assert _admitted(merged.constraints[slot]) == _admitted(ca) | _admitted(cb)


def _random_deep_fit(rng):
    """A depth-15 tree fitted without impurity floor on up to 400 random
    instances, each with its own provenance, and random leaf labels."""
    instances = [
        make_edge(random_triple(rng), agree, (f"s{k}", 1, 2))
        for k, agree in enumerate(rng.random() < 0.6 for _ in range(rng.randint(1, 400)))
    ]
    dataset = FeatureDataset("Gender", tuple(instances))
    tree = fit(dataset, HyperParams(max_depth=15, min_impurity_decrease=0.0))
    verdicts = [
        LeafVerdict(leaf.leaf_id, rng.choice((Label.REQUIRED, Label.CHANCE)), leaf.agree_ratio)
        for leaf in leaves(tree)
    ]
    return tree, verdicts, dataset


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_merge_equals_restarting_oracle_on_deep_fitted_trees(seed):
    # every instance has its own provenance, so the comparison also pins
    # the order of example_refs and counterexample_refs
    tree, verdicts, dataset = _random_deep_fit(random.Random(seed))
    assert merge_rules(tree, verdicts, dataset).rules == merge_rules_restarting(
        tree, verdicts, dataset)


# 24 relations x 10 x 10 UPOS over 300 sentences of 29 tokens: 4,200 edges,
# so thinly spread that depth-30 trees with no impurity floor grow over
# 1,000 leaves
_THIN_RELATIONS = tuple(f"rel{i}" for i in range(24))
_THIN_POS = tuple(f"POS{i}" for i in range(10))
_THIN_GRAMMAR = PlantedGrammar(
    features=(FeatureSpec("Gender", ("Fem", "Masc", "Neut"), (0.5, 0.35, 0.15)),
              FeatureSpec("Case", ("Nom", "Acc", "Dat", "Gen"), (0.4, 0.3, 0.2, 0.1))),
    relations=_THIN_RELATIONS,
    head_pos=_THIN_POS,
    dep_pos=_THIN_POS,
    required_rules=tuple(
        RulePattern(relation=_THIN_RELATIONS[5 * i % 24], head_pos=_THIN_POS[i % 4])
        for i in range(12)
    ),
    noise_rate=0.02,
    seed=1,
)


@pytest.fixture(scope="module")
def thousand_leaf_fits():
    """Gender and Case trees of over 1,000 leaves each, fitted on a thin
    corpus, with their statistical verdicts and datasets."""
    treebank = Treebank.from_sentences(generate(_THIN_GRAMMAR, 300, 29))
    fits = []
    for feature in ("Gender", "Case"):
        dataset = extract_instances(treebank, feature)
        chance = chance_agreement_prob(dataset.value_marginals, feature)
        tree = fit(dataset, HyperParams(max_depth=30, min_impurity_decrease=0.0))
        verdicts = [label_leaf_statistical(leaf, chance) for leaf in leaves(tree)]
        assert len(verdicts) >= 1000
        fits.append((tree, verdicts, dataset))
    return fits


def test_merge_equals_pairwise_scan_on_thousand_leaf_trees(thousand_leaf_fits, monkeypatch):
    for tree, verdicts, dataset in thousand_leaf_fits:
        indexed = merge_rules(tree, verdicts, dataset)
        with monkeypatch.context() as patched:
            patched.setattr(labeling, "_merge_to_fixpoint", merge_to_fixpoint_pairwise)
            pairwise = merge_rules(tree, verdicts, dataset)
        assert indexed == pairwise
        assert len(indexed.rules) < len(verdicts) / 4


def test_merge_tries_only_rules_that_share_a_signature(thousand_leaf_fits, monkeypatch):
    tried = []

    def recording(a, b):
        tried.append((a, b))
        return _try_merge(a, b)

    monkeypatch.setattr(labeling, "_try_merge", recording)
    for tree, verdicts, dataset in thousand_leaf_fits:
        tried.clear()
        ruleset = merge_rules(tree, verdicts, dataset)
        # one label, and equal constraints on all slots but at most one
        assert all(a.label == b.label
                   and sum(a.constraints[s] != b.constraints[s] for s in SLOT_ORDER) <= 1
                   for a, b in tried)
        # one call per merge at least; merge_to_fixpoint_pairwise makes
        # about 290 per leaf on these trees
        assert len(verdicts) - len(ruleset.rules) <= len(tried) < 2 * len(verdicts)


_DEEP_CONFIGS = {
    "statistical": ExtractionConfig(features=("Gender", "Case")),
    "phi_sqrt": ExtractionConfig(features=("Gender", "Case"), phi_sqrt=True),
    "per-leaf": ExtractionConfig(features=("Gender", "Case"), marginals_scope="per-leaf"),
    "hard": ExtractionConfig(features=("Gender", "Case"), threshold_mode=ThresholdMode.HARD),
}


@pytest.mark.parametrize("mode", _DEEP_CONFIGS)
def test_deep_documents_round_trip_in_every_labeling_mode(thousand_leaf_fits, tmp_path,
                                                         monkeypatch, mode):
    config = _DEEP_CONFIGS[mode]
    results = {}
    for tree, _, dataset in thousand_leaf_fits:
        chance = chance_agreement_prob(dataset.value_marginals, dataset.feature)
        verdicts = label_leaves(tree, dataset, chance, config)
        results[dataset.feature] = FeatureRules(
            dataset.feature, False, dataset, chance, tree, verdicts,
            merge_rules(tree, verdicts, dataset, config.threshold_mode))
    path = tmp_path / "rules.json"
    write_json(rules_document(results, config, ""), path)
    calls = dict.fromkeys(("gated_verdict", "chi_squared_gof"), 0)
    for name in calls:
        def counted(*args, name=name, function=getattr(serialization, name)):
            calls[name] += 1
            return function(*args)
        monkeypatch.setattr(serialization, name, counted)
    loaded = load_rules(path)
    for feature, result in results.items():
        assert ([verdict_to_dict(v) for v in loaded.rulesets[feature].verdicts]
                == [verdict_to_dict(v) for v in result.verdicts])
    # the loader labels each leaf once, and computes the statistic of a
    # tested leaf's counts only under global marginals
    statistical = config.threshold_mode is ThresholdMode.STATISTICAL
    verdicts = [v for result in results.values() for v in result.verdicts]
    assert calls["gated_verdict"] == (len(verdicts) if statistical else 0)
    assert calls["chi_squared_gof"] == (sum(v.chi2 is not None for v in verdicts)
                                        if statistical and mode != "per-leaf" else 0)
    if mode == "statistical":
        # the loader recomputes chi2 from the stored p_chance, not the exact
        # fraction of counts extract used, so a stored chi2 within 1e-9 of
        # its recomputation must be taken as it stands
        differs = 0
        for result in results.values():
            stored = result.chance._replace(
                p_chance_exact=result.chance.p_chance.as_integer_ratio())
            for leaf, verdict in zip(leaves(result.tree), result.verdicts):
                if verdict.chi2 is not None:
                    differs += verdict.chi2 != chi_squared_gof(
                        (leaf.n_disagree, leaf.n_agree), stored)[0]
        assert differs > 0


def test_merged_refs_are_the_first_hundred_of_the_leaves_refs():
    # det and amod edges alternate in the document and agree 70 + 70 times,
    # obj edges disagree; det and amod end in two required leaves that merge
    det, amod, obj = (Triple("NOUN", r, "DET") for r in ("det", "amod", "obj"))
    order = [det, amod] * 70 + [det, amod] * 3 + [obj] * 70
    agree = [True] * 140 + [False] * 6 + [False] * 70
    instances = [
        make_edge(t, a, (f"s{k}", 1, 2))
        for k, (t, a) in enumerate(zip(order, agree))
    ]
    dataset = FeatureDataset("Gender", tuple(instances))
    tree = fit(dataset, HyperParams(max_depth=15, min_impurity_decrease=0.0))
    verdicts = [label_leaf_hard(leaf, 0.9) for leaf in leaves(tree)]
    ruleset = merge_rules(tree, verdicts, dataset, ThresholdMode.HARD)
    (merged,) = [r for r in ruleset.rules if r.label is Label.REQUIRED]
    assert len(merged.source_leaf_ids) == 2

    def provenance(leaf_id, agreeing):
        return [
            inst.provenance
            for inst in dataset.instances
            if agrees(inst) is agreeing and predict_leaf(tree, inst.triple) == leaf_id
        ]

    examples = [p for leaf in merged.source_leaf_ids for p in provenance(leaf, True)]
    counters = [p for leaf in merged.source_leaf_ids for p in provenance(leaf, False)]
    assert len(examples) == 140
    assert list(merged.example_refs) == examples[:EXAMPLE_REFS_CAP]
    assert list(merged.counterexample_refs) == counters


def test_merge_leaves_no_cyclic_garbage():
    # a recursive closure over the tree walk left a cycle holding the rule
    # list and every leaf's refs until the cyclic GC ran
    dataset = extract_instances(make_treebank(six_feature_conllu(600)), "Gender")
    tree = fit(dataset, HyperParams(max_depth=15, min_impurity_decrease=0.0))
    verdicts = [label_leaf_hard(leaf, 0.9) for leaf in leaves(tree)]
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        ruleset = merge_rules(tree, verdicts, dataset, ThresholdMode.HARD)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    assert len(ruleset.rules) > 1


def test_merge_rejects_bad_verdicts():
    tree = _tree_from_root(Leaf(1, 3, 2), 5)
    with pytest.raises(VerdictMismatchError):
        merge_rules(tree, [])
    with pytest.raises(VerdictMismatchError):
        merge_rules(tree, [_verdict(1, Label.CHANCE), _verdict(2, Label.CHANCE)])


def _hard_labeled(tree):
    """The tree's leaf verdicts as the hard labeler gives them at threshold 0.5."""
    return [label_leaf_hard(leaf, 0.5) for leaf in leaves(tree)]


def _rules_doc(ruleset) -> dict:
    """A rules document holding ruleset, whose verdicts are _hard_labeled,
    as its Gender entry, read back from its JSON text."""
    config = ExtractionConfig(features=("Gender",), threshold_mode=ThresholdMode.HARD,
                              hard_threshold=0.5)
    chance = ChanceModel("Gender", {"Fem": 0.5, "Masc": 0.5}, 0.5)
    result = FeatureRules("Gender", absent=False, chance=chance, ruleset=ruleset)
    return json.loads(json.dumps(rules_document({"Gender": result}, config, "")))


def _load_error(path, doc) -> str:
    """The message of the MalformedRulesError load_rules raises on doc, written to path."""
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedRulesError) as info:
        load_rules(path)
    return str(info.value)


def _two_leaf_tree(nomatch=Leaf(2, 1, 4), training_size=10):
    return _tree_from_root(Internal(SplitPredicate("relation", "det"), Leaf(1, 3, 2), nomatch),
                           training_size)


def _tree_split_on_lemma():
    return _tree_from_root(Internal(SplitPredicate("lemma", "x"), Leaf(1, 3, 2), Leaf(2, 1, 4)),
                           10)


def _root(entry):
    return entry["tree"]["root"]


def _first_constraints(entry):
    return entry["rules"][0]["constraints"]


_DIFFERS = "differs from the merge of the tree's labeled leaves"

# (edit of the Gender entry of a rules document of two one-leaf rules, the
# loader's message after the feature), one per check of slots, counts,
# verdicts, rule ids, labels and constraints
DISAGREEMENTS = [
    pytest.param(lambda e: _root(e)["split"].update(slot="lemma"),
                 "slot 'lemma' is not one of relation, head_pos, dep_pos",
                 id="split on an unknown slot"),
    pytest.param(lambda e: (_root(e)["nomatch"]["leaf"].update(n_disagree=-4),
                            e["tree"].update(training_size=2)),
                 "a leaf of the tree has a negative count", id="negative leaf count"),
    pytest.param(lambda e: e["tree"].update(training_size=9),
                 "'training_size' is not 10, the sum of the tree's leaf counts",
                 id="wrong training_size"),
    pytest.param(lambda e: e["leaf_verdicts"].pop(),
                 "'leaf_verdicts' do not list each leaf of the tree once", id="missing verdict"),
    pytest.param(lambda e: e["leaf_verdicts"].append(e["leaf_verdicts"][0]),
                 "'leaf_verdicts' do not list each leaf of the tree once",
                 id="duplicate verdict"),
    pytest.param(lambda e: e.update(rules=[]),
                 "'rules' lists 0 rules, not the 2 of the merge of the tree's labeled leaves",
                 id="no rules"),
    pytest.param(lambda e: e["rules"].extend(e["rules"]),
                 "'rules' lists 4 rules, not the 2 of the merge of the tree's labeled leaves",
                 id="rules twice"),
    pytest.param(lambda e: e["rules"][1].update(rule_id=1), f"rule 2: 'rule_id' {_DIFFERS}",
                 id="duplicate rule id"),
    pytest.param(lambda e: e["rules"][0].update(n_agree=4), f"rule 1: 'n_agree' {_DIFFERS}",
                 id="wrong rule counts"),
    pytest.param(lambda e: e["rules"][0].update(label="chance"), f"rule 1: 'label' {_DIFFERS}",
                 id="wrong rule label"),
    pytest.param(lambda e: _first_constraints(e).pop("relation"),
                 f"rule 1: 'constraints' {_DIFFERS}", id="rule without a slot"),
    pytest.param(lambda e: _first_constraints(e).update(lemma={"mode": "in", "values": ["x"]}),
                 f"rule 1: 'constraints' {_DIFFERS}", id="rule with an unknown slot"),
    pytest.param(lambda e: _first_constraints(e).update(head_pos={"mode": "maybe", "values": []}),
                 f"rule 1: 'constraints' {_DIFFERS}", id="constraint with an unknown mode"),
    pytest.param(lambda e: _first_constraints(e)["relation"].update(values="det"),
                 f"rule 1: 'constraints' {_DIFFERS}", id="constraint values in a string"),
    pytest.param(lambda e: _first_constraints(e).update(dep_pos={"mode": "not_in", "values": [1]}),
                 f"rule 1: 'constraints' {_DIFFERS}", id="constraint value not a string"),
]


@pytest.mark.parametrize("edit, message", DISAGREEMENTS)
def test_loader_rejects_disagreeing_counts_verdicts_and_rules(tmp_path, edit, message):
    tree = _two_leaf_tree()
    doc = _rules_doc(merge_rules(tree, _hard_labeled(tree), threshold_mode=ThresholdMode.HARD))
    assert len(doc["features"]["Gender"]["rules"]) == 2
    edit(doc["features"]["Gender"])
    path = tmp_path / "rules.json"
    assert _load_error(path, doc) == f"{path}: feature 'Gender': {message}"


def test_ruleset_construction_rejects_repeated_leaf_ids():
    # once accepted, with training_size 7: the first leaf 1 and its counts vanished
    tree = _tree_from_root(
        Internal(SplitPredicate("relation", "det"), Leaf(1, 5, 0), Leaf(1, 0, 7)), 7)
    with pytest.raises(InvalidRuleSetError, match="two leaves of the tree have leaf_id 1"):
        merge_rules(tree, [_verdict(1, Label.CHANCE)])


@pytest.mark.parametrize("with_dataset", [False, True])
def test_merge_rules_rejects_a_split_on_an_unknown_slot(with_dataset):
    dataset = FeatureDataset("Gender", (make_edge(Triple("NOUN", "det", "DET"), True),))
    verdicts = [_verdict(1, Label.REQUIRED), _verdict(2, Label.CHANCE)]
    with pytest.raises(InvalidRuleSetError) as info:
        merge_rules(_tree_split_on_lemma(), verdicts, dataset if with_dataset else None)
    assert info.type is InvalidRuleSetError
    assert str(info.value) == "split slot 'lemma' is not one of relation, head_pos, dep_pos"


def test_merge_rules_walks_the_leaf_regions_once(monkeypatch):
    walks = []
    walk = labeling._leaf_regions
    monkeypatch.setattr(labeling, "_leaf_regions", lambda tree: walks.append(tree) or walk(tree))
    tree = _two_leaf_tree()
    merge_rules(tree, [_verdict(1, Label.REQUIRED), _verdict(2, Label.CHANCE)])
    assert walks == [tree]


def test_ruleset_partitions_triple_space():
    rng = random.Random(7)
    for _ in range(50):
        tree, verdicts = random_labeled_tree(rng)
        ruleset = merge_rules(tree, verdicts)
        triples = [random_triple(rng) for _ in range(40)]
        found = rules_for(ruleset, triples)
        for triple in triples:
            assert found[triple] is rule_for_scanning(ruleset.rules, triple)


def _every_class_of_triples(tree, rules) -> list[Triple]:
    """One triple per class of triples that no predicate of the tree and no
    constraint of the rules tells apart: per slot, every value they name
    and one value that none names."""
    named = {slot: set() for slot in SLOT_ORDER}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Internal):
            named[node.predicate.slot].add(node.predicate.value)
            stack += [node.match_child, node.nomatch_child]
    for rule in rules:
        for slot, constraint in rule.constraints.items():
            named[slot] |= constraint.values
    per_slot = [sorted(named[slot]) + [max(named[slot], default="") + "~"]
                for slot in SLOT_ORDER]
    return [Triple(**dict(zip(SLOT_ORDER, values))) for values in itertools.product(*per_slot)]


def _mutated(rules, rng):
    """The index of one rule and rules with one slot constraint of that rule
    changed: a value added or dropped, the mode flipped, or a random
    constraint put in its place."""
    at = rng.randrange(len(rules))
    slot = rng.choice(SLOT_ORDER)
    old = rules[at].constraints[slot]
    pool = sorted({value for rule in rules for value in rule.constraints[slot].values}
                  | {"det", "NOUN", "unnamed"})
    kind = rng.randrange(3)
    if kind == 0:
        new = Constraint(old.mode, old.values ^ {rng.choice(pool)})
    elif kind == 1:
        new = Constraint("in" if old.mode == "not_in" else "not_in", old.values)
    else:
        new = Constraint(rng.choice(("in", "not_in")),
                         frozenset(v for v in pool if rng.random() < 0.3))
    changed = rules[at]._replace(constraints={**rules[at].constraints, slot: new})
    return at, rules[:at] + (changed,) + rules[at + 1:]


@pytest.fixture(scope="module")
def rules_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "rules.json"


def _check_partition_and_mutations(tree, rng, path):
    """The rules merged from the tree, its leaves _hard_labeled, match each
    class of triples exactly once, and routed lookups find that rule; their
    document loads as the same RuleSet; and load_rules rejects each
    single-constraint mutation of them that changes the document, naming
    the mutated rule."""
    ruleset = merge_rules(tree, _hard_labeled(tree), threshold_mode=ThresholdMode.HARD)
    triples = _every_class_of_triples(tree, ruleset.rules)
    found = rules_for(ruleset, triples)
    for triple in triples:
        # raises LookupError if no rule or two rules match
        assert found[triple] is rule_for_scanning(ruleset.rules, triple)
    doc = _rules_doc(ruleset)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_rules(path).rulesets == {"Gender": ruleset}
    for _ in range(8):
        at, rules = _mutated(ruleset.rules, rng)
        if rule_to_dict(rules[at]) == rule_to_dict(ruleset.rules[at]):
            continue
        doc["features"]["Gender"]["rules"] = [rule_to_dict(rule) for rule in rules]
        assert _load_error(path, doc) == (
            f"{path}: feature 'Gender': rule {at + 1}: 'constraints' {_DIFFERS}")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.booleans())
def test_merged_rules_partition_and_mutations_fail_to_load_on_random_trees(
        rules_path, seed, max_depth, dead_branches):
    rng = random.Random(seed)
    tree, _ = random_labeled_tree(rng, max_depth=max_depth, dead_branches=dead_branches)
    _check_partition_and_mutations(tree, rng, rules_path)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_merged_rules_partition_and_mutations_fail_to_load_on_deep_fitted_trees(rules_path, seed):
    rng = random.Random(seed)
    tree, _, _ = _random_deep_fit(rng)
    _check_partition_and_mutations(tree, rng, rules_path)


def _depth(node) -> int:
    if isinstance(node, Leaf):
        return 0
    return 1 + max(_depth(node.match_child), _depth(node.nomatch_child))


def test_rule_for_tests_at_most_depth_predicates():
    # a predicate test reads one slot of the triple, so count slot reads
    calls = []

    def counted(index):
        return property(lambda self: calls.append(1) or tuple.__getitem__(self, index))

    class CountingTriple(Triple):
        __slots__ = ()
        head_pos, relation, dep_pos = counted(0), counted(1), counted(2)

    rng = random.Random(5)
    most_rules_over_depth = 0
    for _ in range(20):
        tree, verdicts, _ = _random_deep_fit(rng)
        ruleset = merge_rules(tree, verdicts)
        depth = _depth(tree.root)
        most_rules_over_depth = max(most_rules_over_depth, len(ruleset.rules) - depth)
        for _ in range(30):
            triple = CountingTriple(*random_triple(rng))
            calls.clear()
            rules_for(ruleset, (triple,))
            assert len(calls) <= depth
            # the leaf table reads each slot once, whatever the depth
            assert len(calls) == len(SLOT_ORDER)
    # the bound holds where a scan would test more rules than the tree is deep
    assert most_rules_over_depth > 0
