import gc
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from morphagree import (
    ChanceModel,
    Label,
    Triple,
    chance_agreement_prob,
    chi_squared_gof,
    cramers_phi,
    extract_instances,
    label_leaf_hard,
    label_leaf_statistical,
    label_triple,
    merge_rules,
)
from morphagree.errors import (
    EmptyMarginalsError,
    InvalidRuleSetError,
    NoMatchingRuleError,
    VerdictMismatchError,
)
from morphagree.labeling import (
    EXAMPLE_REFS_CAP,
    Constraint,
    LeafVerdict,
    RuleSet,
    ThresholdMode,
    _merge_to_fixpoint,
    LabeledRule,
    chi_square_survival,
    rules_for,
)
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
                     rule_for_scanning, rule_matches)
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
    return ChanceModel(feature="F", value_probs={}, p_chance=p_chance)


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
# values, degenerate ones included
_chance_models = st.one_of(
    st.dictionaries(st.sampled_from("ABCDE"), st.integers(1, 10**6), min_size=1).map(
        chance_agreement_prob),
    st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.82]), st.floats(0.0, 1.0)).map(_model),
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
@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_merge_equals_restarting_oracle_on_random_trees(seed, max_depth):
    tree, verdicts = random_labeled_tree(random.Random(seed), max_depth=max_depth)
    assert merge_rules(tree, verdicts) == merge_rules_restarting(tree, verdicts)


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
    assert merge_rules(tree, verdicts, dataset, ThresholdMode.HARD) == merge_rules_restarting(
        tree, verdicts, dataset, ThresholdMode.HARD
    )


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


def test_ruleset_construction_rejects_corrupt_rules():
    tree = _tree_from_root(Leaf(1, 3, 2), 5)
    ruleset = merge_rules(tree, [_verdict(1, Label.CHANCE)])
    with pytest.raises(NoMatchingRuleError, match="do not list each leaf"):
        RuleSet(
            feature="Gender",
            rules=(),
            threshold_mode=ThresholdMode.STATISTICAL,
            tree=tree,
            verdicts=ruleset.verdicts,
        )
    with pytest.raises(NoMatchingRuleError, match="do not list each leaf"):
        RuleSet(
            feature="Gender",
            rules=ruleset.rules + ruleset.rules,
            threshold_mode=ThresholdMode.STATISTICAL,
            tree=tree,
            verdicts=ruleset.verdicts,
        )
    tree = _tree_from_root(Internal(SplitPredicate("relation", "det"), Leaf(1, 3, 2),
                                    Leaf(2, 1, 4)), 10)
    ruleset = merge_rules(tree, [_verdict(1, Label.REQUIRED), _verdict(2, Label.CHANCE)])
    first, second = ruleset.rules
    narrowed = first._replace(constraints={**first.constraints,
                                           "relation": Constraint("in", frozenset({"obj"}))})
    with pytest.raises(NoMatchingRuleError, match="no rule matches triple .*relation='det'"):
        _rebuilt(ruleset, rules=(narrowed, second))
    widened = second._replace(constraints={**second.constraints,
                                           "relation": Constraint("not_in", frozenset())})
    with pytest.raises(NoMatchingRuleError, match="relation='det'.* matches rules 1 and 2"):
        _rebuilt(ruleset, rules=(first, widened))


def _rebuilt(ruleset, **changes):
    """A RuleSet with some of ruleset's fields changed, built and checked anew."""
    fields = {name: getattr(ruleset, name)
              for name in ("feature", "rules", "threshold_mode", "tree", "verdicts")}
    return RuleSet(**{**fields, **changes})


def _two_leaf_tree(nomatch=Leaf(2, 1, 4), training_size=10):
    return _tree_from_root(Internal(SplitPredicate("relation", "det"), Leaf(1, 3, 2), nomatch),
                           training_size)


# (change to a valid RuleSet of two one-leaf rules, error type, message), one
# per check of counts, verdicts, rule ids and labels
DISAGREEMENTS = [
    pytest.param(lambda rs: _rebuilt(rs, tree=_two_leaf_tree(Leaf(2, 1, -4), 2)),
                 InvalidRuleSetError, "a leaf of the tree has a negative count",
                 id="negative leaf count"),
    pytest.param(lambda rs: _rebuilt(rs, tree=_two_leaf_tree(training_size=9)),
                 InvalidRuleSetError,
                 "'training_size' is not 10, the sum of the tree's leaf counts",
                 id="wrong training_size"),
    pytest.param(lambda rs: RuleSet(feature="Gender", rules=rs.rules,
                                    threshold_mode=rs.threshold_mode, tree=rs.tree,
                                    verdicts=rs.verdicts[:1]),
                 VerdictMismatchError, "'leaf_verdicts' do not list each leaf of the tree once",
                 id="missing verdict"),
    pytest.param(lambda rs: _rebuilt(rs, verdicts=rs.verdicts + rs.verdicts[:1]),
                 VerdictMismatchError, "'leaf_verdicts' do not list each leaf of the tree once",
                 id="duplicate verdict"),
    pytest.param(lambda rs: _rebuilt(rs, rules=(rs.rules[0], rs.rules[1]._replace(rule_id=1))),
                 InvalidRuleSetError, "two rules share a rule_id", id="duplicate rule id"),
    pytest.param(lambda rs: _rebuilt(rs, rules=(rs.rules[0]._replace(n_agree=4), rs.rules[1])),
                 InvalidRuleSetError,
                 "rule 1: 'n_agree' and 'n_disagree' are not the sums over its source leaves",
                 id="wrong rule counts"),
    pytest.param(lambda rs: _rebuilt(rs, rules=(rs.rules[0]._replace(label=Label.CHANCE),
                                                rs.rules[1])),
                 VerdictMismatchError, "rule 1: 'label' differs from a source leaf's verdict",
                 id="wrong rule label"),
]


def test_ruleset_construction_rejects_repeated_leaf_ids():
    # once accepted, with training_size 7: the first leaf 1 and its counts vanished
    tree = _tree_from_root(
        Internal(SplitPredicate("relation", "det"), Leaf(1, 5, 0), Leaf(1, 0, 7)), 7)
    rule = LabeledRule(rule_id=1, label=Label.CHANCE,
                       constraints=dict.fromkeys(SLOT_ORDER, Constraint("not_in", frozenset())),
                       n_agree=0, n_disagree=7, source_leaf_ids=(1,))
    with pytest.raises(InvalidRuleSetError, match="two leaves of the tree have leaf_id 1"):
        RuleSet(feature="Gender", rules=(rule,), threshold_mode=ThresholdMode.STATISTICAL,
                tree=tree, verdicts=(_verdict(1, Label.CHANCE),))


@pytest.mark.parametrize("change, error, message", DISAGREEMENTS)
def test_ruleset_construction_rejects_disagreeing_counts_verdicts_and_rules(
        change, error, message):
    ruleset = merge_rules(_two_leaf_tree(), [_verdict(1, Label.REQUIRED),
                                             _verdict(2, Label.CHANCE)])
    assert len(ruleset.rules) == 2
    with pytest.raises(InvalidRuleSetError) as info:
        change(ruleset)
    assert info.type is error and str(info.value) == message


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
    """rules with one slot constraint of one rule changed: a value added or
    dropped, the mode flipped, or a random constraint put in its place."""
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
    return rules[:at] + (changed,) + rules[at + 1:]


def _check_guard_against_scan(tree, verdicts, rng):
    """On the merged rules and on single-constraint mutations of them, the
    RuleSet guard accepts exactly the rules a scan of every class of
    triples finds without gap or overlap, and routed lookups then equal
    the scan."""
    merged = merge_rules(tree, verdicts)
    for rules in [merged.rules] + [_mutated(merged.rules, rng) for _ in range(8)]:
        triples = _every_class_of_triples(tree, rules)
        partitioned = all(sum(rule_matches(r, t) for r in rules) == 1 for t in triples)
        try:
            ruleset = _rebuilt(merged, rules=rules)
        except NoMatchingRuleError:
            assert not partitioned
            continue
        assert partitioned
        found = rules_for(ruleset, triples)
        for triple in triples:
            assert found[triple] is rule_for_scanning(rules, triple)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_guard_equals_exact_scan_on_random_trees(seed, max_depth):
    rng = random.Random(seed)
    tree, verdicts = random_labeled_tree(rng, max_depth=max_depth)
    _check_guard_against_scan(tree, verdicts, rng)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_guard_equals_exact_scan_on_deep_fitted_trees(seed):
    rng = random.Random(seed)
    tree, verdicts, _ = _random_deep_fit(rng)
    _check_guard_against_scan(tree, verdicts, rng)


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
    # the bound holds where a scan would test more rules than the tree is deep
    assert most_rules_over_depth > 0
