"""Leaf labeling (hard and statistical thresholds) and rule merging.

A leaf is required-agreement evidence only when its agreement ratio beats
what the feature's value distribution would produce by chance, judged by a
chi-squared goodness-of-fit test plus an effect-size gate. Labeled leaves
are then merged into a concise rule set that partitions triple space and
induces exactly the same triple -> label function as the labeled tree.

A RuleSet keeps the tree its rules were merged from and its leaf verdicts.
Lookups route the triple through that tree and map its leaf to the rule
that lists it in source_leaf_ids, in O(depth) whatever the number of rules.
Building a RuleSet checks once that the three agree and that this routing
finds, for every possible triple, the one rule whose constraints match it.
"""
from __future__ import annotations

import enum
import math
from typing import Iterable, NamedTuple

from .errors import (EmptyMarginalsError, InvalidRuleSetError, NoMatchingRuleError,
                     VerdictMismatchError)
from .tree import SLOT_ORDER, DecisionTree, Leaf, leaf_refs, route
from .triples import FeatureDataset, Triple

# example and counterexample refs kept per rule; refs run leaf by leaf in
# merge order, and within a leaf triple by triple in order of first
# occurrence, each triple's in document order. Capping each leaf's lists
# and each merge's concatenations keeps the same first refs as capping the
# full lists once.
EXAMPLE_REFS_CAP = 100


class Label(str, enum.Enum):
    REQUIRED = "required"
    CHANCE = "chance"


class ThresholdMode(str, enum.Enum):
    HARD = "hard"
    STATISTICAL = "statistical"


class ChanceModel(NamedTuple):
    """Null model: i.i.d. feature values drawn from observed proportions.

    p_chance_exact carries p_chance as the integers (numerator,
    denominator) when the model was built from counts, so the statistic
    can be computed without rounding error.
    """

    feature: str
    value_probs: dict[str, float]
    p_chance: float
    p_chance_exact: tuple[int, int] | None = None


def chance_agreement_prob(marginals: dict[str, int], feature: str = "") -> ChanceModel:
    """Chance-agreement probability sum(q_v^2) from observed value counts.

    Computed with integer arithmetic (sum of squared counts over n^2) so
    that e.g. counts 9:1 give exactly 0.82.
    """
    if not marginals:
        raise EmptyMarginalsError("cannot build a chance model from empty counts")
    if any(c < 1 for c in marginals.values()):
        raise ValueError("marginal counts must be >= 1")
    n = sum(marginals.values())
    sum_sq = sum(c * c for c in marginals.values())
    probs = {value: count / n for value, count in sorted(marginals.items())}
    return ChanceModel(
        feature=feature,
        value_probs=probs,
        p_chance=sum_sq / (n * n),
        p_chance_exact=(sum_sq, n * n),
    )


def chi_square_survival(chi2: float) -> float:
    """P[X >= chi2] for X ~ chi-square with 1 degree of freedom."""
    if chi2 <= 0.0:
        return 1.0
    if math.isinf(chi2):
        return 0.0
    return math.erfc(math.sqrt(chi2 / 2.0))


def chi_squared_gof(
    observed: tuple[int, int], chance: ChanceModel
) -> tuple[float, float]:
    """Goodness-of-fit statistic and p-value for (disagree, agree) counts
    against the chance model's expected [1 - p_chance, p_chance] split.

    With p_chance = a/b, the two cells' sum reduces to the closed form
    (n_agree*b - n*a)^2 / (n*a*(b - a)), computed as one correctly rounded
    quotient of integers (a hand-given float p_chance is read as its
    shortest decimal), so an observation that matches the expectation
    yields exactly chi2 = 0. When an expected count is zero (p_chance of 0
    or 1), the statistic is 0 if the observation matches the degenerate
    expectation exactly and +inf (p-value 0) otherwise; a quotient beyond
    the largest float (a subnormal p_chance) rounds to +inf likewise.
    """
    o_disagree, o_agree = observed
    n = o_disagree + o_agree
    if n < 1:
        raise ValueError("observed counts must sum to >= 1")
    if chance.p_chance_exact is not None:
        a, b = chance.p_chance_exact
    else:
        # only a hand-built model gets here; extract never loads fractions
        from fractions import Fraction

        a, b = Fraction(str(chance.p_chance)).as_integer_ratio()
    deviation = o_agree * b - n * a
    scale = n * a * (b - a)
    if scale == 0:
        return (0.0, 1.0) if deviation == 0 else (math.inf, 0.0)
    try:
        chi2 = deviation * deviation / scale
    except OverflowError:
        return math.inf, 0.0
    return chi2, chi_square_survival(chi2)


def cramers_phi(chi2: float, n: int, sqrt_variant: bool = False) -> float:
    """Effect size chi2 / N of a two-category test; sqrt_variant applies
    the textbook square root instead."""
    if n < 1:
        raise ValueError("n must be >= 1")
    phi = chi2 / n
    return math.sqrt(phi) if sqrt_variant else phi


class LeafVerdict(NamedTuple):
    leaf_id: int
    label: Label
    agree_ratio: float
    chi2: float | None = None
    p_value: float | None = None
    phi_c: float | None = None


def label_leaf_hard(leaf: Leaf, threshold: float = 0.9) -> LeafVerdict:
    """Required iff the leaf's agreement ratio strictly exceeds the threshold.

    Thresholds below 0.5 are rejected: a required-agreement verdict must
    come from an agreement-majority leaf.
    """
    if not 0.5 <= threshold <= 1.0:
        raise ValueError("hard threshold must be in [0.5, 1.0]")
    ratio = leaf.agree_ratio
    label = Label.REQUIRED if ratio > threshold else Label.CHANCE
    return LeafVerdict(leaf_id=leaf.leaf_id, label=label, agree_ratio=ratio)


def label_leaf_statistical(
    leaf: Leaf,
    chance: ChanceModel,
    alpha: float = 0.01,
    phi_min: float = 0.5,
    sqrt_variant: bool = False,
) -> LeafVerdict:
    """Test an agreement-majority leaf against the chance null hypothesis.

    Required needs all of: agreement ratio above 0.5, above the chance
    probability (two-sided deviations in the disagree direction are not
    evidence of required agreement), p-value below alpha, and effect size
    above phi_min. Leaves without agreement majority are chance without
    testing.
    """
    ratio = leaf.agree_ratio
    if ratio <= 0.5:
        return LeafVerdict(leaf_id=leaf.leaf_id, label=Label.CHANCE, agree_ratio=ratio)
    chi2, p_value = chi_squared_gof((leaf.n_disagree, leaf.n_agree), chance)
    phi = cramers_phi(chi2, leaf.size, sqrt_variant)
    required = ratio > chance.p_chance and p_value < alpha and phi > phi_min
    return LeafVerdict(
        leaf_id=leaf.leaf_id,
        label=Label.REQUIRED if required else Label.CHANCE,
        agree_ratio=ratio,
        chi2=chi2,
        p_value=p_value,
        phi_c=phi,
    )


def leaf_marginals(refs: list[int], dataset: FeatureDataset) -> dict[str, int]:
    """Value counts over the head and dependent occurrences of one leaf's
    instances (its entry in leaf_refs)."""
    feature = dataset.feature
    counts: dict[str, int] = {}
    for ref in refs:
        inst = dataset.instances[ref]
        for value in (inst.head_feats[feature], inst.dep_feats[feature]):
            counts[value] = counts.get(value, 0) + 1
    return counts


# --- merged rules ---

class Constraint(NamedTuple):
    mode: str  # "in" or "not_in"
    values: frozenset[str]

    @property
    def trivial(self) -> bool:
        return self.mode == "not_in" and not self.values


_UNCONSTRAINED = Constraint("not_in", frozenset())


class LabeledRule(NamedTuple):
    rule_id: int
    label: Label
    constraints: dict[str, Constraint]  # one per slot of SLOT_ORDER
    n_agree: int
    n_disagree: int
    source_leaf_ids: tuple[int, ...]
    example_refs: tuple[tuple[str, int, int], ...] = ()
    counterexample_refs: tuple[tuple[str, int, int], ...] = ()


def _descend(state: dict[str, Constraint], slot: str, value: str,
             matched: bool) -> dict[str, Constraint]:
    """state narrowed by the test slot == value, matched or not."""
    mode, values = state[slot]
    one = frozenset({value})
    if matched:
        narrowed = Constraint("in", values & one if mode == "in" else one - values)
    else:
        narrowed = Constraint(mode, values - one if mode == "in" else values | one)
    return {**state, slot: narrowed}


def _leaf_regions(tree: DecisionTree) -> list[tuple[Leaf, dict[str, Constraint]]]:
    """Each leaf, in leaf order, with the constraint per slot that its path
    puts on the triples reaching it."""
    regions = []
    stack = [(tree.root, dict.fromkeys(SLOT_ORDER, _UNCONSTRAINED))]
    while stack:
        node, state = stack.pop()
        if isinstance(node, Leaf):
            regions.append((node, state))
            continue
        slot, value = node.predicate.slot, node.predicate.value
        stack.append((node.nomatch_child, _descend(state, slot, value, False)))
        stack.append((node.match_child, _descend(state, slot, value, True)))
    return regions


# Constraints are read as sets over a slot's vocabulary, which is
# unbounded: a not_in constraint always admits values it does not name.

def _within(a: Constraint, b: Constraint) -> bool:
    """Whether every value a admits b admits too."""
    if a.mode == "in":
        return a.values <= b.values if b.mode == "in" else a.values.isdisjoint(b.values)
    return b.mode == "not_in" and b.values <= a.values


def _disjoint(a: Constraint, b: Constraint) -> bool:
    """Whether no value is admitted by both a and b."""
    if a.mode == "in":
        return a.values.isdisjoint(b.values) if b.mode == "in" else a.values <= b.values
    return b.mode == "in" and b.values <= a.values


def _shared_triple(a: dict[str, Constraint], b: dict[str, Constraint]) -> Triple:
    """A triple both sets of slot constraints admit, given that one does:
    per slot the least value both admit, or a value neither names."""
    values = {}
    for slot in SLOT_ORDER:
        ca, cb = a[slot], b[slot]
        if ca.mode == cb.mode == "not_in":
            value = "*"
            while value in ca.values or value in cb.values:
                value += "*"
        else:
            named, other = (ca, cb) if ca.mode == "in" else (cb, ca)
            value = min(v for v in named.values if (v in other.values) == (other.mode == "in"))
        values[slot] = value
    return Triple(**values)


_COMPLEMENT = {"in": "not_in", "not_in": "in"}


def _checked_routing(
    tree: DecisionTree, verdicts: tuple[LeafVerdict, ...], rules: tuple[LabeledRule, ...]
) -> dict[int, LabeledRule]:
    """Each leaf id of the tree mapped to the rule that lists it, once it is
    checked that the three agree; else an InvalidRuleSetError.

    The checks, in order: leaf ids are distinct; leaf counts are at least 0
    and sum to the tree's training_size; the verdicts, then the rules'
    source_leaf_ids, list each leaf once; rule ids are distinct; each rule's
    counts and label are its source leaves' sums and verdict; every triple
    that reaches a leaf matches the leaf's rule, so no triple is left
    without a rule; no two rules share a triple.
    """
    regions = _leaf_regions(tree)
    leaf_by_id: dict[int, Leaf] = {}
    for leaf, _ in regions:
        if leaf.leaf_id in leaf_by_id:
            raise InvalidRuleSetError(f"two leaves of the tree have leaf_id {leaf.leaf_id}")
        leaf_by_id[leaf.leaf_id] = leaf
    if any(leaf.n_agree < 0 or leaf.n_disagree < 0 for leaf in leaf_by_id.values()):
        raise InvalidRuleSetError("a leaf of the tree has a negative count")
    total = sum(leaf.size for leaf in leaf_by_id.values())
    if tree.training_size != total:
        raise InvalidRuleSetError(
            f"'training_size' is not {total}, the sum of the tree's leaf counts"
        )
    label_by_leaf = {verdict.leaf_id: verdict.label for verdict in verdicts}
    if len(label_by_leaf) != len(verdicts) or label_by_leaf.keys() != leaf_by_id.keys():
        raise VerdictMismatchError("'leaf_verdicts' do not list each leaf of the tree once")
    rule_by_leaf = {leaf_id: rule for rule in rules for leaf_id in rule.source_leaf_ids}
    if (len(rule_by_leaf) != sum(len(rule.source_leaf_ids) for rule in rules)
            or rule_by_leaf.keys() != leaf_by_id.keys()):
        raise NoMatchingRuleError("'source_leaf_ids' do not list each leaf of the tree once")
    if len({rule.rule_id for rule in rules}) != len(rules):
        raise InvalidRuleSetError("two rules share a rule_id")
    for rule in rules:
        sources = [leaf_by_id[leaf_id] for leaf_id in rule.source_leaf_ids]
        if (rule.n_agree != sum(leaf.n_agree for leaf in sources)
                or rule.n_disagree != sum(leaf.n_disagree for leaf in sources)):
            raise InvalidRuleSetError(
                f"rule {rule.rule_id}: 'n_agree' and 'n_disagree' are not the sums "
                "over its source leaves"
            )
        if any(label_by_leaf[leaf_id] != rule.label for leaf_id in rule.source_leaf_ids):
            raise VerdictMismatchError(
                f"rule {rule.rule_id}: 'label' differs from a source leaf's verdict"
            )
    for leaf, region in regions:
        if any(c.mode == "in" and not c.values for c in region.values()):
            continue  # a dead branch: no triple reaches the leaf
        rule = rule_by_leaf[leaf.leaf_id]
        for slot in SLOT_ORDER:
            constraint = rule.constraints[slot]
            if not _within(region[slot], constraint):
                outside = Constraint(_COMPLEMENT[constraint.mode], constraint.values)
                raise NoMatchingRuleError(
                    f"no rule matches triple {_shared_triple(region, {**region, slot: outside})}"
                    f" through leaf {leaf.leaf_id}: the leaf's rule {rule.rule_id} excludes it"
                )
    by_slot = [[rule.constraints[slot] for slot in SLOT_ORDER] for rule in rules]
    for i, a in enumerate(rules):
        for j in range(i + 1, len(rules)):
            if not any(map(_disjoint, by_slot[i], by_slot[j])):
                b = rules[j]
                raise NoMatchingRuleError(
                    f"triple {_shared_triple(a.constraints, b.constraints)} "
                    f"matches rules {a.rule_id} and {b.rule_id}"
                )
    return rule_by_leaf


class RuleSet:
    """Labeled rules, the tree they were merged from and its leaf verdicts.

    Construction raises an InvalidRuleSetError (see _checked_routing) unless
    the three agree and routing any triple, seen or unseen, through the tree
    reaches the only rule matching it. Treated as read-only once built; a
    changed copy is built with the constructor, which checks it again.
    """

    __slots__ = ("feature", "rules", "threshold_mode", "tree", "verdicts", "_rule_by_leaf")

    def __init__(self, feature: str, rules: tuple[LabeledRule, ...],
                 threshold_mode: ThresholdMode, tree: DecisionTree,
                 verdicts: tuple[LeafVerdict, ...]):
        self.feature = feature
        self.rules = rules
        self.threshold_mode = threshold_mode
        self.tree = tree
        self.verdicts = verdicts
        self._rule_by_leaf = _checked_routing(tree, verdicts, rules)

    def _key(self) -> tuple:
        return self.feature, self.rules, self.threshold_mode, self.tree, self.verdicts

    def __eq__(self, other):
        if other.__class__ is not RuleSet:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return ("RuleSet(feature={!r}, rules={!r}, threshold_mode={!r}, tree={!r}, "
                "verdicts={!r})".format(*self._key()))

    @property
    def training_size(self) -> int:
        return self.tree.training_size


def _leaf_rules(
    tree: DecisionTree,
    label_by_leaf: dict[int, Label],
    dataset: FeatureDataset | None,
) -> list[LabeledRule]:
    """One rule per leaf, in leaf order, with its path's constraints and its label or None."""
    rules: list[LabeledRule] = []
    refs_by_leaf = leaf_refs(tree, dataset) if dataset is not None else {}
    for leaf, region in _leaf_regions(tree):
        examples: list[tuple[str, int, int]] = []
        counters: list[tuple[str, int, int]] = []
        for ref in refs_by_leaf.get(leaf.leaf_id, ()):
            kept = examples if dataset.agree[ref] else counters
            if len(kept) < EXAMPLE_REFS_CAP:
                kept.append(dataset.instances[ref].provenance)
            elif len(examples) == len(counters) == EXAMPLE_REFS_CAP:
                break
        rules.append(
            LabeledRule(
                rule_id=0,
                label=label_by_leaf.get(leaf.leaf_id),
                constraints=region,
                n_agree=leaf.n_agree,
                n_disagree=leaf.n_disagree,
                source_leaf_ids=(leaf.leaf_id,),
                example_refs=tuple(examples),
                counterexample_refs=tuple(counters),
            )
        )
    return rules


def _try_merge(a: LabeledRule, b: LabeledRule) -> LabeledRule | None:
    if a.label != b.label:
        return None
    diff = [s for s in SLOT_ORDER if a.constraints[s] != b.constraints[s]]
    if len(diff) != 1:
        return None
    slot = diff[0]
    ca, cb = a.constraints[slot], b.constraints[slot]
    if ca.mode == "in" and cb.mode == "in":
        merged = Constraint("in", ca.values | cb.values)
    elif ca.mode == "in" and cb.mode == "not_in" and ca.values <= cb.values:
        merged = Constraint("not_in", cb.values - ca.values)
    elif cb.mode == "in" and ca.mode == "not_in" and cb.values <= ca.values:
        merged = Constraint("not_in", ca.values - cb.values)
    else:
        return None
    constraints = dict(a.constraints)
    constraints[slot] = merged
    return LabeledRule(
        rule_id=0,
        label=a.label,
        constraints=constraints,
        n_agree=a.n_agree + b.n_agree,
        n_disagree=a.n_disagree + b.n_disagree,
        source_leaf_ids=tuple(sorted(a.source_leaf_ids + b.source_leaf_ids)),
        example_refs=(a.example_refs + b.example_refs)[:EXAMPLE_REFS_CAP],
        counterexample_refs=(a.counterexample_refs + b.counterexample_refs)[:EXAMPLE_REFS_CAP],
    )


def _merge_to_fixpoint(rules: list[LabeledRule]) -> list[LabeledRule]:
    """Merge the first mergeable pair (i, j), i < j in leaf order, until no
    pair merges.

    A merge keeps rule i's first leaf and deletes j, so the list stays in
    leaf order. _try_merge depends only on its two rules, and every pair of
    rules before i has already failed, so after rule i grows only the pairs
    (p, i) with p < i and then row i can hold the next first pair.
    """
    rules = sorted(rules, key=lambda r: r.source_leaf_ids[0])
    i = 0
    while i < len(rules):
        for j in range(i + 1, len(rules)):
            merged = _try_merge(rules[i], rules[j])
            if merged is not None:
                break
        else:
            i += 1
            continue
        rules[i] = merged
        del rules[j]
        p = 0
        while p < i:
            merged = _try_merge(rules[p], rules[i])
            if merged is None:
                p += 1
                continue
            rules[p] = merged
            del rules[i]
            i, p = p, 0
    return rules


def merge_rules(
    tree: DecisionTree,
    verdicts: list[LeafVerdict],
    dataset: FeatureDataset | None = None,
    threshold_mode: ThresholdMode = ThresholdMode.STATISTICAL,
) -> RuleSet:
    """Collapse the labeled tree into a minimal-by-pairwise-merging rule set.

    Sibling leaves with one label fold into their parent's path constraint,
    uniform subtrees collapse entirely, and single-value rules that differ
    in one slot union their value sets. The resulting rules partition
    triple space and preserve the labeled tree's triple -> label function.
    Passing the training dataset fills per-rule example provenance, at most
    EXAMPLE_REFS_CAP refs per list.
    """
    merged = _merge_to_fixpoint(_leaf_rules(tree, {v.leaf_id: v.label for v in verdicts}, dataset))
    return RuleSet(
        feature=tree.feature,
        rules=tuple(r._replace(rule_id=idx) for idx, r in enumerate(merged, start=1)),
        threshold_mode=threshold_mode,
        tree=tree,
        verdicts=tuple(verdicts),
    )


def rules_for(ruleset: RuleSet, triples: Iterable[Triple]) -> dict[Triple, LabeledRule]:
    """Each of the triples mapped to the rule of the tree leaf it routes to,
    the batch routed at once; building the RuleSet checked that it is the
    only rule matching the triple."""
    rule_by_leaf = ruleset._rule_by_leaf
    return {
        triple: rule_by_leaf[leaf_id]
        for triple, leaf_id in route(ruleset.tree, triples).items()
    }


def label_triple(ruleset: RuleSet, triple: Triple) -> Label:
    """Label of the unique rule matching the triple (see rules_for)."""
    return rules_for(ruleset, (triple,))[triple].label
