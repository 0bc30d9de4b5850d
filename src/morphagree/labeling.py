"""Leaf labeling (hard and statistical thresholds) and rule merging.

A leaf is required-agreement evidence only when its agreement ratio beats
what the feature's value distribution would produce by chance, judged by a
chi-squared goodness-of-fit test plus an effect-size gate. Labeled leaves
are then merged into a concise rule set that partitions triple space and
induces exactly the same triple -> label function as the labeled tree.
A rule has one constraint per slot: "in" admits exactly its values, and
"not_in" every other value, values no corpus has shown included.

A RegionTable routes triples to regions, one per item, that partition
triple space: per slot, each value some region names maps to the bitmask
of the items whose region admits it, and one mask serves every value no
region names. ANDing a triple's three masks leaves one bit, that of its
item, so a lookup is three dict gets however many items there are.
A RuleSet is built one way, by merging a tree's labeled leaves, once the
tree and its leaf verdicts are checked to agree; it keeps the tree, the
verdicts and the table of its rules, in which a triple's one rule is
looked up. A tree's table, RegionTable.of(tree), routes the training
triple groups to their leaves for per-leaf marginals and, once merging is
done, example refs.
"""
from __future__ import annotations

import enum
import math
from itertools import chain, islice
from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyMarginalsError, InvalidRuleSetError, VerdictMismatchError
from .tree import SLOT_ORDER, DecisionTree, Leaf
from .triples import FeatureDataset, Triple, TripleGroup

# example and counterexample refs kept per rule: the first of its agreeing
# and of its disagreeing instances, leaf by leaf in merge order, and within
# a leaf triple by triple in order of first occurrence, each triple's in
# document order
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
    can be computed without rounding error; without it, p_chance is read
    at its exact binary value.
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

    With p_chance = a/b (p_chance_exact, else the float's exact binary
    value), the two cells' sum reduces to the closed form
    (n_agree*b - n*a)^2 / (n*a*(b - a)), computed as one correctly rounded
    quotient of integers, so an observation that matches the expectation
    yields exactly chi2 = 0. When an expected count is zero (p_chance of 0
    or 1), the statistic is 0 if the observation matches the degenerate
    expectation exactly and +inf (p-value 0) otherwise; a quotient beyond
    the largest float (a subnormal p_chance) rounds to +inf likewise.
    """
    o_disagree, o_agree = observed
    n = o_disagree + o_agree
    if n < 1:
        raise ValueError("observed counts must sum to >= 1")
    a, b = chance.p_chance_exact or chance.p_chance.as_integer_ratio()
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


class Bounds(NamedTuple):
    """The numbers in [low, high], or in (low, high] if low_open."""

    low: float
    high: float
    low_open: bool = False

    def holds(self, value: float) -> bool:
        return self.low < value <= self.high or value == self.low and not self.low_open

    def __str__(self) -> str:
        return f"{'(' if self.low_open else '['}{self.low:g}, {self.high:g}]"


# each labeling param's bounds: the CLI takes it, and the rules loader reads
# it, only within them
GATE_BOUNDS = {"hard_threshold": Bounds(0.5, 1), "alpha": Bounds(0, 1, low_open=True),
               "phi_min": Bounds(0, 1)}


def label_leaf_hard(leaf: Leaf, threshold: float = 0.9) -> LeafVerdict:
    """Required iff the leaf's agreement ratio strictly exceeds the threshold.

    Thresholds below 0.5 are rejected: a required-agreement verdict must
    come from an agreement-majority leaf.
    """
    if not GATE_BOUNDS["hard_threshold"].holds(threshold):
        raise ValueError(f"hard threshold must be in {GATE_BOUNDS['hard_threshold']}")
    ratio = leaf.agree_ratio
    label = Label.REQUIRED if ratio > threshold else Label.CHANCE
    return LeafVerdict(leaf_id=leaf.leaf_id, label=label, agree_ratio=ratio)


def label_leaf_statistical(leaf: Leaf, chance: ChanceModel, alpha: float = 0.01,
                           phi_min: float = 0.5, sqrt_variant: bool = False) -> LeafVerdict:
    """Test the leaf against the chance null hypothesis: gated_verdict of
    its counts' chi_squared_gof statistic under the chance model."""
    chi2 = chi_squared_gof((leaf.n_disagree, leaf.n_agree), chance)[0]
    return gated_verdict(leaf, chi2, chance.p_chance, alpha, phi_min, sqrt_variant)


def gated_verdict(leaf: Leaf, chi2: float, p_chance: float | None, alpha: float,
                  phi_min: float, sqrt_variant: bool) -> LeafVerdict:
    """The verdict of a leaf whose statistic is chi2. Required needs all
    four gates: agree ratio above 0.5 (else the leaf is chance untested,
    without statistics, whatever chi2), agree ratio above p_chance (None
    passes; deviations in the disagree direction are not evidence of
    required agreement), p-value below alpha and effect size above phi_min."""
    ratio = leaf.agree_ratio
    if ratio <= 0.5:
        return LeafVerdict(leaf_id=leaf.leaf_id, label=Label.CHANCE, agree_ratio=ratio)
    p_value = chi_square_survival(chi2)
    phi = cramers_phi(chi2, leaf.size, sqrt_variant)
    required = (p_chance is None or ratio > p_chance) and p_value < alpha and phi > phi_min
    return LeafVerdict(
        leaf_id=leaf.leaf_id,
        label=Label.REQUIRED if required else Label.CHANCE,
        agree_ratio=ratio,
        chi2=chi2,
        p_value=p_value,
        phi_c=phi,
    )


def leaf_marginals(groups: list[TripleGroup], dataset: FeatureDataset) -> dict[str, int]:
    """Value counts over the head and dependent occurrences of one leaf's
    instances, those of its triple groups (its entry in RegionTable.groups)."""
    feature = dataset.feature
    counts: dict[str, int] = {}
    for group in groups:
        for ref in (*group.agreeing, *group.disagreeing):
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


class LabeledRule(NamedTuple):
    rule_id: int
    label: Label
    constraints: dict[str, Constraint]  # one per slot of SLOT_ORDER
    n_agree: int
    n_disagree: int
    source_leaf_ids: tuple[int, ...]
    example_refs: tuple[tuple[str, int, int], ...] = ()
    counterexample_refs: tuple[tuple[str, int, int], ...] = ()


# The constraint algebra, on constraints read as sets of values. Narrowing
# a path and merged slots are built from these three; only _meet and
# _disjoint look at two constraints' modes.

def _meet(a: Constraint, b: Constraint) -> Constraint:
    """The values both a and b admit."""
    if a.mode == b.mode:
        return Constraint(a.mode, a.values & b.values if a.mode == "in" else a.values | b.values)
    named, excluded = (a, b) if a.mode == "in" else (b, a)
    return Constraint("in", named.values - excluded.values)


def _complement(c: Constraint) -> Constraint:
    """The values c does not admit."""
    return Constraint("not_in" if c.mode == "in" else "in", c.values)


def _disjoint(a: Constraint, b: Constraint) -> bool:
    """Whether no value is admitted by both a and b: _meet(a, b) is empty."""
    if a.mode == "in":
        return a.values.isdisjoint(b.values) if b.mode == "in" else a.values <= b.values
    return b.mode == "in" and b.values <= a.values


def _leaf_regions(tree: DecisionTree) -> list[tuple[Leaf, dict[str, Constraint]]]:
    """Each leaf, in leaf order, with the constraint per slot that its path
    puts on the triples reaching it."""
    regions = []
    stack = [(tree.root, dict.fromkeys(SLOT_ORDER, Constraint("not_in", frozenset())))]
    while stack:
        node, state = stack.pop()
        if isinstance(node, Leaf):
            regions.append((node, state))
            continue
        slot, value = node.predicate.slot, node.predicate.value
        if slot not in state:
            raise InvalidRuleSetError(f"split slot {slot!r} is not one of {', '.join(SLOT_ORDER)}")
        one = Constraint("in", frozenset({value}))
        stack.append((node.nomatch_child, {**state, slot: _meet(state[slot], _complement(one))}))
        stack.append((node.match_child, {**state, slot: _meet(state[slot], one)}))
    return regions


class RegionTable:
    """A batch router over regions (see the module docstring): the items in
    order and, per slot of SLOT_ORDER, the mask of the items whose region
    admits each value some region names and the mask of those admitting the
    values none names. Bit k stands for the k-th item. A region with an "in"
    constraint on no value (a dead-branch leaf's) admits no triple, so its
    item is in none of that slot's masks and no AND of a triple's masks
    keeps it."""

    __slots__ = ("items", "masks", "others")

    def __init__(self, regions: list[tuple[object, dict[str, Constraint]]]):
        """The table of the items, each given with its region, a constraint
        per slot."""
        self.items = tuple(item for item, _ in regions)
        masks: list[dict[str, int]] = []
        others: list[int] = []
        for slot in SLOT_ORDER:
            # per value, the items naming it in an "in" and in a "not_in"
            admitted: dict[str, int] = {}
            excluded: dict[str, int] = {}
            other = 0
            for k, (_, region) in enumerate(regions):
                bit = 1 << k
                mode, values = region[slot]
                if mode == "in":
                    for value in values:
                        admitted[value] = admitted.get(value, 0) | bit
                else:
                    other |= bit
                    for value in values:
                        excluded[value] = excluded.get(value, 0) | bit
            masks.append({value: admitted.get(value, 0) | (other & ~excluded.get(value, 0))
                          for value in admitted.keys() | excluded.keys()})
            others.append(other)
        self.masks = tuple(masks)
        self.others = tuple(others)

    @classmethod
    def of(cls, tree: DecisionTree) -> "RegionTable":
        """The table of the tree's leaves, in leaf order, and their regions."""
        return cls(_leaf_regions(tree))

    def lookup(self, triples: Iterable[Triple], at: Sequence) -> dict:
        """Each of the triples, seen or unseen, mapped to at[k], where the
        k-th item's region is the one admitting it."""
        (relation, head_pos, dep_pos), (other_r, other_h, other_d) = self.masks, self.others
        return {
            t: at[(relation.get(t.relation, other_r) & head_pos.get(t.head_pos, other_h)
                   & dep_pos.get(t.dep_pos, other_d)).bit_length() - 1]
            for t in triples
        }

    def groups(self, dataset: FeatureDataset) -> list[list[TripleGroup]]:
        """Per item, in order, the dataset's triple groups whose triple its
        region admits, in the order of the dataset's triple table."""
        groups: list[list[TripleGroup]] = [[] for _ in self.items]
        item_of = self.lookup(dataset.triples, range(len(self.items)))
        for k, group in zip(item_of.values(), dataset.triples.values()):
            groups[k].append(group)
        return groups


def _leaf_rules(
    regions: list[tuple[Leaf, dict[str, Constraint]]],
    label_by_leaf: dict[int, Label],
) -> list[LabeledRule]:
    """One rule per leaf of a tree, in leaf order, with its path's
    constraints (its region in regions, the tree's _leaf_regions), its
    label or None and its counts; no example refs."""
    return [
        LabeledRule(
            rule_id=0,
            label=label_by_leaf.get(leaf.leaf_id),
            constraints=region,
            n_agree=leaf.n_agree,
            n_disagree=leaf.n_disagree,
            source_leaf_ids=(leaf.leaf_id,),
        )
        for leaf, region in regions
    ]


def _try_merge(a: LabeledRule, b: LabeledRule) -> LabeledRule | None:
    if a.label != b.label:
        return None
    diff = [s for s in SLOT_ORDER if a.constraints[s] != b.constraints[s]]
    if len(diff) != 1:
        return None
    slot = diff[0]
    ca, cb = a.constraints[slot], b.constraints[slot]
    union = _complement(_meet(_complement(ca), _complement(cb)))
    # both in (the union is in too), or no value in common
    if union.mode == "not_in" and not _disjoint(ca, cb):
        return None
    constraints = dict(a.constraints)
    constraints[slot] = union
    return LabeledRule(
        rule_id=0,
        label=a.label,
        constraints=constraints,
        n_agree=a.n_agree + b.n_agree,
        n_disagree=a.n_disagree + b.n_disagree,
        source_leaf_ids=a.source_leaf_ids + b.source_leaf_ids,
    )


def _signatures(rule: LabeledRule) -> list[tuple]:
    """The rule's signature for each slot: the slot, the rule's label and
    its constraints on the other slots. _try_merge merges only rules with
    one label that differ in one slot, so such rules share that slot's
    signature."""
    constraints = [rule.constraints[slot] for slot in SLOT_ORDER]
    return [(k, rule.label, *constraints[:k], *constraints[k + 1:])
            for k in range(len(constraints))]


class _SignatureIndex:
    """Rules by key, and the keys that hold each signature."""

    __slots__ = ("rule_at", "_signatures_at", "_holders")

    def __init__(self, rules: list[LabeledRule]):
        self.rule_at: dict[int, LabeledRule] = {}
        self._signatures_at: dict[int, list[tuple]] = {}
        self._holders: dict[tuple, set[int]] = {}
        for key, rule in enumerate(rules):
            self._add(key, rule)

    def _add(self, key: int, rule: LabeledRule) -> None:
        self.rule_at[key] = rule
        signatures = self._signatures_at[key] = _signatures(rule)
        for signature in signatures:
            self._holders.setdefault(signature, set()).add(key)

    def partners(self, key: int, later: bool) -> list[int]:
        """The keys after key (later) or before it that share one of its
        rule's signatures, in ascending order."""
        holders = self._holders
        return sorted({k for signature in self._signatures_at[key] for k in holders[signature]
                       if (k > key if later else k < key)})

    def unite(self, kept: int, dropped: int, merged: LabeledRule) -> None:
        """Put merged at key kept, in place of the rules at kept and dropped."""
        for key in (kept, dropped):
            del self.rule_at[key]
            for signature in self._signatures_at.pop(key):
                self._holders[signature].discard(key)
        self._add(kept, merged)


def _merge_to_fixpoint(rules: list[LabeledRule]) -> list[LabeledRule]:
    """Merge the first mergeable pair (i, j), i < j in leaf order, until no
    pair merges.

    Each rule is keyed by its rank in leaf order. A merge keeps rule i's key
    and drops j's, so key order stays leaf order. _try_merge depends only on
    its two rules, and every pair of rules before i has already failed, so
    after rule i grows only the pairs (p, i) with p < i and then row i can
    hold the next first pair. Only rules that share a signature (see
    _signatures) can merge, so rule i is tried only against the keys that
    hold one of its signatures, in ascending order: first the later ones,
    and after a merge the earlier ones, again from the kept rule while one
    merges. Every pair left out would fail, so the merges come in the same
    sequence as in a scan of all pairs, and the work grows with the merges
    made, not with the pairs of rules.
    """
    index = _SignatureIndex(sorted(rules, key=lambda r: r.source_leaf_ids[0]))
    rule_at, end = index.rule_at, len(rules)
    i = 0
    while i < end:
        for j in index.partners(i, later=True):
            merged = _try_merge(rule_at[i], rule_at[j])
            if merged is not None:
                break
        else:
            i += 1
            while i < end and i not in rule_at:
                i += 1
            continue
        index.unite(i, j, merged)
        moved = True
        while moved:
            moved = False
            for p in index.partners(i, later=False):
                merged = _try_merge(rule_at[p], rule_at[i])
                if merged is not None:
                    index.unite(p, i, merged)
                    i, moved = p, True
                    break
    return [rule_at[key] for key in sorted(rule_at)]


def _first_refs(leaf_ids: tuple[int, ...], groups_of: dict, side: str, instances) -> tuple:
    """The provenance of the first EXAMPLE_REFS_CAP instances in the side
    list ("agreeing" or "disagreeing") of the leaves' triple groups, in order."""
    refs = chain.from_iterable(getattr(group, side) for leaf in leaf_ids
                               for group in groups_of[leaf])
    return tuple(instances[ref].provenance for ref in islice(refs, EXAMPLE_REFS_CAP))


def _checked_labels(
    tree: DecisionTree,
    regions: list[tuple[Leaf, dict[str, Constraint]]],
    verdicts: tuple[LeafVerdict, ...],
) -> dict[int, Label]:
    """Each leaf's verdict label by leaf id, once it is checked that the
    tree (its _leaf_regions given) and its verdicts agree: leaf ids are
    distinct, leaf counts are at least 0 and sum to the tree's
    training_size, and the verdicts list each leaf once; else an
    InvalidRuleSetError."""
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
    return label_by_leaf


class RuleSet:
    """The rules merged from a tree's labeled leaves, the tree and its leaf
    verdicts.

    Built from the tree and the verdicts alone (see merge_rules), so its
    rules partition triple space and the RegionTable of its rules finds
    each triple's one rule. Construction raises an InvalidRuleSetError
    unless every split tests a slot of SLOT_ORDER and the tree and the
    verdicts agree (see _checked_labels). Given the training dataset, each
    rule gets its example refs. Treated as read-only once built.
    """

    __slots__ = ("feature", "rules", "threshold_mode", "tree", "verdicts", "_table")

    def __init__(self, tree: DecisionTree, verdicts: Iterable[LeafVerdict],
                 threshold_mode: ThresholdMode = ThresholdMode.STATISTICAL,
                 dataset: FeatureDataset | None = None):
        regions = _leaf_regions(tree)  # first, so that an unknown slot fails here
        verdicts = tuple(verdicts)
        merged = _merge_to_fixpoint(_leaf_rules(regions, _checked_labels(tree, regions, verdicts)))
        groups = [()] * len(regions) if dataset is None else RegionTable(regions).groups(dataset)
        groups_of = {leaf.leaf_id: leaf_groups for (leaf, _), leaf_groups in zip(regions, groups)}
        instances = () if dataset is None else dataset.instances
        self.feature = tree.feature
        self.rules = tuple(
            rule._replace(
                rule_id=rule_id,
                source_leaf_ids=tuple(sorted(rule.source_leaf_ids)),
                example_refs=_first_refs(rule.source_leaf_ids, groups_of, "agreeing", instances),
                counterexample_refs=_first_refs(
                    rule.source_leaf_ids, groups_of, "disagreeing", instances),
            )
            for rule_id, rule in enumerate(merged, start=1)
        )
        self.threshold_mode = threshold_mode
        self.tree = tree
        self.verdicts = verdicts
        self._table = RegionTable([(rule, rule.constraints) for rule in self.rules])

    def _key(self) -> tuple:
        return self.feature, self.rules, self.threshold_mode, self.tree, self.verdicts

    def __eq__(self, other):
        if other.__class__ is not RuleSet:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return ("<RuleSet feature={!r} rules={!r} threshold_mode={!r} tree={!r} "
                "verdicts={!r}>".format(*self._key()))

    @property
    def training_size(self) -> int:
        return self.tree.training_size


def merge_rules(
    tree: DecisionTree,
    verdicts: list[LeafVerdict],
    dataset: FeatureDataset | None = None,
    threshold_mode: ThresholdMode = ThresholdMode.STATISTICAL,
) -> RuleSet:
    """Collapse the labeled tree into a minimal-by-pairwise-merging rule set.

    Each leaf starts as a rule with its path's constraints. Two rules merge
    when they have one label and differ in one slot only, where either both
    constraints are "in" or no value is admitted by both; the merged slot
    admits the values either admits. So sibling leaves with one label fold
    into their parent's path constraint and uniform subtrees collapse. The
    first mergeable pair in leaf order merges first; partners are looked up
    by signature (see _merge_to_fixpoint), so the work grows with the merges
    made, not with the pairs of rules. The resulting rules partition triple
    space and preserve the labeled tree's triple -> label function. Passing
    the training dataset fills each merged rule's example refs once: its
    source leaves' agreeing and disagreeing instances (see EXAMPLE_REFS_CAP),
    as the tree's RegionTable routes the dataset's triple groups.

    This is RuleSet(tree, verdicts, threshold_mode, dataset). The rules
    loader calls the constructor, so that a tracer of merge_rules counts
    extraction's merges only.
    """
    return RuleSet(tree, verdicts, threshold_mode, dataset)


def rules_for(ruleset: RuleSet, triples: Iterable[Triple]) -> dict[Triple, LabeledRule]:
    """Each of the triples mapped to the one rule matching it, looked up in
    the RegionTable of the RuleSet's rules, which were merged to match
    every triple exactly once."""
    return ruleset._table.lookup(triples, ruleset.rules)


def label_triple(ruleset: RuleSet, triple: Triple) -> Label:
    """Label of the unique rule matching the triple (see rules_for)."""
    return rules_for(ruleset, (triple,))[triple].label
