"""Greedy binary CART induction over categorical triple slots.

Splits are one-vs-rest predicates ("slot == value" vs "slot != value"),
mirroring one-hot treatment of categorical inputs. Induction is fully
deterministic: candidate splits are scored in slot order (relation,
head_pos, dep_pos) then lexicographic value order, and the first maximal
impurity decrease wins. The seed passed to grid_search only shuffles
cross-validation folds.

Depth nesting: for a fixed criterion and min_impurity_decrease, the split
chosen at a node depends only on the groups reaching it; max_depth only
stops growth. So the tree fitted with max_depth d is the tree fitted with
any larger max_depth cut at depth d, each cut node frozen as a leaf over
its own groups, which gives the same leaf ids and counts. grid_search
relies on this for growth and for scoring: per criterion (and per
cross-validation fold) it grows one tree at the grid's largest depth,
routes the scored groups through that grown tree once, and scores every
grid point from the held-out totals of the nodes its cut makes leaves.
Only the winning point is frozen.

Routing is by partition: route splits a batch of triples once per
internal node it reaches, as growth splits groups, so no triple walks the
tree on its own. Leaves hold counts only; leaf_refs recovers the
instances of each leaf of one chosen tree by routing the dataset's
triples through it.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import EmptyDatasetError
from .triples import FeatureDataset, Triple, TripleGroup


# a slot is the name of the Triple field a predicate or constraint tests;
# this order breaks ties in split search
SLOT_ORDER = ("relation", "head_pos", "dep_pos")


@dataclass(frozen=True)
class SplitPredicate:
    slot: str  # one of SLOT_ORDER
    value: str


@dataclass(frozen=True)
class Leaf:
    leaf_id: int
    n_agree: int
    n_disagree: int

    @property
    def size(self) -> int:
        return self.n_agree + self.n_disagree

    @property
    def agree_ratio(self) -> float:
        return self.n_agree / self.size


@dataclass(frozen=True)
class Internal:
    predicate: SplitPredicate
    match_child: "TreeNode"
    nomatch_child: "TreeNode"


TreeNode = Leaf | Internal


@dataclass(frozen=True)
class HyperParams:
    criterion: str = "gini"  # "gini" or "entropy"
    max_depth: int = 6
    min_impurity_decrease: float = 1e-3


@dataclass(frozen=True)
class HyperGrid:
    criteria: tuple[str, ...] = ("gini", "entropy")
    max_depths: tuple[int, ...] = (6, 15)
    min_impurity_decrease: float = 1e-3

    def points(self) -> list[HyperParams]:
        return [
            HyperParams(criterion=c, max_depth=d,
                        min_impurity_decrease=self.min_impurity_decrease)
            for c in self.criteria
            for d in self.max_depths
        ]


DEFAULT_GRID = HyperGrid()


@dataclass(frozen=True)
class DecisionTree:
    feature: str
    root: TreeNode
    hyperparams: HyperParams
    training_size: int


def _gini(n_agree: int, n_disagree: int) -> float:
    n = n_agree + n_disagree
    if n == 0:
        return 0.0
    p = n_agree / n
    return 2.0 * p * (1.0 - p)


def _entropy(n_agree: int, n_disagree: int) -> float:
    n = n_agree + n_disagree
    h = 0.0
    for c in (n_disagree, n_agree):
        if c:
            p = c / n
            h -= p * math.log2(p)
    return h


_IMPURITY = {"gini": _gini, "entropy": _entropy}


class _Node:
    """A grown node: its depth and totals and, unless growth stopped here,
    its split as (predicate, match child, nomatch child)."""

    __slots__ = ("depth", "n_agree", "n_disagree", "split")

    def __init__(self, depth: int, n_agree: int, n_disagree: int):
        self.depth = depth
        self.n_agree = n_agree
        self.n_disagree = n_disagree
        self.split: tuple[SplitPredicate, _Node, _Node] | None = None


def _best_split(
    groups: list[TripleGroup], node_agree: int, node_disagree: int, impurity, n_total: int
) -> tuple[SplitPredicate, float, int, int] | None:
    """The first split of maximal impurity decrease: its predicate, the
    decrease and the match side's (agree, disagree) totals."""
    n_node = node_agree + node_disagree
    node_impurity = impurity(node_agree, node_disagree)
    best: tuple[SplitPredicate, float, int, int] | None = None
    for slot in SLOT_ORDER:
        per_value: dict[str, list[int]] = {}
        for g in groups:
            key = getattr(g.triple, slot)
            counts = per_value.get(key)
            if counts is None:
                counts = per_value[key] = [0, 0]
            counts[0] += g.n_agree
            counts[1] += g.n_disagree
        for value in sorted(per_value):
            m_agree, m_disagree = per_value[value]
            n_match = m_agree + m_disagree
            n_nomatch = n_node - n_match
            if n_match == 0 or n_nomatch == 0:
                continue
            child_impurity = (
                n_match * impurity(m_agree, m_disagree)
                + n_nomatch * impurity(node_agree - m_agree, node_disagree - m_disagree)
            ) / n_node
            delta = (n_node / n_total) * (node_impurity - child_impurity)
            if best is None or delta > best[1]:
                best = (SplitPredicate(slot, value), delta, m_agree, m_disagree)
    return best


def _partition(
    groups: list[TripleGroup], predicate: SplitPredicate
) -> tuple[list[TripleGroup], list[TripleGroup]]:
    """The groups whose triple matches the predicate, and the rest."""
    slot, value = predicate.slot, predicate.value
    match: list[TripleGroup] = []
    nomatch: list[TripleGroup] = []
    for g in groups:
        (match if getattr(g.triple, slot) == value else nomatch).append(g)
    return match, nomatch


def _grow(
    groups: list[TripleGroup],
    n_agree: int,
    n_disagree: int,
    depth: int,
    max_depth: int,
    min_impurity_decrease: float,
    impurity,
    n_total: int,
) -> _Node:
    """Grow from the groups reaching a node, whose totals the caller passes:
    the root's are summed, each child's come from its parent's chosen split."""
    node = _Node(depth, n_agree, n_disagree)
    if n_agree == 0 or n_disagree == 0 or depth >= max_depth or len(groups) == 1:
        return node
    best = _best_split(groups, n_agree, n_disagree, impurity, n_total)
    if best is None or best[1] < min_impurity_decrease:
        return node
    predicate, _, m_agree, m_disagree = best
    match, nomatch = _partition(groups, predicate)
    node.split = (
        predicate,
        _grow(match, m_agree, m_disagree, depth + 1, max_depth,
              min_impurity_decrease, impurity, n_total),
        _grow(nomatch, n_agree - m_agree, n_disagree - m_disagree, depth + 1, max_depth,
              min_impurity_decrease, impurity, n_total),
    )
    return node


def _freeze(node: _Node, max_depth: int, counter: list[int]) -> TreeNode:
    """The grown tree cut at max_depth; a cut node becomes a leaf with its
    totals. Leaf ids count up in match-before-nomatch preorder."""
    if node.split is None or node.depth >= max_depth:
        counter[0] += 1
        return Leaf(leaf_id=counter[0], n_agree=node.n_agree, n_disagree=node.n_disagree)
    predicate, match, nomatch = node.split
    match_child = _freeze(match, max_depth, counter)
    nomatch_child = _freeze(nomatch, max_depth, counter)
    return Internal(predicate, match_child, nomatch_child)


def _grow_points(groups: list[TripleGroup], points: list[HyperParams]) -> list[_Node]:
    """The grown root of every point, in order. Points sharing a criterion
    and impurity floor share one growth at their largest max_depth (depth
    nesting, see the module docstring)."""
    n_agree = sum(g.n_agree for g in groups)
    n_disagree = sum(g.n_disagree for g in groups)
    grown: dict[tuple[str, float], _Node] = {}
    roots = []
    for hp in points:
        key = (hp.criterion, hp.min_impurity_decrease)
        if key not in grown:
            if hp.criterion not in _IMPURITY:
                raise ValueError(f"unknown criterion {hp.criterion!r}")
            depth = max(
                p.max_depth
                for p in points
                if (p.criterion, p.min_impurity_decrease) == key
            )
            grown[key] = _grow(
                groups, n_agree, n_disagree, 0, depth, hp.min_impurity_decrease,
                _IMPURITY[hp.criterion], n_agree + n_disagree,
            )
        roots.append(grown[key])
    return roots


def _cut_leaves(root: _Node, max_depth: int) -> Iterator[_Node]:
    """The grown nodes that are leaves of the tree cut at max_depth."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node.split is None or node.depth >= max_depth:
            yield node
        else:
            stack.append(node.split[2])
            stack.append(node.split[1])


def _frozen(feature: str, root: _Node, hyperparams: HyperParams) -> DecisionTree:
    return DecisionTree(
        feature=feature,
        root=_freeze(root, hyperparams.max_depth, [0]),
        hyperparams=hyperparams,
        training_size=root.n_agree + root.n_disagree,
    )


def fit(dataset: FeatureDataset, hyperparams: HyperParams) -> DecisionTree:
    """Fit a tree on the dataset's triple groups; induction is deterministic."""
    if not dataset.instances:
        raise EmptyDatasetError(f"no instances for feature {dataset.feature!r}")
    root = _grow_points(list(dataset.triples.values()), [hyperparams])[0]
    return _frozen(dataset.feature, root, hyperparams)


def route(tree: DecisionTree, triples: Iterable[Triple]) -> dict[Triple, int]:
    """Each of the triples, seen or unseen, mapped to the id of its unique
    leaf. The batch is split once per internal node that a triple of it
    reaches, so routing one triple costs the depth of its leaf."""
    leaf_of: dict[Triple, int] = {}
    stack = [(tree.root, list(triples))]
    while stack:
        node, batch = stack.pop()
        if isinstance(node, Leaf):
            for triple in batch:
                leaf_of[triple] = node.leaf_id
            continue
        slot, value = node.predicate.slot, node.predicate.value
        match: list[Triple] = []
        nomatch: list[Triple] = []
        for triple in batch:
            (match if getattr(triple, slot) == value else nomatch).append(triple)
        if nomatch:
            stack.append((node.nomatch_child, nomatch))
        if match:
            stack.append((node.match_child, match))
    return leaf_of


def predict_leaf(tree: DecisionTree, triple: Triple) -> int:
    """Route a triple (seen or unseen) to the id of its unique leaf."""
    return route(tree, (triple,))[triple]


def leaf_refs(tree: DecisionTree, dataset: FeatureDataset) -> dict[int, list[int]]:
    """Indices of the dataset's instances per leaf id, triple by triple in
    the order of the dataset's triple table, each triple's in document
    order. Leaves that no instance reaches are absent."""
    leaf_of = route(tree, dataset.triples)
    refs: dict[int, list[int]] = {}
    for triple, group in dataset.triples.items():
        refs.setdefault(leaf_of[triple], []).extend(group.refs)
    return refs


def leaves(tree: DecisionTree) -> list[Leaf]:
    """All leaves in leaf-id (left-to-right) order."""
    out: list[Leaf] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node)
        else:
            stack.append(node.nomatch_child)
            stack.append(node.match_child)
    return out


def leaf_count(tree: DecisionTree) -> int:
    return len(leaves(tree))


def _held_totals(
    node: _Node, groups: list[TripleGroup], totals: dict[_Node, tuple[int, int]]
) -> tuple[int, int]:
    """Record in totals the (agree, disagree) sums of the held-out groups
    reaching each node of a grown tree, routed by partition, and return the
    node's. Nodes that no group reaches are left out."""
    if not groups:
        return 0, 0
    if node.split is None:
        held = (sum(g.n_agree for g in groups), sum(g.n_disagree for g in groups))
    else:
        predicate, match_child, nomatch_child = node.split
        match, nomatch = _partition(groups, predicate)
        match_agree, match_disagree = _held_totals(match_child, match, totals)
        nomatch_agree, nomatch_disagree = _held_totals(nomatch_child, nomatch, totals)
        held = (match_agree + nomatch_agree, match_disagree + nomatch_disagree)
    totals[node] = held
    return held


# A metric maps the held-out confusion counts (tp, fp, fn, tn), agreement
# being the positive class, to a score. These are the integers a per-triple
# walk of the frozen tree would add up, so the scores are exact.

def _accuracy(tp: int, fp: int, fn: int, tn: int) -> float:
    total = tp + fp + fn + tn
    return (tp + tn) / total if total else 0.0


def _macro_f1(tp: int, fp: int, fn: int, tn: int) -> float:
    # the agree class, then the disagree class, whose tp is tn and whose fp
    # and fn swap
    agree_denom = 2 * tp + fp + fn
    disagree_denom = 2 * tn + fn + fp
    f1_agree = 2 * tp / agree_denom if agree_denom else 0.0
    f1_disagree = 2 * tn / disagree_denom if disagree_denom else 0.0
    return (f1_agree + f1_disagree) / 2


_METRICS = {"accuracy": _accuracy, "macro_f1": _macro_f1}


def _scores(
    roots: list[_Node], points: list[HyperParams], held: list[TripleGroup], metric
) -> list[float]:
    """The metric of every point's cut on the held-out groups, which are
    routed once through each distinct grown tree. A cut leaf predicts
    agreement when its training totals have more agree than disagree."""
    totals: dict[_Node, tuple[int, int]] = {}
    for root in roots:
        if root not in totals:
            _held_totals(root, held, totals)
    scores = []
    for root, hp in zip(roots, points):
        tp = fp = fn = tn = 0
        for node in _cut_leaves(root, hp.max_depth):
            held_agree, held_disagree = totals.get(node, (0, 0))
            if node.n_agree > node.n_disagree:
                tp += held_agree
                fp += held_disagree
            else:
                fn += held_agree
                tn += held_disagree
        scores.append(metric(tp, fp, fn, tn))
    return scores


@lru_cache(maxsize=8)
def _fold_of(seed: int, n: int, k: int) -> bytes:
    """The fold of each of n instance indices, one byte each (so k <= 256):
    the indices are shuffled by the seed, and fold f takes every k-th of
    them from position f. Features of one run share a seed and often their
    instance count, so the shuffle is made once per (seed, n, k)."""
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    fold_of = bytearray(n)
    for fold in range(k):
        for idx in indices[fold::k]:
            fold_of[idx] = fold
    return bytes(fold_of)


def _cv_scores(
    train: FeatureDataset, points: list[HyperParams], seed: int, metric, n_folds: int = 5
) -> list[float]:
    """Seed-shuffled k-fold score of every point, at triple-count granularity.

    The folds and their training groups are built once; each fold then
    grows once per criterion, and its held-out groups are routed once per
    growth, for all points.
    """
    n = len(train.instances)
    k = min(n_folds, n)
    if k < 2:
        return [0.0] * len(points)
    fold_of = _fold_of(seed, n, k)
    # split every triple group into its held-out part per fold and the rest
    held: list[list[TripleGroup]] = [[] for _ in range(k)]
    rest: list[list[TripleGroup]] = [[] for _ in range(k)]
    agree = train.agree
    for group in train.triples.values():
        counts = [[0, 0] for _ in range(k)]
        for idx in group.refs:
            counts[fold_of[idx]][agree[idx]] += 1
        for fold, (held_disagree, held_agree) in enumerate(counts):
            if held_disagree + held_agree:
                held[fold].append(TripleGroup(group.triple, held_disagree, held_agree))
            if held_disagree + held_agree < group.size:
                rest[fold].append(
                    TripleGroup(
                        group.triple,
                        group.n_disagree - held_disagree,
                        group.n_agree - held_agree,
                    )
                )
    scores: list[list[float]] = [[] for _ in points]
    for held_groups, rest_groups in zip(held, rest):
        fold_scores = _scores(_grow_points(rest_groups, points), points, held_groups, metric)
        for point_scores, score in zip(scores, fold_scores):
            point_scores.append(score)
    return [sum(s) / len(s) for s in scores]


def grid_search(
    train: FeatureDataset,
    validation: FeatureDataset | None,
    grid: HyperGrid = DEFAULT_GRID,
    seed: int = 0,
    metric: str = "accuracy",
) -> DecisionTree:
    """Score every grid point and return the best tree, fitted on full train.

    Selection uses the metric on the validation set when one is given
    (and non-empty), else seed-shuffled 5-fold cross-validation on train.
    Ties prefer fewer leaves, then earlier grid order.
    """
    if not train.instances:
        raise EmptyDatasetError(f"no instances for feature {train.feature!r}")
    metric_fn = _METRICS[metric]
    points = grid.points()
    roots = _grow_points(list(train.triples.values()), points)
    if validation is not None and len(validation.instances) > 0:
        scores = _scores(roots, points, list(validation.triples.values()), metric_fn)
    else:
        scores = _cv_scores(train, points, seed, metric_fn)
    # every leaf of each cut counts, reached by a scored group or not
    leaf_counts = [
        sum(1 for _ in _cut_leaves(root, hp.max_depth)) for root, hp in zip(roots, points)
    ]
    best = max(range(len(points)), key=lambda i: (scores[i], -leaf_counts[i]))
    return _frozen(train.feature, roots[best], points[best])
