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
relies on this: per criterion (and per cross-validation fold) it grows one
tree at the grid's largest depth and freezes it once per grid point.

Leaves hold counts only. leaf_refs recovers the instances of each leaf of
one chosen tree by routing the dataset's triples through it.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyDatasetError
from .triples import FeatureDataset, Triple, TripleGroup


# a slot is the name of the Triple field a predicate or constraint tests;
# this order breaks ties in split search
SLOT_ORDER = ("relation", "head_pos", "dep_pos")


@dataclass(frozen=True)
class SplitPredicate:
    slot: str  # one of SLOT_ORDER
    value: str

    def matches(self, triple: Triple) -> bool:
        return getattr(triple, self.slot) == self.value


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
) -> tuple[SplitPredicate, float] | None:
    n_node = node_agree + node_disagree
    node_impurity = impurity(node_agree, node_disagree)
    best: tuple[SplitPredicate, float] | None = None
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
                best = (SplitPredicate(slot, value), delta)
    return best


def _grow(
    groups: list[TripleGroup],
    depth: int,
    max_depth: int,
    min_impurity_decrease: float,
    impurity,
    n_total: int,
) -> _Node:
    node = _Node(depth, sum(g.n_agree for g in groups), sum(g.n_disagree for g in groups))
    if (
        node.n_agree == 0
        or node.n_disagree == 0
        or depth >= max_depth
        or len(groups) == 1
    ):
        return node
    best = _best_split(groups, node.n_agree, node.n_disagree, impurity, n_total)
    if best is None or best[1] < min_impurity_decrease:
        return node
    predicate = best[0]
    slot, value = predicate.slot, predicate.value
    match: list[TripleGroup] = []
    nomatch: list[TripleGroup] = []
    for g in groups:
        (match if getattr(g.triple, slot) == value else nomatch).append(g)
    node.split = (
        predicate,
        _grow(match, depth + 1, max_depth, min_impurity_decrease, impurity, n_total),
        _grow(nomatch, depth + 1, max_depth, min_impurity_decrease, impurity, n_total),
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


def _fit_points(
    feature: str, groups: list[TripleGroup], points: list[HyperParams]
) -> list[DecisionTree]:
    """One tree per point, in order. Points sharing a criterion and impurity
    floor are cut from one growth at their largest max_depth (depth nesting,
    see the module docstring)."""
    n_total = sum(g.size for g in groups)
    grown: dict[tuple[str, float], _Node] = {}
    trees = []
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
                groups, 0, depth, hp.min_impurity_decrease, _IMPURITY[hp.criterion], n_total
            )
        root = _freeze(grown[key], hp.max_depth, [0])
        trees.append(
            DecisionTree(feature=feature, root=root, hyperparams=hp, training_size=n_total)
        )
    return trees


def fit(dataset: FeatureDataset, hyperparams: HyperParams) -> DecisionTree:
    """Fit a tree on the dataset's triple groups; induction is deterministic."""
    if not dataset.instances:
        raise EmptyDatasetError(f"no instances for feature {dataset.feature!r}")
    return _fit_points(dataset.feature, list(dataset.triples.values()), [hyperparams])[0]


def _leaf_for(tree: DecisionTree, triple: Triple) -> Leaf:
    node = tree.root
    while isinstance(node, Internal):
        node = node.match_child if node.predicate.matches(triple) else node.nomatch_child
    return node


def predict_leaf(tree: DecisionTree, triple: Triple) -> int:
    """Route a triple (seen or unseen) to the id of its unique leaf."""
    return _leaf_for(tree, triple).leaf_id


def leaf_refs(tree: DecisionTree, dataset: FeatureDataset) -> dict[int, list[int]]:
    """Indices of the dataset's instances per leaf id, triple by triple in
    the order of the dataset's triple table, each triple's in document
    order. Leaves that no instance reaches are absent."""
    refs: dict[int, list[int]] = {}
    for group in dataset.triples.values():
        refs.setdefault(_leaf_for(tree, group.triple).leaf_id, []).extend(group.refs)
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


def _accuracy_of_groups(tree: DecisionTree, groups: Iterable[TripleGroup]) -> float:
    # instances sharing a triple route identically, so score per triple
    hits = total = 0
    for g in groups:
        leaf = _leaf_for(tree, g.triple)
        hits += g.n_agree if leaf.n_agree > leaf.n_disagree else g.n_disagree
        total += g.size
    return hits / total if total else 0.0


def _macro_f1_of_groups(tree: DecisionTree, groups: Iterable[TripleGroup]) -> float:
    # per-class confusion counts: tp, fp, fn
    stats = {True: [0, 0, 0], False: [0, 0, 0]}
    for g in groups:
        predicted = _leaf_for(tree, g.triple)
        predicted_agree = predicted.n_agree > predicted.n_disagree
        correct, wrong = (
            (g.n_agree, g.n_disagree) if predicted_agree else (g.n_disagree, g.n_agree)
        )
        stats[predicted_agree][0] += correct
        stats[predicted_agree][1] += wrong
        stats[not predicted_agree][2] += wrong
    f1s = []
    for tp, fp, fn in stats.values():
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom else 0.0)
    return sum(f1s) / len(f1s)


_METRICS = {"accuracy": _accuracy_of_groups, "macro_f1": _macro_f1_of_groups}


def _cv_scores(
    train: FeatureDataset, points: list[HyperParams], seed: int, metric, n_folds: int = 5
) -> list[float]:
    """Seed-shuffled k-fold score of every point, at triple-count granularity.

    The folds and their training groups are built once; each fold then
    grows once per criterion for all points.
    """
    n = len(train.instances)
    k = min(n_folds, n)
    if k < 2:
        return [0.0] * len(points)
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    fold_of = [0] * n
    for fold in range(k):
        for idx in indices[fold::k]:
            fold_of[idx] = fold
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
        trees = _fit_points(train.feature, rest_groups, points)
        for point_scores, tree in zip(scores, trees):
            point_scores.append(metric(tree, held_groups))
    return [sum(s) / len(s) for s in scores]


def grid_search(
    train: FeatureDataset,
    validation: FeatureDataset | None,
    grid: HyperGrid = DEFAULT_GRID,
    seed: int = 0,
    metric: str = "accuracy",
) -> DecisionTree:
    """Fit one tree per grid point and return the best, refit on full train.

    Selection uses the metric on the validation set when one is given
    (and non-empty), else seed-shuffled 5-fold cross-validation on train.
    Ties prefer fewer leaves, then earlier grid order.
    """
    if not train.instances:
        raise EmptyDatasetError(f"no instances for feature {train.feature!r}")
    metric_fn = _METRICS[metric]
    points = grid.points()
    trees = _fit_points(train.feature, list(train.triples.values()), points)
    if validation is not None and len(validation.instances) > 0:
        scores = [metric_fn(tree, validation.triples.values()) for tree in trees]
    else:
        scores = _cv_scores(train, points, seed, metric_fn)
    best_tree: DecisionTree | None = None
    best_key: tuple[float, int] | None = None
    for tree, score in zip(trees, scores):
        key = (score, -leaf_count(tree))
        if best_key is None or key > best_key:
            best_key = key
            best_tree = tree
    assert best_tree is not None
    return best_tree
