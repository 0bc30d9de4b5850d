"""Greedy binary CART induction over categorical triple slots.

Splits are one-vs-rest predicates ("slot == value" vs "slot != value"),
mirroring one-hot treatment of categorical inputs. Induction is fully
deterministic: candidate splits are scored in slot order (relation,
head_pos, dep_pos) then lexicographic value order, and the first maximal
impurity decrease wins. The seed passed to grid_search only shuffles
cross-validation folds. Growth runs on integer count tables: each (slot,
value) gets a code in that order, so code order is tie order, and each
triple group becomes a row of its three codes and counts. Split search
scans a node's per-code totals once; after a split only the child with
fewer rows is counted, and the other's totals are the node's minus those
(histogram subtraction, exact on integers). Gini and entropy are scored
inline, by _gini's and _entropy's operations in their order, so their
floats are those of a call per side of each code. Scored rows take the
training codes; a value training lacks gets -1, which never matches.
Held-out rows travel with growth: each node splits them with the test
that splits its training rows, and records their (agree, disagree) totals.

Depth nesting: for a fixed criterion and min_impurity_decrease, the split
chosen at a node depends only on the groups reaching it; max_depth only
stops growth. So the tree fitted with max_depth d is the tree fitted with
any larger max_depth cut at depth d, each cut node frozen as a leaf over
its own groups, which gives the same leaf ids and counts. grid_search
relies on this for growth and for scoring: per criterion (and per
cross-validation fold) it grows one tree at the grid's largest depth,
carrying the scored rows, and scores every grid point from the held-out
totals of the nodes its cut makes leaves. Only the winning point is frozen.

Joint growth: the criteria of one impurity floor grow in one recursion.
At each node every criterion picks its split; criteria picking the same
code share that node's partition of the rows, the count of its smaller
child and the split of its held-out rows, and they recurse apart only
below a node where their splits differ. Each still gets its own nodes,
the tree it would grow alone, and fit is the same recursion with one
criterion.

Leaves hold counts only. Training triples reach their leaves in batches
through labeling's RegionTable.of(tree), which finds a triple's leaf in
three dict lookups at any depth; a rule set looks triples up in the table
of its own rules. predict_leaf, the one walk of a triple down the tree,
stays public as the reference those tables are checked against.
"""
from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import compress
from operator import add, sub
from typing import Callable, Collection, Iterable, Iterator, NamedTuple

from .errors import EmptyDatasetError
from .triples import FeatureDataset, Triple, TripleGroup


# a slot is the name of the Triple field a predicate or constraint tests;
# this order breaks ties in split search
SLOT_ORDER = ("relation", "head_pos", "dep_pos")


class SplitPredicate(NamedTuple):
    slot: str  # one of SLOT_ORDER
    value: str


class Leaf(NamedTuple):
    leaf_id: int
    n_agree: int
    n_disagree: int

    @property
    def size(self) -> int:
        return self.n_agree + self.n_disagree

    @property
    def agree_ratio(self) -> float:
        return self.n_agree / self.size


class Internal(NamedTuple):
    predicate: SplitPredicate
    match_child: "TreeNode"
    nomatch_child: "TreeNode"


TreeNode = Leaf | Internal
Row = tuple[int, int, int, int, int]  # slot codes in SLOT_ORDER, n_agree, n_disagree
_Member = tuple[Callable[[int, int], float], int]  # a growth's impurity and max_depth


class HyperParams(NamedTuple):
    criterion: str = "gini"  # "gini" or "entropy"
    max_depth: int = 6
    min_impurity_decrease: float = 1e-3


class HyperGrid(NamedTuple):
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


class DecisionTree(NamedTuple):
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
    """A grown node: its depth, its training totals, the totals of the
    held-out rows reaching it and, unless growth stopped here, its split as
    (predicate, match, nomatch child)."""

    __slots__ = ("depth", "n_agree", "n_disagree", "held_agree", "held_disagree", "split")

    def __init__(self, depth: int, n_agree: int, n_disagree: int):
        self.depth = depth
        self.n_agree = n_agree
        self.n_disagree = n_disagree
        self.held_agree = self.held_disagree = 0
        self.split: tuple[SplitPredicate, _Node, _Node] | None = None


class _Codes:
    """A feature's code table (see the module docstring): each code's
    predicate and its slot's position in SLOT_ORDER, per slot the code of
    each value, and the groups' coded rows."""

    def __init__(self, groups: Collection[TripleGroup]):
        self.predicates = [
            SplitPredicate(slot, value)
            for slot in SLOT_ORDER for value in sorted({getattr(g.triple, slot) for g in groups})
        ]
        self.slot_of = [SLOT_ORDER.index(slot) for slot, _ in self.predicates]
        self.code_of: tuple[dict[str, int], ...] = tuple({} for _ in SLOT_ORDER)
        for code, (pos, (_, value)) in enumerate(zip(self.slot_of, self.predicates)):
            self.code_of[pos][value] = code
        self.rows = self.coded(groups)

    def coded(self, groups: Iterable[TripleGroup]) -> list[Row]:
        relation, head_pos, dep_pos = (codes.get for codes in self.code_of)
        return [
            (relation(g.triple.relation, -1), head_pos(g.triple.head_pos, -1),
             dep_pos(g.triple.dep_pos, -1), g.n_agree, g.n_disagree)
            for g in groups
        ]


def _counts(rows: list[Row], n_codes: int) -> tuple[list[int], list[int]]:
    """Per code, the agree and the disagree totals of the rows having it."""
    agree = [0] * n_codes
    disagree = [0] * n_codes
    for c0, c1, c2, n_agree, n_disagree in rows:
        agree[c0] += n_agree
        agree[c1] += n_agree
        agree[c2] += n_agree
        disagree[c0] += n_disagree
        disagree[c1] += n_disagree
        disagree[c2] += n_disagree
    return agree, disagree


def _best_split(
    agree: list[int], disagree: list[int], node_agree: int, node_disagree: int,
    impurity, n_total: int,
) -> tuple[int, float, int, int] | None:
    """The first split, in code order, of maximal impurity decrease: its
    code, the decrease and the match side's (agree, disagree) totals. Only
    the codes some row of the node has are scored. Both impurities are
    computed inline, by _gini's or _entropy's operations in their order, so
    the floats are those of a call per side; both sides of a scored split
    are non-empty, so gini needs no empty case."""
    n_node = node_agree + node_disagree
    node_impurity = impurity(node_agree, node_disagree)
    weight = n_node / n_total
    best: tuple[int, float, int, int] | None = None
    best_delta = 0.0
    sizes = list(map(add, agree, disagree))
    gini = impurity is _gini
    log2 = math.log2
    for code in compress(range(len(sizes)), sizes):
        n_match = sizes[code]
        if n_match == n_node:
            continue
        m_agree, m_disagree = agree[code], disagree[code]
        n_rest = n_node - n_match
        if gini:
            p = m_agree / n_match
            q = (node_agree - m_agree) / n_rest
            child_impurity = (n_match * (2.0 * p * (1.0 - p))
                              + n_rest * (2.0 * q * (1.0 - q))) / n_node
        else:
            h_match = h_rest = 0.0
            if m_disagree:
                p = m_disagree / n_match
                h_match -= p * log2(p)
            if m_agree:
                p = m_agree / n_match
                h_match -= p * log2(p)
            if node_disagree - m_disagree:
                p = (node_disagree - m_disagree) / n_rest
                h_rest -= p * log2(p)
            if node_agree - m_agree:
                p = (node_agree - m_agree) / n_rest
                h_rest -= p * log2(p)
            child_impurity = (n_match * h_match + n_rest * h_rest) / n_node
        delta = weight * (node_impurity - child_impurity)
        if best is None or delta > best_delta:
            best = (code, delta, m_agree, m_disagree)
            best_delta = delta
    return best


def _grow(
    codes: _Codes, rows: list[Row], counts: tuple[list[int], list[int]], held: list[Row],
    members: list[_Member], min_impurity_decrease: float,
) -> list[_Node]:
    """Grow one tree per member (impurity, max_depth) from the coded rows,
    given their per-code counts; every node records the totals of the
    held-out rows reaching it. The members grow together: at each node each
    picks its split, those picking the same code share one partition of the
    rows, one count of the smaller child and one split of the held-out rows,
    and they recurse apart only below a node where their splits differ. Each
    member gets its own nodes, the tree it would grow alone."""
    # each row adds its counts to three codes, one per slot
    n_agree, n_disagree = sum(counts[0]) // 3, sum(counts[1]) // 3
    n_total = n_agree + n_disagree
    n_codes = len(codes.predicates)

    def grow(rows, counts, held, n_agree, n_disagree, depth, members) -> list[_Node]:
        nodes = []
        # per code split on here, the members splitting on it and their nodes
        splitting: dict[int, tuple[list[_Member], list[_Node]]] = {}
        splittable = n_agree and n_disagree and len(rows) > 1
        for member in members:
            node = _Node(depth, n_agree, n_disagree)
            nodes.append(node)
            if splittable and depth < member[1]:
                best = _best_split(*counts, n_agree, n_disagree, member[0], n_total)
                if best is not None and best[1] >= min_impurity_decrease:
                    split_members, split_nodes = splitting.setdefault(best[0], ([], []))
                    split_members.append(member)
                    split_nodes.append(node)
        if not splitting:
            held_agree = held_disagree = 0
            for r in held:
                held_agree += r[3]
                held_disagree += r[4]
        for code, (split_members, split_nodes) in splitting.items():
            pos = codes.slot_of[code]
            match: list[Row] = []
            nomatch: list[Row] = []
            for r in rows:
                (match if r[pos] == code else nomatch).append(r)
            held_match: list[Row] = []
            held_nomatch: list[Row] = []
            for r in held:
                (held_match if r[pos] == code else held_nomatch).append(r)
            # only the child with fewer rows is counted; the other's counts
            # are the node's minus those
            if len(match) <= len(nomatch):
                match_counts = _counts(match, n_codes)
                nomatch_counts = (list(map(sub, counts[0], match_counts[0])),
                                  list(map(sub, counts[1], match_counts[1])))
            else:
                nomatch_counts = _counts(nomatch, n_codes)
                match_counts = (list(map(sub, counts[0], nomatch_counts[0])),
                                list(map(sub, counts[1], nomatch_counts[1])))
            m_agree, m_disagree = counts[0][code], counts[1][code]
            match_children = grow(match, match_counts, held_match, m_agree, m_disagree,
                                  depth + 1, split_members)
            nomatch_children = grow(nomatch, nomatch_counts, held_nomatch, n_agree - m_agree,
                                    n_disagree - m_disagree, depth + 1, split_members)
            predicate = codes.predicates[code]
            for node, match_child, nomatch_child in zip(split_nodes, match_children,
                                                        nomatch_children):
                node.split = (predicate, match_child, nomatch_child)
            # the same held-out rows reach every member's node
            held_agree = match_children[0].held_agree + nomatch_children[0].held_agree
            held_disagree = match_children[0].held_disagree + nomatch_children[0].held_disagree
        for node in nodes:
            node.held_agree = held_agree
            node.held_disagree = held_disagree
        return nodes

    return grow(rows, counts, held, n_agree, n_disagree, 0, members)


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


def _grow_points(
    codes: _Codes, rows: list[Row], held: list[Row], points: list[HyperParams]
) -> list[_Node]:
    """The grown root of every point, in order, from the coded rows, each
    node holding the totals of the held-out rows reaching it. Points sharing
    a criterion and impurity floor share one tree grown at their largest
    max_depth (depth nesting, see the module docstring), and the criteria of
    one floor grow together, sharing each node's work until their splits
    differ."""
    depths: dict[float, dict[str, int]] = {}
    for hp in points:
        if hp.criterion not in _IMPURITY:
            raise ValueError(f"unknown criterion {hp.criterion!r}")
        by_criterion = depths.setdefault(hp.min_impurity_decrease, {})
        by_criterion[hp.criterion] = max(by_criterion.get(hp.criterion, hp.max_depth),
                                         hp.max_depth)
    counts = _counts(rows, len(codes.predicates))
    grown: dict[tuple[str, float], _Node] = {}
    for floor, by_criterion in depths.items():
        members = [(_IMPURITY[criterion], depth) for criterion, depth in by_criterion.items()]
        roots = _grow(codes, rows, counts, held, members, floor)
        grown.update(((criterion, floor), root) for criterion, root in zip(by_criterion, roots))
    return [grown[hp.criterion, hp.min_impurity_decrease] for hp in points]


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
    codes = _Codes(list(dataset.triples.values()))
    root = _grow_points(codes, codes.rows, [], [hyperparams])[0]
    return _frozen(dataset.feature, root, hyperparams)


def predict_leaf(tree: DecisionTree, triple: Triple) -> int:
    """The id of the unique leaf a triple (seen or unseen) reaches, walked
    down the tree node by node.

    It is the only per-triple walk of a tree and uses no table, so the
    tests and the benchmark's merge-equivalence check use it as the
    reference that RegionTable lookups and rule-set lookups must agree
    with; that is why it stays public."""
    node = tree.root
    while not isinstance(node, Leaf):
        slot, value = node.predicate
        node = node.match_child if getattr(triple, slot) == value else node.nomatch_child
    return node.leaf_id


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


def _scores(roots: list[_Node], points: list[HyperParams], metric) -> list[float]:
    """The metric of every point's cut on the held-out rows its growth
    carried. A cut leaf predicts agreement when its training totals have
    more agree than disagree."""
    scores = []
    for root, hp in zip(roots, points):
        tp = fp = fn = tn = 0
        for node in _cut_leaves(root, hp.max_depth):
            if node.n_agree > node.n_disagree:
                tp += node.held_agree
                fp += node.held_disagree
            else:
                fn += node.held_agree
                tn += node.held_disagree
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
    for position, idx in enumerate(indices):
        fold_of[idx] = position % k
    return bytes(fold_of)


def _fold_rows(
    train: FeatureDataset, codes: _Codes, fold_of: bytes, k: int
) -> tuple[list[list[Row]], list[list[Row]]]:
    """Per fold, its held-out rows and its training rows, each in group
    order: a group's held-out row has its instances in the fold and its
    training row the others, and a row with no instance is left out."""
    agree_counts: list[list[int]] = []
    disagree_counts: list[list[int]] = []
    for group in train.triples.values():
        counts = [0] * k
        for idx in group.agreeing:
            counts[fold_of[idx]] += 1
        agree_counts.append(counts)
        counts = [0] * k
        for idx in group.disagreeing:
            counts[fold_of[idx]] += 1
        disagree_counts.append(counts)
    c0, c1, c2, n_agree, n_disagree = zip(*codes.rows)
    held: list[list[Row]] = []
    rest: list[list[Row]] = []
    # per fold, the column of each group's count in it
    for held_agree, held_disagree in zip(zip(*agree_counts), zip(*disagree_counts)):
        held.append(list(compress(zip(c0, c1, c2, held_agree, held_disagree),
                                  map(add, held_agree, held_disagree))))
        rest_agree = list(map(sub, n_agree, held_agree))
        rest_disagree = list(map(sub, n_disagree, held_disagree))
        rest.append(list(compress(zip(c0, c1, c2, rest_agree, rest_disagree),
                                  map(add, rest_agree, rest_disagree))))
    return held, rest


def _cv_scores(
    train: FeatureDataset, codes: _Codes, points: list[HyperParams], seed: int, metric,
    n_folds: int = 5,
) -> list[float]:
    """Seed-shuffled k-fold score of every point, at triple-count granularity.

    The folds' training and held-out rows are built once, a fold at a time
    from train's coded rows and each group's per-fold instance counts; each
    fold then grows its criteria together, carrying its held-out rows, for
    all points.
    """
    n = len(train.instances)
    k = min(n_folds, n)
    if k < 2:
        return [0.0] * len(points)
    held, rest = _fold_rows(train, codes, _fold_of(seed, n, k), k)
    fold_scores = [
        _scores(_grow_points(codes, rest_rows, held_rows, points), points, metric)
        for held_rows, rest_rows in zip(held, rest)
    ]
    return [sum(point_scores) / k for point_scores in zip(*fold_scores)]


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
    codes = _Codes(list(train.triples.values()))
    if validation is not None and len(validation.instances) > 0:
        roots = _grow_points(codes, codes.rows, codes.coded(validation.triples.values()), points)
        scores = _scores(roots, points, metric_fn)
    else:
        roots = _grow_points(codes, codes.rows, [], points)
        scores = _cv_scores(train, codes, points, seed, metric_fn)
    # every leaf of each cut counts, reached by a scored group or not
    leaf_counts = [
        sum(1 for _ in _cut_leaves(root, hp.max_depth)) for root, hp in zip(roots, points)
    ]
    best = max(range(len(points)), key=lambda i: (scores[i], -leaf_counts[i]))
    return _frozen(train.feature, roots[best], points[best])
