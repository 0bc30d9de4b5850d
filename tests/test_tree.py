import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from morphagree import (
    FeatureDataset,
    HyperGrid,
    HyperParams,
    Triple,
    fit,
    grid_search,
    leaf_count,
    predict_leaf,
)
from morphagree import tree as tree_module
from morphagree.errors import EmptyDatasetError
from morphagree.labeling import RegionTable
from morphagree.serialization import tree_to_dict
from morphagree.tree import (
    SLOT_ORDER,
    Internal,
    Leaf,
    SplitPredicate,
    _Codes,
    _IMPURITY,
    _METRICS,
    _best_split,
    _fold_of,
    _fold_rows,
    _frozen,
    _grow_points,
    _scores,
    leaves,
)


from conftest import agrees, make_dataset
from oracles import (
    METRICS,
    best_split_calling_impurity,
    brute_force_best_first_split,
    brute_force_grow,
    fold_rows_reference,
    grid_search_on_validation,
    grid_search_per_point,
    grow_by_rebucketing,
    leaf_id_by_walking,
)
from treegen import random_labeled_tree, random_triple

HP = HyperParams(criterion="gini", max_depth=6, min_impurity_decrease=1e-3)


def test_single_instance_single_leaf():
    dataset = make_dataset([(Triple("NOUN", "det", "DET"), True)])
    tree = fit(dataset, HP)
    assert isinstance(tree.root, Leaf)
    assert tree.root.leaf_id == 1
    assert RegionTable.of(tree).groups(dataset) == [list(dataset.triples.values())]
    assert leaf_count(tree) == 1
    assert predict_leaf(tree, Triple("X", "y", "Z")) == 1


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDatasetError):
        fit(FeatureDataset("Gender", ()), HP)


def _subj_obj_dataset():
    subj = Triple(head_pos="VERB", relation="subj", dep_pos="NOUN")
    obj = Triple(head_pos="VERB", relation="obj", dep_pos="NOUN")
    return subj, obj, make_dataset([(subj, True)] * 50 + [(obj, False)] * 50)


def test_fifty_fifty_split_on_relation():
    subj, obj, dataset = _subj_obj_dataset()
    best, _ = brute_force_best_first_split(
        [(i.triple, agrees(i)) for i in dataset.instances]
    )
    assert {(s, v) for s, v, _ in best} == {("relation", "obj"), ("relation", "subj")}
    tree = fit(dataset, HP)
    assert isinstance(tree.root, Internal)
    # tie between obj and subj resolved lexicographically
    assert tree.root.predicate == SplitPredicate("relation", "obj")
    assert isinstance(tree.root.match_child, Leaf)
    assert isinstance(tree.root.nomatch_child, Leaf)
    assert tree.root.match_child.n_agree == 0
    assert tree.root.nomatch_child.n_disagree == 0
    assert leaf_count(tree) == 2
    # routing: subj goes to the pure-agree leaf
    agree_leaf = predict_leaf(tree, subj)
    assert agree_leaf == tree.root.nomatch_child.leaf_id


def test_slot_order_breaks_cross_slot_ties():
    a = Triple(head_pos="A", relation="relX", dep_pos="D")
    b = Triple(head_pos="B", relation="relY", dep_pos="D")
    dataset = make_dataset([(a, True)] * 10 + [(b, False)] * 10)
    tree = fit(dataset, HP)
    assert tree.root.predicate == SplitPredicate("relation", "relX")


def test_fitted_first_split_matches_brute_force_on_random_data():
    rng = random.Random(11)
    relations = ["det", "subj", "obj", "mod"]
    pos = ["NOUN", "VERB", "ADJ"]
    pairs = [
        (
            Triple(rng.choice(pos), rng.choice(relations), rng.choice(pos)),
            rng.random() < 0.6,
        )
        for _ in range(200)
    ]
    dataset = make_dataset(pairs)
    for criterion in ("gini", "entropy"):
        tree = fit(dataset, HyperParams(criterion, max_depth=1, min_impurity_decrease=1e-9))
        best, delta = brute_force_best_first_split(
            [(i.triple, agrees(i)) for i in dataset.instances], criterion
        )
        assert isinstance(tree.root, Internal)
        slot, value, _ = best[0]
        assert tree.root.predicate == SplitPredicate(slot, value)


def _deep_rule_dataset(copies=20):
    # agreement holds exactly for relations r01..r08 out of r01..r16;
    # one-vs-rest splits must peel values one at a time, so a depth-6
    # budget cannot reach purity
    pairs = []
    for i in range(1, 17):
        triple = Triple(head_pos="NOUN", relation=f"r{i:02d}", dep_pos="DET")
        pairs.extend([(triple, i <= 8)] * copies)
    return make_dataset(pairs)


def test_grid_search_prefers_depth_that_fits_deep_rule():
    dataset = _deep_rule_dataset()
    shallow = fit(dataset, HyperParams("gini", 6, 1e-3))
    deep = fit(dataset, HyperParams("gini", 15, 1e-3))
    assert METRICS["accuracy"](shallow, dataset.triples.values()) < 1.0
    assert METRICS["accuracy"](deep, dataset.triples.values()) == 1.0
    chosen = grid_search(dataset, None, HyperGrid(), seed=0)
    assert chosen.hyperparams.max_depth == 15
    assert METRICS["accuracy"](chosen, dataset.triples.values()) == 1.0


def test_grid_search_with_validation_set_picks_higher_accuracy():
    train = _deep_rule_dataset()
    validation = _deep_rule_dataset(copies=5)
    chosen = grid_search(train, validation, HyperGrid(), seed=0)
    assert chosen.hyperparams.max_depth == 15
    assert METRICS["accuracy"](chosen, validation.triples.values()) == 1.0


def test_singleton_grid_equals_fit():
    _, _, dataset = _subj_obj_dataset()
    grid = HyperGrid(criteria=("gini",), max_depths=(6,))
    assert grid_search(dataset, None, grid, seed=0) == fit(dataset, HP)


def test_max_depth_respected():
    dataset = _deep_rule_dataset(copies=3)
    for depth in (1, 2, 3):
        tree = fit(dataset, HyperParams("gini", depth, 1e-6))

        def max_leaf_depth(node, d=0):
            if isinstance(node, Leaf):
                return d
            return max(
                max_leaf_depth(node.match_child, d + 1),
                max_leaf_depth(node.nomatch_child, d + 1),
            )

        assert max_leaf_depth(tree.root) <= depth


def _node_groups(tree, dataset):
    """Map every node to the (agree, disagree) counts reaching it."""
    counts = {}

    def walk(node, insts):
        counts[id(node)] = (
            sum(agrees(i) for i in insts),
            sum(not agrees(i) for i in insts),
            insts,
        )
        if isinstance(node, Internal):
            slot, value = node.predicate.slot, node.predicate.value
            walk(node.match_child, [i for i in insts if getattr(i.triple, slot) == value])
            walk(node.nomatch_child, [i for i in insts if getattr(i.triple, slot) != value])

    walk(tree.root, list(dataset.instances))
    return counts


def _impurity(criterion, agree, total):
    import math

    if total == 0:
        return 0.0
    p = agree / total
    if criterion == "gini":
        return 2.0 * p * (1.0 - p)
    h = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            h -= q * math.log2(q)
    return h


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_every_realized_split_clears_min_impurity_decrease(criterion):
    rng = random.Random(5)
    pairs = [
        (
            Triple(rng.choice("AB"), rng.choice(["r1", "r2", "r3"]), rng.choice("CD")),
            rng.random() < 0.7,
        )
        for _ in range(300)
    ]
    dataset = make_dataset(pairs)
    hp = HyperParams(criterion, max_depth=8, min_impurity_decrease=1e-3)
    tree = fit(dataset, hp)
    counts = _node_groups(tree, dataset)
    n_total = len(dataset.instances)

    def check(node):
        if isinstance(node, Leaf):
            return
        agree, disagree, insts = counts[id(node)]
        n_node = agree + disagree
        ma, md, _ = counts[id(node.match_child)]
        na, nd, _ = counts[id(node.nomatch_child)]
        parent = _impurity(criterion, agree, n_node)
        child = (
            (ma + md) * _impurity(criterion, ma, ma + md)
            + (na + nd) * _impurity(criterion, na, na + nd)
        ) / n_node
        delta = (n_node / n_total) * (parent - child)
        assert delta >= hp.min_impurity_decrease - 1e-12
        check(node.match_child)
        check(node.nomatch_child)

    check(tree.root)


def test_training_accuracy_at_least_majority_baseline():
    rng = random.Random(9)
    pairs = [
        (
            Triple(rng.choice("ABC"), rng.choice(["r1", "r2"]), rng.choice("DE")),
            rng.random() < 0.55,
        )
        for _ in range(400)
    ]
    dataset = make_dataset(pairs)
    tree = fit(dataset, HP)
    n_agree = sum(agrees(i) for i in dataset.instances)
    majority = max(n_agree, len(dataset.instances) - n_agree) / len(dataset.instances)
    assert METRICS["accuracy"](tree, dataset.triples.values()) >= majority


def test_leaf_counts_sum_to_training_size():
    dataset = _deep_rule_dataset(copies=7)
    tree = fit(dataset, HP)
    total = sum(l.n_agree + l.n_disagree for l in leaves(tree))
    assert total == tree.training_size == len(dataset.instances)
    assert sorted(l.leaf_id for l in leaves(tree)) == list(
        range(1, leaf_count(tree) + 1)
    )


def test_unseen_triples_route_to_exactly_one_leaf():
    dataset = _deep_rule_dataset(copies=2)
    tree = fit(dataset, HP)
    ids = {l.leaf_id for l in leaves(tree)}
    rng = random.Random(3)
    vocab_rel = [f"r{i:02d}" for i in range(1, 17)] + ["UNSEEN-REL"]
    for _ in range(500):
        triple = Triple(
            head_pos=rng.choice(["NOUN", "NEW-POS"]),
            relation=rng.choice(vocab_rel),
            dep_pos=rng.choice(["DET", "OTHER"]),
        )
        assert predict_leaf(tree, triple) in ids


def test_fit_is_deterministic_and_serializes_identically():
    rng = random.Random(21)
    pairs = [
        (
            Triple(rng.choice("AB"), rng.choice(["r1", "r2", "r3", "r4"]), rng.choice("CD")),
            rng.random() < 0.5,
        )
        for _ in range(250)
    ]
    dataset = make_dataset(pairs)
    t1 = fit(dataset, HP)
    t2 = fit(dataset, HP)
    assert t1 == t2
    assert json.dumps(tree_to_dict(t1), sort_keys=True) == json.dumps(
        tree_to_dict(t2), sort_keys=True
    )


def test_cross_validation_is_seed_stable():
    dataset = _deep_rule_dataset(copies=4)
    a = grid_search(dataset, None, HyperGrid(), seed=123)
    b = grid_search(dataset, None, HyperGrid(), seed=123)
    assert a == b


# random datasets over a vocabulary wide enough for trees deeper than the
# grid's largest depth when no impurity floor stops growth
_triples = st.builds(
    Triple,
    head_pos=st.sampled_from(["NOUN", "VERB", "ADJ", "PRON"]),
    relation=st.sampled_from([f"r{i}" for i in range(8)]),
    dep_pos=st.sampled_from(["DET", "NOUN", "ADJ", "ADV"]),
)
_datasets = st.lists(st.tuples(_triples, st.booleans()), min_size=1, max_size=160).map(
    make_dataset
)
DEEP_GRID = HyperGrid(max_depths=tuple(range(1, 16)))


@settings(max_examples=60, deadline=None)
@given(_datasets, st.sampled_from([0.0, 1e-3, 2e-2]))
def test_trees_cut_from_one_growth_equal_separate_fits(dataset, floor):
    grid = HyperGrid(max_depths=DEEP_GRID.max_depths, min_impurity_decrease=floor)
    points = grid.points()
    codes = _Codes(list(dataset.triples.values()))
    roots = _grow_points(codes, codes.rows, [], points)
    nested = [_frozen(dataset.feature, root, hp) for root, hp in zip(roots, points)]
    # structure, leaf ids, counts and hyperparams
    assert nested == [fit(dataset, hp) for hp in points]


def _grown(node):
    """A grown node as nested tuples: its depth, training totals, held-out
    totals and split."""
    split = node.split and (node.split[0], _grown(node.split[1]), _grown(node.split[2]))
    return (node.depth, node.n_agree, node.n_disagree, node.held_agree, node.held_disagree,
            split)


def _assert_joint_growth_equals_growing_alone(train, validation, floor):
    grid = HyperGrid(max_depths=DEEP_GRID.max_depths, min_impurity_decrease=floor)
    points = grid.points()
    codes = _Codes(list(train.triples.values()))
    held = codes.coded(validation.triples.values())
    roots = _grow_points(codes, codes.rows, held, points)
    for criterion in grid.criteria:
        alone = [hp for hp in points if hp.criterion == criterion]
        alone_roots = _grow_points(codes, codes.rows, held, alone)
        joint_roots = [root for root, hp in zip(roots, points) if hp.criterion == criterion]
        # structure, training totals and held-out totals of every node
        assert [_grown(r) for r in joint_roots] == [_grown(r) for r in alone_roots]
        for metric in _METRICS.values():
            assert _scores(joint_roots, alone, metric) == _scores(alone_roots, alone, metric)


@settings(max_examples=60, deadline=None)
@given(_datasets, _datasets, st.sampled_from([0.0, 1e-3, 2e-2]))
def test_joint_growth_keeps_each_criterions_held_out_totals(train, validation, floor):
    _assert_joint_growth_equals_growing_alone(train, validation, floor)


@pytest.mark.parametrize("floor", [0.0, 1e-3, 2e-2])
def test_joint_growth_keeps_held_out_totals_where_criteria_diverge(floor):
    # r0 has 3 agreeing and 1 disagreeing instance, r1 one agreeing, r2 one
    # of each: gini splits r2 off first, entropy r1
    def pairs(copies):
        return [(Triple("NOUN", relation, "DET"), agree)
                for relation, n_agree, n_disagree in (("r0", 3, 1), ("r1", 1, 0), ("r2", 1, 1))
                for agree in [True] * n_agree + [False] * n_disagree] * copies
    train, validation = make_dataset(pairs(2)), make_dataset(pairs(1))
    roots = {hp.criterion: fit(train, hp).root
             for hp in (HyperParams("gini", 1, floor), HyperParams("entropy", 1, floor))}
    assert roots["gini"].predicate == SplitPredicate("relation", "r2")
    assert roots["entropy"].predicate == SplitPredicate("relation", "r1")
    _assert_joint_growth_equals_growing_alone(train, validation, floor)


@settings(max_examples=60, deadline=None)
@given(_datasets, st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 7))
def test_fold_rows_equal_the_per_group_loop(dataset, seed, n_folds):
    k = min(n_folds, len(dataset.instances))
    assume(k >= 2)
    codes = _Codes(list(dataset.triples.values()))
    fold_of = _fold_of(seed, len(dataset.instances), k)
    # rows and their order
    assert _fold_rows(dataset, codes, fold_of, k) == fold_rows_reference(
        dataset, codes, fold_of, k)


def test_fold_rows_leave_out_a_group_a_fold_has_all_or_none_of():
    # r1's one instance lies in one fold: that fold's training rows lack r1,
    # and so do the other folds' held-out rows
    single = Triple("NOUN", "r1", "DET")
    dataset = make_dataset([(single, True)] + [(Triple("NOUN", "r2", "DET"), i % 2 == 0)
                                               for i in range(20)])
    codes = _Codes(list(dataset.triples.values()))
    fold_of = _fold_of(0, len(dataset.instances), 5)
    held, rest = _fold_rows(dataset, codes, fold_of, 5)
    assert (held, rest) == fold_rows_reference(dataset, codes, fold_of, 5)
    single_codes = codes.rows[0][:3]
    assert [any(r[:3] == single_codes for r in rows) for rows in held] == [
        fold == fold_of[0] for fold in range(5)]
    assert [any(r[:3] == single_codes for r in rows) for rows in rest] == [
        fold != fold_of[0] for fold in range(5)]


def test_criteria_splitting_alike_count_each_node_once(monkeypatch):
    dataset = _deep_rule_dataset(copies=3)
    codes = _Codes(list(dataset.triples.values()))
    gini, entropy = _grow_points(codes, codes.rows, [], [HyperParams("gini", 15, 1e-3),
                                                         HyperParams("entropy", 15, 1e-3)])
    assert _grown(gini) == _grown(entropy)
    counted = []
    count = tree_module._counts

    def counting(rows, n_codes):
        counted.append(len(rows))
        return count(rows, n_codes)

    monkeypatch.setattr(tree_module, "_counts", counting)
    grid_search(dataset, None, HyperGrid(), seed=3)
    both = counted[:]
    counted.clear()
    grid_search(dataset, None, HyperGrid(criteria=("gini",)), seed=3)
    # the same rows counted, in the same order: the roots of the full data
    # and of the five folds, and each split's smaller child
    assert both == counted
    assert len(counted) > 6


# a wider vocabulary than _triples', with one dependent POS that most
# triples have and that mostly agrees: splitting it off leaves the match side
# with more distinct triples than the nomatch side, so either side of a
# split can be the one whose counts growth takes by subtraction
_wide_triples = st.builds(
    Triple,
    head_pos=st.sampled_from([f"H{i}" for i in range(6)]),
    relation=st.sampled_from([f"r{i}" for i in range(16)]),
    dep_pos=st.sampled_from(["D0"] * 5 + ["D1", "D2", "D3"]),
)
_wide_datasets = st.lists(
    st.tuples(_wide_triples, st.booleans()), min_size=1, max_size=200
).map(lambda pairs: make_dataset([(t, a or t.dep_pos == "D0") for t, a in pairs]))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(_datasets, _wide_datasets),
    st.integers(min_value=1, max_value=15),
    st.sampled_from(["gini", "entropy"]),
    st.sampled_from([0.0, 1e-3, 2e-2]),
)
def test_fit_equals_rebucketing_growth(dataset, depth, criterion, floor):
    hp = HyperParams(criterion, depth, floor)
    # predicates, leaf ids, leaf counts, hyperparams and training size
    assert fit(dataset, hp) == grow_by_rebucketing(dataset, hp)


def _slot_reads_per_triple(run, pairs):
    """How often run reads each triple's slots, run taking a dataset whose
    triples count the reads of their three fields."""
    reads = []

    def counted(index):
        return property(lambda self: reads.append(self) or tuple.__getitem__(self, index))

    class CountingTriple(Triple):
        __slots__ = ()
        head_pos, relation, dep_pos = counted(0), counted(1), counted(2)

    dataset = make_dataset([(CountingTriple(*t), a) for t, a in pairs])
    reads.clear()
    run(dataset)
    return {t: sum(1 for r in reads if r is t) for t in dataset.triples}


def test_growth_reads_each_triple_once_per_fit_whatever_the_depth_or_folds():
    # on the deep rule, one-vs-rest splits peel relations one at a time:
    # the depth-15 tree has 9 leaves, the depth-1 tree 2
    dataset = _deep_rule_dataset(copies=3)
    assert leaf_count(fit(dataset, HyperParams("gini", 15, 0.0))) == 9
    pairs = [(inst.triple, agrees(inst)) for inst in dataset.instances]
    shallow = _slot_reads_per_triple(lambda d: fit(d, HyperParams("gini", 1, 0.0)), pairs)
    deep = _slot_reads_per_triple(lambda d: fit(d, HyperParams("gini", 15, 0.0)), pairs)
    assert deep == shallow
    assert all(shallow.values())
    # five folds of cross-validation and a growth per criterion read no
    # triple more often than one fit does
    searched = _slot_reads_per_triple(lambda d: grid_search(d, None, DEEP_GRID, seed=3), pairs)
    assert all(searched[t] <= shallow[t] for t in shallow)


@settings(max_examples=60, deadline=None)
@given(_datasets, st.integers(min_value=1, max_value=15))
def test_leaf_table_refs_group_instances_by_first_occurrence_of_their_triple(dataset, depth):
    tree = fit(dataset, HyperParams(max_depth=depth, min_impurity_decrease=0.0))
    first = {}
    for idx, inst in enumerate(dataset.instances):
        first.setdefault(inst.triple, idx)
    expected = {}
    for idx in sorted(range(len(dataset.instances)),
                      key=lambda i: (first[dataset.instances[i].triple], i)):
        expected.setdefault(predict_leaf(tree, dataset.instances[idx].triple), []).append(idx)
    groups = RegionTable.of(tree).groups(dataset)
    assert all(group is dataset.triples[group.triple] for gs in groups for group in gs)
    refs = [[idx for group in gs for idx in sorted([*group.agreeing, *group.disagreeing])]
            for gs in groups]
    assert refs == [expected.get(leaf.leaf_id, []) for leaf in leaves(tree)]
    assert [len(r) for r in refs] == [leaf.size for leaf in leaves(tree)]


@settings(max_examples=25, deadline=None)
@given(
    _datasets,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["accuracy", "macro_f1"]),
)
def test_grid_search_equals_per_point_cross_validation(dataset, seed, metric):
    assert grid_search(dataset, None, DEEP_GRID, seed, metric) == grid_search_per_point(
        dataset, DEEP_GRID, seed, metric
    )


@pytest.mark.parametrize("seed", [0, 1, 7, 123, 2024])
def test_grid_search_equals_per_point_cross_validation_on_deep_rule(seed):
    dataset = _deep_rule_dataset(copies=3)
    assert grid_search(dataset, None, DEEP_GRID, seed) == grid_search_per_point(
        dataset, DEEP_GRID, seed
    )


@settings(max_examples=25, deadline=None)
@given(_datasets, _datasets, st.sampled_from(["accuracy", "macro_f1"]))
def test_grid_search_equals_per_point_validation(train, validation, metric):
    assert grid_search(train, validation, DEEP_GRID, 0, metric) == grid_search_on_validation(
        train, validation, DEEP_GRID, metric
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=40),
       st.booleans())
def test_leaf_table_equals_walking_each_triple(seed, n_triples, dead_branches):
    rng = random.Random(seed)
    tree, _ = random_labeled_tree(rng, max_depth=rng.randint(0, 6), dead_branches=dead_branches)
    table = RegionTable.of(tree)
    assert list(table.items) == leaves(tree)
    # repeats included, and values no split tests
    triples = [random_triple(rng) for _ in range(n_triples)]
    walked = {t: leaf_id_by_walking(tree, t) for t in triples}
    assert table.lookup(triples, [leaf.leaf_id for leaf in table.items]) == walked
    assert {t: predict_leaf(tree, t) for t in triples} == walked
    # the three masks of a triple share one bit, a dead-branch leaf's none
    for t in triples:
        common = -1
        for slot, masks, other in zip(SLOT_ORDER, table.masks, table.others):
            common &= masks.get(getattr(t, slot), other)
        assert common.bit_count() == 1


# count vectors over a few codes with small counts, so that many codes tie;
# the node's totals are the codes' sums plus rows no code of the vector has
_count_vectors = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12
)


@settings(max_examples=300, deadline=None)
@given(_count_vectors, st.integers(0, 4), st.integers(0, 4), st.integers(0, 20),
       st.sampled_from(["gini", "entropy"]))
def test_best_split_equals_calling_the_impurity_per_code(
        counts, extra_agree, extra_disagree, beyond, criterion):
    agree = [a for a, _ in counts]
    disagree = [d for _, d in counts]
    node_agree, node_disagree = sum(agree) + extra_agree, sum(disagree) + extra_disagree
    assume(node_agree + node_disagree > 0)
    args = (agree, disagree, node_agree, node_disagree, _IMPURITY[criterion],
            node_agree + node_disagree + beyond)
    found, expected = _best_split(*args), best_split_calling_impurity(*args)
    # the same code and totals, and the same float bits
    assert found == expected
    assert found is None or found[1].hex() == expected[1].hex()


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_best_split_takes_the_first_of_tied_codes(criterion):
    # codes 1 and 3 split off the same counts, ahead of the others
    agree, disagree = [1, 4, 1, 4, 1], [1, 0, 1, 0, 1]
    args = (agree, disagree, 10, 3, _IMPURITY[criterion], 20)
    assert _best_split(*args) == best_split_calling_impurity(*args)
    assert _best_split(*args)[0] == 1


def _structure(node):
    if isinstance(node, Leaf):
        return (node.n_agree, node.n_disagree)
    return (
        node.predicate.slot,
        node.predicate.value,
        _structure(node.match_child),
        _structure(node.nomatch_child),
    )


@settings(max_examples=80, deadline=None)
@given(
    _datasets,
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["gini", "entropy"]),
    st.sampled_from([0.0, 1e-3]),
)
def test_fit_equals_exhaustive_whole_tree_search(dataset, depth, criterion, floor):
    tree = fit(dataset, HyperParams(criterion, depth, floor))
    pairs = [(inst.triple, agrees(inst)) for inst in dataset.instances]
    assert _structure(tree.root) == brute_force_grow(pairs, criterion, depth, floor)
