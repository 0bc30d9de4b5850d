"""Independent oracles the tests check the package against.

These deliberately avoid the package's own code paths: the chi-square
statistic is summed cell by cell in Fraction arithmetic (the package
divides two integers once, by its closed form), the chi-square survival
function is adaptive-Simpson integration of the density (the package uses
erfc), splits are found by exhaustive enumeration, or scored by calling
the impurity function per side (the package inlines gini and entropy),
entropy/correlation are recomputed from their definitions, a whole tree is
grown by exhaustive search over instances at every node, or by
rebucketing the triple groups reaching each node by every slot's values
(the package scans integer count tables), triples are
walked down the tree one at a time and scored one group at a time, grid
search fits and scores every grid point and every cross-validation fold
separately, a fold's held-out and training rows are appended group by
group and fold by fold (the package builds them a column at a time), rule
merging rescans every pair from the start after each
merge and merges two constraints case by case (the package derives the
merged constraint from set operations), or tries every pair of rules
instead of only those that share a signature, a triple's rule is found by
testing every rule instead of routing through the table of the rules,
CoNLL-U is parsed
token by token with a fresh FEATS dict per token and walked once per
feature, with no shared edge table, the report's example pools and the
annotation sheet's rows are read from each feature's FeatureDataset and
its triples ranked by one sort on a composite key (the package reads the
edge table directly and ranks by two stable sorts), and
a synthetic corpus is drawn with ``Random.choices`` per feature value and a
fresh FEATS dict per token.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from itertools import compress
from operator import add

from morphagree.conllu import Edge, Sentence, Token, feats_to_string, parse_feats
from morphagree.errors import (
    DuplicateSentIdError,
    EncodingError,
    InvalidHeadError,
    InvalidGrammarError,
    InvalidIdError,
    MalformedFeatsError,
    MalformedLineError,
)
from morphagree.labeling import (EXAMPLE_REFS_CAP, ChanceModel, Constraint, LabeledRule,
                                 RuleSet, _leaf_regions, _leaf_rules, _try_merge, rules_for)
from morphagree.report import _sample, render_example
from morphagree.tree import (SLOT_ORDER, DecisionTree, Internal, Leaf, SplitPredicate, leaf_count,
                             leaves, predict_leaf)
from morphagree.triples import FeatureDataset, Triple, extract_instances


def chi_squared_statistic_by_cells(observed: tuple[int, int], chance: ChanceModel) -> float:
    """The goodness-of-fit statistic of (disagree, agree) counts, summed
    over the two cells in exact rational arithmetic and rounded once. A
    hand-given p_chance is read as its exact binary value; a zero expected
    count gives 0 if its cell is 0 too, else +inf."""
    if chance.p_chance_exact is not None:
        p_agree = Fraction(*chance.p_chance_exact)
    else:
        p_agree = Fraction(chance.p_chance)
    n = sum(observed)
    chi2 = Fraction(0)
    for obs, exp in zip(observed, (n * (1 - p_agree), n * p_agree)):
        if exp == 0:
            if obs != 0:
                return math.inf
            continue
        chi2 += (obs - exp) ** 2 / exp
    return float(chi2)


def chi2_density(t: float) -> float:
    return math.exp(-t / 2.0) / math.sqrt(2.0 * math.pi * t)


def _simpson(f, a, b, fa, fm, fb, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) < 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _simpson(f, a, m, fa, flm, fm, tol / 2.0, depth - 1) + _simpson(
        f, m, b, fm, frm, fb, tol / 2.0, depth - 1
    )


def integrate(f, a: float, b: float, tol: float = 1e-13) -> float:
    return _simpson(f, a, b, f(a), f((a + b) / 2.0), f(b), tol, 60)


def chi2_sf_oracle(x: float) -> float:
    """P[X >= x], X ~ chi-square(1), by quadrature over the density.

    The integrable singularity at 0 is removed with the substitution
    t = u^2 on [x, 1]; the tail beyond x + 150 is below 1e-30.
    """
    if x <= 0.0:
        return 1.0
    upper = max(x + 150.0, 200.0)
    if x >= 1.0:
        return integrate(chi2_density, x, upper)
    head = integrate(lambda u: 2.0 * u * chi2_density(u * u), math.sqrt(x), 1.0)
    return head + integrate(chi2_density, 1.0, upper)


def brute_force_best_first_split(instances, criterion: str = "gini"):
    """Exhaustively score every (slot, value) split of a set of
    (triple, agree) pairs and return (slot_name, value, delta) winners."""

    def impurity(agree: int, total: int) -> float:
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

    n = len(instances)
    agree_all = sum(a for _, a in instances)
    parent = impurity(agree_all, n)
    best = []
    best_delta = -1.0
    for slot in ("relation", "head_pos", "dep_pos"):
        for value in sorted({getattr(t, slot) for t, _ in instances}):
            match = [(t, a) for t, a in instances if getattr(t, slot) == value]
            nomatch = [(t, a) for t, a in instances if getattr(t, slot) != value]
            if not match or not nomatch:
                continue
            child = (
                len(match) * impurity(sum(a for _, a in match), len(match))
                + len(nomatch) * impurity(sum(a for _, a in nomatch), len(nomatch))
            ) / n
            delta = parent - child  # node is the whole set: N_node/N_total = 1
            if delta > best_delta + 1e-12:
                best_delta = delta
                best = [(slot, value, delta)]
            elif abs(delta - best_delta) <= 1e-12:
                best.append((slot, value, delta))
    return best, best_delta


def best_split_calling_impurity(agree, disagree, node_agree, node_disagree, impurity, n_total):
    """tree._best_split as it was written before gini and entropy were
    inlined: one call of the impurity function per side of each scored
    code."""
    n_node = node_agree + node_disagree
    node_impurity = impurity(node_agree, node_disagree)
    best = None
    sizes = list(map(add, agree, disagree))
    for code in compress(range(len(sizes)), sizes):
        n_match = sizes[code]
        if n_match == n_node:
            continue
        m_agree, m_disagree = agree[code], disagree[code]
        child_impurity = (
            n_match * impurity(m_agree, m_disagree)
            + (n_node - n_match) * impurity(node_agree - m_agree, node_disagree - m_disagree)
        ) / n_node
        delta = (n_node / n_total) * (node_impurity - child_impurity)
        if best is None or delta > best[1]:
            best = (code, delta, m_agree, m_disagree)
    return best


def _impurity_of_counts(criterion: str, n_agree: int, n_disagree: int) -> float:
    """Gini or entropy of a node's counts. Exact ties between splits are
    common, so the arithmetic is that of the documented definitions, term
    for term: a tie must stay a tie."""
    n = n_agree + n_disagree
    if n == 0:
        return 0.0
    if criterion == "gini":
        p = n_agree / n
        return 2.0 * p * (1.0 - p)
    h = 0.0
    for c in (n_disagree, n_agree):
        if c:
            p = c / n
            h -= p * math.log2(p)
    return h


def brute_force_grow(instances, criterion: str, max_depth: int, min_impurity_decrease: float):
    """Grow a whole CART tree over (triple, agree) pairs by exhaustive search.

    At every node, every (slot, value) of the node's instances is scored in
    slot order (relation, head_pos, dep_pos) then sorted value order, from
    counts recounted over the instances; the first maximal impurity
    decrease wins. Growth stops at a pure node, at max_depth, when no split
    separates the instances, or when the best decrease is below the floor.
    Returns nested ``(slot, value, match, nomatch)`` tuples with
    ``(n_agree, n_disagree)`` leaves.
    """
    n_total = len(instances)

    def grow(node_instances, depth):
        n_agree = sum(1 for _, a in node_instances if a)
        n_disagree = len(node_instances) - n_agree
        if n_agree == 0 or n_disagree == 0 or depth >= max_depth:
            return (n_agree, n_disagree)
        n_node = len(node_instances)
        parent = _impurity_of_counts(criterion, n_agree, n_disagree)
        candidates = []
        for slot in ("relation", "head_pos", "dep_pos"):
            for value in sorted({getattr(t, slot) for t, _ in node_instances}):
                match = [(t, a) for t, a in node_instances if getattr(t, slot) == value]
                nomatch = [(t, a) for t, a in node_instances if getattr(t, slot) != value]
                if not match or not nomatch:
                    continue
                m_agree = sum(1 for _, a in match if a)
                u_agree = sum(1 for _, a in nomatch if a)
                child = (
                    len(match) * _impurity_of_counts(criterion, m_agree, len(match) - m_agree)
                    + len(nomatch)
                    * _impurity_of_counts(criterion, u_agree, len(nomatch) - u_agree)
                ) / n_node
                delta = (n_node / n_total) * (parent - child)
                candidates.append((delta, slot, value, match, nomatch))
        if not candidates:
            return (n_agree, n_disagree)
        best_delta = max(c[0] for c in candidates)
        _, slot, value, match, nomatch = next(c for c in candidates if c[0] == best_delta)
        if best_delta < min_impurity_decrease:
            return (n_agree, n_disagree)
        return (slot, value, grow(match, depth + 1), grow(nomatch, depth + 1))

    return grow(list(instances), 0)


def _rebucketed_best_split(groups, node_agree, node_disagree, criterion, n_total):
    """The first split of maximal impurity decrease over the groups reaching
    a node, each slot's values bucketed afresh and sorted: its predicate,
    the decrease and the match side's (agree, disagree) totals."""
    n_node = node_agree + node_disagree
    node_impurity = _impurity_of_counts(criterion, node_agree, node_disagree)
    best = None
    for slot in ("relation", "head_pos", "dep_pos"):
        per_value = {}
        for g in groups:
            counts = per_value.setdefault(getattr(g.triple, slot), [0, 0])
            counts[0] += g.n_agree
            counts[1] += g.n_disagree
        for value in sorted(per_value):
            m_agree, m_disagree = per_value[value]
            n_match = m_agree + m_disagree
            n_nomatch = n_node - n_match
            if n_match == 0 or n_nomatch == 0:
                continue
            child_impurity = (
                n_match * _impurity_of_counts(criterion, m_agree, m_disagree)
                + n_nomatch
                * _impurity_of_counts(criterion, node_agree - m_agree, node_disagree - m_disagree)
            ) / n_node
            delta = (n_node / n_total) * (node_impurity - child_impurity)
            if best is None or delta > best[1]:
                best = (SplitPredicate(slot, value), delta, m_agree, m_disagree)
    return best


def grow_by_rebucketing(dataset, hyperparams) -> DecisionTree:
    """fit, the direct way: at every node the groups reaching it are
    rebucketed by each slot's values and the values sorted again, the node's
    totals are summed from its groups, and the groups are partitioned for
    the children, which grow in match-before-nomatch preorder (so leaf ids
    count up in that order). The tree grows to hyperparams.max_depth itself,
    never cut from a deeper growth."""
    groups = list(dataset.triples.values())
    n_total = sum(g.size for g in groups)
    leaf_ids = itertools.count(1)

    def grow(groups, depth):
        n_agree = sum(g.n_agree for g in groups)
        n_disagree = sum(g.n_disagree for g in groups)
        best = None
        if n_agree and n_disagree and depth < hyperparams.max_depth and len(groups) > 1:
            best = _rebucketed_best_split(
                groups, n_agree, n_disagree, hyperparams.criterion, n_total
            )
        if best is None or best[1] < hyperparams.min_impurity_decrease:
            return Leaf(next(leaf_ids), n_agree, n_disagree)
        predicate = best[0]
        match = [g for g in groups if getattr(g.triple, predicate.slot) == predicate.value]
        nomatch = [g for g in groups if getattr(g.triple, predicate.slot) != predicate.value]
        return Internal(predicate, grow(match, depth + 1), grow(nomatch, depth + 1))

    return DecisionTree(dataset.feature, grow(groups, 0), hyperparams, n_total)


def _walk_to_leaf(tree, triple):
    node = tree.root
    while isinstance(node, Internal):
        predicate = node.predicate
        matched = getattr(triple, predicate.slot) == predicate.value
        node = node.match_child if matched else node.nomatch_child
    return node


def leaf_id_by_walking(tree, triple) -> int:
    """The id of the leaf a single triple reaches, walked down node by node."""
    return _walk_to_leaf(tree, triple).leaf_id


def accuracy_of_groups(tree, groups) -> float:
    """Held-out accuracy of a frozen tree, each group's triple walked down
    on its own; a leaf predicts agreement when it has more agree than
    disagree."""
    hits = total = 0
    for g in groups:
        leaf = _walk_to_leaf(tree, g.triple)
        hits += g.n_agree if leaf.n_agree > leaf.n_disagree else g.n_disagree
        total += g.size
    return hits / total if total else 0.0


def macro_f1_of_groups(tree, groups) -> float:
    """Held-out macro-F1 over the agree and disagree classes, each group's
    triple walked down on its own."""
    # per-class confusion counts: tp, fp, fn
    stats = {True: [0, 0, 0], False: [0, 0, 0]}
    for g in groups:
        predicted = _walk_to_leaf(tree, g.triple)
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


METRICS = {"accuracy": accuracy_of_groups, "macro_f1": macro_f1_of_groups}


def _best_of(trees_and_scores):
    """The tree of the highest score, then fewer leaves, then earliest."""
    best_tree, best_key = None, None
    for tree, score in trees_and_scores:
        key = (score, -leaf_count(tree))
        if best_key is None or key > best_key:
            best_tree, best_key = tree, key
    return best_tree


def grid_search_on_validation(train, validation, grid, metric: str = "accuracy"):
    """Validation-set grid search the direct way: a separate rebucketing
    growth of every grid point, scored on the validation groups with the
    per-triple walk."""
    score_fn = METRICS[metric]
    return _best_of(
        (tree, score_fn(tree, validation.triples.values()))
        for tree in (grow_by_rebucketing(train, hp) for hp in grid.points())
    )


def entropy_bits_oracle(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def js_lambda_oracle(counts) -> float:
    n = sum(counts)
    v = len(counts)
    ml = [c / n for c in counts]
    num = 1.0 - sum(p * p for p in ml)
    den = (n - 1) * sum((1.0 / v - p) ** 2 for p in ml)
    if den == 0.0:
        return 1.0
    return min(1.0, max(0.0, num / den))


def grid_search_per_point(train, grid, seed: int, metric: str = "accuracy", n_folds: int = 5):
    """Cross-validated grid search the direct way: a separate rebucketing
    growth of every fold for every grid point, each on a freshly built fold
    dataset.

    Same folds as the package (seeded shuffle of instance indices, fold f
    takes every k-th shuffled index from f), same selection (mean fold
    score, then fewer leaves, then earlier grid point).
    """
    score_fn = METRICS[metric]
    n = len(train.instances)
    k = min(n_folds, n)
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    # with fewer than two instances there is nothing to cross-validate and
    # every point scores 0
    folds = [set(indices[fold::k]) for fold in range(k)] if k >= 2 else []

    def cv_score(hp):
        scores = []
        for held in folds:
            rest = [i for idx, i in enumerate(train.instances) if idx not in held]
            held_out = [i for idx, i in enumerate(train.instances) if idx in held]
            tree = grow_by_rebucketing(FeatureDataset(train.feature, tuple(rest)), hp)
            scores.append(
                score_fn(tree, FeatureDataset(train.feature, tuple(held_out)).triples.values())
            )
        return sum(scores) / len(scores) if scores else 0.0

    return _best_of((grow_by_rebucketing(train, hp), cv_score(hp)) for hp in grid.points())


def fold_rows_reference(train, codes, fold_of: bytes, k: int):
    """Per fold, its held-out and training rows, built the direct way: a
    group's instances counted per fold, then its two rows appended to each
    fold that has some of them, group by group and fold by fold."""
    held = [[] for _ in range(k)]
    rest = [[] for _ in range(k)]
    for (c0, c1, c2, n_agree, n_disagree), group in zip(codes.rows, train.triples.values()):
        agree_counts = [0] * k
        for idx in group.agreeing:
            agree_counts[fold_of[idx]] += 1
        disagree_counts = [0] * k
        for idx in group.disagreeing:
            disagree_counts[fold_of[idx]] += 1
        for fold, (held_agree, held_disagree) in enumerate(zip(agree_counts, disagree_counts)):
            if held_agree or held_disagree:
                held[fold].append((c0, c1, c2, held_agree, held_disagree))
            if held_agree + held_disagree < n_agree + n_disagree:
                rest[fold].append((c0, c1, c2, n_agree - held_agree, n_disagree - held_disagree))
    return held, rest


def try_merge_by_cases(a: LabeledRule, b: LabeledRule) -> LabeledRule | None:
    """The merge of two rules, or None: they need one label and may differ
    in one slot only, where both constraints are in (the merged one names
    the values of both) or one is in and the other's not_in names each of
    its values (the merged not_in names the other values)."""
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
    return LabeledRule(
        rule_id=0,
        label=a.label,
        constraints={**a.constraints, slot: merged},
        n_agree=a.n_agree + b.n_agree,
        n_disagree=a.n_disagree + b.n_disagree,
        source_leaf_ids=tuple(sorted(a.source_leaf_ids + b.source_leaf_ids)),
        example_refs=(a.example_refs + b.example_refs)[:EXAMPLE_REFS_CAP],
        counterexample_refs=(a.counterexample_refs + b.counterexample_refs)[:EXAMPLE_REFS_CAP],
    )


def merge_to_fixpoint_pairwise(rules: list[LabeledRule]) -> list[LabeledRule]:
    """labeling._merge_to_fixpoint without its signature index: rule i is
    tried against every later rule, and after it grows every earlier rule is
    tried against it, by the package's _try_merge. Its accepted merges are
    the same sequence as the restarting scan's, at a cost that grows with
    the pairs of rules, so it pins the index on trees of over a thousand
    leaves, where that scan is too slow."""
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


def leaf_refs_by_walking(tree, dataset) -> dict[int, tuple[tuple, tuple]]:
    """Per leaf id, the provenance of the first EXAMPLE_REFS_CAP agreeing
    and of the first disagreeing instances reaching it, each instance walked
    down the tree by predict_leaf and its agreement read from its FEATS; in
    a leaf, triple by triple in order of first occurrence, each triple's
    instances in document order."""
    feature = dataset.feature
    by_leaf = {leaf.leaf_id: {} for leaf in leaves(tree)}
    for inst in dataset.instances:
        by_leaf[predict_leaf(tree, inst.triple)].setdefault(inst.triple, []).append(inst)
    refs = {}
    for leaf_id, by_triple in by_leaf.items():
        reaching = [inst for insts in by_triple.values() for inst in insts]
        agreeing = [i.provenance for i in reaching if i.head_feats[feature] == i.dep_feats[feature]]
        disagreeing = [i.provenance for i in reaching
                       if i.head_feats[feature] != i.dep_feats[feature]]
        refs[leaf_id] = (tuple(agreeing[:EXAMPLE_REFS_CAP]), tuple(disagreeing[:EXAMPLE_REFS_CAP]))
    return refs


def merge_rules_restarting(tree, verdicts, dataset=None) -> tuple[LabeledRule, ...]:
    """The rules of merge_rules, with the fixpoint written the direct way:
    merge the first mergeable pair in leaf order, re-sort, and rescan every
    pair from the start, by try_merge_by_cases. It shares only the package's leaf rules,
    without refs, so it checks the order in which pairs are tried and the
    merge step. Given the dataset, each leaf's refs come from
    leaf_refs_by_walking and every merge carries and caps them, so the
    package's fill after merging is checked against a path with no
    RegionTable."""
    regions = _leaf_regions(tree)
    verdict_by_leaf = {v.leaf_id: v for v in verdicts}
    rules = _leaf_rules(regions, [verdict_by_leaf[leaf.leaf_id] for leaf, _ in regions])
    if dataset is not None:
        refs = leaf_refs_by_walking(tree, dataset)
        rules = [
            rule._replace(example_refs=refs[rule.source_leaf_ids[0]][0],
                          counterexample_refs=refs[rule.source_leaf_ids[0]][1])
            for rule in rules
        ]
    rules.sort(key=lambda r: r.source_leaf_ids[0])
    changed = True
    while changed:
        changed = False
        for i in range(len(rules)):
            for j in range(i + 1, len(rules)):
                merged = try_merge_by_cases(rules[i], rules[j])
                if merged is not None:
                    rules[i] = merged
                    del rules[j]
                    rules.sort(key=lambda r: r.source_leaf_ids[0])
                    changed = True
                    break
            if changed:
                break
    return tuple(r._replace(rule_id=idx) for idx, r in enumerate(rules, start=1))


def rule_matches(rule, triple) -> bool:
    """Whether the triple meets every constraint of the rule: its slot value
    is in the values of an "in" constraint and not in those of a "not_in"."""
    return all(
        (getattr(triple, slot) in constraint.values) == (constraint.mode == "in")
        for slot, constraint in rule.constraints.items()
    )


def rule_for_scanning(rules, triple):
    """The one rule of rules matching the triple, found by testing every
    rule; LookupError when none or several match."""
    matched = [rule for rule in rules if rule_matches(rule, triple)]
    if len(matched) != 1:
        raise LookupError(
            f"triple {triple} matches rules {[rule.rule_id for rule in matched]}"
        )
    return matched[0]


def _is_range_or_empty_node_id(col: str) -> bool:
    for sep in "-.":
        first, found, second = col.partition(sep)
        if found:
            return first.isdecimal() and second.isdecimal()
    return False


def _parse_token_line(line: str, line_no: int) -> Token | None:
    cols = line.split("\t")
    if len(cols) != 10:
        raise MalformedLineError(f"line {line_no}: expected 10 columns, got {len(cols)}")
    if _is_range_or_empty_node_id(cols[0]):
        return None
    if not cols[0].isdecimal() or int(cols[0]) < 1:
        raise InvalidIdError(f"line {line_no}: bad token id {cols[0]!r}")
    token_id = int(cols[0])
    if not cols[6].isdecimal():
        raise InvalidHeadError(f"line {line_no}: bad head {cols[6]!r}")
    head = int(cols[6])
    if head == token_id:
        raise InvalidHeadError(f"line {line_no}: head {head} invalid for token {token_id}")
    try:
        feats = parse_feats(cols[5])
    except MalformedFeatsError as exc:
        raise MalformedFeatsError(f"line {line_no}: {exc}") from None
    return Token(
        id=token_id, form=cols[1], upos=cols[3], feats=feats, head=head, deprel=cols[7]
    )


def _finish_sentence(tokens: list[Token], sent_id: str | None, ordinal: int) -> Sentence:
    ids = [t.id for t in tokens]
    if ids != list(range(1, len(ids) + 1)):
        raise InvalidIdError(
            f"sentence {sent_id or ordinal}: token ids are not consecutive 1..n: {ids}"
        )
    valid = set(ids)
    for t in tokens:
        if t.head != 0 and t.head not in valid:
            raise InvalidHeadError(
                f"sentence {sent_id or ordinal}: token {t.id} points to missing head {t.head}"
            )
    return Sentence(sent_id=sent_id or str(ordinal), tokens=tuple(tokens))


def parse_conllu_reference(stream) -> tuple[Sentence, ...]:
    """parse_conllu as a Sentence of Tokens per sentence, line by line:
    every token gets its own FEATS dict, and nothing is memoised or built
    ahead for extraction."""
    sentences: list[Sentence] = []
    tokens: list[Token] = []
    sent_id = None
    try:
        for line_no, raw in enumerate(stream, start=1):
            if isinstance(raw, bytes):
                raw = raw.decode("utf-8")
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                if tokens:
                    sentences.append(_finish_sentence(tokens, sent_id, len(sentences) + 1))
                tokens, sent_id = [], None
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep and key.strip() == "sent_id":
                    sent_id = value.strip()
                continue
            token = _parse_token_line(line, line_no)
            if token is not None:
                tokens.append(token)
    except UnicodeDecodeError as exc:
        raise EncodingError(str(exc)) from None
    if tokens:
        sentences.append(_finish_sentence(tokens, sent_id, len(sentences) + 1))
    seen: set[str] = set()
    for ordinal, sentence in enumerate(sentences, start=1):
        if sentence.sent_id in seen:
            raise DuplicateSentIdError(
                f"sentence {ordinal}: duplicate sent_id {sentence.sent_id!r}"
            )
        seen.add(sentence.sent_id)
    return tuple(sentences)


def edge_table_reference(sentences) -> tuple[tuple[Edge, ...], list[tuple[str, int]]]:
    """Treebank.edges by one walk over the sentences' tokens: a fresh Edge
    and Triple per edge whose two tokens have FEATS, and the count of tokens
    per non-empty FEATS, keyed by its sorted string, in order of first
    occurrence."""
    entries: list[Edge] = []
    counts: dict[str, int] = {}
    for sentence in sentences:
        for token in sentence.tokens:
            if not token.feats:
                continue
            key = feats_to_string(token.feats)
            counts[key] = counts.get(key, 0) + 1
            if token.head == 0:
                continue
            head = sentence.tokens[token.head - 1]
            if head.feats:
                entries.append(Edge(Triple(head.upos, token.deprel, token.upos),
                                    (sentence.sent_id, head.id, token.id), head.feats, token.feats))
    return tuple(entries), list(counts.items())


def extract_instances_reference(sentences, feature: str) -> FeatureDataset:
    """extract_instances as one walk over the sentences' tokens per feature:
    a fresh Edge and Triple per instance, marginals counted token by token."""
    instances: list[Edge] = []
    marginals: dict[str, int] = {}
    for sentence in sentences:
        for token in sentence.tokens:
            dep_value = token.feats.get(feature)
            if dep_value is None:
                continue
            marginals[dep_value] = marginals.get(dep_value, 0) + 1
            if token.head == 0:
                continue
            head = sentence.tokens[token.head - 1]
            head_value = head.feats.get(feature)
            if head_value is None:
                continue
            instances.append(
                Edge(
                    triple=Triple(head.upos, token.deprel, token.upos),
                    provenance=(sentence.sent_id, head.id, token.id),
                    head_feats=head.feats,
                    dep_feats=token.feats,
                )
            )
    return FeatureDataset(feature, tuple(instances), marginals)


def example_pools_from_dataset(feature: str, ruleset: RuleSet, train):
    """report.example_pools from the feature's FeatureDataset: its triple
    table mapped to rules, each group's agreeing and disagreeing indices
    put in its rule's pools, and each pool sorted into document order."""
    dataset = extract_instances(train, feature)
    by_rule = {rule.rule_id: ([], []) for rule in ruleset.rules}
    for triple, rule in rules_for(ruleset, dataset.triples).items():
        agreeing, disagreeing = by_rule[rule.rule_id]
        agreeing.extend(dataset.triples[triple].agreeing)
        disagreeing.extend(dataset.triples[triple].disagreeing)
    return {rule_id: tuple([dataset.instances[ref] for ref in sorted(refs)] for refs in pools)
            for rule_id, pools in by_rule.items()}


def annotation_rows_from_datasets(features, train, top_k: int, examples: int, seed: int):
    """report.build_annotation_rows from each feature's FeatureDataset: the
    top_k of its triple table sorted on one (-count, relation, head_pos,
    dep_pos) key, each sampled from its TripleGroup's instances in document
    order."""
    rows = []
    for feature in features:
        dataset = extract_instances(train, feature)
        groups = dataset.triples
        ranked = sorted(groups, key=lambda t: (-groups[t].size, t.relation, t.head_pos,
                                               t.dep_pos))
        for triple in ranked[:top_k]:
            key = f"{seed}:{feature}:{triple.relation}:{triple.head_pos}:{triple.dep_pos}"
            rendered = []
            group = groups[triple]
            for ref in _sample(sorted([*group.agreeing, *group.disagreeing]), examples, key):
                sent_id, head_id, dep_id = dataset.instances[ref].provenance
                rendered.append(f"{sent_id}:h{head_id}:d{dep_id} "
                                + render_example(train.forms[sent_id], head_id, dep_id))
            rows.append((feature, triple.relation, triple.head_pos, triple.dep_pos, "",
                         " ||| ".join(rendered)))
    return rows


def _sample_value(rng: random.Random, spec, exclude: str | None = None) -> str:
    if exclude is None:
        return rng.choices(spec.values, weights=spec.marginals, k=1)[0]
    values = [v for v in spec.values if v != exclude]
    weights = [p for v, p in zip(spec.values, spec.marginals) if v != exclude]
    if not values:  # single-valued feature cannot disagree
        return exclude
    return rng.choices(values, weights=weights, k=1)[0]


def generate_reference(grammar, n_sentences: int, tokens_per_sentence: int = 3):
    """synthetic.generate with one ``rng.choices`` call per feature value
    drawn, a fresh FEATS dict per token and ``grammar.is_required`` asked
    per edge."""
    grammar.validate()
    if tokens_per_sentence < 3 or tokens_per_sentence % 2 == 0:
        raise InvalidGrammarError("tokens_per_sentence must be odd and >= 3")
    edges = (tokens_per_sentence - 1) // 2
    rng = random.Random(grammar.seed)
    sentences = []
    for s in range(1, n_sentences + 1):
        tokens = [Token(id=1, form="x0", upos="X", feats={}, head=0, deprel="root")]
        for e in range(edges):
            head_id, dep_id = 2 * e + 2, 2 * e + 3
            triple = Triple(
                head_pos=rng.choice(grammar.head_pos),
                relation=rng.choice(grammar.relations),
                dep_pos=rng.choice(grammar.dep_pos),
            )
            required = grammar.is_required(triple)
            head_feats: dict[str, str] = {}
            dep_feats: dict[str, str] = {}
            for spec in grammar.features:
                head_value = _sample_value(rng, spec)
                if required:
                    if grammar.noise_rate > 0.0 and rng.random() < grammar.noise_rate:
                        dep_value = _sample_value(rng, spec, exclude=head_value)
                    else:
                        dep_value = head_value
                else:
                    dep_value = _sample_value(rng, spec)
                head_feats[spec.name] = head_value
                dep_feats[spec.name] = dep_value
            tokens.append(
                Token(id=head_id, form=f"h{head_id}", upos=triple.head_pos,
                      feats=head_feats, head=1, deprel="link")
            )
            tokens.append(
                Token(id=dep_id, form=f"d{dep_id}", upos=triple.dep_pos,
                      feats=dep_feats, head=head_id, deprel=triple.relation)
            )
        sentences.append(Sentence(sent_id=f"synth-{s}", tokens=tuple(tokens)))
    return tuple(sentences)
