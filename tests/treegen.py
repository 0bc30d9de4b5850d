"""Random fit-shaped labeled trees for merge-equivalence testing."""
from __future__ import annotations

import random

from morphagree.labeling import Label, LeafVerdict
from morphagree.tree import (
    SLOT_ORDER,
    DecisionTree,
    HyperParams,
    Internal,
    Leaf,
    SplitPredicate,
    leaves,
)
from morphagree.triples import Triple

VOCAB = {
    "relation": ("det", "subj", "obj", "mod", "conj"),
    "head_pos": ("NOUN", "VERB", "ADJ"),
    "dep_pos": ("DET", "NOUN", "ADV"),
}


def random_labeled_tree(
    rng: random.Random, max_depth: int = 4, p_leaf: float = 0.35, dead_branches: bool = False
) -> tuple[DecisionTree, list[LeafVerdict]]:
    """A structurally consistent random tree plus random leaf labels.

    Consistency mirrors fitted trees: a pinned slot is never re-tested and
    excluded values are never re-excluded, so every branch is satisfiable.
    With dead_branches, a slot pinned by a match may be tested again on any
    of its values, so one side of that test admits no triple: fit never
    builds such trees, but merge_rules and RuleSet accept them.
    """
    counter = [0]

    def build(depth, available, pinned):
        candidates = [
            (slot, value)
            for slot in SLOT_ORDER
            if slot not in pinned
            for value in available[slot]
        ]
        if dead_branches:
            candidates += [(slot, value) for slot in sorted(pinned) for value in VOCAB[slot]]
        if depth >= max_depth or not candidates or rng.random() < p_leaf:
            counter[0] += 1
            n_agree = rng.randint(0, 5)
            n_disagree = rng.randint(0, 5)
            if n_agree + n_disagree == 0:
                n_agree = 1
            return Leaf(counter[0], n_agree, n_disagree)
        slot, value = candidates[rng.randrange(len(candidates))]
        nomatch_available = dict(available)
        nomatch_available[slot] = tuple(v for v in available[slot] if v != value)
        match = build(depth + 1, dict(available), pinned | {slot})
        nomatch = build(depth + 1, nomatch_available, pinned)
        return Internal(SplitPredicate(slot, value), match, nomatch)

    root = build(0, dict(VOCAB), frozenset())
    tree = DecisionTree(
        feature="Gender",
        root=root,
        hyperparams=HyperParams(),
        training_size=sum(l.n_agree + l.n_disagree for l in leaves_of(root)),
    )
    verdicts = [
        LeafVerdict(
            leaf_id=leaf.leaf_id,
            label=Label.REQUIRED if rng.random() < 0.5 else Label.CHANCE,
            agree_ratio=leaf.agree_ratio,
        )
        for leaf in leaves(tree)
    ]
    return tree, verdicts


def leaves_of(node):
    if isinstance(node, Leaf):
        return [node]
    return leaves_of(node.match_child) + leaves_of(node.nomatch_child)


def random_triple(rng: random.Random) -> Triple:
    def pick(slot):
        values = VOCAB[slot] + (f"unseen-{slot}",)
        return rng.choice(values)

    return Triple(
        head_pos=pick("head_pos"),
        relation=pick("relation"),
        dep_pos=pick("dep_pos"),
    )
