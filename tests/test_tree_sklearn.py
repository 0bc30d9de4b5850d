"""Cross-check the tree induction against scikit-learn, when available.

One-hot encoding of the three triple slots makes sklearn's CART search the
same candidate-split space with the same weighted impurity-decrease rule,
so training accuracy and leaf counts must agree. Exactly tied splits are
broken in different orders (sklearn shuffles feature order per
random_state), so each configuration is accepted when it matches sklearn
under any of a handful of random states.
"""
import random

import pytest

np = pytest.importorskip("numpy")
sklearn_tree = pytest.importorskip("sklearn.tree")

from morphagree import HyperParams, Triple, fit, leaf_count
from conftest import agrees, make_dataset
from oracles import METRICS


def _one_hot(dataset):
    cols = []
    for slot in ("relation", "head_pos", "dep_pos"):
        for v in sorted({getattr(i.triple, slot) for i in dataset.instances}):
            cols.append((slot, v))
    X = np.zeros((len(dataset.instances), len(cols)))
    for r, inst in enumerate(dataset.instances):
        for c, (slot, v) in enumerate(cols):
            X[r, c] = getattr(inst.triple, slot) == v
    y = np.array([int(agrees(inst, dataset.feature)) for inst in dataset.instances])
    return X, y


def _random_dataset(seed):
    rng = random.Random(seed)
    rels = [f"r{i}" for i in range(rng.randint(2, 6))]
    hps = ["NOUN", "VERB", "ADJ", "PROPN"][: rng.randint(2, 4)]
    dps = ["DET", "NOUN", "ADV"][: rng.randint(2, 3)]
    pairs = []
    for _ in range(rng.randint(100, 500)):
        t = Triple(rng.choice(hps), rng.choice(rels), rng.choice(dps))
        pairs.append((t, rng.random() < rng.choice([0.3, 0.5, 0.8, 0.95])))
    return make_dataset(pairs)


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@pytest.mark.parametrize("depth", [3, 6, 15])
def test_matches_sklearn_accuracy_and_leaf_count(criterion, depth):
    for seed in range(30):
        dataset = _random_dataset(seed)
        X, y = _one_hot(dataset)
        mine = fit(dataset, HyperParams(criterion, depth, 1e-3))
        acc_mine = METRICS["accuracy"](mine, dataset.triples.values())
        leaves_mine = leaf_count(mine)
        matched = False
        candidates = []
        for random_state in range(4):
            sk = sklearn_tree.DecisionTreeClassifier(
                criterion=criterion,
                max_depth=depth,
                min_impurity_decrease=1e-3,
                random_state=random_state,
            ).fit(X, y)
            candidates.append((sk.score(X, y), sk.get_n_leaves()))
            if abs(acc_mine - candidates[-1][0]) < 1e-12 and leaves_mine == candidates[-1][1]:
                matched = True
                break
        assert matched, (
            f"seed {seed}: ({acc_mine}, {leaves_mine}) not among sklearn's {candidates}"
        )
