import math
import random

import pytest

from morphagree import (
    AnnotationRecord,
    HumanLabel,
    Label,
    Triple,
    arm,
    baseline_arm,
    extract_instances,
    hrm,
    merge_rules,
    pearson,
    read_annotations,
)
from morphagree.errors import (
    EmptyAnnotationsError,
    FeatureMismatchError,
    LengthMismatchError,
    MalformedAnnotationsError,
    NoEvaluableTriplesError,
    ZeroVarianceError,
)
from morphagree.labeling import LeafVerdict
from morphagree.tree import DecisionTree, HyperParams, Leaf

from conftest import make_dataset, make_treebank

DET = Triple(head_pos="NOUN", relation="det", dep_pos="DET")
SUBJ = Triple(head_pos="VERB", relation="subj", dep_pos="NOUN")
OBJ = Triple(head_pos="VERB", relation="comp:obj", dep_pos="NOUN")


def universal_ruleset(label: Label, feature: str = "Gender"):
    """A one-rule set labeling every triple the same way."""
    tree = DecisionTree(
        feature=feature, root=Leaf(1, 1, 1), hyperparams=HyperParams(), training_size=2
    )
    return merge_rules(tree, [LeafVerdict(leaf_id=1, label=label, agree_ratio=0.5)])


def test_empirical_agreement_absent_triple():
    dataset = make_dataset([(DET, True)])
    assert SUBJ not in dataset.triples
    # an absent triple scores nothing, not a zero-agreement verdict
    report = arm(universal_ruleset(Label.CHANCE), dataset, [SUBJ, DET])
    assert [v.triple for v in report.verdicts] == [DET]


def test_empirical_agreement_ratio():
    dataset = make_dataset([(DET, True)] * 19 + [(DET, False)])
    group = dataset.triples[DET]
    assert (group.n_agree / group.size, group.size) == (0.95, 20)
    (verdict,) = arm(universal_ruleset(Label.CHANCE), dataset, [DET]).verdicts
    assert (verdict.q, verdict.n_test) == (0.95, 20)


def test_empirical_agreement_hand_counted_fixture():
    # 8 det edges written by hand, 7 agreeing
    blocks = []
    genders = ["Fem"] * 7 + ["Masc"]
    for g in genders:
        blocks.append(
            f"1\tla\tel\tDET\t_\tGender={g}\t2\tdet\t_\t_\n"
            "2\tcasa\tcasa\tNOUN\t_\tGender=Fem\t0\troot\t_\t_\n\n"
        )
    dataset = extract_instances(make_treebank("".join(blocks)), "Gender")
    group = dataset.triples[DET]
    assert (group.n_agree / group.size, group.size) == (0.875, 8)


def test_arm_perfect_fit_is_one():
    # all triples stay below tau, and the ruleset says chance everywhere
    dataset = make_dataset([(DET, True), (DET, False), (SUBJ, False)])
    report = arm(universal_ruleset(Label.CHANCE), dataset, [DET, SUBJ])
    assert report.arm == 1.0
    assert all(v.score == 1 for v in report.verdicts)


def test_arm_counts_mismatches():
    dataset = make_dataset([(DET, True)] * 20 + [(SUBJ, True), (SUBJ, False)])
    report = arm(universal_ruleset(Label.CHANCE), dataset, [DET, SUBJ])
    # DET has q = 1.0 > 0.95 -> required vs chance -> 0; SUBJ q = 0.5 -> 1
    assert report.arm == 0.5
    by_triple = {v.triple: v for v in report.verdicts}
    assert by_triple[DET].test_label is Label.REQUIRED
    assert by_triple[DET].score == 0
    assert by_triple[SUBJ].score == 1


def test_arm_requires_evaluable_triples():
    dataset = make_dataset([(DET, True)])
    with pytest.raises(NoEvaluableTriplesError):
        arm(universal_ruleset(Label.CHANCE), dataset, [SUBJ, OBJ])


def test_arm_excludes_absent_triples_from_denominator():
    dataset = make_dataset([(DET, True), (DET, False)])
    report = arm(universal_ruleset(Label.CHANCE), dataset, [DET, SUBJ])
    assert len(report.verdicts) == 1


def test_baseline_all_required_test_triples_scores_zero():
    dataset = make_dataset([(DET, True)] * 5 + [(SUBJ, True)] * 3)
    report = baseline_arm(dataset, [DET, SUBJ])
    assert report.arm == 0.0


def test_baseline_no_triple_above_tau_scores_one():
    dataset = make_dataset([(DET, True), (DET, False), (SUBJ, False)])
    assert baseline_arm(dataset, [DET, SUBJ]).arm == 1.0


def test_baseline_three_of_five():
    mod = Triple(head_pos="NOUN", relation="mod", dep_pos="ADJ")
    conj = Triple(head_pos="NOUN", relation="conj", dep_pos="NOUN")
    pairs = (
        [(DET, True)] * 10                       # q = 1.0   (> tau)
        + [(SUBJ, True)] * 20                    # q = 1.0   (> tau)
        + [(OBJ, True)] * 10 + [(OBJ, False)] * 10   # q = 0.5
        + [(mod, True)] * 19 + [(mod, False)]        # q = 0.95 (not > tau)
        + [(conj, False)] * 5                        # q = 0.0
    )
    dataset = make_dataset(pairs)
    report = baseline_arm(dataset, [DET, SUBJ, OBJ, mod, conj])
    assert report.arm == 0.6


def test_baseline_identity_property():
    rng = random.Random(4)
    for _ in range(30):
        triples = [
            Triple(head_pos=rng.choice("AB"), relation=f"r{i}", dep_pos="D")
            for i in range(rng.randint(1, 8))
        ]
        pairs = []
        for t in triples:
            n = rng.randint(1, 30)
            pairs.extend((t, rng.random() < 0.9) for _ in range(n))
        dataset = make_dataset(pairs)
        tau = 0.95
        report = baseline_arm(dataset, triples, tau=tau)
        frac_above = sum(v.q > tau for v in report.verdicts) / len(report.verdicts)
        assert math.isclose(report.arm + frac_above, 1.0, abs_tol=1e-12)


def test_all_test_triples_orders_by_frequency():
    dataset = make_dataset([(DET, True)] * 3 + [(SUBJ, True)] * 5)
    # evaluate --all scores the test triples in this order
    assert dataset.ranking == (SUBJ, DET)


# --- HRM ---

def _ann(triple, label, feature="Gender"):
    return AnnotationRecord(feature=feature, triple=triple, human_label=label)


def test_hrm_all_matching_annotations():
    ruleset = universal_ruleset(Label.CHANCE)
    records = [
        _ann(DET, HumanLabel.NEED_NOT),
        _ann(SUBJ, HumanLabel.SOMETIMES),
    ]
    score, details = hrm(ruleset, records)
    assert score == 1.0
    assert all(d.hs == 1 for d in details)


def test_hrm_sometimes_is_chance_in_strict_mode():
    ruleset = universal_ruleset(Label.REQUIRED)
    appos = Triple(head_pos="PROPN", relation="appos", dep_pos="PROPN")
    score, details = hrm(ruleset, [_ann(appos, HumanLabel.SOMETIMES)], strict=True)
    assert score == 0.0
    assert details[0].mapped_label is Label.CHANCE
    assert details[0].tree_label is Label.REQUIRED


def test_hrm_lenient_maps_sometimes_to_required():
    ruleset = universal_ruleset(Label.REQUIRED)
    appos = Triple(head_pos="PROPN", relation="appos", dep_pos="PROPN")
    score, _ = hrm(ruleset, [_ann(appos, HumanLabel.SOMETIMES)], strict=False)
    assert score == 1.0


def test_hrm_order_invariant():
    ruleset = universal_ruleset(Label.CHANCE)
    records = [
        _ann(DET, HumanLabel.ALMOST_ALWAYS),
        _ann(SUBJ, HumanLabel.NEED_NOT),
        _ann(OBJ, HumanLabel.SOMETIMES),
    ]
    forward, _ = hrm(ruleset, records)
    backward, _ = hrm(ruleset, list(reversed(records)))
    assert forward == backward


def test_hrm_errors():
    ruleset = universal_ruleset(Label.CHANCE)
    with pytest.raises(EmptyAnnotationsError):
        hrm(ruleset, [])
    with pytest.raises(FeatureMismatchError):
        hrm(ruleset, [_ann(DET, HumanLabel.NEED_NOT, feature="Case")])


def test_read_annotations(tmp_path):
    path = tmp_path / "ann.tsv"
    path.write_text(
        "feature\trelation\thead_pos\tdep_pos\tlabel\textra\n"
        "Gender\tdet\tNOUN\tDET\talmost_always\tignored\n"
        "Gender\tsubj\tVERB\tNOUN\t\t\n"  # blank label: still unannotated
        "Number\tconj\tNOUN\tNOUN\tneed_not\t\n",
        encoding="utf-8",
    )
    records = read_annotations(path)
    assert len(records) == 2
    assert records[0] == AnnotationRecord(
        feature="Gender", triple=DET, human_label=HumanLabel.ALMOST_ALWAYS
    )


def test_read_annotations_rejects_unknown_labels(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(
        "feature\trelation\thead_pos\tdep_pos\tlabel\n"
        "Gender\tdet\tNOUN\tDET\tmaybe\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedAnnotationsError,
                       match="line 2: unknown annotation label 'maybe'"):
        read_annotations(path)


def test_read_annotations_rejects_a_missing_column(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("feature\trelation\thead_pos\tlabel\n", encoding="utf-8")
    with pytest.raises(MalformedAnnotationsError,
                       match=r"missing annotation columns \['dep_pos'\]"):
        read_annotations(path)


def test_read_annotations_rejects_fully_blank(tmp_path):
    path = tmp_path / "blank.tsv"
    path.write_text(
        "feature\trelation\thead_pos\tdep_pos\tlabel\n"
        "Gender\tdet\tNOUN\tDET\t\n",
        encoding="utf-8",
    )
    with pytest.raises(EmptyAnnotationsError):
        read_annotations(path)


# --- Pearson ---

def test_pearson_identical_vectors():
    assert math.isclose(pearson([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]), 1.0, abs_tol=1e-12)


def test_pearson_negated():
    assert math.isclose(pearson([1.0, 2.0, 5.0], [-1.0, -2.0, -5.0]), -1.0, abs_tol=1e-12)


def test_pearson_hand_computed():
    # cov = 11, sd product = sqrt(5 * 26); checked against the stdlib
    import statistics

    xs, ys = [1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 5.0, 9.0]
    r = pearson(xs, ys)
    assert math.isclose(r, 11 / math.sqrt(130), abs_tol=1e-12)
    assert math.isclose(r, 0.9647638212377322, abs_tol=1e-12)
    assert math.isclose(r, statistics.correlation(xs, ys), abs_tol=1e-12)


def test_pearson_affine_invariance():
    rng = random.Random(2)
    for _ in range(20):
        xs = [rng.uniform(-5, 5) for _ in range(rng.randint(3, 30))]
        if max(xs) == min(xs):
            continue
        a, b = rng.uniform(0.1, 4.0), rng.uniform(-3, 3)
        assert math.isclose(pearson(xs, [a * x + b for x in xs]), 1.0, abs_tol=1e-9)


def test_pearson_errors():
    with pytest.raises(LengthMismatchError):
        pearson([1.0, 2.0], [1.0])
    with pytest.raises(LengthMismatchError):
        pearson([1.0], [1.0])
    with pytest.raises(ZeroVarianceError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ZeroVarianceError):
        pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
