import pytest

from morphagree import (
    ExtractionConfig,
    Label,
    ThresholdMode,
    Triple,
    extract_feature_rules,
    label_triple,
)

from conftest import make_treebank

DET = Triple(head_pos="NOUN", relation="det", dep_pos="DET")


def _det_plus_subj_corpus() -> str:
    """det edges agree perfectly but only ever carry Fem; subj edges are a
    balanced Fem/Masc mix with 50% agreement."""
    blocks = []
    for _ in range(40):
        blocks.append(
            "1\tla\tel\tDET\t_\tGender=Fem\t2\tdet\t_\t_\n"
            "2\tcasa\tcasa\tNOUN\t_\tGender=Fem\t0\troot\t_\t_\n\n"
        )
    for i in range(80):
        head = "Fem" if i % 2 else "Masc"
        dep = head if i < 40 else ("Masc" if head == "Fem" else "Fem")
        blocks.append(
            f"1\tperro\tperro\tNOUN\t_\tGender={dep}\t2\tsubj\t_\t_\n"
            f"2\tcorre\tcorrer\tVERB\t_\tGender={head}\t0\troot\t_\t_\n\n"
        )
    return "".join(blocks)


def test_global_vs_per_leaf_marginals_can_flip_a_leaf():
    tb = make_treebank(_det_plus_subj_corpus())
    global_rules = extract_feature_rules(
        tb, "Gender", ExtractionConfig(features=("Gender",))
    ).ruleset
    per_leaf_rules = extract_feature_rules(
        tb, "Gender", ExtractionConfig(features=("Gender",), marginals_scope="per-leaf")
    ).ruleset
    # globally, Fem/Masc are roughly balanced, so 40/40 pure agreement on
    # det is strong evidence; locally the det leaf only ever sees Fem, so
    # its chance-agreement probability is 1 and nothing can beat it
    assert label_triple(global_rules, DET) is Label.REQUIRED
    assert label_triple(per_leaf_rules, DET) is Label.CHANCE


def test_hard_mode_sets_sentinel_stats():
    tb = make_treebank(_det_plus_subj_corpus())
    result = extract_feature_rules(
        tb,
        "Gender",
        ExtractionConfig(features=("Gender",), threshold_mode=ThresholdMode.HARD),
    )
    assert result.ruleset.threshold_mode is ThresholdMode.HARD
    assert all(
        v.chi2 is None and v.p_value is None and v.phi_c is None
        for v in result.verdicts
    )
    assert label_triple(result.ruleset, DET) is Label.REQUIRED


def test_absent_feature_yields_marker_not_ruleset():
    tb = make_treebank(_det_plus_subj_corpus())
    result = extract_feature_rules(tb, "Case", ExtractionConfig(features=("Case",)))
    assert result.absent
    assert result.ruleset is None and result.tree is None


def test_empty_dev_set_falls_back_to_cross_validation():
    tb = make_treebank(_det_plus_subj_corpus())
    # dev treebank with no Gender-bearing edge at all
    dev = make_treebank("1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n")
    result = extract_feature_rules(
        tb, "Gender", ExtractionConfig(features=("Gender",)), dev=dev
    )
    assert not result.absent
    assert label_triple(result.ruleset, DET) is Label.REQUIRED


def test_verdict_count_matches_leaf_count():
    tb = make_treebank(_det_plus_subj_corpus())
    result = extract_feature_rules(tb, "Gender", ExtractionConfig(features=("Gender",)))
    from morphagree import leaf_count

    assert len(result.verdicts) == leaf_count(result.tree)
    total = sum(r.n_agree + r.n_disagree for r in result.ruleset.rules)
    assert total == len(result.dataset.instances)
