import tracemalloc

import pytest

from morphagree import (
    FeatureDataset,
    Triple,
    chance_agreement_prob,
    extract_instances,
    parse_conllu_file,
    top_k_triples,
)
from morphagree.errors import EmptyMarginalsError
from morphagree.triples import AgreementInstance

from conftest import make_treebank


def _instance(triple: Triple, agree: bool = True):
    return AgreementInstance(
        triple=triple,
        head_value="Fem",
        dep_value="Fem" if agree else "Masc",
        agree=agree,
        provenance=("s", 1, 2),
    )


def test_subject_verb_number_edge_agrees(spanish_fig):
    tb = make_treebank(spanish_fig)
    dataset = extract_instances(tb, "Number")
    subj = [i for i in dataset.instances if i.triple.relation == "subj"]
    assert Triple(head_pos="VERB", relation="subj", dep_pos="NOUN") in {
        i.triple for i in subj
    }
    assert all(i.agree for i in subj)


def test_object_verb_edge_agrees_by_chance(spanish_fig):
    tb = make_treebank(spanish_fig)
    dataset = extract_instances(tb, "Number")
    obj = [i for i in dataset.instances if i.triple.relation == "comp:obj"]
    assert obj == [
        AgreementInstance(
            triple=Triple(head_pos="VERB", relation="comp:obj", dep_pos="NOUN"),
            head_value="Sing",
            dep_value="Sing",
            agree=True,
            provenance=("B.1", 3, 5),
        )
    ]


def test_edge_without_feature_on_one_side_is_filtered():
    tb = make_treebank(
        "1\tel\tel\tDET\t_\t_\t2\tdet\t_\t_\n"
        "2\tcasa\tcasa\tNOUN\t_\tGender=Fem\t0\troot\t_\t_\n"
    )
    assert extract_instances(tb, "Gender").instances == ()


def test_root_edges_excluded(spanish_fig):
    tb = make_treebank(spanish_fig)
    dataset = extract_instances(tb, "Number")
    # 9 tokens carry Number; 2 are roots; every non-root edge has both sides
    assert len(dataset.instances) == 7


def test_marginal_proportions_ninety_ten():
    lines = []
    for i in range(1, 10):
        lines.append(f"1\tw{i}\tw\tNOUN\t_\tNumber=Sing\t0\troot\t_\t_\n\n")
    lines.append("1\tws\tw\tNOUN\t_\tNumber=Plur\t0\troot\t_\t_\n")
    tb = make_treebank("".join(lines))
    counts = extract_instances(tb, "Number").value_marginals
    assert counts == {"Sing": 9, "Plur": 1}


def test_marginal_singleton():
    tb = make_treebank("1\ta\ta\tNOUN\t_\tGender=Fem\t0\troot\t_\t_\n")
    assert extract_instances(tb, "Gender").value_marginals == {"Fem": 1}


def test_marginals_hand_tally_fixture(gender_tally_path):
    # hand tally over tests/data/gender_tally.conllu, done before implementation
    dataset = extract_instances(parse_conllu_file(gender_tally_path), "Gender")
    assert dataset.value_marginals == {"Fem": 5, "Masc": 3, "Neut": 1}
    assert len(dataset.instances) == 6
    assert sum(i.agree for i in dataset.instances) == 1


def test_empty_marginals_error():
    # no token carries the feature: the chance model cannot be built
    tb = make_treebank("1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n")
    marginals = extract_instances(tb, "Gender").value_marginals
    assert marginals == {}
    with pytest.raises(EmptyMarginalsError):
        chance_agreement_prob(marginals, "Gender")


def test_instance_count_matches_independent_double_loop(gender_tally_path):
    tb = parse_conllu_file(gender_tally_path)
    feature = "Gender"
    expected = 0
    for sentence in tb.sentences:
        for token in sentence.tokens:
            if token.head == 0:
                continue
            head = sentence.tokens[token.head - 1]
            if feature in token.feats and feature in head.feats:
                expected += 1
    dataset = extract_instances(tb, feature)
    assert len(dataset.instances) == expected
    for inst in dataset.instances:
        assert inst.agree == (inst.head_value == inst.dep_value)


def test_extraction_is_deterministic(spanish_fig):
    tb = make_treebank(spanish_fig)
    assert extract_instances(tb, "Number") == extract_instances(tb, "Number")


def test_top_k_truncates_to_distinct_count():
    triples = [Triple("NOUN", f"rel{i}", "DET") for i in range(7)]
    dataset = FeatureDataset.from_instances(
        "Gender", [_instance(t) for t in triples]
    )
    assert len(top_k_triples(dataset, 20)) == 7


def test_top_k_tie_breaks_lexicographically():
    a = Triple(head_pos="NOUN", relation="det", dep_pos="DET")
    b = Triple(head_pos="NOUN", relation="conj", dep_pos="DET")
    dataset = FeatureDataset.from_instances(
        "Gender", [_instance(a), _instance(b)]
    )
    assert top_k_triples(dataset, 2) == [b, a]  # conj < det


def test_top_k_count_ordering():
    a = Triple(head_pos="NOUN", relation="det", dep_pos="DET")
    b = Triple(head_pos="NOUN", relation="subj", dep_pos="VERB")
    instances = [_instance(a)] * 100 + [_instance(b)] * 99
    dataset = FeatureDataset.from_instances("Gender", instances)
    assert top_k_triples(dataset, 2) == [a, b]


def test_multi_valued_feats_compared_verbatim():
    tb = make_treebank(
        "1\tlo\tél\tPRON\t_\tCase=Nom\t2\tsubj\t_\t_\n"
        "2\tve\tver\tVERB\t_\tCase=Nom,Acc\t0\troot\t_\t_\n"
    )
    dataset = extract_instances(tb, "Case")
    assert [(i.head_value, i.dep_value, i.agree) for i in dataset.instances] == [
        ("Nom,Acc", "Nom", False)
    ]
    assert dataset.value_marginals == {"Nom": 1, "Nom,Acc": 1}


def test_triple_table_matches_instances(gender_tally_path):
    dataset = extract_instances(parse_conllu_file(gender_tally_path), "Gender")
    first_seen = list(dict.fromkeys(i.triple for i in dataset.instances))
    assert list(dataset.triples) == first_seen
    for triple, group in dataset.triples.items():
        refs = [k for k, i in enumerate(dataset.instances) if i.triple == triple]
        agree = sum(dataset.instances[k].agree for k in refs)
        assert (group.triple, group.n_disagree, group.n_agree, group.refs) == (
            triple, len(refs) - agree, agree, refs
        )
    assert sorted(dataset.ranking) == sorted(first_seen)
    sizes = [dataset.triples[t].size for t in dataset.ranking]
    assert sizes == sorted(sizes, reverse=True)


def test_triple_is_an_ordered_named_tuple():
    a = Triple(head_pos="NOUN", relation="det", dep_pos="DET")
    assert repr(a) == "Triple(head_pos='NOUN', relation='det', dep_pos='DET')"
    assert a < Triple("NOUN", "det", "NOUN") < Triple("VERB", "amod", "ADJ")
    assert hash(a) == hash(Triple("NOUN", "det", "DET"))


def test_vocab_covers_all_instances(gender_tally_path):
    tb = parse_conllu_file(gender_tally_path)
    dataset = extract_instances(tb, "Gender")
    assert sum(dataset.value_marginals.values()) == 9


def test_instances_carry_no_per_object_dict():
    # a 5-field tuple: about 97 bytes per instance under tracemalloc, list
    # slot included, against about 137 for a dataclass without __slots__
    triple, provenance = Triple("NOUN", "det", "DET"), ("s", 1, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        instances = [
            AgreementInstance(triple, "Fem", "Masc", False, provenance) for _ in range(10_000)
        ]
        per_instance = (tracemalloc.get_traced_memory()[0] - before) / len(instances)
    finally:
        tracemalloc.stop()
    assert not hasattr(instances[0], "__dict__")
    assert per_instance < 110
