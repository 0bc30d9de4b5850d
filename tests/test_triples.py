import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from morphagree import (
    DEFAULT_FEATURES,
    FeatureDataset,
    Triple,
    chance_agreement_prob,
    extract_instances,
    parse_conllu_file,
)
from morphagree.triples import rank_triples
from morphagree.conllu import Edge
from morphagree.errors import EmptyMarginalsError

from conftest import agrees, make_edge, make_treebank, six_feature_conllu
from oracles import parse_conllu_reference


def test_subject_verb_number_edge_agrees(spanish_fig):
    tb = make_treebank(spanish_fig)
    dataset = extract_instances(tb, "Number")
    subj = [i for i in dataset.instances if i.triple.relation == "subj"]
    assert Triple(head_pos="VERB", relation="subj", dep_pos="NOUN") in {
        i.triple for i in subj
    }
    assert all(agrees(i, "Number") for i in subj)


def test_object_verb_edge_agrees_by_chance(spanish_fig):
    tb = make_treebank(spanish_fig)
    dataset = extract_instances(tb, "Number")
    obj = [i for i in dataset.instances if i.triple.relation == "comp:obj"]
    assert obj == [
        Edge(
            triple=Triple(head_pos="VERB", relation="comp:obj", dep_pos="NOUN"),
            provenance=("B.1", 3, 5),
            head_feats={"Number": "Sing"},
            dep_feats={"Number": "Sing"},
        )
    ]
    assert dataset.instances.index(obj[0]) in dataset.triples[obj[0].triple].agreeing


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
    assert sum(group.n_agree for group in dataset.triples.values()) == 1


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
    with open(gender_tally_path, "rb") as fh:
        sentences = parse_conllu_reference(fh)
    for sentence in sentences:
        for token in sentence.tokens:
            if token.head == 0:
                continue
            head = sentence.tokens[token.head - 1]
            if feature in token.feats and feature in head.feats:
                expected += 1
    dataset = extract_instances(tb, feature)
    assert len(dataset.instances) == expected
    agreeing = {idx for group in dataset.triples.values() for idx in group.agreeing}
    assert [idx in agreeing for idx in range(expected)] == [
        agrees(i) for i in dataset.instances]


def test_extraction_is_deterministic(spanish_fig):
    tb = make_treebank(spanish_fig)
    assert extract_instances(tb, "Number") == extract_instances(tb, "Number")


def test_top_k_truncates_to_distinct_count():
    triples = [Triple("NOUN", f"rel{i}", "DET") for i in range(7)]
    dataset = FeatureDataset("Gender", tuple(make_edge(t, True) for t in triples))
    assert len(dataset.ranking[:20]) == 7


def test_top_k_tie_breaks_lexicographically():
    a = Triple(head_pos="NOUN", relation="det", dep_pos="DET")
    b = Triple(head_pos="NOUN", relation="conj", dep_pos="DET")
    dataset = FeatureDataset("Gender", (make_edge(a, True), make_edge(b, True)))
    assert dataset.ranking[:2] == (b, a)  # conj < det


def test_top_k_count_ordering():
    a = Triple(head_pos="NOUN", relation="det", dep_pos="DET")
    b = Triple(head_pos="NOUN", relation="subj", dep_pos="VERB")
    instances = [make_edge(a, True)] * 100 + [make_edge(b, True)] * 99
    dataset = FeatureDataset("Gender", tuple(instances))
    assert dataset.ranking[:2] == (a, b)


_slot_values = st.sampled_from(["a", "b", "c"])


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.builds(Triple, _slot_values, _slot_values, _slot_values),
                       st.integers(1, 3)))
def test_rank_triples_is_one_sort_on_the_composite_key(size_of):
    # sizes 1-3 over up to 27 triples: most sizes tie
    assert rank_triples(size_of) == tuple(sorted(
        size_of, key=lambda t: (-size_of[t], t.relation, t.head_pos, t.dep_pos)))


def test_multi_valued_feats_compared_verbatim():
    tb = make_treebank(
        "1\tlo\tél\tPRON\t_\tCase=Nom\t2\tsubj\t_\t_\n"
        "2\tve\tver\tVERB\t_\tCase=Nom,Acc\t0\troot\t_\t_\n"
    )
    dataset = extract_instances(tb, "Case")
    assert [(i.head_feats["Case"], i.dep_feats["Case"]) for i in dataset.instances] == [
        ("Nom,Acc", "Nom")
    ]
    assert [(g.agreeing, g.disagreeing) for g in dataset.triples.values()] == [((), [0])]
    assert dataset.value_marginals == {"Nom": 1, "Nom,Acc": 1}


def test_triple_table_matches_instances(gender_tally_path):
    dataset = extract_instances(parse_conllu_file(gender_tally_path), "Gender")
    first_seen = list(dict.fromkeys(i.triple for i in dataset.instances))
    assert list(dataset.triples) == first_seen
    for triple, group in dataset.triples.items():
        refs = [k for k, i in enumerate(dataset.instances) if i.triple == triple]
        agreeing = [k for k in refs if agrees(dataset.instances[k])]
        disagreeing = [k for k in refs if not agrees(dataset.instances[k])]
        # a side with no instance is the empty tuple
        assert (group.triple, group.n_disagree, group.n_agree, group.agreeing,
                group.disagreeing) == (triple, len(disagreeing), len(agreeing),
                                       agreeing or (), disagreeing or ())
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


def test_instances_are_the_treebanks_edge_records():
    tb = make_treebank(six_feature_conllu(50))
    entries = {id(edge) for edge in tb.edges.entries}
    for feature in DEFAULT_FEATURES:
        dataset = extract_instances(tb, feature)
        assert dataset.instances
        assert all(id(inst) in entries for inst in dataset.instances)


def test_extraction_keeps_few_bytes_per_instance():
    # what a dataset adds to the shared edge table: a tuple slot and its
    # index in one of its triple group's two lists. About 48 bytes per
    # instance here; a 5-field tuple per instance and feature kept about 136
    tb = make_treebank(six_feature_conllu(600))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        datasets = [extract_instances(tb, feature) for feature in DEFAULT_FEATURES]
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_instances = sum(len(d.instances) for d in datasets)
    assert n_instances == 6 * 600 * 14
    assert kept / n_instances <= 80


def test_parsed_treebank_keeps_few_bytes_per_token(tmp_path):
    # what a parse retains, its edge table included: the edges, each
    # sentence's forms and the shared FEATS dicts, about 161 bytes per token
    # here. A Token per line and a Sentence per sentence, kept beside the
    # edge table, came to about 258
    path = tmp_path / "train.conllu"
    path.write_text(six_feature_conllu(600), encoding="utf-8")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tb = parse_conllu_file(path)
        edges = tb.edges
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(edges.entries) == 600 * 14
    assert kept / tb.token_count <= 175


def test_file_parse_holds_no_copy_of_the_file(tmp_path):
    # streamed line by line: the parse's transient memory (its peak above
    # what the treebank retains) stays below the file's size. Reading the
    # whole file first held its bytes, the decoded text and a text buffer,
    # about six times the file's size
    path = tmp_path / "train.conllu"
    path.write_text(six_feature_conllu(600), encoding="utf-8")
    tracemalloc.start()
    try:
        tb = parse_conllu_file(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tb.token_count == 600 * 29
    assert peak - retained < path.stat().st_size
