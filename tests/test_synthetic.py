import hashlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from morphagree import (
    ExtractionConfig,
    FeatureSpec,
    Label,
    PlantedGrammar,
    RulePattern,
    Treebank,
    Triple,
    extract_feature_rules,
    extract_instances,
    generate,
    merge_rules,
    parse_conllu,
    recovery_score,
    treebank_to_conllu,
)
from morphagree import synthetic
from morphagree.errors import FeatureMismatchError, InvalidGrammarError
from morphagree.labeling import LeafVerdict
from morphagree.tree import DecisionTree, HyperParams, Internal, Leaf, SplitPredicate

from conftest import agrees, six_feature_conllu
from oracles import generate_reference, parse_conllu_reference


def simple_grammar(**overrides):
    kwargs = dict(
        features=(FeatureSpec("Gender", ("Fem", "Masc"), (0.9, 0.1)),),
        relations=("det", "subj"),
        head_pos=("NOUN", "VERB"),
        dep_pos=("DET", "ADJ"),
        required_rules=(),
        noise_rate=0.0,
        seed=0,
    )
    kwargs.update(overrides)
    return PlantedGrammar(**kwargs)


def test_generation_is_deterministic_under_seed():
    g = simple_grammar(seed=5)
    assert generate(g, 50, 5) == generate(g, 50, 5)
    assert generate(g, 50, 5) != generate(simple_grammar(seed=6), 50, 5)


def test_generated_treebank_round_trips_through_conllu():
    g = simple_grammar(seed=2, required_rules=(RulePattern(relation="det"),))
    sentences = generate(g, 30, 5)
    text = treebank_to_conllu(sentences).encode("utf-8")
    # every column of every token, as the token-by-token reference reads it
    assert parse_conllu_reference(io.BytesIO(text)) == sentences
    reparsed = parse_conllu(io.BytesIO(text))
    tb = Treebank.from_sentences(sentences)
    assert reparsed == tb
    assert extract_instances(reparsed, "Gender") == extract_instances(tb, "Gender")
    # synthetic re-exports the writer
    assert synthetic.treebank_to_conllu is treebank_to_conllu


def test_generated_bytes_are_pinned():
    # the benchmark's reference rules.json and the tests' fixed seeds rely on
    # these bytes
    digest = hashlib.sha256(six_feature_conllu(600).encode("utf-8")).hexdigest()
    assert digest == "8097c6181316ab4a8321da3f27550a3548d4af83b6675897ac27d6bd5f642d40"


def _slot(vocab):
    return st.sampled_from((synthetic.WILDCARD,) + vocab)


@st.composite
def _grammars(draw):
    features = []
    for name in ("Gender", "Number", "Case", "Mood")[:draw(st.integers(1, 4))]:
        values = draw(st.lists(st.sampled_from(("Fem", "Masc", "Neut", "Com", "Sing")),
                               min_size=1, max_size=5, unique=True))
        weights = draw(st.lists(st.integers(1, 1000), min_size=len(values),
                                max_size=len(values)))
        total = sum(weights)
        features.append(FeatureSpec(name, tuple(values), tuple(w / total for w in weights)))
    # repeated entries, as the benchmark's Zipf-weighted vocabularies have
    vocab = st.lists(st.sampled_from(("a", "b", "c")), min_size=1, max_size=4).map(tuple)
    relations, head_pos, dep_pos = draw(vocab), draw(vocab), draw(vocab)
    rules = draw(st.lists(st.builds(RulePattern, _slot(head_pos), _slot(relations),
                                    _slot(dep_pos)), max_size=3))
    noise_rate = draw(st.just(0.0) | st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    return PlantedGrammar(tuple(features), relations, head_pos, dep_pos, tuple(rules),
                          noise_rate, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(_grammars(), st.integers(0, 30), st.sampled_from((3, 5, 7, 9)))
def test_generate_equals_the_choices_reference(grammar, n_sentences, tokens_per_sentence):
    sentences = generate(grammar, n_sentences, tokens_per_sentence)
    reference = generate_reference(grammar, n_sentences, tokens_per_sentence)
    assert sentences == reference
    assert treebank_to_conllu(sentences) == treebank_to_conllu(reference)


def test_generated_tokens_share_one_feats_dict_per_value_combination():
    sentences = generate(simple_grammar(seed=4), 50, 9)
    dicts = {id(t.feats): t.feats for s in sentences for t in s.tokens}
    # Fem/Masc on the tokens of edges, {} on the anchors
    assert sorted(map(tuple, (d.items() for d in dicts.values()))) == [
        (), (("Gender", "Fem"),), (("Gender", "Masc"),)]


def test_required_edges_always_agree_without_noise():
    g = simple_grammar(required_rules=(RulePattern(relation="det"),), seed=3)
    tb = Treebank.from_sentences(generate(g, 2000, 3))
    dataset = extract_instances(tb, "Gender")
    det = [i for i in dataset.instances if i.triple.relation == "det"]
    assert det and all(agrees(i) for i in det)


def test_noise_rate_violates_required_edges_at_expected_rate():
    g = simple_grammar(
        required_rules=(RulePattern(relation="det"),), noise_rate=0.1, seed=3
    )
    tb = Treebank.from_sentences(generate(g, 5000, 3))
    dataset = extract_instances(tb, "Gender")
    det = [i for i in dataset.instances if i.triple.relation == "det"]
    ratio = sum(agrees(i) for i in det) / len(det)
    assert 0.87 < ratio < 0.93


def test_chance_edges_converge_to_sum_of_squared_marginals():
    # marginals 0.9/0.1: chance agreement 0.82, the worked number example
    g = simple_grammar(seed=11)
    tb = Treebank.from_sentences(generate(g, 25000, 5))  # 50k edges
    dataset = extract_instances(tb, "Gender")
    by_triple: dict[Triple, list[bool]] = {}
    for inst in dataset.instances:
        by_triple.setdefault(inst.triple, []).append(agrees(inst))
    assert len(by_triple) == 8
    for flags in by_triple.values():
        assert abs(sum(flags) / len(flags) - 0.82) < 0.02


def test_generated_marginals_track_declared_distribution():
    g = simple_grammar(seed=9)
    tb = Treebank.from_sentences(generate(g, 5000, 3))
    counts = extract_instances(tb, "Gender").value_marginals
    total = sum(counts.values())
    assert abs(counts["Fem"] / total - 0.9) < 0.02


def test_grammar_validation():
    with pytest.raises(InvalidGrammarError):
        simple_grammar(noise_rate=0.5).validate()
    with pytest.raises(InvalidGrammarError):
        simple_grammar(
            features=(FeatureSpec("Gender", ("Fem",), (0.9,)),)
        ).validate()
    with pytest.raises(InvalidGrammarError):
        simple_grammar(required_rules=(RulePattern(relation="nope"),)).validate()
    with pytest.raises(InvalidGrammarError):
        generate(simple_grammar(), 10, 4)  # even token count


def test_recovery_exact_match():
    g = simple_grammar(
        features=(FeatureSpec("Gender", ("Fem", "Masc", "Neut"), (0.6, 0.3, 0.1)),),
        required_rules=(RulePattern(relation="det"),),
        seed=1,
    )
    tb = Treebank.from_sentences(generate(g, 3000, 3))
    result = extract_feature_rules(tb, "Gender", ExtractionConfig(features=("Gender",)))
    assert recovery_score(g, result.ruleset) == (1.0, 1.0)


def test_recovery_all_chance_ruleset():
    g = simple_grammar(required_rules=(RulePattern(relation="det"),))
    tree = DecisionTree("Gender", Leaf(1, 1, 1), HyperParams(), 2)
    ruleset = merge_rules(
        tree, [LeafVerdict(leaf_id=1, label=Label.CHANCE, agree_ratio=0.5)]
    )
    assert recovery_score(g, ruleset) == (None, 0.0)


def test_recovery_half_recall_for_undersplit_ruleset():
    g = simple_grammar(
        required_rules=(
            RulePattern(head_pos="NOUN", relation="det", dep_pos="DET"),
            RulePattern(head_pos="VERB", relation="subj", dep_pos="ADJ"),
        )
    )
    # handmade ruleset that only found the det rule
    root = Internal(SplitPredicate("relation", "det"), Leaf(1, 9, 0), Leaf(2, 5, 5))
    tree = DecisionTree("Gender", root, HyperParams(), 19)
    ruleset = merge_rules(
        tree,
        [
            LeafVerdict(leaf_id=1, label=Label.REQUIRED, agree_ratio=1.0),
            LeafVerdict(leaf_id=2, label=Label.CHANCE, agree_ratio=0.5),
        ],
    )
    precision, recall = recovery_score(g, ruleset)
    # "relation=det" covers 4 of 8 vocabulary triples; one of them planted
    assert recall == 0.5
    assert precision == 0.25


def test_recovery_feature_mismatch():
    g = simple_grammar()
    tree = DecisionTree("Case", Leaf(1, 1, 1), HyperParams(), 2)
    ruleset = merge_rules(
        tree, [LeafVerdict(leaf_id=1, label=Label.CHANCE, agree_ratio=0.5)]
    )
    with pytest.raises(FeatureMismatchError):
        recovery_score(g, ruleset)


def test_wildcard_rules_cover_all_matching_triples():
    g = simple_grammar(required_rules=(RulePattern(relation="det"),))
    covered = [t for t in g.all_triples() if g.is_required(t)]
    assert len(covered) == 4  # 2 head_pos x 2 dep_pos
    assert all(t.relation == "det" for t in covered)
