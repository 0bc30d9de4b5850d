"""End-to-end check on a miniature Spanish-like corpus.

Sentences follow the pattern "DET NOUN ADJ VERB DET NOUN y NOUN" with real
concord: determiners and adjectives agree with their noun in gender and
number, the verb agrees with its subject in number, while objects and
conjuncts vary freely. The extracted rules must recover exactly that.
"""
import random

import pytest

from morphagree import (
    ExtractionConfig,
    Label,
    Triple,
    extract_feature_rules,
    label_triple,
)

from conftest import make_treebank

DETS = {("Fem", "Sing"): "la", ("Masc", "Sing"): "el",
        ("Fem", "Plur"): "las", ("Masc", "Plur"): "los"}
NOUNS = {("Fem", "Sing"): "casa", ("Masc", "Sing"): "perro",
         ("Fem", "Plur"): "casas", ("Masc", "Plur"): "perros"}
ADJS = {("Fem", "Sing"): "roja", ("Masc", "Sing"): "rojo",
        ("Fem", "Plur"): "rojas", ("Masc", "Plur"): "rojos"}
VERBS = {"Sing": "come", "Plur": "comen"}


def _token(i, form, upos, feats, head, deprel):
    feat_str = "|".join(f"{k}={v}" for k, v in sorted(feats.items())) or "_"
    return f"{i}\t{form}\t{form}\t{upos}\t_\t{feat_str}\t{head}\t{deprel}\t_\t_"


def _sentence(rng: random.Random, idx: int) -> str:
    def gn():
        return (
            "Fem" if rng.random() < 0.55 else "Masc",
            "Sing" if rng.random() < 0.6 else "Plur",
        )

    subj_g, subj_n = gn()
    obj_g, obj_n = gn()
    conj_g, conj_n = gn()
    lines = [f"# sent_id = mini-{idx}"]
    lines.append(_token(1, DETS[subj_g, subj_n], "DET",
                        {"Gender": subj_g, "Number": subj_n}, 2, "det"))
    lines.append(_token(2, NOUNS[subj_g, subj_n], "NOUN",
                        {"Gender": subj_g, "Number": subj_n}, 4, "subj"))
    lines.append(_token(3, ADJS[subj_g, subj_n], "ADJ",
                        {"Gender": subj_g, "Number": subj_n}, 2, "mod"))
    lines.append(_token(4, VERBS[subj_n], "VERB",
                        {"Number": subj_n, "Person": "3"}, 0, "root"))
    lines.append(_token(5, DETS[obj_g, obj_n], "DET",
                        {"Gender": obj_g, "Number": obj_n}, 6, "det"))
    lines.append(_token(6, NOUNS[obj_g, obj_n], "NOUN",
                        {"Gender": obj_g, "Number": obj_n}, 4, "comp:obj"))
    lines.append(_token(7, "y", "CCONJ", {}, 8, "cc"))
    lines.append(_token(8, NOUNS[conj_g, conj_n], "NOUN",
                        {"Gender": conj_g, "Number": conj_n}, 6, "conj"))
    return "\n".join(lines)


@pytest.fixture(scope="module")
def mini_spanish_rules():
    rng = random.Random(31)
    text = "\n\n".join(_sentence(rng, i) for i in range(1, 121)) + "\n"
    treebank = make_treebank(text)
    results = {}
    for feature in ("Gender", "Number", "Person"):
        results[feature] = extract_feature_rules(
            treebank, feature, ExtractionConfig(features=(feature,))
        )
    return results


def test_gender_concord_inside_the_noun_phrase(mini_spanish_rules):
    ruleset = mini_spanish_rules["Gender"].ruleset
    assert label_triple(ruleset, Triple("NOUN", "det", "DET")) is Label.REQUIRED
    assert label_triple(ruleset, Triple("NOUN", "mod", "ADJ")) is Label.REQUIRED
    assert label_triple(ruleset, Triple("NOUN", "conj", "NOUN")) is Label.CHANCE


def test_number_agreement_includes_subject_verb(mini_spanish_rules):
    ruleset = mini_spanish_rules["Number"].ruleset
    assert label_triple(ruleset, Triple("VERB", "subj", "NOUN")) is Label.REQUIRED
    assert label_triple(ruleset, Triple("NOUN", "det", "DET")) is Label.REQUIRED
    assert label_triple(ruleset, Triple("VERB", "comp:obj", "NOUN")) is Label.CHANCE
    assert label_triple(ruleset, Triple("NOUN", "conj", "NOUN")) is Label.CHANCE


def test_person_is_absent_without_two_sided_marking(mini_spanish_rules):
    # only the verb carries Person here, so no edge qualifies
    result = mini_spanish_rules["Person"]
    assert result.absent


def test_subtyped_relation_labels_kept_verbatim(mini_spanish_rules):
    dataset = mini_spanish_rules["Number"].dataset
    assert "comp:obj" in {t.relation for t in dataset.triples}
