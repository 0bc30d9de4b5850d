from __future__ import annotations

import io
from pathlib import Path

import pytest

from morphagree import (
    FeatureSpec,
    PlantedGrammar,
    RulePattern,
    generate,
    parse_conllu,
    treebank_to_conllu,
)
from morphagree.conllu import Edge
from morphagree.triples import FeatureDataset

DATA_DIR = Path(__file__).parent / "data"


def make_treebank(text: str):
    return parse_conllu(io.BytesIO(text.encode("utf-8")))


# the six default features, with the benchmark's marginals
SIX_FEATURES = PlantedGrammar(
    features=(
        FeatureSpec("Gender", ("Fem", "Masc"), (0.55, 0.45)),
        FeatureSpec("Person", ("3", "1", "2"), (0.6, 0.25, 0.15)),
        FeatureSpec("Number", ("Sing", "Plur"), (0.7, 0.3)),
        FeatureSpec("Mood", ("Ind", "Sub", "Imp"), (0.85, 0.1, 0.05)),
        FeatureSpec("Case", ("Nom", "Acc", "Dat", "Gen"), (0.4, 0.3, 0.2, 0.1)),
        FeatureSpec("Tense", ("Pres", "Past", "Fut"), (0.5, 0.4, 0.1)),
    ),
    relations=("det", "amod", "nsubj", "obj", "case", "advmod", "obl", "nmod"),
    head_pos=("NOUN", "VERB", "ADJ", "PRON"),
    dep_pos=("NOUN", "DET", "ADJ", "PRON"),
    required_rules=(RulePattern(relation="det"), RulePattern(relation="amod", head_pos="NOUN")),
    noise_rate=0.02,
    seed=5,
)


def six_feature_conllu(n_sentences: int = 600) -> str:
    """A generated corpus of 29-token sentences carrying all six features."""
    return treebank_to_conllu(generate(SIX_FEATURES, n_sentences, 29))


def make_edge(triple, agree, provenance=("s", 1, 2), feature="Gender"):
    """An edge whose head is Fem and whose dependent is Fem or Masc."""
    return Edge(triple, provenance, {feature: "Fem"}, {feature: "Fem" if agree else "Masc"})


def agrees(edge, feature="Gender") -> bool:
    """Whether the edge's two values of the feature are equal, read from its
    FEATS rather than from a dataset's triple table."""
    return edge.head_feats[feature] == edge.dep_feats[feature]


def make_dataset(pairs, feature="Gender"):
    """Build a FeatureDataset from (triple, agree) pairs."""
    return FeatureDataset(feature, tuple(make_edge(t, a, feature=feature) for t, a in pairs))


@pytest.fixture
def spanish_fig() -> str:
    """The two running Spanish examples as SUD-style CoNLL-U."""
    return """\
# sent_id = A.1
# text = Los enigmas son fáciles
1\tLos\tel\tDET\t_\tNumber=Plur\t2\tdet\t_\t_
2\tenigmas\tenigma\tNOUN\t_\tNumber=Plur\t3\tsubj\t_\t_
3\tson\tser\tVERB\t_\tNumber=Plur\t0\troot\t_\t_
4\tfáciles\tfácil\tADJ\t_\tNumber=Plur\t3\tcomp:pred\t_\t_

# sent_id = B.1
# text = Mi hermano tiene un perro
1\tMi\tmi\tDET\t_\tNumber=Sing\t2\tdet\t_\t_
2\thermano\thermano\tNOUN\t_\tNumber=Sing\t3\tsubj\t_\t_
3\ttiene\ttener\tVERB\t_\tNumber=Sing\t0\troot\t_\t_
4\tun\tun\tDET\t_\tNumber=Sing\t5\tdet\t_\t_
5\tperro\tperro\tNOUN\t_\tNumber=Sing\t3\tcomp:obj\t_\t_
"""


@pytest.fixture
def gender_tally_path() -> Path:
    return DATA_DIR / "gender_tally.conllu"
