from __future__ import annotations

import io
from pathlib import Path

import pytest

from morphagree import parse_conllu
from morphagree.triples import AgreementInstance, FeatureDataset

DATA_DIR = Path(__file__).parent / "data"


def make_treebank(text: str):
    return parse_conllu(io.StringIO(text))


def make_dataset(pairs, feature="Gender"):
    """Build a FeatureDataset from (triple, agree) pairs."""
    instances = [
        AgreementInstance(
            triple=t,
            head_value="Fem",
            dep_value="Fem" if agree else "Masc",
            agree=agree,
            provenance=("s", 1, 2),
        )
        for t, agree in pairs
    ]
    return FeatureDataset.from_instances(feature, instances)


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
