"""Dependency edges as feature-conditioned agreement instances.

Every edge whose head and dependent both carry a morphological feature
becomes one binary-labeled instance; tokens are characterized by UPOS only.
Root edges (head = 0) are excluded. The instances are not copies: a
FeatureDataset holds the treebank's own ``Edge`` records from its one
shared edge table (``Treebank.edges``), filtered by the feature, plus an
``agree`` byte per instance. Each feature costs one pass over the edges.

Each FeatureDataset carries its per-triple table, built once from its
instances: ``triples`` maps every distinct triple, in order of first
occurrence, to a TripleGroup holding its disagree and agree counts and the
indices of its instances in document order. ``ranking`` lists the same
triples in rank_triples order: count descending, ties broken by (relation,
head_pos, dep_pos). Tree fitting, scoring, ARM and ``training_triples``
read this one table; its two orders are what keep their outputs
byte-stable. The annotation sheet and the report build no dataset: they
read the edge table itself, and the sheet ranks its triples by
rank_triples too.
"""
from __future__ import annotations

from operator import attrgetter

from .conllu import Edge, Treebank, Triple

DEFAULT_FEATURES = ("Gender", "Person", "Number", "Mood", "Case", "Tense")


class TripleGroup:
    """All instances sharing one triple: counts and document-order indices.

    Treated as read-only once built. A plain slotted class, because the
    table is built one instance at a time.
    """

    __slots__ = ("triple", "n_disagree", "n_agree", "refs")

    def __init__(self, triple: Triple, n_disagree: int, n_agree: int):
        self.triple = triple
        self.n_disagree = n_disagree
        self.n_agree = n_agree
        self.refs: list[int] = []

    @property
    def size(self) -> int:
        return self.n_disagree + self.n_agree


class FeatureDataset:
    """All agreement instances of one feature, plus corpus-level tallies, the
    per-triple table (see the module docstring) and ``agree[i]``, 1 when
    instance i's two values of the feature are equal.

    Treated as read-only once built; equal to another FeatureDataset with
    the same feature, instances and marginals. A plain slotted class,
    because building it computes the table.
    """

    __slots__ = ("feature", "instances", "value_marginals", "agree", "triples", "ranking")

    def __init__(self, feature: str, instances: tuple[Edge, ...],
                 value_marginals: dict[str, int] | None = None):
        agree = bytearray(len(instances))
        triples: dict[Triple, TripleGroup] = {}
        for idx, inst in enumerate(instances):
            group = triples.get(inst.triple)
            if group is None:
                group = triples[inst.triple] = TripleGroup(inst.triple, 0, 0)
            if inst.head_feats[feature] == inst.dep_feats[feature]:
                agree[idx] = 1
                group.n_agree += 1
            else:
                group.n_disagree += 1
            group.refs.append(idx)
        self.feature = feature
        self.instances = instances
        self.value_marginals = {} if value_marginals is None else value_marginals
        self.agree = bytes(agree)
        self.triples = triples
        self.ranking = rank_triples({t: g.n_agree + g.n_disagree for t, g in triples.items()})

    def _key(self) -> tuple:
        return self.feature, self.instances, self.value_marginals

    def __eq__(self, other):
        if other.__class__ is not FeatureDataset:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return "FeatureDataset(feature={!r}, instances={!r}, value_marginals={!r})".format(
            *self._key())


def extract_instances(treebank: Treebank, feature: str) -> FeatureDataset:
    """Build the agreement dataset for one feature, in document order.

    An edge of the treebank's edge table is an instance only when both
    endpoints carry the feature; agreement is verbatim string equality of
    the two values, so a multi-valued entry such as ``Nom,Acc`` agrees only
    with ``Nom,Acc``. The value marginals, counted over every token, are
    summed from the table's per-FEATS token counts in order of first
    occurrence.
    """
    edges = treebank.edges
    instances = tuple(
        e for e in edges.entries if feature in e.head_feats and feature in e.dep_feats
    )
    marginals: dict[str, int] = {}
    for feats, count in edges.feats_counts:
        value = feats.get(feature)
        if value is not None:
            marginals[value] = marginals.get(value, 0) + count
    return FeatureDataset(feature, instances, marginals)


_TIE_BREAK = attrgetter("relation", "head_pos", "dep_pos")


def rank_triples(size_of: dict[Triple, int]) -> tuple[Triple, ...]:
    """The triples of size_of by size descending, ties broken by (relation,
    head_pos, dep_pos). Two stable sorts with C-level keys: by the tie-break,
    then by size, where reverse=True keeps equal sizes in tie-break order."""
    return tuple(sorted(sorted(size_of, key=_TIE_BREAK), key=size_of.__getitem__, reverse=True))


def top_k_triples(dataset: FeatureDataset, k: int) -> list[Triple]:
    """The k most frequent triples of the dataset's ranking (see
    rank_triples)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return list(dataset.ranking[:k])
