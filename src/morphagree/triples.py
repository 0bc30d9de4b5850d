"""Dependency edges as feature-conditioned agreement instances.

Every edge whose head and dependent both carry a morphological feature
becomes one binary-labeled instance; tokens are characterized by UPOS only.
Root edges (head = 0) are excluded. The instances are not copies: a
FeatureDataset holds the treebank's own ``Edge`` records from its one
shared edge table (``Treebank.edges``), those feature_edges keeps. Each
feature costs one pass over the edges.

Each FeatureDataset carries its per-triple table, built once from its
instances: ``triples`` maps every distinct triple, in order of first
occurrence, to a TripleGroup holding the indices of its agreeing and of
its disagreeing instances, each in document order, and their counts. ``ranking`` lists the same triples in rank_triples order:
count descending, ties broken by (relation, head_pos, dep_pos). Tree
fitting, scoring, ARM, example refs and ``training_triples`` read this one
table; its two orders are what keep their outputs byte-stable. The
annotation sheet and the report build no dataset: they read
feature_edges of the edge table itself, and the sheet ranks its triples
by rank_triples too.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Sequence

from .conllu import Edge, Treebank, Triple

DEFAULT_FEATURES = ("Gender", "Person", "Number", "Mood", "Case", "Tense")


class TripleGroup:
    """All instances sharing one triple: the document-order indices of the
    agreeing and of the disagreeing ones, each a list, or the empty tuple
    when there are none, and their counts.

    Treated as read-only once built. A plain slotted class, because
    building it counts the lists.
    """

    __slots__ = ("triple", "agreeing", "disagreeing", "n_agree", "n_disagree", "size")

    def __init__(self, triple: Triple, agreeing: Sequence[int], disagreeing: Sequence[int]):
        self.triple = triple
        self.agreeing, self.disagreeing = agreeing, disagreeing
        self.n_agree, self.n_disagree = len(agreeing), len(disagreeing)
        self.size = self.n_agree + self.n_disagree


class FeatureDataset:
    """All agreement instances of one feature, plus corpus-level tallies and
    the per-triple table (see the module docstring). An instance agrees
    when its two values of the feature are equal.

    Treated as read-only once built; equal to another FeatureDataset with
    the same feature, instances and marginals. A plain slotted class,
    because building it computes the table.
    """

    __slots__ = ("feature", "instances", "value_marginals", "triples", "ranking")

    def __init__(self, feature: str, instances: tuple[Edge, ...],
                 value_marginals: dict[str, int] | None = None):
        # a side's list is made at its first instance, so that no group
        # holds an empty list for the cyclic garbage collector to track
        agreeing: dict[Triple, list[int]] = {}
        disagreeing: dict[Triple, list[int]] = {}
        first_seen: dict[Triple, None] = {}
        for idx, inst in enumerate(instances):
            side = agreeing if inst.head_feats[feature] == inst.dep_feats[feature] else disagreeing
            refs = side.get(inst.triple)
            if refs is None:
                side[inst.triple] = [idx]
                first_seen[inst.triple] = None
            else:
                refs.append(idx)
        self.feature = feature
        self.instances = instances
        self.value_marginals = {} if value_marginals is None else value_marginals
        self.triples = {t: TripleGroup(t, agreeing.get(t, ()), disagreeing.get(t, ()))
                        for t in first_seen}
        self.ranking = rank_triples({t: g.size for t, g in self.triples.items()})

    def _key(self) -> tuple:
        return self.feature, self.instances, self.value_marginals

    def __eq__(self, other):
        if other.__class__ is not FeatureDataset:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return "FeatureDataset(feature={!r}, instances={!r}, value_marginals={!r})".format(
            *self._key())


def feature_edges(treebank: Treebank, feature: str) -> tuple[Edge, ...]:
    """The edges of the treebank's edge table whose two tokens carry the
    feature, in document order: the feature's agreement instances."""
    return tuple([e for e in treebank.edges.entries
                  if feature in e.head_feats and feature in e.dep_feats])


def extract_instances(treebank: Treebank, feature: str) -> FeatureDataset:
    """Build the agreement dataset for one feature, in document order.

    Its instances are feature_edges; agreement is verbatim string equality
    of the two values, so a multi-valued entry such as ``Nom,Acc`` agrees
    only with ``Nom,Acc``. The value marginals, counted over every token,
    are summed from the edge table's per-FEATS token counts in order of
    first occurrence.
    """
    marginals: dict[str, int] = {}
    for feats, count in treebank.edges.feats_counts:
        value = feats.get(feature)
        if value is not None:
            marginals[value] = marginals.get(value, 0) + count
    return FeatureDataset(feature, feature_edges(treebank, feature), marginals)


_TIE_BREAK = attrgetter("relation", "head_pos", "dep_pos")


def rank_triples(size_of: dict[Triple, int]) -> tuple[Triple, ...]:
    """The triples of size_of by size descending, ties broken by (relation,
    head_pos, dep_pos). Two stable sorts with C-level keys: by the tie-break,
    then by size, where reverse=True keeps equal sizes in tie-break order."""
    return tuple(sorted(sorted(size_of, key=_TIE_BREAK), key=size_of.__getitem__, reverse=True))
