"""Dependency edges as feature-conditioned agreement instances.

Every edge whose head and dependent both carry a morphological feature
becomes one binary-labeled instance; tokens are characterized by UPOS only.
Root edges (head = 0) are excluded. ``extract_instances`` reads the
treebank's edge table (``Treebank.edges``), built once per treebank, so
each feature costs one pass over the edges rather than over the tokens.

Each FeatureDataset carries its per-triple table, built once from its
instances: ``triples`` maps every distinct triple, in order of first
occurrence, to a TripleGroup holding its disagree and agree counts and the
indices of its instances in document order. ``ranking`` lists the same
triples by count descending, ties broken by (relation, head_pos, dep_pos).
Tree fitting, scoring, ARM, ``training_triples``, the annotation sheet and
the report all read this one table; its two orders are what keep their
outputs byte-stable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .conllu import Treebank, _gc_paused

DEFAULT_FEATURES = ("Gender", "Person", "Number", "Mood", "Case", "Tense")


class Triple(NamedTuple):
    """The ⟨head POS, relation, dependent POS⟩ shape of one dependency edge."""

    head_pos: str
    relation: str
    dep_pos: str


class TripleGroup:
    """All instances sharing one triple: counts and document-order indices.

    Treated as read-only once built. A plain slotted class, because split
    search reads these attributes in its innermost loop.
    """

    __slots__ = ("triple", "n_disagree", "n_agree", "refs")

    def __init__(
        self, triple: Triple, n_disagree: int, n_agree: int, refs: list[int] | None = None
    ):
        self.triple = triple
        self.n_disagree = n_disagree
        self.n_agree = n_agree
        self.refs = [] if refs is None else refs

    @property
    def size(self) -> int:
        return self.n_disagree + self.n_agree


class AgreementInstance(NamedTuple):
    """One dependency edge of a feature dataset; the feature is the dataset's."""

    triple: Triple
    head_value: str
    dep_value: str
    agree: bool
    provenance: tuple[str, int, int]  # (sent_id, head token id, dep token id)


@dataclass(frozen=True)
class FeatureDataset:
    """All agreement instances of one feature, plus corpus-level tallies and
    the per-triple table (see the module docstring)."""

    feature: str
    instances: tuple[AgreementInstance, ...]
    value_marginals: dict[str, int] = field(default_factory=dict)
    triples: dict[Triple, TripleGroup] = field(init=False, repr=False, compare=False)
    ranking: tuple[Triple, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        triples: dict[Triple, TripleGroup] = {}
        for idx, inst in enumerate(self.instances):
            group = triples.get(inst.triple)
            if group is None:
                group = triples[inst.triple] = TripleGroup(inst.triple, 0, 0)
            if inst.agree:
                group.n_agree += 1
            else:
                group.n_disagree += 1
            group.refs.append(idx)
        ranking = sorted(
            triples, key=lambda t: (-triples[t].size, t.relation, t.head_pos, t.dep_pos)
        )
        object.__setattr__(self, "triples", triples)
        object.__setattr__(self, "ranking", tuple(ranking))

    @classmethod
    def from_instances(
        cls,
        feature: str,
        instances: list[AgreementInstance] | tuple[AgreementInstance, ...],
        value_marginals: dict[str, int] | None = None,
    ) -> "FeatureDataset":
        return cls(feature, tuple(instances), dict(value_marginals or {}))


def extract_instances(treebank: Treebank, feature: str) -> FeatureDataset:
    """Build the agreement dataset for one feature, in document order.

    An edge contributes an instance only when both endpoints carry the
    feature; agreement is verbatim string equality of the two values, so a
    multi-valued entry such as ``Nom,Acc`` agrees only with ``Nom,Acc``.
    Reads the treebank's edge table: instances of one shape share one
    Triple, and the value marginals, counted over every token, are summed
    from its per-FEATS token counts in order of first occurrence.
    """
    instances: list[AgreementInstance] = []
    triples: dict[tuple[str, str, str], Triple] = {}
    edges = treebank.edges
    # The loop allocates only acyclic tuples; pausing the cyclic GC for it
    # cut GSD-scale `extract` by ~10% and `annotation-sheet` by ~30%.
    # tuple.__new__ skips the NamedTuple constructor's Python-level frame.
    with _gc_paused():
        for shape, provenance, head_feats, dep_feats in edges.entries:
            head_value = head_feats.get(feature)
            if head_value is None:
                continue
            dep_value = dep_feats.get(feature)
            if dep_value is None:
                continue
            triple = triples.get(shape)
            if triple is None:
                triple = triples[shape] = Triple(*shape)
            instances.append(tuple.__new__(
                AgreementInstance, (triple, head_value, dep_value, head_value == dep_value, provenance)
            ))
    marginals: dict[str, int] = {}
    for feats, count in edges.feats_counts:
        value = feats.get(feature)
        if value is not None:
            marginals[value] = marginals.get(value, 0) + count
    return FeatureDataset.from_instances(feature, instances, marginals)


def top_k_triples(dataset: FeatureDataset, k: int) -> list[Triple]:
    """Most frequent triples, count-descending; ties broken lexicographically
    by (relation, head_pos, dep_pos)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return list(dataset.ranking[:k])
