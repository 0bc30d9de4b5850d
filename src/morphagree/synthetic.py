"""Synthetic treebanks with planted agreement rules.

Generated corpora have known ground truth: edges covered by a planted rule
agree (up to an explicit noise rate), all other edges draw head and
dependent values independently from the declared marginals. Sentences are
flat: an anchor token holds the root and each sampled edge contributes a
head/dependent token pair, since linear order is irrelevant downstream.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .conllu import Sentence, Token, treebank_to_conllu  # noqa: F401 (public name)
from .errors import FeatureMismatchError, InvalidGrammarError
from .labeling import Label, RuleSet, label_triple
from .triples import Triple

WILDCARD = "*"


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    values: tuple[str, ...]
    marginals: tuple[float, ...]


@dataclass(frozen=True)
class RulePattern:
    """A planted required-agreement rule; '*' in a slot matches anything."""

    head_pos: str = WILDCARD
    relation: str = WILDCARD
    dep_pos: str = WILDCARD

    def covers(self, triple: Triple) -> bool:
        return (
            self.head_pos in (WILDCARD, triple.head_pos)
            and self.relation in (WILDCARD, triple.relation)
            and self.dep_pos in (WILDCARD, triple.dep_pos)
        )


@dataclass(frozen=True)
class PlantedGrammar:
    features: tuple[FeatureSpec, ...]
    relations: tuple[str, ...]
    head_pos: tuple[str, ...]
    dep_pos: tuple[str, ...]
    required_rules: tuple[RulePattern, ...] = ()
    noise_rate: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if not self.relations or not self.head_pos or not self.dep_pos:
            raise InvalidGrammarError("vocabularies must be non-empty")
        if not self.features:
            raise InvalidGrammarError("at least one feature must be declared")
        for spec in self.features:
            if len(spec.values) != len(spec.marginals) or not spec.values:
                raise InvalidGrammarError(
                    f"feature {spec.name!r}: values and marginals must align"
                )
            if any(p <= 0.0 for p in spec.marginals):
                raise InvalidGrammarError(f"feature {spec.name!r}: marginals must be > 0")
            if abs(sum(spec.marginals) - 1.0) > 1e-9:
                raise InvalidGrammarError(f"feature {spec.name!r}: marginals must sum to 1")
        if not 0.0 <= self.noise_rate < 0.5:
            raise InvalidGrammarError("noise_rate must lie in [0, 0.5)")
        for rule in self.required_rules:
            for value, vocab in (
                (rule.relation, self.relations),
                (rule.head_pos, self.head_pos),
                (rule.dep_pos, self.dep_pos),
            ):
                if value != WILDCARD and value not in vocab:
                    raise InvalidGrammarError(f"rule slot {value!r} not in vocabulary")

    def is_required(self, triple: Triple) -> bool:
        return any(rule.covers(triple) for rule in self.required_rules)

    def all_triples(self) -> list[Triple]:
        return [
            Triple(head_pos=h, relation=r, dep_pos=d)
            for h, r, d in product(self.head_pos, self.relations, self.dep_pos)
        ]


def _sample_value(rng: random.Random, spec: FeatureSpec, exclude: str | None = None) -> str:
    if exclude is None:
        return rng.choices(spec.values, weights=spec.marginals, k=1)[0]
    values = [v for v in spec.values if v != exclude]
    weights = [p for v, p in zip(spec.values, spec.marginals) if v != exclude]
    if not values:  # single-valued feature cannot disagree
        return exclude
    return rng.choices(values, weights=weights, k=1)[0]


def generate(
    grammar: PlantedGrammar, n_sentences: int, tokens_per_sentence: int = 3
) -> tuple[Sentence, ...]:
    """Generate a treebank's sentences, fully determined by the grammar's
    seed. ``treebank_to_conllu`` writes them, and
    ``Treebank.from_sentences`` parses what it writes.

    tokens_per_sentence must be odd and >= 3: one anchor plus head/dep
    pairs. Planted rules enforce agreement on every declared feature.
    """
    grammar.validate()
    if tokens_per_sentence < 3 or tokens_per_sentence % 2 == 0:
        raise InvalidGrammarError("tokens_per_sentence must be odd and >= 3")
    edges = (tokens_per_sentence - 1) // 2
    rng = random.Random(grammar.seed)
    sentences = []
    for s in range(1, n_sentences + 1):
        tokens = [Token(id=1, form="x0", upos="X", feats={}, head=0, deprel="root")]
        for e in range(edges):
            head_id, dep_id = 2 * e + 2, 2 * e + 3
            triple = Triple(
                head_pos=rng.choice(grammar.head_pos),
                relation=rng.choice(grammar.relations),
                dep_pos=rng.choice(grammar.dep_pos),
            )
            required = grammar.is_required(triple)
            head_feats: dict[str, str] = {}
            dep_feats: dict[str, str] = {}
            for spec in grammar.features:
                head_value = _sample_value(rng, spec)
                if required:
                    if grammar.noise_rate > 0.0 and rng.random() < grammar.noise_rate:
                        dep_value = _sample_value(rng, spec, exclude=head_value)
                    else:
                        dep_value = head_value
                else:
                    dep_value = _sample_value(rng, spec)
                head_feats[spec.name] = head_value
                dep_feats[spec.name] = dep_value
            tokens.append(
                Token(id=head_id, form=f"h{head_id}", upos=triple.head_pos,
                      feats=head_feats, head=1, deprel="link")
            )
            tokens.append(
                Token(id=dep_id, form=f"d{dep_id}", upos=triple.dep_pos,
                      feats=dep_feats, head=head_id, deprel=triple.relation)
            )
        sentences.append(Sentence(sent_id=f"synth-{s}", tokens=tuple(tokens)))
    return tuple(sentences)


def recovery_score(
    grammar: PlantedGrammar, extracted: RuleSet
) -> tuple[float | None, float | None]:
    """Precision/recall of required labels over all concrete vocabulary
    triples, against planted-rule membership. None marks 0/0 cases."""
    if extracted.feature not in {spec.name for spec in grammar.features}:
        raise FeatureMismatchError(
            f"feature {extracted.feature!r} is not declared by the grammar"
        )
    planted = predicted = hits = 0
    for triple in grammar.all_triples():
        is_planted = grammar.is_required(triple)
        is_predicted = label_triple(extracted, triple) is Label.REQUIRED
        planted += is_planted
        predicted += is_predicted
        hits += is_planted and is_predicted
    precision = hits / predicted if predicted else None
    recall = hits / planted if planted else None
    return precision, recall
