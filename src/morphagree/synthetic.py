"""Synthetic treebanks with planted agreement rules.

Generated corpora have known ground truth: edges covered by a planted rule
agree (up to an explicit noise rate), all other edges draw head and
dependent values independently from the declared marginals. Sentences are
flat: an anchor token holds the root and each sampled edge contributes a
head/dependent token pair, since linear order is irrelevant downstream.
"""
from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate, chain, product

from .conllu import Sentence, Token, _gc_paused, treebank_to_conllu  # noqa: F401 (public name)
from .errors import FeatureMismatchError, InvalidGrammarError
from .labeling import Label, RuleSet, label_triple
from .triples import Triple

WILDCARD = "*"

# characters that end a CoNLL-U column, and those plus the ones that end a
# FEATS name or value
_COLUMN_BREAKS = "\t\r\n"
_FEATS_BREAKS = _COLUMN_BREAKS + "|="


def _check_text(kind: str, text: str, breaks: str) -> None:
    """Raise if ``text`` is empty or holds one of ``breaks``: the written
    corpus would read back as something else."""
    if not text:
        raise InvalidGrammarError(f"{kind} is empty")
    for char in breaks:
        if char in text:
            raise InvalidGrammarError(f"{kind} {text!r} holds {char!r}")


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
        names = [spec.name for spec in self.features]
        if len(set(names)) < len(names):
            repeated = next(name for name in names if names.count(name) > 1)
            raise InvalidGrammarError(f"feature {repeated!r} is declared twice")
        # each distinct entry once: the vocabularies may repeat entries
        # to weight them
        for entry in dict.fromkeys(chain(self.head_pos, self.relations, self.dep_pos)):
            _check_text("vocabulary entry", entry, _COLUMN_BREAKS)
        for spec in self.features:
            _check_text("feature name", spec.name, _FEATS_BREAKS)
            for value in dict.fromkeys(spec.values):
                _check_text(f"feature {spec.name!r}: value", value, _FEATS_BREAKS)
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


def _draw_table(values, weights) -> tuple[tuple[str, ...], list, float, int]:
    """``(values, cum, total, hi)``, from which ``values[bisect(cum,
    rng.random() * total, 0, hi)]`` draws what ``rng.choices(values,
    weights)[0]`` would, from the same one ``random()``."""
    cum = list(accumulate(weights))
    return tuple(values), cum, cum[-1] + 0.0, len(cum) - 1


def generate(
    grammar: PlantedGrammar, n_sentences: int, tokens_per_sentence: int = 3
) -> tuple[Sentence, ...]:
    """Generate a treebank's sentences, fully determined by the grammar's
    seed. ``treebank_to_conllu`` writes them, and
    ``Treebank.from_sentences`` parses what it writes.

    tokens_per_sentence must be odd and >= 3: one anchor plus head/dep
    pairs. Planted rules enforce agreement on every declared feature.

    Each edge draws its head POS, relation and dependent POS, each index
    the way ``Random.choice`` draws it: ``getrandbits(k)`` for the
    vocabulary's bit length k, drawn again while it is not below the
    vocabulary's length. Then it draws per feature the head's value and,
    unless a planted rule covers the triple, the dependent's: each value
    takes one ``random()`` through the cumulative-weight bisection
    ``Random.choices`` uses. On a covered triple the dependent copies the
    head's value, unless, with a noise rate, one more ``random()`` makes it
    draw from the feature's other values (a single-valued feature has none
    and draws nothing). So a seed gives the same bytes on every supported
    Python; the oracle test in ``tests/test_synthetic.py`` checks this
    against a reference that calls ``rng.choice`` and ``rng.choices``, and
    CI runs it on Python 3.10-3.13. Tokens with equal values share one
    read-only FEATS dict, as parsed tokens do.
    """
    grammar.validate()
    if tokens_per_sentence < 3 or tokens_per_sentence % 2 == 0:
        raise InvalidGrammarError("tokens_per_sentence must be odd and >= 3")
    rng = random.Random(grammar.seed)
    bits, draw = rng.getrandbits, rng.random
    new = tuple.__new__
    names = tuple(spec.name for spec in grammar.features)
    # per feature: its unrestricted draw table, and per value the table of
    # the other values (None for a single-valued feature, which cannot
    # disagree and so draws nothing)
    tables = []
    for spec in grammar.features:
        excluded = {}
        for value in dict.fromkeys(spec.values):
            others = [(v, p) for v, p in zip(spec.values, spec.marginals) if v != value]
            excluded[value] = _draw_table(*zip(*others)) if others else None
        tables.append((_draw_table(spec.values, spec.marginals), excluded))
    noise_rate = grammar.noise_rate
    # each vocabulary with its length n and bit length k
    heads, relations, deps = grammar.head_pos, grammar.relations, grammar.dep_pos
    n_heads, n_relations, n_deps = len(heads), len(relations), len(deps)
    k_heads, k_relations, k_deps = (n_heads.bit_length(), n_relations.bit_length(),
                                    n_deps.bit_length())
    required_of: dict[tuple[str, str, str], bool] = {}
    shared: dict[tuple[str, ...], dict[str, str]] = {}  # values -> their FEATS dict
    anchor = Token(1, "x0", "X", {}, 0, "root")
    # (head id, head form, dep id, dep form) of each edge
    slots = [(2 * e + 2, f"h{2 * e + 2}", 2 * e + 3, f"d{2 * e + 3}")
             for e in range((tokens_per_sentence - 1) // 2)]
    sentences = []
    with _gc_paused():  # tokens, tuples and FEATS dicts make no cycles
        for s in range(1, n_sentences + 1):
            tokens = [anchor]
            for head_id, head_form, dep_id, dep_form in slots:
                # Random.choice's index draws, inlined
                i = bits(k_heads)
                while i >= n_heads:
                    i = bits(k_heads)
                head_pos = heads[i]
                i = bits(k_relations)
                while i >= n_relations:
                    i = bits(k_relations)
                relation = relations[i]
                i = bits(k_deps)
                while i >= n_deps:
                    i = bits(k_deps)
                dep_pos = deps[i]
                shape = (head_pos, relation, dep_pos)
                required = required_of.get(shape)
                if required is None:
                    required = required_of[shape] = grammar.is_required(Triple(*shape))
                head_values = []
                dep_values = []
                for (values, cum, total, hi), excluded in tables:
                    head_value = values[bisect(cum, draw() * total, 0, hi)]
                    if not required:
                        dep_value = values[bisect(cum, draw() * total, 0, hi)]
                    elif noise_rate > 0.0 and draw() < noise_rate and excluded[head_value]:
                        others, ocum, ototal, ohi = excluded[head_value]
                        dep_value = others[bisect(ocum, draw() * ototal, 0, ohi)]
                    else:
                        dep_value = head_value
                    head_values.append(head_value)
                    dep_values.append(dep_value)
                key = tuple(head_values)
                head_feats = shared.get(key)
                if head_feats is None:
                    head_feats = shared[key] = dict(zip(names, key))
                key = tuple(dep_values)
                dep_feats = shared.get(key)
                if dep_feats is None:
                    dep_feats = shared[key] = dict(zip(names, key))
                tokens.append(new(Token, (head_id, head_form, head_pos, head_feats, 1, "link")))
                tokens.append(new(Token, (dep_id, dep_form, dep_pos, dep_feats, head_id,
                                          relation)))
            sentences.append(new(Sentence, (f"synth-{s}", tuple(tokens))))
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
