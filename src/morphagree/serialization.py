"""Versioned JSON persistence for rules and evaluation documents.

write_json writes every document in one canonical form: UTF-8, sorted
keys, two-space indent and a final newline, so identical runs produce
byte-identical files. It takes only what the loaders read back: exact
JSON types and finite numbers. Its emitter writes that form in one pass,
appending every piece of text once to one buffer and joining every few
thousand pieces into a chunk. The documents it is given are lean: rows
are literal dicts, and a rule's leaf ids and refs are its own tuples.

Reloading a rules document rebuilds each saved rule set the way extract
built it, by merging the tree's labeled leaves, so it has the saved
triple -> label behavior exactly. The loader checks JSON shape (types and
known names), that each chance model agrees with the counts it was
computed from, that each leaf verdict is the one the configured labeler
gives its leaf, and that the stored rules are the merged ones, as
rule_to_dict writes them; only their example refs are read from the
document.
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from functools import cached_property
from json.encoder import encode_basestring
from pathlib import Path

from .errors import InvalidRuleSetError, MalformedRulesError, MalformedScoresError
from .evaluation import EvalReport
from .labeling import (
    GATE_BOUNDS,
    ChanceModel,
    Constraint,
    Label,
    LabeledRule,
    LeafVerdict,
    RuleSet,
    ThresholdMode,
    chi_squared_gof,
    gated_verdict,
    label_leaf_hard,
)
from .pipeline import ExtractionConfig, FeatureRules
from .tree import SLOT_ORDER, DecisionTree, HyperParams, Internal, Leaf, SplitPredicate
from .triples import Triple, rank_triples

FORMAT_VERSION = "1"

# the JSON types a loaded field may have, matched exactly (true is no
# integer), and their name
_INT = ((int,), "an integer")
_NUMBER = ((int, float), "a number")
_STATISTIC = ((int, float, type(None)), "a number or null")
_STRING = ((str,), "a string")
_OBJECT = ((dict,), "an object")
_LIST = ((list,), "a list")
_BOOL = ((bool,), "a boolean")
_REQUIRED = object()


def _get(doc: dict, key: str, kind, default=_REQUIRED, choices=None):
    """doc[key], or default for a missing key when one is given, checked for
    its JSON type and, given choices, its value; else MalformedRulesError.
    JSON text may spell a float NaN, Infinity or 1e999, which the writers
    never do: a float must be finite."""
    value = doc[key] if default is _REQUIRED else doc.get(key, default)
    if type(value) not in kind[0]:
        raise MalformedRulesError(f"{key!r} must be {kind[1]}, not {type(value).__name__}")
    if type(value) is float and not math.isfinite(value):
        raise MalformedRulesError(f"{key!r} must be a finite number, not {value!r}")
    if choices is not None and value not in choices:
        raise MalformedRulesError(f"{key} {value!r} is not one of {', '.join(choices)}")
    return value


def _get_each(doc: dict, key: str, kind, container=_LIST, default=_REQUIRED):
    """_get of a list (or object) each of whose items (values) is of the
    kind's JSON types."""
    items = _get(doc, key, container, default)
    for at, item in items.items() if container is _OBJECT else enumerate(items):
        if type(item) not in kind[0]:
            raise MalformedRulesError(f"{key!r}[{at!r}] must be {kind[1]}")
        if type(item) is float and not math.isfinite(item):
            raise MalformedRulesError(f"{key!r}[{at!r}] must be a finite number, not {item!r}")
    return items


def _read_json(path: str | Path, error: type[Exception]):
    """The file's JSON value; text that is not UTF-8 or not JSON, or a value
    nested too deeply to read, raises error naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise error(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
            raise error(f"{path}: {exc}") from None


# pieces of text the emitter joins into one chunk
_CHUNK_PIECES = 4096


def _canonical_chunks(doc: dict) -> list[str]:
    """doc as json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2,
    allow_nan=False) writes it, plus a newline, as consecutive chunks of
    text.

    Given an indent, CPython up to 3.13 skips its C encoder for a slower
    generator. This emitter appends each piece of text once to one list;
    when a container closes with at least _CHUNK_PIECES pieces in the
    list, they are joined into a chunk and the list is emptied. So no
    container's text is copied into its parent's, and the whole text is
    never joined at once. A piece is final once appended, except a list's
    last comma, which becomes its closing bracket before any join. A value
    must be of the exact type dict, list, tuple, str, int, float, bool or
    None, and a key of the exact type str: anything else, a subclass too (a
    str-valued enum, a NamedTuple such as Triple), raises TypeError. A NaN
    or infinite float raises ValueError. Each key's '"key": ' text, with
    the separator before it, is built once per indent, and only an
    exact-str key reads it back."""
    chunks: list[str] = []
    out: list[str] = []
    append = out.append
    # per indent, each exact-str key's ',\n<indent>"key": '
    keys_at: dict[str, dict[str, str]] = {}

    def emit(value, newline: str) -> None:
        """Append value, a container indented at newline if it is one."""
        kind = type(value)
        if kind is str:
            append(encode_basestring(value))
        elif kind is int:
            append(int.__repr__(value))
        elif kind is dict:
            emit_dict(value, newline)
        elif kind is list or kind is tuple:
            emit_list(value, newline)
        elif kind is float:
            if not math.isfinite(value):
                raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
            append(float.__repr__(value))
        elif value is None:
            append("null")
        elif kind is bool:
            append("true" if value else "false")
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    def flush() -> None:
        chunks.append("".join(out))
        out.clear()

    def emit_list(items, newline: str) -> None:
        if not items:
            append("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        append("[" + inner)
        # strings and ints, most of a document's values, are written here
        # and in emit_dict without a call of emit
        for item in items:
            kind = type(item)
            if kind is str:
                append(encode_basestring(item))
            elif kind is int:
                append(int.__repr__(item))
            else:
                emit(item, inner)
            append(comma)
        # the last comma becomes the closing bracket
        out[-1] = newline + "]"
        if len(out) >= _CHUNK_PIECES:
            flush()

    def key_text(keys: dict[str, str], key, inner: str) -> str:
        """The ',<inner>"key": ' text of key, built and kept in keys."""
        if type(key) is not str:
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        text = keys[key] = "," + inner + encode_basestring(key) + ": "
        return text

    def emit_dict(doc: dict, newline: str) -> None:
        if not doc:
            append("{}")
            return
        inner = newline + "  "
        keys = keys_at.get(inner)
        if keys is None:
            keys = keys_at[inner] = {}
        ordered = iter(sorted(doc))
        key = next(ordered)
        append("{" + ((type(key) is str and keys.get(key)) or key_text(keys, key, inner))[1:])
        emit(doc[key], inner)
        for key in ordered:
            append((type(key) is str and keys.get(key)) or key_text(keys, key, inner))
            value = doc[key]
            kind = type(value)
            if kind is str:
                append(encode_basestring(value))
            elif kind is int:
                append(int.__repr__(value))
            else:
                emit(value, inner)
        append(newline + "}")
        if len(out) >= _CHUNK_PIECES:
            flush()

    emit(doc, "\n")
    append("\n")
    flush()
    return chunks


def write_json(doc: dict, path: str | Path) -> None:
    """Write doc in canonical form (see _canonical_chunks) to path as UTF-8.
    The whole text is emitted before the file is opened, so a value that
    is not of an exact JSON type raises TypeError, and a NaN or infinite
    float ValueError, and an existing file is left as it was."""
    chunks = _canonical_chunks(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _finite(value: float | None) -> float | None:
    return value if value is not None and math.isfinite(value) else None


# --- trees ---

def tree_node_to_dict(node) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": {"leaf_id": node.leaf_id, "n_agree": node.n_agree,
                         "n_disagree": node.n_disagree}}
    return {
        "split": {"slot": node.predicate.slot, "value": node.predicate.value},
        "match": tree_node_to_dict(node.match_child),
        "nomatch": tree_node_to_dict(node.nomatch_child),
    }


def tree_node_from_dict(doc: dict):
    if "leaf" in doc:
        leaf = _get(doc, "leaf", _OBJECT)
        return Leaf(*(_get(leaf, key, _INT) for key in ("leaf_id", "n_agree", "n_disagree")))
    split = _get(doc, "split", _OBJECT)
    slot = _get(split, "slot", _STRING, choices=SLOT_ORDER)
    return Internal(
        SplitPredicate(slot, _get(split, "value", _STRING)),
        tree_node_from_dict(_get(doc, "match", _OBJECT)),
        tree_node_from_dict(_get(doc, "nomatch", _OBJECT)),
    )


def tree_to_dict(tree: DecisionTree) -> dict:
    return {
        "feature": tree.feature,
        "training_size": tree.training_size,
        "hyperparams": {
            "criterion": tree.hyperparams.criterion,
            "max_depth": tree.hyperparams.max_depth,
            "min_impurity_decrease": tree.hyperparams.min_impurity_decrease,
        },
        "root": tree_node_to_dict(tree.root),
    }


def tree_from_dict(doc: dict) -> DecisionTree:
    hp = _get(doc, "hyperparams", _OBJECT)
    return DecisionTree(
        feature=_get(doc, "feature", _STRING),
        root=tree_node_from_dict(_get(doc, "root", _OBJECT)),
        hyperparams=HyperParams(_get(hp, "criterion", _STRING), _get(hp, "max_depth", _INT),
                                _get(hp, "min_impurity_decrease", _NUMBER)),
        training_size=_get(doc, "training_size", _INT),
    )


# --- rules ---

def _constraints_to_dict(constraints: dict[str, Constraint]) -> dict:
    return {slot: {"mode": c.mode, "values": sorted(c.values)}
            for slot, c in constraints.items() if not c.trivial}


def rule_to_dict(rule: LabeledRule) -> dict:
    return {
        "rule_id": rule.rule_id,
        "label": rule.label.value,
        "constraints": _constraints_to_dict(rule.constraints),
        "n_agree": rule.n_agree,
        "n_disagree": rule.n_disagree,
        "source_leaf_ids": rule.source_leaf_ids,
        "example_refs": rule.example_refs,
        "counterexample_refs": rule.counterexample_refs,
    }


_LABELS = [label.value for label in Label]


def _refs(doc: dict, key: str) -> tuple[tuple[str, int, int], ...]:
    refs = tuple(tuple(ref) for ref in _get_each(doc, key, _LIST, _LIST, []))
    if any(tuple(map(type, ref)) != (str, int, int) for ref in refs):
        raise MalformedRulesError(f"each item of {key!r} must be [sent_id, head id, dep id]")
    return refs


# the keys of a rule entry that merging the tree's labeled leaves fixes
_MERGED_KEYS = ("rule_id", "label", "constraints", "n_agree", "n_disagree", "source_leaf_ids")


def _checked_rule(entry: dict, rule: LabeledRule) -> LabeledRule:
    """rule, merged without refs, given entry's example and counterexample
    refs, once entry is checked to be rule as rule_to_dict writes it, refs
    aside; else MalformedRulesError naming the rule."""
    with _naming(f"rule {rule.rule_id}: "):
        # integers, not a boolean or a float equal to one
        for key in ("rule_id", "n_agree", "n_disagree"):
            _get(entry, key, _INT)
        _get_each(entry, "source_leaf_ids", _INT)
        written = {**rule_to_dict(rule), "source_leaf_ids": list(rule.source_leaf_ids)}
        for key in _MERGED_KEYS:
            if entry[key] != written[key]:
                raise MalformedRulesError(
                    f"{key!r} differs from the merge of the tree's labeled leaves")
        return rule._replace(example_refs=_refs(entry, "example_refs"),
                             counterexample_refs=_refs(entry, "counterexample_refs"))


def verdict_to_dict(verdict: LeafVerdict) -> dict:
    return {
        "leaf_id": verdict.leaf_id,
        "label": verdict.label.value,
        "agree_ratio": verdict.agree_ratio,
        "chi2": _finite(verdict.chi2),
        "p_value": _finite(verdict.p_value),
        "phi_c": _finite(verdict.phi_c),
    }


def verdict_from_dict(doc: dict) -> LeafVerdict:
    return LeafVerdict(
        leaf_id=_get(doc, "leaf_id", _INT),
        label=Label(_get(doc, "label", _STRING, choices=_LABELS)),
        agree_ratio=_get(doc, "agree_ratio", _STATISTIC),
        chi2=_get(doc, "chi2", _STATISTIC, None),
        p_value=_get(doc, "p_value", _STATISTIC, None),
        phi_c=_get(doc, "phi_c", _STATISTIC, None),
    )


def feature_rules_to_dict(result: FeatureRules) -> dict:
    if result.absent or result.ruleset is None:
        return {"absent": True}
    assert result.chance is not None
    dataset = result.dataset
    ranking = dataset.ranking if dataset is not None else ()
    return {
        "absent": False,
        "training_size": result.ruleset.training_size,
        "chance_model": {
            "p_chance": result.chance.p_chance,
            "value_probs": result.chance.value_probs,
        },
        "tree": tree_to_dict(result.ruleset.tree),
        "leaf_verdicts": [verdict_to_dict(v) for v in result.ruleset.verdicts],
        "rules": [rule_to_dict(r) for r in result.ruleset.rules],
        "training_triples": [
            {"relation": t.relation, "head_pos": t.head_pos, "dep_pos": t.dep_pos,
             "count": dataset.triples[t].size}
            for t in ranking
        ],
    }


def rules_document(
    results: dict[str, FeatureRules], config: ExtractionConfig, treebank_path: str
) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "treebank": treebank_path,
        "seed": config.seed,
        "params": {
            "threshold_mode": config.threshold_mode.value,
            "alpha": config.alpha,
            "phi_min": config.phi_min,
            "phi_sqrt": config.phi_sqrt,
            "hard_threshold": config.hard_threshold,
            "marginals_scope": config.marginals_scope,
            "depth_range": config.depth_range,
            "selection_metric": config.selection_metric,
            "features_requested": list(config.features),
        },
        "features": {
            feature: feature_rules_to_dict(result)
            for feature, result in results.items()
        },
    }


def _checked_chance_model(chance: ChanceModel) -> ChanceModel:
    """The chance model, unless its value_probs are not proportions in
    (0, 1] summing to 1 within 1e-9, or its p_chance is not their sum of
    squares within a relative 1e-9, as chance_agreement_prob computes both
    from counts."""
    probs = chance.value_probs
    for value, q in probs.items():
        if not 0 < q <= 1:
            raise MalformedRulesError(f"'value_probs'[{value!r}] {q!r} is not in (0, 1]")
    total = math.fsum(probs.values())
    if abs(total - 1) > 1e-9:
        raise MalformedRulesError(f"'value_probs' sum to {total!r}, not 1")
    sum_sq = math.fsum(q * q for q in probs.values())
    if abs(chance.p_chance - sum_sq) > 1e-9 * sum_sq:
        raise MalformedRulesError(
            f"'p_chance' {chance.p_chance!r} is not the sum of the squared 'value_probs', "
            f"{sum_sq:.9g}")
    return chance


def _check_verdicts(ruleset: RuleSet, config: ExtractionConfig, chance: ChanceModel) -> None:
    """Raise MalformedRulesError, naming the leaf and the first key that
    differs, unless each verdict is what config's labeler gives the leaf
    the ruleset pairs it with under the chance model, as verdict_to_dict
    writes both; a leaf with no instances is rejected first. Under
    statistical labeling a leaf is labeled once, by gated_verdict of its
    stored chi2 (null is +inf); a tested leaf's chi2 beyond a relative and
    an absolute 1e-9 of its counts' statistic under global marginals is
    replaced by it (extract computes it from p_chance's exact fraction,
    which is not stored). Under per-leaf marginals the leaf's own p_chance
    is not stored either, so a tested verdict's chi2 need only be at least
    0, its label pass the other gates, or be chance."""
    statistical = config.threshold_mode is ThresholdMode.STATISTICAL
    per_leaf = statistical and config.marginals_scope == "per-leaf"
    p_chance = None if per_leaf else chance.p_chance
    gates = config.alpha, config.phi_min, config.phi_sqrt
    for leaf, verdict in zip(ruleset.leaves, ruleset.verdicts):
        if leaf.size == 0:
            raise MalformedRulesError(f"leaf {leaf.leaf_id}: 'n_agree' and 'n_disagree' are 0")
        if not statistical:
            expected = label_leaf_hard(leaf, config.hard_threshold)
        else:
            chi2 = math.inf if verdict.chi2 is None else verdict.chi2  # written null
            if chi2 < 0:
                raise MalformedRulesError(f"leaf {leaf.leaf_id}: 'chi2' {chi2!r} is negative")
            expected = gated_verdict(leaf, chi2, p_chance, *gates)
            if per_leaf and verdict.label is Label.CHANCE:
                expected = expected._replace(label=Label.CHANCE)
            elif not per_leaf and expected.chi2 is not None:
                counted = chi_squared_gof((leaf.n_disagree, leaf.n_agree), chance)[0]
                if not math.isclose(chi2, counted, rel_tol=1e-9, abs_tol=1e-9):
                    expected = gated_verdict(leaf, counted, p_chance, *gates)
        # unequal verdicts may still be written alike: an infinite chi2 is written null
        if expected == verdict:
            continue
        written, stored = verdict_to_dict(expected), verdict_to_dict(verdict)
        if written != stored:
            key = next(key for key in written if written[key] != stored[key])
            raise MalformedRulesError(
                f"leaf {leaf.leaf_id}: {key!r} {stored[key]!r} is not {written[key]!r}, what "
                f"{config.threshold_mode.value} labeling gives it")


@contextmanager
def _naming(where: str):
    """Raise a fault in a rules document as MalformedRulesError whose
    message starts with where: the file, and the feature or the rule whose
    entry holds it. A container of the wrong type surfaces as TypeError or
    AttributeError, a tree nested too deeply as RecursionError."""
    try:
        yield
    except KeyError as exc:
        raise MalformedRulesError(f"{where}missing key {exc.args[0]!r}") from None
    except (TypeError, AttributeError, RecursionError, MalformedRulesError,
            InvalidRuleSetError) as exc:
        raise MalformedRulesError(f"{where}{exc}") from None


def _check_ranking(listed: list[tuple[Triple, int]], training_size: int) -> None:
    """Raise MalformedRulesError unless the (triple, count) pairs are what
    extract writes as training_triples: distinct triples, counts of at
    least 1 summing to training_size, in rank_triples order."""
    count_of: dict[Triple, int] = {}
    for triple, count in listed:
        if triple in count_of or count < 1:
            named = f"{triple.relation} {triple.head_pos} {triple.dep_pos}"
            raise MalformedRulesError(
                f"'training_triples' repeats the triple {named}" if triple in count_of
                else f"'count' {count} of {named} is less than 1")
        count_of[triple] = count
    total = sum(count_of.values())
    if total != training_size:
        raise MalformedRulesError(
            f"'training_triples' counts sum to {total}, not the 'training_size' {training_size}")
    if list(rank_triples(count_of)) != [t for t, _ in listed]:
        raise MalformedRulesError(
            "'training_triples' are not most frequent first, ties in relation, head_pos, "
            "dep_pos order")


class RulesDocument:
    """A loaded rules.json: per-feature rule sets plus training metadata.

    Every MalformedRulesError it raises names the file at path. Its params
    configure the labeler, whose threshold_mode it keeps, and must lie
    within GATE_BOUNDS, the ranges the CLI accepts. A feature entry raises
    one naming the feature too when it lacks a key the loader reads, holds
    a value of the wrong JSON type or an unknown name, gives a
    training_size other than its tree's, or holds a tree of another
    feature; when its tree and leaf verdicts cannot be merged into a
    RuleSet (see RuleSet); when its chance model contradicts the counts it
    comes from (see _checked_chance_model), or a leaf verdict is not what
    the labeler gives the leaf the RuleSet pairs it with under that model
    (see _check_verdicts), so that report never prints either; or when its
    rules are not, in order, what rule_to_dict writes for the merge of the
    tree's labeled leaves, refs aside (the message names the first rule
    and key that differ, see _checked_rule). The RuleSet is built with its
    constructor, not through merge_rules, so that a tracer of merge_rules
    counts extraction only; it keeps the document's refs, so it equals the
    one extract wrote. Its training_triples are checked alike, when they
    are first read (see _check_ranking).
    """

    def __init__(self, doc: dict, path: str | Path):
        self.path = path
        with _naming(f"{path}: "):
            if not isinstance(doc, dict):
                raise MalformedRulesError("rules document is not a JSON object")
            if doc.get("format_version") != FORMAT_VERSION:
                raise MalformedRulesError(
                    f"unsupported rules format_version {doc.get('format_version')!r}")
            self.raw = doc
            self.treebank: str = _get(doc, "treebank", _STRING, "")
            params = _get(doc, "params", _OBJECT, {})
            # the labeler's params, a missing one at its ExtractionConfig default
            config = ExtractionConfig(
                threshold_mode=ThresholdMode(_get(params, "threshold_mode", _STRING, "statistical",
                                                  [m.value for m in ThresholdMode])),
                marginals_scope=_get(params, "marginals_scope", _STRING, "global",
                                     ("global", "per-leaf")),
                **{key: _get(params, key, kind, ExtractionConfig._field_defaults[key])
                   for key, kind in (("hard_threshold", _NUMBER), ("alpha", _NUMBER),
                                     ("phi_min", _NUMBER), ("phi_sqrt", _BOOL))})
            for key, bounds in GATE_BOUNDS.items():
                value = getattr(config, key)
                if not bounds.holds(value):
                    raise MalformedRulesError(f"'{key}' {value!r} is not in {bounds}")
            features = _get_each(doc, "features", _OBJECT, _OBJECT, {})
        self.threshold_mode: ThresholdMode = config.threshold_mode
        self.rulesets: dict[str, RuleSet] = {}
        self.absent: set[str] = set()
        self.trees: dict[str, DecisionTree] = {}
        self.chance_models: dict[str, ChanceModel] = {}
        for feature, entry in features.items():
            with _naming(f"{path}: feature {feature!r}: "):
                self._load_feature(feature, entry, config)

    def _load_feature(self, feature: str, entry: dict, config: ExtractionConfig) -> None:
        if _get(entry, "absent", _BOOL, False):
            self.absent.add(feature)
            return
        tree = self.trees[feature] = tree_from_dict(_get(entry, "tree", _OBJECT))
        if tree.feature != feature:
            raise MalformedRulesError(f"the tree's 'feature' {tree.feature!r} is not {feature!r}")
        chance = _get(entry, "chance_model", _OBJECT)
        self.chance_models[feature] = _checked_chance_model(ChanceModel(
            feature=feature,
            value_probs=dict(_get_each(chance, "value_probs", _NUMBER, _OBJECT)),
            p_chance=_get(chance, "p_chance", _NUMBER),
        ))
        verdicts = tuple(map(verdict_from_dict, _get_each(entry, "leaf_verdicts", _OBJECT)))
        ruleset = RuleSet(tree, verdicts, config.threshold_mode)
        _check_verdicts(ruleset, config, self.chance_models[feature])
        entries = _get_each(entry, "rules", _OBJECT)
        if len(entries) != len(ruleset.rules):
            raise MalformedRulesError(
                f"'rules' lists {len(entries)} rules, not the {len(ruleset.rules)} of the merge "
                "of the tree's labeled leaves")
        # merged without the training dataset, the rules have no refs: each
        # takes its entry's
        ruleset.rules = tuple(map(_checked_rule, entries, ruleset.rules))
        self.rulesets[feature] = ruleset
        # RuleSet checked that the tree's training_size sums its leaf counts
        if _get(entry, "training_size", _INT) != tree.training_size:
            raise MalformedRulesError(
                f"'training_size' is not {tree.training_size}, the sum of the tree's leaf counts"
            )

    @cached_property
    def training_triples(self) -> dict[str, list[tuple[Triple, int]]]:
        """Each present feature's training triples and their counts, most
        frequent first. Only evaluate --top-k reads them, so they are read
        and checked (see _check_ranking) on first use, not when the
        document loads. A missing list reads as empty."""
        triples = {}
        for feature, ruleset in self.rulesets.items():
            with _naming(f"{self.path}: feature {feature!r}: "):
                listed = triples[feature] = [
                    (Triple(*(_get(t, slot, _STRING) for slot in Triple._fields)),
                     _get(t, "count", _INT))
                    for t in _get_each(self.raw["features"][feature], "training_triples",
                                       _OBJECT, _LIST, [])
                ]
                if listed:
                    _check_ranking(listed, ruleset.training_size)
        return triples

    @property
    def features(self) -> list[str]:
        return sorted(set(self.rulesets) | self.absent)


def load_rules(path: str | Path) -> RulesDocument:
    return RulesDocument(_read_json(path, MalformedRulesError), path)


# --- evaluation documents ---

def read_score_entries(path: str | Path) -> dict[str, dict]:
    """The per-feature entries of an eval or hrm document."""
    doc = _read_json(path, MalformedScoresError)
    entries = doc.get("features", {}) if isinstance(doc, dict) else None
    if not isinstance(entries, dict) or not all(isinstance(e, dict) for e in entries.values()):
        raise MalformedScoresError(f"{path}: 'features' is not an object of objects")
    return entries


def read_score(
    path: str | Path, entries: dict[str, dict], feature: str, key: str, nullable: bool = False
) -> float | None:
    """A feature's number under key; a missing key reads as null. A float
    must be finite, as in _get."""
    value = entries[feature].get(key)
    if type(value) is float and not math.isfinite(value):
        raise MalformedScoresError(
            f"{path}: feature {feature!r}: {key!r} must be a finite number, not {value!r}")
    if type(value) in (int, float) or (value is None and nullable):
        return value
    raise MalformedScoresError(f"{path}: feature {feature!r}: {key!r} is missing or not a number"
                               + (" or null" if nullable else ""))


def eval_report_to_dict(report: EvalReport, baseline: EvalReport | None = None) -> dict:
    return {
        "arm": report.arm,
        "n_triples": len(report.verdicts),
        "verdicts": [
            {
                "relation": v.triple.relation,
                "head_pos": v.triple.head_pos,
                "dep_pos": v.triple.dep_pos,
                "n_test": v.n_test,
                "q": v.q,
                "test_label": v.test_label.value,
                "tree_label": v.tree_label.value,
                "score": v.score,
            }
            for v in report.verdicts
        ],
        "baseline_arm": baseline.arm if baseline is not None else None,
    }
