"""Versioned JSON persistence for rules and evaluation documents.

All documents are dumped in a canonical form (sorted keys, two-space
indent, UTF-8, trailing newline) so identical runs produce byte-identical
files. Reloading a rules document reconstructs the triple -> label
behavior of the saved rule sets exactly.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .errors import MalformedRulesError
from .evaluation import EvalReport
from .labeling import (
    ChanceModel,
    Constraint,
    Label,
    LabeledRule,
    LeafVerdict,
    RuleSet,
    ThresholdMode,
)
from .pipeline import ExtractionConfig, FeatureRules
from .tree import DecisionTree, HyperParams, Internal, Leaf, Slot, SplitPredicate
from .triples import Triple

FORMAT_VERSION = "1"


def dump_canonical(doc: dict) -> str:
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def write_json(doc: dict, path: str | Path) -> None:
    Path(path).write_text(dump_canonical(doc), encoding="utf-8")


def _finite(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return value


# --- trees ---

def tree_node_to_dict(node) -> dict:
    if isinstance(node, Leaf):
        return {
            "leaf": {
                "leaf_id": node.leaf_id,
                "n_agree": node.n_agree,
                "n_disagree": node.n_disagree,
            }
        }
    return {
        "split": {"slot": node.predicate.slot.value, "value": node.predicate.value},
        "match": tree_node_to_dict(node.match_child),
        "nomatch": tree_node_to_dict(node.nomatch_child),
    }


def tree_node_from_dict(doc: dict):
    if "leaf" in doc:
        leaf = doc["leaf"]
        return Leaf(
            leaf_id=leaf["leaf_id"],
            n_agree=leaf["n_agree"],
            n_disagree=leaf["n_disagree"],
        )
    return Internal(
        predicate=SplitPredicate(Slot(doc["split"]["slot"]), doc["split"]["value"]),
        match_child=tree_node_from_dict(doc["match"]),
        nomatch_child=tree_node_from_dict(doc["nomatch"]),
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
    hp = doc["hyperparams"]
    return DecisionTree(
        feature=doc["feature"],
        root=tree_node_from_dict(doc["root"]),
        hyperparams=HyperParams(
            criterion=hp["criterion"],
            max_depth=hp["max_depth"],
            min_impurity_decrease=hp["min_impurity_decrease"],
        ),
        training_size=doc["training_size"],
    )


# --- rules ---

def _constraints_to_dict(constraints: dict[Slot, Constraint]) -> dict:
    out = {}
    for slot, constraint in constraints.items():
        if constraint.trivial:
            continue
        out[slot.value] = {
            "mode": constraint.mode,
            "values": sorted(constraint.values),
        }
    return out


def _constraints_from_dict(doc: dict) -> dict[Slot, Constraint]:
    constraints = {slot: Constraint("not_in", frozenset()) for slot in Slot}
    for slot_name, entry in doc.items():
        mode, values = entry["mode"], entry["values"]
        if mode not in ("in", "not_in"):
            raise MalformedRulesError(f"constraint mode {mode!r} is not 'in' or 'not_in'")
        if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            raise MalformedRulesError(f"constraint values {values!r} are not a list of strings")
        constraints[Slot(slot_name)] = Constraint(mode, frozenset(values))
    return constraints


def rule_to_dict(rule: LabeledRule) -> dict:
    return {
        "rule_id": rule.rule_id,
        "label": rule.label.value,
        "constraints": _constraints_to_dict(rule.constraints),
        "n_agree": rule.n_agree,
        "n_disagree": rule.n_disagree,
        "source_leaf_ids": list(rule.source_leaf_ids),
        "example_refs": [list(r) for r in rule.example_refs],
        "counterexample_refs": [list(r) for r in rule.counterexample_refs],
    }


def rule_from_dict(doc: dict) -> LabeledRule:
    return LabeledRule(
        rule_id=doc["rule_id"],
        label=Label(doc["label"]),
        constraints=_constraints_from_dict(doc["constraints"]),
        n_agree=doc["n_agree"],
        n_disagree=doc["n_disagree"],
        source_leaf_ids=tuple(doc["source_leaf_ids"]),
        example_refs=tuple((s, h, d) for s, h, d in doc.get("example_refs", [])),
        counterexample_refs=tuple(
            (s, h, d) for s, h, d in doc.get("counterexample_refs", [])
        ),
    )


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
        leaf_id=doc["leaf_id"],
        label=Label(doc["label"]),
        agree_ratio=doc["agree_ratio"],
        chi2=doc.get("chi2"),
        p_value=doc.get("p_value"),
        phi_c=doc.get("phi_c"),
    )


def feature_rules_to_dict(result: FeatureRules) -> dict:
    if result.absent or result.ruleset is None:
        return {"absent": True}
    assert result.tree is not None and result.chance is not None
    dataset = result.dataset
    ranked = [dataset.triples[t] for t in dataset.ranking] if dataset is not None else []
    return {
        "absent": False,
        "training_size": result.ruleset.training_size,
        "chance_model": {
            "p_chance": result.chance.p_chance,
            "value_probs": result.chance.value_probs,
        },
        "tree": tree_to_dict(result.tree),
        "leaf_verdicts": [verdict_to_dict(v) for v in result.verdicts],
        "rules": [rule_to_dict(r) for r in result.ruleset.rules],
        "training_triples": [
            {**_triple_fields(g.triple), "count": g.size} for g in ranked
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


class RulesDocument:
    """A loaded rules.json: per-feature rule sets plus training metadata.

    A feature entry that lacks a key the loader reads, or holds a value of
    the wrong JSON type, raises MalformedRulesError naming the feature.
    """

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise MalformedRulesError("rules document is not a JSON object")
        if doc.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported rules format_version {doc.get('format_version')!r}"
            )
        self.raw = doc
        self.treebank: str = doc.get("treebank", "")
        self.params: dict = doc.get("params", {})
        self.rulesets: dict[str, RuleSet] = {}
        self.absent: set[str] = set()
        self.trees: dict[str, DecisionTree] = {}
        self.chance_models: dict[str, ChanceModel] = {}
        self.verdicts: dict[str, tuple[LeafVerdict, ...]] = {}
        self.training_triples: dict[str, list[tuple[Triple, int]]] = {}
        mode = ThresholdMode(self.params.get("threshold_mode", "statistical"))
        features = doc.get("features", {})
        if not isinstance(features, dict):
            raise MalformedRulesError("'features' is not a JSON object")
        for feature, entry in features.items():
            # the loader indexes the JSON directly; a missing key or a value
            # of the wrong type surfaces here as KeyError or TypeError
            try:
                self._load_feature(feature, entry, mode)
            except KeyError as exc:
                raise MalformedRulesError(
                    f"feature {feature!r}: missing key {exc.args[0]!r}"
                ) from None
            except (TypeError, AttributeError, MalformedRulesError) as exc:
                raise MalformedRulesError(f"feature {feature!r}: {exc}") from None

    def _load_feature(self, feature: str, entry: dict, mode: ThresholdMode) -> None:
        if entry.get("absent"):
            self.absent.add(feature)
            return
        self.trees[feature] = tree_from_dict(entry["tree"])
        chance = entry["chance_model"]
        self.chance_models[feature] = ChanceModel(
            feature=feature,
            value_probs=dict(chance["value_probs"]),
            p_chance=chance["p_chance"],
        )
        self.rulesets[feature] = RuleSet(
            feature=feature,
            rules=tuple(rule_from_dict(r) for r in entry["rules"]),
            threshold_mode=mode,
            training_size=entry["training_size"],
        )
        self.verdicts[feature] = tuple(
            verdict_from_dict(v) for v in entry.get("leaf_verdicts", [])
        )
        self.training_triples[feature] = [
            (
                Triple(
                    head_pos=t["head_pos"],
                    relation=t["relation"],
                    dep_pos=t["dep_pos"],
                ),
                t["count"],
            )
            for t in entry.get("training_triples", [])
        ]

    @property
    def features(self) -> list[str]:
        return sorted(set(self.rulesets) | self.absent)


def load_rules(path: str | Path) -> RulesDocument:
    with open(path, encoding="utf-8") as fh:
        return RulesDocument(json.load(fh))


# --- evaluation documents ---

def _triple_fields(triple: Triple) -> dict[str, Any]:
    return {
        "relation": triple.relation,
        "head_pos": triple.head_pos,
        "dep_pos": triple.dep_pos,
    }


def eval_report_to_dict(report: EvalReport, baseline: EvalReport | None = None) -> dict:
    entry: dict[str, Any] = {
        "arm": report.arm,
        "n_triples": len(report.verdicts),
        "verdicts": [
            {
                **_triple_fields(v.triple),
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
    return entry
