"""Correctness checks on a workload's outputs.

Each check yields (name, ok, detail); every failed check counts as one
failed operation in the benchmark's result.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from morphagree import Label, MorphagreeError, label_triple, predict_leaf, recovery_score
from morphagree.serialization import load_rules

from workloads import Workload, dedup

# statistical labeling cannot give a required verdict above this chance level
P_CHANCE_CEILING = 2 / 3
MIN_RECALL = 0.9


def digest(paths: list[Path]) -> str:
    """sha256 over the names and bytes of the given files, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def output_files(work: Path) -> dict[str, list[Path]]:
    """The files each command writes, keyed by output name."""
    return {
        "rules.json": [work / "rules.json"],
        "eval.json": [work / "eval.json"],
        "sheet.tsv": [work / "sheet.tsv"],
        "report": sorted((work / "report").glob("*.html")),
    }


def merge_equivalence(doc):
    """label_triple on the merged rules equals the verdict of the leaf that
    predict_leaf routes each training triple to."""
    for feature, ruleset in sorted(doc.rulesets.items()):
        tree = doc.trees[feature]
        verdict = {v["leaf_id"]: v["label"]
                   for v in doc.raw["features"][feature]["leaf_verdicts"]}
        bad = 0
        for triple, _ in doc.training_triples[feature]:
            try:
                label = label_triple(ruleset, triple).value
            except MorphagreeError:
                label = None
            bad += label != verdict[predict_leaf(tree, triple)]
        yield (f"merge-equivalence {feature}", bad == 0,
               f"{bad} of {len(doc.training_triples[feature])} training triples differ")


def arm_consistency(eval_doc: dict):
    """eval.json's ARM equals the mean of its per-triple scores."""
    for feature, entry in sorted(eval_doc["features"].items()):
        if entry.get("absent"):
            continue
        scores = [v["score"] for v in entry["verdicts"]]
        mean = sum(scores) / len(scores)
        yield (f"arm-consistency {feature}", mean == entry["arm"],
               f"arm {entry['arm']!r}, mean of {len(scores)} scores {mean!r}")


def planted_rules(doc, workload: Workload):
    """Planted-rule recovery over the distinct vocabulary: precision 1 and
    recall >= 0.9 below the chance ceiling, no required rule above it."""
    grammar = dedup(workload.grammar)
    for feature, ruleset in sorted(doc.rulesets.items()):
        p_chance = doc.chance_models[feature].p_chance
        if p_chance < P_CHANCE_CEILING:
            precision, recall = recovery_score(grammar, ruleset)
            ok = precision == 1.0 and recall is not None and recall >= MIN_RECALL
            detail = f"p_chance {p_chance:.3f}: precision {precision}, recall {recall}"
        else:
            required = sum(r.label is Label.REQUIRED for r in ruleset.rules)
            ok = required == 0
            detail = f"p_chance {p_chance:.3f} above ceiling: {required} required rules"
        yield f"planted-rules {feature}", ok, detail


def check_outputs(work: Path, workload: Workload, planted: bool):
    """All content checks on one set of outputs; the planted-rule check
    only if `planted` and the workload has it."""
    try:
        doc = load_rules(work / "rules.json")
        eval_doc = json.loads((work / "eval.json").read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, MorphagreeError) as exc:
        yield "load outputs", False, f"{type(exc).__name__}: {exc}"
        return
    yield from merge_equivalence(doc)
    yield from arm_consistency(eval_doc)
    if planted and workload.planted_check:
        yield from planted_rules(doc, workload)
