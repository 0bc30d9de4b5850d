"""Null control on the benchmark's grammars with every planted rule removed.

With no rule planted, every required rule is a false positive. The
benchmark's GSD and wide-dev grammars (read from perfbench/workloads.py by
file path, so nothing there is imported as a package) each generate 1,000
sentences of 29 tokens for seeds 7, 8 and 9, and extract runs with its
defaults over the six features: 36 feature runs in all. One of them gives
one required rule (wide-dev, seed 8, Case: a leaf of 26 agreeing in 39
where p_chance is 0.3, a chance extreme the tree picked out of 80
relations); the bound stays at that one.
"""
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

from morphagree import ExtractionConfig, Label, Treebank, extract_feature_rules, generate

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
MAX_REQUIRED = 1


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_grammars_without_planted_rules_give_at_most_one_required_rule(monkeypatch):
    workloads = _workloads(monkeypatch)
    config = ExtractionConfig()
    found = []
    for name in ("GSD_GRAMMAR", "WIDE_DEV_GRAMMAR"):
        for seed in (7, 8, 9):
            grammar = replace(getattr(workloads, name), required_rules=(), seed=seed)
            train = Treebank.from_sentences(generate(grammar, 1_000, 29))
            for feature in config.features:
                ruleset = extract_feature_rules(train, feature, config).ruleset
                found += [f"{name} seed {seed} {feature} rule {rule.rule_id}"
                          for rule in ruleset.rules if rule.label is Label.REQUIRED]
    assert len(found) <= MAX_REQUIRED, found
