"""Merge-stress extraction through the Python API (the deep-merge workload).

The CLI fixes min_impurity_decrease at 1e-3, which keeps trees at a few
dozen leaves. This runs the same stages with HyperParams(max_depth=15,
min_impurity_decrease=0), so every feature's tree has ~150-190 leaves on
the benchmark's corpora and merge_rules is on the blocking path:

    python perfbench/deep_extract.py --train train.conllu --out rules.json

Functions are looked up on the package at call time, so a tracer installed
in the same process sees every call.
"""
from __future__ import annotations

import argparse
from contextlib import nullcontext

import morphagree as m
from morphagree import serialization, tree

HYPERPARAMS = m.HyperParams(max_depth=15, min_impurity_decrease=0.0)


def extract(train_path: str, span) -> dict:
    train = m.parse_conllu_file(train_path)
    config = m.ExtractionConfig()
    results = {}
    for feature in config.features:
        # the span names match what pipeline.extract_feature_rules records
        with span("pipeline.extract_feature_rules"):
            dataset = m.extract_instances(train, feature)
            chance = m.chance_agreement_prob(dataset.value_marginals, feature)
            fitted = m.fit(dataset, HYPERPARAMS)
            with span("labeling.label_leaves"):
                verdicts = tuple(
                    m.label_leaf_statistical(leaf, chance, config.alpha, config.phi_min)
                    for leaf in tree.leaves(fitted)
                )
            ruleset = m.merge_rules(fitted, verdicts, dataset, config.threshold_mode)
        results[feature] = m.FeatureRules(
            feature=feature, absent=False, dataset=dataset, chance=chance,
            tree=fitted, verdicts=verdicts, ruleset=ruleset,
        )
    return serialization.rules_document(results, config, train_path)


def main(argv: list[str] | None = None, tracer=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    serialization.write_json(extract(args.train, span), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
