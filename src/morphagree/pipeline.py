"""End-to-end composition: treebank -> dataset -> tree -> labeled rule set."""
from __future__ import annotations

from typing import NamedTuple

from .conllu import Treebank
from .labeling import (
    ChanceModel,
    LeafVerdict,
    RegionTable,
    RuleSet,
    ThresholdMode,
    chance_agreement_prob,
    label_leaf_hard,
    label_leaf_statistical,
    leaf_marginals,
    merge_rules,
)
from .tree import DecisionTree, HyperGrid, grid_search, leaves
from .triples import DEFAULT_FEATURES, FeatureDataset, extract_instances


class ExtractionConfig(NamedTuple):
    features: tuple[str, ...] = DEFAULT_FEATURES
    threshold_mode: ThresholdMode = ThresholdMode.STATISTICAL
    hard_threshold: float = 0.9
    alpha: float = 0.01
    phi_min: float = 0.5
    phi_sqrt: bool = False
    marginals_scope: str = "global"  # "global" or "per-leaf"
    depth_range: bool = False
    selection_metric: str = "accuracy"  # "accuracy" or "macro_f1"
    seed: int = 0

    def grid(self) -> HyperGrid:
        depths = tuple(range(6, 16)) if self.depth_range else (6, 15)
        return HyperGrid(max_depths=depths)


class FeatureRules(NamedTuple):
    """Everything extracted for one morphological feature."""

    feature: str
    absent: bool
    dataset: FeatureDataset | None = None
    chance: ChanceModel | None = None
    tree: DecisionTree | None = None
    verdicts: tuple[LeafVerdict, ...] = ()
    ruleset: RuleSet | None = None


def label_leaves(
    tree: DecisionTree,
    dataset: FeatureDataset,
    chance: ChanceModel,
    config: ExtractionConfig,
) -> tuple[LeafVerdict, ...]:
    """One verdict per leaf under the configured threshold strategy."""
    if config.threshold_mode is ThresholdMode.HARD:
        return tuple(label_leaf_hard(leaf, config.hard_threshold) for leaf in leaves(tree))
    if config.marginals_scope != "per-leaf":
        return tuple(
            label_leaf_statistical(leaf, chance, config.alpha, config.phi_min, config.phi_sqrt)
            for leaf in leaves(tree)
        )
    table = RegionTable.of(tree)
    return tuple(
        label_leaf_statistical(
            leaf, chance_agreement_prob(leaf_marginals(groups, dataset), dataset.feature),
            config.alpha, config.phi_min, config.phi_sqrt,
        )
        for leaf, groups in zip(table.items, table.groups(dataset))
    )


def extract_feature_rules(
    train: Treebank,
    feature: str,
    config: ExtractionConfig,
    dev: Treebank | None = None,
) -> FeatureRules:
    """Run the full extraction pipeline for one feature.

    Features with no qualifying edge yield an absent marker instead of a
    rule set.
    """
    dataset = extract_instances(train, feature)
    if not dataset.instances:
        return FeatureRules(feature=feature, absent=True, dataset=dataset)
    chance = chance_agreement_prob(dataset.value_marginals, feature)
    validation = extract_instances(dev, feature) if dev is not None else None
    tree = grid_search(
        dataset,
        validation,
        grid=config.grid(),
        seed=config.seed,
        metric=config.selection_metric,
    )
    verdicts = label_leaves(tree, dataset, chance, config)
    ruleset = merge_rules(tree, verdicts, dataset, config.threshold_mode)
    return FeatureRules(
        feature=feature,
        absent=False,
        dataset=dataset,
        chance=chance,
        tree=tree,
        verdicts=verdicts,
        ruleset=ruleset,
    )

