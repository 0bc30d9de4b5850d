"""morphagree: morphological agreement rules from dependency treebanks.

Workflow: parse a CoNLL-U/SUD treebank, turn every dependency edge into a
binary agree/disagree instance per morphological feature, fit a categorical
decision tree, label its leaves as required- vs chance-agreement with a
hard or statistical threshold, merge leaves into a concise rule set, and
evaluate against held-out data (ARM) or expert annotations (HRM).

The public names below are resolved on first access (PEP 562), so that a
command imports only the submodules it uses.
"""
_EXPORTS = {
    "complexity": "EntropyEstimate conciseness_correlation js_shrinkage_probs word_entropy",
    "conllu": "Sentence Token Treebank feats_to_string parse_conllu parse_conllu_file "
              "parse_feats treebank_to_conllu",
    "errors": "MorphagreeError",
    "evaluation": "AnnotationRecord EvalReport HumanLabel TripleVerdict arm baseline_arm hrm "
                  "pearson read_annotations",
    "labeling": "ChanceModel Constraint Label LabeledRule LeafVerdict RuleSet ThresholdMode "
                "chance_agreement_prob chi_squared_gof cramers_phi label_leaf_hard "
                "label_leaf_statistical label_triple merge_rules",
    "pipeline": "ExtractionConfig FeatureRules extract_feature_rules",
    "synthetic": "PlantedGrammar FeatureSpec RulePattern generate recovery_score",
    "tree": "DecisionTree HyperGrid HyperParams Internal Leaf SplitPredicate fit grid_search "
            "leaf_count predict_leaf route",
    "triples": "DEFAULT_FEATURES FeatureDataset Triple extract_instances top_k_triples",
}

# public name -> the submodule that defines it
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SUBMODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SUBMODULE_OF.keys())
