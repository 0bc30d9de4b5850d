"""morphagree: morphological agreement rules from dependency treebanks.

Workflow: parse a CoNLL-U/SUD treebank, turn every dependency edge into a
binary agree/disagree instance per morphological feature, fit a categorical
decision tree, label its leaves as required- vs chance-agreement with a
hard or statistical threshold, merge leaves into a concise rule set, and
evaluate against held-out data (ARM) or expert annotations (HRM).
"""
from .complexity import EntropyEstimate, conciseness_correlation, js_shrinkage_probs, word_entropy
from .conllu import Sentence, Token, Treebank, feats_to_string, parse_conllu, parse_conllu_file, parse_feats
from .errors import MorphagreeError
from .evaluation import (
    AnnotationRecord,
    EvalReport,
    HumanLabel,
    TripleVerdict,
    arm,
    baseline_arm,
    hrm,
    pearson,
    read_annotations,
)
from .labeling import (
    ChanceModel,
    Constraint,
    Label,
    LabeledRule,
    LeafVerdict,
    RuleSet,
    ThresholdMode,
    chance_agreement_prob,
    chi_squared_gof,
    cramers_phi,
    label_leaf_hard,
    label_leaf_statistical,
    label_triple,
    merge_rules,
)
from .pipeline import ExtractionConfig, FeatureRules, extract_feature_rules
from .synthetic import PlantedGrammar, FeatureSpec, RulePattern, generate, recovery_score, treebank_to_conllu
from .tree import (
    DecisionTree,
    HyperGrid,
    HyperParams,
    Internal,
    Leaf,
    SplitPredicate,
    fit,
    grid_search,
    leaf_count,
    predict_leaf,
    route,
)
from .triples import (
    DEFAULT_FEATURES,
    FeatureDataset,
    Triple,
    extract_instances,
    top_k_triples,
)

__version__ = "0.1.0"
