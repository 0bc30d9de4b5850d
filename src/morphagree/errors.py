"""Exception hierarchy for the morphagree pipeline."""


class MorphagreeError(Exception):
    """Base class for all errors raised by this package."""


# --- treebank parsing ---

class MalformedLineError(MorphagreeError):
    """A token line does not have the 10 tab-separated CoNLL-U columns."""


class InvalidIdError(MorphagreeError):
    """A simple token id is not a positive integer, or ids are not 1..n."""


class InvalidHeadError(MorphagreeError):
    """A head index cannot be resolved within its sentence."""


class EncodingError(MorphagreeError):
    """Input bytes are not valid UTF-8."""


class MalformedFeatsError(MorphagreeError):
    """A FEATS entry lacks '=' or repeats a feature name."""


class DuplicateSentIdError(MorphagreeError):
    """Two sentences of one treebank share a sent_id (explicit or ordinal)."""


class InvalidSentIdError(MorphagreeError):
    """A sentence to be written has a sent_id the parse would not read back:
    empty, with leading or trailing whitespace, or holding a line break."""


# --- datasets and statistics ---

class EmptyMarginalsError(MorphagreeError):
    """No token in the treebank carries the requested feature."""


class EmptyDatasetError(MorphagreeError):
    """A tree cannot be fitted on a dataset with no instances."""


class EmptyCountsError(MorphagreeError):
    """Entropy estimation was asked for an empty count table."""


# --- rule sets ---

class InvalidRuleSetError(MorphagreeError):
    """A tree and its leaf verdicts cannot be merged into a RuleSet: a
    split tests an unknown slot, two leaves share an id, or leaf counts are
    negative or do not sum to training_size. Raised by merge_rules and by
    the rules.json loader."""


class VerdictMismatchError(InvalidRuleSetError):
    """Leaf verdicts do not list each leaf of the tree once."""


class MalformedRulesError(MorphagreeError):
    """A rules document is not UTF-8 JSON, has another format_version, lacks
    a key, holds a value of the wrong JSON type, an unknown name or a
    training_size other than its tree's, holds a tree and leaf verdicts
    that cannot be merged (InvalidRuleSetError), verdict statistics or
    labels that do not follow from their counts, or rules other than the
    merge of the tree's labeled leaves."""


# --- evaluation ---

class MalformedScoresError(MorphagreeError):
    """An eval or hrm document is not UTF-8 JSON, lacks a score, or holds a
    value of the wrong JSON type."""


class FeatureMismatchError(MorphagreeError):
    """Inputs refer to different morphological features."""


class EmptyAnnotationsError(MorphagreeError):
    """An annotation file or record list is empty."""


class MalformedAnnotationsError(MorphagreeError):
    """An annotation file is not UTF-8 or lacks a column, or a labeled row
    lacks a cell the header names, has an unknown label or contradicts an
    earlier row."""


class NoEvaluableTriplesError(MorphagreeError):
    """No requested triple occurs in the test data."""


class LengthMismatchError(MorphagreeError):
    """Paired score vectors differ in length or are too short."""


class ZeroVarianceError(MorphagreeError):
    """A correlation input vector is constant."""


# --- synthesis ---

class InvalidGrammarError(MorphagreeError):
    """A planted grammar violates its own declarations."""
