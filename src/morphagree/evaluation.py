"""Rule-set evaluation: automated (ARM), human (HRM), and baselines."""
from __future__ import annotations

import enum
import math
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import (
    EmptyAnnotationsError,
    FeatureMismatchError,
    LengthMismatchError,
    MalformedAnnotationsError,
    NoEvaluableTriplesError,
    ZeroVarianceError,
)
from .labeling import Label, RuleSet, rules_for
from .triples import FeatureDataset, Triple


class HumanLabel(str, enum.Enum):
    ALMOST_ALWAYS = "almost_always"
    SOMETIMES = "sometimes"
    NEED_NOT = "need_not"


class AnnotationRecord(NamedTuple):
    feature: str
    triple: Triple
    human_label: HumanLabel


class TripleVerdict(NamedTuple):
    triple: Triple
    n_test: int
    q: float
    test_label: Label
    tree_label: Label
    score: int


class AnnotationVerdict(NamedTuple):
    triple: Triple
    human_label: HumanLabel
    mapped_label: Label
    tree_label: Label
    hs: int


class EvalReport(NamedTuple):
    arm: float
    verdicts: tuple[TripleVerdict, ...]


def _score_triples(
    test: FeatureDataset,
    triples: Iterable[Triple],
    tau: float,
    tree_label_of,
) -> EvalReport:
    verdicts: list[TripleVerdict] = []
    for triple in dict.fromkeys(triples):  # deduplicated, first occurrence kept
        group = test.triples.get(triple)
        if group is None:
            continue
        total = group.size
        q = group.n_agree / total
        test_label = Label.REQUIRED if q > tau else Label.CHANCE
        tree_label = tree_label_of(triple)
        verdicts.append(
            TripleVerdict(
                triple=triple,
                n_test=total,
                q=q,
                test_label=test_label,
                tree_label=tree_label,
                score=int(test_label == tree_label),
            )
        )
    if not verdicts:
        raise NoEvaluableTriplesError("no requested triple occurs in the test data")
    arm_score = sum(v.score for v in verdicts) / len(verdicts)
    return EvalReport(arm=arm_score, verdicts=tuple(verdicts))


def arm(
    ruleset: RuleSet,
    test: FeatureDataset,
    triples: Iterable[Triple],
    tau: float = 0.95,
) -> EvalReport:
    """Automated rule metric: a triple scores 1 when the rule label matches
    the held-out label (required iff empirical agreement q > tau)."""
    triples = list(triples)
    rule_of = rules_for(ruleset, triples)
    return _score_triples(test, triples, tau, lambda t: rule_of[t].label)


def baseline_arm(
    test: FeatureDataset, triples: Iterable[Triple], tau: float = 0.95
) -> EvalReport:
    """ARM of the degenerate rule set that labels every triple chance."""
    return _score_triples(test, triples, tau, lambda t: Label.CHANCE)


def map_human_label(human: HumanLabel, strict: bool = True) -> Label:
    if human is HumanLabel.ALMOST_ALWAYS:
        return Label.REQUIRED
    if human is HumanLabel.SOMETIMES:
        return Label.CHANCE if strict else Label.REQUIRED
    return Label.CHANCE


def hrm(
    ruleset: RuleSet,
    annotations: Iterable[AnnotationRecord],
    strict: bool = True,
) -> tuple[float, tuple[AnnotationVerdict, ...]]:
    """Human rule metric against expert annotations of the same feature.

    Strict mode counts only "almost always agree" as required; lenient mode
    also maps "sometimes agree" to required.
    """
    annotations = list(annotations)
    if not annotations:
        raise EmptyAnnotationsError("no annotation records given")
    relevant = [a for a in annotations if a.feature == ruleset.feature]
    if not relevant:
        raise FeatureMismatchError(
            f"no annotations for feature {ruleset.feature!r}"
        )
    rule_of = rules_for(ruleset, [record.triple for record in relevant])
    details = []
    for record in relevant:
        mapped = map_human_label(record.human_label, strict)
        tree_label = rule_of[record.triple].label
        details.append(
            AnnotationVerdict(
                triple=record.triple,
                human_label=record.human_label,
                mapped_label=mapped,
                tree_label=tree_label,
                hs=int(mapped == tree_label),
            )
        )
    return sum(d.hs for d in details) / len(details), tuple(details)


def pearson(xs: list[float], ys: list[float]) -> float:
    """Sample Pearson correlation coefficient."""
    if len(xs) != len(ys):
        raise LengthMismatchError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise LengthMismatchError("need at least two paired observations")
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVarianceError("correlation undefined for a constant vector")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


ANNOTATION_COLUMNS = ("feature", "relation", "head_pos", "dep_pos", "label")


def read_annotations(path: str | Path) -> list[AnnotationRecord]:
    """Read a completed annotation TSV as annotation-sheet writes it: UTF-8
    (a byte order mark allowed), one row per line, cells split at each tab.

    The header names ANNOTATION_COLUMNS in any order; other columns are
    ignored, as are rows with no label. A (feature, triple) labeled again
    with the same label is read once. A header short of a column raises
    MalformedAnnotationsError; so does a line that is not UTF-8, a labeled
    row short of a named cell or with an unknown label, or one that labels a
    (feature, triple) differently from an earlier row, naming its line (and
    the earlier one).
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        number = data.count(b"\n", 0, exc.start) + 1
        raise MalformedAnnotationsError(f"{path}: line {number}: {exc}") from None
    if not text:
        raise EmptyAnnotationsError(f"{path}: empty annotation file")
    header, *lines = text.split("\n")
    names = [name.strip() for name in header.rstrip("\r").split("\t")]
    missing = [c for c in ANNOTATION_COLUMNS if c not in names]
    if missing:
        raise MalformedAnnotationsError(f"{path}: missing annotation columns {missing}")
    at = [names.index(c) for c in ANNOTATION_COLUMNS]
    records: list[AnnotationRecord] = []
    labeled_at: dict[tuple[str, Triple], tuple[HumanLabel, int]] = {}
    for number, line in enumerate(lines, start=2):
        cells = [cell.strip() for cell in line.rstrip("\r").split("\t")]
        if len(cells) <= at[-1] or not cells[at[-1]]:
            continue  # no label
        if len(cells) <= max(at):
            raise MalformedAnnotationsError(
                f"{path}: line {number}: a labeled row lacks a cell the header names"
            )
        feature, relation, head_pos, dep_pos, raw = (cells[i] for i in at)
        try:
            human = HumanLabel(raw)
        except ValueError:
            raise MalformedAnnotationsError(
                f"{path}: line {number}: unknown annotation label {raw!r}"
            ) from None
        triple = Triple(head_pos=head_pos, relation=relation, dep_pos=dep_pos)
        if (feature, triple) in labeled_at:
            first, first_line = labeled_at[feature, triple]
            if first is not human:
                raise MalformedAnnotationsError(
                    f"{path}: lines {first_line} and {number} label {feature} "
                    f"{relation} {head_pos} {dep_pos} differently: "
                    f"{first.value} and {human.value}"
                )
            continue  # a repeat scores once
        labeled_at[feature, triple] = (human, number)
        records.append(AnnotationRecord(feature=feature, triple=triple, human_label=human))
    if not records:
        raise EmptyAnnotationsError(f"{path}: no labeled rows")
    return records
