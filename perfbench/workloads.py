"""The benchmark's three workloads: fixed grammars, seeded corpora.

Each grammar (vocabulary, value marginals, planted rules) is fixed here;
the workload seed only drives the corpus draw. The program under test sees
nothing but the generated ``.conllu`` files.

Vocabulary entries are repeated in the grammar tuples so that
``synthetic.generate``'s uniform draw becomes Zipf-weighted (``zipf``).
``dedup`` undoes the repetition for scoring against the concrete
vocabulary. Sizes are small because each run has ~40 s to measure several
rounds; see README.md.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from morphagree import FeatureSpec, PlantedGrammar, RulePattern, generate, treebank_to_conllu

UPOS = (
    "NOUN", "VERB", "ADJ", "DET", "PRON", "ADP", "ADV", "AUX",
    "PROPN", "NUM", "CCONJ", "SCONJ", "PART", "INTJ", "SYM", "PUNCT", "X",
)
UD_RELATIONS = (
    "det", "amod", "nsubj", "obj", "case", "advmod", "obl", "nmod",
    "conj", "cc", "mark", "aux", "cop", "acl", "advcl", "xcomp",
    "ccomp", "appos", "nummod", "iobj", "compound", "flat", "fixed", "expl",
)

# Six default features. Mood's marginals put p_chance = 0.735 above the 2/3
# ceiling, so no Mood leaf can pass phi_c > 0.5 (README, --phi-sqrt).
FEATURES = (
    FeatureSpec("Gender", ("Fem", "Masc"), (0.55, 0.45)),
    FeatureSpec("Person", ("3", "1", "2"), (0.6, 0.25, 0.15)),
    FeatureSpec("Number", ("Sing", "Plur"), (0.7, 0.3)),
    FeatureSpec("Mood", ("Ind", "Sub", "Imp"), (0.85, 0.1, 0.05)),
    FeatureSpec("Case", ("Nom", "Acc", "Dat", "Gen"), (0.4, 0.3, 0.2, 0.1)),
    FeatureSpec("Tense", ("Pres", "Past", "Fut"), (0.5, 0.4, 0.1)),
)


def zipf(items: tuple[str, ...], scale: int) -> tuple[str, ...]:
    """Repeat the entry of rank r about scale / r times (at least once)."""
    return tuple(
        item for rank, item in enumerate(items, start=1)
        for _ in range(max(1, round(scale / rank)))
    )


def dedup(grammar: PlantedGrammar) -> PlantedGrammar:
    """The grammar over its distinct vocabulary, in first-seen order."""
    return replace(
        grammar,
        relations=tuple(dict.fromkeys(grammar.relations)),
        head_pos=tuple(dict.fromkeys(grammar.head_pos)),
        dep_pos=tuple(dict.fromkeys(grammar.dep_pos)),
    )


def _wide_relations() -> tuple[str, ...]:
    subtypes = [f"{rel}:x{i}" for i in range(3) for rel in UD_RELATIONS]
    return UD_RELATIONS + tuple(subtypes[: 80 - len(UD_RELATIONS)])


WIDE_RELATIONS = _wide_relations()

# 12 relations x 8 x 8 UPOS: ~700 distinct triples at 600 sentences, so
# triples keep enough instances for the planted-rule check to hold (it
# failed for 6 of 40 seeds at 300 sentences and 1 of 60 at 400).
GSD_GRAMMAR = PlantedGrammar(
    features=FEATURES,
    relations=zipf(UD_RELATIONS[:12], 48),
    head_pos=zipf(UPOS[:8], 32),
    dep_pos=zipf(UPOS[:8], 32),
    # a few rules on frequent slots
    required_rules=(
        RulePattern(relation="det"),
        RulePattern(relation="amod", head_pos="NOUN"),
        RulePattern(relation="nsubj", head_pos="VERB"),
    ),
    noise_rate=0.02,
)

WIDE_GRAMMAR = PlantedGrammar(
    features=FEATURES,
    relations=zipf(WIDE_RELATIONS, 80),
    head_pos=zipf(UPOS, 17),
    dep_pos=zipf(UPOS, 17),
    # 30 (relation, head) rules spread over frequent and rare slots
    required_rules=tuple(
        RulePattern(relation=WIDE_RELATIONS[(7 * i) % 80], head_pos=UPOS[i % 5])
        for i in range(30)
    ),
    noise_rate=0.02,
)

# wide-dev runs 20 grid points per feature; 10 UPOS keep its extract short
# enough for several rounds per run
WIDE_DEV_GRAMMAR = replace(WIDE_GRAMMAR, head_pos=zipf(UPOS[:10], 10), dep_pos=zipf(UPOS[:10], 10))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grammar: PlantedGrammar
    train_sentences: int
    dev_sentences: int  # 0: no dev file
    test_sentences: int
    tokens_per_sentence: int
    # how extract runs: "cv" (CLI, default CV selection), "dev" (CLI,
    # --dev --depth-range) or "deep" (Python API, depth 15, no impurity floor)
    extract_mode: str
    planted_check: bool = False

    @property
    def files(self) -> dict[str, int]:
        files = {"train.conllu": self.train_sentences, "test.conllu": self.test_sentences}
        if self.dev_sentences:
            files["dev.conllu"] = self.dev_sentences
        return files


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gsd-cv",
            why=(
                "Default CLI workflow with CV model selection: per-instance work "
                "(parse, extract_instances, the per-grid-point CV fold rebuild) "
                "dominates; trees stay at <= 7 leaves, so merge is bypassed."
            ),
            grammar=GSD_GRAMMAR,
            train_sentences=600,
            dev_sentences=0,
            test_sentences=180,
            tokens_per_sentence=29,
            extract_mode="cv",
            planted_check=True,
        ),
        Workload(
            name="wide-dev",
            why=(
                "Many distinct triples scored on a dev set over 20 grid points: split "
                "search dominates extract and CV never runs, so a CV-only change "
                "must show no change here."
            ),
            grammar=WIDE_DEV_GRAMMAR,
            train_sentences=140,
            dev_sentences=60,
            test_sentences=60,
            tokens_per_sentence=29,
            extract_mode="dev",
        ),
        Workload(
            name="deep-merge",
            why=(
                "Merge stress: depth-15 trees with no impurity floor give ~150-190 "
                "leaves per feature, so the O(R^3) merge, label_triple lookups and "
                "report's rules-by-instances scan are on the blocking path."
            ),
            grammar=WIDE_GRAMMAR,
            train_sentences=250,
            dev_sentences=0,
            test_sentences=80,
            tokens_per_sentence=29,
            extract_mode="deep",
        ),
    )
}


def corpus_seed(seed: int, filename: str, draw: int) -> int:
    """Distinct, reproducible generator seed per (workload seed, draw, file).
    A run uses well under 300 draws, so seeds never overlap."""
    files = sorted(("train.conllu", "dev.conllu", "test.conllu"))
    return seed * 1000 + draw * len(files) + files.index(filename)


def write_corpora(workload: Workload, seed: int, out_dir: Path, draw: int) -> None:
    """Generate one draw of the workload's corpora for this seed and write
    them. Draw 0 is the seed's reference corpus."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, n_sentences in workload.files.items():
        grammar = replace(workload.grammar, seed=corpus_seed(seed, filename, draw))
        treebank = generate(grammar, n_sentences, workload.tokens_per_sentence)
        (out_dir / filename).write_text(treebank_to_conllu(treebank), encoding="utf-8")
