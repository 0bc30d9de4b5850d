"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import math
import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from morphagree import (
    ExtractionConfig,
    FeatureSpec,
    Label,
    PlantedGrammar,
    RulePattern,
    Treebank,
    Triple,
    baseline_arm,
    chance_agreement_prob,
    extract_feature_rules,
    generate,
    label_leaf_hard,
    label_leaf_statistical,
    label_triple,
    merge_rules,
    predict_leaf,
    recovery_score,
    treebank_to_conllu,
    word_entropy,
)
from morphagree.cli import main
from morphagree.labeling import ChanceModel, chi_square_survival
from morphagree.tree import Leaf

from conftest import agrees, make_dataset
from oracles import chi2_sf_oracle
from treegen import random_labeled_tree, random_triple


@contextmanager
def criterion(number: int, description: str):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(
        f"[PASS] criterion {number}: {description} "
        f"({time.time() - started:.2f}s)"
    )


def test_criterion_1_chance_probability_exactness():
    with criterion(1, "marginals 9:1 give chance probability exactly 0.82"):
        assert chance_agreement_prob({"Sing": 9, "Plur": 1}).p_chance == 0.82


def test_criterion_2_chi_square_against_integration_oracle():
    with criterion(2, "chi-square(1) p-values match the quadrature oracle to 1e-9"):
        for chi2 in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 17.344, 50.0):
            assert abs(chi_square_survival(chi2) - chi2_sf_oracle(chi2)) < 1e-9


def _recovery_grammar(noise: float) -> PlantedGrammar:
    # 3 required rules and 5 chance triples over a 2x2x2 vocabulary; the
    # required cells are chosen to be separable by greedy one-vs-rest
    # splits (an XOR-style arrangement has no single split with positive
    # gain and is unlearnable for any greedy CART)
    return PlantedGrammar(
        features=(FeatureSpec("Gender", ("Fem", "Masc", "Neut"), (0.6, 0.3, 0.1)),),
        relations=("det", "subj"),
        head_pos=("NOUN", "VERB"),
        dep_pos=("DET", "ADJ"),
        required_rules=(
            RulePattern(head_pos="NOUN", relation="det", dep_pos="DET"),
            RulePattern(head_pos="NOUN", relation="det", dep_pos="ADJ"),
            RulePattern(head_pos="NOUN", relation="subj", dep_pos="DET"),
        ),
        noise_rate=noise,
        seed=7,
    )


def test_criterion_3_planted_rule_recovery():
    with criterion(3, "planted rules recovered at noise 0 and recall kept at noise 0.03"):
        config = ExtractionConfig(features=("Gender",))

        grammar = _recovery_grammar(0.0)
        treebank = Treebank.from_sentences(generate(grammar, 10_000, 3))
        assert len(treebank.forms) == 10_000
        result = extract_feature_rules(treebank, "Gender", config)
        # every vocabulary triple drew well over 200 instances
        assert min(g.size for g in result.dataset.triples.values()) >= 200
        assert recovery_score(grammar, result.ruleset) == (1.0, 1.0)

        noisy = _recovery_grammar(0.03)
        noisy_result = extract_feature_rules(
            Treebank.from_sentences(generate(noisy, 10_000, 3)), "Gender", config)
        _, recall = recovery_score(noisy, noisy_result.ruleset)
        assert recall == 1.0


def test_criterion_4_chance_only_control():
    with criterion(4, "chance-only grammars yield zero required rules over 20 seeds"):
        for seed in range(20):
            grammar = PlantedGrammar(
                features=(FeatureSpec("Number", ("Sing", "Plur"), (0.9, 0.1)),),
                relations=("det", "subj"),
                head_pos=("NOUN", "VERB"),
                dep_pos=("DET", "ADJ"),
                required_rules=(),
                noise_rate=0.0,
                seed=seed,
            )
            treebank = Treebank.from_sentences(generate(grammar, 800, 5))
            result = extract_feature_rules(
                treebank, "Number", ExtractionConfig(features=("Number",))
            )
            required = [
                r for r in result.ruleset.rules if r.label is Label.REQUIRED
            ]
            assert not required, f"seed {seed} produced required rules"


def test_criterion_5_merge_equivalence_at_scale():
    with criterion(5, "1000 random labeled trees x 1000 triples merge equivalently"):
        rng = random.Random(20_24)
        triples = [random_triple(rng) for _ in range(1000)]
        for _ in range(1000):
            tree, verdicts = random_labeled_tree(rng)
            label_of = {v.leaf_id: v.label for v in verdicts}
            ruleset = merge_rules(tree, verdicts)
            for triple in triples:
                assert label_triple(ruleset, triple) is label_of[predict_leaf(tree, triple)]


def test_criterion_6_baseline_identity():
    with criterion(6, "baseline ARM equals 1 - fraction(q > 0.95) exactly"):
        rng = random.Random(6)
        for _ in range(30):
            triples = [
                Triple(head_pos=rng.choice("AB"), relation=f"r{i}", dep_pos="D")
                for i in range(rng.randint(1, 10))
            ]
            pairs = []
            for t in triples:
                n = rng.randint(1, 40)
                bias = rng.choice([0.3, 0.9, 0.97, 1.0])
                pairs.extend((t, rng.random() < bias) for _ in range(n))
            dataset = make_dataset(pairs)
            report = baseline_arm(dataset, triples, tau=0.95)
            # independent recount of triples above the threshold
            above = 0
            for t in {v.triple for v in report.verdicts}:
                insts = [i for i in dataset.instances if i.triple == t]
                above += sum(agrees(i) for i in insts) / len(insts) > 0.95
            n = len(report.verdicts)
            # exact in rational arithmetic, and bit-equal as one division
            assert Fraction(sum(v.score for v in report.verdicts), n) == 1 - Fraction(above, n)
            assert report.arm == (n - above) / n


def test_criterion_7_small_leaf_caution():
    with criterion(7, "3/3 leaf: required under hard, chance under statistical"):
        leaf = Leaf(leaf_id=1, n_agree=3, n_disagree=0)
        chance = ChanceModel(feature="F", value_probs={}, p_chance=0.5)
        assert label_leaf_hard(leaf, threshold=0.9).label is Label.REQUIRED
        verdict = label_leaf_statistical(leaf, chance)
        assert verdict.label is Label.CHANCE
        assert verdict.p_value > 0.01


def test_criterion_8_entropy_checks():
    with criterion(8, "uniform entropy equals log2(V); entropy non-decreasing in lambda"):
        for v in (2, 4, 8, 16, 32):
            tokens = [f"w{i}" for i in range(v)] * 2
            assert word_entropy(tokens, lambda_override=0.0).entropy_bits == math.log2(v)
        rng = random.Random(88)
        lambdas = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        for _ in range(100):
            counts = [rng.randint(1, 60) for _ in range(rng.randint(1, 12))]
            tokens = [f"w{i}" for i, c in enumerate(counts) for _ in range(c)]
            entropies = [word_entropy(tokens, lam).entropy_bits for lam in lambdas]
            for lower, higher in zip(entropies, entropies[1:]):
                assert higher >= lower - 1e-12


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "extract, sheets and reports are byte-identical across reruns"):
        grammar = PlantedGrammar(
            features=(FeatureSpec("Gender", ("Fem", "Masc"), (0.7, 0.3)),),
            relations=("det", "subj", "mod"),
            head_pos=("NOUN", "VERB"),
            dep_pos=("DET", "ADJ"),
            required_rules=(RulePattern(relation="det"),),
            noise_rate=0.0,
            seed=1,
        )
        train = tmp_path / "train.conllu"
        train.write_text(
            treebank_to_conllu(generate(grammar, 600, 5)), encoding="utf-8"
        )

        def run(suffix: str) -> dict[str, bytes]:
            rules = tmp_path / f"rules{suffix}.json"
            sheet = tmp_path / f"sheet{suffix}.tsv"
            report = tmp_path / f"report{suffix}"
            assert main(
                ["extract", "--train", str(train), "--seed", "11",
                 "--features", "Gender", "--out", str(rules)]
            ) == 0
            assert main(
                ["annotation-sheet", "--rules", str(rules), "--train", str(train),
                 "--seed", "11", "--examples", "5", "--out", str(sheet)]
            ) == 0
            assert main(
                ["report", "--rules", str(rules), "--train", str(train),
                 "--seed", "11", "--out", str(report)]
            ) == 0
            out = {"rules": rules.read_bytes(), "sheet": sheet.read_bytes()}
            for page in sorted(report.iterdir()):
                out[page.name] = page.read_bytes()
            return out

        first = run("1")
        second = run("2")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"


SUD_DIR = os.environ.get("MORPHAGREE_SUD_ES_GSD", "")


@pytest.mark.skipif(
    not (SUD_DIR and (Path(SUD_DIR) / "es_gsd-sud-train.conllu").exists()),
    reason="SUD es-gsd treebank not available; set MORPHAGREE_SUD_ES_GSD to its directory",
)
def test_criterion_10_es_gsd_reproduction():
    with criterion(10, "SUD es-gsd Gender reproduces published ARM and labels"):
        from morphagree import arm, extract_instances, parse_conllu_file

        train = parse_conllu_file(Path(SUD_DIR) / "es_gsd-sud-train.conllu")
        test = parse_conllu_file(Path(SUD_DIR) / "es_gsd-sud-test.conllu")
        dev_path = Path(SUD_DIR) / "es_gsd-sud-dev.conllu"
        dev = parse_conllu_file(dev_path) if dev_path.exists() else None
        result = extract_feature_rules(
            train, "Gender", ExtractionConfig(features=("Gender",)), dev=dev
        )
        ruleset = result.ruleset
        assert label_triple(ruleset, Triple("NOUN", "det", "DET")) is Label.REQUIRED
        assert label_triple(ruleset, Triple("NOUN", "mod", "ADJ")) is Label.REQUIRED
        for head in ("NOUN", "PROPN", "VERB"):
            assert label_triple(ruleset, Triple(head, "conj", "NOUN")) is Label.CHANCE
        test_data = extract_instances(test, "Gender")
        triples = test_data.ranking
        report = arm(ruleset, test_data, triples)
        baseline = baseline_arm(test_data, triples)
        assert abs(report.arm - 0.718) <= 0.05
        assert abs(baseline.arm - 0.366) <= 0.01
