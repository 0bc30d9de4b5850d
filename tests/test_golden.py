"""Frozen-output regression test: extraction must reproduce the committed
golden rules.json (cross-validated selection) and rules-dev.json (selection
on dev.conllu) byte for byte, the golden file must keep meaning what it
meant when frozen, and the eval.json, sheet.tsv and report pages derived
from it keep their bytes."""
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from morphagree import (ExtractionConfig, Label, Triple, extract_feature_rules, label_triple,
                        parse_conllu_file)
from morphagree.cli import main
from morphagree.serialization import load_rules, rule_to_dict, rules_document, write_json

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "data" / "golden"

# sha256 of the evaluate, annotation-sheet and report outputs that
# _golden_outputs derives from the golden files; a changed digest is a
# change in behaviour, not in layout
GOLDEN_OUTPUT_DIGESTS = {
    "eval.json": "002c7f451b355ff27522a32f9f2dd5f33566a573f9a25a1f373eb104de1d661f",
    "sheet.tsv": "fa4161dece44136d84ba9e2a34af4cdc33bdb9842dab5702e3f4313d00c17781",
    "report/feature-Gender.html": "e6aeb0348c0ca1e1d96154556c32c7d42b518ce45b61a52d2a2669e09dbb4eb1",
    "report/feature-Number.html": "a3655dd7672946f9418e89b1ee0956525834cd49d17146fc5c3166fbc27449d3",
    "report/index.html": "5e98e1ff46cad9b5a5f6218f968b933232843e3ed569c47e354809a1b3bc7f3c",
}


def _extract_from_repo_root(tmp_path, monkeypatch, *options: str) -> bytes:
    # run from the repository root with the paths the golden files record,
    # so the written bytes must equal the committed file's
    monkeypatch.chdir(REPO_ROOT)
    out = tmp_path / "rules.json"
    code = main(
        [
            "extract",
            "--train", "tests/data/golden/train.conllu",
            *options,
            "--features", "Gender", "Number", "Case",
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out.read_bytes()


def test_extract_reproduces_golden_rules(tmp_path, monkeypatch):
    assert _extract_from_repo_root(tmp_path, monkeypatch) == (
        GOLDEN_DIR / "rules.json"
    ).read_bytes()


def test_extract_on_dev_set_reproduces_golden_rules(tmp_path, monkeypatch):
    # model selection on a validation set over the depth range, by macro-F1;
    # dev.conllu has a relation that train.conllu lacks
    written = _extract_from_repo_root(
        tmp_path, monkeypatch,
        "--dev", "tests/data/golden/dev.conllu", "--depth-range", "--metric", "macro-f1",
    )
    assert written == (GOLDEN_DIR / "rules-dev.json").read_bytes()


# sha256 of the golden-train extract under options the committed golden
# files do not cover: per-leaf marginals, with and without the square-root
# effect size, and the hard threshold
GOLDEN_VARIANT_DIGESTS = {
    ("--marginals", "per-leaf"):
        "97b3a836c414fae38e4107de20941b36a586edec7f77cf7a9a1fdeaedda5d3d2",
    ("--marginals", "per-leaf", "--phi-sqrt"):
        "52cfffe7331f5ef9ec456967353c223e4d55705747a2c266ebdd23febeb35065",
    ("--threshold", "hard"):
        "0abc600ca986b584f4624dec63908477d802acd2b9e59740b1e3e374554f0b36",
}


@pytest.mark.parametrize("options", GOLDEN_VARIANT_DIGESTS, ids=" ".join)
def test_extract_variants_keep_their_bytes(tmp_path, monkeypatch, options):
    written = _extract_from_repo_root(tmp_path, monkeypatch, *options)
    assert hashlib.sha256(written).hexdigest() == GOLDEN_VARIANT_DIGESTS[options]
    # the loader accepts the statistics each variant writes
    assert load_rules(tmp_path / "rules.json").rulesets


@pytest.mark.parametrize("source", ["rules.json", "rules-dev.json", ("--threshold", "hard"),
                                    ("--marginals", "per-leaf"), ("--phi-sqrt",)],
                         ids=lambda source: source if isinstance(source, str) else " ".join(source))
def test_loaded_rules_write_back_as_their_document_holds_them(tmp_path, monkeypatch, source):
    # the loader rebuilds each rule by merging and keeps only the refs of
    # the document's entry, so the whole entry pins the merge
    if isinstance(source, str):
        path = GOLDEN_DIR / source
    else:
        _extract_from_repo_root(tmp_path, monkeypatch, *source)
        path = tmp_path / "rules.json"
    doc = load_rules(path)
    for feature, ruleset in doc.rulesets.items():
        written = json.loads(json.dumps([rule_to_dict(rule) for rule in ruleset.rules]))
        assert written == doc.raw["features"][feature]["rules"]
        assert any(rule.example_refs for rule in ruleset.rules)


def test_loaded_rule_sets_equal_the_extracted_ones(tmp_path):
    train = parse_conllu_file(GOLDEN_DIR / "train.conllu")
    config = ExtractionConfig(features=("Gender", "Number"))
    results = {feature: extract_feature_rules(train, feature, config)
               for feature in config.features}
    write_json(rules_document(results, config, "train.conllu"), tmp_path / "rules.json")
    loaded = load_rules(tmp_path / "rules.json").rulesets
    assert loaded == {feature: result.ruleset for feature, result in results.items()}


def test_golden_rules_label_planted_grammar():
    doc = load_rules(GOLDEN_DIR / "rules.json")
    assert doc.absent == {"Case"}
    for feature in ("Gender", "Number"):
        ruleset = doc.rulesets[feature]
        assert label_triple(ruleset, Triple("NOUN", "det", "DET")) is Label.REQUIRED
        assert label_triple(ruleset, Triple("VERB", "det", "ADJ")) is Label.REQUIRED
        assert label_triple(ruleset, Triple("NOUN", "subj", "ADJ")) is Label.CHANCE
        assert label_triple(ruleset, Triple("VERB", "mod", "DET")) is Label.CHANCE


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _golden_outputs(tmp_path, monkeypatch) -> dict[str, str]:
    """sha256 of every non-rules output the CLI derives from the golden
    rules.json and train.conllu, run with fixed seeds and relative paths
    so that the paths recorded in eval.json do not vary."""
    for name in ("rules.json", "train.conllu"):
        shutil.copy(GOLDEN_DIR / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    commands = (
        ["evaluate", "--rules", "rules.json", "--test", "train.conllu",
         "--baseline", "--out", "eval.json"],
        ["annotation-sheet", "--rules", "rules.json", "--train", "train.conllu",
         "--top-k", "20", "--examples", "3", "--seed", "5", "--out", "sheet.tsv"],
        ["report", "--rules", "rules.json", "--train", "train.conllu",
         "--eval", "eval.json", "--examples", "4", "--seed", "5", "--out", "report"],
    )
    for argv in commands:
        assert main(argv) == 0
    outputs = [Path("eval.json"), Path("sheet.tsv"), *sorted(Path("report").iterdir())]
    return {path.as_posix(): _digest(path) for path in outputs}


def test_golden_eval_sheet_and_report_bytes(tmp_path, monkeypatch):
    assert _golden_outputs(tmp_path, monkeypatch) == GOLDEN_OUTPUT_DIGESTS


# sha256 of the hrm, correlate and complexity outputs that
# _golden_score_outputs derives from the golden files
GOLDEN_SCORE_DIGESTS = {
    "eval-dev.json": "65ab26558e5e370309f1ea7018f5672b56be8c7a5ce279261c579bee0a1ed08d",
    "hrm.json": "2587278e3ec92be616bce00aa33a43f08dcbaf84e3f1fa12e16b8778ba745d7f",
    "hrm-lenient.json": "34478cf2224eb222564c7b80c1f0a6f362107814d63d21f4b4f6a3ccfbfa02e0",
    "correlate.json": "23c1ffd662d141431f4f3207f0e1f9ebfff221c2574e523c5177a3d8c390006d",
    "complexity.json": "3ba188d1a22620aad486e5200a887e17613110fd2e52aefc95cffeabf520796c",
    "complexity.csv": "af5380eb87ded070b67d97f56ad3c050bd9a8583888ff315a6951d4aa54fab8b",
}


def _golden_score_outputs(tmp_path, monkeypatch) -> dict[str, str]:
    """sha256 of the JSON and CSV documents hrm, correlate and complexity
    write from the golden files: a second evaluation (rules-dev.json on
    dev.conllu, its top 5 training triples), a sheet annotated by cycling
    through the three labels, scored strict and lenient, and the two
    evaluations correlated with the two scorings."""
    for name in ("rules.json", "rules-dev.json", "train.conllu", "dev.conllu"):
        shutil.copy(GOLDEN_DIR / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["evaluate", "--rules", "rules.json", "--test", "train.conllu",
         "--baseline", "--out", "eval.json"],
        ["evaluate", "--rules", "rules-dev.json", "--test", "dev.conllu",
         "--top-k", "5", "--out", "eval-dev.json"],
        ["annotation-sheet", "--rules", "rules.json", "--train", "train.conllu",
         "--top-k", "20", "--examples", "3", "--seed", "5", "--out", "sheet.tsv"],
    ):
        assert main(argv) == 0
    header, *rows = Path("sheet.tsv").read_text(encoding="utf-8").splitlines()
    at = header.split("\t").index("label")
    labels = ("almost_always", "sometimes", "need_not")
    annotated = [header]
    for i, row in enumerate(rows):
        cells = row.split("\t")
        cells[at] = labels[i % len(labels)]
        annotated.append("\t".join(cells))
    Path("annotated.tsv").write_text("\n".join(annotated) + "\n", encoding="utf-8")
    for argv in (
        ["hrm", "--rules", "rules.json", "--annotations", "annotated.tsv", "--out", "hrm.json"],
        ["hrm", "--rules", "rules.json", "--annotations", "annotated.tsv", "--lenient",
         "--out", "hrm-lenient.json"],
        ["correlate", "--eval", "eval.json", "eval-dev.json",
         "--hrm", "hrm.json", "hrm-lenient.json", "--out", "correlate.json"],
        ["complexity", "--train", "train.conllu", "dev.conllu",
         "--rules", "rules.json", "rules-dev.json",
         "--out", "complexity.json", "--csv", "complexity.csv"],
    ):
        assert main(argv) == 0
    names = ("eval-dev.json", "hrm.json", "hrm-lenient.json", "correlate.json",
             "complexity.json", "complexity.csv")
    return {name: _digest(Path(name)) for name in names}


def test_golden_hrm_correlate_and_complexity_bytes(tmp_path, monkeypatch):
    assert _golden_score_outputs(tmp_path, monkeypatch) == GOLDEN_SCORE_DIGESTS
