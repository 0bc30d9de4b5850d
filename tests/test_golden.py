"""Frozen-output regression test: extraction must reproduce the committed
golden rules.json (cross-validated selection) and rules-dev.json (selection
on dev.conllu) byte for byte, the golden file must keep meaning what it
meant when frozen, and the eval.json, sheet.tsv and report pages derived
from it keep their bytes."""
import hashlib
import shutil
from pathlib import Path

from morphagree import Label, Triple, label_triple
from morphagree.cli import main
from morphagree.serialization import load_rules

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
