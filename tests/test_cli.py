import gc
import json
import random
import sys
from pathlib import Path

import pytest

import morphagree.cli
from morphagree import (
    ExtractionConfig,
    FeatureSpec,
    Label,
    PlantedGrammar,
    RulePattern,
    Triple,
    generate,
    label_triple,
    treebank_to_conllu,
)
from morphagree.cli import main
from morphagree.serialization import load_rules, write_json

from conftest import six_feature_conllu
from treegen import random_triple


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    """A synthetic corpus with one required rule plus extracted rules.json."""
    root = tmp_path_factory.mktemp("cli")
    grammar = PlantedGrammar(
        features=(
            FeatureSpec("Gender", ("Fem", "Masc", "Neut"), (0.6, 0.3, 0.1)),
            FeatureSpec("Number", ("Sing", "Plur"), (0.7, 0.3)),
        ),
        relations=("det", "subj"),
        head_pos=("NOUN", "VERB"),
        dep_pos=("DET", "ADJ"),
        required_rules=(RulePattern(relation="det"),),
        noise_rate=0.0,
        seed=13,
    )
    (root / "train.conllu").write_text(
        treebank_to_conllu(generate(grammar, 1500, 5)), encoding="utf-8"
    )
    test_grammar = PlantedGrammar(**{**grammar.__dict__, "seed": 14})
    (root / "test.conllu").write_text(
        treebank_to_conllu(generate(test_grammar, 400, 5)), encoding="utf-8"
    )
    code = main(
        [
            "extract",
            "--train", str(root / "train.conllu"),
            "--out", str(root / "rules.json"),
            "--features", "Gender", "Number", "Case",
        ]
    )
    assert code == 0
    return root


def test_extract_marks_missing_feature_absent(workspace):
    doc = json.loads((workspace / "rules.json").read_text(encoding="utf-8"))
    assert doc["features"]["Case"] == {"absent": True}
    assert doc["features"]["Gender"]["absent"] is False
    assert doc["format_version"] == "1"


def test_extract_is_byte_deterministic(workspace):
    out2 = workspace / "rules-again.json"
    code = main(
        [
            "extract",
            "--train", str(workspace / "train.conllu"),
            "--out", str(out2),
            "--features", "Gender", "Number", "Case",
        ]
    )
    assert code == 0
    assert out2.read_bytes() == (workspace / "rules.json").read_bytes()


def test_rules_round_trip_preserves_labeling(workspace):
    doc = load_rules(workspace / "rules.json")
    ruleset = doc.rulesets["Gender"]
    # the planted rule: every det triple is required
    assert label_triple(ruleset, Triple("NOUN", "det", "DET")) is Label.REQUIRED
    assert label_triple(ruleset, Triple("VERB", "subj", "ADJ")) is Label.CHANCE
    rng = random.Random(0)
    from morphagree import parse_conllu_file, extract_feature_rules

    train = parse_conllu_file(workspace / "train.conllu")
    fresh = extract_feature_rules(train, "Gender", ExtractionConfig(features=("Gender",)))
    for _ in range(1000):
        triple = random_triple(rng)
        assert label_triple(ruleset, triple) is label_triple(fresh.ruleset, triple)


def test_training_triples_recorded_most_frequent_first(workspace):
    doc = json.loads((workspace / "rules.json").read_text(encoding="utf-8"))
    counts = [t["count"] for t in doc["features"]["Gender"]["training_triples"]]
    assert counts == sorted(counts, reverse=True)
    assert sum(counts) == doc["features"]["Gender"]["training_size"]


def test_evaluate_all_and_topk(workspace):
    out = workspace / "eval.json"
    code = main(
        [
            "evaluate",
            "--rules", str(workspace / "rules.json"),
            "--test", str(workspace / "test.conllu"),
            "--baseline",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    gender = doc["features"]["Gender"]
    assert gender["arm"] == 1.0  # planted rules transfer perfectly
    assert 0.0 <= gender["baseline_arm"] < 1.0
    assert doc["selection"] == "all"
    assert gender["n_triples"] == 8
    # baseline identity: arm_baseline = fraction of triples with q <= tau
    frac = sum(v["q"] <= doc["tau"] for v in gender["verdicts"]) / len(gender["verdicts"])
    assert gender["baseline_arm"] == frac

    out_k = workspace / "eval-top3.json"
    code = main(
        [
            "evaluate",
            "--rules", str(workspace / "rules.json"),
            "--test", str(workspace / "test.conllu"),
            "--top-k", "3",
            "--out", str(out_k),
        ]
    )
    assert code == 0
    doc_k = json.loads(out_k.read_text(encoding="utf-8"))
    assert doc_k["selection"] == "top-3"
    assert doc_k["features"]["Gender"]["n_triples"] <= 3


def test_evaluate_fails_nonzero_when_feature_unmatchable(workspace, tmp_path, capsys):
    # a test file with no Gender/Number features at all
    bare = tmp_path / "bare.conllu"
    bare.write_text(
        "1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n", encoding="utf-8"
    )
    code = main(
        [
            "evaluate",
            "--rules", str(workspace / "rules.json"),
            "--test", str(bare),
            "--out", str(tmp_path / "eval.json"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "Gender" in err and "Number" in err


def test_annotation_sheet_deterministic_and_truncated(workspace):
    args = [
        "annotation-sheet",
        "--rules", str(workspace / "rules.json"),
        "--train", str(workspace / "train.conllu"),
        "--top-k", "20",
        "--examples", "4",
        "--seed", "5",
    ]
    out1, out2 = workspace / "sheet1.tsv", workspace / "sheet2.tsv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "feature\trelation\thead_pos\tdep_pos\tlabel\texamples"
    # 8 distinct triples per feature, 2 features with instances
    assert len(lines) == 1 + 16
    # 4 examples requested: 3 separators per row
    assert all(line.count(" ||| ") == 3 for line in lines[1:])


def test_annotation_sheet_uses_all_examples_when_pool_is_small(tmp_path):
    conllu = (
        "1\tla\tel\tDET\t_\tGender=Fem\t2\tdet\t_\t_\n"
        "2\tcasa\tcasa\tNOUN\t_\tGender=Fem\t0\troot\t_\t_\n\n"
    ) * 4
    train = tmp_path / "tiny.conllu"
    train.write_text(conllu, encoding="utf-8")
    rules = tmp_path / "rules.json"
    assert main(["extract", "--train", str(train), "--out", str(rules)]) == 0
    sheet = tmp_path / "sheet.tsv"
    assert main(
        [
            "annotation-sheet",
            "--rules", str(rules),
            "--train", str(train),
            "--examples", "10",
            "--out", str(sheet),
        ]
    ) == 0
    rows = sheet.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 1
    assert rows[0].count(" ||| ") == 3  # only 4 instances exist, no repetition


def test_hrm_round_trip_through_exported_sheet(workspace, tmp_path):
    sheet = tmp_path / "sheet.tsv"
    assert main(
        [
            "annotation-sheet",
            "--rules", str(workspace / "rules.json"),
            "--train", str(workspace / "train.conllu"),
            "--examples", "2",
            "--out", str(sheet),
        ]
    ) == 0
    # simulate the annotator: planted det rules agree, everything else not
    lines = sheet.read_text(encoding="utf-8").splitlines()
    filled = [lines[0]]
    for line in lines[1:]:
        cols = line.split("\t")
        cols[4] = "almost_always" if cols[1] == "det" else "need_not"
        filled.append("\t".join(cols))
    annotated = tmp_path / "annotated.tsv"
    annotated.write_text("\n".join(filled) + "\n", encoding="utf-8")
    out = tmp_path / "hrm.json"
    code = main(
        [
            "hrm",
            "--rules", str(workspace / "rules.json"),
            "--annotations", str(annotated),
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["features"]["Gender"]["hrm"] == 1.0
    assert doc["mode"] == "strict"


def test_hrm_exit_code_on_feature_mismatch(workspace, tmp_path, capsys):
    ann = tmp_path / "ann.tsv"
    ann.write_text(
        "feature\trelation\thead_pos\tdep_pos\tlabel\n"
        "Mood\tdet\tNOUN\tDET\talmost_always\n",
        encoding="utf-8",
    )
    code = main(
        ["hrm", "--rules", str(workspace / "rules.json"), "--annotations", str(ann)]
    )
    assert code == 1


def test_complexity_uniform_corpus(tmp_path, capsys):
    blocks = []
    for i in range(8):
        blocks.append(f"1\tword{i}\tw\tNOUN\t_\t_\t0\troot\t_\t_\n\n")
    train = tmp_path / "uniform.conllu"
    train.write_text("".join(blocks), encoding="utf-8")
    out = tmp_path / "cx.json"
    code = main(
        ["complexity", "--train", str(train), "--lambda", "0", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    entry = doc["treebanks"][str(train)]
    assert entry["entropy_bits"] == 3.0
    assert entry["vocab_size"] == 8


def test_complexity_of_one_word_type_is_positive_zero(tmp_path, capsys):
    train = tmp_path / "one-type.conllu"
    train.write_text("1\tword\tw\tNOUN\t_\t_\t0\troot\t_\t_\n\n" * 3, encoding="utf-8")
    out = tmp_path / "cx.json"
    assert main(["complexity", "--train", str(train), "--out", str(out)]) == 0
    assert f"{train}: H=0.0000 bits (V=1, n=3," in capsys.readouterr().out
    assert '"entropy_bits": 0.0,' in out.read_text(encoding="utf-8")


# once exit 1 with neither document written: the golden train and dev sets
# have one entropy and one mean leaf count, so r is undefined
def test_complexity_with_constant_values_writes_null_r(tmp_path, capsys):
    golden = Path(__file__).parent / "data" / "golden"
    train, dev = str(golden / "train.conllu"), str(golden / "dev.conllu")
    out, csv = tmp_path / "cx.json", tmp_path / "cx.csv"
    code = main(["complexity", "--train", train, dev,
                 "--rules", str(golden / "rules.json"), str(golden / "rules-dev.json"),
                 "--out", str(out), "--csv", str(csv)])
    assert code == 0
    assert "r undefined (constant values)" in capsys.readouterr().out
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["conciseness_pearson_r"] is None
    entries = [doc["treebanks"][path] for path in (train, dev)]
    assert entries[0]["entropy_bits"] == entries[1]["entropy_bits"]
    assert entries[0]["mean_leaf_count"] == entries[1]["mean_leaf_count"] is not None
    assert csv.read_text(encoding="utf-8").splitlines()[1:] == [
        f"{path},{entry['entropy_bits']!r},{entry['mean_leaf_count']!r}"
        for path, entry in zip((train, dev), entries)
    ]


def test_complexity_rejects_a_repeated_treebank_at_parsing(tmp_path, capsys):
    golden = Path(__file__).parent / "data" / "golden"
    train, rules = str(golden / "train.conllu"), str(golden / "rules.json")
    out, csv = tmp_path / "cx.json", tmp_path / "cx.csv"
    with pytest.raises(SystemExit) as info:
        main(["complexity", "--train", train, train, "--rules", rules, rules,
              "--out", str(out), "--csv", str(csv)])
    assert info.value.code == 2
    assert f"argument --train: {train!r} is given twice" in capsys.readouterr().err
    assert not out.exists() and not csv.exists()


def test_complexity_names_an_empty_treebank(tmp_path, capsys):
    empty = tmp_path / "empty.conllu"
    empty.write_text("", encoding="utf-8")
    train = str(Path(__file__).parent / "data" / "golden" / "train.conllu")
    out = tmp_path / "cx.json"
    code = main(["complexity", "--train", str(empty), train, "--out", str(out)])
    assert code == 1
    assert f"error: {empty}: no tokens" in capsys.readouterr().err
    assert not out.exists()


def test_correlate_identical_scores_and_protocol_shape(workspace, tmp_path):
    # four-setting protocol: simulate-50, simulate-100, baseline, gold
    settings = ["sim50", "sim100", "baseline", "gold"]
    arm_values = {"Gender": [0.55, 0.6, 0.4, 0.7], "Number": [0.5, 0.52, 0.5, 0.58]}
    hrm_values = arm_values  # identical scores: r must be 1.0
    eval_paths, hrm_paths = [], []
    for i, name in enumerate(settings):
        ep = tmp_path / f"eval-{name}.json"
        hp = tmp_path / f"hrm-{name}.json"
        write_json(
            {
                "format_version": "1",
                "features": {
                    f: {"arm": arm_values[f][i], "absent": False} for f in arm_values
                },
            },
            ep,
        )
        write_json(
            {
                "format_version": "1",
                "features": {f: {"hrm": hrm_values[f][i]} for f in hrm_values},
            },
            hp,
        )
        eval_paths.append(str(ep))
        hrm_paths.append(str(hp))
    out = tmp_path / "corr.json"
    code = main(
        ["correlate", "--eval", *eval_paths, "--hrm", *hrm_paths, "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["per_feature"]["Gender"]["r"] == pytest.approx(1.0)
    assert doc["per_feature"]["Number"]["r"] == pytest.approx(1.0)
    assert doc["mean_r"] == pytest.approx(1.0)
    assert len(doc["settings"]) == 4


_GOOD_EVAL = {"format_version": "1", "features": {"Gender": {"arm": 0.5, "absent": False}}}
_GOOD_HRM = {"format_version": "1", "features": {"Gender": {"hrm": 0.5}}}


@pytest.mark.parametrize(
    "bad_eval, bad_hrm, message",
    [
        ({"features": {"Gender": {"absent": False}}}, _GOOD_HRM, "'arm' is missing"),
        (_GOOD_EVAL, {"features": {"Gender": {"n_triples": 3}}}, "'hrm' is missing"),
        ([_GOOD_EVAL], _GOOD_HRM, "'features' is not an object"),
    ],
    ids=["eval-without-arm", "hrm-without-hrm", "top-level-list"],
)
def test_correlate_rejects_malformed_documents(tmp_path, capsys, bad_eval, bad_hrm, message):
    paths = {}
    for name, doc in (("eval-a", _GOOD_EVAL), ("eval-b", bad_eval),
                      ("hrm-a", _GOOD_HRM), ("hrm-b", bad_hrm)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    code = main(
        ["correlate", "--eval", str(paths["eval-a"]), str(paths["eval-b"]),
         "--hrm", str(paths["hrm-a"]), str(paths["hrm-b"])]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_correlate_names_a_truncated_eval_file(tmp_path, capsys):
    paths = []
    for name, text in (("eval-a", json.dumps(_GOOD_EVAL)), ("eval-b", json.dumps(_GOOD_EVAL)[:-9]),
                       ("hrm-a", json.dumps(_GOOD_HRM)), ("hrm-b", json.dumps(_GOOD_HRM))):
        paths.append(str(tmp_path / f"{name}.json"))
        Path(paths[-1]).write_text(text, encoding="utf-8")
    assert main(["correlate", "--eval", *paths[:2], "--hrm", *paths[2:]]) == 1
    assert capsys.readouterr().err.startswith(f"error: {paths[1]}: Expecting")


def test_hrm_names_the_line_of_a_sheet_that_is_not_utf8(workspace, tmp_path, capsys):
    sheet = tmp_path / "sheet.tsv"
    sheet.write_bytes(b"feature\trelation\thead_pos\tdep_pos\tlabel\n"
                      b"Gender\tdet\tNOUN\tDET\tneed_not\n"
                      b"Gender\tsubj\tVERB\tNOUN\tneed_not \xff\n")
    code = main(["hrm", "--rules", str(workspace / "rules.json"), "--annotations", str(sheet)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: {sheet}: line 3: 'utf-8' codec can't decode byte 0xff")


# (command and its arguments but --out, exit code with --out '')
EMPTY_OUT = [
    pytest.param(lambda ws, tmp: ["extract", "--train", str(ws / "train.conllu"),
                                  "--features", "Gender"], 1, id="extract"),
    pytest.param(lambda ws, tmp: ["evaluate", "--rules", str(ws / "rules.json"),
                                  "--test", str(ws / "test.conllu")], 1, id="evaluate"),
    pytest.param(lambda ws, tmp: ["hrm", "--rules", str(ws / "rules.json"),
                                  "--annotations", str(tmp / "ann.tsv")], 0, id="hrm"),
    pytest.param(lambda ws, tmp: ["complexity", "--train", str(ws / "train.conllu"),
                                  "--rules", str(ws / "rules.json")], 0, id="complexity"),
    pytest.param(lambda ws, tmp: ["correlate", "--eval", str(tmp / "eval-a.json"),
                                  str(tmp / "eval-b.json"), "--hrm", str(tmp / "hrm-a.json"),
                                  str(tmp / "hrm-b.json")], 0, id="correlate"),
]


@pytest.mark.parametrize("argv, code", EMPTY_OUT)
def test_empty_out_path_fails_a_required_document_and_skips_an_optional_one(
        workspace, tmp_path, monkeypatch, capsys, argv, code):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "ann.tsv").write_text(
        "feature\trelation\thead_pos\tdep_pos\tlabel\nGender\tdet\tNOUN\tDET\talmost_always\n",
        encoding="utf-8")
    for name, doc in (("eval-a", _GOOD_EVAL), ("hrm-a", _GOOD_HRM)):
        write_json(doc, inputs / f"{name}.json")
    write_json({"features": {"Gender": {"arm": 0.75}}}, inputs / "eval-b.json")
    write_json({"features": {"Gender": {"hrm": 0.25}}}, inputs / "hrm-b.json")
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    assert main([*argv(workspace, inputs), "--out", ""]) == code
    out, err = capsys.readouterr()
    assert "wrote" not in out and list(run.iterdir()) == []
    assert err.startswith("error: ") if code else err == ""


def test_correlate_rejects_mismatched_setting_lists(tmp_path):
    code = main(["correlate", "--eval", "a.json", "--hrm", "b.json", "c.json"])
    assert code == 1


def test_report_renders_and_is_deterministic(workspace):
    args = [
        "report",
        "--rules", str(workspace / "rules.json"),
        "--train", str(workspace / "train.conllu"),
        "--seed", "3",
    ]
    out1, out2 = workspace / "report1", workspace / "report2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("index.html", "feature-Gender.html", "feature-Number.html"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    page = (out1 / "feature-Gender.html").read_text(encoding="utf-8")
    assert "required-agreement" in page and "chance-agreement" in page
    assert page.count('<div class="example">') <= 20 * page.count('<div class="rule">')
    index = (out1 / "index.html").read_text(encoding="utf-8")
    assert "feature-Gender.html" in index


def test_report_includes_eval_scores_when_given(workspace):
    out = workspace / "report-eval"
    assert main(
        [
            "evaluate",
            "--rules", str(workspace / "rules.json"),
            "--test", str(workspace / "test.conllu"),
            "--baseline",
            "--out", str(workspace / "eval-for-report.json"),
        ]
    ) == 0
    assert main(
        [
            "report",
            "--rules", str(workspace / "rules.json"),
            "--train", str(workspace / "train.conllu"),
            "--eval", str(workspace / "eval-for-report.json"),
            "--out", str(out),
        ]
    ) == 0
    page = (out / "feature-Gender.html").read_text(encoding="utf-8")
    assert "ARM on held-out data" in page
    index = (out / "index.html").read_text(encoding="utf-8")
    assert "1.000" in index  # Gender ARM on the planted corpus


def test_report_marks_absent_features_on_index(workspace):
    out = workspace / "report-absent"
    assert main(
        [
            "report",
            "--rules", str(workspace / "rules.json"),
            "--train", str(workspace / "train.conllu"),
            "--out", str(out),
        ]
    ) == 0
    index = (out / "index.html").read_text(encoding="utf-8")
    assert "Case" in index and "absent from the treebank" in index
    assert not (out / "feature-Case.html").exists()


def test_report_and_annotation_sheet_build_no_dataset(workspace, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("extract_instances called")

    for module in list(sys.modules.values()):
        if module.__name__.startswith("morphagree") and hasattr(module, "extract_instances"):
            monkeypatch.setattr(module, "extract_instances", refuse)
    rules, train = str(workspace / "rules.json"), str(workspace / "train.conllu")
    assert main(["annotation-sheet", "--rules", rules, "--train", train,
                 "--out", str(tmp_path / "sheet.tsv")]) == 0
    assert main(["report", "--rules", rules, "--train", train,
                 "--out", str(tmp_path / "report")]) == 0
    assert (tmp_path / "report" / "feature-Gender.html").exists()


def test_hard_vs_statistical_threshold_on_small_pure_leaf(tmp_path):
    # 3 pure-agree det edges plus a balanced subj block: the hard threshold
    # trusts the tiny leaf, the statistical one does not
    blocks = []
    for value in ("Sing", "Plur", "Sing"):
        blocks.append(
            f"1\tel\tel\tDET\t_\tNumber={value}\t2\tdet\t_\t_\n"
            f"2\tcasa\tcasa\tNOUN\t_\tNumber={value}\t0\troot\t_\t_\n\n"
        )
    for i in range(20):
        head = "Sing" if i % 2 else "Plur"
        dep = head if i < 10 else ("Plur" if head == "Sing" else "Sing")
        blocks.append(
            f"1\tperro\tperro\tNOUN\t_\tNumber={dep}\t2\tsubj\t_\t_\n"
            f"2\tcorre\tcorrer\tVERB\t_\tNumber={head}\t0\troot\t_\t_\n\n"
        )
    train = tmp_path / "small.conllu"
    train.write_text("".join(blocks), encoding="utf-8")
    det = Triple(head_pos="NOUN", relation="det", dep_pos="DET")

    hard_out = tmp_path / "hard.json"
    stat_out = tmp_path / "stat.json"
    for threshold, out in (("hard", hard_out), ("statistical", stat_out)):
        assert main(
            [
                "extract",
                "--train", str(train),
                "--threshold", threshold,
                "--features", "Number",
                "--out", str(out),
            ]
        ) == 0
    hard_rules = load_rules(hard_out).rulesets["Number"]
    stat_rules = load_rules(stat_out).rulesets["Number"]
    assert label_triple(hard_rules, det) is Label.REQUIRED
    assert label_triple(stat_rules, det) is Label.CHANCE


def test_extract_with_dev_set_and_flags(workspace, tmp_path):
    out = tmp_path / "rules-dev.json"
    code = main(
        [
            "extract",
            "--train", str(workspace / "train.conllu"),
            "--dev", str(workspace / "test.conllu"),
            "--features", "Gender",
            "--marginals", "per-leaf",
            "--phi-sqrt",
            "--depth-range",
            "--metric", "macro-f1",
            "--alpha", "0.05",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    params = doc["params"]
    assert params["marginals_scope"] == "per-leaf"
    assert params["phi_sqrt"] is True
    assert params["depth_range"] is True
    assert params["selection_metric"] == "macro_f1"
    assert params["alpha"] == 0.05


def _broken(doc, feature, edit):
    """A copy of a rules document with one feature entry edited."""
    broken = json.loads(json.dumps(doc))
    edit(broken["features"][feature])
    return broken


@pytest.mark.parametrize(
    "command, edit, named",
    [
        ("evaluate", lambda entry: entry.pop("tree"), "'tree'"),
        ("report", lambda entry: entry["rules"][0].pop("label"), "'label'"),
        ("evaluate", lambda entry: entry.update(tree=[]), "list"),
        (
            "report",
            lambda entry: entry["rules"][0].update(
                constraints={"relation": {"mode": "in", "values": ["__none__"]}}
            ),
            "rule 1: 'constraints' differs",
        ),
        # rule 2 overlapping rule 1: no command may pick the first match
        *[
            (
                command,
                lambda entry: entry["rules"][1].update(constraints={}),
                "rule 2: 'constraints' differs",
            )
            for command in ("report", "annotation-sheet", "evaluate")
        ],
        # a string of values would read as its set of characters
        (
            "evaluate",
            lambda entry: entry["rules"][0]["constraints"].update(
                relation={"mode": "in", "values": "det"}
            ),
            "rule 1: 'constraints' differs from",
        ),
        (
            "report",
            lambda entry: entry["rules"][0]["constraints"].update(
                relation={"mode": "IN", "values": ["det"]}
            ),
            "rule 1: 'constraints' differs from the merge",
        ),
    ],
)
def test_malformed_rules_fail_with_error_line(
    workspace, tmp_path, capsys, command, edit, named
):
    doc = json.loads((workspace / "rules.json").read_text(encoding="utf-8"))
    rules = tmp_path / "broken.json"
    write_json(_broken(doc, "Gender", edit), rules)
    argv = {
        "evaluate": ["evaluate", "--rules", str(rules),
                     "--test", str(workspace / "test.conllu"),
                     "--out", str(tmp_path / "eval.json")],
        "annotation-sheet": ["annotation-sheet", "--rules", str(rules),
                             "--train", str(workspace / "train.conllu"),
                             "--out", str(tmp_path / "sheet.tsv")],
        "report": ["report", "--rules", str(rules),
                   "--train", str(workspace / "train.conllu"),
                   "--out", str(tmp_path / "report")],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "'Gender'" in err and named in err
    assert "Traceback" not in err


def test_commands_leave_cyclic_garbage_that_does_not_grow_with_the_corpus(
    tmp_path, capsys, monkeypatch
):
    # every command runs with the cyclic GC paused, which holds memory only
    # if the data it builds is acyclic: the cycles a command leaves (its
    # argument parser's) must not grow with a corpus 4x larger
    parse = morphagree.cli.parse_conllu_file
    collecting = []

    def parse_noting_the_gc(path):
        collecting.append(gc.isenabled())
        return parse(path)

    monkeypatch.setattr(morphagree.cli, "parse_conllu_file", parse_noting_the_gc)
    found = {}
    for n_sentences in (100, 400):
        train = tmp_path / f"train-{n_sentences}.conllu"
        train.write_text(six_feature_conllu(n_sentences), encoding="utf-8")
        rules = str(tmp_path / f"rules-{n_sentences}.json")
        commands = [
            ["extract", "--train", str(train), "--out", rules],
            ["evaluate", "--rules", rules, "--test", str(train), "--baseline",
             "--out", str(tmp_path / "eval.json")],
            ["annotation-sheet", "--rules", rules, "--train", str(train),
             "--out", str(tmp_path / "sheet.tsv")],
            ["report", "--rules", rules, "--train", str(train), "--out", str(tmp_path / "report")],
        ]
        was_enabled = gc.isenabled()
        try:
            for argv in commands:
                gc.collect()
                gc.disable()
                assert main(argv) == 0
                assert not gc.isenabled()
                found[argv[0], n_sentences] = gc.collect()
            gc.enable()
            assert main(commands[-1]) == 0
            assert gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()
    assert collecting and not any(collecting)
    for command in ("extract", "evaluate", "annotation-sheet", "report"):
        assert found[command, 400] <= found[command, 100], command
