"""Hand-edited and fuzzed documents and out-of-range counts at the CLI.

The JSON fuzz makes one change to the golden rules.json, or to an eval.json
or hrm.json derived from it: it replaces one value at any depth (only the
first three items of each list are visited) or deletes one object key. The
sheet fuzz makes one cell or line change to a labeled annotation sheet
exported from the golden files, and the CoNLL-U fuzz one column or line
change to the golden training treebank. Every command that reads the
changed document must then return 0, or 1 with an ``error:`` line, and
raise nothing. The named cases are faults once seen as tracebacks or as silently
wrong reports."""
import json
import math
import random
import sys
from pathlib import Path

import pytest

import morphagree.cli
from morphagree.cli import main
from morphagree.conllu import parse_conllu_file
from morphagree.errors import MalformedRulesError
from morphagree.evaluation import HumanLabel
from morphagree.labeling import chi_square_survival, cramers_phi
from morphagree.serialization import load_rules, verdict_to_dict

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
REPLACEMENTS = ("x", 5, 2.5, None, True, [], {})
DELETE = "<delete>"
RULES_CASES = 70
EVAL_CASES = 30
HRM_CASES = 30
ANNOTATIONS = (
    "feature\trelation\thead_pos\tdep_pos\tlabel\n"
    "Gender\tdet\tNOUN\tDET\talmost_always\n"
    "Gender\tsubj\tVERB\tNOUN\tneed_not\n"
    "Number\tdet\tNOUN\tDET\tsometimes\n"
)


def _positions(value, path=()):
    """The path of every object member and of the first three items of
    every list below value, parents before children."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value[:3])
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _positions(child, path + (key,))


def single_changes(doc, count: int, seed: int) -> list[tuple[str, object]]:
    """count (case id, changed copy) pairs, drawn with a seeded generator."""
    positions = list(_positions(doc))
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        path = rng.choice(positions)
        change = rng.choice(REPLACEMENTS + ((DELETE,) if isinstance(path[-1], str) else ()))
        changed = json.loads(json.dumps(doc))
        parent = changed
        for key in path[:-1]:
            parent = parent[key]
        if change == DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = change
        cases.append(("/".join(map(str, path)) + f" = {change!r}", changed))
    return cases


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    """Golden inputs, an eval.json and hrm files derived from them, and a
    parse cache: the treebank never changes, only the JSON documents do."""
    cache = {}

    def parse(path):
        if path not in cache:
            cache[path] = parse_conllu_file(path)
        return cache[path]

    monkeypatch.setattr(morphagree.cli, "parse_conllu_file", parse)
    train = str(GOLDEN_DIR / "train.conllu")
    (tmp_path / "annotations.tsv").write_text(ANNOTATIONS, encoding="utf-8")
    for name, scores in (("hrm-a.json", (0.5, 0.75)), ("hrm-b.json", (0.25, 1.0))):
        doc = {"features": {"Gender": {"hrm": scores[0]}, "Number": {"hrm": scores[1]}}}
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    assert main(["evaluate", "--rules", str(GOLDEN_DIR / "rules.json"), "--test", train,
                 "--baseline", "--out", str(tmp_path / "eval.json")]) == 0
    return tmp_path, train


EVERY_COMMAND = ("evaluate", "annotation-sheet", "hrm", "complexity", "report")


def _commands(tmp_path, train: str, rules: str, names=EVERY_COMMAND) -> list[list[str]]:
    """The argv of each named command that reads the rules file."""
    argv = {
        "evaluate": ["evaluate", "--rules", rules, "--test", train, "--top-k", "5",
                     "--out", str(tmp_path / "out-eval.json")],
        "annotation-sheet": ["annotation-sheet", "--rules", rules, "--train", train,
                             "--top-k", "5", "--examples", "2",
                             "--out", str(tmp_path / "sheet.tsv")],
        "hrm": ["hrm", "--rules", rules, "--annotations", str(tmp_path / "annotations.tsv")],
        "complexity": ["complexity", "--train", train, "--rules", rules],
        "report": ["report", "--rules", rules, "--train", train, "--examples", "2",
                   "--out", str(tmp_path / "report")],
    }
    return [argv[name] for name in names]


def _run_all(tmp_path, cases, commands, capsys, name="changed.json",
             dump=json.dumps) -> list[str]:
    """Run every command on every case, written to name by dump; one line
    per case that escaped an exception, returned another code, or failed
    without an error: line."""
    problems = []
    for case, doc in cases:
        (tmp_path / name).write_text(dump(doc), encoding="utf-8")
        for argv in commands:
            capsys.readouterr()
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:
                problems.append(f"{argv[0]} on {case}: {type(exc).__name__}: {exc}")
                continue
            err = capsys.readouterr().err
            if code not in (0, 1) or (code == 1 and "error: " not in err):
                problems.append(f"{argv[0]} on {case}: exit {code}, stderr {err!r}")
    return problems


def test_changed_rules_documents_never_escape(workspace, capsys):
    tmp_path, train = workspace
    golden = json.loads((GOLDEN_DIR / "rules.json").read_text(encoding="utf-8"))
    commands = _commands(tmp_path, train, str(tmp_path / "changed.json"))
    assert _run_all(tmp_path, single_changes(golden, RULES_CASES, 1), commands, capsys) == []


def test_changed_eval_documents_never_escape(workspace, capsys):
    tmp_path, train = workspace
    evaluated = json.loads((tmp_path / "eval.json").read_text(encoding="utf-8"))
    changed = str(tmp_path / "changed.json")
    commands = (
        ["report", "--rules", str(GOLDEN_DIR / "rules.json"), "--train", train,
         "--eval", changed, "--examples", "2", "--out", str(tmp_path / "report")],
        ["correlate", "--eval", str(tmp_path / "eval.json"), changed,
         "--hrm", str(tmp_path / "hrm-a.json"), str(tmp_path / "hrm-b.json")],
    )
    assert _run_all(tmp_path, single_changes(evaluated, EVAL_CASES, 2), commands, capsys) == []


def test_changed_hrm_documents_never_escape(workspace, capsys):
    tmp_path, train = workspace
    scored = tmp_path / "hrm.json"
    assert main(["hrm", "--rules", str(GOLDEN_DIR / "rules.json"),
                 "--annotations", str(tmp_path / "annotations.tsv"), "--out", str(scored)]) == 0
    other = tmp_path / "eval-other.json"
    other.write_text(json.dumps({"features": {"Gender": {"arm": 0.25}, "Number": {"arm": 0.5}}}),
                     encoding="utf-8")
    commands = (
        ["correlate", "--eval", str(tmp_path / "eval.json"), str(other),
         "--hrm", str(scored), str(tmp_path / "changed.json")],
    )
    # hrm writes per-triple detail that correlate never reads, so the fuzz
    # also changes the bare scores of hrm-a.json
    cases = [case for name, seed in ((scored, 5), (tmp_path / "hrm-a.json", 6))
             for case in single_changes(json.loads(name.read_text(encoding="utf-8")),
                                        HRM_CASES, seed)]
    assert _run_all(tmp_path, cases, commands, capsys) == []


def _gender(doc):
    return doc["features"]["Gender"]


def _first_leaf(node):
    while "leaf" not in node:
        node = node["match"]
    return node["leaf"]


def _second_leaf_renamed_first(doc):
    """Gender's second leaf given the first leaf's id, with verdicts, rules
    and training_size edited to agree with that second leaf alone."""
    gender = _gender(doc)
    second = gender["tree"]["root"]["nomatch"]["leaf"]
    second["leaf_id"] = 1
    gender["training_size"] = gender["tree"]["training_size"] = (
        second["n_agree"] + second["n_disagree"])
    del gender["leaf_verdicts"][1]
    first_rule = gender["rules"][0]
    gender["rules"] = [{**first_rule, "constraints": {}, "n_agree": second["n_agree"],
                        "n_disagree": second["n_disagree"]}]


def _relabel_first(doc):
    """Gender's first leaf and its rule, rule 1, labeled chance."""
    _gender(doc)["leaf_verdicts"][0]["label"] = _gender(doc)["rules"][0]["label"] = "chance"


def _hard(doc):
    """The golden document as the hard labeler at its 0.9 threshold gives
    it: the same labels, and no statistics."""
    doc["params"]["threshold_mode"] = "hard"
    for entry in doc["features"].values():
        for verdict in entry.get("leaf_verdicts", ()):
            verdict.update(chi2=None, p_value=None, phi_c=None)


def _empty_first(doc):
    """Gender's first leaf, of 276 agreeing and 4 disagreeing instances,
    left with none, and both training_size counts lowered to match."""
    gender = _gender(doc)
    _first_leaf(gender["tree"]["root"]).update(n_agree=0, n_disagree=0)
    gender["training_size"] = gender["tree"]["training_size"] = 800 - 280


def _untested_first(doc):
    """Gender's first leaf given 252 of its 280 instances agreeing, a ratio
    of 0.9, and no statistics: as if the labeler had not tested it."""
    gender = _gender(doc)
    _first_leaf(gender["tree"]["root"]).update(n_agree=252, n_disagree=28)
    gender["rules"][0].update(n_agree=252, n_disagree=28)
    gender["leaf_verdicts"][0].update(agree_ratio=0.9, chi2=None, p_value=None, phi_c=None)


# (edit of the golden rules.json, commands that read it, text the error names)
RULES_FAULTS = [
    (lambda d: d.update(params=[]), EVERY_COMMAND, "'params' must be an object"),
    (lambda d: d.update(treebank=5), ("report",), "'treebank' must be a string"),
    (lambda d: d["params"].update(threshold_mode="fuzzy"), ("report",),
     "threshold_mode 'fuzzy'"),
    *[
        (lambda d, slot=slot, value=value: _gender(d)["training_triples"][0].update(
            {slot: value}), ("evaluate",), f"'{slot}' must be a string")
        for slot, value in (("relation", []), ("head_pos", {}), ("dep_pos", ["NOUN"]))
    ],
    # once scored by evaluate --top-k 2 as its top two: the two least frequent
    (lambda d: _gender(d)["training_triples"].reverse(), ("evaluate",),
     "'training_triples' are not most frequent first"),
    (lambda d: _gender(d)["training_triples"].append(_gender(d)["training_triples"][0]),
     ("evaluate",), "'training_triples' repeats the triple"),
    (lambda d: _gender(d)["training_triples"][-1].update(count=0), ("evaluate",),
     "'count' 0 of"),
    (lambda d: _gender(d)["training_triples"][0].update(count=86), ("evaluate",),
     "'training_triples' counts sum to 801, not the 'training_size' 800"),
    *[
        (lambda d, key=key: _gender(d)["rules"][0].update({key: {}}), ("report",),
         f"rule 1: '{key}' must be an integer")
        for key in ("n_agree", "n_disagree", "rule_id")
    ],
    (lambda d: _gender(d)["chance_model"].update(p_chance={}), ("report",),
     "'p_chance' must be a number"),
    (lambda d: _gender(d)["leaf_verdicts"][0].update(leaf_id={}), ("report",),
     "'leaf_id' must be an integer"),
    *[
        (lambda d, key=key: _gender(d)["leaf_verdicts"][0].update({key: {}}), ("report",),
         f"'{key}' must be a number or null")
        for key in ("agree_ratio", "chi2", "p_value", "phi_c")
    ],
    (lambda d: _gender(d)["rules"][0].update(label="sometimes"), ("evaluate",),
     "rule 1: 'label' differs from the merge of the tree's labeled leaves"),
    (lambda d: _gender(d)["tree"]["root"]["split"].update(slot="bogus"), ("evaluate",),
     "slot 'bogus'"),
    (lambda d: _gender(d)["rules"][0]["constraints"].update(bogus={}), ("evaluate",),
     "rule 1: 'constraints' differs from the merge"),
    # a string of leaf ids would read as its characters
    (lambda d: _gender(d)["rules"][0].update(source_leaf_ids="ab"), ("report",),
     "rule 1: 'source_leaf_ids' must be a list"),
    (lambda d: _gender(d)["rules"][1]["source_leaf_ids"].append(
        _gender(d)["rules"][0]["source_leaf_ids"][0]), ("report",),
     "rule 2: 'source_leaf_ids' differs from the merge"),
    (lambda d: _gender(d)["rules"][1].update(rule_id=_gender(d)["rules"][0]["rule_id"]),
     ("report",), "rule 2: 'rule_id' differs from the merge"),
    # once read as a rule without its verdict table, and as "agree: -7"
    (lambda d: _gender(d)["leaf_verdicts"].pop(0), ("report", "evaluate"),
     "'leaf_verdicts' do not list each leaf"),
    (lambda d: _gender(d)["rules"][0].update(n_agree=-7), ("report", "annotation-sheet"),
     "rule 1: 'n_agree' differs from the merge of the tree's labeled leaves"),
    (lambda d: _first_leaf(_gender(d)["tree"]["root"]).update(n_disagree=-1), ("report",),
     "negative count"),
    # once read as "training instances: 5" beside rules that count 800
    *[
        (lambda d, at=at: at(_gender(d)).update(training_size=5), ("report",),
         "'training_size' is not 800")
        for at in (lambda entry: entry, lambda entry: entry["tree"])
    ],
    (lambda d: _gender(d)["rules"][0].update(
        label={"required": "chance", "chance": "required"}[_gender(d)["rules"][0]["label"]]),
     ("report", "evaluate"), "rule 1: 'label' differs from the merge of"),
    # once read as one rule over 520 instances: the first leaf 1 and its 280 vanished
    (_second_leaf_renamed_first, EVERY_COMMAND, "two leaves of the tree have leaf_id 1"),
    # json.dumps writes these as NaN and Infinity, which Python's json reads
    # back; once reported as "chance agreement probability: nan" and <td>inf</td>
    (lambda d: _gender(d)["chance_model"].update(p_chance=math.nan), ("report",),
     "'p_chance' must be a finite number, not nan"),
    (lambda d: _gender(d)["leaf_verdicts"][0].update(agree_ratio=math.inf), ("report",),
     "'agree_ratio' must be a finite number, not inf"),
    (lambda d: _gender(d)["leaf_verdicts"][0].update(chi2=-math.inf), ("report",),
     "'chi2' must be a finite number, not -inf"),
    (lambda d: _gender(d)["chance_model"]["value_probs"].update(Fem=math.nan), ("report",),
     "'value_probs'['Fem'] must be a finite number, not nan"),
    (lambda d: _gender(d)["tree"]["hyperparams"].update(min_impurity_decrease=math.inf),
     EVERY_COMMAND, "'min_impurity_decrease' must be a finite number, not inf"),
    # statistics that contradict the document's own counts or chi2, each
    # once printed by report as it stood
    (lambda d: _gender(d)["leaf_verdicts"][0].update(agree_ratio=0.123), ("report",),
     "leaf 1: 'agree_ratio' 0.123 is not 0.9857142857142858, what statistical labeling gives it"),
    (lambda d: _gender(d)["leaf_verdicts"][0].update(p_value=-3), ("report",),
     "leaf 1: 'p_value' -3 is not 2.1808266043617394e-82, what statistical labeling gives it"),
    (lambda d: _gender(d)["leaf_verdicts"][0].update(chi2=-0.5), ("report",),
     "leaf 1: 'chi2' -0.5 is negative"),
    (lambda d: _gender(d)["leaf_verdicts"][0].update(phi_c=-0.5), ("report",),
     "leaf 1: 'phi_c' -0.5 is not 1.3203389739862796, what statistical labeling gives it"),
    (lambda d: _gender(d)["leaf_verdicts"][0].update(p_value=0.5, phi_c=0.001), ("report",),
     "leaf 1: 'p_value' 0.5 is not 2.1808266043617394e-82, what statistical labeling gives it"),
    (lambda d: _gender(d)["leaf_verdicts"][0].update(chi2=5e9), ("report",),
     "leaf 1: 'chi2' 5000000000.0 is not 369.6949127161583, what statistical labeling gives it"),
    (lambda d: _gender(d)["leaf_verdicts"][1].update(p_value=0.0, phi_c=0.0), ("report",),
     "leaf 2: 'p_value' 0.0 is not None, what statistical labeling gives it"),
    # a chi2, p_value and phi_c that follow from one another but not from
    # the leaf's 276 of 280 agreeing under p_chance 0.418809375; finite,
    # and infinite as rules.json writes it
    (lambda d: _gender(d)["leaf_verdicts"][0].update(
        chi2=400.0, p_value=chi_square_survival(400.0), phi_c=cramers_phi(400.0, 280)),
     ("report", "evaluate"),
     "leaf 1: 'chi2' 400.0 is not 369.6949127161583, what statistical labeling gives it"),
    (lambda d: _gender(d)["leaf_verdicts"][0].update(chi2=None, p_value=0.0, phi_c=None),
     ("report",),
     "leaf 1: 'chi2' None is not 369.6949127161583, what statistical labeling gives it"),
    # under per-leaf marginals, whose p_chance is not stored, a chi2 is
    # checked for its sign alone, and its p_value and phi_c follow from it,
    # not from the global statistic
    (lambda d: (d["params"].update(marginals_scope="per-leaf"),
                _gender(d)["leaf_verdicts"][0].update(chi2=-2.0)),
     ("report", "evaluate"), "leaf 1: 'chi2' -2.0 is negative"),
    (lambda d: (d["params"].update(marginals_scope="per-leaf"),
                _gender(d)["leaf_verdicts"][0].update(chi2=400.0, p_value=0.25)),
     ("report", "evaluate"),
     f"leaf 1: 'p_value' 0.25 is not {chi_square_survival(400.0)!r}, what statistical "
     "labeling gives it"),
    (lambda d: _gender(d)["chance_model"].update(p_chance=0.99), ("report",),
     "'p_chance' 0.99 is not the sum of the squared 'value_probs', 0.418809375"),
    (lambda d: _gender(d)["chance_model"].update(value_probs={"Masc": 2.0}), ("report",),
     "'value_probs'['Masc'] 2.0 is not in (0, 1]"),
    (lambda d: _gender(d)["chance_model"]["value_probs"].pop("Neut"), ("report",),
     "'value_probs' sum to 0.85625, not 1"),
    # labels that contradict the verdict's own statistics under the params;
    # once reported as "Rule 1 chance-agreement" beside p 2.2e-82 and
    # phi_c 1.32, and scored by evaluate with that label
    (_relabel_first, ("report", "evaluate"),
     "leaf 1: 'label' 'chance' is not 'required', what statistical labeling gives it"),
    (lambda d: (_hard(d), _relabel_first(d)), ("report", "evaluate"),
     "leaf 1: 'label' 'chance' is not 'required', what hard labeling gives it"),
    (_untested_first, ("report",),
     "leaf 1: 'chi2' None is not 266.3528518943873, what statistical labeling gives it"),
    # once a ZeroDivisionError in report, had the loader not rejected it
    (_empty_first, ("report", "evaluate"), "leaf 1: 'n_agree' and 'n_disagree' are 0"),
    # once scored by hrm against Number's annotations: Gender's HRM read 0.6, not 0.4
    (lambda d: _gender(d)["tree"].update(feature="Number"), ("hrm", "report"),
     "the tree's 'feature' 'Number' is not 'Gender'"),
    # a param outside the CLI's range; at hard_threshold 0.3 a leaf with 203
    # of 520 instances agreeing would read as required
    (lambda d: d["params"].update(threshold_mode="hard", hard_threshold=0.3),
     ("report", "evaluate"),
     "'hard_threshold' 0.3 is not in [0.5, 1]"),
]


@pytest.mark.parametrize("edit, commands, named", RULES_FAULTS,
                         ids=[named for _, _, named in RULES_FAULTS])
def test_faulty_rules_fail_with_error_line(workspace, capsys, edit, commands, named):
    tmp_path, train = workspace
    golden = json.loads((GOLDEN_DIR / "rules.json").read_text(encoding="utf-8"))
    doc = json.loads(json.dumps(golden))
    edit(doc)
    rules = tmp_path / "faulty.json"
    rules.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for argv in _commands(tmp_path, train, str(rules), commands):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        if _gender(doc) != _gender(golden):
            assert "'Gender'" in err


def test_verdict_of_an_infinite_chi2_loads(tmp_path):
    # label_leaf_statistical gives an infinite chi2 a p_value of 0.0 and an
    # infinite phi_c; rules.json writes the two infinities as null. Under
    # per-leaf marginals, whose p_chance is not stored, chi2 is not
    # recomputed from the counts
    doc = json.loads((GOLDEN_DIR / "rules.json").read_text(encoding="utf-8"))
    doc["params"]["marginals_scope"] = "per-leaf"
    _gender(doc)["leaf_verdicts"][0].update(chi2=None, p_value=0.0, phi_c=None)
    rules = tmp_path / "infinite.json"
    rules.write_text(json.dumps(doc), encoding="utf-8")
    assert load_rules(rules).rulesets["Gender"].verdicts[0].p_value == 0.0


def test_labels_that_follow_from_their_statistics_load(tmp_path):
    doc = json.loads((GOLDEN_DIR / "rules.json").read_text(encoding="utf-8"))
    _hard(doc)
    rules = tmp_path / "hard.json"
    rules.write_text(json.dumps(doc), encoding="utf-8")
    assert load_rules(rules).rulesets["Gender"].verdicts[0].label.value == "required"
    # a leaf's own p_chance is not stored under per-leaf marginals: a
    # chance label may have failed that gate, and is not checked; its two
    # chance leaves merge into one rule
    doc = json.loads((GOLDEN_DIR / "rules.json").read_text(encoding="utf-8"))
    doc["params"]["marginals_scope"] = "per-leaf"
    gender = _gender(doc)
    _relabel_first(doc)
    gender["rules"] = [{**gender["rules"][0], "constraints": {}, "n_agree": 276 + 203,
                        "n_disagree": 4 + 317, "source_leaf_ids": [1, 2]}]
    rules.write_text(json.dumps(doc), encoding="utf-8")
    assert load_rules(rules).rulesets["Gender"].verdicts[0].label.value == "chance"
    # but a required label must pass the gates it can be checked against
    golden = json.loads((GOLDEN_DIR / "rules.json").read_text(encoding="utf-8"))
    gender["leaf_verdicts"][0]["label"] = "required"
    gender["rules"] = _gender(golden)["rules"]
    doc["params"]["alpha"] = 1e-100  # leaf 1's p_value is 2.2e-82
    rules.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedRulesError,
                       match="'label' 'required' is not 'chance', what statistical"):
        load_rules(rules)


def _outputs(tmp_path, train: str, rules: Path) -> dict[str, bytes]:
    """The bytes of every file that evaluate --top-k and report write
    from rules."""
    out = tmp_path / "outputs"
    out.mkdir(exist_ok=True)
    assert main(["evaluate", "--rules", str(rules), "--test", train, "--top-k", "5",
                 "--baseline", "--out", str(out / "eval.json")]) == 0
    assert main(["report", "--rules", str(rules), "--train", train, "--examples", "2",
                 "--out", str(out / "report")]) == 0
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_verdicts_stored_out_of_leaf_order_load_in_leaf_order(workspace):
    tmp_path, train = workspace
    golden = json.loads((GOLDEN_DIR / "rules.json").read_text(encoding="utf-8"))
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(golden), encoding="utf-8")
    in_order = _outputs(tmp_path, train, rules)
    doc = json.loads(json.dumps(golden))
    for entry in doc["features"].values():
        entry.get("leaf_verdicts", []).reverse()
    rules.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_rules(rules)
    for feature, ruleset in loaded.rulesets.items():
        assert ([verdict_to_dict(v) for v in ruleset.verdicts]
                == golden["features"][feature]["leaf_verdicts"])
    assert _outputs(tmp_path, train, rules) == in_order


def test_report_index_names_the_loaded_threshold_mode(workspace):
    # once "threshold: ?" on the index beside "threshold: statistical", the
    # loader's default, on each feature page
    tmp_path, train = workspace
    doc = json.loads((GOLDEN_DIR / "rules.json").read_text(encoding="utf-8"))
    del doc["params"]
    rules = tmp_path / "no-params.json"
    rules.write_text(json.dumps(doc), encoding="utf-8")
    assert load_rules(rules).threshold_mode.value == "statistical"
    assert main(["report", "--rules", str(rules), "--train", train, "--examples", "2",
                 "--out", str(tmp_path / "report")]) == 0
    for page in ("index.html", "feature-Gender.html", "feature-Number.html"):
        assert "threshold: statistical" in (tmp_path / "report" / page).read_text(
            encoding="utf-8"), page


# the RULES_FAULTS cases that break Gender's training_triples
TRAINING_TRIPLE_FAULTS = [
    (edit, named) for edit, _, named in RULES_FAULTS
    if named in {*(f"'{slot}' must be a string" for slot in ("relation", "head_pos", "dep_pos")),
                 "'training_triples' are not most frequent first",
                 "'training_triples' repeats the triple", "'count' 0 of",
                 "'training_triples' counts sum to 801, not the 'training_size' 800"}
]


@pytest.mark.parametrize("edit, named", TRAINING_TRIPLE_FAULTS,
                         ids=[named for _, named in TRAINING_TRIPLE_FAULTS])
def test_malformed_training_triples_fail_only_evaluate_top_k(workspace, edit, named):
    tmp_path, train = workspace
    doc = json.loads((GOLDEN_DIR / "rules.json").read_text(encoding="utf-8"))
    edit(doc)
    rules = tmp_path / "faulty.json"
    rules.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_rules(rules)
    with pytest.raises(MalformedRulesError, match=f"feature 'Gender': {named}"):
        loaded.training_triples
    # no other command reads the list, nor evaluate of every test triple
    commands = _commands(tmp_path, train, str(rules),
                         ("annotation-sheet", "hrm", "complexity", "report"))
    commands.append(["evaluate", "--rules", str(rules), "--test", train,
                     "--out", str(tmp_path / "out-eval.json")])
    for argv in commands:
        assert main(argv) == 0, argv[0]


# (edit of the golden rules.json, command reading it, text the error names
# after the file); once the file went unnamed, so complexity --rules r1 r2
# could not say which was bad
NAMED_FILE_FAULTS = [
    (lambda d: d.update(format_version="2"), "complexity",
     "unsupported rules format_version '2'"),
    (lambda d: _gender(d)["rules"][0].update(rule_id={}), "complexity",
     "feature 'Gender': rule 1: 'rule_id' must be an integer, not dict"),
    (lambda d: _gender(d)["training_triples"][0].update(relation=[]), "evaluate",
     "feature 'Gender': 'relation' must be a string, not list"),
]


@pytest.mark.parametrize("edit, command, named", NAMED_FILE_FAULTS,
                         ids=[named for _, _, named in NAMED_FILE_FAULTS])
def test_rules_fault_names_the_file(workspace, capsys, edit, command, named):
    tmp_path, train = workspace
    doc = json.loads((GOLDEN_DIR / "rules.json").read_text(encoding="utf-8"))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    argv = {
        "complexity": ["complexity", "--train", train, str(GOLDEN_DIR / "dev.conllu"),
                       "--rules", str(GOLDEN_DIR / "rules.json"), str(bad)],
        "evaluate": _commands(tmp_path, train, str(bad), ["evaluate"])[0],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}: {named}\n"


_SPLIT = ('{"split": {"slot": "relation", "value": "det"}, "nomatch": {"leaf": '
          '{"leaf_id": 1, "n_agree": 1, "n_disagree": 0}}, "match": ')
_LEAF = '{"leaf": {"leaf_id": 2, "n_agree": 1, "n_disagree": 0}}'


def _nested_rules(depth: int) -> str:
    """A rules.json whose Gender tree is a chain of depth splits."""
    tree = ('{"feature": "Gender", "training_size": 1, "hyperparams": {"criterion": "gini", '
            '"max_depth": 6, "min_impurity_decrease": 0}, "root": '
            + _SPLIT * depth + _LEAF + "}" * depth + "}")
    return '{"format_version": "1", "features": {"Gender": {"tree": ' + tree + "}}}"


def test_deeply_nested_rules_fail_with_error_line(workspace, capsys):
    # Around the recursion limit either the JSON reader or the recursive
    # tree loader runs out of stack first, depending on the Python version.
    tmp_path, train = workspace
    rules = tmp_path / "nested.json"
    limit = sys.getrecursionlimit()
    depths = [*range(limit - 300, limit + 30, 3), 5000]
    capsys.readouterr()
    for depth in depths:
        rules.write_text(_nested_rules(depth), encoding="utf-8")
        assert main(_commands(tmp_path, train, str(rules), ["evaluate"])[0]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_overflowing_number_literal_is_rejected(workspace, capsys):
    # 1e999 is valid JSON text that Python's json reads as inf
    tmp_path, train = workspace
    text = (GOLDEN_DIR / "rules.json").read_text(encoding="utf-8")
    rules = tmp_path / "overflow.json"
    rules.write_text(text.replace('"p_chance": 0.418809375', '"p_chance": 1e999', 1),
                     encoding="utf-8")
    capsys.readouterr()
    for argv in _commands(tmp_path, train, str(rules), ("report", "evaluate")):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {rules}: feature 'Gender': 'p_chance' must be a finite number, not inf\n")


# (edit of an eval.json, text the error names)
EVAL_FAULTS = [
    # once rendered as "ARM ... inf"
    (lambda d: d["features"]["Gender"].update(arm=math.inf),
     "feature 'Gender': 'arm' must be a finite number, not inf"),
    (lambda d: d["features"]["Gender"].update(baseline_arm=math.nan),
     "feature 'Gender': 'baseline_arm' must be a finite number, not nan"),
    (lambda d: d["features"]["Gender"].pop("arm"), "'arm' is missing"),
    (lambda d: d["features"]["Gender"].pop("n_triples"), "'n_triples' is missing"),
    (lambda d: d["features"]["Gender"].update(arm="1.0"), "'arm' is missing"),
    (lambda d: d["features"]["Gender"].update(baseline_arm="0.5"),
     "'baseline_arm' is missing or not a number or null"),
    (lambda d: d["features"].update(Gender="high"), "'features' is not an object"),
    (lambda d: d.update(features=[]), "'features' is not an object"),
    (lambda d: [d], "'features' is not an object"),
]


@pytest.mark.parametrize("edit, named", EVAL_FAULTS,
                         ids=[named for _, named in EVAL_FAULTS])
def test_faulty_eval_fails_report_with_error_line(workspace, capsys, edit, named):
    tmp_path, train = workspace
    doc = json.loads((tmp_path / "eval.json").read_text(encoding="utf-8"))
    changed = edit(doc)
    if isinstance(changed, list):  # the edit replaced the whole document
        doc = changed
    faulty = tmp_path / "faulty-eval.json"
    faulty.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--rules", str(GOLDEN_DIR / "rules.json"), "--train", train,
                 "--eval", str(faulty), "--out", str(tmp_path / "report")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("kind, key", [("eval", "arm"), ("hrm", "hrm")])
def test_non_finite_score_fails_correlate(workspace, capsys, kind, key):
    # a NaN arm once printed "r = nan" and wrote "mean_r": NaN, which is not JSON
    tmp_path, _ = workspace
    source = tmp_path / ("eval.json" if kind == "eval" else "hrm-a.json")
    doc = json.loads(source.read_text(encoding="utf-8"))
    doc["features"]["Gender"][key] = math.nan
    faulty = tmp_path / f"faulty-{kind}.json"
    faulty.write_text(json.dumps(doc), encoding="utf-8")
    evals = [str(tmp_path / "eval.json")] * 2
    hrms = [str(tmp_path / "hrm-a.json"), str(tmp_path / "hrm-b.json")]
    (evals if kind == "eval" else hrms)[0] = str(faulty)
    out = tmp_path / "correlation.json"
    capsys.readouterr()
    assert main(["correlate", "--eval", *evals, "--hrm", *hrms, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {faulty}: feature 'Gender': '{key}' must be a finite number, not nan\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--rules", "r.json", "--test", "t.conllu", "--top-k", "-2"],
        ["evaluate", "--rules", "r.json", "--test", "t.conllu", "--top-k", "0"],
        ["annotation-sheet", "--rules", "r.json", "--train", "t.conllu", "--top-k", "0"],
        ["annotation-sheet", "--rules", "r.json", "--train", "t.conllu", "--examples", "-1"],
        ["report", "--rules", "r.json", "--train", "t.conllu", "--out", "r", "--examples", "-1"],
        # numbers outside their range, NaN and infinities among them
        ["extract", "--train", "t.conllu", "--alpha", "nan"],
        ["extract", "--train", "t.conllu", "--alpha", "0"],
        ["extract", "--train", "t.conllu", "--alpha", "1.5"],
        ["extract", "--train", "t.conllu", "--alpha", "inf"],
        ["extract", "--train", "t.conllu", "--phi-min", "-0.1"],
        ["extract", "--train", "t.conllu", "--phi-min", "nan"],
        ["extract", "--train", "t.conllu", "--hard-threshold", "7"],
        ["extract", "--train", "t.conllu", "--hard-threshold", "0.4"],
        ["extract", "--train", "t.conllu", "--hard-threshold", "nan"],
        ["evaluate", "--rules", "r.json", "--test", "t.conllu", "--tau", "nan"],
        ["evaluate", "--rules", "r.json", "--test", "t.conllu", "--tau", "3"],
        ["evaluate", "--rules", "r.json", "--test", "t.conllu", "--tau", "-0.001"],
        ["evaluate", "--rules", "r.json", "--test", "t.conllu", "--tau", "inf"],
        # negative values, which argparse alone would take for options
        ["evaluate", "--rules", "r.json", "--test", "t.conllu", "--tau", "-1e-9"],
        ["extract", "--train", "t.conllu", "--phi-min", "-inf"],
        ["extract", "--train", "t.conllu", "--alpha", "-0.5"],
        ["complexity", "--train", "t.conllu", "--lambda", "-1e-3"],
        # once an error: line after the whole treebank was parsed, exit 1
        ["complexity", "--train", "t.conllu", "--lambda", "2"],
        ["complexity", "--train", "t.conllu", "--lambda", "nan"],
    ],
)
def test_counts_below_range_are_rejected_at_parsing(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    option, value = argv[-2:]
    expected = "must be at least" if option in ("--top-k", "--examples") else "must be in"
    err = capsys.readouterr().err
    assert f"argument {option}: {expected}" in err and f"not {value}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "--train", "t.conllu", "--alpha", "1"],
        ["extract", "--train", "t.conllu", "--alpha", "1e-300"],
        ["extract", "--train", "t.conllu", "--phi-min", "0"],
        ["extract", "--train", "t.conllu", "--phi-min", "1"],
        ["extract", "--train", "t.conllu", "--hard-threshold", "0.5"],
        ["extract", "--train", "t.conllu", "--hard-threshold", "1"],
        ["evaluate", "--rules", "r.json", "--test", "t.conllu", "--tau", "0"],
        ["evaluate", "--rules", "r.json", "--test", "t.conllu", "--tau", "1"],
    ],
)
def test_numbers_at_the_ends_of_their_range_are_accepted(argv):
    args = morphagree.cli.build_parser().parse_args(argv)
    assert getattr(args, argv[-2][2:].replace("-", "_")) == float(argv[-1])


def test_repeated_feature_is_rejected_at_parsing(tmp_path, capsys):
    out = tmp_path / "rules.json"
    with pytest.raises(SystemExit) as info:
        main(["extract", "--train", str(GOLDEN_DIR / "train.conllu"),
              "--features", "Gender", "Number", "Gender", "--out", str(out)])
    assert info.value.code == 2
    assert "argument --features: 'Gender' is given twice" in capsys.readouterr().err
    assert not out.exists()


# --- annotation sheets ---

LABELS = [label.value for label in HumanLabel]
SHEET_CASES = 30
SHEET_CELLS = ("", '"', '"x"', "x", " need_not ", "sometimes", "bogus", "feature", "label",
               "\ufeff", "\r", "a\tb")


def _labeled_sheet(tmp_path, train: str, examples: str = "2") -> list[list[str]]:
    """The cells of each line of the sheet annotation-sheet exports from
    train and the golden rules.json, each row given a label."""
    sheet = tmp_path / "sheet.tsv"
    assert main(["annotation-sheet", "--rules", str(GOLDEN_DIR / "rules.json"), "--train", train,
                 "--top-k", "20", "--examples", examples, "--out", str(sheet)]) == 0
    lines = [line.split("\t") for line in sheet.read_text(encoding="utf-8").split("\n")[:-1]]
    for at, cells in enumerate(lines[1:]):
        cells[4] = LABELS[at % len(LABELS)]
    return lines


def _tsv(lines: list[list[str]]) -> str:
    return "".join("\t".join(cells) + "\n" for cells in lines)


def _hrm(tmp_path, capsys, text: str) -> tuple[int, str, int | None]:
    """hrm's exit code and stderr on the sheet text, and on success the
    number of labeled rows it scored."""
    (tmp_path / "annotated.tsv").write_text(text, encoding="utf-8")
    out = tmp_path / "hrm.json"
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = main(["hrm", "--rules", str(GOLDEN_DIR / "rules.json"),
                 "--annotations", str(tmp_path / "annotated.tsv"), "--out", str(out)])
    err = capsys.readouterr().err
    if code != 0:
        return code, err, None
    features = json.loads(out.read_text(encoding="utf-8"))["features"]
    return code, err, sum(entry["n_triples"] for entry in features.values())


# once a _csv.Error traceback: the csv reader limits a field to 131,072 characters
def test_sheet_cell_longer_than_a_csv_field_is_read(workspace, capsys):
    tmp_path, train = workspace
    lines = _labeled_sheet(tmp_path, train)
    lines[1][5] = "x" * 140_000
    assert _hrm(tmp_path, capsys, _tsv(lines)) == (0, "", len(lines) - 1)


# once read as 12 of 24 labeled rows: a cell that starts with a quote ran,
# quoted, into the lines below it
def test_sheet_of_sent_ids_starting_with_a_quote_is_read_whole(workspace, capsys):
    tmp_path, train = workspace
    quoted = tmp_path / "quoted.conllu"
    text = Path(train).read_text(encoding="utf-8").replace("# sent_id = ", '# sent_id = "')
    quoted.write_text(text, encoding="utf-8")
    lines = _labeled_sheet(tmp_path, str(quoted), examples="1")
    assert all(cells[5].startswith('"') for cells in lines[1:])
    assert _hrm(tmp_path, capsys, _tsv(lines)) == (0, "", len(lines) - 1)


def _label_first(lines: list[list[str]]) -> list[list[str]]:
    return [[cells[4], *cells[:4], *cells[5:]] for cells in lines]


# once an AttributeError traceback: a short row read its missing cells as None
def test_short_labeled_row_under_reordered_header_names_its_line(workspace, capsys):
    tmp_path, train = workspace
    lines = _label_first(_labeled_sheet(tmp_path, train))
    lines[3] = lines[3][:3]
    code, err, _ = _hrm(tmp_path, capsys, _tsv(lines))
    assert code == 1 and err.startswith("error: ") and "line 4:" in err


# once "missing annotation columns ['feature']": the header's first name
# kept the byte order mark
def test_sheet_with_byte_order_mark_is_read(workspace, capsys):
    tmp_path, train = workspace
    lines = _labeled_sheet(tmp_path, train)
    assert _hrm(tmp_path, capsys, "\ufeff" + _tsv(lines)) == (0, "", len(lines) - 1)


def _doubled_first_gender_row(tmp_path, train: str, label: str) -> tuple[list[list[str]], int]:
    """The golden sheet with every row labeled need_not and Gender's first
    row repeated below it with label, and the repeat's line number."""
    lines = _labeled_sheet(tmp_path, train, examples="1")
    for cells in lines[1:]:
        cells[4] = "need_not"
    first = next(at for at, cells in enumerate(lines) if cells[0] == "Gender")
    lines.insert(first + 1, [*lines[first][:4], label, *lines[first][5:]])
    return lines, first + 2


# once read as "Gender: HRM 0.692 (9/13)" for 12 distinct triples, exit 0
def test_sheet_labeling_a_triple_twice_differently_names_both_lines(workspace, capsys):
    tmp_path, train = workspace
    lines, repeat = _doubled_first_gender_row(tmp_path, train, "almost_always")
    code, err, _ = _hrm(tmp_path, capsys, _tsv(lines))
    assert code == 1 and err.startswith("error: ")
    assert f"lines {repeat - 1} and {repeat} label Gender" in err


def test_sheet_labeling_a_triple_twice_alike_scores_it_once(workspace, capsys):
    tmp_path, train = workspace
    lines, _ = _doubled_first_gender_row(tmp_path, train, "need_not")
    code, err, scored = _hrm(tmp_path, capsys, _tsv(lines))
    assert (code, err, scored) == (0, "", len(lines) - 2)


def sheet_changes(lines: list[list[str]], count: int, seed: int) -> list[tuple[str, str]]:
    """count (case id, changed sheet text) pairs, drawn with a seeded
    generator: one cell of one line replaced, deleted or inserted, or one
    line deleted, doubled or cut short."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        changed = [list(cells) for cells in lines]
        at = rng.randrange(len(changed))
        cells = changed[at]
        kind = rng.choice(("replace", "delete", "insert", "delete line", "double line", "cut"))
        col, value = rng.randrange(len(cells)), rng.choice(SHEET_CELLS)
        if kind == "replace":
            cells[col] = value
        elif kind == "delete":
            del cells[col]
        elif kind == "insert":
            cells.insert(col, value)
        elif kind == "delete line":
            del changed[at]
        elif kind == "double line":
            changed.insert(at, list(cells))
        else:
            line = "\t".join(cells)
            changed[at] = line[:rng.randrange(len(line))].split("\t")
        detail = f"cell {col} {value!r}" if kind in ("replace", "insert") else f"cell {col}"
        cases.append((f"line {at + 1}: {kind} {detail}", _tsv(changed)))
    return cases


def test_changed_annotation_sheets_never_escape(workspace, capsys):
    tmp_path, train = workspace
    lines = _labeled_sheet(tmp_path, train)
    commands = [["hrm", "--rules", str(GOLDEN_DIR / "rules.json"),
                 "--annotations", str(tmp_path / "changed.tsv")]]
    # the sheet as exported, and with its label column moved first
    cases = (sheet_changes(lines, SHEET_CASES, 3)
             + sheet_changes(_label_first(lines), SHEET_CASES, 4))
    assert _run_all(tmp_path, cases, commands, capsys, "changed.tsv", str) == []


CONLLU_CASES = 40
# what replaces a token line's column, or follows "# sent_id = "
CONLLU_TOKENS = ("", "_", "0", "-1", "99", "1-2", "1.1", "Gender", "Gender=", "=x",
                 "Gender=Masc|Gender=Fem", "\t", "\ufeff", "\r")


def conllu_changes(text: str, count: int, seed: int) -> list[tuple[str, str]]:
    """count (case id, changed treebank text) pairs, drawn with a seeded
    generator: one column of one token line replaced by a CONLLU_TOKENS
    entry, one line deleted, doubled or cut short, or a sent_id comment
    inserted."""
    lines = text.split("\n")
    tokens = [at for at, line in enumerate(lines) if line and not line.startswith("#")]
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        changed = list(lines)
        kind = rng.choice(("replace", "delete line", "double line", "cut", "sent_id"))
        at = rng.choice(tokens) if kind == "replace" else rng.randrange(len(lines))
        value = rng.choice(CONLLU_TOKENS)
        if kind == "replace":
            columns = changed[at].split("\t")
            col = rng.randrange(len(columns))
            columns[col] = value
            changed[at] = "\t".join(columns)
            kind = f"column {col + 1} {value!r}"
        elif kind == "delete line":
            del changed[at]
        elif kind == "double line":
            changed.insert(at, changed[at])
        elif kind == "cut":
            changed[at] = changed[at][:rng.randrange(len(changed[at]) + 1)]
        else:
            changed.insert(at, f"# sent_id = {value}")
            kind = f"sent_id {value!r}"
        cases.append((f"line {at + 1}: {kind}", "\n".join(changed)))
    return cases


def test_changed_treebanks_never_escape(tmp_path, capsys):
    train, changed = str(GOLDEN_DIR / "train.conllu"), str(tmp_path / "changed.conllu")
    rules, out = str(GOLDEN_DIR / "rules.json"), str(tmp_path / "out")
    commands = (
        ["extract", "--train", changed, "--out", out],
        ["extract", "--train", train, "--dev", changed, "--out", out],
        ["evaluate", "--rules", rules, "--test", changed, "--out", out],
        ["annotation-sheet", "--rules", rules, "--train", changed, "--out", out],
        ["report", "--rules", rules, "--train", changed, "--examples", "2",
         "--out", str(tmp_path / "report")],
        ["complexity", "--train", changed],
    )
    cases = conllu_changes(Path(train).read_text(encoding="utf-8"), CONLLU_CASES, 7)
    assert _run_all(tmp_path, cases, commands, capsys, "changed.conllu", str) == []
