"""What importing the command line loads, measured in fresh interpreters.

Every command is a fresh process, so each module the import loads is paid
for by every command. The package resolves its public names on first use;
this pins that the command line loads the modules the benchmark tracer
wraps and none that only other commands or the tests need.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import morphagree

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
# each of these costs every command milliseconds of start-up, and at most
# one command needs it: dataclasses (with inspect) none, fractions (with
# decimal) none, html (with html.entities) report, complexity its own
# command, synthetic only the tests
NOT_LOADED = {"dataclasses", "inspect", "fractions", "decimal", "html", "html.entities",
              "morphagree.synthetic", "morphagree.complexity"}


def _modules_after(statement: str) -> set[str]:
    """The names in sys.modules after a fresh interpreter runs statement."""
    env = {**os.environ, "PYTHONPATH": str(Path(morphagree.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    return set(out.split())


def _traced_modules() -> set[str]:
    """The module of each entry of TARGETS in the benchmark's tracer, read
    without importing it."""
    for node in ast.parse(TRACE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {entry.elts[0].value for entry in node.value.elts}
    raise AssertionError(f"no TARGETS in {TRACE}")


@pytest.fixture(scope="module")
def bare() -> set[str]:
    return _modules_after("pass")


def test_cli_import_loads_the_traced_modules_and_nothing_it_does_not_use(bare):
    added = _modules_after("import morphagree.cli") - bare
    assert not NOT_LOADED & added
    traced = _traced_modules()
    assert len(traced) == 8 and traced <= added


def test_extract_loads_no_fractions(tmp_path):
    # nor does a command that loads a rules.json and checks its statistics
    for argv in (["extract", "--train", str(GOLDEN / "train.conllu"),
                  "--out", str(tmp_path / "rules.json")],
                 ["evaluate", "--rules", str(GOLDEN / "rules.json"),
                  "--test", str(GOLDEN / "dev.conllu"), "--out", str(tmp_path / "eval.json")]):
        loaded = _modules_after(f"from morphagree.cli import main\nassert main({argv!r}) == 0")
        assert not {"fractions", "decimal"} & loaded, argv[0]


def test_package_import_loads_no_submodule(bare):
    added = _modules_after("import morphagree") - bare
    assert added == {"morphagree"}


def test_every_public_name_resolves_to_its_submodules_object():
    table = morphagree._SUBMODULE_OF
    assert morphagree.__all__ == sorted(table)
    for name, module in table.items():
        assert getattr(morphagree, name) is getattr(
            importlib.import_module(f"morphagree.{module}"), name), name
    assert set(table) <= set(dir(morphagree))
    with pytest.raises(AttributeError, match="no attribute 'parse'"):
        morphagree.parse
