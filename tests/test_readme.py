"""The README's Python API example runs as written."""
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_python_api_example_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    shutil.copy(ROOT / "tests" / "data" / "golden" / "train.conllu", tmp_path / "train.conllu")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "Label.REQUIRED"
    # the planted det rule, recovered exactly from the generated treebank
    assert printed[-1] == "(1.0, 1.0)"
