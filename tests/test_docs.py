"""The documented surface stays runnable: README's example and the
package's exported names."""

import re
from pathlib import Path

import nli_planner

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(
        encoding="utf-8"), flags=re.M | re.S)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == [
        "CUT SNR", "worst channel", "benchmark SNR"]


def test_every_exported_name_resolves():
    missing = [name for name in nli_planner.__all__
               if not hasattr(nli_planner, name)]
    assert missing == []
