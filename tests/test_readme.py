"""The README's library example runs against the package as shipped."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_and_prints_what_its_comments_promise(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    exec(compile(code, f"{README}:quick-start", "exec"), {})
    plan, round_, verdict = capsys.readouterr().out.splitlines()
    assert plan == "6 (5, 4, 4) (3, 2, 2)"
    assert round_.startswith("6 (")
    assert verdict == "True 1/78"
