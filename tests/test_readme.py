"""The README's examples run against the package as shipped."""

import re
import shlex
from pathlib import Path

import pytest

from pirsi.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
# A ```console block: one `$ pirsi …` line, then the output it shows.
CONSOLE = re.compile(r"```console\n\$ pirsi ([^\n]*)\n(.*?)```", re.DOTALL)
# The examples that need no file: all but `simulate`, which reads a database.
EXAMPLES = [
    (command, shown)
    for command, shown in CONSOLE.findall(README.read_text(encoding="utf-8"))
    if not command.startswith("simulate ")
]


def test_quick_start_runs_and_prints_what_its_comments_promise(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    exec(compile(code, f"{README}:quick-start", "exec"), {})
    plan, round_, verdict = capsys.readouterr().out.splitlines()
    assert plan == "6 (5, 4, 4) (3, 2, 2)"
    assert round_.startswith("6 (")
    assert verdict == "True 1/78"


def test_console_examples_cover_every_subcommand_but_simulate():
    assert sorted(command.split()[0] for command, _ in EXAMPLES) == [
        "oracle", "privacy-exact", "privacy-mc", "rate",
    ]


@pytest.mark.parametrize(("command", "shown"), EXAMPLES, ids=[c.split()[0] for c, _ in EXAMPLES])
def test_console_example_prints_what_the_readme_shows(capsys, command, shown):
    # "..." in the shown output stands for any text.
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    pattern = ".*?".join(map(re.escape, shown.split("...")))
    assert re.fullmatch(pattern, out, re.DOTALL), (command, out[:500])
