"""The README's examples run against the package as shipped."""

import re
import shlex
from pathlib import Path

import pytest

import pirsi
from pirsi.cli import main
from test_exports import UNCHECKED

README = Path(__file__).resolve().parent.parent / "README.md"
README_TEXT = README.read_text(encoding="utf-8")
# A ```console block: one `$ pirsi …` command, its lines joined by a trailing
# "\", then the output it shows.
CONSOLE = re.compile(r"```console\n\$ pirsi ((?:[^\n]*\\\n)*[^\n]*)\n(.*?)```", re.DOTALL)
EXAMPLES = [(command.replace("\\\n", " "), shown) for command, shown in CONSOLE.findall(README_TEXT)]
# The database file the `simulate` example reads as demo.db.
DEMO_DB = re.search(r"```\n(pir-db v1 .*?)```", README_TEXT, re.DOTALL)[1]


def test_quick_start_runs_and_prints_what_its_comments_promise(capsys):
    section = README_TEXT.split("## Quick start (library)\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    exec(compile(code, f"{README}:quick-start", "exec"), {})
    plan, round_, verdict = capsys.readouterr().out.splitlines()
    assert plan == "6 (5, 4, 4) (3, 2, 2)"
    assert round_.startswith("6 (")
    assert verdict == "True 1/78"


def test_console_examples_cover_every_subcommand():
    assert sorted(command.split()[0] for command, _ in EXAMPLES) == [
        "oracle", "privacy-exact", "privacy-mc", "rate", "simulate",
    ]


@pytest.mark.parametrize(("command", "shown"), EXAMPLES, ids=[c.split()[0] for c, _ in EXAMPLES])
def test_console_example_prints_what_the_readme_shows(capsys, monkeypatch, tmp_path, command, shown):
    (tmp_path / "demo.db").write_text(DEMO_DB, encoding="ascii")
    monkeypatch.chdir(tmp_path)
    # "..." in the shown output stands for any text.
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    pattern = ".*?".join(map(re.escape, shown.split("...")))
    assert re.fullmatch(pattern, out, re.DOTALL), (command, out[:500])


def test_the_entry_points_row_names_the_exports_that_check_their_input():
    row = re.search(r"^\| library entry points \| ([^|]*) \|", README_TEXT, re.MULTILINE)[1]
    named = {name.rsplit(".", 1)[-1] for name in re.findall(r"`([\w.]+)`", row)}
    assert named == set(pirsi.__all__) - UNCHECKED.keys()
