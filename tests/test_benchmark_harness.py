"""Every program name the benchmark harness reads must exist in ``pirsi``.

``perfbench/run.py`` imports each module named in its ``MODULES`` afresh and
reads the program as ``mods.<module>.<name>``, directly or through a local
alias (``wire, scheme = mods.wire, mods.scheme``).  A name moved out of the
package breaks the harness only when the harness runs, so this reads the
harness's source and checks each name against the package.
"""

import ast
import importlib
from dataclasses import fields
from pathlib import Path

from pirsi import PrimeField, TvdReport

HARNESS = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _module_of(node):
    """``X`` when ``node`` is the expression ``mods.X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "mods"
    ):
        return node.attr
    return None


def harness_references(tree):
    """Every (module, name) the harness reads, with the modules it imports."""
    modules = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["MODULES"]
    )
    pairs = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, ast.FunctionDef):
            continue
        aliases = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                values = value.elts if isinstance(value, ast.Tuple) else [value]
                for name, module in zip(names, map(_module_of, values)):
                    if isinstance(name, ast.Name) and module:
                        aliases[name.id] = module
        for node in ast.walk(scope):
            if not isinstance(node, ast.Attribute):
                continue
            module = _module_of(node.value)
            if module is None and isinstance(node.value, ast.Name):
                module = aliases.get(node.value.id)
            if module:
                pairs.add((module, node.attr))
    return modules, pairs


def test_every_name_the_harness_reads_exists():
    modules, pairs = harness_references(ast.parse(HARNESS.read_text(encoding="utf-8")))
    loaded = {name: importlib.import_module(f"pirsi.{name}") for name in modules}
    assert set(loaded) == {"field", "mds", "rate", "scheme", "privacy", "oracle", "wire", "cli"}
    missing = sorted((m, n) for m, n in pairs if m not in loaded or not hasattr(loaded[m], n))
    assert not missing
    # The replays that read the most: the traced round through an alias,
    # and the traced oracle and privacy-mc replays.
    assert {
        ("wire", "query_doc"),
        ("scheme", "make_query"),
        ("oracle", "brute_force_rate"),
        ("privacy", "monte_carlo_tvd"),
        ("wire", "tvd_doc"),
        ("wire", "write_db"),
    } <= pairs
    assert len(pairs) >= 20, sorted(pairs)  # 25 when this test was written


def test_values_the_harness_reads_off_results():
    # Rounds.prepare reduces its values with PrimeField(p).element; the
    # privacy-mc replay counts report.distinct_queries and report.trials.
    assert PrimeField(13).element(-1) == 12
    assert {"distinct_queries", "trials"} <= {f.name for f in fields(TvdReport)}
