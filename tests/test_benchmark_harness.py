"""Every program name the benchmark harness reads must exist in ``pirsi``.

``perfbench/run.py`` imports each module named in its ``MODULES`` afresh and
reads the program as ``mods.<module>.<name>``, directly or through a local
alias (``wire, scheme = mods.wire, mods.scheme``).  A name moved out of the
package breaks the harness only when the harness runs, so this reads the
harness's source and checks each name against the package.

``perfbench/spans.py``'s ``patched`` wraps module bindings for the traced
replays and skips one the package no longer has, so its per-layer metric
silently reads 0.  Its targets are read and checked the same way.

One traced run of the harness itself checks what names alone cannot: that
its replays still call the program as it is, and print its bytes.

The recorded ``BENCH_*.json`` files (``ci/bench_record.py``) are read as
they are committed: they may name only what ``BENCHMARK.json`` declares.
"""

import ast
import importlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

from pirsi import PrimeField, ProblemParams, TvdReport, compute_plan

HARNESS = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
SPANS = HARNESS.with_name("spans.py")
# Bindings ``patched`` still names that the package no longer has; each
# metric reads 0 until the harness drops or renames it.
GONE_FROM_PACKAGE = {
    # The layout-law product moved to tests/oracles.py.
    ("privacy", "layout_probability"),
    # privacy-mc samples scheme.draw_layout; privacy no longer reads build_layout.
    ("privacy", "build_layout"),
}


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
    # privacy-mc replay counts report.distinct_queries and report.trials;
    # the oracle replay reads plan.r_star, a property _fields does not list.
    assert PrimeField(13).element(-1) == 12
    assert {"distinct_queries", "trials"} <= set(TvdReport._fields)
    assert compute_plan(ProblemParams(13, 5, 2)).r_star == 6


def patched_targets(tree):
    """Every (module, name) binding ``patched`` wraps or probes with ``hasattr``.

    A module is ``mods.X``, or a loop or comprehension variable over a tuple
    of them; a name is the string beside it, in a target tuple or in a
    ``hasattr`` call.
    """
    scope = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "patched"
    )
    bound = {}
    for node in ast.walk(scope):
        if isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name):
            if isinstance(node.iter, ast.Tuple):
                modules = [_module_of(elt) for elt in node.iter.elts]
                if all(modules):
                    bound[node.target.id] = modules

    def modules_of(node):
        if _module_of(node):
            return [_module_of(node)]
        return bound.get(node.id, []) if isinstance(node, ast.Name) else []

    pairs = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            module, attr = node.elts[:2]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hasattr":
            module, attr = node.args
        else:
            continue
        if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
            pairs.update((m, attr.value) for m in modules_of(module))
    return pairs


def test_every_binding_the_tracer_patches_exists():
    pairs = patched_targets(ast.parse(SPANS.read_text(encoding="utf-8")))
    # The parse must see the targets it exists to check.
    assert {
        ("field", "is_prime"),
        ("rate", "compute_plan"),
        ("scheme", "compute_plan"),
        ("privacy", "compute_plan"),
        ("scheme", "build_layout"),
    } | GONE_FROM_PACKAGE <= pairs
    missing = {
        (m, n) for m, n in pairs if not hasattr(importlib.import_module(f"pirsi.{m}"), n)
    }
    assert missing == GONE_FROM_PACKAGE


def test_traced_round_replay_runs_clean():
    # The replay rebuilds a round's RoundResult from four parts, renders it
    # with transcript_doc, and fails unless that is the CLI's stdout.
    done = subprocess.run(
        [sys.executable, str(HARNESS), "--workload", "single-block", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True


def test_recorded_bench_files_name_only_declared_metrics():
    # ci/bench_record.py writes BENCH_<label>.json; each file must name only
    # workloads and end-to-end metrics that BENCHMARK.json declares, and
    # each summary must be that of the runs it lists.
    root = HARNESS.parents[1]
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {metric["name"] for metric in bench["end_to_end"]}
    records = sorted(root.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["workloads"], path.name
        assert set(record["workloads"]) <= {w["name"] for w in bench["workloads"]}, path.name
        for workload, metrics in record["workloads"].items():
            assert metrics and set(metrics) <= declared, (path.name, workload)
            for name, summary in metrics.items():
                values = summary["values"]
                assert len(values) == len(record["runs"]["seeds"]), (path.name, workload, name)
                assert summary["median"] == statistics.median(values), (path.name, workload, name)
                assert summary["q1"] <= summary["median"] <= summary["q3"], (path.name, workload, name)
