"""The mutant census (``ci/mutants.py``) must still match the code it mutates.

Each catalogue entry names a text that must occur exactly once in its file.
An edit that breaks an anchor would otherwise surface only when the census
runs, which takes minutes; reading the catalogue takes none.  The census
deselects this test in its mutated trees, where every anchor it mutated is
gone by design.
"""

import importlib.util
from pathlib import Path

CENSUS = Path(__file__).resolve().parents[1] / "ci" / "mutants.py"


def load_census():
    spec = importlib.util.spec_from_file_location("mutants", CENSUS)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


def test_census_catalogue_matches_the_code():
    assert load_census().drift() == []


def test_census_names_a_parametrized_killer_whole():
    # pytest writes "FAILED <node id> - <message>"; a parametrized id can hold spaces.
    first_failure = load_census().first_failure
    summary = "F.\n=== short test summary info ===\nFAILED tests/x.py::t[a b] - AssertionError\n"
    assert first_failure(summary) == "tests/x.py::t[a b]"
    assert first_failure("ERROR tests/x.py::t[a b]\n1 error in 0.1s\n") == "tests/x.py::t[a b]"
    assert first_failure("no tests ran in 0.01s\n") == "no tests ran in 0.01s"
