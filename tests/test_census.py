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


def test_census_catalogue_matches_the_code():
    spec = importlib.util.spec_from_file_location("mutants", CENSUS)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.drift() == []
