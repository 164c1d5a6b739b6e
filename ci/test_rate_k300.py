"""The closed-form sweep of ``tests/test_rate.py``, up to k = 300.

On every instance the paper's trivial-optimality condition must equal the
plan's flag, and the paper's closed-form cost the plan's profile cost.
Tier-1 runs the same loop up to k = 14.  This file sits outside the
``testpaths`` in ``pyproject.toml``, so a plain ``pytest`` does not collect
it.  CI runs it as a step of its own, about 10 s on a 2-vCPU host with
Python 3.11.7:

    python -m pytest -q ci/test_rate_k300.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_rate import closed_form_mismatches  # noqa: E402


def test_is_trivial_optimal_matches_plan_cost_k300():
    assert closed_form_mismatches(300) == ([], 4_545_100)
