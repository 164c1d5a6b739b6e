"""The package's ten records: immutable named tuples that copy, pickle and validate.

Each record compares as the tuple of its fields.  A field cannot be
rebound, a copy or a pickle round trip is an equal record of the same
type, and the records whose constructors validate (``PrimeField``,
``ProblemParams``, ``DemandSpec``, ``Database``) validate on every other
route to a record too: ``_replace``, ``_make``, ``copy`` and ``pickle``.
"""

import copy
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pirsi import (
    Database,
    DemandSpec,
    PrimeField,
    ProblemParams,
    UsageError,
    build_layout,
    compute_plan,
    monte_carlo_tvd,
    posterior,
    simulate_round,
)

SRC = Path(__file__).resolve().parents[1] / "src"

FIELD = PrimeField(13)
PARAMS = ProblemParams(13, 5, 2)
DB = Database(range(13), FIELD)
SPEC = DemandSpec((5, 2), {1, 4, 6, 7, 9}, {i: DB[i] for i in (1, 4, 6, 7, 9)})
NAMES = [
    "PrimeField",
    "ProblemParams",
    "RatePlan",
    "DemandSpec",
    "Layout",
    "Query",
    "Database",
    "RoundResult",
    "PosteriorReport",
    "TvdReport",
]


@pytest.fixture(scope="module")
def records():
    """One record of each type, by name; the drawn ones come from the worked instance."""
    layout = build_layout(PARAMS, SPEC, random.Random(3))
    result = simulate_round(PARAMS, SPEC, DB, random.Random(3))
    return {
        "PrimeField": FIELD,
        "ProblemParams": PARAMS,
        "RatePlan": compute_plan(PARAMS),
        "DemandSpec": SPEC,
        "Layout": layout,
        "Query": result.query,
        "Database": DB,
        "RoundResult": result,
        "PosteriorReport": posterior(layout, PARAMS),
        "TvdReport": monte_carlo_tvd(PARAMS, (2, 5), (1, 3), 60, random.Random(1)),
    }


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_rebound(records, name):
    record = records[name]
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict to hold it


@pytest.mark.parametrize("name", NAMES)
def test_copies_and_pickles_are_equal_records(records, name):
    record = records[name]
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record and twin._asdict() == record._asdict()


def test_copied_database_reads_the_same_values():
    db = Database((5, 0, 3), FIELD)
    for twin in (copy.copy(db), copy.deepcopy(db), pickle.loads(pickle.dumps(db))):
        assert (twin.values, twin.k) == ((5, 0, 3), 3)
        assert twin.gather((3, 1)) == (3, 5) and twin[2] == 0


@pytest.mark.parametrize(
    "record, change",
    [
        (FIELD, {"p": 12}),
        (PARAMS, {"k": 0}),
        (PARAMS, {"m": 12}),
        (PARAMS, {"n": True}),
        (SPEC, {"demands": (2, 2)}),
        (SPEC, {"side": (1, 2)}),
        (SPEC, {"demands": (2, 5.0)}),
        (DB, {"values": (13,)}),
        (DB, {"field": PrimeField(7)}),
    ],
    ids=lambda arg: type(arg).__name__ if hasattr(arg, "_fields") else next(iter(arg)),
)
def test_replace_and_make_validate_as_the_constructor(record, change):
    with pytest.raises(ValueError):
        record._replace(**change)
    with pytest.raises(ValueError):
        type(record)._make({**record._asdict(), **change}.values())


def test_replace_and_make_normalise_as_the_constructor():
    with pytest.raises(UsageError, match="^k must be positive, got 0$"):
        ProblemParams._make((0, 0, 0))
    assert PARAMS._replace(m=0) == (13, 0, 2)
    spec = SPEC._replace(demands=[8, 3])
    assert spec.demands == (3, 8) and spec.side == SPEC.side
    assert DemandSpec._make(([3, 2], [1])).side_values == {}
    assert DB._replace(values=[1, 2]).values == (1, 2)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # The records are built by collections.namedtuple, whose import is
    # already paid; dataclasses would pull in inspect and typing.  -I drops
    # PYTHONDONTWRITEBYTECODE, so -B keeps the run from writing bytecode
    # into the tree, where it would change the next import's cost.
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import pirsi.cli; "
        "print(pirsi.cli.__file__); "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    path, loaded = done.stdout.splitlines()
    assert Path(path).resolve().parent == SRC / "pirsi"
    assert loaded == "[]"
