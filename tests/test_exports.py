"""One row per name ``pirsi`` exports: each refuses its malformed inputs.

``pirsi.__all__`` holds the names that check their own input, and the
records they return.  Each name that checks has a row in ``ROWS``: one
well-formed call, which must succeed, so a name that refuses everything
cannot pass, and the malformed inputs it must refuse with ``ValueError``
or ``TypeError`` (``UsageError`` is a ``ValueError``).  The rows and
``UNCHECKED`` together must be exactly ``__all__``, and ``__all__``
exactly the package's public names, so a name exported without a row
fails here.

A row does not repeat another.  An argument that is one of the
package's checked records (``PrimeField``, ``ProblemParams``,
``Database``, ``DemandSpec``) is refused by that record's own row, so
``compute_plan``, whose one argument is a ``ProblemParams``, has only its
well-formed call.  Two arguments are duck-typed on purpose, and no row
refuses them: the generator, of which the sampler asks only
``randrange`` and ``shuffle`` (``tests/oracles._Script`` has only those),
and ``read_db``'s stream, which is any text stream.
"""

import base64
import io
import random
from types import ModuleType
from typing import NamedTuple

import pytest

import pirsi
from pirsi import (
    Database,
    DemandSpec,
    PrimeField,
    ProblemParams,
    build_layout,
    simulate_round,
)
from pirsi.field import MR_BOUND

# The names that check nothing, and why none needs to.
UNCHECKED = {
    "UsageError": "the refusal itself: it takes any message",
    "RatePlan": "built only by compute_plan",
    "Layout": "drawn only by scheme.draw_layout, behind build_layout",
    "Query": "built by scheme.make_query or parse_query_bytes",
    "RoundResult": "built by simulate_round",
    "PosteriorReport": "built by posterior",
    "TvdReport": "built by monte_carlo_tvd",
}

GF13 = PrimeField(13)
PARAMS = ProblemParams(13, 5, 2)
DB = Database(range(13), GF13)
SIDE = (1, 4, 6, 7, 9)
SPEC = DemandSpec((2, 5), SIDE, {i: DB[i] for i in SIDE})
ROUND = simulate_round(PARAMS, SPEC, DB, random.Random(3))
QUERY, ANSWER = ROUND.query_bytes, ROUND.answer_bytes
DB_TEXT = "pir-db v1 p=13 k=3\n5\n0\n12\n"
# A table of C(20, 10) = 184,756 demand sets, over privacy-exact's cap.
WIDE = ProblemParams(20, 0, 10)


def rng():
    return random.Random(1)


def short_last_label():
    """257 blocks of one index each, so two-byte labels, but index 257's label is one byte.

    Read as a short label, it names block 0, and the supports partition 1..257.
    """
    raw = (256).to_bytes(2, "big") + b"".join(u.to_bytes(2, "big") for u in range(1, 256)) + b"\0"
    rows = ",".join(["1"] * 257)
    return f'{{"labels":"{base64.b64encode(raw).decode()}","p":13,"rows":[{rows}],"version":3}}'.encode()


def spec(demands, side=SIDE, values=None):
    return DemandSpec(demands, side, values)


class Row(NamedTuple):
    ok: tuple  # the well-formed call's arguments
    bad: dict  # each malformed input, by what is wrong with it, as the call's arguments


ROWS = {
    "PrimeField": Row((13,), {
        "bool": (True,), "float": (13.0,), "str": ("13",), "negative": (-13,),
        "composite": (12,), "one": (1,), "past the proven bound": (MR_BOUND,),
    }),
    "is_prime": Row((13,), {
        "bool": (True,), "float": (13.0,), "str": ("13",), "past the proven bound": (MR_BOUND,),
    }),
    "ProblemParams": Row((13, 5, 2), {
        "bool": (True, 0, 1), "float": (13.0, 5, 2), "str": ("13", 5, 2),
        "float m": (13, 5.0, 2), "bool n": (13, 5, True),
        "negative k": (-1, 0, 1), "negative m": (13, -1, 2), "no demands": (13, 5, 0),
        "m + n past k": (13, 12, 2), "k past the cap": (1_000_001, 0, 1),
    }),
    "compute_plan": Row((PARAMS,), {}),
    "search_sweep": Row((13, 2), {
        "bool": (True, 1), "float": (13.0, 2), "float n": (13, 2.0), "negative": (-1, 1),
        "no demands": (13, 0),
        "n past k": (2, 3), "k past the cap": (1_000_001, 1),
    }),
    "Database": Row((range(13), GF13), {
        "bool": ((True, 2), GF13), "float": ((1.0, 2), GF13), "str": (("1", 2), GF13),
        "negative": ((-1, 2), GF13), "value p": ((13, 2), GF13),
    }),
    "DemandSpec": Row(((2, 5), SIDE), {
        "bool": ((True, 5), SIDE), "float": ((2.0, 5), SIDE), "bool side": ((2, 5), (True,)),
        "repeated demand": ((2, 2), SIDE), "repeated side": ((2, 5), (1, 1)),
        "overlapping sets": ((2, 5), (2, 4)),
    }),
    "build_layout": Row((PARAMS, SPEC, rng()), {
        "index 0": (PARAMS, spec((0, 5)), rng()),
        "negative index": (PARAMS, spec((-1, 5)), rng()),
        "index past k": (PARAMS, spec((2, 14)), rng()),
        "side index past k": (PARAMS, spec((2, 5), (1, 4, 6, 7, 14)), rng()),
        "one demand short": (PARAMS, spec((2,)), rng()),
        "one side index short": (PARAMS, spec((2, 5), (1, 4, 6, 7)), rng()),
    }),
    "simulate_round": Row((PARAMS, SPEC, DB, rng()), {
        "index past k": (PARAMS, spec((2, 14)), DB, rng()),
        "database of k - 1": (PARAMS, SPEC, Database(range(12), GF13), rng()),
        "field no wider than a block": (PARAMS, SPEC, Database([0] * 13, PrimeField(5)), rng()),
        "no side values": (PARAMS, spec((2, 5)), DB, rng()),
        "side value p": (PARAMS, spec((2, 5), SIDE, dict.fromkeys(SIDE, 13)), DB, rng()),
        "bool side value": (PARAMS, spec((2, 5), SIDE, dict.fromkeys(SIDE, True)), DB, rng()),
        "negative side value": (PARAMS, spec((2, 5), SIDE, dict.fromkeys(SIDE, -1)), DB, rng()),
    }),
    "posterior": Row((ROUND.layout, PARAMS), {
        "layout of another plan": (ROUND.layout, ProblemParams(13, 3, 2)),
        "table over the cap": (build_layout(WIDE, DemandSpec(range(1, 11), ()), rng()), WIDE),
    }),
    "monte_carlo_tvd": Row((PARAMS, (2, 5), (1, 3), 60, rng()), {
        "bool trials": (PARAMS, (2, 5), (1, 3), True, rng()),
        "float trials": (PARAMS, (2, 5), (1, 3), 60.0, rng()),
        "no trials": (PARAMS, (2, 5), (1, 3), 0, rng()),
        "negative trials": (PARAMS, (2, 5), (1, 3), -60, rng()),
        "too few trials": (PARAMS, (2, 5), (1, 3), 2, rng()),
        "bool demand": (PARAMS, (True, 5), (1, 3), 60, rng()),
        "index 0": (PARAMS, (2, 5), (0, 3), 60, rng()),
        "index past k": (PARAMS, (2, 14), (1, 3), 60, rng()),
        "repeated demand": (PARAMS, (2, 2), (1, 3), 60, rng()),
        "one demand short": (PARAMS, (2, 5), (1,), 60, rng()),
    }),
    "read_db": Row((io.StringIO(DB_TEXT),), {
        "bytes": (io.BytesIO(DB_TEXT.encode()),),
        "value p": (io.StringIO("pir-db v1 p=13 k=3\n5\n0\n13\n"),),
        "negative": (io.StringIO("pir-db v1 p=13 k=3\n5\n-0\n12\n"),),
        "float": (io.StringIO("pir-db v1 p=13 k=3\n5\n0.0\n12\n"),),
        "composite modulus": (io.StringIO("pir-db v1 p=12 k=3\n5\n0\n11\n"),),
        "no values": (io.StringIO("pir-db v1 p=13 k=0\n"),),
        "one value short": (io.StringIO("pir-db v1 p=13 k=3\n5\n0\n"),),
        "one value over": (io.StringIO(DB_TEXT + "1\n"),),
        "not ASCII": (io.StringIO("pir-db v1 p=13 k=3\n5\n0\n١\n"),),
    }),
    "parse_query_bytes": Row((QUERY,), {
        "str": (QUERY.decode("ascii"),),
        "a trailing newline": (QUERY + b"\n",),
        "composite modulus": (QUERY.replace(b'"p":13', b'"p":12'),),
        "r = 0": (QUERY.replace(b'"rows":[2,', b'"rows":[0,'),),
        "r past its support": (QUERY.replace(b'"rows":[2,', b'"rows":[6,'),),
        "another version": (QUERY.replace(b'"version":3', b'"version":2'),),
        "a short last label": (short_last_label(),),
    }),
    "parse_answer_bytes": Row((ANSWER, GF13), {
        "str": (ANSWER.decode("ascii"), GF13),
        "value p": (b'{"blocks":[[13]]}', GF13),
        "negative": (b'{"blocks":[[-1]]}', GF13),
        "float": (b'{"blocks":[[1.0]]}', GF13),
        "bool": (b'{"blocks":[[true]]}', GF13),
        "an empty block": (b'{"blocks":[[]]}', GF13),
    }),
    "serve_query_bytes": Row((QUERY, DB), {
        "str": (QUERY.decode("ascii"), DB),
        "another modulus": (QUERY, Database(range(13), PrimeField(17))),
        "database of k - 1": (QUERY, Database(range(12), GF13)),
        "database of k + 1": (QUERY, Database([0] * 14, GF13)),
        "r = 0": (QUERY.replace(b'"rows":[2,', b'"rows":[0,'), DB),
    }),
}

MALFORMED = [(name, what, args) for name, row in ROWS.items() for what, args in row.bad.items()]


def test_the_rows_and_the_unchecked_records_are_the_exports():
    assert len(set(pirsi.__all__)) == len(pirsi.__all__)
    assert not ROWS.keys() & UNCHECKED.keys()
    assert ROWS.keys() | UNCHECKED.keys() == set(pirsi.__all__)


def test_the_exports_are_the_packages_public_names():
    public = {
        name for name, value in vars(pirsi).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(pirsi.__all__)


@pytest.mark.parametrize("name", ROWS)
def test_the_well_formed_call_succeeds(name):
    getattr(pirsi, name)(*ROWS[name].ok)


@pytest.mark.parametrize(
    ("name", "args"), [(name, args) for name, _, args in MALFORMED],
    ids=[f"{name}-{what.replace(' ', '-')}" for name, what, _ in MALFORMED],
)
def test_the_malformed_input_is_refused(name, args):
    with pytest.raises((ValueError, TypeError)):
        getattr(pirsi, name)(*args)
