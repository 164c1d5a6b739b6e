"""The server role and the document parsers it trusts."""

import json

import pytest

from pirsi import canonical, make_query, parse_answer_doc, serve_query_bytes
from pirsi.wire import query_doc
from conftest import WORKED_BLOCKS, WORKED_VALUES


@pytest.fixture
def worked_query_doc(worked_layout, gf13):
    return query_doc(make_query(worked_layout, gf13))


def serve(doc, db):
    return json.loads(serve_query_bytes(canonical(doc).encode("ascii"), db))


def test_serve_query_bytes_answers_worked_query(worked_query_doc, worked_db):
    # Each coded symbol recomputed as a plain integer sum over the block.
    expected = [
        [sum(pow(j + 1, row, 13) * WORKED_VALUES[idx] for j, idx in enumerate(block)) % 13
         for row in range(2)]
        for block in WORKED_BLOCKS
    ]
    assert expected[0] == [2, 7]
    assert serve(worked_query_doc, worked_db) == {"blocks": expected}


@pytest.mark.parametrize("coefficient", [2.0, True, 13, -1])
def test_serve_query_bytes_rejects_non_canonical_coefficient(worked_query_doc, worked_db, coefficient):
    worked_query_doc["blocks"][0]["entries"][6] = coefficient
    with pytest.raises(ValueError, match=r"not an int in \[0, 13\)"):
        serve(worked_query_doc, worked_db)


def test_serve_query_bytes_rejects_other_modulus(worked_query_doc, worked_db):
    worked_query_doc["p"] = 17
    with pytest.raises(ValueError, match="incompatible moduli"):
        serve(worked_query_doc, worked_db)


def test_parse_answer_doc_rejects_out_of_range_value(gf13):
    assert parse_answer_doc({"blocks": [[8, 4], [12, 0]]}, gf13).blocks == ((8, 4), (12, 0))
    for bad in (13, -1, 2.0, True):
        with pytest.raises(ValueError, match=r"not an int in \[0, 13\)"):
            parse_answer_doc({"blocks": [[8, 4], [12, bad]]}, gf13)
