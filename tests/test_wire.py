"""The server role and the document parsers it trusts."""

import copy
import io
import json
import random

import pytest

from pirsi import (
    canonical,
    make_query,
    parse_answer_doc,
    parse_query_doc,
    serve_query_bytes,
    simulate_round,
)
from pirsi import wire
from pirsi.wire import query_doc
from conftest import WORKED_BLOCKS, WORKED_K, WORKED_VALUES


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


def test_query_doc_is_version_2_without_coefficients(worked_query_doc):
    assert worked_query_doc == {
        "version": 2,
        "p": 13,
        "blocks": [{"support": list(block), "r": 2} for block in WORKED_BLOCKS],
    }


DROP = object()


def _edit(path, value):
    """An edit of the worked document: set doc[path] to value, or delete it for DROP."""
    def apply(doc):
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return apply


V2_REJECTIONS = {
    "missing-blocks": _edit(("blocks",), DROP),
    "missing-version": _edit(("version",), DROP),
    "missing-p": _edit(("p",), DROP),
    "extra-top-level-key": _edit(("entries",), [1, 1]),
    "version-1": _edit(("version",), 1),
    "version-3": _edit(("version",), 3),
    "version-as-string": _edit(("version",), "2"),
    "version-as-float": _edit(("version",), 2.0),
    "version-as-bool": _edit(("version",), True),
    "p-as-float": _edit(("p",), 13.0),
    "p-not-prime": _edit(("p",), 15),
    "blocks-not-a-list": _edit(("blocks",), {"support": [1], "r": 1}),
    "empty-blocks": _edit(("blocks",), []),
    "block-not-an-object": _edit(("blocks", 0), [1, 2]),
    "block-missing-r": _edit(("blocks", 0, "r"), DROP),
    "block-missing-support": _edit(("blocks", 0, "support"), DROP),
    "block-with-entries": _edit(("blocks", 0, "entries"), [1, 1, 1, 1, 1, 1, 2, 3, 4, 5]),
    "bool-index": _edit(("blocks", 0, "support", 0), True),
    "float-index": _edit(("blocks", 0, "support", 1), 2.0),
    "string-index": _edit(("blocks", 0, "support", 1), "2"),
    "bool-r": _edit(("blocks", 0, "r"), True),
    "float-r": _edit(("blocks", 0, "r"), 2.0),
    "string-r": _edit(("blocks", 0, "r"), "1"),
    "r-zero": _edit(("blocks", 0, "r"), 0),
    "r-above-support-size": _edit(("blocks", 1, "r"), 5),
    "support-not-a-list": _edit(("blocks", 0, "support"), 1),
    "empty-support": _edit(("blocks", 0, "support"), []),
    "index-zero": _edit(("blocks", 0, "support", 0), 0),
    "negative-index": _edit(("blocks", 0, "support", 0), -1),
    "unsorted-support": _edit(("blocks", 0, "support"), [2, 1, 4, 6, 8]),
    "repeated-index": _edit(("blocks", 0, "support"), [1, 2, 2, 6, 8]),
    "same-support-twice": _edit(("blocks", 1), {"support": [1, 2, 4, 6, 8], "r": 2}),
    "overlapping-supports": _edit(("blocks", 1, "support", 0), 2),
    "index-beyond-database": _edit(("blocks", 1, "support", 3), 14),
    "support-wider-than-p-minus-1": _edit(("blocks", 0, "support"), list(range(1, 14))),
}


@pytest.mark.parametrize("case", sorted(V2_REJECTIONS))
def test_serve_query_bytes_rejects_invalid_v2_documents(worked_query_doc, worked_db, case):
    V2_REJECTIONS[case](worked_query_doc)
    with pytest.raises(ValueError):
        serve(worked_query_doc, worked_db)


def test_parse_query_doc_rejects_non_documents():
    for doc in (None, [], "query", 2):
        with pytest.raises(ValueError, match="query document"):
            parse_query_doc(doc)


def test_serve_query_bytes_refuses_deep_nesting_and_repeated_keys(worked_query_doc, worked_db):
    # Deep nesting and repeated keys cannot come out of canonical(), so the
    # fuzz test never sends them; json.loads alone would overflow the stack
    # or keep the last value of a repeated key.
    text = canonical(worked_query_doc)
    assert serve_query_bytes(text.encode("ascii"), worked_db)
    cases = {
        "nested arrays": b"[" * 100_000,
        "nested objects": b'{"a":' * 100_000,
        "repeated version": text.replace('"version":2', '"version":2,"version":2').encode("ascii"),
        "repeated r": text.replace('"r":2', '"r":1,"r":2', 1).encode("ascii"),
    }
    for name, raw in cases.items():
        assert raw != text.encode("ascii"), name
        with pytest.raises(ValueError, match="nests too deeply|duplicate keys"):
            serve_query_bytes(raw, worked_db)


def test_simulate_round_refuses_deep_nesting_and_repeated_keys_in_answers(
    worked_params, worked_spec, worked_db, monkeypatch
):
    # The client reads answer bytes as strictly as the server reads queries:
    # plain json.loads would take the second "blocks" here.
    assert simulate_round(worked_params, worked_spec, worked_db, random.Random(1)).decoded
    cases = {
        "nested arrays": b'{"blocks":' + b"[" * 100_000,
        "nested objects": b'{"a":' * 100_000,
        "repeated blocks": b'{"blocks":[[1]],"blocks":[[2]]}',
    }
    for name, raw in cases.items():
        monkeypatch.setattr(wire, "serve_query_bytes", lambda query_bytes, db, raw=raw: raw)
        with pytest.raises(ValueError, match="nests too deeply|duplicate keys"):
            simulate_round(worked_params, worked_spec, worked_db, random.Random(1))


def test_serve_query_bytes_rejects_other_modulus(worked_query_doc, worked_db):
    worked_query_doc["p"] = 17
    with pytest.raises(ValueError, match="incompatible moduli"):
        serve(worked_query_doc, worked_db)


def test_proven_modulus_does_not_vouch_for_a_composite(worked_query_doc, worked_db):
    # The p = 13 proof is memoised by the first database and query; a
    # composite, float or bool modulus read later is still refused.
    assert wire.read_db(io.StringIO("pir-db v1 p=13 k=1\n5\n")).field.p == 13
    assert serve(worked_query_doc, worked_db)["blocks"]
    with pytest.raises(ValueError, match="must be prime"):
        wire.read_db(io.StringIO("pir-db v1 p=15 k=1\n5\n"))
    for bad, message in ((15, "must be prime"), (13.0, "must be an int"), (True, "must be an int")):
        worked_query_doc["p"] = bad
        with pytest.raises(ValueError, match=message):
            serve(worked_query_doc, worked_db)


def test_parse_answer_doc_rejects_out_of_range_value(gf13):
    assert parse_answer_doc({"blocks": [[8, 4], [12, 0]]}, gf13).blocks == ((8, 4), (12, 0))
    for bad in (13, -1, 2.0, True):
        with pytest.raises(ValueError, match=r"not an int in \[0, 13\)"):
            parse_answer_doc({"blocks": [[8, 4], [12, bad]]}, gf13)


def test_parse_answer_doc_rejects_wrong_shape(gf13):
    for doc in ({}, {"blocks": [[1]], "p": 13}, [[1]], {"blocks": 1}, {"blocks": [1, 2]}):
        with pytest.raises(ValueError):
            parse_answer_doc(doc, gf13)


# ---------------------------------------------------------------------------
# Seeded fuzzing of the server role.  Every mutated document is either
# answered exactly as plain integer sums over the database, or refused with
# ValueError; no other exception may escape.

JUNK = [True, False, 1.5, 2.0, "2", "", None, -1, 0, 14, 10**30, [], {}, [1], 13]


def _is_valid(doc):
    """An independent statement of which query documents the worked database serves."""
    if type(doc) is not dict or set(doc) != {"version", "p", "blocks"}:
        return False
    if type(doc["version"]) is not int or doc["version"] != 2:
        return False
    if type(doc["p"]) is not int or doc["p"] != 13:
        return False
    blocks = doc["blocks"]
    if type(blocks) is not list or not blocks:
        return False
    used = []
    for block in blocks:
        if type(block) is not dict or set(block) != {"support", "r"}:
            return False
        support, r = block["support"], block["r"]
        if type(support) is not list or any(type(i) is not int for i in support):
            return False
        if type(r) is not int or not 1 <= r <= len(support) <= 12:
            return False
        if support != sorted(set(support)) or not 1 <= support[0] <= support[-1] <= WORKED_K:
            return False
        used += support
    return len(used) == len(set(used))


def _expected_answer(doc):
    return {
        "blocks": [
            [sum(pow(j + 1, row, 13) * WORKED_VALUES[idx] for j, idx in enumerate(b["support"])) % 13
             for row in range(b["r"])]
            for b in doc["blocks"]
        ]
    }


def _nodes(doc):
    """(container, key) for every slot in the document, the root's keys included."""
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = node.keys() if type(node) is dict else range(len(node)) if type(node) is list else ()
        for key in list(keys):
            yield node, key
            stack.append(node[key])


def _mutate(doc, rng):
    """One random edit: drop, add or replace a key or item, nudge an int, or copy an index across supports."""
    node, key = rng.choice(list(_nodes(doc)))
    value = node[key]
    move = rng.randrange(7)
    if move == 0 and type(node) is dict:
        del node[key]
    elif move == 1 and type(node) is dict:
        node[rng.choice(["entries", "extra", "r", "support", "version", "p"])] = rng.choice(JUNK)
    elif move == 2:
        node[key] = rng.choice(JUNK)
    elif move == 3 and type(value) is int:
        node[key] = value + rng.choice([-1, 1])
    elif move == 4 and type(value) is list and value:
        value.insert(rng.randrange(len(value) + 1), rng.choice(value))
    elif move == 5 and type(value) is list and value:
        value.pop(rng.randrange(len(value)))
    elif move == 6 and type(value) is list and value and type(node) is dict and key == "support":
        # Another block's index, in order: an overlap that is sorted and distinct.
        value[:] = sorted(set(value) | {rng.choice(WORKED_BLOCKS)[0]})


def test_serve_query_bytes_fuzz(worked_query_doc, worked_db):
    rng = random.Random(2024)
    served = refused = 0
    for _ in range(3000):
        doc = copy.deepcopy(worked_query_doc)
        for _ in range(rng.randrange(1, 4)):
            _mutate(doc, rng)
        try:
            got = serve(doc, worked_db)
        except ValueError:
            assert not _is_valid(doc), doc
            refused += 1
            continue
        assert _is_valid(doc), doc
        assert got == _expected_answer(doc), doc
        served += 1
    # Both outcomes are exercised, so neither branch is vacuous.
    assert served > 100 and refused > 1000, (served, refused)
