"""The server role and the document parsers it trusts."""

import argparse
import base64
import copy
import io
import json
import random
import re
import sys
from itertools import product

import pytest

from pirsi import (
    Database,
    DemandSpec,
    PrimeField,
    ProblemParams,
    Query,
    UsageError,
    build_layout,
    posterior,
    serve_query_bytes,
    simulate_round,
)
from pirsi import mds, wire
from pirsi.cli import _parse_indices
from pirsi.field import MR_BOUND
from pirsi.scheme import make_query
from pirsi.wire import canonical, parse_answer_doc, parse_query_doc, query_doc, read_db
from conftest import WORKED_BLOCKS, WORKED_K, WORKED_VALUES
from oracles import (
    reference_parse_indices,
    reference_posterior_doc,
    reference_query_bytes,
    reference_query_supports,
    reference_read_db,
)


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


def test_query_doc_is_version_3_one_label_per_index(worked_query_doc):
    # Index i's block number, one byte each at three blocks, for i = 1..13.
    labels = bytes([0, 0, 1, 0, 2, 0, 2, 0, 2, 1, 1, 2, 1])
    assert base64.b64encode(labels) == b"AAABAAIAAgACAQECAQ=="
    assert worked_query_doc == {
        "labels": "AAABAAIAAgACAQECAQ==",
        "p": 13,
        "rows": [2, 2, 2],
        "version": 3,
    }
    assert canonical(worked_query_doc).encode() == reference_query_bytes(WORKED_BLOCKS, (2, 2, 2), 13)


DROP = object()


def _edit(key, value):
    """An edit of the worked document: set doc[key] to value, or delete it for DROP."""
    def apply(doc):
        if value is DROP:
            del doc[key]
        else:
            doc[key] = value
    return apply


def _rows(edit):
    """An edit of the worked document's row counts, in a copy of the list."""
    def apply(doc):
        doc["rows"] = edit(list(doc["rows"]))
    return apply


def _labels(edit):
    """An edit of the worked document's label bytes, sent again as canonical base64."""
    def apply(doc):
        raw = bytearray(base64.b64decode(doc["labels"]))
        doc["labels"] = base64.b64encode(bytes(edit(raw))).decode("ascii")
    return apply


def _text(edit):
    """An edit of the worked document's base64 text itself."""
    def apply(doc):
        doc["labels"] = edit(doc["labels"])
    return apply


def _alias(text):
    """The same bytes in non-canonical base64: the last digit's spare bits set, as QR== is QQ==."""
    data, pad = text.rstrip("="), "=" * (len(text) - len(text.rstrip("=")))
    digits = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    alias = data[:-1] + digits[digits.index(data[-1]) | 1] + pad
    assert alias != text and base64.b64decode(alias) == base64.b64decode(text)
    return alias


# Each version-2 refusal, under its old name, ported to version 3.  Where
# version 3 cannot express the fault (the labels partition 1..k by
# construction: no index 0, no negative, unsorted, repeated or shared index,
# no block twice), the case sends the nearest forgery instead; the comment
# names it.
V2_REJECTIONS = {
    "missing-blocks": _edit("rows", DROP),
    "missing-version": _edit("version", DROP),
    "missing-p": _edit("p", DROP),
    "extra-top-level-key": _edit("entries", [1, 1]),
    "version-1": _edit("version", 1),
    "version-3": _edit("version", 4),  # the next version
    "version-as-string": _edit("version", "3"),
    "version-as-float": _edit("version", 3.0),
    "version-as-bool": _edit("version", True),
    "p-as-float": _edit("p", 13.0),
    "p-not-prime": _edit("p", 15),
    "blocks-not-a-list": _edit("rows", 2),
    "empty-blocks": _edit("rows", []),
    "block-not-an-object": _rows(lambda rows: [[rows[0]], *rows[1:]]),
    "block-missing-r": _rows(lambda rows: rows[:-1]),  # block 2's label then names no block
    "block-missing-support": _rows(lambda rows: rows + [1]),  # a block no label names
    "block-with-entries": _rows(lambda rows: [{"r": rows[0], "entries": [1, 1, 1, 1, 1]}, *rows[1:]]),
    "bool-index": _edit("labels", True),
    "float-index": _edit("labels", [0.0] * 13),
    "string-index": _text(lambda text: text[:4] + " " + text[4:]),  # outside the base64 alphabet
    "bool-r": _rows(lambda rows: [True, *rows[1:]]),
    "float-r": _rows(lambda rows: [2.0, *rows[1:]]),
    "string-r": _rows(lambda rows: ["1", *rows[1:]]),
    "r-zero": _rows(lambda rows: [0, *rows[1:]]),
    "r-above-support-size": _rows(lambda rows: [rows[0], 5, rows[2]]),
    "support-not-a-list": _edit("labels", 1),
    "empty-support": _labels(lambda raw: raw.replace(b"\2", b"\1")),  # block 2's members moved to block 1
    # No index 0: a label slot for it, put first, shifts every index up by one.
    "index-zero": _labels(lambda raw: b"\0" + raw),
    # Labels are unsigned: byte 0xff, -1 as a signed byte, names block 255.
    "negative-index": _labels(lambda raw: b"\xff" + raw[1:]),
    # Supports come out sorted: the labels' base64 without its padding.
    "unsorted-support": _text(lambda text: text.rstrip("=")),
    # One label per index: a label sent twice shifts the rest up by one.
    "repeated-index": _labels(lambda raw: raw[:2] + raw[1:]),
    # Each block once: the row counts sent twice leave three blocks no label names.
    "same-support-twice": _rows(lambda rows: rows + rows),
    # No index in two blocks: the same label bytes in non-canonical base64.
    "overlapping-supports": _text(_alias),
    "index-beyond-database": _labels(lambda raw: raw + b"\1"),
    "support-wider-than-p-minus-1": lambda doc: doc.update(labels="AAAAAAAAAAAAAAAAAA==", rows=[2]),
}


@pytest.mark.parametrize("case", sorted(V2_REJECTIONS))
def test_serve_query_bytes_rejects_invalid_v2_documents(worked_query_doc, worked_db, case):
    V2_REJECTIONS[case](worked_query_doc)
    with pytest.raises(ValueError):
        serve(worked_query_doc, worked_db)


def test_only_the_canonical_bytes_of_a_query_are_served(worked_query_doc, worked_db):
    # Five byte forms of one query: one is served, four are refused.
    text = canonical(worked_query_doc)
    forms = {
        "canonical": text,
        "added spaces": json.dumps(worked_query_doc, sort_keys=True),
        "reordered keys": json.dumps(dict(reversed(list(worked_query_doc.items()))), separators=(",", ":")),
        "escaped key": text.replace('"p":', '"\\u0070":'),
        "trailing newline": text + "\n",
    }
    assert len(set(forms.values())) == 5
    assert [json.loads(form) for form in forms.values()] == [worked_query_doc] * 5
    served = []
    for name, form in forms.items():
        try:
            serve_query_bytes(form.encode("ascii"), worked_db)
        except ValueError as err:
            assert str(err).startswith("query document is not canonical version-3 JSON: "), name
        else:
            served.append(name)
    assert served == ["canonical"]


def test_serve_query_bytes_refuses_a_base64_alias(worked_query_doc, worked_db):
    # "QR==" decodes as "QQ==" does; only the encoding the client writes is read.
    assert base64.b64decode("QR==") == base64.b64decode("QQ==")
    worked_query_doc["labels"] = _alias(worked_query_doc["labels"])
    with pytest.raises(ValueError, match="^query labels are not canonical base64$"):
        serve(worked_query_doc, worked_db)


def test_serve_query_bytes_refuses_a_label_that_names_no_block(worked_query_doc, worked_db):
    for label in (3, 4, 255):
        doc = dict(worked_query_doc)
        _labels(lambda raw: raw[:-1] + bytes([label]))(doc)
        with pytest.raises(ValueError, match=f"^query label {label} names no block: the query has 3$"):
            serve(doc, worked_db)


def test_serve_query_bytes_refuses_a_label_count_other_than_k(worked_query_doc, worked_db):
    # Fewer labels than the database holds is a partition of 1..12, which
    # only the server can refuse; more names index 14, which the gather refuses.
    fewer = dict(worked_query_doc)
    _labels(lambda raw: raw[:-1])(fewer)
    with pytest.raises(ValueError, match="^query covers 12 indices, the database holds 13$"):
        serve(fewer, worked_db)
    more = dict(worked_query_doc)
    _labels(lambda raw: raw + b"\0")(more)
    with pytest.raises(UsageError, match=r"^index 14 outside 1\.\.13$"):
        serve(more, worked_db)


def test_serve_query_bytes_refuses_a_code_over_the_cap_before_building_it():
    # One block of 2,049 labels with r = 2,049, 2,786 bytes: r * s = 4,198,401,
    # over 2^22.  The parser holds the shapes it read to the rule the
    # client's plan meets, so the server builds no code for it.
    p = 2**31 - 1
    over = reference_query_bytes((range(1, 2050),), (2049,), p)
    assert len(over) == 2786
    db = Database(range(2049), PrimeField(p))
    misses = mds._packed_columns.cache_info().misses
    message = "the widest block's code has r * s = 4198401 entries, over the cap of 4194304 one round may build"
    for refuse in (wire.parse_query_bytes, lambda data: serve_query_bytes(data, db)):
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            refuse(over)
    assert mds._packed_columns.cache_info().misses == misses
    # The cap itself, 2,048 x 2,048, parses; so does a narrower block
    # beside it, and a wider one is refused by its own shape.
    at_cap = reference_query_bytes((range(1, 2049),), (2048,), p)
    assert wire.parse_query_bytes(at_cap).blocks[0][1] == 2048
    two = reference_query_bytes((range(1, 4), range(4, 2053)), (3, 2049), p)
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        wire.parse_query_bytes(two)


def test_parse_query_bytes_names_the_first_block_at_fault():
    # The one judge of a block's shape: r must be in 1..len(support), and a
    # support of p or more members is a field too small for it, refused
    # after the code cap, which the client's plan meets first.
    def need(r, size):
        return ValueError, f"need 1 <= r <= len(support) <= p - 1, got r={r}, len(support)={size}, p=13"

    def too_small(size):
        return ValueError, f"field too small: subspace of size {size} needs p > {size}, got 13"

    cap = "the widest block's code has r * s = 4198401 entries, over the cap of 4194304 one round may build"
    for supports, rows, refusal in (
        ((range(1, 13),), (12,), None),  # p - 1 members, every row
        ((range(1, 14),), (13,), too_small(13)),
        ((range(1, 14),), (1,), too_small(13)),
        ((range(1, 4),), (0,), need(0, 3)),
        ((range(1, 4), range(4, 17)), (4, 2), need(4, 3)),  # one row past its block, then one too wide
        ((range(1, 17), range(17, 20)), (2, 4), too_small(16)),  # too wide, then one row past its block
        ((range(1, 2050),), (2049,), (UsageError, cap)),  # too wide and over the cap
    ):
        data = reference_query_bytes(supports, rows, 13)
        if refusal is None:
            assert wire.parse_query_bytes(data).blocks == tuple((tuple(s), r) for s, r in zip(supports, rows))
        else:
            assert outcome(wire.parse_query_bytes, data) == refusal, (supports, rows)


def test_serve_query_bytes_names_the_version_it_refuses(worked_db):
    # The version-2 form of the worked query.
    v2 = {"blocks": [{"r": 2, "support": list(block)} for block in WORKED_BLOCKS], "p": 13, "version": 2}
    with pytest.raises(ValueError, match="^unsupported query version 2, expected 3$"):
        serve(v2, worked_db)


def _block_query(blocks: int) -> Query:
    """One index per block, r = 1, over a field large enough for any block."""
    return Query(tuple(((label + 1,), 1) for label in range(blocks)), PrimeField(65537))


@pytest.mark.parametrize("blocks, width", [(3, 1), (256, 1), (257, 2)])
def test_query_labels_refused_one_byte_wider_or_narrower(blocks, width):
    doc = query_doc(_block_query(blocks))
    raw = base64.b64decode(doc["labels"])
    assert len(raw) == blocks * width
    assert wire.parse_query_bytes(canonical(doc).encode()) == _block_query(blocks)
    labels = [int.from_bytes(raw[i:i + width], "big") for i in range(0, len(raw), width)]
    db = Database((0,) * blocks, PrimeField(65537))
    for other in {width - 1, width + 1} - {0}:
        forged = dict(doc, labels=base64.b64encode(b"".join(
            (label % 256**other).to_bytes(other, "big") for label in labels
        )).decode())
        with pytest.raises(ValueError):
            serve(forged, db)


@pytest.mark.parametrize("blocks", [1, 2, 255, 256, 257, 300])
def test_query_labels_agree_with_the_per_index_reference(blocks):
    # A seeded partition of 1..k into `blocks` non-empty blocks, both ways:
    # the bytes the program writes are the reference's, and the program's
    # parse of them is the reference's reading.
    rng = random.Random(blocks)
    k = blocks + 40
    order = rng.sample(range(1, k + 1), k)
    cuts = sorted(rng.sample(range(1, k), blocks - 1))
    supports = [tuple(sorted(order[a:b])) for a, b in zip([0, *cuts], [*cuts, k])]
    rows = [rng.randrange(1, len(support) + 1) for support in supports]
    query = Query(tuple(zip(supports, rows)), PrimeField(65537))
    sent = canonical(query_doc(query)).encode("ascii")
    assert sent == reference_query_bytes(supports, rows, 65537)
    doc = json.loads(sent)
    assert reference_query_supports(doc["labels"], blocks) == [list(s) for s in supports]
    assert wire.parse_query_bytes(sent) == query


def test_query_doc_refuses_supports_that_do_not_partition():
    # The first was once sent as labels AAEBAA==, which parse as the supports
    # (1, 4) and (2, 3); the second's indices sum to 1 + 2 + 3 + 4.
    for supports in (((1, 2), (2, 3)), ((2, 3), (2, 3))):
        with pytest.raises(ValueError, match=r"^query supports do not partition 1\.\.4$"):
            query_doc(Query(tuple((support, 1) for support in supports), PrimeField(13)))
    # One-byte and two-byte labels: index k replaced by an overlap (leaving a
    # gap at k), by 0, by -1 (which a list reads as index k) and by k + 1.
    for blocks in (2, 257):
        k = 2 * blocks
        for bad in (1, 0, -1, k + 1):
            supports = [(i, i + 1) for i in range(1, k - 1, 2)] + [(k - 1, bad)]
            query = Query(tuple((support, 1) for support in supports), PrimeField(65537))
            with pytest.raises(ValueError, match=rf"^query supports do not partition 1\.\.{k}$"):
                query_doc(query)
        supports[-1] = (k - 1, k)
        query = Query(tuple((support, 1) for support in supports), PrimeField(65537))
        assert wire.parse_query_bytes(canonical(query_doc(query)).encode()) == query


def test_query_doc_refuses_an_unsorted_support():
    # The labels carry no order: both of these were once sent as AAABAQ==,
    # and the server reads coefficient column j against support[j].
    gf = PrimeField(13)
    assert query_doc(Query((((1, 2), 1), ((3, 4), 1)), gf))["labels"] == "AAABAQ=="
    for supports in (((2, 1), (4, 3)), ((1, 2), (4, 3)), ((1, 3, 2), (4,))):
        with pytest.raises(ValueError, match=r"^query supports are not each in ascending order$"):
            query_doc(Query(tuple((support, 1) for support in supports), gf))


def test_parse_query_doc_rejects_non_documents():
    for doc in (None, [], "query", 2):
        with pytest.raises(ValueError, match="query document"):
            parse_query_doc(doc)


def test_serve_query_bytes_refuses_deep_nesting_and_repeated_keys(worked_query_doc, worked_db):
    # Deep nesting and repeated keys cannot come out of canonical(); the
    # parser reads no JSON, so neither reaches a recursive or a dict-building
    # reader: the one canonical form is matched, or the bytes are refused.
    text = canonical(worked_query_doc)
    assert serve_query_bytes(text.encode("ascii"), worked_db)
    cases = {
        "nested arrays": b"[" * 100_000,
        "nested objects": b'{"a":' * 100_000,
        "repeated version": text.replace('"version":3', '"version":3,"version":3').encode("ascii"),
        "repeated p": text.replace('"p":13', '"p":17,"p":13').encode("ascii"),
    }
    for name, raw in cases.items():
        assert raw != text.encode("ascii"), name
        with pytest.raises(ValueError, match="^query document is not canonical version-3 JSON: "):
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
        with pytest.raises(ValueError, match="^answer document is not canonical JSON: "):
            simulate_round(worked_params, worked_spec, worked_db, random.Random(1))


def test_transcript_text_needs_the_rounds_recorded_bytes(worked_params, worked_spec, worked_db):
    result = simulate_round(worked_params, worked_spec, worked_db, random.Random(1))
    text = wire.transcript_text(worked_params, 1, result)
    assert text == canonical(wire.transcript_doc(worked_params, 1, result))
    # A round assembled from its parts recorded no bytes to print.
    for missing in ({"query_bytes": None}, {"answer_bytes": None}, {"query_bytes": None, "answer_bytes": None}):
        with pytest.raises(ValueError, match="^round result has no recorded query/answer bytes"):
            wire.transcript_text(worked_params, 1, result._replace(**missing))


def test_posterior_doc_prints_the_bytes_of_the_per_entry_reference():
    # One drawn layout of every (k, m, n) with k <= 14, all admissible:
    # 560 instances, from n = 1 to n = k with prior 1/1, and at k >= 10,
    # where canonical() sorts the key "1,10" before "1,2".
    texts = {}
    for k in range(1, 15):
        for n in range(1, k + 1):
            for m in range(k - n + 1):
                params = ProblemParams(k, m, n)
                rng = random.Random(f"posterior_doc {k} {m} {n}")
                demands = tuple(sorted(rng.sample(range(1, k + 1), n)))
                side = frozenset(rng.sample([i for i in range(1, k + 1) if i not in demands], m))
                layout = build_layout(params, DemandSpec(demands, side), rng)
                report = posterior(layout, params)
                texts[k, m, n] = canonical(wire.posterior_doc(report, layout))
                assert texts[k, m, n] == canonical(reference_posterior_doc(report, layout)), (k, m, n)
    assert len(texts) == 560
    assert '"posteriors":{"1,2,3":"1/1"},"prior":"1/1"' in texts[3, 0, 3]
    assert '"1,10":"1/45","1,2":"1/45"' in texts[10, 3, 2]


def test_serve_query_bytes_names_a_non_ascii_byte(worked_query_doc, worked_db):
    # A UTF-8 "é" inside the labels: the document and the offset of its
    # first byte are named, not just the codec.
    text = canonical(worked_query_doc)
    offset = text.index("AAAB")
    raw = text[:offset].encode("ascii") + "é".encode() + text[offset + 1:].encode("ascii")
    with pytest.raises(ValueError, match=rf"^query document is not ASCII: byte 0xc3 at offset {offset}$"):
        serve_query_bytes(raw, worked_db)


def test_simulate_round_names_a_non_ascii_byte_in_answers(
    worked_params, worked_spec, worked_db, monkeypatch
):
    raw = b'{"blocks":[[8,4],[12,0],[6,\xff]]}'
    monkeypatch.setattr(wire, "serve_query_bytes", lambda query_bytes, db: raw)
    with pytest.raises(ValueError, match=r"^answer document is not ASCII: byte 0xff at offset 27$"):
        simulate_round(worked_params, worked_spec, worked_db, random.Random(1))


def test_serve_query_bytes_rejects_other_modulus(worked_query_doc, worked_db):
    worked_query_doc["p"] = 17
    with pytest.raises(ValueError, match="incompatible moduli"):
        serve(worked_query_doc, worked_db)


def test_proven_modulus_does_not_vouch_for_a_composite(worked_query_doc, worked_db):
    # The p = 13 proof is memoised by the first database and query; a
    # composite modulus read later is still refused, and a float or bool
    # one is not a canonical decimal.
    assert wire.read_db(io.StringIO("pir-db v1 p=13 k=1\n5\n")).field.p == 13
    assert serve(worked_query_doc, worked_db)["blocks"]
    with pytest.raises(ValueError, match="must be prime"):
        wire.read_db(io.StringIO("pir-db v1 p=15 k=1\n5\n"))
    for bad, message in ((15, "must be prime"), (13.0, "not canonical"), (True, "not canonical")):
        worked_query_doc["p"] = bad
        with pytest.raises(ValueError, match=message):
            serve(worked_query_doc, worked_db)


def test_parse_answer_doc_rejects_out_of_range_value(gf13):
    assert parse_answer_doc({"blocks": [[8, 4], [12, 0]]}, gf13) == ((8, 4), (12, 0))
    with pytest.raises(ValueError, match=r"^field value 13 is not an int in \[0, 13\)$"):
        parse_answer_doc({"blocks": [[8, 4], [12, 13]]}, gf13)
    # A sign, a point or a literal is not a canonical decimal.
    for bad in (-1, 2.0, True):
        with pytest.raises(ValueError, match="^answer document is not canonical JSON: "):
            parse_answer_doc({"blocks": [[8, 4], [12, bad]]}, gf13)


def test_parse_answer_doc_rejects_wrong_shape(gf13):
    for doc in ({}, {"blocks": [[1]], "p": 13}, [[1]], {"blocks": 1}, {"blocks": [1, 2]},
                {"blocks": []}, {"blocks": [[]]}, {"blocks": [[1], []]}):
        with pytest.raises(ValueError):
            parse_answer_doc(doc, gf13)


def test_only_the_canonical_bytes_of_an_answer_are_read(gf13):
    text = b'{"blocks":[[8,4],[12,0]]}'
    assert wire.parse_answer_bytes(text, gf13) == ((8, 4), (12, 0))
    for form in (b'{"blocks": [[8, 4], [12, 0]]}', text + b"\n", b'{"\\u0062locks":[[8,4],[12,0]]}',
                 b'{"blocks":[[8,04],[12,0]]}', b'{"blocks":[[8,4],[12,0]],"p":13}'):
        with pytest.raises(ValueError, match="^answer document is not canonical JSON: "):
            wire.parse_answer_bytes(form, gf13)


# ---------------------------------------------------------------------------
# Seeded fuzzing of the server role.  Every mutated document is either
# answered exactly as plain integer sums over the database, or refused with
# ValueError; no other exception may escape.

JUNK = [True, False, 1.5, 2.0, 3.0, "2", "", None, -1, 0, 14, 10**30, [], {}, [1], 13, "AA==", "QR=="]


def _supports(doc):
    """An independent reading of which query documents the worked database serves: their supports, or None."""
    if type(doc) is not dict or set(doc) != {"labels", "p", "rows", "version"}:
        return None
    if type(doc["version"]) is not int or doc["version"] != 3:
        return None
    if type(doc["p"]) is not int or doc["p"] != 13:
        return None
    labels, rows = doc["labels"], doc["rows"]
    if type(rows) is not list or not rows or any(type(r) is not int for r in rows):
        return None
    if type(labels) is not str or labels.strip("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="):
        return None
    try:
        raw = base64.b64decode(labels, validate=True)
    except ValueError:
        return None
    if base64.b64encode(raw).decode("ascii") != labels or len(raw) != WORKED_K:  # one byte a label here
        return None
    if max(raw) >= len(rows):
        return None
    supports = reference_query_supports(labels, len(rows))
    if not all(1 <= r <= len(support) <= 12 for support, r in zip(supports, rows)):
        return None
    return supports


def _expected_answer(doc, supports):
    return {
        "blocks": [
            [sum(pow(j + 1, row, 13) * WORKED_VALUES[idx] for j, idx in enumerate(support)) % 13
             for row in range(r)]
            for support, r in zip(supports, doc["rows"])
        ]
    }


def _mutate(doc, rng):
    """One random edit: drop, add or replace a key or row, nudge an int, or edit the labels' text or bytes."""
    move = rng.randrange(8)
    key = rng.choice(list(doc)) if doc else "labels"
    if move == 0 and doc:
        del doc[key]
    elif move == 1:
        doc[rng.choice(["entries", "extra", "labels", "rows", "version", "p"])] = rng.choice(JUNK)
    elif move == 2 and type(doc.get("rows")) is list and doc["rows"]:
        rows = doc["rows"]
        choice = rng.randrange(3)
        if choice == 0:
            rows.pop(rng.randrange(len(rows)))
        elif choice == 1:
            rows.insert(rng.randrange(len(rows) + 1), rng.choice([1, 2, 3, *JUNK]))
        else:
            rows[rng.randrange(len(rows))] += rng.choice([-1, 1])
    elif move == 3 and type(doc.get(key)) is int:
        doc[key] += rng.choice([-1, 1])
    elif move in (4, 5) and type(doc.get("labels")) is str and doc["labels"]:
        text = doc["labels"]
        at = rng.randrange(len(text))
        char = rng.choice("AQRBCg+/= \n-_")
        doc["labels"] = text[:at] + (char if move == 4 else "") + text[at + (move == 5 or rng.random() < 0.5):]
    elif move in (6, 7) and type(doc.get("labels")) is str:
        try:
            raw = bytearray(base64.b64decode(doc["labels"], validate=True))
        except ValueError:
            return
        if move == 6 and raw:
            raw[rng.randrange(len(raw))] = rng.choice([0, 1, 2, 3, 255])
        elif rng.random() < 0.5 and raw:
            del raw[rng.randrange(len(raw))]
        else:
            raw.insert(rng.randrange(len(raw) + 1), rng.randrange(4))
        doc["labels"] = base64.b64encode(bytes(raw)).decode("ascii")


def test_serve_query_bytes_fuzz(worked_query_doc, worked_db):
    rng = random.Random(2024)
    served = refused = 0
    for _ in range(3000):
        doc = copy.deepcopy(worked_query_doc)
        for _ in range(rng.randrange(1, 4)):
            _mutate(doc, rng)
        supports = _supports(doc)
        try:
            got = serve(doc, worked_db)
        except ValueError:
            assert supports is None, doc
            refused += 1
            continue
        assert supports is not None, doc
        assert got == _expected_answer(doc, supports), doc
        served += 1
    # Both outcomes are exercised, so neither branch is vacuous.
    assert served > 100 and refused > 1000, (served, refused)


def test_served_query_bytes_are_the_canonical_bytes_of_their_query(worked_query_doc, worked_db):
    # Single-byte edits of the canonical bytes: each is refused, or it is
    # the canonical rendering of the query it parses to.
    rng = random.Random(31)
    text = canonical(worked_query_doc).encode("ascii")
    alphabet = b' ,:"{}[]0123456789AQRgw+/=\n\\'
    served = 0
    for _ in range(3000):
        at = rng.randrange(len(text))
        byte = alphabet[rng.randrange(len(alphabet)):][:1]
        edited = text[:at] + byte + text[at + rng.randrange(2):]
        try:
            query = wire.parse_query_bytes(edited)
        except ValueError:
            continue
        assert canonical(query_doc(query)).encode("ascii") == edited, edited
        served += 1
    assert served > 50, served


# Digits, both separators, and what JSON or int() would read where a
# canonical decimal cannot have it: a carriage return and a space (JSON
# whitespace), a sign, a fraction and an exponent, and an Arabic-Indic
# three (int() reads it as 3).
READER_ALPHABET = "019\n,\r-+.e ٣"


def outcome(read, arg):
    """What ``read(arg)`` returns, or the type and the words of what it raises."""
    try:
        return read(arg)
    except (ValueError, argparse.ArgumentTypeError) as err:
        return type(err), str(err)


def short_texts(length):
    """Every text over ``READER_ALPHABET`` of at most ``length`` characters."""
    for size in range(length + 1):
        yield from map("".join, product(READER_ALPHABET, repeat=size))


def read_db_mismatches(length, every_k_to):
    """The (body, k) pairs on which ``read_db`` and ``reference_read_db`` differ, and the pairs tried.

    Each body over ``READER_ALPHABET`` of at most ``length`` characters is
    read at p = 13, at every k in 1..4 if it has at most ``every_k_to``
    characters, else at k = its line count clamped to 1..4.
    """
    mismatches, tried = [], 0
    for body in short_texts(length):
        count = len(body.removesuffix("\n").split("\n")) if body else 0
        ks = range(1, 5) if len(body) <= every_k_to else (min(4, max(1, count)),)
        for k in ks:
            text = f"pir-db v1 p=13 k={k}\n{body}"
            want = outcome(reference_read_db, io.StringIO(text))
            got = outcome(read_db, io.StringIO(text))
            if got != want:
                mismatches.append((body, k, got, want))
            tried += 1
    return mismatches, tried


# A number of 640 digits, the most wire.DECIMAL admits, and one a digit longer.
AT_BOUND, PAST_BOUND = "9" * 640, "9" * 641


def test_decimal_bound_is_the_least_settable_int_digit_limit():
    # Every text DECIMAL admits converts under any digit-limit setting, so no
    # reader depends on the setting; CPython before 3.10.7 has no limit.
    threshold = getattr(sys.int_info, "str_digits_check_threshold", 640)
    assert wire._DECIMAL.fullmatch(AT_BOUND) and len(AT_BOUND) == threshold
    assert wire._DECIMAL.fullmatch(PAST_BOUND) is None


def test_read_db_holds_every_number_to_640_digits():
    # 640 digits converts, to be refused as a number, echoed up to 64 digits;
    # 641 is not a canonical decimal, quoted up to 64 characters, whatever
    # int's digit limit allows.
    quoted, cut = f"'{PAST_BOUND[:64]}'…", f"{AT_BOUND[:64]}…"
    for text, message in (
        (f"pir-db v1 p={AT_BOUND} k=1\n0\n", f"primality is only proven below {MR_BOUND}, got {cut}"),
        (f"pir-db v1 p=13 k={AT_BOUND}\n0\n", f"database ends after 1 of {cut} values"),
        (f"pir-db v1 p=13 k=2\n5\n{AT_BOUND}\n", f"field value {cut} is not an int in [0, 13)"),
        (f"pir-db v1 p={PAST_BOUND} k=1\n0\n", f"malformed database header: 'pir-db v1 p={PAST_BOUND[:52]}'…"),
        (f"pir-db v1 p=13 k={PAST_BOUND}\n0\n", f"malformed database header: 'pir-db v1 p=13 k={PAST_BOUND[:47]}'…"),
        (f"pir-db v1 p=13 k=2\n5\n{PAST_BOUND}\n", f"database value 2 is not a canonical decimal: {quoted}"),
        (f"pir-db v1 p=13 k=2\n{PAST_BOUND}\n5\n", f"database value 1 is not a canonical decimal: {quoted}"),
    ):
        assert outcome(read_db, io.StringIO(text)) == (ValueError, message)
    # The faults are named in order: the first line past the bound, not the
    # longest or the last, and before a value not below p, which is checked
    # only after every line is a canonical decimal; 5,000 digits is past
    # int's default limit of 4,300 too.
    huge = "9" * 5000
    for body, line in ((f"99\n{PAST_BOUND}\n9{PAST_BOUND}\n", 2), (f"5\n{huge}\n{PAST_BOUND}\n", 2),
                       (f"{huge}\n5\n0{huge}\n", 1), (f"5\n0\n{huge}\n", 3)):
        fault = body.split("\n")[line - 1]
        assert outcome(read_db, io.StringIO(f"pir-db v1 p=13 k=3\n{body}")) == (
            ValueError, f"database value {line} is not a canonical decimal: '{fault[:64]}'…")


def test_documents_hold_every_number_to_640_digits(worked_query_doc, worked_db, gf13):
    # The query's p and a row count, and an answer value: 640 digits converts,
    # to be refused as a number, echoed up to 64 digits; 641 is not canonical,
    # quoted up to 64 characters.
    text = canonical(worked_query_doc)
    at_p = text.replace('"p":13', f'"p":{AT_BOUND}').encode("ascii")
    at_row = text.replace('"rows":[2,', f'"rows":[{AT_BOUND},').encode("ascii")
    assert outcome(wire.parse_query_bytes, at_p) == (
        ValueError, f"primality is only proven below {MR_BOUND}, got {AT_BOUND[:64]}…")
    assert outcome(wire.parse_query_bytes, at_row) == (
        ValueError, f"need 1 <= r <= len(support) <= p - 1, got r={AT_BOUND[:64]}…, len(support)=5, p=13")
    for data in (at_p, at_row):
        past = data.replace(AT_BOUND.encode(), PAST_BOUND.encode())
        assert outcome(wire.parse_query_bytes, past) == (
            ValueError, f"query document is not canonical version-3 JSON: '{past[:64].decode()}'…")
    def parse_answer(data):
        return wire.parse_answer_bytes(data, gf13)

    assert outcome(parse_answer, f'{{"blocks":[[{AT_BOUND}]]}}'.encode()) == (
        ValueError, f"field value {AT_BOUND[:64]}… is not an int in [0, 13)")
    past = f'{{"blocks":[[{PAST_BOUND}]]}}'
    assert outcome(parse_answer, past.encode()) == (
        ValueError, f"answer document is not canonical JSON: '{past[:64]}'…")
    # A version is named up to QUOTE_CAP digits; a longer one gets the generic
    # refusal, quoted, however long it is.
    for digits in (64, 65, 100_000):
        version = "9" * digits
        data = text.replace('"version":3', f'"version":{version}').encode("ascii")
        message = str(outcome(wire.parse_query_bytes, data)[1])
        if digits <= wire.QUOTE_CAP:
            assert message == f"unsupported query version {version}, expected 3"
        else:
            assert message == f"query document is not canonical version-3 JSON: '{data[:64].decode()}'…"


def test_no_refusal_is_worded_by_int():
    # Past int's default limit of 4,300 digits: every reader refuses in its
    # own words, not in int's "Exceeds the limit".
    huge = "9" * 5000
    refusals = [
        outcome(read_db, io.StringIO(text)) for text in (
            f"pir-db v1 p={huge} k=1\n0\n", f"pir-db v1 p=13 k={huge}\n0\n", f"pir-db v1 p=13 k=1\n{huge}\n")
    ] + [
        outcome(wire.parse_query_bytes, f'{{"labels":"AA==","p":{p},"rows":[{r}],"version":3}}'.encode())
        for p, r in ((huge, 1), (13, huge))
    ] + [
        outcome(lambda data: wire.parse_answer_bytes(data, PrimeField(13)), f'{{"blocks":[[{huge}]]}}'.encode()),
        outcome(_parse_indices, f"1,{huge}"),
    ]
    assert all(error is ValueError or error is argparse.ArgumentTypeError for error, _ in refusals)
    assert [message for _, message in refusals if "Exceeds" in message or len(message) > 120] == []


def test_parse_indices_reads_and_refuses_as_the_split_reference_does():
    assert outcome(_parse_indices, "") == (
        argparse.ArgumentTypeError, "expected comma-separated integers, got ''")
    assert [
        (text, got, want)
        for text in short_texts(5)
        if (got := outcome(_parse_indices, text)) != (want := outcome(reference_parse_indices, text))
    ] == []


def test_read_db_refuses_a_last_line_without_its_newline():
    # One byte form: the writer ends every line in "\n", the last one too.
    # The missing newline is named after the header and k, before the line
    # count and the values; a file with no line after its header is only
    # short of values.
    no_newline = (ValueError, "database's last line does not end with a newline")
    for body in ("5\n0\n12", "5\n0", "5\n0\n12\n7", "5\n0\n13", "5\n-0\n12", "\n\n\n\n1"):
        assert outcome(read_db, io.StringIO(f"pir-db v1 p=13 k=3\n{body}")) == no_newline, body
    assert outcome(read_db, io.StringIO("pir-db v1 p=13 k=0\n5")) == (ValueError, "database needs k >= 1 values")
    assert outcome(read_db, io.StringIO("pir-db v1 p=15 k=1\n5"))[1] == "modulus must be prime, got 15"
    assert outcome(read_db, io.StringIO("pir-db v1 p=13 k=3")) == (ValueError, "database ends after 0 of 3 values")
    assert outcome(read_db, io.StringIO("pir-db v1 p=13 k=3\n5\n0\n12\n")).values == (5, 0, 12)


def test_read_db_reads_and_refuses_as_the_line_by_line_reference_does():
    # The short cases run first, so a faulty reader fails in well under a
    # second, before the exhaustive loop at the end.  At scale: the k-th of
    # 5,000 lines is p itself, or p - 1 with and without its final newline,
    # or 0 and an empty line after it.
    rng = random.Random(5)
    p = 2**31 - 1
    values = [rng.randrange(p) for _ in range(4_999)]
    seen = []
    for last, tail in ((p, "\n"), (p - 1, "\n"), (p - 1, ""), (0, "\n\n")):
        text = f"pir-db v1 p={p} k=5000\n" + "".join(f"{v}\n" for v in values) + f"{last}{tail}"
        want = outcome(reference_read_db, io.StringIO(text))
        assert outcome(read_db, io.StringIO(text)) == want
        seen.append("read" if isinstance(want, Database) else want)
    assert seen == [
        (ValueError, f"field value {p} is not an int in [0, {p})"),
        "read",
        (ValueError, "database's last line does not end with a newline"),
        (ValueError, "database has data after its 5000 values"),
    ]
    # Each fault on the last line, with and without a final newline: without
    # it, the newline is the fault named, before any count or value.
    for last in ("05", "-0", "", "٣", "13", "12"):
        for tail in ("\n", ""):
            text = f"pir-db v1 p=13 k=3\n5\n0\n{last}{tail}"
            assert outcome(read_db, io.StringIO(text)) == outcome(reference_read_db, io.StringIO(text))
    assert outcome(read_db, io.StringIO("pir-db v1 p=13 k=3\n5\n0\n٣\n")) == (
        ValueError, "database value 3 is not a canonical decimal: '٣'")
    # Every body up to 4 characters at every k in 1..4, and every body of 5
    # at its own line count, where the value checks run;
    # ci/test_read_db_k1e6.py also runs the 5-character bodies at every k.
    mismatches, tried = read_db_mismatches(5, every_k_to=4)
    assert mismatches == [] and tried == 22_621 * 4 + 12**5
