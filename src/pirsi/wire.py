"""Canonical documents, the database file format, and the wire transport.

Every document is rendered as JSON with sorted keys and no insignificant
whitespace, so identical inputs always produce identical bytes.  Integers
stay decimal; exact rationals are rendered as "numerator/denominator"
strings.  Field moduli travel once per document header, never per element.

A query document (version 3) carries the layout as one block label per
index, in base64, and each block's row count; its coefficients are
implied by (support, r, p), so the server regenerates them.  Documents
that cross to the server role or back are read in one byte form only,
the one ``canonical`` writes: a regex matches the whole document, and a
query's labels must also be canonical base64.  The labels make every
query a partition of 1..k by construction.  Any other bytes raise
ValueError, and so does a query whose widest block's code is over
``rate.CODE_ENTRIES_CAP``: the server holds the shapes it parsed to the
rule the client's plan meets (``rate.require_code_fits``), before it
builds any code.  A number read anywhere, a database line or a CLI flag
too, is a canonical decimal of at most 640 digits (``DECIMAL``); p and k
need 25.  A refusal echoes what it refuses through ``field.quote``.

A database file is a header line, then one canonical decimal a line, each
line ended by "\n".  ``read_db`` counts the lines and reads the values with
``split_decimals``, the one reader of a decimal list: it proves the body is
digits and line ends, then one ``json.loads`` converts it, with no string
per line and no backtracking regex, and the values' ``max``, which it
returns, holds them to ``DECIMAL``'s 640 digits.  The CLI's index lists
take the same route with commas.  Only a refused list is split into
fields, to name the first field at fault.

The client/server split is realised as two roles exchanging these
documents as bytes: the server role reads a query document and writes an
answer document, seeing nothing else.  ``simulate_round`` runs one whole
round through that interface, and its ``RoundResult`` records the round's
bytes: the query bytes it sent and the answer bytes it received.
``transcript_text`` prints those bytes as they crossed, in the frame that
``canonical`` would write around them, so a round encodes its query once.
"""

from __future__ import annotations

import binascii
import json
import operator
import random
import re
from fractions import Fraction
from itertools import chain, combinations
from math import inf

from .field import QUOTE_CAP, PrimeField, quote
from .privacy import PosteriorReport, TvdReport
from .rate import ProblemParams, RatePlan, UsageError, require_code_fits
from .scheme import (
    Database,
    DemandSpec,
    Layout,
    Query,
    RoundResult,
    build_layout,
    client_decode,
    make_query,
    server_answer,
)

DB_MAGIC = "pir-db"
DB_VERSION = "v1"
QUERY_VERSION = 3

# A canonical decimal of at most 640 digits, CPython's least settable int digit
# limit (sys.int_info.str_digits_check_threshold): it converts under any setting.
DECIMAL = "0|[1-9][0-9]{0,639}"
_DB_HEADER = re.compile(rf"{DB_MAGIC} {DB_VERSION} p=({DECIMAL}) k=({DECIMAL})")
_DECIMAL = re.compile(DECIMAL)
_DIGITS = b"0123456789"
# The one byte string per document that canonical() writes; base64 with its padding.
_QUERY = re.compile(
    rf'\{{"labels":"([A-Za-z0-9+/]*={{0,2}})","p":({DECIMAL}),'
    rf'"rows":\[((?:{DECIMAL})(?:,(?:{DECIMAL}))*)\],"version":{QUERY_VERSION}\}}'.encode("ascii")
)
# A longer version than QUOTE_CAP digits gets the generic refusal, which quotes it.
_VERSION_FIELD = re.compile(rf'"version":(-?[0-9]{{1,{QUOTE_CAP}}})(?![0-9])'.encode("ascii"))
_ANSWER_BLOCK = rf"\[(?:{DECIMAL})(?:,(?:{DECIMAL}))*\]"
_ANSWER = re.compile(rf'\{{"blocks":\[{_ANSWER_BLOCK}(?:,{_ANSWER_BLOCK})*\]\}}'.encode("ascii"))


def canonical(doc) -> str:
    """Canonical JSON text: sorted keys, compact separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _not_ascii(what: str, err: UnicodeDecodeError) -> ValueError:
    return ValueError(
        f"{what} is not ASCII: byte 0x{err.object[err.start]:02x} at offset {err.start}"
    )


# ---------------------------------------------------------------------------
# Documents


def plan_doc(params: ProblemParams, plan: RatePlan) -> dict:
    return params._asdict() | plan._asdict() | {"l_star": plan.l_star, "r_star": plan.r_star}


def label_width(blocks: int) -> int:
    """Bytes per label in a query of ``blocks`` blocks: enough for 0..blocks - 1, and at least one."""
    return max(1, ((blocks - 1).bit_length() + 7) // 8)


def query_doc(query: Query) -> dict:
    """The version-3 document: each index's block label, then each block's row count.

    Label i is the number of index i's block, big-endian in ``label_width``
    bytes; the labels of 1..k, in order, are sent in base64.  The supports
    must partition 1..k, as a ``Layout``'s do, where k is their total
    length, and each must be in ascending order; any other query (an
    overlap, a gap, an index outside 1..k, an unsorted support) raises
    ValueError, since its labels would name a different query.
    """
    width = label_width(len(query.blocks))
    supports = [support for support, _ in query.blocks]
    k = sum(map(len, supports))
    labels = [-1] * (k + 1)  # slot 0 unused; -1 marks an index no block named
    try:
        for label, support in enumerate(supports):
            for index in support:
                labels[index] = label  # above k: IndexError; -j lands in slot k + 1 - j
        del labels[0]
        # A -1 left (a gap, so an overlap or index 0) fails the conversion.
        raw = bytes(labels) if width == 1 else b"".join(label.to_bytes(width, "big") for label in labels)
    except (IndexError, ValueError, OverflowError):
        raw = None
    # Past both, each index has a slot of its own, so the indices sum to
    # k(k + 1) / 2 less k + 1 for each negative one.
    if raw is None or sum(map(sum, supports)) != k * (k + 1) // 2:
        raise ValueError(f"query supports do not partition 1..{k}")
    # The labels carry no order, so an unsorted support would be read back sorted.
    if not all(map(operator.eq, map(sorted, supports), map(list, supports))):
        raise ValueError("query supports are not each in ascending order")
    return {
        "labels": binascii.b2a_base64(raw, newline=False).decode("ascii"),
        "p": query.field.p,
        "rows": [r for _, r in query.blocks],
        "version": QUERY_VERSION,
    }


def _refusal(data: bytes, what: str, form: str) -> ValueError:
    """Why ``data`` is not the canonical ``what``: a byte that is not ASCII, or else the form it must take."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as err:
        return _not_ascii(what, err)
    return ValueError(f"{what} is not canonical {form}: {quote(text)}")


def parse_query_bytes(data: bytes) -> Query:
    """A version-3 query document, as canonical bytes, as a Query; anything else raises ValueError.

    One byte string per query is accepted: the one ``canonical(query_doc(q))``
    writes.  The labels must be canonical base64 (``QR==`` decodes as
    ``QQ==`` does, so the decoded bytes are encoded again and compared), a
    whole number of ``label_width(len(rows))``-byte labels, each naming a
    block.  One pass puts each index in its block, so the supports come out
    sorted, disjoint and covering 1..k, where k is the label count; each
    block must then have 1 <= r <= len(support) <= p - 1, and the widest
    block's code r * s entries within the cap (``rate.require_code_fits``,
    a UsageError), so no code is built for a query over it.  A label count
    other than the database's is refused by the server (``server_answer``).
    """
    match = _QUERY.fullmatch(data)
    if match is None:
        version = _VERSION_FIELD.search(data)
        if version is not None and version[1] != str(QUERY_VERSION).encode():
            raise ValueError(f"unsupported query version {version[1].decode()}, expected {QUERY_VERSION}")
        raise _refusal(data, "query document", f"version-{QUERY_VERSION} JSON")
    encoded, p, counts = match.groups()
    try:
        raw = binascii.a2b_base64(encoded)
    except binascii.Error:  # a length that is not a multiple of four
        raw = None
    if raw is None or binascii.b2a_base64(raw, newline=False) != encoded:
        raise ValueError("query labels are not canonical base64")
    field = PrimeField(int(p))
    rows = tuple(map(int, counts.split(b",")))
    width = label_width(len(rows))
    if len(raw) % width:
        raise ValueError(f"query labels take {len(raw)} bytes, not a multiple of {width}")
    if width > 1:
        raw = [int.from_bytes(raw[i:i + width], "big") for i in range(0, len(raw), width)]
    if raw and max(raw) >= len(rows):
        raise ValueError(f"query label {max(raw)} names no block: the query has {len(rows)}")
    supports = [[] for _ in rows]
    for index, label in enumerate(raw, 1):
        supports[label].append(index)
    for support, r in zip(supports, rows):
        if not 1 <= r <= len(support) <= field.p - 1:
            raise ValueError(
                f"need 1 <= r <= len(support) <= p - 1, got r={quote(r)}, "
                f"len(support)={len(support)}, p={field.p}"
            )
    require_code_fits(rows, map(len, supports))
    return Query(tuple(zip(map(tuple, supports), rows)), field)


# The program parses bytes; perfbench's traced replay calls this by name.
def parse_query_doc(doc: dict) -> Query:
    """``parse_query_bytes`` of the document's canonical text."""
    return parse_query_bytes(canonical(doc).encode("ascii"))


def answer_doc(answer: tuple[tuple[int, ...], ...]) -> dict:
    return {"blocks": [list(block) for block in answer]}


def parse_answer_bytes(data: bytes, field: PrimeField) -> tuple[tuple[int, ...], ...]:
    """A canonical answer document's coded blocks, each a tuple of field values, or ValueError.

    The document must be the bytes ``canonical(answer_doc(...))`` writes for
    one or more non-empty blocks of canonical decimals; each value must be
    below p.
    """
    if _ANSWER.fullmatch(data) is None:
        raise _refusal(data, "answer document", "JSON")
    # Past the match, json only converts: it is faster than splitting and int().
    blocks = tuple(map(tuple, json.loads(data)["blocks"]))
    if max(map(max, blocks)) >= field.p:  # the match admits no other fault
        field.check(chain.from_iterable(blocks))
    return blocks


# The program parses bytes; perfbench's traced replay calls this by name.
def parse_answer_doc(doc: dict, field: PrimeField) -> tuple[tuple[int, ...], ...]:
    """``parse_answer_bytes`` of the document's canonical text."""
    return parse_answer_bytes(canonical(doc).encode("ascii"), field)


# The program prints transcript_text; this is kept for perfbench's traced
# replay and as the tests' reference rendering.
def transcript_doc(
    params: ProblemParams,
    seed: int,
    result: RoundResult,
) -> dict:
    """Five sections: seed, plan (with k, m, n), query (the layout's supports), answer, decoded."""
    return {
        "seed": seed,
        "plan": plan_doc(params, result.layout.plan),
        "query": query_doc(result.query),
        "answer": answer_doc(result.answer),
        "decoded": {str(idx): val for idx, val in sorted(result.decoded.items())},
    }


def transcript_text(params: ProblemParams, seed: int, result: RoundResult) -> str:
    """``canonical(transcript_doc(params, seed, result))``, reusing the round's bytes.

    The query and answer sections are the bytes that crossed, so ``result``
    must come from ``simulate_round``, which records them; one without them
    raises ValueError.  The keys are written in sorted order with compact
    separators, which is exactly the frame ``canonical`` writes around them.
    """
    if result.query_bytes is None or result.answer_bytes is None:
        raise ValueError("round result has no recorded query/answer bytes; use simulate_round")
    query = result.query_bytes.decode("ascii")
    answer = result.answer_bytes.decode("ascii")
    decoded = canonical({str(idx): val for idx, val in result.decoded.items()})
    plan = canonical(plan_doc(params, result.layout.plan))
    return f'{{"answer":{answer},"decoded":{decoded},"plan":{plan},"query":{query},"seed":{seed}}}'


def posterior_doc(report: PosteriorReport, layout: Layout) -> dict:
    """The document ``privacy-exact`` prints: the layout and the table of posteriors.

    ``report`` is ``privacy.posterior``'s for this layout, so every n-subset
    of 1..k, with k and n from ``report.params``, has ``report.prior``.  The
    table is rendered in a few C-level passes: the keys joined from the
    index strings of 1..k in ``itertools.combinations`` order, every value
    the one prior string.
    """
    k, n = report.params.k, report.params.n
    prior = frac_str(report.prior)
    # A list, not the bare map: combinations copies a list into a tuple of
    # its length, but from an iterator it grows a tuple, and at k = 13
    # CPython's tuple free list kept one such tuple per call, 0.25 MB after
    # 2,000 calls.
    keys = map(",".join, combinations(list(map(str, range(1, k + 1))), n))
    return {
        "layout": {"subspaces": [list(block) for block in layout.subspaces]},
        "prior": prior,
        "posteriors": dict.fromkeys(keys, prior),
        "max_deviation": "0/1",  # every entry is the prior
        "uniform": report.uniform,
    }


# No longer a total-variation distance; perfbench's traced privacy-mc replay needs this name.
def tvd_doc(report: TvdReport) -> dict:
    """The report's fields, with an infinite ``max_z`` as None: JSON has no infinity."""
    return report._asdict() | ({"max_z": None} if report.max_z == inf else {})


# ---------------------------------------------------------------------------
# Database files


# The program never calls this; perfbench's Rounds.prepare writes its database with it.
def write_db(stream, db: Database) -> None:
    stream.write(f"{DB_MAGIC} {DB_VERSION} p={db.field.p} k={db.k}\n")
    for value in db.values:
        stream.write(f"{value}\n")


def split_decimals(text: str, sep: str) -> tuple[list[int], int]:
    """``text`` split at ``sep`` as ints, and their max, if every field is a ``DECIMAL``; else ValueError.

    Three C-level passes and no per-field strings: the ASCII text must hold
    only digits and ``sep``, ``json.loads`` must accept it as an array
    once each ``sep`` is read as a comma, and the values' max must be
    below 10**640.  JSON refuses an empty entry and a leading zero, and the
    max a field past ``DECIMAL``'s 640 digits that int's digit limit lets
    json read, so together they accept one canonical decimal a field, under
    any limit.  A refused text is split once, and the error names the first
    field, counted from 1, that ``DECIMAL`` does not match (an empty
    ``text`` is one empty field).
    """
    allowed = _DIGITS + sep.encode("ascii")
    if text and text.isascii() and not text.encode("ascii").translate(None, allowed):
        try:
            values = json.loads(f"[{text.replace(sep, ',')}]")
        except ValueError:  # not JSON, or a field past int's digit limit and so past DECIMAL
            pass
        else:
            top = max(values)
            if top < 10**640:
                return values, top
            del values  # freed before the split: at 10^6 lines the two peaked at 127 MB
    fields = text.split(sep)
    at = next(i for i, field in enumerate(fields) if _DECIMAL.fullmatch(field) is None)
    raise ValueError(f"value {at + 1} is not a canonical decimal: {quote(fields[at])}")


def read_db(stream) -> Database:
    """A database file, or ValueError.

    The header and every value must be canonical decimals of at most 640
    digits (no sign, no leading zeros, no spaces or underscores), one value
    per line ended by "\n", the last too, with k >= 1 values in [0, p) and
    nothing after the k-th.  The stream is read in one call, so a byte that
    an ASCII stream cannot decode is named with its offset in the file.  The
    lines are counted, not split, and the values and their max read by
    ``split_decimals``.  Faults are named in this order: bytes that are not
    ASCII, the header, a last line without its "\n", too few or too many
    lines, then the first line that is not such a decimal, then the first
    value not below p, in the field's words.  Each check is made here, once,
    so the ``Database`` is built without repeating them.
    """
    try:
        header, _, body = stream.read().partition("\n")
    except UnicodeDecodeError as err:
        raise _not_ascii("database file", err) from None
    match = _DB_HEADER.fullmatch(header)
    if match is None:
        raise ValueError(f"malformed database header: {quote(header)}")
    field = PrimeField(int(match[1]))
    k = int(match[2])
    if k < 1:
        raise ValueError("database needs k >= 1 values")
    if body and not body.endswith("\n"):
        raise ValueError("database's last line does not end with a newline")
    count = body.count("\n")
    if count < k:
        raise ValueError(f"database ends after {count} of {quote(k)} values")
    if count > k:
        raise ValueError(f"database has data after its {k} values")
    try:
        values, top = split_decimals(body[:-1], "\n")
    except ValueError as err:  # worded for the file: "database value N ..."
        raise ValueError(f"database {err}") from None
    if top >= field.p:
        field.check(values)  # raises, naming the first value at fault
    # tuple.__new__: Database.__new__ would check the values a second time.
    return tuple.__new__(Database, (tuple(values), field))


# ---------------------------------------------------------------------------
# The round over bytes


def serve_query_bytes(query_bytes: bytes, db: Database) -> bytes:
    """The server role: canonical query bytes in, canonical answer bytes out.

    This is the entire interface the server needs; it never sees demand or
    side-information structure.  Bytes other than one canonical version-3
    query raise ValueError (``parse_query_bytes``), as do a modulus other
    than the database's and a label count other than its k
    (``server_answer``).
    """
    query = parse_query_bytes(query_bytes)
    answer = server_answer(query, db)
    return canonical(answer_doc(answer)).encode("ascii")


def simulate_round(
    params: ProblemParams,
    spec: DemandSpec,
    db: Database,
    rng: random.Random,
) -> RoundResult:
    """One full round with the query and the answer carried as canonical bytes.

    The client emits query bytes, the server role turns them into answer
    bytes, and the client decodes from the parsed answer.  The result
    records both byte strings, which ``transcript_text`` prints as they are.
    """
    if db.k != params.k:
        raise UsageError(f"database holds {db.k} messages, expected {params.k}")
    layout = build_layout(params, spec, rng)
    query = make_query(layout, db.field)
    query_bytes = canonical(query_doc(query)).encode("ascii")
    answer_bytes = serve_query_bytes(query_bytes, db)
    answer = parse_answer_bytes(answer_bytes, db.field)
    decoded = client_decode(query, answer, spec)
    return RoundResult(layout, query, answer, decoded, query_bytes, answer_bytes)
