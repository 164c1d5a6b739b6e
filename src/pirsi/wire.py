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
ValueError.

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
import random
import re
from fractions import Fraction
from itertools import chain

from .field import PrimeField
from .privacy import PosteriorReport, TvdReport
from .rate import ProblemParams, RatePlan, UsageError
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
# A malformed header is quoted up to this many characters: a file with no
# "\n" is all header.
HEADER_QUOTE_CAP = 64

# A canonical decimal, for the database file and the CLI's flags alike.
DECIMAL = "0|[1-9][0-9]*"
_DB_HEADER = re.compile(rf"{DB_MAGIC} {DB_VERSION} p=({DECIMAL}) k=({DECIMAL})")
_DB_VALUE = re.compile(DECIMAL)
_DB_VALUES = re.compile(rf"(?:(?:{DECIMAL})\n)*(?:{DECIMAL})\n?")
# The one byte string per document that canonical() writes; base64 with its padding.
_QUERY = re.compile(
    rf'\{{"labels":"([A-Za-z0-9+/]*={{0,2}})","p":({DECIMAL}),'
    rf'"rows":\[((?:{DECIMAL})(?:,(?:{DECIMAL}))*)\],"version":{QUERY_VERSION}\}}'.encode("ascii")
)
_VERSION_FIELD = re.compile(rb'"version":(-?[0-9]+)')
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
    length; any other query (an overlap, a gap, an index outside 1..k)
    raises ValueError, since its labels would name a different query.
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
    cut = "…" if len(text) > HEADER_QUOTE_CAP else ""
    return ValueError(f"{what} is not canonical {form}: {text[:HEADER_QUOTE_CAP]!r}{cut}")


def parse_query_bytes(data: bytes) -> Query:
    """A version-3 query document, as canonical bytes, as a Query; anything else raises ValueError.

    One byte string per query is accepted: the one ``canonical(query_doc(q))``
    writes.  The labels must be canonical base64 (``QR==`` decodes as
    ``QQ==`` does, so the decoded bytes are encoded again and compared), a
    whole number of ``label_width(len(rows))``-byte labels, each naming a
    block.  One pass puts each index in its block, so the supports come out
    sorted, disjoint and covering 1..k, where k is the label count; each
    block must then have 1 <= r <= len(support) <= p - 1.  A label count
    other than the database's is refused by the server (``server_answer``).
    """
    match = _QUERY.fullmatch(data)
    if match is None:
        version = _VERSION_FIELD.search(data)
        if version is not None and version[1] != str(QUERY_VERSION).encode():
            raise ValueError(
                f"unsupported query version {version[1].decode()}, expected {QUERY_VERSION}"
            )
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
                f"need 1 <= r <= len(support) <= p - 1, got r={r}, "
                f"len(support)={len(support)}, p={field.p}"
            )
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
    return {
        "layout": {"subspaces": [list(block) for block in layout.subspaces]},
        "prior": frac_str(report.prior),
        "posteriors": {
            ",".join(str(i) for i in w): frac_str(p)
            for w, p in report.probabilities.items()
        },
        "max_deviation": frac_str(report.max_deviation),
        "uniform": report.uniform,
    }


# No longer a total-variation distance; perfbench's traced privacy-mc replay needs this name.
def tvd_doc(report: TvdReport) -> dict:
    return report._asdict()


# ---------------------------------------------------------------------------
# Database files


# The program never calls this; perfbench's Rounds.prepare writes its database with it.
def write_db(stream, db: Database) -> None:
    stream.write(f"{DB_MAGIC} {DB_VERSION} p={db.field.p} k={db.k}\n")
    for value in db.values:
        stream.write(f"{value}\n")


def read_db(stream) -> Database:
    """A database file, or ValueError.

    The header and every value must be canonical decimals (no sign, no
    leading zeros, no spaces or underscores), one value per line, with
    k >= 1 values in [0, p) and nothing after the k-th.  The stream is read
    in one call, so a byte that an ASCII stream cannot decode is named with
    its offset in the file.
    """
    try:
        text = stream.read()
    except UnicodeDecodeError as err:
        raise _not_ascii("database file", err) from None
    header, _, body = text.partition("\n")
    match = _DB_HEADER.fullmatch(header)
    if match is None:
        cut = "…" if len(header) > HEADER_QUOTE_CAP else ""
        raise ValueError(f"malformed database header: {header[:HEADER_QUOTE_CAP]!r}{cut}")
    field = PrimeField(int(match[1]))
    k = int(match[2])
    if k < 1:
        raise ValueError("database needs k >= 1 values")
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) < k:
        raise ValueError(f"database ends after {len(lines)} of {k} values")
    if len(lines) > k:
        raise ValueError(f"database has data after its {k} values")
    if _DB_VALUES.fullmatch(body) is None:
        bad = next(i for i, line in enumerate(lines) if _DB_VALUE.fullmatch(line) is None)
        raise ValueError(f"database value {bad + 1} is not a canonical decimal: {lines[bad]!r}")
    return Database(tuple(map(int, lines)), field)


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
