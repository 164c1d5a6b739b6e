"""Command-line surface: canonical output, determinism, exit codes."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest

from pirsi import (
    Database,
    DemandSpec,
    PrimeField,
    ProblemParams,
    RatePlan,
    RoundResult,
    compute_plan,
    simulate_round,
    wire,
)
from pirsi.cli import build_parser, main, posterior_table_size
from pirsi.rate import CODE_ENTRIES_CAP, UsageError
from pirsi.wire import canonical, read_db, transcript_doc, write_db
from conftest import WORKED_VALUES, demand_one_dropping_draw_layout, leaky_draw_layout
from goldens import (
    GOLDEN_ORACLE_K9_SHA256,
    GOLDEN_ORACLE_K14_SHA256,
    GOLDEN_PRIVACY_EXACT_SHA256,
    GOLDEN_PRIVACY_MC_SHA256,
    PRIVACY_EXACT_ARGV,
    privacy_mc_argv,
)
from oracles import reference_query_supports

# Transcripts pinned byte for byte, so a given seed keeps its round across
# refactors: plan, query (a version-3 document whose labels are the layout),
# answer and decoded values.  The version-3 query changed only the query
# section of each golden; every other byte is as version 2 printed it.
GOLDEN_WORKED = (
    '{"answer":{"blocks":[[8,4],[12,0],[6,2]]},"decoded":{"2":7,"5":9},'
    '"plan":{"k":13,"l_star":3,"m":5,"m_bar":2,"n":2,"r_star":6,"side_profile":[3,2,2],'
    '"size_profile":[5,4,4],"t":1,"trivial":false},'
    '"query":{"labels":"AgEAAgICAQABAAEAAA==","p":13,"rows":[2,2,2],"version":3},"seed":11}\n'
)
GOLDEN_SINGLE_BLOCK_SHA256 = "c7456206a540e89ace1b64aa95a90ea1fa0fb30a9d59d2e3a61e07832fdbb9d9"
# The paper's regime, (5000, 1000, 10): 46 subspaces, 460 symbols down.
GOLDEN_PARTITIONED_SHA256 = "a685392970d923c049d68faf025d37426dc6af8fddbca1ec98bf7a0d13f2728e"
# Usage errors print the parser's usage line, then the message; argparse wraps
# usage at $COLUMNS, which ``fixed_width`` pins.
USAGE = "usage: pirsi [-h] {rate,simulate,privacy-exact,privacy-mc,oracle} ...\n"
PRIVACY_MC_USAGE = (
    "usage: pirsi privacy-mc [-h] --k K --m M --n N --wa WA --wb WB\n"
    "                        [--trials TRIALS] [--seed SEED]\n"
)
SIMULATE_USAGE = (
    "usage: pirsi simulate [-h] --k K --m M --n N --demands DEMANDS [--side SIDE]\n"
    "                      --db DB [--seed SEED]\n"
)


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def assert_usage_error(capsys, argv, message, usage=USAGE, prog="pirsi"):
    """``argv`` exits 2, prints nothing on stdout, and exactly usage + message on stderr."""
    assert _outcome(capsys, argv) == (2, "", f"{usage}{prog}: error: {message}\n"), argv


def db_file(tmp_path, name, values, field):
    path = tmp_path / name
    with open(path, "w") as fh:
        write_db(fh, Database(tuple(values), field))
    return str(path)


@pytest.fixture
def worked_db_file(tmp_path, gf13):
    return db_file(tmp_path, "worked.db", (WORKED_VALUES[i] for i in range(1, 14)), gf13)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rate_worked_example(capsys):
    code, out, _ = run_cli(capsys, "rate", "--k", "13", "--m", "5", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["r_star"] == 6
    assert doc["size_profile"] == [5, 4, 4]
    assert doc["side_profile"] == [3, 2, 2]
    assert doc["m_bar"] == 2 and doc["t"] == 1 and doc["l_star"] == 3
    assert doc["trivial"] is False


def test_rate_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "rate", "--k", "20", "--m", "4", "--n", "2")
    _, second, _ = run_cli(capsys, "rate", "--k", "20", "--m", "4", "--n", "2")
    assert first == second
    assert first.endswith("\n")


def test_rate_rejects_bad_params(capsys):
    assert_usage_error(
        capsys, ["rate", "--k", "3", "--m", "2", "--n", "2"],
        "demands plus side information exceed database: n=2, m=2, k=3",
    )


def test_every_instance_subcommand_caps_k(capsys, tmp_path):
    # Past the cap the plan alone would hold a profile about k long, so a
    # huge --k is a usage error naming the bound, not a MemoryError.
    code, out, _ = run_cli(capsys, "rate", "--k", "1000000", "--m", "0", "--n", "1000000")
    assert code == 0 and json.loads(out)["r_star"] == 1_000_000
    for argv in (
        ["rate", "--m", "0", "--n", "1"],
        ["privacy-exact", "--m", "0", "--n", "1"],
        ["privacy-mc", "--m", "0", "--n", "2", "--wa", "1,2", "--wb", "3,4"],
        ["simulate", "--m", "0", "--n", "1", "--demands", "1", "--db", str(tmp_path / "none")],
    ):
        assert_usage_error(capsys, [*argv, "--k", "1000001"], "k must be at most 1000000, got 1000001")


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_simulate_round_trip(capsys, worked_db_file):
    args = [
        "simulate", "--k", "13", "--m", "5", "--n", "2",
        "--demands", "2,5", "--side", "1,4,6,7,9",
        "--db", worked_db_file, "--seed", "11",
    ]
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    doc = json.loads(out)
    assert doc["decoded"] == {"2": 7, "5": 9}
    assert doc["seed"] == 11
    assert doc["plan"]["r_star"] == 6
    assert sum(doc["query"]["rows"]) == 6
    assert "timing_ms=" in err

    code2, out2, _ = run_cli(capsys, *args)
    assert code2 == 0 and out2 == out  # byte-for-byte replay

    _, out3, _ = run_cli(capsys, *args[:-1], "12")
    assert json.loads(out3)["decoded"] == {"2": 7, "5": 9}


def test_simulate_query_document_is_demand_free(capsys, worked_db_file):
    code, out, _ = run_cli(
        capsys, "simulate", "--k", "13", "--m", "5", "--n", "2",
        "--demands", "2,5", "--side", "1,4,6,7,9", "--db", worked_db_file,
    )
    assert code == 0
    query = json.loads(out)["query"]

    def keys_of(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield key
                yield from keys_of(value)
        elif isinstance(node, list):
            for value in node:
                yield from keys_of(value)

    assert set(keys_of(query)) == {"labels", "p", "rows", "version"}


def test_simulate_seed_defaults_to_0_whatever_the_environment(capsys, worked_db_file, monkeypatch):
    # --seed is the seed's one source: the environment, PIR_SEED included, is not read.
    args = [
        "simulate", "--k", "13", "--m", "5", "--n", "2",
        "--demands", "2,5", "--side", "1,4,6,7,9", "--db", worked_db_file,
    ]
    _, from_flag, _ = run_cli(capsys, *args, "--seed", "0")
    monkeypatch.setenv("PIR_SEED", "77")
    _, from_default, _ = run_cli(capsys, *args)
    assert from_default == from_flag
    assert json.loads(from_default)["seed"] == 0


def test_simulate_usage_errors(capsys, worked_db_file):
    base = ["simulate", "--k", "13", "--m", "5", "--n", "2", "--db", worked_db_file]
    for extra, message in (
        (["--demands", "2", "--side", "1,4,6,7,9"], "expected 2 demands, got 1"),
        (["--demands", "2,5", "--side", "1,4"], "expected 5 side indices, got 2"),
        (["--demands", "2,5", "--side", "2,4,6,7,9"], "demand and side-information indices overlap"),
        (["--demands", "2,15", "--side", "1,4,6,7,9"], "index 15 outside 1..13"),
        (["--demands", "2,5", "--side", "1,4,6,7,19"], "index 19 outside 1..13"),  # a database lookup
        (["--demands", "2,5", "--side", "0,4,6,7,9"], "index 0 outside 1..13"),
        # The first bad side index in the order given, neither the largest nor the smallest.
        (["--demands", "2,5", "--side", "1,14,6,7,19"], "index 14 outside 1..13"),
        (["--demands", "2,5", "--side", "1,19,6,7,14"], "index 19 outside 1..13"),
        (["--demands", "2,5", "--side", "1,4,6,7,9,9"], "duplicate side-information indices"),
        (["--demands", "2,5", "--side", "1,1,4,6,7"], "duplicate side-information indices"),
        (["--demands", "2,2", "--side", "1,4,6,7,9"], "duplicate demand indices"),
    ):
        assert_usage_error(capsys, base + extra, message)
    spec = ["--m", "5", "--n", "2", "--demands", "2,5", "--side", "1,4,6,7,9"]
    assert_usage_error(
        capsys, ["simulate", "--k", "12", *spec, "--db", worked_db_file],
        "database holds 13 messages, expected 12",
    )
    assert_usage_error(
        capsys, ["simulate", "--k", "13", *spec, "--db", "/nonexistent.db"],
        "cannot read database: [Errno 2] No such file or directory: '/nonexistent.db'",
    )


def test_simulate_validates_the_request_once(capsys, worked_db_file, monkeypatch):
    # The round checks the spec against the instance; the CLI does not check it first.
    calls = []
    validate = DemandSpec.validate_against

    def counted(spec, params):
        calls.append(spec)
        return validate(spec, params)

    monkeypatch.setattr(DemandSpec, "validate_against", counted)
    code, out, _ = run_cli(
        capsys, "simulate", "--k", "13", "--m", "5", "--n", "2",
        "--demands", "2,5", "--side", "1,4,6,7,9", "--db", worked_db_file, "--seed", "11",
    )
    assert (code, out) == (0, GOLDEN_WORKED)
    assert len(calls) == 1


def test_simulate_exits_1_naming_a_decode_mismatch(capsys, monkeypatch, worked_db_file):
    decode = wire.client_decode

    def off_by_one_at_5(query, answer, spec):
        decoded = decode(query, answer, spec)
        return decoded | {5: (decoded[5] + 1) % 13}

    monkeypatch.setattr("pirsi.wire.client_decode", off_by_one_at_5)
    code, out, err = run_cli(
        capsys, "simulate", "--k", "13", "--m", "5", "--n", "2",
        "--demands", "2,5", "--side", "1,4,6,7,9", "--db", worked_db_file, "--seed", "11",
    )
    assert code == 1
    assert "decode mismatch at indices [5]\n" in err
    golden = json.loads(GOLDEN_WORKED)
    assert json.loads(out) == golden | {"decoded": {"2": 7, "5": (golden["decoded"]["5"] + 1) % 13}}


def test_flags_hold_every_number_to_640_digits(capsys, worked_db_file):
    # 640 digits converts under any int digit limit: a seed of 640 digits
    # runs, and an index of 640 digits reaches the library's range check,
    # which echoes 64 of its digits.
    # 641 digits, or 5,000, past int's default limit, is refused by its flag,
    # and at most 64 of its characters are quoted.
    at, past, huge = "9" * 640, "9" * 641, "9" * 5000
    base = ["simulate", "--m", "5", "--n", "2", "--demands", "2,5", "--db", worked_db_file]
    code, out, _ = run_cli(capsys, *base, "--k", "13", "--side", "1,4,6,7,9", "--seed", at)
    assert code == 0 and json.loads(out)["seed"] == int(at)
    assert_usage_error(capsys, base + ["--k", "13", "--side", f"1,4,6,7,{at}"], f"index {at[:64]}… outside 1..13")
    assert_usage_error(capsys, ["rate", "--k", at, "--m", "0", "--n", "1"],
                       f"k must be at most 1000000, got {at[:64]}…")
    for number in (past, huge):
        quoted = f"'{number[:64]}'…"
        for argv, message in (
            (base + ["--k", "13", "--side", "1,4,6,7,9", "--seed", number],
             f"argument --seed: expected a decimal integer, got {quoted}"),
            (base + ["--k", number, "--side", "1,4,6,7,9"],
             f"argument --k: expected a decimal integer, got {quoted}"),
            (base + ["--k", "13", "--side", f"1,{number}"],
             f"argument --side: expected comma-separated integers, got '1,{number[:62]}'…"),
        ):
            assert_usage_error(capsys, argv, message, usage=SIMULATE_USAGE, prog="pirsi simulate")


def test_refusals_past_640_digits_read_the_same_under_any_int_digit_limit(tmp_path):
    # int's digit limit is a per-process setting; no refusal may depend on it.
    # "" leaves the default (4,300), 640 is the least settable limit, 0 none.
    path = tmp_path / "long-p.db"
    path.write_text(f"pir-db v1 p={'9' * 641} k=1\n0\n", encoding="ascii")
    for argv, code, tail in (
        (["privacy-exact", "--k", "5", "--m", "1", "--n", "1", "--seed", "9" * 641], 2,
         f"error: argument --seed: expected a decimal integer, got '{'9' * 64}'…\n"),
        (["simulate", "--k", "1", "--m", "0", "--n", "1", "--demands", "1", "--db", str(path)], 1,
         f"error: malformed database header: 'pir-db v1 p={'9' * 52}'…\n"),
    ):
        runs = {
            setting: subprocess.run(
                [sys.executable, "-m", "pirsi.cli", *argv],
                env=_module_env() | {"PYTHONINTMAXSTRDIGITS": setting},
                capture_output=True, text=True, timeout=60, check=False,
            )
            for setting in ("", "640", "0")
        }
        outcomes = {(run.returncode, run.stdout, run.stderr) for run in runs.values()}
        assert len(outcomes) == 1, runs
        (got, out, err), = outcomes
        assert (got, out) == (code, "") and err.endswith(tail), err


def test_integer_flags_accept_only_canonical_decimals(capsys, worked_db_file):
    base = ["simulate", "--k", "13", "--m", "5", "--n", "2", "--db", worked_db_file]
    for extra in (
        ["--demands", " 2,5_0", "--side", "1,4,6,7,9"],
        ["--demands", "2,05", "--side", "1,4,6,7,9"],
        ["--demands", "2,+5", "--side", "1,4,6,7,9"],
        ["--demands", "2,5", "--side", "1,4,6,7,9,"],
        ["--demands", "1,,2", "--side", "1,4,6,7,9"],
        ["--demands", ",1", "--side", "1,4,6,7,9"],
        ["--demands", "-0", "--side", "1,4,6,7,9"],
        ["--demands", "1, 2", "--side", "1,4,6,7,9"],
        ["--demands", "1,2\n", "--side", "1,4,6,7,9"],
        ["--demands", "\u0663", "--side", "1,4,6,7,9"],  # ARABIC-INDIC DIGIT THREE; int() takes it
        ["--demands=-3,2", "--side", "1,4,6,7,9"],  # "=": argparse reads a bare -3,2 as a flag
        ["--demands", "2,5", "--side", "1,4,6,7,9", "--m", "-1"],
        *(["--demands", "2,5", "--side", "1,4,6,7,9", "--seed", bad]
          for bad in (" 7", "1_1", "-7", "abc", "07", "")),
    ):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected" in err and ", got " in err  # refused by the flag's parser, not argparse
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--k", "1_3", "--m", "5", "--n", "2"])
    assert exc.value.code == 2


def test_simulate_golden_worked_transcript(capsys, worked_db_file):
    code, out, _ = run_cli(
        capsys, "simulate", "--k", "13", "--m", "5", "--n", "2",
        "--demands", "2,5", "--side", "1,4,6,7,9", "--db", worked_db_file, "--seed", "11",
    )
    assert code == 0
    assert out == GOLDEN_WORKED


def test_transcript_has_five_sections_and_its_query_carries_the_layout(worked_db, worked_spec):
    # The query's labels, read per index, are the layout, so the goldens pin seeded layouts.
    params = ProblemParams(13, 5, 2)
    result = simulate_round(params, worked_spec, worked_db, random.Random(11))
    doc = transcript_doc(params, 11, result)
    assert doc.keys() == {"seed", "plan", "query", "answer", "decoded"}
    supports = reference_query_supports(doc["query"]["labels"], len(doc["query"]["rows"]))
    assert list(map(tuple, supports)) == list(result.layout.subspaces)
    assert canonical(doc) + "\n" == GOLDEN_WORKED


def worked_argv(tmp_path):
    path = db_file(tmp_path, "worked.db", (WORKED_VALUES[i] for i in range(1, 14)), PrimeField(13))
    return [
        "--k", "13", "--m", "5", "--n", "2",
        "--demands", "2,5", "--side", "1,4,6,7,9", "--db", path, "--seed", "11",
    ]


def partitioned_argv(tmp_path):
    """The paper's regime, (5000, 1000, 10), over a seeded GF(2^31 - 1) database."""
    field = PrimeField(2**31 - 1)
    rng = random.Random("golden-partitioned")
    path = db_file(tmp_path, "partitioned.db", [rng.randrange(field.p) for _ in range(5000)], field)
    return [
        "--k", "5000", "--m", "1000", "--n", "10",
        "--demands", ",".join(str(i) for i in range(1, 5000, 500)),
        "--side", ",".join(str(i) for i in range(3, 5001, 5)),
        "--db", path, "--seed", "12",
    ]


@pytest.mark.parametrize("instance", [worked_argv, partitioned_argv], ids=["13-5-2", "5000-1000-10"])
def test_simulate_prints_the_bytes_that_crossed(capsys, tmp_path, monkeypatch, instance):
    argv = instance(tmp_path)
    crossed = []
    serve = wire.serve_query_bytes

    def spy(query_bytes, db):
        answer_bytes = serve(query_bytes, db)
        crossed.append((query_bytes, answer_bytes))
        return answer_bytes

    monkeypatch.setattr(wire, "serve_query_bytes", spy)
    code, out, _ = run_cli(capsys, "simulate", *argv)
    assert code == 0
    [(sent, returned)] = crossed
    assert out.startswith('{"answer":' + returned.decode("ascii") + ',"decoded":')
    assert ',"query":' + sent.decode("ascii") + ',"seed":' in out

    # The same round rebuilt from its four parts, without its bytes, renders
    # the same text through the reference dict.
    args = build_parser().parse_args(["simulate", *argv])
    params = ProblemParams(args.k, args.m, args.n)
    with open(args.db, encoding="ascii") as fh:
        db = read_db(fh)
    spec = DemandSpec(args.demands, args.side, {i: db[i] for i in args.side})
    result = simulate_round(params, spec, db, random.Random(args.seed))
    assert (result.query_bytes, result.answer_bytes) == (sent, returned)
    parts = RoundResult(result.layout, result.query, result.answer, result.decoded)
    assert canonical(transcript_doc(params, args.seed, parts)) + "\n" == out


def test_simulate_golden_single_block_transcript(capsys, tmp_path):
    field = PrimeField(2**31 - 1)
    rng = random.Random("golden")
    path = db_file(tmp_path, "single.db", [rng.randrange(field.p) for _ in range(56)], field)
    code, out, _ = run_cli(
        capsys, "simulate", "--k", "56", "--m", "7", "--n", "7",
        "--demands", "1,9,17,25,33,41,49", "--side", "2,10,18,26,34,42,50",
        "--db", path, "--seed", "3",
    )
    assert code == 0
    assert len(out.encode()) == 930
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SINGLE_BLOCK_SHA256


def test_simulate_golden_partitioned_transcript(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "simulate", *partitioned_argv(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["query"]["rows"]) == 46
    assert sum(map(len, doc["answer"]["blocks"])) == doc["plan"]["r_star"] == 460
    assert len(out.encode()) == 12479
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PARTITIONED_SHA256


def test_simulate_field_too_small_is_runtime_error(capsys, tmp_path):
    # The widest (13,5,2) subspace has 5 members, so GF(5) lacks the
    # evaluation points; make_query refuses and the CLI exits 1.
    path = db_file(tmp_path, "small.db", [i % 5 for i in range(13)], PrimeField(5))
    code, out, err = run_cli(
        capsys, "simulate", "--k", "13", "--m", "5", "--n", "2",
        "--demands", "2,5", "--side", "1,4,6,7,9", "--db", path,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: field too small")


def test_privacy_exact_small_instance(capsys):
    code, out, _ = run_cli(
        capsys, "privacy-exact", "--k", "5", "--m", "1", "--n", "1", "--seed", "4"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["uniform"] is True
    assert doc["prior"] == "1/5"
    assert doc["max_deviation"] == "0/1"
    assert len(doc["posteriors"]) == 5
    assert all(v == "1/5" for v in doc["posteriors"].values())


def test_privacy_exact_golden_worked_instance(capsys):
    code, out, _ = run_cli(capsys, *PRIVACY_EXACT_ARGV)
    assert code == 0
    assert len(out.encode()) == 1192
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PRIVACY_EXACT_SHA256


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one in-process call, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_calls_share_one_parser_and_leak_no_state(capsys):
    # The parser is built once per process; every call must still see a
    # fresh namespace (the unseeded call at the end must not inherit seed
    # 11), and a usage error must not change later calls.
    unseeded = ("privacy-exact", "--k", "13", "--m", "5", "--n", "2")
    exact = unseeded + ("--seed", "11")
    rate = ("rate", "--k", "13", "--m", "5", "--n", "2")
    sequence = [
        unseeded,
        rate,
        exact,
        ("oracle", "--k-max", "0"),
        ("privacy-mc", "--k", "13", "--m", "5", "--n", "2",
         "--wa", "1,2", "--wb", "12,13", "--trials", "200", "--seed", "3"),
        ("rate", "--k", "13", "--m", "5"),
        rate,
        exact,
        unseeded,
    ]
    first = [_outcome(capsys, argv) for argv in sequence]
    assert [code for code, _, _ in first] == [0, 0, 0, 2, 0, 2, 0, 0, 0]
    assert first[6:] == [first[1], first[2], first[0]]
    assert first[0][1] != first[2][1]
    assert "--k-max must be in 1..300" in first[3][2]
    assert "the following arguments are required: --n" in first[5][2]
    assert hashlib.sha256(first[2][1].encode()).hexdigest() == GOLDEN_PRIVACY_EXACT_SHA256
    assert [_outcome(capsys, argv) for argv in sequence] == first
    assert build_parser() is build_parser()


def _module_env():
    """The environment for ``python -m pirsi.cli``, importing this checkout's package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return os.environ | {"PYTHONPATH": path}


def test_console_entry_point_prints_what_main_prints(capsys):
    argv = PRIVACY_EXACT_ARGV
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    fresh = subprocess.run(
        [sys.executable, "-m", "pirsi.cli", *argv],
        env=_module_env(), capture_output=True, text=True, timeout=120, check=False,
    )
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout == out


def test_arguments_are_read_from_an_at_file_past_the_single_argument_limit(capsys, tmp_path):
    # Linux refuses one argument over 128 KiB before any program starts; @FILE
    # carries the arguments in a file instead, one a line.
    k, m = 30000, 25000
    field = PrimeField(2**31 - 1)
    rng = random.Random("at-file")
    values = [rng.randrange(field.p) for _ in range(k)]
    path = db_file(tmp_path, "wide.db", values, field)
    side = ",".join(str(i) for i in range(k - m + 1, k + 1))
    assert len(side) > 128 * 1024
    argv = ["simulate", "--k", str(k), "--m", str(m), "--n", "2",
            "--demands", "1,2", "--side", side, "--db", path, "--seed", "3"]
    args_file = tmp_path / "args.txt"
    args_file.write_text("".join(f"{arg}\n" for arg in argv), encoding="ascii")
    fresh = subprocess.run(
        [sys.executable, "-m", "pirsi.cli", f"@{args_file}"],
        env=_module_env(), capture_output=True, text=True, timeout=120, check=False,
    )
    assert fresh.returncode == 0, fresh.stderr
    assert json.loads(fresh.stdout)["decoded"] == {"1": values[0], "2": values[1]}
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, fresh.stdout)


def test_console_entry_point_exits_1_quietly_when_stdout_closes():
    # `pirsi oracle --k-max 40 | head -1`: the table is far larger than a pipe
    # buffer, so the sweep is still writing when the reader leaves.
    with subprocess.Popen(
        [sys.executable, "-m", "pirsi.cli", "oracle", "--k-max", "40"],
        env=_module_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        assert proc.stdout.readline() == "k m n oracle formula match\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (1, "")


def test_privacy_exact_enforces_cap(capsys):
    # C(300, 2) = 44,850 demand sets is above the 20,000-set table cap, and
    # C(2000, 1999) = 2,000 sets of 1,999 indices is above the printed-index cap.
    for k, m, n in ((300, 50, 2), (2000, 1, 1999)):
        assert_usage_error(
            capsys, ["privacy-exact", "--k", str(k), "--m", str(m), "--n", str(n)],
            f"exact mode prints all C({k},{n}) demand sets and is capped at 20000 sets and "
            f"1000000 printed indices; use privacy-mc for larger instances",
        )


def test_posterior_table_size_is_the_binomial_within_both_caps():
    # Against math.comb on every (k, n) with k <= 400: each refusal names the
    # table, and each acceptance is the exact count.  Both caps bind here:
    # C(300, 2) = 44,850 sets, and C(200, 198) = 19,900 sets of 198 indices.
    refusal = (
        "exact mode prints all C({},{}) demand sets and is capped at 20000 sets and "
        "1000000 printed indices; use privacy-mc for larger instances"
    )
    outcomes = Counter()
    for k in range(1, 401):
        for n in range(1, k + 1):
            sets = comb(k, n)
            over = "sets" if sets > 20_000 else "indices" if sets * n > 1_000_000 else ""
            try:
                got = posterior_table_size(ProblemParams(k, 0, n))
            except UsageError as err:
                got = str(err)
            assert got == (refusal.format(k, n) if over else sets), (k, n)
            outcomes[over] += 1
    assert all(outcomes[over] for over in ("", "sets", "indices"))


def test_privacy_exact_refuses_the_table_before_drawing(capsys, monkeypatch):
    # A layout draw at k = 10^6 takes seconds; C(10^6, 10) sets are refused first.
    def drawn(*_):
        raise AssertionError("drew a layout for a refused table")

    monkeypatch.setattr("pirsi.cli.build_layout", drawn)
    assert_usage_error(
        capsys, ["privacy-exact", "--k", "1000000", "--m", "0", "--n", "10"],
        "exact mode prints all C(1000000,10) demand sets and is capped at 20000 sets and "
        "1000000 printed indices; use privacy-mc for larger instances",
    )


# Sizes (4, 4) and quotas (2, 2) at (8, 3, 2) keep every quota within its
# cap, but demands in both blocks need 2 + 2 > 3 side indices.
INADMISSIBLE_PLAN = RatePlan(m_bar=1, t=1, size_profile=(4, 4), side_profile=(2, 2), trivial=False)
INADMISSIBLE_REFUSAL = (
    "error: plan with sizes (4, 4) and quotas (2, 2) cannot hide every demand set at m=3, n=2\n"
)


def test_privacy_exact_refuses_a_plan_that_cannot_hide_the_demands(capsys, monkeypatch):
    # Seed 0's demands land in both blocks, where the sampler used to die
    # inside ``random`` ("empty range for randrange()"); seed 1's share a
    # block.  Either way the plan is refused before any layout is drawn.
    monkeypatch.setattr("pirsi.scheme.compute_plan", lambda _: INADMISSIBLE_PLAN)
    monkeypatch.setattr("pirsi.privacy.compute_plan", lambda _: INADMISSIBLE_PLAN)
    for seed in ("0", "1"):
        code, out, err = run_cli(
            capsys, "privacy-exact", "--k", "8", "--m", "3", "--n", "2", "--seed", seed
        )
        assert (code, out, err) == (1, "", INADMISSIBLE_REFUSAL), seed


def test_privacy_mc_refuses_a_plan_that_cannot_hide_the_demands(capsys, monkeypatch):
    # A violated invariant, not a usage error: exit 1, as privacy-exact.
    monkeypatch.setattr("pirsi.privacy.compute_plan", lambda _: INADMISSIBLE_PLAN)
    code, out, err = run_cli(
        capsys, "privacy-mc", "--k", "8", "--m", "3", "--n", "2",
        "--wa", "1,2", "--wb", "7,8", "--trials", "100", "--seed", "0",
    )
    assert (code, out, err) == (1, "", INADMISSIBLE_REFUSAL)


def test_privacy_exact_beyond_k_13(capsys):
    code, out, _ = run_cli(
        capsys, "privacy-exact", "--k", "30", "--m", "10", "--n", "2", "--seed", "5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["uniform"] is True
    assert len(doc["posteriors"]) == 435
    assert set(doc["posteriors"].values()) == {"1/435"}


def test_privacy_exact_draws_its_side_set_in_linear_time():
    # At m = 0 and n = k the table is one demand set, so every k up to the
    # instance cap is accepted.  A complement built by testing membership
    # in the demand tuple costs O(k * n): about a minute at k = 10^5, where
    # the whole run takes well under a second.  The bound guards the
    # complexity, not a timing.
    done = subprocess.run(
        [sys.executable, "-m", "pirsi.cli", "privacy-exact", "--k", "100000", "--m", "0",
         "--n", "100000"],
        env=_module_env(), capture_output=True, text=True, timeout=30, check=False,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["uniform"] is True
    assert list(doc["posteriors"].values()) == ["1/1"]


def test_simulate_refuses_a_code_over_the_cap_before_reading_the_database(tmp_path):
    # (20000, 0, 200) is one block coded with 20000 rows: r * s = 4 * 10^8,
    # about 27 GB of cached code at p = 2^31 - 1.  The refusal comes from
    # (k, m, n) alone, so a database path that does not exist is never opened.
    missing = tmp_path / "absent.db"
    done = subprocess.run(
        [sys.executable, "-m", "pirsi.cli", "simulate", "--k", "20000", "--m", "0", "--n", "200",
         "--demands", ",".join(map(str, range(1, 201))), "--db", str(missing)],
        env=_module_env(), capture_output=True, text=True, timeout=60, check=False,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith(
        "error: the widest block's code has r * s = 400000000 entries, "
        f"over the cap of {CODE_ENTRIES_CAP} one round may build\n"
    ), done.stderr


def test_simulate_code_cap_is_inclusive(capsys, tmp_path):
    # (2048, 0, 46) is one block of 2048 rows: r * s = 2^22, the cap itself,
    # so it passes the bound and fails only on the missing database;
    # (2049, 0, 46) is one entry-row over it.
    assert CODE_ENTRIES_CAP == 2048 * 2048
    missing = str(tmp_path / "absent.db")
    for k, message in ((2048, "cannot read database"), (2049, "r * s = 4198401 entries, over the cap")):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--k", str(k), "--m", "0", "--n", "46",
                  "--demands", ",".join(map(str, range(1, 47))), "--db", missing])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_privacy_mc_reports(capsys):
    argv = ("privacy-mc", "--k", "13", "--m", "5", "--n", "2",
            "--wa", "1,2", "--wb", "12,13", "--trials", "400", "--seed", "9")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert set(doc) == {"cells", "consistent", "distinct_queries", "max_z", "threshold", "trials"}
    assert doc["trials"] == 400
    # Three blocks and one pair cell per demand set.
    assert doc["cells"] == 8
    assert doc["consistent"] is True
    assert 0 < doc["max_z"] <= doc["threshold"]
    assert run_cli(capsys, *argv)[1] == out


@pytest.mark.parametrize(
    "argv, digest", GOLDEN_PRIVACY_MC_SHA256.items(), ids=["13-5-2", "30-10-2", "5000-1000-10"]
)
def test_privacy_mc_golden(capsys, argv, digest):
    code, out, err = run_cli(capsys, *privacy_mc_argv(argv))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_privacy_mc_refuses_too_few_trials_at_the_k_cap(capsys):
    # The plan's 500,000 blocks all have size 2, so the refusal needs one
    # block law and the pair law, not one per block (that took seconds),
    # and no sample at all.
    with pytest.raises(SystemExit) as exc:
        main(["privacy-mc", "--k", "1000000", "--m", "0", "--n", "2", "--wa", "1,2", "--wb", "3,4"])
    assert exc.value.code == 2
    assert "use at least 4999995" in capsys.readouterr().err


def test_privacy_mc_refusal_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("pirsi.scheme.draw_layout", leaky_draw_layout)
    code, out, err = run_cli(
        capsys, "privacy-mc", "--k", "13", "--m", "5", "--n", "2",
        "--wa", "1,2", "--wb", "12,13", "--trials", "200", "--seed", "0",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["consistent"] is False and doc["max_z"] > doc["threshold"]
    assert "deviate from the uniform law" in err


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_privacy_mc_writes_an_infinite_max_z_as_null(capsys, monkeypatch):
    monkeypatch.setattr("pirsi.scheme.draw_layout", demand_one_dropping_draw_layout)
    code, out, err = run_cli(
        capsys, "privacy-mc", "--k", "10", "--m", "2", "--n", "3",
        "--wa", "1,2,3", "--wb", "4,5,6", "--trials", "50", "--seed", "1",
    )
    assert code == 1
    doc = json.loads(out, parse_constant=refuse_constant)
    assert doc["consistent"] is False and doc["max_z"] is None
    assert "max |z| inf" in err


def test_privacy_mc_validates_demand_sets(capsys):
    for wa, wb, message in (
        ("2,3", "5", "expected 1 demands, got 2"),
        ("1,2,3,4,5", "6", "expected 1 demands, got 5"),  # fewer than m candidates left
        ("2", "9", "index 9 outside 1..7"),
        ("2,2", "5", "duplicate demand indices"),
    ):
        assert_usage_error(
            capsys, ["privacy-mc", "--k", "7", "--m", "3", "--n", "1",
                     "--wa", wa, "--wb", wb, "--trials", "10"], message,
        )


def test_privacy_mc_validates_counts(capsys):
    base = ["privacy-mc", "--k", "7", "--m", "3", "--n", "1", "--wa", "2", "--wb", "5"]
    for extra, message in (
        (["--trials", "0"], "trials must be positive"),
        # The plan's blocks hold 4 and 3 of the 7 indices: 11 trials expect
        # 11 * 3 / 7 < 5 hits in the smaller one.
        (["--trials", "11"], "11 trials leave a cell expecting fewer than 5 hits or misses; "
                             "use at least 12"),
        (["--trials", "100", "--null-rounds", "20"], "unrecognized arguments: --null-rounds 20"),
    ):
        assert_usage_error(capsys, base + extra, message)
    assert_usage_error(
        capsys, [*base, "--trials", "-3"], "argument --trials: expected a decimal integer, got '-3'",
        usage=PRIVACY_MC_USAGE, prog="pirsi privacy-mc",
    )
    code, out, _ = run_cli(capsys, *base, "--trials", "12", "--seed", "4")
    assert code == 0
    assert json.loads(out)["trials"] == 12


def test_oracle_sweep(capsys):
    code, out, err = run_cli(capsys, "oracle", "--k-max", "40")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k m n oracle formula match"
    assert all(line.endswith(" true") for line in lines[1:])
    # one row per instance with 1 <= n, 0 <= m, n + m <= k <= 40
    assert len(lines) - 1 == 11_480 == sum(
        1 for k in range(1, 41) for n in range(1, k + 1) for m in range(0, k - n + 1)
    )
    assert "checked 11480 instances, 0 mismatches" in err


@pytest.mark.parametrize(
    "sizes, quotas",
    [
        ((4, 5, 4), (2, 3, 2)),  # out of order
        ((6, 5, 2), (4, 3, 0)),  # window sum 7 over m = 5
        ((6, 4, 3), (3, 2, 2)),  # quota 2 over the cap 3 - 2
    ],
)
def test_oracle_refuses_bad_plan_profile(capsys, monkeypatch, sizes, quotas):
    # Each profile keeps r_star = 6 at (13, 5, 2), so only the profile check
    # can catch it.
    def skewed_plan(params):
        plan = compute_plan(params)
        if (params.k, params.m, params.n) != (13, 5, 2):
            return plan
        return plan._replace(size_profile=sizes, side_profile=quotas)

    monkeypatch.setattr("pirsi.cli.compute_plan", skewed_plan)
    code, out, err = run_cli(capsys, "oracle", "--k-max", "13")
    assert code == 1
    assert [line for line in out.splitlines() if line.endswith(" false")] == ["13 5 2 6 6 false"]
    assert "1 mismatches" in err


def test_oracle_rejects_exhaustive_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--k-max", "5", "--exhaustive"])
    assert exc.value.code == 2
    assert "--exhaustive" in capsys.readouterr().err


def test_oracle_golden_tables(capsys):
    code, out, err = run_cli(capsys, "oracle", "--k-max", "14")
    assert code == 0
    assert len(out.encode()) == 9187
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ORACLE_K14_SHA256
    assert "checked 560 instances, 0 mismatches" in err

    code, out, err = run_cli(capsys, "oracle", "--k-max", "9")
    assert code == 0
    assert len(out.encode()) == 2502
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ORACLE_K9_SHA256
    assert "checked 165 instances, 0 mismatches" in err


def test_oracle_rejects_out_of_range(capsys, monkeypatch):
    # The refusal comes before any sweep: a sweep that ran would fail here.
    monkeypatch.setattr("pirsi.cli.search_sweep", None)
    for bad in ("0", "301"):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--k-max", bad])
        assert exc.value.code == 2
        assert "--k-max must be in 1..300" in capsys.readouterr().err


def test_db_file_round_trip(tmp_path):
    gf = PrimeField(23)
    db = Database((5, 0, 17, 22), gf)
    path = tmp_path / "round.db"
    with open(path, "w") as fh:
        write_db(fh, db)
    with open(path) as fh:
        loaded = read_db(fh)
    assert loaded == db
    header = path.read_text().splitlines()[0]
    assert header == "pir-db v1 p=23 k=4"


def test_simulate_names_a_non_ascii_byte_in_the_database_file(capsys, tmp_path, gf13):
    # One 0xff in the header and one past the first 8 KiB that a text
    # stream decodes at once: each is named with its offset in the file.
    for k, offset in ((13, 12), (5000, 9001)):
        path = Path(db_file(tmp_path, f"bad{k}.db", [i % 13 for i in range(k)], gf13))
        data = bytearray(path.read_bytes())
        data[offset] = 0xFF
        path.write_bytes(bytes(data))
        code, out, err = run_cli(
            capsys, "simulate", "--k", str(k), "--m", "1", "--n", "1",
            "--demands", "2", "--side", "1", "--db", str(path),
        )
        assert (code, out) == (1, "")
        assert err == f"error: database file is not ASCII: byte 0xff at offset {offset}\n"


def test_simulate_refuses_crlf_and_bare_cr_database_files(capsys, tmp_path):
    # The file's own line ends reach read_db: a text-mode stream with
    # universal newlines would turn both into \n and accept them.  A large
    # bare-CR file is all header: its first 64 characters are quoted, not
    # the whole file.
    large = "pir-db v1 p=13 k=3000\r" + "7\r" * 3000
    for name, data, quoted in (
        ("crlf.db", b"pir-db v1 p=13 k=3\r\n1\r\n2\r\n3\r\n", repr("pir-db v1 p=13 k=3\r")),
        ("cr.db", b"pir-db v1 p=13 k=3\r1\r2\r3\r", repr("pir-db v1 p=13 k=3\r1\r2\r3\r")),
        ("large-cr.db", large.encode("ascii"), repr(large[:64]) + "…"),
    ):
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run_cli(
            capsys, "simulate", "--k", "3", "--m", "1", "--n", "1",
            "--demands", "2", "--side", "1", "--db", str(path),
        )
        assert (code, out, err) == (1, "", f"error: malformed database header: {quoted}\n"), name
        assert len(err) < 200, name


def test_db_file_rejects_malformed():
    with pytest.raises(ValueError, match="malformed database header"):
        read_db(io.StringIO("not-a-db 1 2 3\n"))
    with pytest.raises(ValueError, match="ends after"):
        read_db(io.StringIO("pir-db v1 p=23 k=4\n5\n0\n"))
    for header in ("pir-db v1 p=23 k=-3", "pir-db v1 p=23  k=1", "pir-db v1 p=023 k=1"):
        with pytest.raises(ValueError, match="malformed database header"):
            read_db(io.StringIO(f"{header}\n5\n"))
    with pytest.raises(ValueError, match="k >= 1"):
        read_db(io.StringIO("pir-db v1 p=23 k=0\n"))
    # Values are canonical decimals stored exactly or refused, never reduced
    # mod p or read with Python's int() leniency.
    for bad in ("99", "-4", "23", "1.5", "1_0", " 5", "5 ", "05", "+5", ""):
        with pytest.raises(ValueError):
            read_db(io.StringIO(f"pir-db v1 p=23 k=2\n5\n{bad}\n"))
    with pytest.raises(ValueError, match="after its 2 values"):
        read_db(io.StringIO("pir-db v1 p=23 k=2\n5\n0\n7\n"))
    with pytest.raises(ValueError, match="prime"):
        read_db(io.StringIO("pir-db v1 p=318665857834031151167461 k=1\n5\n"))
