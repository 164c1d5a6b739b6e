"""Command-line surface: canonical output, determinism, exit codes."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pirsi import Database, DemandSpec, PrimeField, ProblemParams, RatePlan, compute_plan
from pirsi.cli import build_parser, main
from pirsi.wire import read_db, write_db
from conftest import WORKED_VALUES, leaky_draw_layout

# Transcripts pinned byte for byte, so a given seed keeps its round across
# refactors: layout, query (a version-2 document), answer and decoded values.
GOLDEN_WORKED = (
    '{"answer":{"blocks":[[8,4],[12,0],[6,2]]},"decoded":{"2":7,"5":9},'
    '"layout":{"subspaces":[[3,8,10,12,13],[2,7,9,11],[1,4,5,6]]},'
    '"params":{"k":13,"m":5,"n":2},'
    '"plan":{"k":13,"l_star":3,"m":5,"m_bar":2,"n":2,"r_star":6,"side_profile":[3,2,2],'
    '"size_profile":[5,4,4],"t":1,"trivial":false},'
    '"query":{"blocks":[{"r":2,"support":[3,8,10,12,13]},{"r":2,"support":[2,7,9,11]},'
    '{"r":2,"support":[1,4,5,6]}],"p":13,"version":2},"seed":11}\n'
)
GOLDEN_SINGLE_BLOCK_SHA256 = "c53b8edd0a5c9c70f3403b252c755157afdc6e69e964aae65b6c243a2301d5c1"
# The paper's regime, (5000, 1000, 10): 46 subspaces, 460 symbols down.
GOLDEN_PARTITIONED_SHA256 = "ccecb7435ef6277eed34d4893a9c06798f867d2e6d792bd3e7110097160903a0"
# `privacy-exact --k 13 --m 5 --n 2 --seed 11`, as printed when the posterior
# was still summed over every (demand set, side set) pair.
GOLDEN_PRIVACY_EXACT_SHA256 = "c21c17e1721078ed29fd5a1a2b74efec2327e7a1c17afe9b648cd8d70b010428"
# `oracle --k-max 14` and `oracle --k-max 9` (then with `--exhaustive`), as
# printed when brute force still walked every quota vector once per (k, m, n).
GOLDEN_ORACLE_K14_SHA256 = "512615bdb65d6ddd61fc6a501a30d4767643180360f08cf22821c4a8b434362b"
GOLDEN_ORACLE_K9_SHA256 = "a89f30295144dfd45d8770a93476f5de7fb5b2d408787609ee017c24b1c3704c"
# `privacy-mc` stdout, as printed when every trial still rebuilt its spec and
# plan: the benchmark's instance, the README's example and the paper's regime.
GOLDEN_PRIVACY_MC_SHA256 = {
    ("13", "5", "2", "1,2", "12,13", "2000", "0"):
        "d105731863f6503a3ed052f95e30eb6e810f0e0e5cf7eea7e023d025c5694665",
    ("30", "10", "2", "1,2", "29,30", "2000", "11"):
        "2dc1ff23910cec52721efd391065a060dd2ac050fe198f11fbfdbef7a8e50db6",
    ("5000", "1000", "10", ",".join(map(str, range(1, 11))),
     ",".join(map(str, range(4991, 5001))), "400", "3"):
        "9f352fb0c698ae8863156b586debf8f99d7c094eaf3900a514485045571ed5d8",
}


# Usage errors print the parser's usage line, then the message; argparse wraps
# usage at $COLUMNS, which ``fixed_width`` pins.
USAGE = "usage: pirsi [-h] {rate,simulate,privacy-exact,privacy-mc,oracle} ...\n"
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
        ["privacy-mc", "--m", "0", "--n", "2", "--wa", "1,2", "--wb", "3,4"],
        ["simulate", "--m", "0", "--n", "1", "--demands", "1", "--db", str(tmp_path / "none")],
    ):
        assert_usage_error(capsys, [*argv, "--k", "1000001"], "--k must be at most 1000000, got 1000001")


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
    assert sum(block["r"] for block in doc["query"]["blocks"]) == 6
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

    assert set(keys_of(query)) == {"version", "p", "blocks", "support", "r"}


def test_simulate_seed_env_fallback(capsys, worked_db_file, monkeypatch):
    args = [
        "simulate", "--k", "13", "--m", "5", "--n", "2",
        "--demands", "2,5", "--side", "1,4,6,7,9", "--db", worked_db_file,
    ]
    monkeypatch.setenv("PIR_SEED", "77")
    _, from_env, _ = run_cli(capsys, *args)
    monkeypatch.delenv("PIR_SEED")
    _, from_flag, _ = run_cli(capsys, *args, "--seed", "77")
    assert from_env == from_flag
    _, from_default, _ = run_cli(capsys, *args)
    assert json.loads(from_default)["seed"] == 0


def test_simulate_usage_errors(capsys, worked_db_file):
    base = ["simulate", "--k", "13", "--m", "5", "--n", "2", "--db", worked_db_file]
    for extra, message in (
        (["--demands", "2", "--side", "1,4,6,7,9"], "expected 2 demands, got 1"),
        (["--demands", "2,5", "--side", "1,4"], "expected 5 side indices, got 2"),
        (["--demands", "2,5", "--side", "2,4,6,7,9"], "demand and side-information indices overlap"),
        (["--demands", "2,15", "--side", "1,4,6,7,9"], "index 15 outside 1..13"),
        (["--demands", "2,5", "--side", "1,4,6,7,19"], "index 19 outside 1..13"),  # a database lookup
    ):
        assert_usage_error(capsys, base + extra, message)
    # Repeated indices are refused by the flag's parser, under the subcommand's usage.
    for extra, flag, text in (
        (["--demands", "2,5", "--side", "1,4,6,7,9,9"], "--side", "1,4,6,7,9,9"),
        (["--demands", "2,2", "--side", "1,4,6,7,9"], "--demands", "2,2"),
    ):
        assert_usage_error(
            capsys, base + extra, f"argument {flag}: expected distinct indices, got {text!r}",
            usage=SIMULATE_USAGE, prog="pirsi simulate",
        )
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
        ["--demands", "2,5", "--side", "1,4,6,7,9", "--seed", " 7"],
        ["--demands", "2,5", "--side", "1,4,6,7,9", "--seed", "1_1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected" in err and ", got " in err  # refused by the flag's parser, not argparse
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--k", "1_3", "--m", "5", "--n", "2"])
    assert exc.value.code == 2


def test_bad_seed_variable_is_usage_error(capsys, worked_db_file, monkeypatch):
    args = [
        "simulate", "--k", "13", "--m", "5", "--n", "2",
        "--demands", "2,5", "--side", "1,4,6,7,9", "--db", worked_db_file,
    ]
    for bad in ("abc", " 7", "1_1", "07", ""):
        monkeypatch.setenv("PIR_SEED", bad)
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "PIR_SEED must be a decimal integer" in capsys.readouterr().err
    monkeypatch.setenv("PIR_SEED", "-7")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and json.loads(out)["seed"] == -7


def test_simulate_golden_worked_transcript(capsys, worked_db_file):
    code, out, _ = run_cli(
        capsys, "simulate", "--k", "13", "--m", "5", "--n", "2",
        "--demands", "2,5", "--side", "1,4,6,7,9", "--db", worked_db_file, "--seed", "11",
    )
    assert code == 0
    assert out == GOLDEN_WORKED


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
    assert len(out.encode()) == 1237
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SINGLE_BLOCK_SHA256


def test_simulate_golden_partitioned_transcript(capsys, tmp_path):
    field = PrimeField(2**31 - 1)
    rng = random.Random("golden-partitioned")
    path = db_file(tmp_path, "partitioned.db", [rng.randrange(field.p) for _ in range(5000)], field)
    demands = ",".join(str(i) for i in range(1, 5000, 500))
    side = ",".join(str(i) for i in range(3, 5001, 5))
    code, out, _ = run_cli(
        capsys, "simulate", "--k", "5000", "--m", "1000", "--n", "10",
        "--demands", demands, "--side", side, "--db", path, "--seed", "12",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["query"]["blocks"]) == 46
    assert sum(map(len, doc["answer"]["blocks"])) == doc["plan"]["r_star"] == 460
    assert len(out.encode()) == 54568
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
    code, out, _ = run_cli(
        capsys, "privacy-exact", "--k", "13", "--m", "5", "--n", "2", "--seed", "11"
    )
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


def test_repeated_calls_share_one_parser_and_leak_no_state(capsys, monkeypatch):
    # The parser is built once per process; every call must still see a
    # fresh namespace (the unseeded call at the end must not inherit seed
    # 11), and a usage error must not change later calls.
    monkeypatch.delenv("PIR_SEED", raising=False)
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
    assert "--k-max must be in 1..80" in first[3][2]
    assert "the following arguments are required: --n" in first[5][2]
    assert hashlib.sha256(first[2][1].encode()).hexdigest() == GOLDEN_PRIVACY_EXACT_SHA256
    assert [_outcome(capsys, argv) for argv in sequence] == first
    assert build_parser() is build_parser()


def test_console_entry_point_prints_what_main_prints(capsys):
    argv = ("privacy-exact", "--k", "13", "--m", "5", "--n", "2", "--seed", "11")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {key: value for key, value in os.environ.items() if key != "PIR_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    fresh = subprocess.run(
        [sys.executable, "-m", "pirsi.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout == out


def test_privacy_exact_enforces_cap(capsys):
    # C(300, 2) = 44,850 demand sets is above the 20,000-set table cap, and
    # C(2000, 1999) = 2,000 sets of 1,999 indices is above the printed-index cap.
    for k, m, n in ((300, 50, 2), (2000, 1, 1999)):
        assert_usage_error(
            capsys, ["privacy-exact", "--k", str(k), "--m", str(m), "--n", str(n)],
            f"exact mode prints all C({k},{n}) demand sets and is capped at 20000 sets and "
            f"1000000 printed indices; use privacy-mc for larger instances",
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
    k, m, n, wa, wb, trials, seed = argv
    code, out, err = run_cli(
        capsys, "privacy-mc", "--k", k, "--m", m, "--n", n, "--wa", wa, "--wb", wb,
        "--trials", trials, "--seed", seed,
    )
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
    monkeypatch.setattr("pirsi.privacy.draw_layout", leaky_draw_layout)
    code, out, err = run_cli(
        capsys, "privacy-mc", "--k", "13", "--m", "5", "--n", "2",
        "--wa", "1,2", "--wb", "12,13", "--trials", "200", "--seed", "0",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["consistent"] is False and doc["max_z"] > doc["threshold"]
    assert "deviate from the uniform law" in err


def test_privacy_mc_validates_demand_sets(capsys):
    for wa, wb, message in (
        ("2,3", "5", "expected 1 demands, got 2"),
        ("1,2,3,4,5", "6", "expected 1 demands, got 5"),  # fewer than m candidates left
        ("2", "9", "index 9 outside 1..7"),
    ):
        assert_usage_error(
            capsys, ["privacy-mc", "--k", "7", "--m", "3", "--n", "1",
                     "--wa", wa, "--wb", wb, "--trials", "10"], message,
        )


def test_privacy_mc_validates_counts(capsys):
    base = ["privacy-mc", "--k", "7", "--m", "3", "--n", "1", "--wa", "2", "--wb", "5"]
    for extra, message in (
        (["--trials", "0"], "trials must be positive"),
        (["--trials", "-3"], "trials must be positive"),
        # The plan's blocks hold 4 and 3 of the 7 indices: 11 trials expect
        # 11 * 3 / 7 < 5 hits in the smaller one.
        (["--trials", "11"], "11 trials leave a cell expecting fewer than 5 hits or misses; "
                             "use at least 12"),
        (["--trials", "100", "--null-rounds", "20"], "unrecognized arguments: --null-rounds 20"),
    ):
        assert_usage_error(capsys, base + extra, message)
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
        return replace(plan, size_profile=sizes, side_profile=quotas)

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


def test_oracle_rejects_out_of_range(capsys):
    for bad in ("0", "81"):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--k-max", bad])
        assert exc.value.code == 2
        assert "--k-max must be in 1..80" in capsys.readouterr().err


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
