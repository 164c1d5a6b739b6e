"""Command-line surface: canonical output, determinism, exit codes."""

import hashlib
import io
import json
import random

import pytest

from pirsi import Database, PrimeField, ProblemParams
from pirsi.cli import main
from pirsi.wire import read_db, write_db
from conftest import WORKED_VALUES

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
# `privacy-exact --k 13 --m 5 --n 2 --seed 11`, as printed when the posterior
# was still summed over every (demand set, side set) pair.
GOLDEN_PRIVACY_EXACT_SHA256 = "c21c17e1721078ed29fd5a1a2b74efec2327e7a1c17afe9b648cd8d70b010428"


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
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--k", "3", "--m", "2", "--n", "2"])
    assert exc.value.code == 2


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
    for extra in (
        ["--demands", "2", "--side", "1,4,6,7,9"],      # wrong demand count
        ["--demands", "2,5", "--side", "1,4"],          # wrong side count
        ["--demands", "2,5", "--side", "2,4,6,7,9"],    # overlap
    ):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([
            "simulate", "--k", "12", "--m", "5", "--n", "2",
            "--demands", "2,5", "--side", "1,4,6,7,9", "--db", worked_db_file,
        ])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([
            "simulate", "--k", "13", "--m", "5", "--n", "2",
            "--demands", "2,5", "--side", "1,4,6,7,9", "--db", "/nonexistent.db",
        ])
    assert exc.value.code == 2


def test_integer_flags_accept_only_canonical_decimals(capsys, worked_db_file):
    base = ["simulate", "--k", "13", "--m", "5", "--n", "2", "--db", worked_db_file]
    for extra in (
        ["--demands", " 2,5_0", "--side", "1,4,6,7,9"],
        ["--demands", "2,05", "--side", "1,4,6,7,9"],
        ["--demands", "2,+5", "--side", "1,4,6,7,9"],
        ["--demands", "2,5", "--side", "1,4,6,7,9,"],
        ["--demands", "2,5", "--side", "1,4,6,7,9", "--seed", " 7"],
        ["--demands", "2,5", "--side", "1,4,6,7,9", "--seed", "1_1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2
        assert "expected" in capsys.readouterr().err
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


def test_privacy_exact_enforces_cap(capsys):
    # C(300, 2) = 44,850 demand sets is above the 20,000-set table cap, and
    # C(2000, 1999) = 2,000 sets of 1,999 indices is above the printed-index cap.
    for k, m, n in ((300, 50, 2), (2000, 1, 1999)):
        with pytest.raises(SystemExit) as exc:
            main(["privacy-exact", "--k", str(k), "--m", str(m), "--n", str(n)])
        assert exc.value.code == 2
        assert f"C({k},{n})" in capsys.readouterr().err


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
    code, out, _ = run_cli(
        capsys, "privacy-mc", "--k", "7", "--m", "3", "--n", "1",
        "--wa", "2", "--wb", "5", "--trials", "400", "--seed", "9",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 400
    assert "/" in doc["tvd"]
    assert isinstance(doc["consistent"], bool)


def test_privacy_mc_validates_demand_sets(capsys):
    for wa, wb, message in (
        ("2,3", "5", "expected 1 demands, got 2"),
        ("1,2,3,4,5", "6", "expected 1 demands, got 5"),  # fewer than m candidates left
        ("2", "9", "index 9 outside 1..7"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["privacy-mc", "--k", "7", "--m", "3", "--n", "1",
                  "--wa", wa, "--wb", wb, "--trials", "10"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_privacy_mc_validates_counts(capsys):
    base = ["privacy-mc", "--k", "7", "--m", "3", "--n", "1", "--wa", "2", "--wb", "5"]
    for trials, null_rounds, message in (
        ("10", "0", "null_rounds must be positive"),
        ("10", "-3", "null_rounds must be positive"),
        ("0", "20", "trials must be positive"),
        ("-3", "20", "trials must be positive"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(base + ["--trials", trials, "--null-rounds", null_rounds])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    # One null round is enough for a band: its spread is exactly 0.
    code, out, _ = run_cli(capsys, *base, "--trials", "10", "--null-rounds", "1", "--seed", "4")
    assert code == 0
    assert json.loads(out)["null_std"] == 0.0


def test_oracle_sweep(capsys):
    code, out, err = run_cli(capsys, "oracle", "--k-max", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k m n oracle formula match"
    assert all(line.endswith(" true") for line in lines[1:])
    # one row per instance with 1 <= n, 0 <= m, n + m <= k <= 7
    assert len(lines) - 1 == sum(
        1 for k in range(1, 8) for n in range(1, k + 1) for m in range(0, k - n + 1)
    )
    assert "0 mismatches" in err


def test_oracle_exhaustive_small(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--k-max", "5", "--exhaustive")
    assert code == 0
    assert all(line.endswith(" true") for line in out.strip().splitlines()[1:])


def test_oracle_rejects_out_of_range(capsys):
    for bad in ("0", "15"):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--k-max", bad])
        assert exc.value.code == 2


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
