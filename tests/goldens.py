"""The CLI's pinned outputs: argument lists, the databases they read, and the SHA-256 of stdout.

Plain data, importable without pytest: ``tests/test_cli.py`` checks each
golden in process, and ``ci/versions.py`` runs every one of ``GOLDENS``
through ``pirsi.cli.main`` under each interpreter it is given.  A
``simulate`` golden's argument list lacks only ``--db``; ``GOLDEN_DBS``
says how its database is made, and ``db_text`` writes it.
"""

import hashlib
import random

P31 = 2**31 - 1

PRIVACY_EXACT_ARGV = ("privacy-exact", "--k", "13", "--m", "5", "--n", "2", "--seed", "11")
# `privacy-exact --k 13 --m 5 --n 2 --seed 11`, as printed when the posterior
# was still summed over every (demand set, side set) pair.
GOLDEN_PRIVACY_EXACT_SHA256 = "c21c17e1721078ed29fd5a1a2b74efec2327e7a1c17afe9b648cd8d70b010428"
# `oracle --k-max 14` and `oracle --k-max 9` (then with `--exhaustive`), as
# printed when brute force still walked every quota vector once per (k, m, n).
GOLDEN_ORACLE_K14_SHA256 = "512615bdb65d6ddd61fc6a501a30d4767643180360f08cf22821c4a8b434362b"
GOLDEN_ORACLE_K9_SHA256 = "a89f30295144dfd45d8770a93476f5de7fb5b2d408787609ee017c24b1c3704c"
# `privacy-mc` stdout, as printed when every trial still rebuilt its spec and
# plan: the benchmark's instance, the README's example and the paper's regime.
# Each key is (k, m, n, wa, wb, trials, seed), the flags' text.
GOLDEN_PRIVACY_MC_SHA256 = {
    ("13", "5", "2", "1,2", "12,13", "2000", "0"):
        "d105731863f6503a3ed052f95e30eb6e810f0e0e5cf7eea7e023d025c5694665",
    ("30", "10", "2", "1,2", "29,30", "2000", "11"):
        "2dc1ff23910cec52721efd391065a060dd2ac050fe198f11fbfdbef7a8e50db6",
    ("5000", "1000", "10", ",".join(map(str, range(1, 11))),
     ",".join(map(str, range(4991, 5001))), "400", "3"):
        "9f352fb0c698ae8863156b586debf8f99d7c094eaf3900a514485045571ed5d8",
}


def privacy_mc_argv(key: tuple[str, ...]) -> tuple[str, ...]:
    """The ``privacy-mc`` argument list of one ``GOLDEN_PRIVACY_MC_SHA256`` key."""
    k, m, n, wa, wb, trials, seed = key
    return ("privacy-mc", "--k", k, "--m", m, "--n", n, "--wa", wa, "--wb", wb,
            "--trials", trials, "--seed", seed)


# The `simulate` transcripts, pinned byte for byte, so a given seed keeps its
# round across refactors: plan, query (a version-3 document whose labels are
# the layout), answer and decoded values.  The version-3 query changed only
# the query section of each; every other byte is as version 2 printed it.
SIMULATE_WORKED_ARGV = ("simulate", "--k", "13", "--m", "5", "--n", "2",
                        "--demands", "2,5", "--side", "1,4,6,7,9", "--seed", "11")
GOLDEN_WORKED = (
    '{"answer":{"blocks":[[8,4],[12,0],[6,2]]},"decoded":{"2":7,"5":9},'
    '"plan":{"k":13,"l_star":3,"m":5,"m_bar":2,"n":2,"r_star":6,"side_profile":[3,2,2],'
    '"size_profile":[5,4,4],"t":1,"trivial":false},'
    '"query":{"labels":"AgEAAgICAQABAAEAAA==","p":13,"rows":[2,2,2],"version":3},"seed":11}\n'
)
# One subspace, (56, 7, 7).
SIMULATE_SINGLE_BLOCK_ARGV = ("simulate", "--k", "56", "--m", "7", "--n", "7",
                              "--demands", "1,9,17,25,33,41,49", "--side", "2,10,18,26,34,42,50",
                              "--seed", "3")
GOLDEN_SINGLE_BLOCK_SHA256 = "c7456206a540e89ace1b64aa95a90ea1fa0fb30a9d59d2e3a61e07832fdbb9d9"
# The paper's regime, (5000, 1000, 10): 46 subspaces, 460 symbols down.
SIMULATE_PARTITIONED_ARGV = ("simulate", "--k", "5000", "--m", "1000", "--n", "10",
                             "--demands", ",".join(str(i) for i in range(1, 5000, 500)),
                             "--side", ",".join(str(i) for i in range(3, 5001, 5)), "--seed", "12")
GOLDEN_PARTITIONED_SHA256 = "a685392970d923c049d68faf025d37426dc6af8fddbca1ec98bf7a0d13f2728e"

# Each simulate golden's database as (p, k, made): ``made`` is the k values
# themselves, or the ``random.Random`` seed string whose k draws of
# ``randrange(p)`` are the values.
GOLDEN_DBS = {
    "simulate 13 5 2": (13, 13, (3, 7, 1, 2, 9, 5, 4, 11, 6, 0, 8, 12, 10)),
    "simulate 56 7 7": (P31, 56, "golden"),
    "simulate 5000 1000 10": (P31, 5000, "golden-partitioned"),
}


def db_text(p: int, k: int, made) -> str:
    """A ``GOLDEN_DBS`` entry as a ``pir-db v1`` file: the header, then one value a line."""
    if isinstance(made, str):
        rng = random.Random(made)
        made = [rng.randrange(p) for _ in range(k)]
    return "".join(f"{line}\n" for line in (f"pir-db v1 p={p} k={k}", *made))


# Every golden above as name -> (argument list, SHA-256 of stdout); each exits 0.
GOLDENS = {
    "simulate 13 5 2": (SIMULATE_WORKED_ARGV, hashlib.sha256(GOLDEN_WORKED.encode()).hexdigest()),
    "simulate 56 7 7": (SIMULATE_SINGLE_BLOCK_ARGV, GOLDEN_SINGLE_BLOCK_SHA256),
    "simulate 5000 1000 10": (SIMULATE_PARTITIONED_ARGV, GOLDEN_PARTITIONED_SHA256),
    "privacy-exact 13 5 2": (PRIVACY_EXACT_ARGV, GOLDEN_PRIVACY_EXACT_SHA256),
    **{
        f"privacy-mc {key[0]} {key[1]} {key[2]}": (privacy_mc_argv(key), digest)
        for key, digest in GOLDEN_PRIVACY_MC_SHA256.items()
    },
    "oracle --k-max 14": (("oracle", "--k-max", "14"), GOLDEN_ORACLE_K14_SHA256),
    "oracle --k-max 9": (("oracle", "--k-max", "9"), GOLDEN_ORACLE_K9_SHA256),
}
