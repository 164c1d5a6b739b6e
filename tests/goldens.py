"""The CLI's pinned outputs that need no database file: argument lists and the SHA-256 of stdout.

Plain data, importable without pytest: ``tests/test_cli.py`` checks each
golden in process, and ``ci/versions.py`` runs every one of ``GOLDENS``
through ``pirsi.cli.main`` under each interpreter it is given.
"""

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


# Every golden above as name -> (argument list, SHA-256 of stdout); each exits 0.
GOLDENS = {
    "privacy-exact 13 5 2": (PRIVACY_EXACT_ARGV, GOLDEN_PRIVACY_EXACT_SHA256),
    **{
        f"privacy-mc {key[0]} {key[1]} {key[2]}": (privacy_mc_argv(key), digest)
        for key, digest in GOLDEN_PRIVACY_MC_SHA256.items()
    },
    "oracle --k-max 14": (("oracle", "--k-max", "14"), GOLDEN_ORACLE_K14_SHA256),
    "oracle --k-max 9": (("oracle", "--k-max", "9"), GOLDEN_ORACLE_K9_SHA256),
}
