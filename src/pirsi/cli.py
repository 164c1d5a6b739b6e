"""Command-line interface.

Subcommands: ``rate`` (closed-form plan), ``simulate`` (one full retrieval
round against a database file), ``privacy-exact`` (rational-arithmetic
posterior check), ``privacy-mc`` (sampled layouts against the uniform layout
law), and ``oracle`` (exact rate search vs closed form sweep).  All canonical
output goes to stdout and is byte-identical across runs with the same flags
and seed; diagnostics and timings go to stderr.  Exit codes: 0 success, 1
violated invariant (a ``privacy-mc`` refusal too), 2 usage error.  A refusal
is a usage error when it raises ``rate.UsageError``, wherever it is raised;
``main`` maps exceptions to exit codes in one place.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
import time
from functools import cache

from . import wire
from .oracle import is_feasible_plan, search_sweep
from .privacy import monte_carlo_tvd, posterior
from .rate import ProblemParams, UsageError, compute_plan
from .scheme import DemandSpec, build_layout

# privacy-exact prints one posterior per demand set; refuse tables larger
# than this many sets, or than this many printed indices in all.
EXACT_SETS_CAP = 20_000
EXACT_INDICES_CAP = 1_000_000
# Every instance subcommand refuses a larger --k: the plan alone holds an
# l_star-long profile, and l_star grows like k.
INSTANCE_K_CAP = 1_000_000
# oracle checks every (k, m, n) with k <= --k-max: at this cap 88,560
# instances, about 40 s on a 2-vCPU host.
ORACLE_K_CAP = 80

_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")
_INDICES = re.compile(rf"(?:{_DECIMAL.pattern})(?:,(?:{_DECIMAL.pattern}))*")


def _decimal(text: str) -> int:
    """A canonical decimal integer: no spaces, ``+``, ``_``, leading zeros or ``-0``."""
    if not _DECIMAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {text!r}")
    return int(text)


def _parse_indices(text: str) -> tuple[int, ...]:
    """Comma-separated canonical decimals, each index at most once."""
    if not _INDICES.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    indices = tuple(map(int, text.split(",")))
    if len(set(indices)) != len(indices):
        raise argparse.ArgumentTypeError(f"expected distinct indices, got {text!r}")
    return indices


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("PIR_SEED")
    if env is None:
        return 0
    if not _DECIMAL.fullmatch(env):
        raise UsageError(f"PIR_SEED must be a decimal integer, got {env!r}")
    return int(env)


def _count_sets(k: int, n: int, cap: int) -> int:
    """C(k, n), or the first partial value above ``cap`` once it is exceeded.

    C(k, i) grows with i up to k / 2, so the walk can stop there without
    computing a huge binomial.
    """
    count = 1
    for i in range(min(n, k - n)):
        count = count * (k - i) // (i + 1)
        if count > cap:
            break
    return count


def _params_from(args) -> ProblemParams:
    if args.k > INSTANCE_K_CAP:
        raise UsageError(f"--k must be at most {INSTANCE_K_CAP}, got {args.k}")
    return ProblemParams(k=args.k, m=args.m, n=args.n)


def _add_instance_flags(sub):
    sub.add_argument("--k", type=_decimal, required=True, help="total message count")
    sub.add_argument("--m", type=_decimal, required=True, help="side-information count")
    sub.add_argument("--n", type=_decimal, required=True, help="demand count")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``pirsi`` parser, built once per process; shared, so never mutate it."""
    parser = argparse.ArgumentParser(
        prog="pirsi",
        description="Multi-message private information retrieval with side information",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_rate = subs.add_parser("rate", help="closed-form plan and minimum download")
    _add_instance_flags(p_rate)

    p_sim = subs.add_parser("simulate", help="run one retrieval round against a database file")
    _add_instance_flags(p_sim)
    p_sim.add_argument("--demands", type=_parse_indices, required=True, help="e.g. 2,5")
    p_sim.add_argument("--side", type=_parse_indices, default=(), help="e.g. 1,4,6,7,9")
    p_sim.add_argument("--db", required=True, help="database file path")
    p_sim.add_argument("--seed", type=_decimal, default=None, help="RNG seed (default: $PIR_SEED or 0)")

    p_exact = subs.add_parser("privacy-exact", help="exact posterior-uniformity check")
    _add_instance_flags(p_exact)
    p_exact.add_argument("--seed", type=_decimal, default=None, help="seed for the sampled layout")

    p_mc = subs.add_parser("privacy-mc", help="sampled layouts against the uniform layout law")
    _add_instance_flags(p_mc)
    p_mc.add_argument("--wa", type=_parse_indices, required=True, help="first demand set")
    p_mc.add_argument("--wb", type=_parse_indices, required=True, help="second demand set")
    p_mc.add_argument("--trials", type=_decimal, default=10000, help="layouts per demand set")
    p_mc.add_argument("--seed", type=_decimal, default=None, help="RNG seed (default: $PIR_SEED or 0)")

    p_oracle = subs.add_parser("oracle", help="exact rate search vs closed form sweep")
    p_oracle.add_argument("--k-max", type=_decimal, required=True)
    return parser


def _cmd_rate(args) -> int:
    params = _params_from(args)
    plan = compute_plan(params)
    print(wire.canonical(wire.plan_doc(params, plan)))
    return 0


def _cmd_simulate(args) -> int:
    params = _params_from(args)
    try:
        # newline="" hands read_db the file's own line ends, so it refuses \r.
        with open(args.db, encoding="ascii", newline="") as fh:
            db = wire.read_db(fh)
    except OSError as err:
        raise UsageError(f"cannot read database: {err}") from None
    spec = DemandSpec(args.demands, frozenset(args.side), {idx: db[idx] for idx in args.side})
    seed = _resolve_seed(args.seed)
    started = time.perf_counter()
    result = wire.simulate_round(params, spec, db, random.Random(seed))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(wire.canonical(wire.transcript_doc(params, seed, result)))
    print(f"timing_ms={elapsed_ms:.3f}", file=sys.stderr)

    mismatches = [idx for idx in spec.demands if result.decoded[idx] != db[idx]]
    if mismatches:
        print(f"decode mismatch at indices {mismatches}", file=sys.stderr)
        return 1
    return 0


def _cmd_privacy_exact(args) -> int:
    params = _params_from(args)
    sets = _count_sets(params.k, params.n, EXACT_SETS_CAP)
    if sets > EXACT_SETS_CAP or sets * params.n > EXACT_INDICES_CAP:
        raise UsageError(
            f"exact mode prints all C({params.k},{params.n}) demand sets and is capped at "
            f"{EXACT_SETS_CAP} sets and {EXACT_INDICES_CAP} printed indices; "
            f"use privacy-mc for larger instances"
        )
    rng = random.Random(_resolve_seed(args.seed))
    demands = tuple(sorted(rng.sample(range(1, params.k + 1), params.n)))
    complement = [i for i in range(1, params.k + 1) if i not in demands]
    side = frozenset(rng.sample(complement, params.m))
    layout = build_layout(params, DemandSpec(demands, side), rng)
    report = posterior(layout, params)
    print(wire.canonical(wire.posterior_doc(report, layout)))
    return 0


def _cmd_privacy_mc(args) -> int:
    params = _params_from(args)
    rng = random.Random(_resolve_seed(args.seed))
    report = monte_carlo_tvd(params, args.wa, args.wb, args.trials, rng)
    print(wire.canonical(wire.tvd_doc(report)))
    if not report.consistent:
        print(f"sampled layouts deviate from the uniform law: max |z| {report.max_z:.2f} "
              f"> {report.threshold:.2f}", file=sys.stderr)
        return 1
    return 0


def _cmd_oracle(args) -> int:
    if not 1 <= args.k_max <= ORACLE_K_CAP:
        raise UsageError(f"--k-max must be in 1..{ORACLE_K_CAP}")
    failures = 0
    instances = 0
    print("k m n oracle formula match")
    for k in range(1, args.k_max + 1):
        for n in range(1, k + 1):
            for m, found in enumerate(search_sweep(k, n)):
                params = ProblemParams(k=k, m=m, n=n)
                plan = compute_plan(params)
                r_star = plan.r_star
                match = found == r_star and is_feasible_plan(
                    params, plan.size_profile, plan.side_profile
                )
                instances += 1
                if not match:
                    failures += 1
                print(f"{k} {m} {n} {found} {r_star} {'true' if match else 'false'}")
    print(f"checked {instances} instances, {failures} mismatches", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "rate": _cmd_rate,
        "simulate": _cmd_simulate,
        "privacy-exact": _cmd_privacy_exact,
        "privacy-mc": _cmd_privacy_mc,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except UsageError as err:
        parser.error(str(err))
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
