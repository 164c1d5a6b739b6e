"""Command-line interface.

Subcommands: ``rate`` (closed-form plan), ``simulate`` (one full retrieval
round against a database file), ``privacy-exact`` (rational-arithmetic
posterior check), ``privacy-mc`` (sampled layouts against the uniform layout
law), and ``oracle`` (exact rate search vs closed form sweep).  All canonical
output goes to stdout and is byte-identical across runs with the same flags
(``--seed`` defaults to 0; nothing is read from the environment);
diagnostics and timings go to stderr.  An argument that starts with ``@``
names a file whose lines are read as arguments, one a line.  Exit codes: 0 success, 1 violated
invariant (a ``privacy-mc`` refusal and a closed stdout too), 2 usage error.
The CLI reads numbers with ``wire.DECIMAL`` and index lists with
``wire.split_decimals``, and leaves every check of the request to the
library: a refusal is a usage error when it raises
``rate.UsageError``; ``main`` maps exceptions to exit codes in one place.
The library caps k and the ``privacy-exact`` table; the CLI caps ``--k-max``.
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
from .privacy import monte_carlo_tvd, posterior, posterior_table_size
from .rate import ProblemParams, UsageError, compute_plan, require_code_fits
from .scheme import DemandSpec, build_layout

# oracle checks every (k, m, n) with k <= --k-max: at this cap 4,545,100
# instances, 26-32 s and a 17.5 MB peak RSS on a 2-vCPU host (Python
# 3.11.7), most of it in the plan check and compute_plan; the table is
# 103,555,199 bytes, written one (k, n) sweep at a time.
ORACLE_K_CAP = 300

_DECIMAL = re.compile(wire.DECIMAL)


def _decimal(text: str) -> int:
    """A canonical decimal integer within ``int``'s digit limit: no sign, spaces, ``_`` or leading zeros."""
    if _DECIMAL.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # past int()'s digit limit
            pass
    raise argparse.ArgumentTypeError(f"expected a decimal integer, got {wire.quote(text)}")


def _parse_indices(text: str) -> tuple[int, ...]:
    """Comma-separated canonical decimals, at least one; ``DemandSpec`` refuses repeats."""
    try:
        return tuple(wire.split_decimals(text, ","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {wire.quote(text)}") from None


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
        fromfile_prefix_chars="@",  # @FILE reads the arguments in FILE, one a line
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_rate = subs.add_parser("rate", help="closed-form plan and minimum download")
    p_rate.set_defaults(run=_cmd_rate)
    _add_instance_flags(p_rate)

    p_sim = subs.add_parser("simulate", help="run one retrieval round against a database file")
    p_sim.set_defaults(run=_cmd_simulate)
    _add_instance_flags(p_sim)
    p_sim.add_argument("--demands", type=_parse_indices, required=True, help="e.g. 2,5")
    p_sim.add_argument("--side", type=_parse_indices, default=(), help="e.g. 1,4,6,7,9")
    p_sim.add_argument("--db", required=True, help="database file path")
    p_sim.add_argument("--seed", type=_decimal, default=0, help="RNG seed (default: 0)")

    p_exact = subs.add_parser("privacy-exact", help="exact posterior-uniformity check")
    p_exact.set_defaults(run=_cmd_privacy_exact)
    _add_instance_flags(p_exact)
    p_exact.add_argument("--seed", type=_decimal, default=0, help="seed for the layout (default: 0)")

    p_mc = subs.add_parser("privacy-mc", help="sampled layouts against the uniform layout law")
    p_mc.set_defaults(run=_cmd_privacy_mc)
    _add_instance_flags(p_mc)
    p_mc.add_argument("--wa", type=_parse_indices, required=True, help="first demand set")
    p_mc.add_argument("--wb", type=_parse_indices, required=True, help="second demand set")
    p_mc.add_argument("--trials", type=_decimal, default=10000, help="layouts per demand set")
    p_mc.add_argument("--seed", type=_decimal, default=0, help="RNG seed (default: 0)")

    p_oracle = subs.add_parser("oracle", help="exact rate search vs closed form sweep")
    p_oracle.set_defaults(run=_cmd_oracle)
    p_oracle.add_argument("--k-max", type=_decimal, required=True)
    return parser


def _cmd_rate(args) -> int:
    params = ProblemParams(args.k, args.m, args.n)
    plan = compute_plan(params)
    print(wire.canonical(wire.plan_doc(params, plan)))
    return 0


def _cmd_simulate(args) -> int:
    params = ProblemParams(args.k, args.m, args.n)
    require_code_fits(compute_plan(params))  # before reading a database this round could not code
    try:
        # newline="" hands read_db the file's own line ends, so it refuses \r.
        with open(args.db, encoding="ascii", newline="") as fh:
            db = wire.read_db(fh)
    except OSError as err:
        raise UsageError(f"cannot read database: {err}") from None
    spec = DemandSpec(args.demands, args.side, dict(zip(args.side, db.gather(args.side))))
    started = time.perf_counter()
    result = wire.simulate_round(params, spec, db, random.Random(args.seed))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(wire.transcript_text(params, args.seed, result))
    print(f"timing_ms={elapsed_ms:.3f}", file=sys.stderr)

    mismatches = [idx for idx in spec.demands if result.decoded[idx] != db[idx]]
    if mismatches:
        print(f"decode mismatch at indices {mismatches}", file=sys.stderr)
        return 1
    return 0


def _cmd_privacy_exact(args) -> int:
    params = ProblemParams(args.k, args.m, args.n)
    posterior_table_size(params)  # before a draw that takes seconds at the largest k
    rng = random.Random(args.seed)
    demands = tuple(sorted(rng.sample(range(1, params.k + 1), params.n)))
    wanted = frozenset(demands)
    complement = [i for i in range(1, params.k + 1) if i not in wanted]
    side = frozenset(rng.sample(complement, params.m))
    layout = build_layout(params, DemandSpec(demands, side), rng)
    report = posterior(layout, params)
    print(wire.canonical(wire.posterior_doc(report, layout)))
    return 0


def _cmd_privacy_mc(args) -> int:
    params = ProblemParams(args.k, args.m, args.n)
    rng = random.Random(args.seed)
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
    write = sys.stdout.write
    write("k m n oracle formula match\n")
    for k in range(1, args.k_max + 1):
        for n in range(1, k + 1):
            lines = []  # the (k, n) sweep's lines, at most ORACLE_K_CAP, written at once
            for m, found in enumerate(search_sweep(k, n)):
                params = ProblemParams(k, m, n)
                plan = compute_plan(params)
                r_star = plan.r_star
                match = found == r_star and is_feasible_plan(
                    params, plan.size_profile, plan.side_profile
                )
                if not match:
                    failures += 1
                lines.append(f"{k} {m} {n} {found} {r_star} {'true' if match else 'false'}\n")
            instances += len(lines)
            write("".join(lines))
    print(f"checked {instances} instances, {failures} mismatches", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except UsageError as err:
        parser.error(str(err))
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left: stdout goes to devnull so the final flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
