#!/usr/bin/env python3
"""Benchmark for pirsi: retrieval rounds and verifier calls through the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload partitioned --seed 1 --seconds 20 --trace 0

Each operation is ``pirsi.cli.main(argv)`` called in-process with stdout
and stderr captured, the path a ``pirsi simulate``, ``privacy-exact``,
``privacy-mc`` or ``oracle`` user runs.  One client in one process and one
thread sends the next operation only after the previous one returned (a
closed loop).  The benchmark generates every input from ``--seed``
(database values, demand and side sets, CLI seeds) and checks every output
against those inputs, never against the CLI's own verdict alone.

``--trace 0`` reports the end-to-end metrics; their times are scaled by a
fixed probe computation to cancel host contention (see "Measurement"
below), and the raw wall times are printed alongside.  ``--trace 1``
follows each untraced operation with a traced replay of the same input
through each module's public functions (see spans.py), checks that the
replay prints exactly what the CLI printed, and reports per-layer metrics.
Workloads are defined in workloads.json.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 1 means a correctness check failed, 2 a usage
error or a checkout without the program's sources.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

from spans import COMPUTED, CountingRandom, Tracer, layer_metrics, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("field", "mds", "rate", "scheme", "privacy", "oracle", "wire", "cli")


class Failed(Exception):
    """An operation's output is wrong."""


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def load_pirsi():
    """Import pirsi afresh from the checkout's sources, dropping any cached copy."""
    for name in [n for n in sys.modules if n == "pirsi" or n.startswith("pirsi.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"pirsi.{m}") for m in MODULES})
    if SRC not in Path(mods.cli.__file__).resolve().parents:
        raise SystemExit(f"error: pirsi imported from {mods.cli.__file__}, not from {SRC}")
    return mods


def run_cli(mods, argv):
    """``pirsi.cli.main(argv)`` with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mods.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _require_exit_zero(code, err):
    if code != 0:
        raise Failed(f"exit code {code}: {err.strip()[-300:]}")


def _indices(values):
    return ",".join(str(i) for i in values)


def check_counting_rng(mods, kmn, spec):
    """CountingRandom must draw the same layouts, and leave the same state, as random.Random."""
    params = mods.rate.ProblemParams(*kmn)
    for seed in range(3):
        plain, counting = random.Random(seed), CountingRandom(seed)
        same_layout = mods.scheme.build_layout(params, spec, plain) == mods.scheme.build_layout(params, spec, counting)
        if not same_layout or plain.getstate() != counting.getstate():
            raise Failed("a counting generator drew a different layout than random.Random")


# ---------------------------------------------------------------------------
# Workloads.  Each generates its inputs, builds the CLI argv for one input,
# checks the CLI's output, and replays the same input traced.


class Rounds:
    """``pirsi simulate`` rounds against one generated database."""

    latency_name = "round_ms"
    fail_name = "round_fail_ratio"

    def __init__(self, cfg, seed, workdir, prime):
        self.k, self.m, self.n = cfg["k"], cfg["m"], cfg["n"]
        self.p = prime
        self.seed = seed
        self.db_path = workdir / "db.txt"

    def prepare(self, mods):
        data_rng = random.Random(f"db:{self.seed}")
        self.values = [data_rng.randrange(self.p) for _ in range(self.k)]
        field = mods.field.PrimeField(self.p)
        db = mods.scheme.Database(tuple(field.element(v) for v in self.values), field)
        with open(self.db_path, "w", encoding="ascii") as fh:
            mods.wire.write_db(fh, db)
        with open(self.db_path, encoding="ascii") as fh:
            back = mods.wire.read_db(fh)
        if [int(v) for v in back.values] != self.values:
            raise Failed("database file does not read back to the generated values")
        self.rng = random.Random(f"ops:{self.seed}")

    def next_input(self):
        picked = self.rng.sample(range(1, self.k + 1), self.n + self.m)
        return (tuple(sorted(picked[: self.n])), tuple(sorted(picked[self.n:])), self.rng.getrandbits(32))

    def argv(self, inp):
        demands, side, seed = inp
        return [
            "simulate", "--k", str(self.k), "--m", str(self.m), "--n", str(self.n),
            "--demands", _indices(demands), "--side", _indices(side),
            "--db", str(self.db_path), "--seed", str(seed),
        ]

    def check(self, inp, code, out, err):
        _require_exit_zero(code, err)
        demands = inp[0]
        doc = json.loads(out)
        if doc["decoded"] != {str(i): self.values[i - 1] for i in demands}:
            raise Failed("decoded values differ from the generated database")
        symbols = sum(len(block) for block in doc["answer"]["blocks"])
        if symbols != doc["plan"]["r_star"]:
            raise Failed(f"downloaded {symbols} symbols, plan says {doc['plan']['r_star']}")
        return {
            "query_bytes": len(canonical(doc["query"])),
            "answer_bytes": len(canonical(doc["answer"])),
            "download_ratio": symbols / (self.k - self.m),
        }

    def replay(self, mods, tr, inp):
        """The steps of ``pirsi simulate`` (the CLI's ``wire_round``), one span per call."""
        wire, scheme = mods.wire, mods.scheme
        demands, side, seed = inp
        params = mods.rate.ProblemParams(k=self.k, m=self.m, n=self.n)
        with tr.span("round"):
            with tr.span("wire.read_db"):
                with open(self.db_path, encoding="ascii") as fh:
                    db = wire.read_db(fh)
            mods.rate.compute_plan(params)  # the CLI's field-size check
            spec = scheme.DemandSpec(demands, frozenset(side), {i: db[i] for i in side})
            spec.validate_against(params)
            layout = scheme.build_layout(params, spec, CountingRandom(seed))
            query = tr.wrap("scheme.make_query", scheme.make_query)(layout, db.field)
            with tr.span("wire.query_encode"):
                query_bytes = wire.canonical(wire.query_doc(query)).encode("ascii")
            with tr.span("wire.query_parse"):
                served = wire.parse_query_doc(json.loads(query_bytes.decode("ascii")))
            answer = tr.wrap("scheme.server_answer", scheme.server_answer)(served, db)
            with tr.span("wire.answer_encode"):
                answer_bytes = wire.canonical(wire.answer_doc(answer)).encode("ascii")
            with tr.span("wire.answer_parse"):
                received = wire.parse_answer_doc(json.loads(answer_bytes.decode("ascii")), db.field)
            decoded = tr.wrap("scheme.client_decode", scheme.client_decode)(query, received, spec)
            with tr.span("wire.transcript_encode"):
                result = scheme.RoundResult(layout, query, received, decoded)
                text = wire.canonical(wire.transcript_doc(params, seed, result))
        self._count_kernel_work(tr, layout, set(demands), set(side))
        return text + "\n"

    @staticmethod
    def _count_kernel_work(tr, layout, demands, side):
        """Computed MDS work: block i has size_i columns and r_i = size_i - quota_i rows."""
        plan = layout.plan
        for block, size, quota in zip(layout.subspaces, plan.size_profile, plan.side_profile):
            rows = size - quota
            tr.count("mds.encode_mults", rows * size)
            if demands.intersection(block):
                tr.count("mds.decode_rows", rows)
                tr.count("mds.decode_unknowns", size - len(side.intersection(block)))

    def check_rng(self, mods):
        demands, side, _ = self.next_input()
        check_counting_rng(mods, (self.k, self.m, self.n), mods.scheme.DemandSpec(demands, frozenset(side)))


class PrivacyExact:
    """``pirsi privacy-exact``: a fresh CLI seed, hence a fresh layout, per call."""

    latency_name = "posterior_ms"
    fail_name = "verify_fail_ratio"

    def __init__(self, cfg, seed, workdir, prime):
        self.k, self.m, self.n = cfg["k"], cfg["m"], cfg["n"]
        self.seed = seed

    def prepare(self, mods):
        self.rng = random.Random(f"ops:{self.seed}")

    def next_input(self):
        return self.rng.getrandbits(32)

    def argv(self, seed):
        return ["privacy-exact", "--k", str(self.k), "--m", str(self.m), "--n", str(self.n), "--seed", str(seed)]

    def check(self, seed, code, out, err):
        _require_exit_zero(code, err)
        doc = json.loads(out)
        if doc["uniform"] is not True or doc["max_deviation"] != "0/1":
            raise Failed(f"posterior not uniform: max_deviation {doc['max_deviation']}")
        if len(doc["posteriors"]) != comb(self.k, self.n):
            raise Failed(f"{len(doc['posteriors'])} posteriors, expected C({self.k},{self.n})")
        return {}

    def replay(self, mods, tr, seed):
        """The steps of ``pirsi privacy-exact``."""
        k, m, n = self.k, self.m, self.n
        params = mods.rate.ProblemParams(k=k, m=m, n=n)
        with tr.span("verify"):
            rng = CountingRandom(seed)
            demands = tuple(sorted(rng.sample(range(1, k + 1), n)))
            complement = [i for i in range(1, k + 1) if i not in demands]
            side = frozenset(rng.sample(complement, m))
            layout = mods.scheme.build_layout(params, mods.scheme.DemandSpec(demands, side), rng)
            report = tr.wrap("privacy.posterior", mods.privacy.posterior)(layout, params)
            text = mods.wire.canonical(mods.wire.posterior_doc(report, layout))
        return text + "\n"

    def check_rng(self, mods):
        spec = mods.scheme.DemandSpec(tuple(range(1, self.n + 1)), frozenset(range(self.n + 1, self.n + self.m + 1)))
        check_counting_rng(mods, (self.k, self.m, self.n), spec)


class PrivacyMc(PrivacyExact):
    """``pirsi privacy-mc`` at its fixed seed; the verdict is statistical."""

    latency_name = "mc_tvd_ms"

    def __init__(self, cfg, seed, workdir, prime):
        super().__init__(cfg, seed, workdir, prime)
        self.cfg = cfg

    def next_input(self):
        return self.cfg["seed"]

    def argv(self, seed):
        c = self.cfg
        return [
            "privacy-mc", "--k", str(self.k), "--m", str(self.m), "--n", str(self.n),
            "--wa", _indices(c["wa"]), "--wb", _indices(c["wb"]),
            "--trials", str(c["trials"]), "--seed", str(seed),
        ]

    def check(self, seed, code, out, err):
        _require_exit_zero(code, err)
        doc = json.loads(out)
        if doc["consistent"] is not True:
            raise Failed(f"Monte-Carlo check inconsistent: {out.strip()}")
        if doc["trials"] != self.cfg["trials"]:
            raise Failed(f"ran {doc['trials']} trials, asked for {self.cfg['trials']}")
        return {}

    def replay(self, mods, tr, seed):
        """The steps of ``pirsi privacy-mc`` (null rounds at the CLI default)."""
        c = self.cfg
        params = mods.rate.ProblemParams(k=self.k, m=self.m, n=self.n)
        with tr.span("verify"):
            report = tr.wrap("privacy.monte_carlo_tvd", mods.privacy.monte_carlo_tvd)(
                params, tuple(c["wa"]), tuple(c["wb"]), trials=c["trials"], rng=CountingRandom(seed)
            )
            text = mods.wire.canonical(mods.wire.tvd_doc(report))
        tr.count("privacy.mc_distinct", report.distinct_queries)
        tr.count("privacy.mc_samples", 2 * report.trials)
        return text + "\n"


class OracleSweep:
    """``pirsi oracle --k-max K``: brute force against the closed form."""

    latency_name = "oracle_ms"
    fail_name = "verify_fail_ratio"

    def __init__(self, cfg, seed, workdir, prime):
        self.k_max = cfg["k_max"]
        self.instances = sum(k * (k + 1) // 2 for k in range(1, self.k_max + 1))

    def prepare(self, mods):
        pass

    def next_input(self):
        return None

    def argv(self, _):
        return ["oracle", "--k-max", str(self.k_max)]

    def check(self, _, code, out, err):
        _require_exit_zero(code, err)
        rows = out.splitlines()[1:]
        if len(rows) != self.instances or not all(row.endswith(" true") for row in rows):
            raise Failed(f"oracle table has {len(rows)} rows or a mismatch, expected {self.instances} matches")
        if f"checked {self.instances} instances, 0 mismatches" not in err:
            raise Failed(f"oracle summary: {err.strip()}")
        return {}

    def replay(self, mods, tr, _):
        """The steps of ``pirsi oracle`` (without --exhaustive)."""
        brute_force_rate = tr.wrap("oracle.brute_force_rate", mods.oracle.brute_force_rate)
        lines = ["k m n oracle formula match"]
        with tr.span("verify"):
            for k in range(1, self.k_max + 1):
                for n in range(1, k + 1):
                    for m in range(0, k - n + 1):
                        params = mods.rate.ProblemParams(k=k, m=m, n=n)
                        plan = mods.rate.compute_plan(params)
                        found = brute_force_rate(params)
                        match = "true" if found == plan.r_star else "false"
                        lines.append(f"{k} {m} {n} {found} {plan.r_star} {match}")
        tr.count("oracle.instances_checked", len(lines) - 1)
        return "\n".join(lines) + "\n"

    def check_rng(self, mods):
        pass


KINDS = {"round": Rounds, "privacy-exact": PrivacyExact, "privacy-mc": PrivacyMc, "oracle": OracleSweep}


# ---------------------------------------------------------------------------
# Measurement
#
# On a shared host, other tenants can slow a run down by up to 2x for tens
# of seconds at a time (seen on a 2-vCPU KVM guest), and pure-Python code
# that runs no pirsi slows with it.  So every timed operation is followed by
# a fixed probe computation, and reported times are scaled by
# probe_ref_ms / probe time: an operation's time at the speed at which the
# probe takes probe_ref_ms.  Over ten runs per workload this cut the
# IQR/median of the median operation time from 0.10-0.41 (raw) to
# 0.006-0.034.  Raw wall times are printed too.


def probe():
    """Fixed work that runs no pirsi code, mixing the kinds the workloads do.

    Object allocation with a JSON round trip (the rounds), products of small
    fractions (the exact posterior) and plain integer bytecode.  Host
    contention slows these by different factors, and their mix tracks every
    workload better than any one of them.
    """
    p = 2147483647
    acc = 1
    items = []
    for i in range(1500):
        acc = acc * (i + 7) % p
        items.append({"i": i, "v": acc, "s": str(acc)})
    json.loads(json.dumps(items))
    total = Fraction(0)
    for i in range(1, 200):
        prob = Fraction(1)
        for j in range(1, 6):
            prob *= Fraction(i % 5 + j, 13 + j)
        total += prob
    spin = 0
    for i in range(50000):
        spin += i * i % 7
    return total, spin


def timed_probe():
    started = time.perf_counter()
    probe()
    return time.perf_counter() - started


class Run:
    """Counts of attempted and failed operations, and the problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message):
        self.failed += 1
        self.note(message)

    def note(self, message):
        """A problem outside the timed operations; the run is then not correct."""
        if len(self.problems) < 5:
            self.problems.append(message)


def setup(workload, run):
    """Import pirsi, generate the inputs, and run one untimed warm-up operation."""
    started = time.perf_counter()
    mods = load_pirsi()
    workload.prepare(mods)
    inp = workload.next_input()
    code, out, err = run_cli(mods, workload.argv(inp))
    elapsed = time.perf_counter() - started
    try:
        workload.check(inp, code, out, err)
    except (Failed, ValueError, KeyError, TypeError) as exc:
        run.note(f"warm-up: {exc}")
    return elapsed, timed_probe(), mods


def closed_loop(mods, workload, run, seconds, min_ops, deadline, tracer=None):
    """Run operations until ``seconds`` have passed and ``min_ops`` are done.

    Returns (operation seconds, probe seconds) pairs and the checks' stats.
    With a tracer, each operation's input is also replayed traced, and the
    replay must print exactly what the CLI printed.
    """
    times, stats = [], []
    started = time.perf_counter()
    while True:
        now = time.perf_counter()
        if (now - started >= seconds and len(times) >= min_ops) or now >= deadline:
            break
        inp = workload.next_input()
        argv = workload.argv(inp)
        t0 = time.perf_counter()
        code, out, err = run_cli(mods, argv)
        times.append((time.perf_counter() - t0, timed_probe()))
        run.attempted += 1
        try:
            stats.append(workload.check(inp, code, out, err))
        except (Failed, ValueError, KeyError, TypeError) as exc:
            run.fail(f"{argv[0]}: {exc}")
            continue
        if tracer is None:
            continue
        run.attempted += 1
        try:
            with patched(tracer, mods):
                text = workload.replay(mods, tracer, inp)
        except (Failed, ValueError, KeyError, TypeError) as exc:
            run.fail(f"traced replay: {exc}")
            continue
        if text != out:
            run.fail(f"traced replay of {argv[0]} printed other bytes than the CLI for the same inputs")
    return times, stats


def end_to_end(workload, times, stats, setups, probe_ref_ms, run):
    """Every end-to-end metric, and the raw figures under the workload's own names."""
    scale = probe_ref_ms / 1e3

    def scaled(pairs):
        return statistics.median(t * scale / p for t, p in pairs)

    wall = [t for t, _ in times]
    metrics = {
        "setup_s": (scaled(setups), "s"),
        "op_ms_p50": (scaled(times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    named = {
        "ops": (len(times), "count"),
        "probe_ms_p50": (statistics.median(p for _, p in times) * 1e3, "ms"),
        "setup_wall_s": (statistics.median(s for s, _ in setups), "s"),
        f"{workload.latency_name}_p50": (statistics.median(wall) * 1e3, "ms"),
        workload.fail_name: (run.failed / run.attempted, "ratio"),
    }
    if isinstance(workload, Rounds):
        named[f"{workload.latency_name}_p90"] = (statistics.quantiles(wall, n=10)[8] * 1e3, "ms")
        for key, unit in (("query_bytes", "bytes"), ("answer_bytes", "bytes"), ("download_ratio", "ratio")):
            if stats:
                named[key] = (statistics.fmean(s[key] for s in stats), unit)
    return metrics, named


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode; the output must match them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {entry["name"] for entry in bench["per_layer" if trace else "end_to_end"]}


def measure(args, config, workdir, deadline, run):
    """Set up, run the closed loop, and return (reported metrics, other named figures)."""
    cfg = config["workloads"][args.workload]
    workload = KINDS[cfg["kind"]](cfg, args.seed, workdir, config["prime"])
    setups = [setup(workload, run) for _ in range(config["setup_repeats"])]
    mods = setups[-1][2]
    min_ops = config["min_ops"]
    if args.trace:
        try:
            workload.check_rng(mods)
        except Failed as exc:
            run.note(str(exc))
        tracer = Tracer()
        times, _ = closed_loop(mods, workload, run, args.seconds, min_ops["traced"], deadline, tracer)
        metrics = layer_metrics(tracer, statistics.median(t for t, _ in times)) if tracer.op_self else {}
        return metrics, {}
    kind_min = min_ops["round"] if isinstance(workload, Rounds) else min_ops["verifier"]
    times, stats = closed_loop(mods, workload, run, args.seconds, kind_min, deadline)
    return end_to_end(workload, times, stats, [(s, p) for s, p, _ in setups], config["probe_ref_ms"], run)


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        config = json.load(fh)
    if args.workload not in config["workloads"]:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(config['workloads'])}", file=sys.stderr)
        return 2
    if not (SRC / "pirsi" / "__init__.py").is_file():
        print(f"error: no pirsi sources under {SRC}; run from the root of a pirsi checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    deadline = time.perf_counter() + config["max_run_seconds"]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run()
    try:
        metrics, named = measure(args, config, workdir, deadline, run)
    except Failed as exc:
        run.note(f"setup: {exc}")
        metrics, named = {}, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in sorted({**metrics, **named}.items()):
        label = " (computed)" if name in COMPUTED else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}{label}")
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    mismatch = declared_metrics(args.trace) ^ set(metrics)
    if mismatch:
        run.problems.append(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
        print(f"FAILED: {run.problems[-1]}", file=sys.stderr)
    correct = run.failed == 0 and not run.problems and run.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
