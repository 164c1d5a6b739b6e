"""Record the benchmark's end-to-end metrics for this checkout in ``BENCH_<label>.json``.

For seeds 1-5, and within each seed every workload ``BENCHMARK.json``
declares in turn (so a slow spell of the host falls on all of them), it
runs the benchmark's own command from the root of this checkout:

    perfbench/run.py --workload W --seed S --seconds 15 --trace 0

(15 s being the ``run_seconds`` that ``BENCHMARK.json`` declares), and
reads the JSON object on the last line of each run's stdout.  It writes
the median and the quartiles of each end-to-end metric per workload, with
every run's value in seed order, the interpreter, machine and CPU count,
and the commit (``dirty`` when tracked files differ from it).  A run that
exits non-zero or reports ``correct: false`` stops the recording and no
file is written.  A recording takes about 7 minutes on a 2-vCPU host:

    python ci/bench_record.py --label pr27

Two checkouts recorded on the same host compare
as "before" and "after"; the harness scales its times by a fixed probe
to cancel host contention, but different hosts still differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def run_once(command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One harness run's reported metrics, ``{name: {"value": v, "unit": u}}``."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
    return result["metrics"]


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # The declared command under this interpreter, so a virtualenv's python runs it.
    command = [sys.executable, *bench["command"][1:]]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds, seconds = [1, 2, 3, 4, 5], bench["run_seconds"]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            runs[workload].append(run_once(command, workload, seed, seconds))
            print(f"{workload} seed {seed}: done", file=sys.stderr)

    record = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": sys.version,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "runs": {"command": bench["command"], "seeds": seeds, "seconds": seconds, "trace": 0},
        "workloads": {
            workload: {
                name: summary([r[name]["value"] for r in results], results[0][name]["unit"])
                for name in sorted(results[0])
            }
            for workload, results in runs.items()
        },
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
