"""``pirsi privacy-exact`` at its table caps, byte for byte against the per-entry renderer.

``wire.posterior_doc`` builds the uniform table from (k, n) in a few
C-level passes; ``tests/oracles.py``'s ``reference_posterior_doc`` renders
the report one entry at a time.  Tier-1 holds the two byte-equal on every
instance with k <= 14.  Here ``pirsi privacy-exact`` runs as a subprocess
at two points near the caps, and its stdout must equal what the CLI
prints in-process with the reference renderer patched in, for the same
seed:

* (200, 20, 2): 19,900 demand sets, just under the 20,000-set cap, under
  a plan of 17 subspaces;
* (102, 0, 100): 5,151 sets of 100 indices, 515,100 printed indices,
  about half the cap of 10^6.

Wall times are printed, not gated on: the subprocess, and ``main`` in
process with each renderer, the least of three calls.  On a 2-vCPU host
with Python 3.11.7, ``main`` took 11-12 ms at (200, 20, 2) at its fastest
(median 14-16 ms of 21 calls), where the per-entry rendering took 33-56
ms (median 49-58 ms).  This file sits outside the ``testpaths`` in
``pyproject.toml``, so a plain ``pytest`` does not collect it.  CI runs
it as a step of its own, a few seconds:

    python -m pytest -q -s ci/test_posterior_doc_caps.py
"""

import json
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from pirsi import wire  # noqa: E402
from pirsi.cli import main  # noqa: E402
from oracles import reference_posterior_doc  # noqa: E402
from test_cli import _module_env  # noqa: E402


def timed_main(argv, capsys):
    """``main(argv)``'s stdout and its least wall time in ms over three calls; each must exit 0."""
    outs, times = set(), []
    for _ in range(3):
        started = time.perf_counter()
        assert main(argv) == 0
        times.append((time.perf_counter() - started) * 1000)
        outs.add(capsys.readouterr().out)
    (out,) = outs
    return out, min(times)


@pytest.mark.parametrize("k, m, n, blocks", [(200, 20, 2, 17), (102, 0, 100, 1)])
def test_privacy_exact_at_the_caps_prints_the_reference_bytes(k, m, n, blocks, capsys, monkeypatch):
    argv = ["privacy-exact", "--k", str(k), "--m", str(m), "--n", str(n), "--seed", "7"]
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pirsi.cli", *argv], env=_module_env(),
                          capture_output=True, text=True, timeout=120, check=False)
    process_ms = (time.perf_counter() - started) * 1000
    assert done.returncode == 0, done.stderr
    got, fast_ms = timed_main(argv, capsys)
    monkeypatch.setattr(wire, "posterior_doc", reference_posterior_doc)
    want, reference_ms = timed_main(argv, capsys)
    assert done.stdout == got == want
    doc = json.loads(want)
    assert len(doc["posteriors"]) == comb(k, n) and len(doc["layout"]["subspaces"]) == blocks
    print(f"\n({k},{m},{n}): subprocess {process_ms:.1f} ms; in process {fast_ms:.1f} ms, "
          f"{reference_ms:.1f} ms with the reference renderer")
