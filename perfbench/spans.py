"""Spans recorded from outside the program, and the per-layer metrics built from them.

The traced replay in run.py calls each module's public functions itself and
opens one span per call.  Functions the program calls internally (the
primality check, the plan, layout probabilities and layout draws inside the
verifiers) are wrapped for the traced phase only, by ``patched``, so their
time is taken out of their caller's self time.  The program's files are not
changed.

Spans of one operation (a round or a verifier call) share the id of its
root span.  They are kept in memory until the operation ends, then folded
into per-name self times; a span's self time is its duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class CountingRandom(random.Random):
    """``random.Random`` that counts ``getrandbits`` calls.

    Overriding ``getrandbits`` keeps the base class's bit stream, so a
    generator seeded like a plain ``random.Random`` draws the same values.
    """

    def __init__(self, seed):
        self.calls = 0
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


class Tracer:
    """Stack of open spans; closed spans are folded per operation."""

    def __init__(self):
        self._open = []  # [span_id, op_id, name, start, child_seconds]
        self._spans = []  # (op_id, span_id, parent_id, name, start, end, self_seconds)
        self._next_id = 0
        self.op_self = []  # per operation: {span name: self seconds}
        self.op_seconds = []  # per operation: root span duration
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)

    def begin(self, name):
        self._next_id += 1
        op_id = self._open[0][1] if self._open else self._next_id
        self._open.append([self._next_id, op_id, name, time.perf_counter(), 0.0])

    def end(self):
        end = time.perf_counter()
        span_id, op_id, name, start, child = self._open.pop()
        duration = end - start
        parent_id = None
        if self._open:
            parent = self._open[-1]
            parent[4] += duration
            parent_id = parent[0]
        self._spans.append((op_id, span_id, parent_id, name, start, end, duration - child))
        if parent_id is None:
            self._fold(duration)

    def _fold(self, duration):
        per_name = defaultdict(float)
        for _, _, _, name, _, _, self_seconds in self._spans:
            per_name[name] += self_seconds
            self.self_seconds[name] += self_seconds
            self.calls[name] += 1
        self._spans.clear()
        self.op_self.append(per_name)
        self.op_seconds.append(duration)

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name, amount):
        self.counts[name] += amount

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def wrap_layout(self, fn):
        """``build_layout`` wrapper that also counts the generator calls it makes."""

        def traced(params, spec, rng):
            before = getattr(rng, "calls", 0)
            self.begin("scheme.build_layout")
            try:
                return fn(params, spec, rng)
            finally:
                self.count("scheme.layout_rng_calls", getattr(rng, "calls", 0) - before)
                self.end()

        return traced


@contextmanager
def patched(tracer, mods):
    """Wrap the functions the program calls internally, restoring them on exit.

    Each module holds its own binding of an imported function, so every
    binding is replaced.  A binding a later version of the program no longer
    has is skipped; its metric then reads 0.
    """
    targets = [(mods.field, "is_prime", "field.is_prime")]
    targets += [(m, "compute_plan", "rate.compute_plan") for m in (mods.rate, mods.scheme, mods.privacy)]
    targets += [(mods.privacy, "layout_probability", "privacy.layout_probability")]
    saved = []
    try:
        for module, attr, name in targets:
            if hasattr(module, attr):
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        for module in (mods.scheme, mods.privacy):
            if hasattr(module, "build_layout"):
                saved.append((module, "build_layout", module.build_layout))
                module.build_layout = tracer.wrap_layout(module.build_layout)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# Per-layer metric -> span name.  "_ms": median over operations of the
# span's self time within one operation.  "_us": mean self time per call.
PER_OP_MS = {
    "scheme.server_answer_ms": "scheme.server_answer",
    "wire.query_parse_ms": "wire.query_parse",
    "wire.answer_encode_ms": "wire.answer_encode",
    "wire.answer_parse_ms": "wire.answer_parse",
    "scheme.make_query_ms": "scheme.make_query",
    "wire.query_encode_ms": "wire.query_encode",
    "wire.transcript_encode_ms": "wire.transcript_encode",
    "scheme.client_decode_ms": "scheme.client_decode",
    "scheme.build_layout_ms": "scheme.build_layout",
    "wire.read_db_ms": "wire.read_db",
    "privacy.posterior_ms": "privacy.posterior",
    "privacy.monte_carlo_tvd_ms": "privacy.monte_carlo_tvd",
    "oracle.brute_force_rate_ms": "oracle.brute_force_rate",
}
PER_CALL_US = {
    "privacy.layout_probability_us": "privacy.layout_probability",
    "field.prime_check_us": "field.is_prime",
    "rate.compute_plan_us": "rate.compute_plan",
}
# Counts derived from plan and layout shapes, not measured inside the program.
COMPUTED = ("mds.encode_mults", "mds.decode_rows", "mds.decode_unknowns", "scheme.server_ns_per_mult")


def layer_metrics(tracer, untraced_op_p50_s):
    """Every per-layer metric as ``{name: (value, unit)}``; 0 marks a layer the workload does not run."""
    ops = len(tracer.op_self)
    out = {}
    for metric, name in PER_OP_MS.items():
        out[metric] = (statistics.median(op.get(name, 0.0) for op in tracer.op_self) * 1e3, "ms")
    for metric, name in PER_CALL_US.items():
        calls = tracer.calls[name]
        out[metric] = (tracer.self_seconds[name] / calls * 1e6 if calls else 0.0, "us")

    def ratio(num, den):
        return num / den if den else 0.0

    counts = tracer.counts
    out["scheme.layout_rng_calls"] = (ratio(counts["scheme.layout_rng_calls"], tracer.calls["scheme.build_layout"]), "count")
    out["oracle.instances_checked"] = (counts["oracle.instances_checked"] / ops, "count")
    out["privacy.mc_distinct_ratio"] = (ratio(counts["privacy.mc_distinct"], counts["privacy.mc_samples"]), "ratio")
    for name in ("mds.encode_mults", "mds.decode_rows", "mds.decode_unknowns"):
        out[name] = (counts[name] / ops, "count")
    out["scheme.server_ns_per_mult"] = (
        ratio(tracer.self_seconds["scheme.server_answer"] * 1e9, counts["mds.encode_mults"]),
        "ns",
    )
    out["trace.overhead_ratio"] = (statistics.median(tracer.op_seconds) / untraced_op_p50_s, "ratio")
    return out
