"""Spans around calls into xorcast, recorded from outside the package.

Each layer is measured by replacing the module attribute its callers look up
(``xorcast.sim.run_experiment``, ``xorcast.markov.rref_insert``, ...) with a
timing wrapper for the duration of a traced pass, then putting the original
back. Nothing under ``src/`` knows it is being traced.

A span's self time is its duration minus the time its child spans cover, so
the self times of all spans under the harness's per-command root spans add
up to the traced wall time exactly.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from xorcast import bounds, markov, sim

# Layers whose spans are kept one by one in the run record; the hot GF(2) and
# scan calls (hundreds of thousands per pass) are kept only as totals.
_LEAF_LAYERS = ("policy", "gf2")

# The joint-state table engine covers greedy up to this k (markov.MAX_FINE_DIM
# at the time the benchmark was written); above it greedy runs the scalar path.
_TABLE_MAX_K = 4

ENGINES = ("rl", "table", "scalar", "counts")


def engine_of(config) -> str:
    """Simulation engine that run_experiment picks for a public ExperimentConfig."""
    if config.policy == "rl":
        return "rl"
    if config.policy == "greedy":
        return "table" if config.k <= _TABLE_MAX_K else "scalar"
    return "counts"


class Tracer:
    """Span stack plus per-name totals for one traced pass."""

    def __init__(self):
        # open frames: [name, start, child seconds, nested build_fine_chain seconds]
        self._stack: list[list] = []
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.layer_self_s: Counter = Counter()
        self.without_chain_build_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.edges: Counter = Counter()
        self.edge_s: Counter = Counter()
        self.spans: list[tuple[str, str | None, float, float]] = []
        self._origin = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        stack = self._stack
        frame = [name, 0.0, 0.0, 0.0]
        stack.append(frame)
        start = frame[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            self._close(frame, duration, stack[-1] if stack else None)

    def _close(self, frame: list, duration: float, parent: list | None) -> None:
        name = frame[0]
        own = duration - frame[2]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += own
        self.layer_self_s[name.split(".", 1)[0]] += own
        self.without_chain_build_s[name] += duration - frame[3]
        parent_name = None
        if parent is not None:
            parent_name = parent[0]
            parent[2] += duration
            if name == "markov.build_fine_chain":
                parent[3] += duration
        self.edges[(parent_name, name)] += 1
        self.edge_s[(parent_name, name)] += duration
        if name.split(".", 1)[0] not in _LEAF_LAYERS:
            self.spans.append((name, parent_name, frame[1] - self._origin, duration))

    def wrap(self, name, fn, observe):
        """Timing wrapper around fn; name may be a function of the call's arguments."""
        def traced(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            result = self.call(span, fn, *args, **kwargs)
            observe(self.counts, span, args, result)
            return result
        return traced


def _observe_nothing(counts, span, args, result):
    pass


def _observe_experiment(counts, span, args, result):
    config = args[0]
    counts[f"{span}.trials"] += config.trials
    counts[f"{span}.tx"] += int(result.tx_counts.sum())


def _observe_fine_chain(counts, span, args, result):
    counts["markov.build_fine_chain.states"] += result.n_states


def _observe_solve(counts, span, args, result):
    counts["markov.solve.states"] += args[0].n_states - 1


def _observe_bound(counts, span, args, result):
    counts["bounds.calls"] += 1


def _observe_scan(counts, span, args, result):
    spans, k, tie_break = args[0], args[1], args[2]
    w, covered = result
    full = covered == len(spans)
    # the smallest tie-break stops at the first full-cover candidate
    counts["policy.scan.candidates"] += w if full and tie_break == "smallest" else (1 << k) - 1
    counts["policy.scan.full_cover"] += full


def _observe_insert(counts, span, args, result):
    counts["gf2.rref_insert.innovative"] += result is not None


def _observe_span_of_rows(counts, span, args, result):
    counts["gf2.span_of_rows.elements"] += len(result)


def _experiment_span(config):
    return f"sim.{engine_of(config)}"


# (module, attribute as its callers look it up, span name, counter update)
TARGETS = (
    (sim, "run_experiment", _experiment_span, _observe_experiment),
    (markov, "build_chain", "markov.build_chain", _observe_nothing),
    (markov, "build_fine_chain", "markov.build_fine_chain", _observe_fine_chain),
    (markov, "expected_absorption_time", "markov.expected_absorption_time", _observe_solve),
    (markov, "absorption_time_fine", "markov.absorption_time_fine", _observe_solve),
    (bounds, "expected_ell", "bounds.expected_ell", _observe_bound),
    (bounds, "mds_expected", "bounds.mds_expected", _observe_bound),
    (sim, "_scan_spans", "policy.scan", _observe_scan),
    (markov, "_scan_spans", "policy.scan", _observe_scan),
    (sim, "rref_insert", "gf2.rref_insert", _observe_insert),
    (markov, "rref_insert", "gf2.rref_insert", _observe_insert),
    (sim, "span_of_rows", "gf2.span_of_rows", _observe_span_of_rows),
    (markov, "span_of_rows", "gf2.span_of_rows", _observe_span_of_rows),
)


@contextmanager
def installed(tracer: Tracer):
    """Swap every target that exists for its traced wrapper; restore on exit.

    A target a later version of the package no longer has is skipped, and its
    metrics read zero.
    """
    saved = []
    try:
        for module, attr, name, observe in TARGETS:
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(name, original, observe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metric values of one traced pass, keyed by BENCHMARK.json name."""
    t, c = tracer, tracer.counts
    out = {
        "cli.self_s": t.layer_self_s["cli"],
        "sim.self_s": t.layer_self_s["sim"],
        "markov.self_s": t.layer_self_s["markov"],
    }
    for engine in ENGINES:
        span = f"sim.{engine}"
        seconds = t.without_chain_build_s[span]
        out[f"{span}.s"] = seconds
        out[f"{span}.trials"] = c[f"{span}.trials"]
        out[f"{span}.tx"] = c[f"{span}.tx"]
        out[f"{span}.tx_per_s"] = _ratio(c[f"{span}.tx"], seconds)
        if engine in ("table", "scalar"):
            out[f"{span}.trials_per_s"] = _ratio(c[f"{span}.trials"], seconds)
    for fn in ("build_chain", "build_fine_chain", "expected_absorption_time",
               "absorption_time_fine"):
        out[f"markov.{fn}.s"] = t.total_s[f"markov.{fn}"]
    out["markov.build_fine_chain.states"] = c["markov.build_fine_chain.states"]
    out["markov.solve.states"] = c["markov.solve.states"]
    out["bounds.expected_ell.s"] = t.total_s["bounds.expected_ell"]
    out["bounds.mds_expected.s"] = t.total_s["bounds.mds_expected"]
    out["bounds.calls"] = c["bounds.calls"]
    scans = t.calls["policy.scan"]
    out["policy.scan.calls"] = scans
    out["policy.scan.s"] = t.total_s["policy.scan"]
    out["policy.scan.candidates"] = c["policy.scan.candidates"]
    out["policy.scan.full_cover_ratio"] = _ratio(c["policy.scan.full_cover"], scans)
    inserts = t.calls["gf2.rref_insert"]
    out["gf2.rref_insert.calls"] = inserts
    out["gf2.rref_insert.s"] = t.total_s["gf2.rref_insert"]
    out["gf2.rref_insert.innovative_ratio"] = _ratio(c["gf2.rref_insert.innovative"], inserts)
    out["gf2.span_of_rows.calls"] = t.calls["gf2.span_of_rows"]
    out["gf2.span_of_rows.s"] = t.total_s["gf2.span_of_rows"]
    out["gf2.span_of_rows.elements"] = c["gf2.span_of_rows.elements"]
    traced_wall_s = t.total_s["cli"]
    out["trace.wall_s"] = traced_wall_s
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return out


def record(tracer: Tracer) -> dict:
    """JSON-ready dump of one traced pass for the run record."""
    return {
        "spans": [{"name": n, "parent": p, "start_s": round(s, 6), "duration_s": round(d, 6)}
                  for n, p, s, d in tracer.spans],
        "edges": [{"parent": p, "child": ch, "calls": tracer.edges[(p, ch)],
                   "seconds": round(tracer.edge_s[(p, ch)], 6)}
                  for p, ch in sorted(tracer.edges, key=lambda e: (str(e[0]), e[1]))],
        "self_s": {name: round(v, 6) for name, v in sorted(tracer.self_s.items())},
        "layer_self_s": dict(sorted(tracer.layer_self_s.items())),
    }
