"""Spans around the calls into each contextrep layer, for the traced run.

The library has no timer of its own yet, so the benchmark wraps the public
functions each caller uses (``contextrep.cli.is_product``,
``contextrep.JointTable.from_counts``, ...) while the traced pass runs and
restores them afterwards.  Each wrapper records a span (name, start, end,
parent, op id) in memory; the benchmark writes them out when it ends.  The
untraced pass, which gives the end-to-end metrics, runs with no wrapper
installed.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter
from math import comb
from time import perf_counter_ns

import contextrep as cr
import contextrep.cli
import contextrep.joint
import contextrep.scenarios

LAYERS = ("probability", "simplex", "hilbert", "joint", "scenarios", "cli")

#: Rows per sampling chunk in monte_carlo_measurement; the sampler probe
#: draws the same chunks so its time is the sampler's share of a job.
SAMPLE_CHUNK = 1 << 18

OP = "op"


def _minors(t) -> int:
    return comb(t.n_rows, 2) * comb(t.n_cols, 2)


def _on_monte_carlo(tracer, span, args, result):
    tracer.counts["simplex.trials"] += result.trials
    tracer.counts["simplex.boundary_hits"] += result.boundary_hits
    tracer.probes.append((result.target.n, result.trials, result.seed))


def _on_vessels(tracer, span, args, result):
    tracer.counts["scenarios.trials"] += result.total


def _on_from_counts(tracer, span, args, result):
    tracer.counts["joint.cells"] += result.n_rows * result.n_cols


def _on_is_product(tracer, span, args, result):
    span[0] = f"joint.is_product.{result.verdict}"
    if result.verdict == "entangled":  # the witness search visits every minor
        tracer.counts["joint.minors_computed"] += _minors(args[0])


def _on_certificate(tracer, span, args, result):
    t = args[0]
    if result is not None and t.is_exact:  # a certified product checked every minor
        tracer.counts["joint.minors_computed"] += _minors(t)


#: span name -> (call sites as (owner, attribute), hook on the result)
def _targets():
    cli, joint, scenarios = contextrep.cli, contextrep.joint, contextrep.scenarios
    return {
        "cli.main": ([(cli, "main")], None),
        "probability.parse_counts": ([(cli, "parse_counts_csv"), (cli, "parse_counts_json")], None),
        "probability.probabilities_from_counts": (
            [(cli, "probabilities_from_counts"), (scenarios, "probabilities_from_counts"),
             (cr, "probabilities_from_counts")], None),
        "joint.parse_joint": ([(cli, "parse_joint_csv"), (cli, "parse_joint_json")], None),
        "joint.marginals": ([(joint, "marginals"), (cr, "marginals")], None),
        "joint.is_product": ([(cli, "is_product"), (cr, "is_product")], _on_is_product),
        "joint.factorization_certificate": ([(cr, "factorization_certificate")],
                                            _on_certificate),
        "joint.build_joint_vectors": ([(cli, "build_joint_vectors"), (cr, "build_joint_vectors")],
                                      None),
        "hilbert.build_complex_context": ([(cli, "build_complex_context"),
                                           (cr, "build_complex_context")], None),
        "simplex.build_real_context": ([(cli, "build_real_context"), (cr, "build_real_context")],
                                       None),
        "simplex.monte_carlo_measurement": ([(cli, "monte_carlo_measurement"),
                                             (cr, "monte_carlo_measurement")], _on_monte_carlo),
        "scenarios.simulate_vessels": ([(cli, "simulate_vessels"), (cr, "simulate_vessels")],
                                       _on_vessels),
        "scenarios.animal_acts_tables": ([(cli, "animal_acts_tables")], None),
        "scenarios.vessels_joint_table": ([(cli, "vessels_joint_table")], None),
    }


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent index, op id, probe]
        self.counts: Counter = Counter()
        self.probes: list = []  # (n, trials, seed) of Monte Carlo jobs awaiting a probe
        self._stack: list = []
        self._op = None

    def _open(self, name, probe=False) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, perf_counter_ns(), 0, parent, self._op, probe]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span) -> None:
        span[2] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(self, span, args, result)
            return result
        return traced

    def open_op(self, op_id) -> list:
        self._op = op_id
        return self._open(OP)

    def close_op(self, span, start_ns, end_ns) -> None:
        """End the op span at the runner's own clock readings around the call."""
        self._close(span)
        span[1], span[2] = start_ns, end_ns
        self._op = None

    def run_probes(self, op_id) -> None:
        """Time the public sampler at each finished job's (n, trials): the sampler's share."""
        pending, self.probes = self.probes, []
        for n, trials, seed in pending:
            self._op = op_id
            span = self._open("simplex.sample_hidden_variables", probe=True)
            remaining, chunk = trials, 0
            while remaining:
                size = min(SAMPLE_CHUNK, remaining)
                cr.sample_hidden_variables(n, size, seed + chunk)
                remaining -= size
                chunk += 1
            self._close(span)
            self._op = None

    @contextlib.contextmanager
    def installed(self):
        """Replace every call site with its wrapper; restore the originals on exit."""
        saved = []
        try:
            for name, (sites, hook) in _targets().items():
                for owner, attr in sites:
                    saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, self.wrap(name, getattr(owner, attr), hook))
            joint_table = cr.JointTable
            original = joint_table.__dict__["from_counts"]
            saved.append((joint_table, "from_counts", original))
            wrapped = self.wrap("joint.from_counts", original.__func__, _on_from_counts)
            joint_table.from_counts = classmethod(wrapped)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def write(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "probe")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": dict(self.counts)}, fh)


def layer_metrics(tracer: Tracer, rounds: int, traced_ops_per_s: float,
                  untraced_ops_per_s: float, extra_counts: Counter) -> dict:
    """Every per-layer metric as {name: (value, unit)}; totals are per round."""
    busy: Counter = Counter()
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    child_ns: Counter = Counter()
    op_ns = top_ns = 0
    for _name, start, end, parent, *_ in tracer.spans:
        if parent is not None:
            child_ns[parent] += end - start
    for i, (name, start, end, parent, _op, probe) in enumerate(tracer.spans):
        duration = end - start
        busy[name] += duration
        calls[name] += 1
        if name == OP:
            op_ns += duration
        elif not probe:
            self_ns[name.split(".")[0]] += duration - child_ns[i]
            if parent is not None and tracer.spans[parent][0] == OP:
                top_ns += duration
    counts = tracer.counts + extra_counts
    per = lambda x: x / rounds
    ms = lambda ns: ns / 1e6 / rounds
    mc_busy = busy["simplex.monte_carlo_measurement"]
    probe_busy = busy["simplex.sample_hidden_variables"]
    trials = counts["simplex.trials"]
    m = {
        "simplex.monte_carlo_measurement.calls": (per(calls["simplex.monte_carlo_measurement"]),
                                                  "count"),
        "simplex.monte_carlo_measurement.busy_ms": (ms(mc_busy), "ms"),
        "simplex.trials": (per(trials), "count"),
        "simplex.boundary_hits": (per(counts["simplex.boundary_hits"]), "count"),
        # Ratios with no base (no trials on this workload) read 0.
        "simplex.deterministic_ratio": (
            (trials - counts["simplex.boundary_hits"]) / trials if trials else 0.0, "ratio"),
        "simplex.ns_per_trial": (mc_busy / trials if trials else 0.0, "ns"),
        "simplex.sample_hidden_variables.busy_ms": (ms(probe_busy), "ms"),
        "simplex.classify_derived.busy_ms": (ms(mc_busy - probe_busy), "ms"),
        "scenarios.simulate_vessels.calls": (per(calls["scenarios.simulate_vessels"]), "count"),
        "scenarios.simulate_vessels.busy_ms": (ms(busy["scenarios.simulate_vessels"]), "ms"),
        "scenarios.trials": (per(counts["scenarios.trials"]), "count"),
    }
    for name in ("joint.from_counts", "joint.marginals", "joint.factorization_certificate",
                 "joint.build_joint_vectors", "joint.parse_joint", "probability.parse_counts",
                 "probability.probabilities_from_counts"):
        m[f"{name}.busy_ms"] = (ms(busy[name]), "ms")
    for name in ("joint.is_product.product", "joint.is_product.entangled",
                 "hilbert.build_complex_context", "cli.main"):
        m[f"{name}.calls"] = (per(calls[name]), "count")
        m[f"{name}.busy_ms"] = (ms(busy[name]), "ms")
    m["joint.cells"] = (per(counts["joint.cells"]), "count")
    m["joint.minors_computed"] = (per(counts["joint.minors_computed"]), "count")
    m["cli.bytes_written"] = (per(counts["cli.bytes_written"]), "B")
    m["cli.expected_errors"] = (per(counts["cli.expected_errors"]), "count")
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (ms(self_ns[layer]), "ms")
    m["trace.overhead_ratio"] = (traced_ops_per_s / untraced_ops_per_s, "ratio")
    m["trace.span_coverage"] = (top_ns / op_ns if op_ns else 0.0, "ratio")
    return m

