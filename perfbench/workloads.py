"""Seeded workloads for the contextrep benchmark.

A workload is one round of operations generated from the seed: a fixed mix
of shapes and sizes, in a fixed order, whose contents (counts, labels, RNG
seeds) come from the seed.  The benchmark runs whole rounds in a closed loop,
one caller and no think time, so every run measures the same mix whatever
the seed.  The order is not seeded because peak memory depends on it: the
allocator's reuse of the large Monte Carlo arrays follows the job order.

Each operation has a spec (plain data, compared by the same-seed test), the
library inputs prepared from it at set-up, a timed call into the public API,
a correctness check that feeds ``error_rate`` and a fingerprint of its output
that must repeat exactly on every execution and that feeds the digest.

Per-layer predictions
---------------------
Which end-to-end metric each per-layer metric of the traced run should move,
on which workload.  A change to one layer should move its rows and leave the
other workloads flat.

=====================================================  ==========================  ==============================
per-layer metric (per round of the workload)           should move                 on workload
=====================================================  ==========================  ==============================
simplex.monte_carlo_measurement.{calls,busy_ms},       ops_per_s, latency_p90_ms   mc-simulate; barely cli-reports
simplex.trials, simplex.boundary_hits,
simplex.deterministic_ratio (base = trials),
simplex.ns_per_trial
simplex.sample_hidden_variables.busy_ms (probe at     ops_per_s                   mc-simulate
each job's n and trials), simplex.classify_derived.
busy_ms (derived: MC busy - probe)
scenarios.simulate_vessels.{calls,busy_ms},            ops_per_s                   mc-simulate
scenarios.trials
joint.from_counts.busy_ms, joint.marginals.busy_ms,    ops_per_s, latency_p90_ms   decide-exact; latency_p50_ms
joint.is_product.{product,entangled}.{calls,busy_ms},                              on cli-reports very little
joint.factorization_certificate.busy_ms,
joint.build_joint_vectors.busy_ms, joint.cells,
joint.minors_computed (computed: C(n,2)*C(m,2) per
full search)
joint.parse_joint.busy_ms,                             ops_per_s, latency_p50_ms   cli-reports
probability.parse_counts.busy_ms,
probability.probabilities_from_counts.busy_ms,
hilbert.build_complex_context.{calls,busy_ms}
cli.main.{calls,busy_ms}, cli.self_ms,                 ops_per_s, latency_p50_ms   cli-reports
cli.bytes_written, cli.expected_errors
<layer>.self_ms                                        the rows of that layer      as above
trace.overhead_ratio, trace.span_coverage              nothing: cost and           every workload
                                                       completeness of tracing
=====================================================  ==========================  ==============================
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import string
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable

import contextrep as cr
import contextrep.cli

#: Deviation allowed between a simulated count and its expectation, in binomial
#: standard deviations.  At 6 sigma a correct program fails a check about once
#: in 5e8 outcomes, so a failure points at the program, not at chance.
SIGMA_MULTIPLE = 6.0

#: The float tolerance for "sums to one" checks on reported probabilities.
SUM_CHECK = 1e-9


@dataclass
class Workload:
    """One round of operations with the functions that time and check them."""

    name: str
    specs: list
    prepare: Callable[[Any], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list]
    fingerprint: Callable[[Any], bytes]
    collect: Callable[[Any], Any] = lambda raw: raw
    files: dict = field(default_factory=dict)
    #: Counters the benchmark, not the library, observes per op in the traced run.
    layer_counts: Callable[[Any, Any], dict] | None = None

    def digest(self, fingerprints: list) -> str:
        """sha256 over every operation's output fingerprint, in round order."""
        h = hashlib.sha256()
        for fp in fingerprints:
            fp = b"<no output>" if fp is None else fp
            h.update(len(fp).to_bytes(8, "big"))
            h.update(fp)
        return h.hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _labels(rng: random.Random, n: int) -> tuple:
    """n distinct labels: a random stem plus the index keeps them unique."""
    return tuple(
        "".join(rng.choice(string.ascii_lowercase) for _ in range(4)) + str(j)
        for j in range(n)
    )


def _within_sigma(count: int, trials: int, p: float) -> bool:
    if p == 0.0:
        return count == 0
    sigma = math.sqrt(trials * p * (1.0 - p))
    return abs(count - trials * p) <= SIGMA_MULTIPLE * sigma + 1e-9


def is_rank_one(counts) -> bool:
    """True iff the nonnegative integer table is an outer product (rank <= 1).

    With a pivot c[j0][k0] != 0, the table is rank one iff every cell
    satisfies c[j][k] * c[j0][k0] == c[j][k0] * c[j0][k]: O(n m), exact.
    """
    pivot = next(
        ((j, k) for j, row in enumerate(counts) for k, c in enumerate(row) if c), None
    )
    if pivot is None:
        return True
    j0, k0 = pivot
    c0 = counts[j0][k0]
    return all(
        c * c0 == counts[j][k0] * counts[j0][k]
        for j, row in enumerate(counts)
        for k, c in enumerate(row)
    )


# ---------------------------------------------------------------------------
# mc-simulate
#
# Why: the hidden-variable sampler and region classifier in `simplex` do
# nearly all the work, plus the vessels simulator in `scenarios`; `joint` and
# `cli` do none.  An optimisation of the Monte Carlo path (ROADMAP item 3)
# should move this workload and leave decide-exact flat.  Trials fall on both
# sides of the 2^18-row chunk, and some contexts have zero-probability
# outcomes, which the classifier treats specially.
# ---------------------------------------------------------------------------

#: (outcomes n, trials, how many outcomes have probability zero)
MC_JOBS = (
    (2, 50_000, 0), (2, 200_000, 0), (2, 2_000_000, 0),
    (3, 50_000, 1), (3, 300_000, 0), (3, 1_000_000, 0),
    (8, 100_000, 0), (8, 500_000, 2), (8, 1_000_000, 0),
    (32, 50_000, 5), (32, 100_000, 0), (32, 300_000, 3),
)

#: (mode, trials, threshold as a share of capacity)
VESSEL_JOBS = (
    ("separate", 50_000, 0.5), ("separate", 1_000_000, 0.5),
    ("separate", 2_000_000, 0.3), ("connected", 1_000_000, 0.5),
    ("connected", 2_000_000, 0.5), ("connected", 1_000_000, 0.25),
)


@dataclass(frozen=True)
class McJob:
    labels: tuple
    counts: tuple
    trials: int
    seed: int


@dataclass(frozen=True)
class VesselJob:
    mode: str
    trials: int
    seed: int
    capacity: float
    threshold: float


def mc_specs(seed: int) -> list:
    rng = _rng("mc-simulate", seed)
    specs: list = []
    for n, trials, zeros in MC_JOBS:
        counts = [rng.randint(1, 1000) for _ in range(n)]
        for j in rng.sample(range(n), zeros):
            counts[j] = 0
        specs.append(McJob(_labels(rng, n), tuple(counts), trials, rng.randrange(2**32)))
    for mode, trials, share in VESSEL_JOBS:
        capacity = float(rng.randint(10, 40))
        specs.append(VesselJob(mode, trials, rng.randrange(2**32), capacity, capacity * share))
    return specs


def _mc_prepare(spec):
    if isinstance(spec, McJob):
        table = cr.CountTable(cr.OutcomeSet(spec.labels), spec.counts)
        return spec, table, cr.ContextId("bench", "generated", "counts")
    return spec, cr.VesselsConfig(
        spec.mode, spec.trials, spec.seed, spec.capacity, spec.threshold
    )


def _mc_run(inputs):
    spec = inputs[0]
    if isinstance(spec, McJob):
        _, table, ctx = inputs
        v = cr.build_real_context(cr.probabilities_from_counts(table), ctx)
        return cr.monte_carlo_measurement(v, spec.trials, spec.seed)
    return cr.simulate_vessels(inputs[1])


def vessel_probabilities(spec: VesselJob) -> dict:
    """Exact outcome probabilities of the two-vessel experiment (threshold <= c/2)."""
    c, t = spec.capacity, spec.threshold
    if spec.mode == "separate":
        q = (c - t) / c
        return {"MM": q * q, "ML": q * (1 - q), "LM": (1 - q) * q, "LL": (1 - q) ** 2}
    # connected: the right side holds c - left, so MM needs t < left < c - t.
    return {"MM": (c - 2 * t) / c, "ML": t / c, "LM": t / c, "LL": 0.0}


def mc_check(spec, result) -> list:
    problems = []
    if isinstance(spec, McJob):
        if result.trials != spec.trials:
            problems.append(f"trials {result.trials} != {spec.trials}")
        if sum(result.counts) + result.boundary_hits != spec.trials:
            problems.append("counts plus boundary hits do not equal trials")
        det = spec.trials - result.boundary_hits
        total = sum(spec.counts)
        for label, c, expected in zip(spec.labels, result.counts, spec.counts):
            if not _within_sigma(c, det, expected / total):
                problems.append(f"count {c} for {label} beyond {SIGMA_MULTIPLE} sigma")
        return problems
    counts = result.as_mapping()
    if sum(counts.values()) != spec.trials:
        problems.append("vessel outcome counts do not sum to trials")
    if spec.mode == "connected" and spec.threshold == spec.capacity / 2:
        if counts["MM"] or counts["LL"]:
            problems.append("connected vessels at half capacity produced MM or LL")
    for key, p in vessel_probabilities(spec).items():
        if not _within_sigma(counts[key], spec.trials, p):
            problems.append(f"vessel count {key}={counts[key]} beyond {SIGMA_MULTIPLE} sigma")
    return problems


def _mc_fingerprint(result) -> bytes:
    if isinstance(result, cr.MonteCarloMeasurement):
        return repr((result.counts, result.boundary_hits)).encode()
    return repr(sorted(result.as_mapping().items())).encode()


def mc_simulate(seed: int) -> Workload:
    return Workload("mc-simulate", mc_specs(seed), _mc_prepare, _mc_run, mc_check,
                    _mc_fingerprint)


# ---------------------------------------------------------------------------
# decide-exact
#
# Why: the quartic `Fraction` minor loops in `joint` (the witness search in
# is_product and the full search in factorization_certificate) dominate and
# `simplex` is idle.  An exact-kernel change (ROADMAP item 2) should move
# this workload; tables with counts above 2^31.5 overflow int64 in
# max(C)^2, so both sides of an int64 / Python-int fallback are exercised.
# ---------------------------------------------------------------------------

#: Every shape up to 8x8 (98 of the 122 tables in a round) puts latency_p50_ms
#: inside the small tables and latency_p90_ms inside the dense run of mid
#: sizes, so neither rests on a single shape or on a gap between sizes.
SMALL_SHAPES = tuple((n, m) for n in range(2, 9) for m in range(2, 9))
MID_SHAPES = ((9, 9), (10, 10), (10, 12), (11, 11), (12, 12), (12, 14), (13, 13),
              (14, 14), (15, 15), (16, 16))
LARGE_SHAPES = ((24, 24), (32, 32))

#: Largest side for which the check repeats the witness search itself.
WITNESS_SEARCH_LIMIT = 8


@dataclass(frozen=True)
class TableJob:
    label: str  # "product" or "entangled", by construction
    rows: tuple
    cols: tuple
    counts: tuple


def _decide_plan() -> list:
    """(shape, label, entangled variant, zero line, big counts), fixed per round."""
    plan = []
    for i, shape in enumerate(SMALL_SHAPES):
        for label in ("product", "entangled"):
            plan.append((shape, label, ("random", "perturbed")[i % 2], i % 3 == 1, i % 4 == 2))
    for i, shape in enumerate(MID_SHAPES):
        for label in ("product", "entangled"):
            plan.append((shape, label, ("random", "perturbed")[i % 2], i % 3 == 2, i % 4 == 1))
    for shape in LARGE_SHAPES:
        for label in ("product", "entangled"):
            big = shape == (24, 24) and label == "product"
            plan.append((shape, label, "perturbed", shape == (24, 24), big))
    return plan


def _factor(rng: random.Random, size: int, big: bool) -> list:
    # Big factors give cells of at least 2^32, past the 2^31.5 at which
    # max(C)^2 overflows a signed 64-bit integer.
    low, high = (2**16, 2**17) if big else (1, 60)
    return [rng.randint(low, high) for _ in range(size)]


def _table(rng, shape, label, variant, zero, big) -> list:
    """One count table.  The zero row (first) and column (last) and the
    perturbed cell (the centre) sit at fixed places: the certificate's early
    exit scans up to the first nonzero minor, so a random place would make a
    round's cost depend on the seed."""
    n, m = shape
    zero = zero and (label == "product" or n > 2)  # two rows, one zero: always rank one
    if label == "product" or variant == "perturbed":
        u, v = _factor(rng, n, big), _factor(rng, m, big)
        counts = [[a * b for b in v] for a in u]
        if label == "entangled":
            counts[n // 2][m // 2] += rng.randint(1, 50)
    else:
        high = 2**34 if big else 1000
        counts = [[rng.randint(0, high) for _ in range(m)] for _ in range(n)]
    if zero:
        counts[0] = [0] * m
        if m > 2:
            for row in counts:
                row[-1] = 0
    return counts


def decide_specs(seed: int) -> list:
    rng = _rng("decide-exact", seed)
    specs = []
    for shape, label, variant, zero, big in _decide_plan():
        while True:  # redraw the rare table whose rank contradicts its label
            counts = _table(rng, shape, label, variant, zero, big)
            if is_rank_one(counts) == (label == "product"):
                break
        specs.append(TableJob(label, _labels(rng, shape[0]), _labels(rng, shape[1]),
                              tuple(tuple(row) for row in counts)))
    return specs


def _decide_prepare(spec):
    return cr.OutcomeSet(spec.rows), cr.OutcomeSet(spec.cols), spec.counts


def _decide_run(inputs):
    t = cr.JointTable.from_counts(*inputs)
    report = cr.is_product(t)
    cert = cr.factorization_certificate(t)
    real, vector = cr.build_joint_vectors(t)
    return report, cert, real, vector


def _minor(c, j, j2, k, k2) -> int:
    return c[j][k] * c[j2][k2] - c[j][k2] * c[j2][k]


def decide_check(spec, result) -> list:
    report, cert, real, vector = result
    c = spec.counts
    n, m = len(spec.rows), len(spec.cols)
    total = sum(map(sum, c))
    problems = []
    if report.verdict != spec.label:
        problems.append(f"verdict {report.verdict} != constructed {spec.label}")
    if report.arithmetic != "exact":
        problems.append("count table not decided in exact arithmetic")
    if (cert is None) != (spec.label == "entangled"):
        problems.append("certificate presence contradicts the construction")
    if cert is not None:
        row, col = cert
        if any(row.probs[j] * col.probs[k] != Fraction(c[j][k], total)
               for j in range(n) for k in range(m)):
            problems.append("certificate outer product differs from the table")
    w = report.witness
    if (w is None) != (spec.label == "product"):
        problems.append("witness presence contradicts the construction")
    if w is not None:
        (j, j2), (k, k2) = w.rows, w.cols
        if not (0 <= j < j2 < n and 0 <= k < k2 < m):
            problems.append(f"witness cites cells outside the table: {w.rows} {w.cols}")
        else:
            value = Fraction(_minor(c, j, j2, k, k2), total * total)
            if value == 0 or w.value != value:
                problems.append(f"witness value {w.value} != recomputed {value}")
            if w.row_labels != (spec.rows[j], spec.rows[j2]) or w.col_labels != (
                spec.cols[k], spec.cols[k2]
            ):
                problems.append("witness labels do not match its cells")
            if n <= WITNESS_SEARCH_LIMIT and m <= WITNESS_SEARCH_LIMIT:
                best = max(abs(_minor(c, a, a2, b, b2))
                           for a, a2 in combinations(range(n), 2)
                           for b, b2 in combinations(range(m), 2))
                if abs(_minor(c, j, j2, k, k2)) != best:
                    problems.append("witness is not a minor of maximal absolute value")
    if list(real) != [Fraction(x, total) for row in c for x in row]:
        problems.append("joint real vector differs from the table")
    if abs(sum(a * a for a in vector.moduli()) - 1.0) > SUM_CHECK:
        problems.append("joint amplitudes are not a unit vector")
    return problems


def _decide_fingerprint(result) -> bytes:
    report, cert, real, vector = result
    out = {
        "report": report.to_json_dict(),
        "certificate": None if cert is None else [[str(x) for x in p.probs] for p in cert],
        "real": [str(x) for x in real],
        "vector": vector.to_json_dict(),
    }
    return json.dumps(out, sort_keys=True).encode()


def decide_exact(seed: int) -> Workload:
    return Workload("decide-exact", decide_specs(seed), _decide_prepare, _decide_run,
                    decide_check, _decide_fingerprint)


# ---------------------------------------------------------------------------
# cli-reports
#
# Why: one in-process `contextrep.cli.main` call per report, 2-9 ms each, so
# per-report fixed cost dominates: argparse, parsing, dataclass validation,
# building and writing JSON.  This is what a CLI user waits for, where the
# CLI clean-ups and provenance hashing of ROADMAP items 4 and 5 add or remove
# cost, and the only workload that runs the float path of `joint`.  Kernels
# do little work here.
# ---------------------------------------------------------------------------

#: Every report is written here, relative to the work directory.
OUTPUT = "out.json"

REPRESENT_SIZES = tuple(range(2, 13))
PHASED_SIZES = (3, 5, 8, 11)
SIMULATE_JOBS = ((2, 1000), (3, 2000), (4, 5000), (6, 1000), (2, 5000), (3, 1000),
                 (5, 2000), (8, 5000))
JOINT_SHAPES = ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 4))
FLOAT_SHAPES = ((2, 2), (3, 3), (5, 5))
VESSEL_REPORTS = (("separate", 2000, 0.5), ("connected", 3000, 0.5),
                  ("connected", 1000, 0.25), ("separate", 5000, 0.4))

#: (command, file name, file text, expected exit code): inputs the CLI must refuse.
MALFORMED = (
    ("represent", "bad_header.csv", "name,count\na,1\n", 2),
    ("represent", "not_integer.csv", "label,count\na,1.5\nb,2\n", 2),
    ("simulate", "truncated.json", '{"a": 1,', 2),
    ("represent", "absent.csv", None, 2),
    ("entanglement", "bool_count.json", '{"rows": ["r"], "cols": ["c"], "counts": [[true]]}', 2),
    ("represent", "duplicate.csv", "label,count\na,1\na,2\n", 3),
    ("simulate", "zero_total.csv", "label,count\na,0\nb,0\n", 3),
    ("represent", "negative.json", '{"a": 3, "b": -1}', 3),
    ("entanglement", "ragged.csv", "row_label,col_label,count\nr,c,1\nr,d,2\ns,c,3\n", 3),
)


@dataclass(frozen=True)
class CliJob:
    argv: tuple
    expect_exit: int
    expect: dict  # what the report must say, by kind
    files: tuple  # (name, text) pairs written to the work directory at set-up


def _counts_text(labels, counts, as_json: bool) -> str:
    if as_json:
        return json.dumps(dict(zip(labels, counts)))
    return "label,count\n" + "".join(f"{l},{c}\n" for l, c in zip(labels, counts))


def _joint_text(rows, cols, counts, as_json: bool) -> str:
    if as_json:
        return json.dumps({"rows": list(rows), "cols": list(cols),
                           "counts": [list(r) for r in counts]})
    return "row_label,col_label,count\n" + "".join(
        f"{r},{c},{counts[j][k]}\n" for j, r in enumerate(rows) for k, c in enumerate(cols)
    )


def _positive_counts(rng, n: int) -> list:
    counts = [rng.randint(0, 200) for _ in range(n)]
    counts[rng.randrange(n)] = rng.randint(1, 200)
    return counts


def cli_specs(seed: int) -> list:
    rng = _rng("cli-reports", seed)
    specs = []
    for i, n in enumerate(REPRESENT_SIZES):
        labels, counts = _labels(rng, n), _positive_counts(rng, n)
        name = f"rep{i}." + ("json" if i % 2 else "csv")
        files = [(name, _counts_text(labels, counts, i % 2 == 1))]
        argv = ["represent", name]
        if n in PHASED_SIZES:
            phases = {l: round(rng.uniform(0, 2 * math.pi), 6)
                      for l in rng.sample(labels, n // 2 + 1)}
            files.append((f"phases{i}.json", json.dumps(phases)))
            argv += ["--phases", f"phases{i}.json"]
        specs.append(CliJob(tuple(argv + ["--output", OUTPUT]), 0,
                            {"kind": "represent", "labels": labels, "counts": tuple(counts)},
                            tuple(files)))
    for i, (n, trials) in enumerate(SIMULATE_JOBS):
        labels = _labels(rng, n)
        counts = [rng.randint(1, 200) for _ in range(n)]
        name = f"sim{i}." + ("csv" if i % 2 else "json")
        argv = ("simulate", name, "--trials", str(trials), "--seed", str(rng.randrange(10**6)),
                "--output", OUTPUT)
        specs.append(CliJob(argv, 0, {"kind": "simulate", "labels": labels,
                                      "counts": tuple(counts), "trials": trials},
                            ((name, _counts_text(labels, counts, i % 2 == 0)),)))
    joint = [(shape, False) for shape in JOINT_SHAPES] + [(s, True) for s in FLOAT_SHAPES]
    for i, (shape, use_float) in enumerate(joint):
        variant = ("random", "perturbed")[i % 2]
        for label in ("product", "entangled"):
            while True:
                counts = _table(rng, shape, label, variant, i % 3 == 2, False)
                if is_rank_one(counts) == (label == "product"):
                    break
            rows, cols = _labels(rng, shape[0]), _labels(rng, shape[1])
            name = f"joint{i}{label[0]}." + ("json" if i % 2 else "csv")
            argv = ["entanglement", name, "--output", OUTPUT] + (["--float"] if use_float else [])
            specs.append(CliJob(tuple(argv), 0,
                                {"kind": "entanglement", "label": label,
                                 "arithmetic": "float" if use_float else "exact"},
                                ((name, _joint_text(rows, cols, counts, i % 2 == 1)),)))
    for argv in (("scenario", "animal-acts"), ("scenario", "animal-acts", "--float")):
        specs.append(CliJob(argv + ("--output", OUTPUT), 0,
                            {"kind": "animal-acts", "float": "--float" in argv}, ()))
    for mode, trials, share in VESSEL_REPORTS:
        capacity = float(rng.randint(10, 40))
        threshold = capacity * share
        argv = ("scenario", "vessels", "--mode", mode, "--trials", str(trials),
                "--seed", str(rng.randrange(10**6)), "--capacity", repr(capacity),
                "--threshold", repr(threshold), "--output", OUTPUT)
        specs.append(CliJob(argv, 0, {"kind": "vessels", "mode": mode, "trials": trials,
                                      "capacity": capacity, "threshold": threshold}, ()))
    for command, name, text, code in MALFORMED:
        files = () if text is None else ((name, text),)
        specs.append(CliJob((command, name, "--output", OUTPUT), code,
                            {"kind": "malformed"}, files))
    # A phases file naming an outcome the counts do not have is a semantic error.
    labels = _labels(rng, 3)
    specs.append(CliJob(("represent", "phased.csv", "--phases", "stray.json", "--output", OUTPUT),
                        3, {"kind": "malformed"},
                        (("phased.csv", _counts_text(labels, [1, 2, 3], False)),
                         ("stray.json", json.dumps({"zz" + labels[0]: 1.0})))))
    return specs


def _cli_run(argv):
    try:
        return contextrep.cli.main(argv)
    except SystemExit as exc:  # argparse refusals exit instead of returning
        return exc.code


def _cli_collect(code):
    """Read the report back (outside the timed call) and clear it for the next op."""
    try:
        with open(OUTPUT, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return code, None
    os.remove(OUTPUT)
    return code, data


def _born_sum_ok(probabilities) -> bool:
    return abs(sum(probabilities) - 1.0) <= SUM_CHECK


def _report_problems(spec, report: dict) -> list:
    e = spec.expect
    kind = e["kind"]
    if kind == "represent":
        total = sum(e["counts"])
        exact = {l: v["exact"] for l, v in report["real_vector"].items()}
        problems = []
        if report["counts"] != dict(zip(e["labels"], e["counts"])):
            problems.append("represent echoes the wrong counts")
        if exact != {l: str(Fraction(c, total)) for l, c in zip(e["labels"], e["counts"])}:
            problems.append("represent real vector differs from counts / total")
        if not _born_sum_ok(report["born_probabilities"].values()):
            problems.append("Born probabilities do not sum to 1")
        return problems
    if kind == "simulate":
        trials, det = report["trials"], report["trials"] - report["boundary_hits"]
        total = sum(e["counts"])
        problems = [] if trials == e["trials"] else ["simulate ran the wrong number of trials"]
        rule = True
        for label, c in zip(e["labels"], e["counts"]):
            p, f = c / total, report["frequencies"][label]
            if report["target"][label] != p:
                problems.append(f"simulate target for {label} is not {p}")
            # The report's 3-sigma rule fails by chance ~0.3% per outcome, so
            # the check recomputes it rather than demanding it pass.
            rule = rule and abs(f - p) <= 3.0 * math.sqrt(p * (1 - p) / trials)
            if not _within_sigma(round(f * det), det, p):
                problems.append(f"simulated frequency for {label} beyond {SIGMA_MULTIPLE} sigma")
        if report["pass"] is not rule:
            problems.append("simulate pass flag disagrees with its 3-sigma rule")
        return problems
    verdict = report["report"]["verdict"]
    witness = report["report"]["witness"]
    problems = []
    if (witness is None) != (verdict == "product"):
        problems.append("witness presence contradicts the verdict")
    moduli = report["joint_complex_vector"]["moduli"]
    if not _born_sum_ok(m * m for m in moduli):
        problems.append("joint Born probabilities do not sum to 1")
    if kind == "entanglement":
        if verdict != e["label"]:
            problems.append(f"verdict {verdict} != constructed {e['label']}")
        if report["report"]["arithmetic"] != e["arithmetic"]:
            problems.append("report ran the wrong arithmetic")
    elif kind == "animal-acts":
        if verdict != "entangled":
            problems.append("animal-acts verdict is not entangled")
        if not e["float"] and witness["value_exact"] != "-1051/6561":
            problems.append("animal-acts witness is not -1051/6561")
    elif kind == "vessels":
        counts = report["outcome_counts"]
        if sum(counts.values()) != e["trials"]:
            problems.append("vessel outcome counts do not sum to trials")
        if e["mode"] == "connected" and e["threshold"] == e["capacity"] / 2:
            if counts["MM"] or counts["LL"] or verdict != "entangled":
                problems.append("connected vessels at half capacity are not anticorrelated")
    return problems


def cli_check(spec, result) -> list:
    code, data = result
    if code != spec.expect_exit:
        return [f"exit code {code} != expected {spec.expect_exit}"]
    if spec.expect_exit != 0:
        return [] if data is None else ["a refused input still wrote a report"]
    if data is None:
        return ["no report written"]
    try:
        report = json.loads(data)
    except ValueError:
        return ["report is not valid JSON"]
    return _report_problems(spec, report)


def _cli_fingerprint(result) -> bytes:
    code, data = result
    return str(code).encode() + b"\0" + (data or b"")


def _cli_layer_counts(spec, result) -> dict:
    code, data = result
    return {"cli.bytes_written": len(data or b""),
            "cli.expected_errors": int(spec.expect_exit != 0 and code == spec.expect_exit)}


def cli_reports(seed: int) -> Workload:
    specs = cli_specs(seed)
    files = {name: text for spec in specs for name, text in spec.files}
    return Workload("cli-reports", specs, lambda spec: list(spec.argv), _cli_run, cli_check,
                    _cli_fingerprint, collect=_cli_collect, files=files,
                    layer_counts=_cli_layer_counts)


WORKLOADS = {
    "mc-simulate": mc_simulate,
    "decide-exact": decide_exact,
    "cli-reports": cli_reports,
}
