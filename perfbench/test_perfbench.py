"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import contextrep as cr  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    make = workloads.WORKLOADS[name]
    first, again, other = make(7), make(7), make(8)
    assert first.specs == again.specs
    assert first.files == again.files
    assert first.specs != other.specs


def _run(wl, spec):
    return wl.collect(wl.run(wl.prepare(spec)))


def test_mc_check_rejects_wrong_counts():
    wl = workloads.mc_simulate(1)
    job = workloads.McJob(("a", "b", "c"), (5, 0, 3), 20_000, 11)
    mc = _run(wl, job)
    assert workloads.mc_check(job, mc) == []
    shifted = (mc.counts[0] + 1,) + mc.counts[1:]
    assert workloads.mc_check(job, dataclasses.replace(mc, counts=shifted))
    forbidden = (mc.counts[0] - 1, 1, mc.counts[2])  # outcome b has probability zero
    assert workloads.mc_check(job, dataclasses.replace(mc, counts=forbidden))
    skewed = (mc.counts[0] - 2000, 0, mc.counts[2] + 2000)
    assert workloads.mc_check(job, dataclasses.replace(mc, counts=skewed))


def test_vessel_check_rejects_mm_in_connected_mode():
    wl = workloads.mc_simulate(1)
    job = workloads.VesselJob("connected", 10_000, 3, 20.0, 10.0)
    counts = _run(wl, job)
    assert workloads.mc_check(job, counts) == []
    assert counts.mm == counts.ll == 0
    broken = dataclasses.replace(counts, mm=1, ml=counts.ml - 1)
    assert workloads.mc_check(job, broken)


def _table_job(label, counts):
    rows = tuple(f"r{j}" for j in range(len(counts)))
    cols = tuple(f"c{k}" for k in range(len(counts[0])))
    return workloads.TableJob(label, rows, cols, tuple(map(tuple, counts)))


def test_decide_check_rejects_flipped_verdict_and_bad_evidence():
    wl = workloads.decide_exact(1)
    entangled = _table_job("entangled", [[4, 51, 7], [21, 5, 9], [3, 3, 30]])
    report, cert, real, vector = result = _run(wl, entangled)
    assert workloads.decide_check(entangled, result) == []
    flipped = dataclasses.replace(report, verdict="product", witness=None)
    assert workloads.decide_check(entangled, (flipped, cert, real, vector))
    w = report.witness
    wrong_value = dataclasses.replace(report, witness=dataclasses.replace(w, value=2 * w.value))
    assert workloads.decide_check(entangled, (wrong_value, cert, real, vector))
    weaker = [
        (j, j2, k, k2) for j, j2 in ((0, 1), (0, 2), (1, 2)) for k, k2 in ((0, 1), (0, 2), (1, 2))
        if (j, j2, k, k2) != (w.rows + w.cols)
    ][0]
    j, j2, k, k2 = weaker
    p = [[Fraction(c, 133) for c in row] for row in entangled.counts]
    not_max = cr.MinorWitness((j, j2), (k, k2), (f"r{j}", f"r{j2}"), (f"c{k}", f"c{k2}"),
                              p[j][k] * p[j2][k2] - p[j][k2] * p[j2][k])
    assert abs(not_max.value) < abs(w.value)
    assert workloads.decide_check(
        entangled, (dataclasses.replace(report, witness=not_max), cert, real, vector))

    product = _table_job("product", [[2, 4, 0], [3, 6, 0]])
    report, cert, real, vector = result = _run(wl, product)
    assert workloads.decide_check(product, result) == []
    row, col = cert
    uniform = cr.ProbabilityVector(col.outcomes, (Fraction(1, 3),) * 3)
    assert workloads.decide_check(product, (report, (row, uniform), real, vector))
    assert workloads.decide_check(product, (report, None, real, vector))


def test_cli_check_rejects_wrong_reports(tmp_path, monkeypatch):
    wl = workloads.cli_reports(1)
    for name, text in wl.files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    by_kind = {}
    for spec in wl.specs:
        by_kind.setdefault(spec.expect["kind"], spec)
    results = {kind: _run(wl, spec) for kind, spec in by_kind.items()}
    for kind, spec in by_kind.items():
        assert workloads.cli_check(spec, results[kind]) == [], kind

    def edited(kind, edit):
        code, data = results[kind]
        report = json.loads(data)
        edit(report)
        return code, json.dumps(report).encode()

    def flip_verdict(r):
        r["report"]["verdict"] = "product" if r["report"]["verdict"] == "entangled" else "entangled"

    def flip_pass(r):
        r["pass"] = not r["pass"]

    def skew_born(r):
        first = next(iter(r["born_probabilities"]))
        r["born_probabilities"][first] += 0.01

    assert workloads.cli_check(by_kind["entanglement"], edited("entanglement", flip_verdict))
    assert workloads.cli_check(by_kind["simulate"], edited("simulate", flip_pass))
    assert workloads.cli_check(by_kind["represent"], edited("represent", skew_born))
    code, data = results["represent"]
    assert workloads.cli_check(by_kind["represent"], (3, data))
    assert workloads.cli_check(by_kind["malformed"], (0, b"{}"))


def _result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(RUN + ["--workload", "cli-reports", "--seed", "3", "--seconds", "0.2",
                                "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = _result_line(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-reports",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
