"""contextrep benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload decide-exact --seed 1 --seconds 30 --trace 0

Workloads are generated from ``--seed`` (see ``workloads.py``) and driven
through the public API of the ``contextrep`` package under ``src/``, one
operation at a time in a closed loop: one caller, no think time.  Whole
rounds of the workload run until ``--seconds`` of operation time is measured.
Every output is checked: the first output of each operation in full, every
later one by comparing its fingerprint with the first, since the same inputs
and seed must give byte-identical results.  A failed check, an unexpected
exception or a wrong exit code counts the operation as failed.

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs half the time untraced, then the same number of rounds
with a span around each call into a layer, and reports the per-layer metrics
(totals per round) plus the tracing overhead.  Spans and a result record with
machine info go to ``.perfbench-run/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# Cap BLAS/OpenMP pools before numpy loads, so the numbers measure the
# program and not the thread scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"

#: Fresh interpreters launched to time `import contextrep`; the median is reported.
SETUP_LAUNCHES = 9
#: Untimed operations before measuring, so caches and lazy set-up are warm.
WARMUP_SECONDS = 1.0


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "contextrep" / "__init__.py").is_file():
        _fail(f"no contextrep sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import contextrep

    if Path(contextrep.__file__).resolve().parent != SRC / "contextrep":
        _fail(f"imported contextrep from {contextrep.__file__}, not from {SRC}")
    return contextrep


def machine_info(contextrep) -> dict:
    import numpy

    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "contextrep": contextrep.__version__,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


def measure_setup() -> list:
    """Wall seconds for fresh interpreters to import contextrep, as a CLI run pays."""
    cmd = [sys.executable, "-c", "import contextrep"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # compiles bytecode once, untimed
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


class Runner:
    """Executes operations of one workload and keeps the failure accounting."""

    def __init__(self, workload):
        self.wl = workload
        self.inputs = [workload.prepare(spec) for spec in workload.specs]
        self.fingerprints = [None] * len(workload.specs)
        self.verdicts = [None] * len(workload.specs)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.counts: Counter = Counter()
        self._stderr = io.StringIO()

    def execute(self, i: int, tracer=None) -> int:
        """Run op i once; returns its latency in ns (the API call alone)."""
        wl = self.wl
        self._stderr.seek(0)
        self._stderr.truncate()
        span = tracer.open_op(i) if tracer else None
        with contextlib.redirect_stderr(self._stderr):
            start = time.perf_counter_ns()
            try:
                raw, error = wl.run(self.inputs[i]), None
            except Exception as exc:  # any escape from the API is a failed op
                raw, error = None, exc
            end = time.perf_counter_ns()
        if tracer:
            tracer.close_op(span, start, end)
            tracer.run_probes(i)
        self.attempted += 1
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        else:
            result = wl.collect(raw)
            fp = wl.fingerprint(result)
            if fp == self.fingerprints[i]:
                # Byte-identical to an output already checked: same verdict.
                problems = self.verdicts[i]
            else:
                problems = self._check(i, result)
                if self.fingerprints[i] is None:
                    self.fingerprints[i], self.verdicts[i] = fp, problems
                else:
                    problems.append("output differs from an earlier run of the same op")
            if tracer and wl.layer_counts:
                self.counts.update(wl.layer_counts(wl.specs[i], result))
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append((i, problems, self._stderr.getvalue().strip()))
        return end - start

    def _check(self, i: int, result) -> list:
        try:
            return self.wl.check(self.wl.specs[i], result)
        except Exception as exc:  # a malformed output is a failed op, not a crash
            return [f"check raised {type(exc).__name__}: {exc}"]

    def warm_up(self) -> None:
        deadline = time.perf_counter() + WARMUP_SECONDS
        for i in range(len(self.wl.specs)):
            self.execute(i)
            if time.perf_counter() >= deadline:
                break

    def timed_pass(self, seconds: float | None = None, rounds: int | None = None,
                   tracer=None) -> dict:
        """Whole rounds until `seconds` of op time, or exactly `rounds` rounds."""
        gc.collect()
        latencies: list = []
        done = 0
        while True:
            latencies += [self.execute(i, tracer) for i in range(len(self.wl.specs))]
            done += 1
            if (done >= rounds) if rounds is not None else (sum(latencies) >= seconds * 1e9):
                break
        busy_s = sum(latencies) / 1e9
        return {"latencies_ns": latencies, "rounds": done, "busy_s": busy_s,
                "ops_per_s": len(latencies) / busy_s}


def end_to_end(pass_: dict, setup_times: list) -> dict:
    ms = [ns / 1e6 for ns in pass_["latencies_ns"]]
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return {
        "ops_per_s": (pass_["ops_per_s"], "1/s"),
        "latency_p50_ms": (deciles[4], "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    contextrep = _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    info = machine_info(contextrep)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    setup_times = measure_setup() if args.trace == 0 else []

    wl = workloads.WORKLOADS[args.workload](args.seed)
    RUN_DIR.mkdir(exist_ok=True)
    work = RUN_DIR / f"work-{os.getpid()}"
    work.mkdir()
    cwd = os.getcwd()
    try:
        for name, text in wl.files.items():
            (work / name).write_text(text, encoding="utf-8")
        os.chdir(work)  # reports embed input paths, so they are relative and fixed
        runner = Runner(wl)
        runner.warm_up()
        if args.trace == 0:
            measured = runner.timed_pass(seconds=args.seconds)
            metrics = end_to_end(measured, setup_times)
        else:
            untraced = runner.timed_pass(seconds=args.seconds / 2)
            tracer = tracing.Tracer()
            with tracer.installed():
                measured = runner.timed_pass(rounds=untraced["rounds"], tracer=tracer)
            metrics = tracing.layer_metrics(tracer, measured["rounds"], measured["ops_per_s"],
                                            untraced["ops_per_s"], runner.counts)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    digest = wl.digest(runner.fingerprints)

    samples = len(measured["latencies_ns"])
    error_rate = runner.failed / runner.attempted
    print(f"ops: {samples} samples in {measured['rounds']} rounds of {len(wl.specs)} ops, "
          f"{measured['busy_s']:.3f} s measured; attempted={runner.attempted} "
          f"failed={runner.failed} error_rate={error_rate:g}")
    if setup_times:
        print(f"setup: {len(setup_times)} launches, "
              + " ".join(f"{t:.4f}" for t in sorted(setup_times)))
    print(f"digest: sha256={digest}")
    for i, problems, stderr in runner.problems:
        print(f"FAILED op {i}: {'; '.join(problems)}" + (f" [stderr: {stderr}]" if stderr else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    # Not a result-line metric: it is 0 on a correct run, and the result line
    # carries it as failed / attempted.
    print(f"  error_rate = {error_rate:g} ratio")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "digest": digest, "samples": samples,
              "rounds": measured["rounds"], "attempted": runner.attempted,
              "failed": runner.failed, "error_rate": error_rate, "setup_times_s": setup_times,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (RUN_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace == 1:
        tracer.write(RUN_DIR / f"trace-{stem}.json")

    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
