"""Benchmark for nptcert: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 nptbench/run.py --workload {certify-5x5,scan-3x3,witness-files} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it times set-up in fresh worker processes, then runs one
worker that sends requests in a closed loop for ``S`` seconds, checks every
output with ``checks.py`` and prints the end-to-end metrics.  With
``--trace 1`` one worker sends each request of a fixed list twice, untraced
and traced, and the per-layer metrics are printed instead.  Run metadata and one
line per metric go first; the last line of stdout is the JSON result.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

from worker import LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")

# Every worker runs BLAS on one thread, so a run uses one core at a time.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# Fresh processes timed for setup_s, the measured worker included.
SETUP_SAMPLES = 5

# Every worker is killed once the run has taken this long.
RUN_BUDGET_S = 170.0

# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

# Layer groups reported by self time only.
SELF_TIME_ONLY = ("harness.campaign", "cli.dispatch")


class BenchError(RuntimeError):
    """The benchmark could not run to the end."""


def layer_groups() -> list[str]:
    return list(dict.fromkeys(group for _, _, group, _ in LAYERS))


def tail_latency(latencies) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the tail sample.

    The tail sample has exactly ``TAIL_BEYOND`` samples above it; a run with
    fewer samples than that reports its maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _git_rev() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "nptcert")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _numpy_build(kind: str) -> str:
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"][kind]
        return f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def run_metadata() -> dict:
    return {
        "git_rev": _git_rev(),
        "source_sha256_16": _source_digest(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _numpy_build("blas"),
        "lapack": _numpy_build("lapack"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "worker_blas_threads": BLAS_THREADS,
    }


class Runner:
    """Spawns workers for one benchmark run inside its own work directory."""

    def __init__(self, work_dir: str, spec: dict):
        self.work_dir = work_dir
        self.spec_path = os.path.join(work_dir, "spec.json")
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.spawned = 0

    def spawn(self, mode: str) -> tuple[float, dict | None]:
        """Run one worker to its end; returns (set-up seconds, result)."""
        self.spawned += 1
        result_path = os.path.join(self.work_dir, f"result{self.spawned}.json")
        log_path = os.path.join(self.work_dir, f"worker{self.spawned}.log")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--spec", self.spec_path, "--mode", mode, "--result", result_path]
        env = dict(os.environ, **BLAS_THREADS)
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log) as proc:
                watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
                watchdog.start()
                try:
                    line = proc.stdout.readline()
                    setup_s = time.perf_counter() - start
                    proc.stdout.read()
                    code = proc.wait()
                finally:
                    watchdog.cancel()
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
        if line.strip() != b"ready" or code != 0:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"worker ({mode}) exited with {code}:\n{tail}")
        if mode == "setup":
            return setup_s, None
        with open(result_path, encoding="utf-8") as fh:
            return setup_s, json.load(fh)


def check_outputs(workload, requests) -> tuple[int, list[str]]:
    """Failed request count and the first problems, over ``(code, latency)`` pairs."""
    failed = 0
    problems = []
    for i, (code, _) in enumerate(requests):
        found = [f"exit code {code}"] if code != 0 else []
        try:
            found += workload.check(i)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found.append(f"unreadable output: {exc!r}")
        if found:
            failed += 1
            problems.extend(f"request {i}: {p}" for p in found)
    return failed, problems[:20]


@dataclass
class Outcome:
    """What one run measured: metrics as name -> (value, unit), plus notes."""

    metrics: dict
    notes: dict
    attempted: int
    failed: int
    problems: list


def end_to_end(runner: Runner, workload) -> Outcome:
    setups = [runner.spawn("setup")[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, result = runner.spawn("run")
    setups.append(setup_s)
    requests = result["requests"]
    failed, problems = check_outputs(workload, requests)
    latencies = [lat for _, lat in requests]
    tail, tail_pct, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "trials_per_s": (len(requests) * workload.trials_per_request / result["elapsed_s"], "1/s"),
        "request_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "request_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
    }
    notes = {
        "setup_samples_s": [round(s, 4) for s in setups],
        "requests": len(requests),
        "trials_per_request": workload.trials_per_request,
        "request_tail_percentile": round(tail_pct, 2),
        "request_tail_samples_beyond": beyond,
    }
    return Outcome(metrics, notes, len(requests), failed, problems)


def per_layer(runner: Runner, workload) -> Outcome:
    _, result = runner.spawn("trace")
    requests = result["requests"]
    count = len(requests) // 2
    # Both sends of a request write the same output file; the check reads
    # the later one.
    failed, problems = check_outputs(workload, requests[count:])
    failed += sum(1 for code, _ in requests[:count] if code != 0)
    if result["leftover_wrappers"]:
        problems.append(f"wrappers left after the traced run: {result['leftover_wrappers']}")
    trials = count * workload.trials_per_request
    groups, calls, counters = result["groups"], result["calls"], result["counters"]
    metrics = {}
    for group in layer_groups():
        if group not in groups:
            continue
        if group not in SELF_TIME_ONLY:
            metrics[f"{group}.calls"] = (calls.get(group, 0) / trials, "count/trial")
        metrics[f"{group}.self_s"] = (result["self_s"].get(group, 0.0) / trials, "s/trial")
    if "linalg.hermitian_eig" in groups:
        dim3 = counters.get("linalg.hermitian_eig.dim_cubed_sum", 0)
        metrics["linalg.hermitian_eig.dim_cubed_sum"] = (dim3 / trials, "count/trial")
    if "witness.certify" in groups:
        certified = calls.get("witness.certify", 0)
        by_witness = counters.get("witness.decided_by_witness", 0)
        metrics["witness.decided_by_witness_ratio"] = (by_witness / certified if certified else 0.0, "1")
    metrics["trace.overhead_ratio"] = (result["untraced_s"] / result["traced_s"], "1")
    prefix = "linalg.hermitian_eig.calls_at_dim."
    notes = {
        "requests_per_pass": count,
        "trials_per_pass": trials,
        "untraced_s": round(result["untraced_s"], 4),
        "traced_s": round(result["traced_s"], 4),
        "absent_groups": [g for g in layer_groups() if g not in groups],
        "hermitian_eig_calls_per_trial_by_dim": dict(sorted(
            (int(key[len(prefix):]), value / trials)
            for key, value in counters.items()
            if key.startswith(prefix)
        )),
    }
    return Outcome(metrics, notes, len(requests), failed, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nptcert benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "nptcert", "__init__.py")):
        print(f"error: no nptcert package under {SRC}", file=sys.stderr)
        return 2

    workload_cls = WORKLOADS[args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        spec = workload_cls.prepare(args.seed, work_dir)
        spec.update(src=SRC, seconds=args.seconds)
        workload = workload_cls(spec)
        runner = Runner(work_dir, spec)
        measure = per_layer if args.trace else end_to_end
        outcome = measure(runner, workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for key, value in run_metadata().items():
        print(f"meta {key}: {value}")
    for key, value in outcome.notes.items():
        print(f"note {key}: {value}")
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    if not args.trace:
        # Not in the JSON metrics: it is 0 on a correct run, and the result
        # carries attempted and failed.
        print(f"metric failed_ratio = {outcome.failed / outcome.attempted:.6g} 1")
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
