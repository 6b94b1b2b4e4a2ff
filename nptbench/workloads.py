"""The three workloads: which CLI request each sends, and how it is checked.

A request is one in-process ``nptcert.cli.dispatch(argv)`` call.  Request
``i`` of a run depends only on the benchmark seed and ``i``, so the worker
process that sends it and the parent process that checks its output build
the same argv independently.  Every request writes its report to its own
file, which the parent checks after the worker has exited.

This module imports nothing from ``nptcert``.
"""

from __future__ import annotations

import json
import os

import checks
import inputs

# Trials per ``scan-open`` request: enough that per-call overhead stays small
# next to the trials once campaigns get faster.
SCAN_TRIALS = 50

# Requests in a traced run.  A traced run does a fixed amount of work so that
# its counts repeat exactly for a given seed.
TRACE_REQUESTS = {"certify-5x5": 16, "scan-3x3": 16, "witness-files": 64}

# Mixture files written per ``witness-files`` run, cycled if a run sends more.
WITNESS_FILES = 320

# Seed of the warm-up request, fixed so that set-up time does not depend on
# the benchmark seed.
WARMUP_SEED = 987_654_321

# Request seeds are ``seed * SEED_STRIDE + i``, distinct across (seed, i).
SEED_STRIDE = 1_000_000

# witness-files categories as (name, dims, cut Y, Schmidt number n, K, proven).
# At K = n(n-1)/2 the boundary files have no guaranteed witness, so
# ``certify`` falls back to the spectrum there.
WITNESS_CATEGORIES = {
    "3x3-n3-k2": ((3, 3), (0,), 3, 2, True),
    "4x4-n4-k5": ((4, 4), (0,), 4, 5, True),
    "2x2x3-cut01-n3-k2": ((2, 2, 3), (0, 1), 3, 2, True),
    "3x3-n3-k3-boundary": ((3, 3), (0,), 3, 3, False),
}

# One cycle of the file list: 6 of 8 files lie in the proven regime and 2 of 8
# on the boundary.  The fast categories (3x3 proven and boundary) make up 5
# of 8, so the median latency lies inside them; the slowest (4x4) makes up 1
# of 8, so the tail sample lies inside it.
WITNESS_CYCLE = (
    "3x3-n3-k2",
    "2x2x3-cut01-n3-k2",
    "3x3-n3-k3-boundary",
    "4x4-n4-k5",
    "3x3-n3-k2",
    "3x3-n3-k3-boundary",
    "2x2x3-cut01-n3-k2",
    "3x3-n3-k2",
)


def request_seed(seed: int, i: int) -> int:
    if not 0 <= i < SEED_STRIDE:
        raise ValueError(f"request index {i} out of range")
    return seed * SEED_STRIDE + i


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """Base: request ``i`` writes ``out_dir/r<i>.json``."""

    name = ""
    trials_per_request = 1

    def __init__(self, spec: dict):
        self.seed = spec["seed"]
        self.work_dir = spec["work_dir"]
        self.out_dir = os.path.join(self.work_dir, "out")

    @classmethod
    def prepare(cls, seed: int, work_dir: str) -> dict:
        """Write the run's inputs and return the spec shared with the worker."""
        os.makedirs(os.path.join(work_dir, "out"), exist_ok=True)
        return {"workload": cls.name, "seed": seed, "work_dir": work_dir}

    def out_path(self, i) -> str:
        return os.path.join(self.out_dir, f"r{i}.json")

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def warmup_argv(self) -> list[str]:
        raise NotImplementedError

    def check(self, i: int) -> list[str]:
        """Problems found in the output of request ``i`` (empty if correct)."""
        raise NotImplementedError


class Certify5x5(Workload):
    """Claim 2 on 5x5: Schmidt number 4 mixed with 5 product states."""

    name = "certify-5x5"
    config = {"theorem": "2", "dims": [5, 5], "n": 4, "k": 5, "trials": 1}

    def _argv(self, seed: int, out: str) -> list[str]:
        return [
            "verify", "--theorem", "2", "--dims", "5,5", "--n", "4", "--k", "5",
            "--trials", "1", "--seed", str(seed), "--out", out,
        ]

    def argv(self, i):
        return self._argv(request_seed(self.seed, i), self.out_path(i))

    def warmup_argv(self):
        return self._argv(WARMUP_SEED, self.out_path("warmup"))

    def check(self, i):
        expected = dict(self.config, master_seed=request_seed(self.seed, i))
        return checks.check_verify_report(_read_json(self.out_path(i)), expected)


class Scan3x3(Workload):
    """The open K = n(n-1)/2 boundary at n = 3 on 3x3 (K = 3)."""

    name = "scan-3x3"
    trials_per_request = SCAN_TRIALS

    def _argv(self, seed: int, out: str) -> list[str]:
        return [
            "scan-open", "--n", "3", "--dims", "3,3", "--trials", str(SCAN_TRIALS),
            "--seed", str(seed), "--out", out,
        ]

    def argv(self, i):
        return self._argv(request_seed(self.seed, i), self.out_path(i))

    def warmup_argv(self):
        return self._argv(WARMUP_SEED, self.out_path("warmup"))

    def check(self, i):
        expected = {"n": 3, "k": 3, "dims": [3, 3], "trials": SCAN_TRIALS,
                    "master_seed": request_seed(self.seed, i)}
        return checks.check_scan_report(_read_json(self.out_path(i)), expected)


class WitnessFiles(Workload):
    """Certify seeded mixture files one ``witness`` request at a time."""

    name = "witness-files"

    def __init__(self, spec):
        super().__init__(spec)
        self.files = spec["files"]
        self.warmup = spec["warmup"]
        # rho^{T_Y} per input file, since a long run cycles through the files.
        self._pts = {}

    @classmethod
    def prepare(cls, seed, work_dir):
        spec = super().prepare(seed, work_dir)
        in_dir = os.path.join(work_dir, "in")
        os.makedirs(in_dir, exist_ok=True)
        spec["files"] = [
            _write_category_file(in_dir, f"f{j}", WITNESS_CYCLE[j % len(WITNESS_CYCLE)], seed, j)
            for j in range(WITNESS_FILES)
        ]
        spec["warmup"] = _write_category_file(in_dir, "warmup", "3x3-n3-k2", WARMUP_SEED, 0)
        return spec

    @staticmethod
    def _argv(entry: dict, out: str) -> list[str]:
        return ["witness", "--mixture", entry["path"], "--partition", entry["partition"], "--out", out]

    def entry(self, i: int) -> dict:
        return self.files[i % len(self.files)]

    def argv(self, i):
        return self._argv(self.entry(i), self.out_path(i))

    def warmup_argv(self):
        return self._argv(self.warmup, self.out_path("warmup"))

    def check(self, i):
        entry = self.entry(i)
        y = tuple(int(t) for t in entry["partition"].split(","))
        if entry["path"] not in self._pts:
            self._pts[entry["path"]] = checks.mixture_file_pt(entry["path"], y)
        return checks.check_witness_output(
            _read_json(self.out_path(i)), self._pts[entry["path"]], y, require_witness=entry["proven"]
        )


def _write_category_file(in_dir: str, stem: str, category: str, seed: int, j: int) -> dict:
    dims, y, n, k, proven = WITNESS_CATEGORIES[category]
    path = os.path.join(in_dir, stem + ".json")
    inputs.write_mixture(path, inputs.sample_mixture(dims, y, n, k, inputs.seeded_rng(seed, j)))
    return {"path": path, "partition": ",".join(map(str, y)), "category": category, "proven": proven}


WORKLOADS = {w.name: w for w in (Certify5x5, Scan3x3, WitnessFiles)}
