"""The workload process: one client sending requests in a closed loop.

Started by ``run.py`` as

    python3 nptbench/worker.py --spec SPEC.json --mode {setup,run,trace} --result OUT.json

It imports ``nptcert`` from the checkout's ``src``, sends one warm-up
request and prints ``ready`` (the parent times set-up up to that line).  In
``setup`` mode it stops there.  In ``run`` mode it sends requests until the
spec's seconds have passed and records each latency and exit code.  In
``trace`` mode it sends each request of a fixed list twice, untraced and with
every layer function wrapped, and records the per-layer totals.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

import spans
from workloads import TRACE_REQUESTS, WORKLOADS


def _record_eig_size(tracer, args, result):
    dim = len(args[0]) if args else 0
    tracer.counters["linalg.hermitian_eig.dim_cubed_sum"] += dim**3
    tracer.counters[f"linalg.hermitian_eig.calls_at_dim.{dim}"] += 1


def _record_decider(tracer, args, result):
    if getattr(result, "decided_by", None) == "witness":
        tracer.counters["witness.decided_by_witness"] += 1


# (module, public function, layer group, result hook) for every wrapped function.
LAYERS = [
    ("nptcert.linalg", "hermitian_eig", "linalg.hermitian_eig", _record_eig_size),
    ("nptcert.linalg", "svd", "linalg.svd", None),
    ("nptcert.linalg", "orthonormal_basis", "linalg.subspace", None),
    ("nptcert.linalg", "orthogonal_complement", "linalg.subspace", None),
    ("nptcert.linalg", "subspace_intersection", "linalg.subspace", None),
    ("nptcert.qstate", "sample_pure_schmidt_n", "qstate.sample", None),
    ("nptcert.qstate", "sample_product", "qstate.sample", None),
    ("nptcert.qstate", "sample_weights", "qstate.sample", None),
    ("nptcert.qstate", "schmidt_decompose", "qstate.schmidt_decompose", None),
    ("nptcert.qstate", "mix", "qstate.mix", None),
    ("nptcert.ppt", "partial_transpose", "ppt.partial_transpose", None),
    ("nptcert.ppt", "classify", "ppt.classify", None),
    ("nptcert.witness", "certify", "witness.certify", _record_decider),
    ("nptcert.witness", "find_witness", "witness.find_witness", None),
    ("nptcert.witness", "pt_conjugated_product", "witness.pt_conjugated_product", None),
    ("nptcert.harness", "run_trials", "harness.campaign", None),
    ("nptcert.harness", "open_question_scan", "harness.campaign", None),
    ("nptcert.jsonio", "load_mixture", "jsonio.load", None),
    ("nptcert.jsonio", "load_state_or_density", "jsonio.load", None),
    ("nptcert.jsonio", "dumps", "jsonio.write", None),
    ("nptcert.jsonio", "write_text_atomic", "jsonio.write", None),
    ("nptcert.jsonio", "write_json_atomic", "jsonio.write", None),
    ("nptcert.cli", "dispatch", "cli.dispatch", None),
]


def _import_package(src: str):
    sys.path.insert(0, src)
    import nptcert
    from nptcert import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(nptcert.__file__))) != os.path.abspath(src):
        raise SystemExit(f"nptcert imported from {nptcert.__file__}, not from {src}")
    return cli


# Exit code recorded for a request whose dispatch raised.
RAISED = -1


def _send(cli, argv) -> tuple[int, float]:
    """(exit code, latency in seconds) of one request."""
    start = time.perf_counter()
    try:
        code = cli.dispatch(argv)
    except Exception:
        # A request that raises counts as failed; the run goes on.
        traceback.print_exc()
        code = RAISED
    return code, time.perf_counter() - start


def closed_loop(cli, workload, seconds: float) -> dict:
    """Send requests 0, 1, ... until ``seconds`` have passed."""
    requests = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        requests.append(_send(cli, workload.argv(len(requests))))
        if time.perf_counter() >= deadline:
            break
    return {"requests": requests, "elapsed_s": time.perf_counter() - start}


def traced_pass(cli, workload, count: int) -> dict:
    """Each of the first ``count`` requests sent twice: untraced and traced.

    The two sends of a request are back to back, in alternating order, so
    that both passes see the same machine load and neither is always second.
    """
    tracer = spans.Tracer()
    untraced, traced = [], []
    groups = []
    for i in range(count):
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            if is_traced:
                with spans.traced(tracer, "nptcert", LAYERS) as groups:
                    traced.append(_send(cli, workload.argv(i)))
            else:
                untraced.append(_send(cli, workload.argv(i)))
    return {
        "requests": untraced + traced,
        "untraced_s": sum(lat for _, lat in untraced),
        "traced_s": sum(lat for _, lat in traced),
        "groups": groups,
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "counters": dict(tracer.counters),
        "leftover_wrappers": spans.leftover_wrappers("nptcert"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)

    cli = _import_package(spec["src"])
    workload = WORKLOADS[spec["workload"]](spec)
    ready = sys.stdout
    # The package prints progress lines; keep the ready line alone on stdout.
    with contextlib.redirect_stdout(sys.stderr):
        code, _ = _send(cli, workload.warmup_argv())
        if code != 0:
            print(f"warm-up request exited with {code}", file=sys.stderr)
            return 1
        print("ready", file=ready, flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "run":
            result = closed_loop(cli, workload, spec["seconds"])
        else:
            result = traced_pass(cli, workload, TRACE_REQUESTS[workload.name])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
