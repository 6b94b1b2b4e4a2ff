"""Tests of the benchmark's own parts: checks, spans, tracing and metrics.

Run from the root of the repository:

    python3 -m pytest nptbench/tests -q
"""

import re

import numpy as np
import pytest

import checks
import inputs
import run
import spans
import worker
import workloads


def bell_density():
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def test_bell_state_partial_transpose_spectrum():
    eig = np.linalg.eigvalsh(checks.partial_transpose(bell_density(), (2, 2), (0,)))
    np.testing.assert_allclose(eig, [-0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_partial_transpose_of_complement_is_full_transpose():
    rng = inputs.seeded_rng(3)
    g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    rho = g @ g.conj().T
    dims = (2, 2, 3)
    np.testing.assert_array_equal(
        checks.partial_transpose(rho, dims, (0, 1)), checks.partial_transpose(rho, dims, (2,)).T
    )


def test_sampled_states_have_the_requested_schmidt_number():
    rng = inputs.seeded_rng(5)
    dims, y = (2, 2, 3), (0, 1)
    psi = inputs.schmidt_state(dims, y, 3, rng)
    s = np.linalg.svd(psi.reshape(4, 3), compute_uv=False)
    assert np.sum(s > 1e-9) == 3
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    prod = inputs.product_state(dims, y, rng)
    assert np.sum(np.linalg.svd(prod.reshape(4, 3), compute_uv=False) > 1e-9) == 1


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_fake_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    with tracer.span("outer"):
        clock.now = 1.0
        with tracer.span("inner"):
            clock.now = 2.0
            with tracer.span("leaf"):
                clock.now = 4.5
            clock.now = 5.0
        with tracer.span("inner"):
            clock.now = 6.0
        clock.now = 10.0
    assert tracer.calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert tracer.self_s["leaf"] == pytest.approx(2.5)
    assert tracer.self_s["inner"] == pytest.approx(4.0 - 2.5 + 1.0)
    assert tracer.self_s["outer"] == pytest.approx(10.0 - 5.0)
    assert sum(tracer.self_s.values()) == pytest.approx(10.0)


def test_span_records_time_when_the_call_raises():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def boom():
        clock.now += 2.0
        raise ValueError

    with tracer.span("outer"):
        with pytest.raises(ValueError):
            tracer.wrap(boom, "boom")()
        clock.now += 1.0
    assert tracer.self_s == {"boom": 2.0, "outer": 1.0}


def _all_bindings():
    return {
        (mod.__name__, attr): value
        for mod in spans._package_modules("nptcert")
        for attr, value in vars(mod).items()
    }


def test_traced_run_wraps_every_binding_and_restores_them():
    import nptcert
    from nptcert import harness, ppt, witness

    before = _all_bindings()
    tracer = spans.Tracer()
    with spans.traced(tracer, "nptcert", worker.LAYERS) as groups:
        for module in (nptcert, harness, ppt, witness):
            assert getattr(module.classify, "__wrapped_by_tracer__", False), module.__name__
        harness.open_question_scan(2, nptcert.DimsSpec((2, 2)), 3, 0)
    assert set(groups) == set(run.layer_groups())
    # harness calls classify through its own binding, once per trial.
    assert tracer.calls["ppt.classify"] == 3
    assert tracer.calls["harness.campaign"] == 1
    assert spans.leftover_wrappers("nptcert") == []
    after = _all_bindings()
    assert all(after[key] is value for key, value in before.items())


def test_traced_run_restores_after_an_error_and_skips_missing_functions():
    from nptcert import linalg

    layers = worker.LAYERS + [("nptcert.linalg", "no_such_function", "linalg.gone", None)]
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer(), "nptcert", layers) as groups:
            assert "linalg.gone" not in groups
            raise RuntimeError
    assert spans.leftover_wrappers("nptcert") == []
    assert not hasattr(linalg.hermitian_eig, "__wrapped_by_tracer__")


@pytest.fixture
def witness_case(tmp_path):
    """The certificate nptcert writes for a proven-regime 3x3 mixture file,
    with the file's partial transpose."""
    from nptcert import cli

    path = tmp_path / "mix.json"
    inputs.write_mixture(path, inputs.sample_mixture((3, 3), (0,), 3, 2, inputs.seeded_rng(11)))
    out = tmp_path / "cert.json"
    assert cli.dispatch(["witness", "--mixture", str(path), "--partition", "0", "--out", str(out)]) == 0
    return workloads._read_json(out), checks.mixture_file_pt(path, (0,))


def test_checker_accepts_a_genuine_certificate(witness_case):
    cert, pt = witness_case
    assert cert["decided_by"] == "witness"
    assert checks.check_witness_output(cert, pt, (0,), require_witness=True) == []


def test_checker_rejects_a_tampered_certificate(witness_case):
    cert, pt = witness_case
    top = np.linalg.eigh(pt)[1][:, -1]
    tampered = dict(cert, xi=[[z.real, z.imag] for z in top])
    problems = checks.check_witness_output(tampered, pt, (0,), require_witness=True)
    assert any("is not below" in p for p in problems)
    assert checks.check_witness_output(dict(cert, partition=[1]), pt, (0,), require_witness=True)


def test_checker_rejects_a_wrong_spectrum_label(witness_case):
    _, pt = witness_case
    min_eig = float(np.linalg.eigvalsh(pt)[0])
    report = {"decided_by": "spectrum", "label": "NPT", "min_eigenvalue": min_eig}
    assert checks.check_witness_output(report, pt, (0,), require_witness=False) == []
    assert checks.check_witness_output(dict(report, label="PPT"), pt, (0,), require_witness=False)
    # In the proven regime a fallback is itself a failure.
    assert checks.check_witness_output(report, pt, (0,), require_witness=True)


def test_checker_rejects_failed_trials_and_npt_candidates():
    expected = {"theorem": "2", "trials": 1}
    good = {"theorem": "2", "trials": 1, "total": 1, "passed": 1, "failed": 0, "failures": []}
    assert checks.check_verify_report(good, expected) == []
    assert checks.check_verify_report(dict(good, passed=0, failed=1), expected)

    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    bell = {"dims": [2, 2], "amplitudes": [[float(z), 0.0] for z in psi]}
    candidate = {"trial": 0, "mixture": {"weights": [1.0], "components": [bell]}}
    scan = {"trials": 5, "flagged": 1, "counterexamples": 1, "candidates": [candidate]}
    problems = checks.check_scan_report(scan, {"trials": 5, "dims": [2, 2]})
    assert any("is NPT" in p for p in problems)
    assert checks.check_scan_report(dict(scan, flagged=0), {"trials": 5, "dims": [2, 2]})


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, beyond = run.tail_latency(list(range(40)))
    assert (value, beyond) == (29, 10)
    assert pct == pytest.approx(75.0)
    assert run.tail_latency([3.0, 1.0]) == (3.0, 100.0, 0)


def test_requests_depend_only_on_seed_and_index(tmp_path):
    spec = workloads.WitnessFiles.prepare(4, str(tmp_path))
    again = workloads.WitnessFiles.prepare(4, str(tmp_path / "again"))
    first = [workloads.WitnessFiles(spec).entry(i)["category"] for i in range(16)]
    assert first == [workloads.WitnessFiles(again).entry(i)["category"] for i in range(16)]
    paths = [(tmp_path / "in" / f"f{j}.json", tmp_path / "again" / "in" / f"f{j}.json") for j in range(3)]
    assert all(a.read_bytes() == b.read_bytes() for a, b in paths)
    certify = workloads.Certify5x5({"seed": 7, "work_dir": str(tmp_path)})
    assert certify.argv(3)[certify.argv(3).index("--seed") + 1] == str(7 * workloads.SEED_STRIDE + 3)


def _source(module):
    with open(module.__file__, encoding="utf-8") as fh:
        return fh.read()


def test_benchmark_uses_only_public_nptcert_names():
    for module in (checks, inputs, run, spans, worker, workloads):
        text = _source(module)
        assert not re.search(r"nptcert\.(?!__)_|import _", text), module.__name__
        assert "BACKEND" not in text, module.__name__
    # The checks and their inputs share no code with the package.
    for module in (checks, inputs, workloads, spans):
        text = _source(module)
        assert "import nptcert" not in text and "from nptcert" not in text, module.__name__
