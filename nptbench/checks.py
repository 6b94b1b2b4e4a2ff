"""Independent output checks, written with numpy only.

Nothing here calls ``nptcert``: the partial transpose is this module's own
reshape-and-transpose and spectra come from ``numpy.linalg.eigvalsh``, so a
bug in the package's kernels cannot hide a wrong output.  Each check returns
a list of problems; an empty list means the output is accepted.
"""

from __future__ import annotations

import numpy as np

import inputs

# The CLI's default --tol, which every request in the benchmark uses.
TOL = 1e-10

# Largest accepted deviation of a reported number from its recomputation.
REPORT_ABS_TOL = 1e-8


def partial_transpose(rho, dims, y) -> np.ndarray:
    """Swap the row and column index of every subsystem in ``y``."""
    m = len(dims)
    axes = list(range(2 * m))
    for i in y:
        axes[i], axes[m + i] = m + i, i
    return np.asarray(rho).reshape(tuple(dims) * 2).transpose(axes).reshape(rho.shape)


def negativity_threshold(pt, tol: float = TOL) -> float:
    return tol * max(1.0, float(np.abs(pt).max()))


def _pt_of_mixture(weights, states, dims, y):
    return partial_transpose(inputs.mixture_density(weights, states), dims, y)


def check_certificate(cert: dict, pt: np.ndarray, y) -> list[str]:
    """A witness certificate must give <xi|rho^{T_Y}|xi> < -tol."""
    problems = []
    if list(cert.get("partition", [])) != list(y):
        problems.append(f"certificate partition {cert.get('partition')} is not {list(y)}")
    xi = np.array([complex(re, im) for re, im in cert["xi"]])
    if xi.shape != (pt.shape[0],):
        return problems + [f"xi has {xi.size} entries, expected {pt.shape[0]}"]
    if abs(np.linalg.norm(xi) - 1.0) > REPORT_ABS_TOL:
        problems.append(f"xi has norm {np.linalg.norm(xi)!r}, not 1")
    quad = float(np.real(xi.conj() @ pt @ xi))
    if not quad < -TOL:
        problems.append(f"<xi|rho^T_Y|xi> = {quad:.3e} is not below -{TOL:g}")
    if abs(quad - float(cert["quad_value"])) > REPORT_ABS_TOL:
        problems.append(f"reported quad_value {cert['quad_value']!r} differs from {quad!r}")
    return problems


def check_spectrum_label(report: dict, pt: np.ndarray) -> list[str]:
    """A spectrum verdict must match the independent minimal eigenvalue.

    Within a factor two of the negativity threshold either label is accepted,
    since rounding decides there.
    """
    min_eig = float(np.linalg.eigvalsh(pt)[0])
    thr = negativity_threshold(pt)
    label = report.get("label")
    problems = []
    if label == "NPT" and min_eig > -thr / 2.0:
        problems.append(f"labelled NPT but the minimal eigenvalue is {min_eig:.3e}")
    elif label == "PPT" and min_eig < -2.0 * thr:
        problems.append(f"labelled PPT but the minimal eigenvalue is {min_eig:.3e}")
    elif label not in ("NPT", "PPT"):
        problems.append(f"unknown label {label!r}")
    if abs(float(report.get("min_eigenvalue", np.nan)) - min_eig) > REPORT_ABS_TOL:
        problems.append(f"reported min_eigenvalue {report.get('min_eigenvalue')!r} differs from {min_eig!r}")
    return problems


def mixture_file_pt(path, y) -> np.ndarray:
    """rho^{T_Y} of the mixture read back from a mixture file."""
    weights, states, dims = inputs.read_mixture(path)
    return _pt_of_mixture(weights, states, dims, y)


def check_witness_output(out: dict, pt: np.ndarray, y, require_witness: bool) -> list[str]:
    """Check one ``witness`` output against its mixture's partial transpose."""
    decided_by = out.get("decided_by")
    if decided_by == "witness":
        return check_certificate(out, pt, y)
    if decided_by != "spectrum":
        return [f"unknown decided_by {decided_by!r}"]
    problems = check_spectrum_label(out, pt)
    if require_witness:
        problems.append("a proven-regime mixture fell back to the spectrum")
    return problems


def check_verify_report(report: dict, expected: dict) -> list[str]:
    """A claim-2 ``verify`` report must echo its config and show no failure."""
    problems = [
        f"{key} is {report.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if report.get(key) != value
    ]
    if report.get("failed") != 0 or report.get("failures"):
        problems.append(f"{report.get('failed')} failed trials: {report.get('failures')}")
    if report.get("passed") != expected["trials"] or report.get("total") != expected["trials"]:
        problems.append(f"passed {report.get('passed')} of {report.get('total')} trials")
    return problems


def check_scan_report(report: dict, expected: dict) -> list[str]:
    """A ``scan-open`` report must be consistent and every candidate PPT."""
    problems = [
        f"{key} is {report.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if report.get(key) != value
    ]
    candidates = report.get("candidates", [])
    flagged, found = report.get("flagged"), report.get("counterexamples")
    if not isinstance(flagged, int) or not isinstance(found, int):
        return problems + ["flagged or counterexamples missing"]
    if found > flagged or found != len(candidates) or flagged > expected["trials"]:
        problems.append(f"{found} counterexamples, {len(candidates)} candidates, {flagged} flagged")
    for cand in candidates:
        weights, states, dims = inputs.mixture_from_obj(cand["mixture"])
        pt = _pt_of_mixture(weights, states, dims, (0,))
        min_eig = float(np.linalg.eigvalsh(pt)[0])
        if min_eig < -negativity_threshold(pt):
            problems.append(f"candidate from trial {cand.get('trial')} is NPT (min eig {min_eig:.3e})")
    return problems
