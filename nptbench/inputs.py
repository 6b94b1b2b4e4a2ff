"""Seeded inputs for the benchmark, built with numpy only.

The mixture files for ``witness-files`` are sampled here rather than with
``nptcert``'s own samplers, so the inputs stay fixed for a given seed when
the package changes how it draws random states.  The format is the one
``nptcert.jsonio`` documents for mixtures: complex numbers as ``[re, im]``
pairs, component 0 entangled, the rest product states across the cut.
"""

from __future__ import annotations

import json

import numpy as np

# Floors matching the package's samplers, which keep trials away from
# degenerate Schmidt coefficients and vanishing weights.
COEFF_FLOOR = 0.01
WEIGHT_FLOOR = 1e-3


def haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    return q * (d / np.abs(d))


def _from_cut_matrix(mat: np.ndarray, dims, y) -> np.ndarray:
    """Flat amplitudes from a (dim Y) x (dim Y-bar) amplitude matrix."""
    ybar = tuple(i for i in range(len(dims)) if i not in y)
    order = tuple(y) + ybar
    tensor = mat.reshape([dims[i] for i in order])
    return tensor.transpose(np.argsort(order)).reshape(-1)


def _cut_dims(dims, y) -> tuple[int, int]:
    dy = int(np.prod([dims[i] for i in y]))
    return dy, int(np.prod(dims)) // dy


def schmidt_state(dims, y, n: int, rng: np.random.Generator) -> np.ndarray:
    """Pure state with Schmidt number exactly ``n`` across the cut ``y``."""
    dy, dyb = _cut_dims(dims, y)
    mu = np.sqrt(np.sort(COEFF_FLOOR + (1.0 - n * COEFF_FLOOR) * rng.dirichlet(np.ones(n)))[::-1])
    uy = haar_unitary(dy, rng)[:, :n]
    uyb = haar_unitary(dyb, rng)[:, :n]
    return _from_cut_matrix((uy * mu) @ uyb.T, dims, y)


def product_state(dims, y, rng: np.random.Generator) -> np.ndarray:
    """Product state across the cut ``y`` with Haar-random factors."""
    dy, dyb = _cut_dims(dims, y)
    return _from_cut_matrix(np.outer(haar_vector(dy, rng), haar_vector(dyb, rng)), dims, y)


def mixture_weights(count: int, rng: np.random.Generator) -> np.ndarray:
    return WEIGHT_FLOOR + (1.0 - count * WEIGHT_FLOOR) * rng.dirichlet(np.ones(count))


def sample_mixture(dims, y, n: int, k: int, rng: np.random.Generator) -> dict:
    """Mixture JSON object: a Schmidt-``n`` state plus ``k`` product states."""
    states = [schmidt_state(dims, y, n, rng)] + [product_state(dims, y, rng) for _ in range(k)]
    return {
        "weights": [float(w) for w in mixture_weights(k + 1, rng)],
        "components": [
            {"dims": list(dims), "amplitudes": [[float(z.real), float(z.imag)] for z in psi]}
            for psi in states
        ],
    }


def write_mixture(path, mixture: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mixture, fh)


def mixture_from_obj(obj: dict):
    """(weights, normalized state vectors, dims) of a mixture JSON object."""
    states = []
    for comp in obj["components"]:
        amps = np.array([complex(re, im) for re, im in comp["amplitudes"]])
        states.append(amps / np.linalg.norm(amps))
    return np.asarray(obj["weights"], dtype=float), states, tuple(obj["components"][0]["dims"])


def read_mixture(path):
    with open(path, encoding="utf-8") as fh:
        return mixture_from_obj(json.load(fh))


def mixture_density(weights, states) -> np.ndarray:
    return sum(w * np.outer(psi, psi.conj()) for w, psi in zip(weights, states))


def seeded_rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))
