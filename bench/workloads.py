"""Seeded job lists, their input files and independent reference values.

This module uses numpy and scipy only: inputs are written in the plain
``epsim run`` file formats, and every reference value comes from a
gate-by-gate statevector evolution or a dense ``scipy.linalg.eigh`` built
here, never from ``epsim.oracle``.

Each job is a dict::

    {"name": str, "argv": [...], "check": {...}, "expect_failure": bool}

``argv`` is what the worker passes to ``epsim.cli.main`` (paths relative to
the run directory are made absolute by :func:`make_jobs`); ``check`` is what
:mod:`checks` compares the report with.

Every job's sizes (N, L, bond dimensions, Taylor orders, shots) are fixed
per workload; the seed only draws the random states, gates, observables and
eigenbases, so every seed does the same amount of work.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.linalg

WORKLOADS = ("dynamics", "sampled", "estimators", "verify")

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

VERIFY_SUITES = ("duality", "mps", "network", "oqt", "thermal", "amplitude")

# Absolute tolerance of exact network values and of each report's oracle
# field against the statevector reference.
DYNAMICS_TOL = 1e-8
# Sampled estimates and shot-mode amplitudes: |estimate - reference| must
# stay within this many reported standard errors.
SIGMA_TOL = 5.0
AMPLITUDE_TOL = 1e-10
EPSILON = 1e-3

# (evaluator, N, L, observable sites, partition_splits or None)
DYNAMICS_JOBS = (
    ("exact", 8, 2, (0,), None),
    ("exact", 8, 4, (4,), None),
    ("exact", 8, 5, (3, 7), None),
    ("exact", 10, 3, (5,), None),
    ("exact", 10, 4, (0,), None),
    ("regions", 8, 3, (0,), None),
    ("regions", 8, 4, (7,), (2,)),
    ("regions", 8, 5, (4,), None),
    ("regions", 10, 2, (5,), None),
    ("regions", 10, 3, (9,), (2,)),
    ("regions", 10, 4, (0,), (1,)),
    # The CLI default split [N/2] at N=10, L=3: contract_region's row-major
    # order builds a 2^26-entry intermediate and the size guard refuses.
    ("regions", 10, 3, (5,), None),
)
# The job above fails every time, whatever the seed.
DYNAMICS_EXPECTED_FAILURES = frozenset({len(DYNAMICS_JOBS) - 1})

# (strategy, N, L, observable site, shots); W = 4, 5 and 7 sampled wires.
SAMPLED_JOBS = (
    ("postselect", 2, 1, 0, 10**5),
    ("corrected", 2, 1, 1, 10**5),
    ("postselect", 3, 1, 1, 10**6),
    ("corrected", 3, 1, 0, 10**6),
    ("postselect", 2, 3, 0, 10**7),
)

# (model, N, beta, site, mode, normalized)
THERMAL_JOBS = (
    ("tfim", 3, 0.25, 0, "exact", False),
    ("heisenberg", 3, 1.0, 1, "trotter", False),
    ("tfim", 4, 0.5, 2, "exact", True),
    ("heisenberg", 4, 0.25, 3, "trotter", False),
    ("tfim", 5, 0.25, 4, "exact", False),
    ("heisenberg", 5, 0.5, 0, "exact", False),
)
TFIM_J, TFIM_H = 1.0, 0.7
HEISENBERG_J = 1.0
# Fixed modular spectra: the seed draws only the eigenbases, so the Taylor
# orders the entropy estimator picks do not depend on the seed.
ENTROPY_PAIR_SPECTRUM = (0.4, 0.3, 0.2, 0.1)
ENTROPY_SITE_SPECTRUM = (0.75, 0.25)
# (qubits, shots or None)
AMPLITUDE_JOBS = ((3, None), (4, None), (3, 10**6))
DUALITY_CASES = 100


# ---------------------------------------------------------------------------
# Random inputs


def _random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _haar_unitary(rng, dim):
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _random_pauli(rng):
    return "XYZ"[int(rng.integers(3))]


def _brickwork(rng, n, layers):
    """Per layer, (site, 4x4 gate) pairs on (site, site+1)."""
    return [
        [(s, _haar_unitary(rng, 4)) for s in range(layer % 2, n - 1, 2)]
        for layer in range(layers)
    ]


# ---------------------------------------------------------------------------
# File formats (complex numbers as [re, im] pairs)


def _cnum(z):
    z = complex(z)
    return [z.real, z.imag]


def _nested(m):
    return [[_cnum(z) for z in row] for row in np.asarray(m)]


def _flat(m):
    return [_cnum(z) for z in np.asarray(m).reshape(-1)]


def _mps_dict(psi, n):
    """Left-canonical MPS of a qubit statevector by an SVD sweep."""
    tensors = []
    rest = psi.reshape(1, -1)
    chi = 1
    for _ in range(n - 1):
        u, s, vh = np.linalg.svd(rest.reshape(chi * 2, -1), full_matrices=False)
        tensors.append(u.reshape(chi, 2, -1).transpose(1, 0, 2))
        rest = s[:, None] * vh
        chi = s.size
    last = rest.reshape(chi * 2)
    norm = np.linalg.norm(last)
    tensors.append((last / norm).reshape(chi, 2, 1).transpose(1, 0, 2))
    return {
        "n_sites": n,
        "phys_dims": [2] * n,
        "tensors": [[_nested(t[i]) for i in range(2)] for t in tensors],
        "boundary": _nested([[norm]]),
    }


def _circuit_dict(n, layers):
    return {
        "n_sites": n,
        "phys_dim": 2,
        "layers": [[{"site": s, "gate": _nested(g)} for s, g in layer] for layer in layers],
    }


def _hamiltonian_dict(n, terms):
    return {
        "n_sites": n,
        "phys_dim": 2,
        "terms": [{"support": list(sup), "matrix": _flat(m)} for sup, m in terms],
    }


# ---------------------------------------------------------------------------
# Reference values


def evolve(psi, n, layers):
    """Gate-by-gate statevector evolution of a brickwork circuit."""
    t = psi.reshape([2] * n)
    for layer in layers:
        for s, gate in layer:
            t = np.tensordot(gate.reshape(2, 2, 2, 2), t, axes=([2, 3], [s, s + 1]))
            t = np.moveaxis(t, (0, 1), (s, s + 1))
    return t


def local_expectation(t, ops):
    """<t| (x) O_site |t> with each local operator applied to the state tensor."""
    out = t
    for site, op in ops:
        out = np.moveaxis(np.tensordot(op, out, axes=([1], [site])), 0, site)
    return complex(np.vdot(t, out))


def kron_chain(ops):
    out = np.eye(1, dtype=complex)
    for op in ops:
        out = np.kron(out, op)
    return out


def embed(op_by_site, n):
    return kron_chain([op_by_site.get(k, PAULI["I"]) for k in range(n)])


def model_terms(model, n):
    """Local terms ((sites), matrix) of the TFIM or Heisenberg chain."""
    if model == "tfim":
        terms = [((k, k + 1), -TFIM_J * np.kron(PAULI["Z"], PAULI["Z"])) for k in range(n - 1)]
        terms += [((k,), -TFIM_H * PAULI["X"]) for k in range(n)]
        return terms
    bond = HEISENBERG_J * sum(np.kron(PAULI[p], PAULI[p]) for p in "XYZ")
    return [((k, k + 1), bond) for k in range(n - 1)]


def dense_hamiltonian(terms, n):
    """Sum of Pauli-kron embedded terms (each term on adjacent sites)."""
    h = np.zeros((2**n, 2**n), dtype=complex)
    for sup, m in terms:
        h += kron_chain([np.eye(2 ** sup[0]), m, np.eye(2 ** (n - 1 - sup[-1]))])
    return h


def thermal_reference(h, a, beta, normalized):
    e, v = scipy.linalg.eigh(h)
    weights = np.exp(-beta * e)
    diag = np.real(np.einsum("ik,ij,jk->k", v.conj(), a, v))
    value = float(np.dot(weights, diag))
    return value / float(np.sum(weights)) if normalized else value


# ---------------------------------------------------------------------------
# Job lists


def _dynamics(rng, d: Path):
    jobs = []
    for k, (evaluator, n, n_layers, sites, splits) in enumerate(DYNAMICS_JOBS):
        psi = _random_state(rng, 2**n)
        layers = _brickwork(rng, n, n_layers)
        obs = [(s, _random_pauli(rng)) for s in sites]
        stem = f"dyn{k:02d}"
        _write(d / f"{stem}_state.json", _mps_dict(psi, n))
        _write(d / f"{stem}_circuit.json", _circuit_dict(n, layers))
        config = {
            "task": "dynamics",
            "state_file": f"{stem}_state.json",
            "circuit_file": f"{stem}_circuit.json",
            "observables": [{"site": s, "pauli": p} for s, p in obs],
            "evaluator": evaluator,
            "seed": int(rng.integers(2**31)),
        }
        if splits is not None:
            config["partition_splits"] = list(splits)
        want = local_expectation(evolve(psi, n, layers), [(s, PAULI[p]) for s, p in obs])
        label = "-".join(f"{p}{s}" for s, p in obs)
        split_label = f"-split{'_'.join(map(str, splits))}" if splits else ""
        jobs.append(_run_job(
            d, stem, f"{evaluator}-N{n}-L{n_layers}-{label}{split_label}", config,
            {"kind": "value", "value": _cnum(want), "tol": DYNAMICS_TOL,
             "oracle_tol": DYNAMICS_TOL},
            expect_failure=k in DYNAMICS_EXPECTED_FAILURES,
        ))
    return jobs


def _sampled(rng, d: Path):
    jobs = []
    for k, (strategy, n, n_layers, site, shots) in enumerate(SAMPLED_JOBS):
        psi = _random_state(rng, 2**n)
        layers = _brickwork(rng, n, n_layers)
        pauli = _random_pauli(rng)
        stem = f"smp{k:02d}"
        _write(d / f"{stem}_state.json", _mps_dict(psi, n))
        _write(d / f"{stem}_circuit.json", _circuit_dict(n, layers))
        config = {
            "task": "dynamics",
            "state_file": f"{stem}_state.json",
            "circuit_file": f"{stem}_circuit.json",
            "observables": [{"site": site, "pauli": pauli}],
            "evaluator": "sampled",
            "strategy": strategy,
            "shots": shots,
            "seed": int(rng.integers(2**31)),
        }
        want = local_expectation(evolve(psi, n, layers), [(site, PAULI[pauli])])
        jobs.append(_run_job(
            d, stem, f"{strategy}-N{n}-L{n_layers}-{pauli}{site}-shots{shots:.0e}", config,
            {"kind": "sampled", "value": _cnum(want), "sigmas": SIGMA_TOL,
             "oracle_tol": DYNAMICS_TOL},
        ))
    return jobs


def _estimators(rng, d: Path):
    jobs = []
    for k, (model, n, beta, site, mode, normalized) in enumerate(THERMAL_JOBS):
        pauli = _random_pauli(rng)
        terms = model_terms(model, n)
        stem = f"thm{k:02d}"
        _write(d / f"{stem}_model.json", _hamiltonian_dict(n, terms))
        config = {
            "task": "thermal",
            "model_file": f"{stem}_model.json",
            "observable": {"site": site, "pauli": pauli},
            "beta": beta,
            "epsilon": EPSILON,
            "mode": mode,
            "normalized": normalized,
            "seed": int(rng.integers(2**31)),
        }
        want = thermal_reference(
            dense_hamiltonian(terms, n), embed({site: PAULI[pauli]}, n), beta, normalized
        )
        tag = "-normalized" if normalized else ""
        jobs.append(_run_job(
            d, stem, f"thermal-{model}-N{n}-beta{beta}-{pauli}{site}-{mode}{tag}", config,
            {"kind": "value", "value": want, "tol": EPSILON},
        ))

    # Modular Hamiltonian of rho = rho_01 (x) rho_2 with fixed spectra.
    factors = []
    for spectrum in (ENTROPY_PAIR_SPECTRUM, ENTROPY_SITE_SPECTRUM):
        v = _haar_unitary(rng, len(spectrum))
        factors.append((v * -np.log(spectrum)) @ v.conj().T)
    factors = [(m + m.conj().T) / 2 for m in factors]
    terms = [((0, 1), factors[0]), ((2,), factors[1])]
    _write(d / "ent_model.json", _hamiltonian_dict(3, terms))
    p = np.exp(-scipy.linalg.eigvalsh(dense_hamiltonian(terms, 3)))
    jobs.append(_run_job(
        d, "ent", "entropy-N3", {"task": "entropy", "model_file": "ent_model.json",
                                 "epsilon": EPSILON, "seed": int(rng.integers(2**31))},
        {"kind": "value", "value": float(-np.sum(p * np.log(p))), "tol": EPSILON},
    ))

    for k, (qubits, shots) in enumerate(AMPLITUDE_JOBS):
        dim = 2**qubits
        phi, psi, u = _random_state(rng, dim), _random_state(rng, dim), _haar_unitary(rng, dim)
        stem = f"amp{k:02d}"
        _write(d / f"{stem}_phi.json", {"vector": _flat(phi)})
        _write(d / f"{stem}_psi.json", {"vector": _flat(psi)})
        _write(d / f"{stem}_unitary.json", {"matrix": _nested(u)})
        config = {
            "task": "amplitude",
            "phi_file": f"{stem}_phi.json",
            "psi_file": f"{stem}_psi.json",
            "unitary_file": f"{stem}_unitary.json",
            "seed": int(rng.integers(2**31)),
        }
        want = _cnum(np.vdot(phi, u @ psi))
        if shots is None:
            check = {"kind": "value", "value": want, "tol": AMPLITUDE_TOL}
        else:
            config["shots"] = shots
            check = {"kind": "sampled", "value": want, "sigmas": SIGMA_TOL}
        mode = f"shots{shots:.0e}" if shots else "exact"
        jobs.append(_run_job(d, stem, f"amplitude-{qubits}q-{mode}", config, check))

    config = {"task": "duality-check", "n_cases": DUALITY_CASES, "max_dim": 4,
              "seed": int(rng.integers(2**31))}
    jobs.append(_run_job(d, "dual", f"duality-check-{DUALITY_CASES}", config,
                         {"kind": "passed"}))
    return jobs


def _verify(rng, d: Path):
    # The suites draw their instances from the program's own fixed seeds.
    return [
        {
            "name": f"verify-{suite}",
            "argv": ["verify", "--suite", suite, "--out", str(d / f"verify_{suite}.out.json")],
            "report": str(d / f"verify_{suite}.out.json"),
            "check": {"kind": "verify"},
            "expect_failure": False,
        }
        for suite in VERIFY_SUITES
    ]


def _run_job(d: Path, stem, name, config, check, expect_failure=False):
    _write(d / f"{stem}_config.json", config)
    out = d / f"{stem}.out.json"
    return {
        "name": name,
        "argv": ["run", "--config", str(d / f"{stem}_config.json"), "--out", str(out)],
        "report": str(out),
        "check": check,
        "expect_failure": expect_failure,
    }


def _write(path: Path, data):
    path.write_text(json.dumps(data))


def make_jobs(workload: str, seed: int, directory: Path) -> list:
    """Write the workload's input files under ``directory`` and return its
    job list with reference values.  The same seed gives the same files."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    build = {"dynamics": _dynamics, "sampled": _sampled,
             "estimators": _estimators, "verify": _verify}[workload]
    return build(rng, directory)
