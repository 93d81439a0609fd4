"""Configuration-driven experiment runner.

``epsim run --config job.json`` executes one task (dynamics, thermal,
entropy, amplitude, duality-check), always computes the brute-force oracle
value when the size guards allow it, and writes a JSON report carrying the
requested value, the oracle value, the absolute error, resource estimates,
and the fully resolved configuration.  ``epsim verify --suite NAME`` runs
the named property suite and prints one pass/fail line per invariant.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import algorithms as alg
from . import network as net
from . import oracle, serialize, verify
from .errors import ConfigError, EpsimError, SizeGuardError
from .hamiltonians import DENSE_DIM_GUARD, LocalHamiltonian
from .linalg import PAULI, embed_operator, matrix_exp
from .mps import MPS
from .rand import random_duality_groups

SCHEMA_VERSION = 1
TASKS = ("dynamics", "thermal", "entropy", "amplitude", "duality-check")


class ExperimentConfig:
    """Validated view of a task configuration."""

    def __init__(self, raw: dict, base_dir: Path):
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        self.raw = dict(raw)
        self.base_dir = base_dir
        self.task = raw.get("task")
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        self.seed = _field(raw, "seed", _int_at_least(0), 0)
        self.out = raw.get("out")
        self._require_fields()

    def _require_fields(self):
        needed = {
            "dynamics": ["state_file", "circuit_file", "observables"],
            "thermal": ["model_file", "observable", "beta", "epsilon"],
            "entropy": ["model_file", "epsilon"],
            "amplitude": ["phi_file", "psi_file", "unitary_file"],
            "duality-check": [],
        }[self.task]
        missing = [k for k in needed if k not in self.raw]
        if missing:
            raise ConfigError(f"task {self.task!r} needs fields {missing}")

    def path(self, key: str) -> Path:
        if not isinstance(self.raw[key], str):
            raise ConfigError(f"config field {key} must be a file path, got {self.raw[key]!r}")
        p = Path(self.raw[key])
        if not p.is_absolute():
            p = self.base_dir / p
        if not p.exists():
            raise ConfigError(f"{key} file not found: {p}")
        return p

    def parse(self, key: str, parser):
        """``parser`` applied to the JSON of the ``key`` file; a missing
        field or a value of the wrong type or form is a ConfigError."""
        try:
            data = json.loads(self.path(key).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{key} file is not valid JSON: {exc}") from exc
        try:
            return parser(data)
        except EpsimError:  # several are ValueErrors; they keep their own type
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"{key} file is malformed ({type(exc).__name__}: {exc})"
            ) from exc


_REQUIRED = object()


def _field(data: dict, key: str, kind, default=_REQUIRED, where: str = ""):
    """``kind(data[key])``, or ``default`` when the field is absent or null.
    A missing required field, or a value ``kind`` rejects, is a ConfigError
    naming the field."""
    if data.get(key) is None:
        if default is _REQUIRED:
            raise ConfigError(f"config field {where}{key} is required")
        return default
    try:
        return kind(data[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field {where}{key} is malformed ({exc})") from exc


def _json_bool(value):
    """A boolean field takes only JSON true or false: bool("false") is True."""
    if not isinstance(value, bool):
        raise TypeError(f"expected JSON true or false, got {value!r}")
    return value


def _json_int(value):
    """An integer field takes only JSON integers: int(1000.9) is 1000 and
    int(True) is 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def _int_at_least(low):
    """A ``_field`` kind that accepts only JSON integers >= ``low``."""
    def kind(value):
        if _json_int(value) < low:
            raise ValueError(f"expected an integer >= {low}, got {value!r}")
        return value
    return kind


def _number(value) -> float:
    """float(value), refusing JSON true and false: float(True) is 1.0."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _positive(value):
    """A finite number > 0: float() alone takes "inf", "nan", Infinity and NaN."""
    if not 0 < _number(value) < math.inf:
        raise ValueError(f"expected a finite number > 0, got {value!r}")
    return float(value)


def _nonnegative(value):
    """A finite number >= 0."""
    if not 0 <= _number(value) < math.inf:
        raise ValueError(f"expected a finite number >= 0, got {value!r}")
    return float(value)


def _choice(*options):
    """A ``_field`` kind that accepts only one of ``options``."""
    def kind(value):
        if value not in options:
            raise ValueError(f"expected one of {options}, got {value!r}")
        return value
    return kind


def _square_matrix(value):
    """A matrix field: nested rows of [re, im] pairs, as many rows as columns."""
    m = serialize.parse_cmat_nested(value)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _observable(spec, where: str, n_sites: int, phys_dim: int, full_dim=None):
    """(site, matrix) of one observable entry, on one site, or on the whole
    model of dimension ``full_dim``, where given, when it names none (None)."""
    if not isinstance(spec, dict):
        raise ConfigError(f"config field {where} must be a JSON object")
    site = _field(spec, "site", _json_int, _REQUIRED if full_dim is None else None, where + ".")
    if site is not None and not 0 <= site < n_sites:
        raise ConfigError(f"config field {where}.site = {site} is not in 0..{n_sites - 1}")
    if "pauli" in spec:
        key, name = "pauli", _field(spec, "pauli", str, where=where + ".").upper()
        if name not in PAULI:
            raise ConfigError(f"unknown Pauli name {spec['pauli']!r}")
        m = PAULI[name]
    elif "matrix" in spec:
        key, m = "matrix", _field(spec, "matrix", _square_matrix, where=where + ".")
    else:
        raise ConfigError("observable entries need a 'pauli' or 'matrix' field")
    if len(m) != (need := full_dim if site is None else phys_dim):
        raise ConfigError(f"config field {where}.{key} is {len(m)} x {len(m)}, not {need} x {need}")
    return site, m


def _load_vector(config: ExperimentConfig, key: str) -> np.ndarray:
    v = config.parse(key, lambda data: serialize.parse_cvec(data["vector"]))
    norm = np.linalg.norm(v)
    if not 0 < norm < np.inf:
        raise ConfigError(f"{key} vector has norm {norm}; cannot normalize")
    return v / norm


def _complex_field(z: complex):
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def run_task(config: ExperimentConfig) -> dict:
    started = time.perf_counter()
    handler = {
        "dynamics": _run_dynamics,
        "thermal": _run_thermal,
        "entropy": _run_entropy,
        "amplitude": _run_amplitude,
        "duality-check": _run_duality_check,
    }[config.task]
    body = handler(config)
    if body.get("oracle") is not None and body.get("value") is not None:
        value = body["value"]
        value_c = complex(value["re"], value["im"]) if isinstance(value, dict) else value
        oracle_v = body["oracle"]
        oracle_c = (
            complex(oracle_v["re"], oracle_v["im"])
            if isinstance(oracle_v, dict)
            else oracle_v
        )
        body["abs_error"] = abs(value_c - oracle_c)
    report = {
        "schema_version": SCHEMA_VERSION,
        "task": config.task,
        "seed": config.seed,
        "config": config.raw,
        **body,
        "meta": {"wall_time_s": time.perf_counter() - started},
    }
    return report


def _run_dynamics(config: ExperimentConfig) -> dict:
    # The evaluator's own fields are checked before any input file is read.
    evaluator = _field(config.raw, "evaluator", _choice("exact", "regions", "sampled"), "exact")
    if evaluator == "regions":
        splits = _field(config.raw, "partition_splits",
                        lambda v: [_json_int(s) for s in v], None)
    elif evaluator == "sampled":
        shots = _field(config.raw, "shots", _int_at_least(1), 10**5)
        strategy = _field(config.raw, "strategy", _choice("postselect", "corrected"),
                          "postselect")
    psi = config.parse("state_file", MPS.from_dict).canonicalize()
    circuit = config.parse("circuit_file", net.BrickworkCircuit.from_dict)
    obs = [
        _observable(entry, f"observables[{k}]", circuit.n_sites, circuit.phys_dim)
        for k, entry in enumerate(_field(config.raw, "observables", list))
    ]
    network = net.build_network(psi, circuit, obs)
    stderr = None
    extra = {}
    if evaluator == "exact":
        value = net.evaluate_exact(network)
    elif evaluator == "regions":
        if splits is None:
            splits = [max(1, circuit.n_sites // 2)]
        value, probs = net.evaluate_regions(
            network, net.column_partition(network, splits)
        )
        extra["region_probs"] = [float(p) for p in probs]
    else:
        res = net.evaluate_sampled(network, shots, config.seed, strategy)
        value = res.estimate
        stderr = res.stderr
        extra["accepted"] = res.accepted
        extra["acceptance_rate"] = res.acceptance_rate
        extra["clipped_mass"] = res.clipped_mass
        extra["expected_accepted"] = res.expected_accepted
        extra["expected_stderr"] = res.expected_stderr
    try:
        want = oracle.circuit_expectation(psi, circuit, dict(obs))
        oracle_field = _complex_field(want)
    except SizeGuardError:
        oracle_field = None
    est = net.resources(circuit)
    return {
        "value": _complex_field(value),
        "stderr": stderr,
        "oracle": oracle_field,
        "resources": {
            "state_qudits": est.state_qudits,
            "evolution_qudits": est.evolution_qudits,
            "total_gates": est.total_gates,
            "sample_cost_order": est.sample_cost_order,
        },
        **extra,
    }


def _run_thermal(config: ExperimentConfig) -> dict:
    for key in ("order", "tau", "R", "grid"):  # fields of earlier schemas
        if key in config.raw:
            raise ConfigError(f"config field {key} is not accepted: the Taylor "
                              "order and the grid follow from epsilon")
    ham = config.parse("model_file", LocalHamiltonian.from_dict)
    dim = ham.dense_dim()  # refused from the sites alone, before any dense array
    site, obs = _observable(config.raw["observable"], "observable", ham.n_sites, ham.phys_dim, dim)
    if site is not None:
        obs = embed_operator(obs, [site], [ham.phys_dim] * ham.n_sites)
    job = alg.ThermalJob(
        observable=obs,
        hamiltonian=ham,
        beta=_field(config.raw, "beta", _nonnegative),
        epsilon=_field(config.raw, "epsilon", _positive),
        mode=_field(config.raw, "mode", _choice("exact", "trotter"), "exact"),
    )
    normalized = _field(config.raw, "normalized", _json_bool, False)
    res = alg.thermal_value(job, normalized=normalized)
    want = oracle.thermal_exact(obs, ham, job.beta)
    if normalized:
        want /= oracle.thermal_exact(np.eye(dim), ham, job.beta)
    return {
        "value": res.value,
        "stderr": None,
        "oracle": want,
        "budget": res.budget,
        "moments_condition": res.moments_condition,
        "order": res.order,
        "resources": None,
    }


def _run_entropy(config: ExperimentConfig) -> dict:
    ham = config.parse("model_file", LocalHamiltonian.from_dict)
    res = alg.entropy(ham, _field(config.raw, "epsilon", _positive))
    try:
        rho = matrix_exp(ham.dense(), -1.0)
        want = oracle.entropy_exact(rho / np.trace(rho))
    except SizeGuardError:
        want = None
    return {"value": res.value, "stderr": None, "oracle": want, "budget": res.budget,
            "order": res.order, "resources": None}


def _run_amplitude(config: ExperimentConfig) -> dict:
    phi = _load_vector(config, "phi_file")
    psi = _load_vector(config, "psi_file")
    u = config.parse(
        "unitary_file", lambda data: serialize.parse_cmat_nested(data["matrix"])
    )
    shots = _field(config.raw, "shots", _int_at_least(1), None)
    est = alg.transition_amplitude(phi, u, psi, shots=shots, seed=config.seed)
    want = oracle.amplitude_exact(phi, u, psi)
    return {
        "value": _complex_field(est.value),
        "stderr": None if shots is None else est.stderr,
        "oracle": _complex_field(want),
        "shots_used": est.shots,
        "resources": None,
    }


def _run_duality_check(config: ExperimentConfig) -> dict:
    n_cases = _field(config.raw, "n_cases", _int_at_least(1), 100)
    max_dim = _field(config.raw, "max_dim", _int_at_least(2), 4)
    tol = _field(config.raw, "tolerance", _positive, 1e-10)
    # The largest dense matrices of a case are its Haar draw, of dimension
    # d_out * n_kraus <= 3 * max_dim, and its Choi matrix, of dimension
    # d_in * d_out <= max_dim^2, which is eigendecomposed as a dense
    # Hamiltonian is: both are priced before the first draw.
    dim = max(3 * max_dim, max_dim**2)
    if dim > DENSE_DIM_GUARD:
        raise SizeGuardError(
            f"max_dim = {max_dim} allows dense matrices of dimension {dim} "
            f"(> {DENSE_DIM_GUARD}); refusing"
        )
    worst = 0.0
    from .channels import duality_residuals

    for cases, kraus, states in random_duality_groups(config.seed, n_cases, max_dim, 1):
        readout, roundtrip = duality_residuals(kraus, states, cases)
        worst = max(worst, float(readout.max()), float(roundtrip.max()))
    return {
        "value": worst,
        "stderr": None,
        "oracle": 0.0,
        "passed": bool(worst <= tol),
        "tolerance": tol,
        "resources": None,
    }


def _dump_report(report: dict, out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and kept for
    the process: parsing holds no state, each call gets a new namespace."""
    parser = argparse.ArgumentParser(
        prog="epsim",
        description="Channel-network simulation experiments with built-in oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one configured task")
    run_p.add_argument("--config", required=True, help="task configuration JSON")
    run_p.add_argument("--task", help="override the configured task")
    run_p.add_argument("--seed", type=int, help="override the root seed")
    run_p.add_argument("--out", help="report output path")
    run_p.add_argument("--evaluator", help="override the evaluator choice")
    ver_p = sub.add_parser("verify", help="run a named property suite")
    ver_p.add_argument(
        "--suite",
        default="all",
        help="duality | mps | network | oqt | thermal | amplitude | all",
    )
    ver_p.add_argument("--out", help="summary JSON output path")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_run(args)


def _cmd_run(args) -> int:
    try:
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise ConfigError(f"config file not found: {cfg_path}")
        try:
            raw = json.loads(cfg_path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        for key in ("task", "seed", "evaluator", "out"):
            value = getattr(args, key, None)
            if value is not None:
                raw[key] = value
        config = ExperimentConfig(raw, cfg_path.parent)
        report = run_task(config)
    except ConfigError as exc:
        _dump_report({"error": {"type": "ConfigError", "message": str(exc)}}, None)
        return 2
    except EpsimError as exc:
        _dump_report(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            getattr(args, "out", None),
        )
        return 1
    _dump_report(report, config.out or args.out)
    return 0


def _cmd_verify(args) -> int:
    try:
        results = verify.run_suite(args.suite)
    except EpsimError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2
    for r in results:
        print(r.line())
    summary = {
        "schema_version": SCHEMA_VERSION,
        "suite": args.suite,
        "checks": [
            {
                "suite": r.suite,
                "name": r.name,
                "metric": r.metric,
                "threshold": r.threshold,
                "passed": r.passed,
                "seconds": r.seconds,
                "note": r.note,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"{'PASS' if summary['passed'] else 'FAIL'}: "
          f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
