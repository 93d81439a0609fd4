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
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg

from . import algorithms as alg
from . import network as net
from . import oracle, serialize, verify
from .errors import ConfigError, EpsimError, SizeGuardError
from .hamiltonians import LocalHamiltonian
from .linalg import PAULI, embed_operator
from .mps import MPS
from .rand import random_density, random_kraus_set

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
        self.seed = _field(raw, "seed", int, 0)
        self.evaluator = raw.get("evaluator", "exact")
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


def _observable(spec, where: str, n_sites: int, site_required: bool):
    """(site, matrix) of one observable entry; site None if it names none."""
    if not isinstance(spec, dict):
        raise ConfigError(f"config field {where} must be a JSON object")
    site = _field(spec, "site", int, _REQUIRED if site_required else None, where + ".")
    if site is not None and not 0 <= site < n_sites:
        raise ConfigError(f"config field {where}.site = {site} is not in 0..{n_sites - 1}")
    if "pauli" in spec:
        name = _field(spec, "pauli", str, where=where + ".").upper()
        if name not in PAULI:
            raise ConfigError(f"unknown Pauli name {spec['pauli']!r}")
        return site, PAULI[name]
    if "matrix" in spec:
        return site, _field(spec, "matrix", serialize.parse_cmat_nested, where=where + ".")
    raise ConfigError("observable entries need a 'pauli' or 'matrix' field")


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
    psi = config.parse("state_file", MPS.from_dict).canonicalize("left")
    circuit = config.parse("circuit_file", net.BrickworkCircuit.from_dict)
    obs = [
        _observable(entry, f"observables[{k}]", circuit.n_sites, True)
        for k, entry in enumerate(_field(config.raw, "observables", list))
    ]
    network = net.build_network(psi, circuit, obs)
    stderr = None
    extra = {}
    if config.evaluator == "exact":
        value = net.evaluate_exact(network)
    elif config.evaluator == "regions":
        splits = _field(config.raw, "partition_splits", lambda v: [int(s) for s in v],
                        [max(1, circuit.n_sites // 2)])
        value, probs = net.evaluate_regions(
            network, net.column_partition(network, splits)
        )
        extra["region_probs"] = [float(p) for p in probs]
    elif config.evaluator == "sampled":
        shots = _field(config.raw, "shots", int, 10**5)
        strategy = config.raw.get("strategy", "postselect")
        res = net.evaluate_sampled(network, shots, config.seed, strategy)
        value = res.estimate
        stderr = res.stderr
        extra["accepted"] = res.accepted
        extra["acceptance_rate"] = res.acceptance_rate
        extra["clipped_mass"] = res.clipped_mass
    else:
        raise ConfigError(f"unknown evaluator {config.evaluator!r}")
    try:
        want = oracle.circuit_expectation(
            psi.to_statevector(),
            circuit,
            dict(obs),
            [circuit.phys_dim] * circuit.n_sites,
        )
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
    ham = config.parse("model_file", LocalHamiltonian.from_dict)
    site, obs = _observable(config.raw["observable"], "observable", ham.n_sites, False)
    if site is not None:
        obs = embed_operator(obs, [site], [ham.phys_dim] * ham.n_sites)
    beta = _field(config.raw, "beta", float)
    epsilon = _field(config.raw, "epsilon", float)
    order = _field(config.raw, "order", int, None)
    if order is None:
        from .hamiltonians import centered

        h_c, mu = centered(ham)
        alpha = float(np.sum(np.abs(np.linalg.eigvalsh(obs))))
        order = alg.choose_truncation(
            beta, h_c.norm_bound(),
            0.4 * epsilon / (np.exp(-beta * mu) * max(alpha, 1.0)),
        )
    job = alg.ThermalJob(
        observable=obs,
        hamiltonian=ham,
        beta=beta,
        epsilon=epsilon,
        order=order,
        mode=config.raw.get("mode", "exact"),
        tau=_field(config.raw, "tau", float, None),
        reps=_field(config.raw, "R", int, None),
        grid=_field(config.raw, "grid", lambda g: tuple(float(t) for t in g), None) or None,
    )
    normalized = _field(config.raw, "normalized", bool, False)
    res = alg.thermal_value(job, normalized=normalized)
    try:
        want = oracle.thermal_exact(obs, ham, beta)
        if normalized:
            want /= oracle.thermal_exact(np.eye(obs.shape[0]), ham, beta)
    except SizeGuardError:
        want = None
    return {
        "value": res.value,
        "stderr": None,
        "oracle": want,
        "budget": res.budget,
        "moments_condition": res.moments_condition,
        "order": order,
        "resources": None,
    }


def _run_entropy(config: ExperimentConfig) -> dict:
    ham = config.parse("model_file", LocalHamiltonian.from_dict)
    epsilon = _field(config.raw, "epsilon", float)
    value = alg.entropy(ham, epsilon)
    try:
        rho = scipy.linalg.expm(-ham.dense())
        want = oracle.entropy_exact(rho / np.trace(rho))
    except SizeGuardError:
        want = None
    return {"value": value, "stderr": None, "oracle": want, "resources": None}


def _run_amplitude(config: ExperimentConfig) -> dict:
    phi = _load_vector(config, "phi_file")
    psi = _load_vector(config, "psi_file")
    u = config.parse(
        "unitary_file", lambda data: serialize.parse_cmat_nested(data["matrix"])
    )
    shots = _field(config.raw, "shots", int, None) or None
    est = alg.transition_amplitude(phi, u, psi, shots=shots, seed=config.seed)
    want = oracle.amplitude_exact(phi, u, psi)
    return {
        "value": _complex_field(est.value),
        "stderr": est.stderr if shots else None,
        "oracle": _complex_field(want),
        "shots_used": est.shots,
        "resources": None,
    }


def _run_duality_check(config: ExperimentConfig) -> dict:
    n_cases = _field(config.raw, "n_cases", int, 100)
    max_dim = _field(config.raw, "max_dim", int, 4)
    tol = _field(config.raw, "tolerance", float, 1e-10)
    rng = np.random.default_rng(config.seed)
    worst = 0.0
    from .channels import Channel

    for _ in range(n_cases):
        d_in = int(rng.integers(2, max_dim + 1))
        d_out = int(rng.integers(2, max_dim + 1))
        phi = Channel(tuple(random_kraus_set(rng, d_in, d_out, int(rng.integers(1, 4)))))
        omega = phi.to_choi()
        back = omega.to_channel()
        rho = random_density(rng, d_in)
        worst = max(
            worst,
            float(np.max(np.abs(omega.apply(rho) - phi.apply(rho)))),
            float(np.max(np.abs(back.apply(rho) - phi.apply(rho)))),
        )
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


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)

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
