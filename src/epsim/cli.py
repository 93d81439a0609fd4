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
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import algorithms as alg
from . import limits
from . import network as net
from . import oracle, serialize, verify
from .errors import ConfigError, EpsimError, SizeGuardError
from .hamiltonians import LocalHamiltonian
from .linalg import PAULI, embed_operator, matrix_exp
from .mps import MPS
from .rand import random_duality_groups

SCHEMA_VERSION = 1
_REQUIRED = object()
_NONNEG = (0, math.inf)
# Each task's fields: name -> (kind, bound, default or _REQUIRED); a JSON null
# is an absent field.  Kinds: "int", a JSON integer within the closed bound;
# "real", a finite JSON number within it; "positive", a finite JSON number
# > 0; "bool"; "choice", one of the bound's strings; "path", an existing
# file, relative to the config's directory; "out", a file to write, relative
# to the working directory, in an existing directory; "ints", a list of JSON
# integers; "observable", an entry {"site"?, "pauli" | "matrix"} whose site
# defaults to the bound and whose "matrix" is square (kind "matrix");
# "observables", a list of entries that name a site.
COMMON = {"seed": ("int", _NONNEG, 0), "out": ("out", None, None)}
SHOTS = (1, limits.MAX_SHOTS)
FIELDS = {
    "dynamics": {
        "state_file": ("path", None, _REQUIRED),
        "circuit_file": ("path", None, _REQUIRED),
        "observables": ("observables", None, _REQUIRED),
        "evaluator": ("choice", ("exact", "regions", "sampled"), "exact"),
        "partition_splits": ("ints", None, None),
        "shots": ("int", SHOTS, 10**5),
        "strategy": ("choice", ("postselect", "corrected"), "postselect"),
    },
    "thermal": {
        "model_file": ("path", None, _REQUIRED),
        "observable": ("observable", None, _REQUIRED),
        "beta": ("real", _NONNEG, _REQUIRED),
        "epsilon": ("positive", None, _REQUIRED),
        "mode": ("choice", ("exact", "trotter"), "exact"),
        "normalized": ("bool", None, False),
    },
    "entropy": {"model_file": ("path", None, _REQUIRED), "epsilon": ("positive", None, _REQUIRED)},
    "amplitude": {
        "phi_file": ("path", None, _REQUIRED),
        "psi_file": ("path", None, _REQUIRED),
        "unitary_file": ("path", None, _REQUIRED),
        "shots": ("int", SHOTS, None),
    },
    "duality-check": {  # the run prices n_cases and max_dim against their size guards
        "n_cases": ("int", (1, math.inf), 100),
        "max_dim": ("int", (2, math.inf), 4),
        "tolerance": ("positive", None, limits.DUALITY_TOL),
    },
}
TASKS = tuple(FIELDS)


class ExperimentConfig:
    """Validated view of a task configuration: every field of the task's
    table is checked, and any other field refused, before an input file is
    read.  ``raw`` is the input as given, ``config[name]`` a checked value."""

    def __init__(self, raw: dict, base_dir: Path):
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        self.raw = dict(raw)
        self.task = raw.get("task")
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        fields = {**COMMON, **FIELDS[self.task]}
        unknown = sorted(set(raw) - set(fields) - {"task"})
        if unknown:
            raise ConfigError(f"config field {unknown[0]} is not a field of task {self.task!r}")
        missing = [k for k, spec in fields.items() if spec[2] is _REQUIRED and raw.get(k) is None]
        if missing:
            raise ConfigError(f"task {self.task!r} needs fields {missing}")
        self.values = {key: _field(raw, key, spec, base_dir) for key, spec in fields.items()}
        self.seed, self.out = self.values["seed"], self.values["out"]

    def __getitem__(self, key):
        return self.values[key]

    def parse(self, key: str, parser):
        """``parser`` applied to the JSON of the ``key`` file; a missing
        field or a value of the wrong type or form is a ConfigError."""
        data = _read_json(self[key], f"{key} file")
        try:
            return parser(data)
        except EpsimError:  # several are ValueErrors; they keep their own type
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"{key} file is malformed ({type(exc).__name__}: {exc})"
            ) from exc


def _read_json(path: Path, what: str):
    """The JSON in the file ``path``; a file that cannot be read, is not
    UTF-8 or is not JSON is a ConfigError naming ``what``."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} cannot be read ({type(exc).__name__}: {exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def _field(data: dict, key: str, spec, base_dir=None, where: str = ""):
    """The value of ``key`` checked as ``spec`` = (kind, bound, default), or
    the default when the field is absent or null.  A missing required field,
    or a value the kind rejects, is a ConfigError naming the field."""
    kind, bound, default = spec
    if data.get(key) is None:
        if default is _REQUIRED:
            raise ConfigError(f"config field {where}{key} is required")
        return default
    try:
        return _KINDS[kind](data[key], bound, where + key, base_dir)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config field {where}{key} is malformed ({exc})") from exc


def _typed(value, kind, name):
    """``value`` if it is a ``kind``, where only JSON true and false are bools:
    float(True), bool("false") and int(1000.9) would pass a converted value on."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise TypeError(f"expected {name}, got {value!r}")
    return value


def _number(value, bound, *_):
    """A finite JSON number within ``bound``: JSON's NaN and Infinity parse as floats."""
    if not (math.isfinite(_typed(value, (int, float), "a number"))
            and bound[0] <= value <= bound[1]):
        raise ValueError(f"expected a finite value in {bound[0]}..{bound[1]}, got {value!r}")
    return value


def _positive(value, *_):
    if not _number(value, _NONNEG) > 0:
        raise ValueError(f"expected a finite number > 0, got {value!r}")
    return float(value)


def _choice(value, options, *_):
    if _typed(value, str, "a string") not in options:
        raise ValueError(f"expected one of {options}, got {value!r}")
    return value


def _path(value, _, key, base_dir):
    path = base_dir / _typed(value, str, "a file path")  # an absolute path replaces base_dir
    if not path.is_file():
        raise ConfigError(f"{key} file not found: {path}")
    return path


def _out(value, key: str) -> str:
    """``value`` if a report can be written there: a path, relative to the
    working directory, that is no directory and whose directory exists."""
    path = Path(value)
    if path.is_dir() or not path.parent.is_dir():
        raise ConfigError(f"{key} = {value!r} is not a file path in an existing directory")
    return value


def _square_matrix(value, *_):
    """Nested rows of [re, im] pairs, as many rows as columns."""
    m = serialize.parse_cmat_nested(_typed(value, list, "a list of rows"))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _observable(spec, site, where, *_):
    """(site, matrix, matrix field) of one observable entry; the site is
    ``site`` when the entry names none."""
    if not isinstance(spec, dict):
        raise ConfigError(f"config field {where} must be a JSON object")
    site = _field(spec, "site", ("int", _NONNEG, site), where=where + ".")
    if "pauli" in spec:
        names = tuple(PAULI) + tuple(map(str.lower, PAULI))
        name = _field(spec, "pauli", ("choice", names, _REQUIRED), where=where + ".")
        return site, PAULI[name.upper()], "pauli"
    if "matrix" in spec:
        matrix = _field(spec, "matrix", ("matrix", None, _REQUIRED), where=where + ".")
        return site, matrix, "matrix"
    raise ConfigError(f"config field {where} needs a 'pauli' or 'matrix' field")


_KINDS = {
    "int": lambda v, bound, *_: _number(_typed(v, int, "an integer"), bound),
    "real": lambda v, bound, *_: float(_number(v, bound)),
    "positive": _positive,
    "bool": lambda v, *_: _typed(v, bool, "true or false"),
    "choice": _choice,
    "out": lambda v, _, key, *__: _out(_typed(v, str, "a file path"), f"config field {key}"),
    "path": _path,
    "ints": lambda v, *_: [_typed(s, int, "an integer") for s in _typed(v, list, "a list")],
    "matrix": _square_matrix,
    "observable": _observable,
    "observables": lambda v, _, key, *__: [_observable(spec, _REQUIRED, f"{key}[{k}]")
                                           for k, spec in enumerate(_typed(v, list, "a list"))],
}


def _placed(obs, where: str, n_sites: int, phys_dim: int, full_dim=None):
    """(site, matrix) of an observable, checked against the model: a
    site-less one acts on the whole model, of dimension ``full_dim``."""
    site, m, key = obs
    if site is not None and site >= n_sites:
        raise ConfigError(f"config field {where}.site = {site} is not in 0..{n_sites - 1}")
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


def _number_of(field):
    return complex(field["re"], field["im"]) if isinstance(field, dict) else field


def run_task(config: ExperimentConfig) -> dict:
    started = time.perf_counter()
    handler = {"dynamics": _run_dynamics, "thermal": _run_thermal, "entropy": _run_entropy,
               "amplitude": _run_amplitude, "duality-check": _run_duality_check}[config.task]
    body = handler(config)
    if body.get("oracle") is not None and body.get("value") is not None:
        body["abs_error"] = abs(_number_of(body["value"]) - _number_of(body["oracle"]))
    return {
        "schema_version": SCHEMA_VERSION,
        "task": config.task,
        "seed": config.seed,
        "config": config.raw,
        **body,
        "meta": {"wall_time_s": time.perf_counter() - started},
    }


def _run_dynamics(config: ExperimentConfig) -> dict:
    psi = config.parse("state_file", MPS.from_dict).canonicalize()
    circuit = config.parse("circuit_file", net.BrickworkCircuit.from_dict)
    obs = [_placed(o, f"observables[{k}]", circuit.n_sites, circuit.phys_dim)
           for k, o in enumerate(config["observables"])]
    network = net.build_network(psi, circuit, obs)
    stderr = None
    extra = {}
    if config["evaluator"] == "exact":
        value = net.evaluate_exact(network)
    elif config["evaluator"] == "regions":
        splits = config["partition_splits"]
        if splits is None:
            splits = [max(1, circuit.n_sites // 2)]
        value = net.evaluate_regions(network, net.column_partition(network, splits))
    else:
        res = net.evaluate_sampled(network, config["shots"], config.seed, config["strategy"])
        value = res.estimate
        stderr = res.stderr
        extra = {k: getattr(res, k) for k in ("accepted", "acceptance_rate", "clipped_mass",
                                              "expected_accepted", "expected_stderr")}
    try:
        want = oracle.circuit_expectation(psi, circuit, dict(obs))
        oracle_field = _complex_field(want)
    except SizeGuardError:
        oracle_field = None
    return {
        "value": _complex_field(value),
        "stderr": stderr,
        "oracle": oracle_field,
        "resources": dataclasses.asdict(net.resources(circuit)),
        "gates_pruned": network.gates_pruned,
        **extra,
    }


def _run_thermal(config: ExperimentConfig) -> dict:
    ham = config.parse("model_file", LocalHamiltonian.from_dict)
    dim = ham.dense_dim()  # refused from the sites alone, before any dense array
    site, obs = _placed(config["observable"], "observable", ham.n_sites, ham.phys_dim, dim)
    if site is not None:
        obs = embed_operator(obs, [site], [ham.phys_dim] * ham.n_sites)
    job = alg.ThermalJob(observable=obs, hamiltonian=ham, beta=config["beta"],
                         epsilon=config["epsilon"], mode=config["mode"])
    res = alg.thermal_value(job, normalized=config["normalized"])
    stack = np.stack([obs, np.eye(dim)]) if config["normalized"] else obs
    want = oracle.thermal_exact(stack, ham, job.beta)  # both traces from one dense H
    want = want[0] / want[1] if config["normalized"] else want
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
    res = alg.entropy(ham, config["epsilon"])
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
    u = config.parse("unitary_file", lambda data: serialize.parse_cmat_nested(data["matrix"]))
    shots = config["shots"]
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
    n_cases, max_dim, tol = config["n_cases"], config["max_dim"], config["tolerance"]
    # Priced before the first draw: the cases, and the largest dense matrices
    # of a case, its Haar draw, of dimension d_out * n_kraus <= 3 * max_dim,
    # and its Choi matrix, of dimension d_in * d_out <= max_dim^2, which is
    # eigendecomposed as a dense Hamiltonian is.
    limits.guard(n_cases, limits.MAX_DUALITY_CASES, "duality-check n_cases", "cases")
    limits.guard(max(3 * max_dim, max_dim**2), limits.DENSE_DIM_GUARD,
                 f"max_dim = {max_dim}: a dense matrix", "rows")
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
    ver_p.add_argument("--suite", default="all",
                       help="duality | mps | network | oqt | thermal | amplitude | all")
    ver_p.add_argument("--out", help="summary JSON output path")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_run(args)


def _cmd_run(args) -> int:
    config = None
    try:
        cfg_path = Path(args.config)
        raw = _read_json(cfg_path, "config")
        flags = {k: getattr(args, k) for k in ("task", "seed", "evaluator", "out")}
        if isinstance(raw, dict):
            raw.update({k: v for k, v in flags.items() if v is not None})
        config = ExperimentConfig(raw, cfg_path.parent)
        report = run_task(config)
    except EpsimError as exc:  # a ConfigError exits 2 and writes no report file
        bad_config = isinstance(exc, ConfigError)
        _dump_report({"error": {"type": type(exc).__name__, "message": str(exc)}},
                     None if bad_config or config is None else config.out)
        return 2 if bad_config else 1
    _dump_report(report, config.out)
    return 0


def _cmd_verify(args) -> int:
    try:
        if args.out:  # refused before the first suite runs
            _out(args.out, "--out")
        results = verify.run_suite(args.suite)
    except EpsimError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2
    for r in results:
        print(r.line())
    summary = {
        "schema_version": SCHEMA_VERSION,
        "suite": args.suite,
        "checks": [dataclasses.asdict(r) for r in results],
        "passed": all(r.passed for r in results),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"{'PASS' if summary['passed'] else 'FAIL'}: "
          f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
