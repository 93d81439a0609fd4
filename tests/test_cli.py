import itertools
import json
import time

import numpy as np
import pytest

from conftest import PAULI, random_kraus
from epsim import cli, mps, network, oracle, serialize
from epsim.hamiltonians import build_heisenberg, build_tfim
from epsim.linalg import embed_operator
from epsim.channels import Channel, ChoiState, choi_eigh, choi_kraus, kraus_to_choi
from epsim.rand import (
    haar_unitary,
    random_canonical_mps,
    random_density,
    random_state,
)


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(0)
    n = 4
    state = mps.from_statevector(random_state(rng, 2**n), [2] * n)
    (tmp_path / "state.json").write_text(json.dumps(state.to_dict()))
    layers = tuple(
        tuple((s, haar_unitary(rng, 4)) for s in range(l % 2, n - 1, 2))
        for l in range(2)
    )
    circ = network.BrickworkCircuit(n, layers)
    (tmp_path / "circuit.json").write_text(json.dumps(circ.to_dict()))
    (tmp_path / "tfim.json").write_text(json.dumps(build_tfim(2, 1.0, 1.0).to_dict()))
    phi = random_state(rng, 4)
    psi = random_state(rng, 4)
    u = haar_unitary(rng, 4)
    (tmp_path / "phi.json").write_text(json.dumps({"vector": serialize.cvec(phi)}))
    (tmp_path / "psi.json").write_text(json.dumps({"vector": serialize.cvec(psi)}))
    (tmp_path / "unitary.json").write_text(
        json.dumps({"matrix": serialize.cmat_nested(u)})
    )
    # A two-site instance small enough for heralded sampling.
    small = mps.from_statevector(random_state(rng, 4), [2, 2])
    (tmp_path / "state2.json").write_text(json.dumps(small.to_dict()))
    circ2 = network.BrickworkCircuit(2, (((0, haar_unitary(rng, 4)),),))
    (tmp_path / "circuit2.json").write_text(json.dumps(circ2.to_dict()))
    return tmp_path


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def _assert_runs_without_scipy(argv):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import epsim

    script = (
        "import sys, epsim.cli\n"
        f"code = epsim.cli.main({argv!r})\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, 'scipy was loaded'\n"
    )
    src = str(Path(epsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_dynamics_run_does_not_load_scipy(workdir):
    config = {
        "task": "dynamics",
        "state_file": "state.json",
        "circuit_file": "circuit.json",
        "observables": [{"site": 1, "pauli": "Z"}],
        "out": str(workdir / "report.json"),
    }
    (workdir / "job.json").write_text(json.dumps(config))
    _assert_runs_without_scipy(["run", "--config", str(workdir / "job.json")])
    assert json.loads((workdir / "report.json").read_text())["abs_error"] < 1e-8


@pytest.mark.parametrize("config", [
    {"task": "duality-check", "n_cases": 20, "seed": 3},
    {"task": "amplitude", "phi_file": "phi.json", "psi_file": "psi.json",
     "unitary_file": "unitary.json", "seed": 0},
], ids=["duality-check", "amplitude"])
def test_cli_channel_tasks_do_not_load_scipy(workdir, config):
    (workdir / "job.json").write_text(json.dumps(config))
    _assert_runs_without_scipy(["run", "--config", str(workdir / "job.json")])


def test_verify_duality_does_not_load_scipy():
    _assert_runs_without_scipy(["verify", "--suite", "duality"])


@pytest.mark.parametrize("config", [
    {"task": "thermal", "model_file": "tfim.json", "observable": {"site": 0, "pauli": "Z"},
     "beta": 0.5, "epsilon": 1e-3, "mode": "exact"},
    {"task": "thermal", "model_file": "tfim.json", "observable": {"site": 0, "pauli": "Z"},
     "beta": 0.5, "epsilon": 1e-3, "mode": "trotter"},
    {"task": "entropy", "model_file": "mod.json", "epsilon": 1e-3},
], ids=["thermal-exact", "thermal-trotter", "entropy"])
def test_cli_estimator_tasks_do_not_load_scipy(workdir, config):
    # H = -log(diag(0.75, 0.25) (x) 1/2), a modular Hamiltonian for entropy.
    mod = {"n_sites": 2, "phys_dim": 2, "terms": [
        {"support": [0], "matrix": serialize.cmat_flat(np.diag(-np.log([0.75, 0.25])))},
        {"support": [1], "matrix": serialize.cmat_flat(np.log(2) * np.eye(2))},
    ]}
    (workdir / "mod.json").write_text(json.dumps(mod))
    (workdir / "job.json").write_text(json.dumps(config))
    _assert_runs_without_scipy(["run", "--config", str(workdir / "job.json")])


def test_verify_all_does_not_load_scipy():
    _assert_runs_without_scipy(["verify", "--suite", "all"])


def test_no_program_module_imports_scipy():
    import ast
    from pathlib import Path

    import epsim

    for path in sorted(Path(epsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n == "scipy" or n.startswith("scipy.") for n in names), \
                f"{path.name}:{node.lineno} imports scipy"


def test_dynamics_exact_report(workdir, capsys):
    config = {
        "task": "dynamics",
        "state_file": "state.json",
        "circuit_file": "circuit.json",
        "observables": [{"site": 1, "pauli": "Z"}],
        "evaluator": "exact",
        "seed": 3,
    }
    (workdir / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["abs_error"] < 1e-8
    assert report["resources"]["evolution_qudits"] == 6 * 2 * 2
    assert report["gates_pruned"] == 0  # Z on site 1: every gate is in its cone
    assert report["config"]["observables"][0]["site"] == 1


def test_dynamics_sampled_and_regions(workdir, capsys):
    base = {
        "task": "dynamics",
        "state_file": "state.json",
        "circuit_file": "circuit.json",
        "observables": [{"site": 0, "pauli": "Z"}],
        "seed": 5,
    }
    (workdir / "job.json").write_text(json.dumps(base))
    code, out = run_cli(
        ["run", "--config", str(workdir / "job.json"), "--evaluator", "regions"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["abs_error"] < 1e-8
    # Z on site 0 sees the layer-0 gate on (0, 1) only; resources count all three.
    assert report["gates_pruned"] == 2 and report["resources"]["total_gates"] == 4


def test_thermal_beta_zero(workdir, capsys):
    config = {
        "task": "thermal",
        "model_file": "tfim.json",
        "observable": {"site": 0, "pauli": "Z"},
        "beta": 0.0,
        "epsilon": 1e-6,
        "seed": 1,
    }
    (workdir / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert abs(report["value"] - 0.0) < 1e-10  # Tr(Z (x) 1) = 0
    assert report["abs_error"] < 1e-10
    assert set(report["budget"]) == {"taylor", "trotter", "solver"}
    assert report["order"] == 1


def test_thermal_auto_order(workdir, capsys):
    config = {
        "task": "thermal",
        "model_file": "tfim.json",
        "observable": {"site": 0, "pauli": "Z"},
        "beta": 0.5,
        "epsilon": 1e-3,
        "seed": 1,
    }
    (workdir / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["abs_error"] < 1e-3
    assert report["order"] >= 2


def test_amplitude_identity(workdir, capsys):
    config = {
        "task": "amplitude",
        "phi_file": "phi.json",
        "psi_file": "phi.json",
        "unitary_file": "unitary.json",
        "seed": 0,
    }
    (workdir / "job.json").write_text(json.dumps(config))
    # Use the identity by overwriting the unitary file.
    (workdir / "unitary.json").write_text(
        json.dumps({"matrix": serialize.cmat_nested(np.eye(4))})
    )
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert abs(report["value"]["re"] - 1) < 1e-8
    assert report["abs_error"] < 1e-8


def test_duality_check_task(workdir, capsys):
    config = {"task": "duality-check", "n_cases": 20, "seed": 9}
    (workdir / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["value"] <= report["tolerance"]


def _duality_check_per_case(seed, n_cases=100, max_dim=4):
    """The duality check one channel at a time through Channel / ChoiState."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        d_in = int(rng.integers(2, max_dim + 1))
        d_out = int(rng.integers(2, max_dim + 1))
        phi = Channel(tuple(random_kraus(rng, d_in, d_out, int(rng.integers(1, 4)))))
        omega = ChoiState(d_in, d_out, kraus_to_choi(phi.stack))
        back = Channel(tuple(choi_kraus(*choi_eigh(omega.matrix, d_in, d_out), d_in, d_out)))
        rho = random_density(rng, d_in)
        worst = max(
            worst,
            float(np.max(np.abs(omega.apply(rho) - phi.apply(rho)))),
            float(np.max(np.abs(back.apply(rho) - phi.apply(rho)))),
        )
    return worst


def test_duality_check_matches_per_case_reference(workdir, capsys):
    for seed in range(10):
        config = {"task": "duality-check", "seed": seed}
        (workdir / "job.json").write_text(json.dumps(config))
        code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
        assert code == 0
        report = json.loads(out)
        want = _duality_check_per_case(seed)
        assert abs(report["value"] - want) < 1e-14
        assert report["passed"] is (want <= report["tolerance"])


def test_report_reproducibility(workdir, capsys):
    config = {
        "task": "dynamics",
        "state_file": "state2.json",
        "circuit_file": "circuit2.json",
        "observables": [{"site": 1, "pauli": "X"}],
        "evaluator": "sampled",
        "shots": 20000,
        "seed": 42,
    }
    (workdir / "job.json").write_text(json.dumps(config))
    reports = []
    for _ in range(2):
        code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
        assert code == 0
        data = json.loads(out)
        data.pop("meta")
        assert 0 <= data["clipped_mass"] <= 1e-12
        assert data["expected_accepted"] > 1 and data["expected_stderr"] > 0
        reports.append(json.dumps(data, sort_keys=True))
    assert reports[0] == reports[1]


def test_seed_override_changes_samples(workdir, capsys):
    config = {
        "task": "dynamics",
        "state_file": "state2.json",
        "circuit_file": "circuit2.json",
        "observables": [{"site": 1, "pauli": "X"}],
        "evaluator": "sampled",
        "shots": 20000,
        "seed": 42,
    }
    (workdir / "job.json").write_text(json.dumps(config))
    _, out1 = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    _, out2 = run_cli(
        ["run", "--config", str(workdir / "job.json"), "--seed", "43"], capsys
    )
    assert json.loads(out1)["value"] != json.loads(out2)["value"]


def test_out_file_written(workdir, capsys):
    config = {"task": "duality-check", "n_cases": 5, "seed": 1}
    (workdir / "job.json").write_text(json.dumps(config))
    out_path = workdir / "report.json"
    code, _ = run_cli(
        ["run", "--config", str(workdir / "job.json"), "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert json.loads(out_path.read_text())["task"] == "duality-check"
    # A task that fails after its config parsed reports to the config's "out".
    (workdir / "tfim20.json").write_text(json.dumps(build_tfim(20, 1.0, 1.0).to_dict()))
    config = {"task": "thermal", "model_file": "tfim20.json", "beta": 0.5, "epsilon": 1e-3,
              "observable": {"site": 0, "pauli": "Z"}, "out": str(workdir / "cfg_out.json")}
    (workdir / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 1
    assert json.loads((workdir / "cfg_out.json").read_text()) == json.loads(out)


def test_config_errors(workdir, capsys):
    code, out = run_cli(["run", "--config", str(workdir / "missing.json")], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ConfigError"
    # A directory, and a file that is not UTF-8, cannot be read as a config.
    (workdir / "latin1.json").write_bytes('{"task": "th\xe9rmal"}'.encode("latin-1"))
    for path in (workdir, workdir / "latin1.json"):
        code, out = run_cli(["run", "--config", str(path)], capsys)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "ConfigError" and "config" in err["message"]
    (workdir / "bad.json").write_text(json.dumps({"task": "thermal"}))
    code, out = run_cli(["run", "--config", str(workdir / "bad.json")], capsys)
    assert code == 2
    assert "needs fields" in json.loads(out)["error"]["message"]


def test_state_file_without_tensors_is_config_error(workdir, capsys):
    (workdir / "notensors.json").write_text(json.dumps({"boundary": [[[1.0, 0.0]]]}))
    config = {
        "task": "dynamics",
        "state_file": "notensors.json",
        "circuit_file": "circuit.json",
        "observables": [{"site": 1, "pauli": "Z"}],
    }
    (workdir / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ConfigError"
    assert "state_file" in err["message"] and "tensors" in err["message"]


def test_zero_vector_is_config_error(workdir, capsys):
    (workdir / "zero.json").write_text(json.dumps({"vector": [[0.0, 0.0]] * 4}))
    config = {
        "task": "amplitude",
        "phi_file": "zero.json",
        "psi_file": "psi.json",
        "unitary_file": "unitary.json",
    }
    (workdir / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ConfigError"
    assert "phi_file" in err["message"]


@pytest.mark.parametrize(
    "task,fields",
    [
        ("thermal", {"beta": "abc"}),
        ("thermal", {"order": "x"}),
        ("thermal", {"observable": {"site": 7, "pauli": "Z"}}),
        ("entropy", {"epsilon": "x"}),
        ("dynamics", {"observables": [{"pauli": "Z"}]}),
        ("thermal", {"normalized": "false"}),
        ("thermal", {"normalized": 1}),
        ("dynamics", {"strategy": "both", "evaluator": "sampled",
                      "observables": [{"site": 1, "pauli": "Z"}]}),
        ("dynamics", {"strategy": ["x"], "evaluator": "sampled",
                      "observables": [{"site": 1, "pauli": "Z"}]}),
        ("thermal", {"mode": 5}),
        ("dynamics", {"shots": 1000.9, "evaluator": "sampled",
                      "observables": [{"site": 1, "pauli": "Z"}]}),
        ("thermal", {"observable": {"site": True, "pauli": "Z"}}),
        ("thermal", {"epsilon": float("inf")}),
        ("thermal", {"epsilon": float("nan")}),
        ("thermal", {"epsilon": 0}),
        ("thermal", {"beta": float("inf")}),
        ("entropy", {"epsilon": float("inf")}),
        ("entropy", {"epsilon": float("nan")}),
        ("entropy", {"epsilon": 0}),
        ("thermal", {"tau": 0.01}),
        ("thermal", {"R": 4}),
        ("thermal", {"grid": [0.1, 0.2]}),
        ("duality-check", {"max_dim": 1}),
        ("duality-check", {"seed": -1}),
        ("amplitude", {"seed": -1, "shots": 1000}),
        ("amplitude", {"shots": -5}),
        ("amplitude", {"shots": 0}),
        ("duality-check", {"n_cases": -3}),
        ("duality-check", {"n_cases": 0}),
        ("duality-check", {"tolerance": True}),
        ("duality-check", {"tolerance": "nan"}),
        ("duality-check", {"tolerance": -1}),
        ("thermal", {"beta": True}),
        ("entropy", {"epsilon": True}),
        ("dynamics", {"observables": [{"site": 1, "matrix": serialize.cmat_nested(np.eye(4))}]}),
    ],
    ids=["beta", "order", "site-range", "epsilon", "no-site", "normalized-str", "normalized-int",
         "strategy-str", "strategy-list", "mode-int", "shots-float", "site-bool",
         "epsilon-inf", "epsilon-nan", "epsilon-zero", "beta-inf",
         "entropy-epsilon-inf", "entropy-epsilon-nan", "entropy-epsilon-zero",
         "tau", "R", "grid", "max-dim-1", "duality-seed-negative", "amplitude-seed-negative",
         "shots-negative", "shots-zero", "n-cases-negative", "n-cases-zero",
         "tolerance-bool", "tolerance-nan", "tolerance-negative", "beta-bool",
         "epsilon-bool", "dynamics-observable-size"],
)
def test_malformed_config_field_is_config_error(workdir, capsys, task, fields):
    base = {
        "thermal": {"model_file": "tfim.json", "beta": 0.5, "epsilon": 1e-3,
                    "observable": {"site": 0, "pauli": "Z"}},
        "entropy": {"model_file": "tfim.json", "epsilon": 1e-3},
        "dynamics": {"state_file": "state.json", "circuit_file": "circuit.json"},
        "amplitude": {"phi_file": "phi.json", "psi_file": "psi.json",
                      "unitary_file": "unitary.json"},
        "duality-check": {},
    }[task]
    (workdir / "job.json").write_text(json.dumps({"task": task, **base, **fields}))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ConfigError"
    assert next(iter(fields)) in err["message"]


def test_negative_seed_flag_is_config_error(workdir, capsys):
    (workdir / "job.json").write_text(json.dumps({"task": "duality-check", "n_cases": 2}))
    code, out = run_cli(["run", "--config", str(workdir / "job.json"), "--seed", "-1"], capsys)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ConfigError" and "seed" in err["message"]


@pytest.mark.parametrize("mode", ["exact", "trotter"])
def test_thermal_tfim6_at_cli_order(tmp_path, capsys, mode):
    (tmp_path / "tfim6.json").write_text(json.dumps(build_tfim(6, 1.0, 1.0).to_dict()))
    config = {
        "task": "thermal",
        "model_file": "tfim6.json",
        "observable": {"site": 0, "pauli": "Z"},
        "beta": 0.5,
        "epsilon": 1e-3,
        "mode": mode,
    }
    (tmp_path / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(tmp_path / "job.json")], capsys)
    assert code == 0
    report = json.loads(out)
    want = oracle.thermal_exact(
        embed_operator(PAULI["Z"], [0], [2] * 6), build_tfim(6, 1.0, 1.0), 0.5
    )
    assert abs(report["value"] - want) < 1e-3


def test_normalized_thermal_oracle_exponentiates_once(tmp_path, capsys, monkeypatch):
    h = build_tfim(4, 1.0, 0.8)
    (tmp_path / "tfim4.json").write_text(json.dumps(h.to_dict()))
    config = {"task": "thermal", "model_file": "tfim4.json", "normalized": True,
              "observable": {"site": 2, "pauli": "X"}, "beta": 0.5, "epsilon": 1e-3}
    (tmp_path / "job.json").write_text(json.dumps(config))
    a = embed_operator(PAULI["X"], [2], [2] * 4)
    want = oracle.thermal_exact(a, h, 0.5) / oracle.thermal_exact(np.eye(16), h, 0.5)
    exps = []
    matrix_exp = oracle.matrix_exp
    monkeypatch.setattr(oracle, "matrix_exp", lambda *args: exps.append(1) or matrix_exp(*args))
    code, out = run_cli(["run", "--config", str(tmp_path / "job.json")], capsys)
    assert code == 0 and json.loads(out)["oracle"] == want
    assert len(exps) == 1


@pytest.mark.parametrize("mode", ["exact", "trotter"])
def test_thermal_past_dense_guard_refuses_before_any_dense_array(tmp_path, capsys, monkeypatch,
                                                                 mode):
    # At 16 sites embedding the observable alone would need np.eye(2**15).
    def unreachable(*args):
        raise AssertionError("a dense array was built before the size guard")

    monkeypatch.setattr(cli, "embed_operator", unreachable)
    monkeypatch.setattr(cli.alg, "_spectrum", unreachable)
    (tmp_path / "tfim16.json").write_text(json.dumps(build_tfim(16, 1.0, 1.0).to_dict()))
    config = {"task": "thermal", "model_file": "tfim16.json",
              "observable": {"site": 0, "pauli": "Z"}, "beta": 0.5, "epsilon": 1e-3,
              "mode": mode}
    (tmp_path / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(tmp_path / "job.json")], capsys)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "SizeGuardError" and "65536" in err["message"]


@pytest.mark.parametrize("shape", [(2, 3), (3, 4)])
def test_thermal_non_square_observable_is_config_error(workdir, capsys, shape):
    config = {"task": "thermal", "model_file": "tfim.json",
              "observable": {"matrix": serialize.cmat_nested(np.ones(shape))},
              "beta": 0.5, "epsilon": 1e-3}
    (workdir / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ConfigError" and "observable.matrix" in err["message"]
    assert "square" in err["message"]


def test_thermal_observable_of_the_wrong_size_is_config_error(workdir, capsys):
    (workdir / "tfim3.json").write_text(json.dumps(build_tfim(3, 1.0, 1.0).to_dict()))
    for observable, field in (({"matrix": serialize.cmat_nested(np.eye(2))}, "matrix"),
                              ({"site": 1, "matrix": serialize.cmat_nested(np.eye(8))}, "matrix"),
                              ({"pauli": "Z"}, "pauli")):
        config = {"task": "thermal", "model_file": "tfim3.json", "observable": observable,
                  "beta": 0.5, "epsilon": 1e-3}
        (workdir / "job.json").write_text(json.dumps(config))
        code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "ConfigError" and f"observable.{field}" in err["message"]


FILE_FIELDS = [("dynamics", "state_file"), ("dynamics", "circuit_file"),
               ("thermal", "model_file"), ("entropy", "model_file"), ("amplitude", "phi_file"),
               ("amplitude", "psi_file"), ("amplitude", "unitary_file")]


@pytest.mark.parametrize("task,key", FILE_FIELDS, ids=[f"{t}-{k}" for t, k in FILE_FIELDS])
def test_file_field_that_is_not_a_string_is_config_error(workdir, capsys, task, key):
    base = {
        "thermal": {"model_file": "tfim.json", "beta": 0.5, "epsilon": 1e-3,
                    "observable": {"site": 0, "pauli": "Z"}},
        "entropy": {"model_file": "tfim.json", "epsilon": 1e-3},
        "dynamics": {"state_file": "state.json", "circuit_file": "circuit.json",
                     "observables": [{"site": 1, "pauli": "Z"}]},
        "amplitude": {"phi_file": "phi.json", "psi_file": "psi.json",
                      "unitary_file": "unitary.json"},
    }[task]
    (workdir / "latin1.json").write_bytes('{"n_sites": "\xe9"}'.encode("latin-1"))
    for value in (7, True, [], {}, "latin1.json"):  # the last file is not UTF-8
        (workdir / "job.json").write_text(json.dumps({"task": task, **base, key: value}))
        code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "ConfigError" and key in err["message"]


def test_budget_error_surfaces(workdir, capsys):
    # The Chebyshev tail needs an order past the cap here.
    (workdir / "heis3.json").write_text(json.dumps(build_heisenberg(3, 1.0).to_dict()))
    config = {
        "task": "thermal",
        "model_file": "heis3.json",
        "observable": {"site": 0, "pauli": "Z"},
        "beta": 20.0,
        "epsilon": 1e-5,
        "seed": 1,
    }
    (workdir / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "BudgetError"
    assert "order" in err["message"]


def test_verify_command(workdir, capsys, monkeypatch):
    out_path = workdir / "summary.json"
    code, out = run_cli(
        ["verify", "--suite", "oqt", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert "[PASS] oqt/mixing-identity" in out
    summary = json.loads(out_path.read_text())
    assert summary["passed"] is True
    assert all(c["seconds"] >= 0 for c in summary["checks"])
    code, _ = run_cli(["verify", "--suite", "nonsense"], capsys)
    assert code == 2

    # A summary path in a missing directory is refused before the first suite.
    def refuse(name):
        raise AssertionError("a suite ran before the summary path was checked")

    monkeypatch.setattr(cli.verify, "run_suite", refuse)
    code, out = run_cli(["verify", "--out", str(workdir / "nodir" / "v.json")], capsys)
    err = json.loads(out)["error"]
    assert code == 2 and err["type"] == "ConfigError" and "--out" in err["message"]


def test_verify_check_seconds_fit_in_its_wall_time(tmp_path, capsys):
    # Each check reports only its own seconds, so none is counted twice.
    start = time.perf_counter()
    code, _ = run_cli(["verify", "--suite", "all", "--out", str(tmp_path / "all.json")], capsys)
    wall = time.perf_counter() - start
    assert code == 0
    checks = json.loads((tmp_path / "all.json").read_text())["checks"]
    assert len(checks) == 23
    assert sum(c["seconds"] for c in checks) <= wall


def test_dynamics_oracle_refuses_from_shapes(tmp_path, capsys, monkeypatch):
    # N = 16 is past the oracle's STATE_GUARD: the report carries no oracle
    # value, and the MPS is never expanded into a statevector.
    n = 16
    rng = np.random.default_rng(3)
    (tmp_path / "state.json").write_text(json.dumps(random_canonical_mps(rng, n, 2).to_dict()))
    layer = tuple((s, haar_unitary(rng, 4)) for s in range(0, n - 1, 2))
    circ = network.BrickworkCircuit(n, (layer,))
    (tmp_path / "circuit.json").write_text(json.dumps(circ.to_dict()))
    config = {"task": "dynamics", "state_file": "state.json", "circuit_file": "circuit.json",
              "observables": [{"site": 3, "pauli": "Z"}]}
    (tmp_path / "job.json").write_text(json.dumps(config))

    def refuse(self):
        raise AssertionError("the oracle expanded an MPS beyond its guard")

    monkeypatch.setattr(mps.MPS, "to_statevector", refuse)
    code, out = run_cli(["run", "--config", str(tmp_path / "job.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["oracle"] is None
    assert "abs_error" not in report


def test_entropy_report_carries_budget_and_order(tmp_path, capsys):
    # rho = diag(0.75, 0.25) (x) 1/2: H = -log rho is a modular Hamiltonian.
    h = {"n_sites": 2, "phys_dim": 2, "terms": [
        {"support": [0], "matrix": serialize.cmat_flat(np.diag(-np.log([0.75, 0.25])))},
        {"support": [1], "matrix": serialize.cmat_flat(np.log(2) * np.eye(2))},
    ]}
    (tmp_path / "mod.json").write_text(json.dumps(h))
    config = {"task": "entropy", "model_file": "mod.json", "epsilon": 1e-3}
    (tmp_path / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(tmp_path / "job.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["abs_error"] < 1e-3
    assert sum(report["budget"].values()) <= 1e-3
    assert report["order"] >= 1


def test_main_calls_share_no_state(workdir, capsys):
    # The parser is built on the first call and kept; a flag of one call
    # must not reach the next.
    config = {"task": "duality-check", "n_cases": 2, "seed": 7}
    (workdir / "job.json").write_text(json.dumps(config))
    cli._parser.cache_clear()
    code, out = run_cli(["run", "--config", str(workdir / "job.json"), "--seed", "43"], capsys)
    assert code == 0 and json.loads(out)["seed"] == 43
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 0 and json.loads(out)["seed"] == 7
    assert cli._parser.cache_info().misses == 1
    with pytest.raises(SystemExit) as exc:  # usage errors still exit 2
        cli.main(["run"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "fields,named",
    [
        ({"evaluator": "exakt"}, "evaluator"),
        ({"evaluator": "sampled", "strategy": "both"}, "strategy"),
        ({"evaluator": "sampled", "shots": 0}, "shots"),
        ({"evaluator": "regions", "partition_splits": 3}, "partition_splits"),
    ],
    ids=["evaluator", "strategy", "shots-zero", "splits"],
)
def test_dynamics_fields_checked_before_input_files(workdir, capsys, fields, named):
    (workdir / "broken.json").write_text("{not json")
    config = {"task": "dynamics", "state_file": "broken.json", "circuit_file": "broken.json",
              "observables": [{"site": 1, "pauli": "Z"}], **fields}
    (workdir / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ConfigError" and named in err["message"]


@pytest.mark.parametrize("max_dim", [65, 100000])
def test_duality_check_refuses_huge_max_dim_before_drawing(workdir, capsys, monkeypatch,
                                                           max_dim):
    from epsim import rand

    def refuse(*args, **kwargs):
        raise AssertionError("a case was drawn before the size guard")

    monkeypatch.setattr(rand, "gaussian", refuse)
    config = {"task": "duality-check", "n_cases": 1, "max_dim": max_dim}
    (workdir / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "SizeGuardError" and "max_dim" in err["message"]


@pytest.mark.parametrize("config", [
    {"task": "dynamics", "state_file": "state2.json", "circuit_file": "circuit2.json",
     "observables": [{"site": 1, "pauli": "X"}], "evaluator": "sampled", "shots": 2**63},
    {"task": "amplitude", "phi_file": "phi.json", "psi_file": "psi.json",
     "unitary_file": "unitary.json", "shots": 2**63},
], ids=["dynamics-sampled", "amplitude"])
def test_shot_count_past_the_bound_is_config_error(workdir, capsys, config):
    # 2**63 overflowed numpy's int64 draws; the bound is limits.MAX_SHOTS.
    (workdir / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ConfigError" and "shots" in err["message"]


def test_unknown_field_is_config_error(workdir, capsys):
    config = {"task": "dynamics", "state_file": "state.json", "circuit_file": "circuit.json",
              "observables": [{"site": 1, "pauli": "Z"}], "evaluater": "sampled"}
    (workdir / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ConfigError" and "evaluater" in err["message"]


def test_duality_check_refuses_huge_n_cases_before_drawing(workdir, capsys, monkeypatch):
    from epsim import rand

    def refuse(*args, **kwargs):
        raise AssertionError("a case was drawn before the size guard")

    monkeypatch.setattr(rand, "gaussian", refuse)
    (workdir / "job.json").write_text(json.dumps({"task": "duality-check", "n_cases": 10**9}))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "SizeGuardError" and "n_cases" in err["message"]


# Each sweep: (task, base config).  The two modular models carry a trace, so
# a huge beta prices e^{-beta mu} for a mean energy mu > 0 and mu < 0.
SWEEP_BASE = {
    "dynamics": ("dynamics", {"state_file": "state2.json", "circuit_file": "circuit2.json",
                              "observables": [{"site": 1, "pauli": "Z"}]}),
    "thermal": ("thermal", {"model_file": "tfim.json", "observable": {"site": 0, "pauli": "Z"},
                            "beta": 0.5, "epsilon": 1e-3}),
    "thermal-trotter": ("thermal", {"model_file": "tfim.json", "beta": 0.5, "epsilon": 1e-3,
                                    "observable": {"site": 0, "pauli": "Z"}, "mode": "trotter"}),
    "thermal-mu-positive": ("thermal", {"model_file": "mod.json", "beta": 0.5, "epsilon": 1e-3,
                                        "observable": {"site": 0, "pauli": "Z"}}),
    "thermal-mu-negative": ("thermal", {"model_file": "negmod.json", "beta": 0.5,
                                        "epsilon": 1e-3, "observable": {"site": 0, "pauli": "Z"}}),
    "entropy": ("entropy", {"model_file": "mod.json", "epsilon": 1e-3}),
    "amplitude": ("amplitude", {"phi_file": "phi.json", "psi_file": "psi.json",
                                "unitary_file": "unitary.json"}),
    "duality-check": ("duality-check", {"n_cases": 2}),
}
SWEEP_VALUES = [True, "abc", -1, 0.5, "nan", [1], {"x": 1}, 1e308, "nodir/x.json"]
# The JSON values each field kind takes; any other value is of the wrong kind.
KIND_TYPES = {"int": int, "real": (int, float), "positive": (int, float), "bool": bool,
              "choice": str, "out": str, "path": str, "ints": list, "observables": list,
              "observable": dict}


def test_every_field_of_every_task_ends_in_a_report_or_a_json_error(workdir, capsys,
                                                                   monkeypatch):
    from epsim import errors

    # H = -log(diag(0.75, 0.25) (x) 1/2), a modular Hamiltonian for entropy.
    terms = [np.diag(-np.log([0.75, 0.25])), np.log(2) * np.eye(2)]
    for name, sign in (("mod.json", 1), ("negmod.json", -1)):
        model = {"n_sites": 2, "phys_dim": 2, "terms": [
            {"support": [site], "matrix": serialize.cmat_flat(sign * m)}
            for site, m in enumerate(terms)
        ]}
        (workdir / name).write_text(json.dumps(model))
    jobs = itertools.count()
    for label, (task, base) in SWEEP_BASE.items():
        (workdir / label).mkdir()
        monkeypatch.chdir(workdir / label)  # a string "out" writes its report here
        for key, (kind, _, _) in {**cli.COMMON, **cli.FIELDS[task]}.items():
            for value in SWEEP_VALUES:
                # A new file per job: overwriting a file is slow on some file systems.
                job = workdir / f"job{next(jobs)}.json"
                job.write_text(json.dumps({"task": task, **base, key: value}))
                code, out = run_cli(["run", "--config", str(job)], capsys)
                case = f"{label}.{key} = {value!r}"
                wrong_kind = (isinstance(value, bool) != (KIND_TYPES[kind] is bool)
                              or not isinstance(value, KIND_TYPES[kind]))
                assert code in (0, 1, 2) and (code == 2 or not wrong_kind), case
                report = json.loads(out)
                if code == 0:
                    assert "error" not in report and report["task"] == task, case
                    continue
                err = report["error"]
                assert issubclass(getattr(errors, err["type"]), errors.EpsimError), case
                assert code == 1 or (err["type"] == "ConfigError" and key in err["message"]), case
        # The --out flag is the "out" field: refused before the task runs.
        job = workdir / f"job{next(jobs)}.json"
        job.write_text(json.dumps({"task": task, **base}))
        code, out = run_cli(["run", "--config", str(job), "--out", "nodir/x.json"], capsys)
        err = json.loads(out)["error"]
        assert code == 2 and err["type"] == "ConfigError" and "out" in err["message"], label
