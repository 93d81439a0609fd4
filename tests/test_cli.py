import json

import numpy as np
import pytest

from conftest import PAULI
from epsim import cli, mps, network, oracle, serialize
from epsim.hamiltonians import build_tfim
from epsim.linalg import embed_operator
from epsim.rand import haar_unitary, random_state


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
    assert len(report["region_probs"]) == 2


def test_thermal_beta_zero(workdir, capsys):
    config = {
        "task": "thermal",
        "model_file": "tfim.json",
        "observable": {"site": 0, "pauli": "Z"},
        "beta": 0.0,
        "epsilon": 1e-6,
        "order": 1,
        "seed": 1,
    }
    (workdir / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert abs(report["value"] - 0.0) < 1e-10  # Tr(Z (x) 1) = 0
    assert report["abs_error"] < 1e-10
    assert set(report["budget"]) == {"taylor", "trotter", "solver"}


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


def test_config_errors(workdir, capsys):
    code, out = run_cli(["run", "--config", str(workdir / "missing.json")], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ConfigError"
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
    ],
    ids=["beta", "order", "site-range", "epsilon", "no-site"],
)
def test_malformed_config_field_is_config_error(workdir, capsys, task, fields):
    base = {
        "thermal": {"model_file": "tfim.json", "beta": 0.5, "epsilon": 1e-3,
                    "observable": {"site": 0, "pauli": "Z"}},
        "entropy": {"model_file": "tfim.json", "epsilon": 1e-3},
        "dynamics": {"state_file": "state.json", "circuit_file": "circuit.json"},
    }[task]
    (workdir / "job.json").write_text(json.dumps({"task": task, **base, **fields}))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ConfigError"
    assert next(iter(fields)) in err["message"]


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


def test_budget_error_surfaces(workdir, capsys):
    config = {
        "task": "thermal",
        "model_file": "tfim.json",
        "observable": {"site": 0, "pauli": "Z"},
        "beta": 1.0,
        "epsilon": 1e-6,
        "order": 2,
        "seed": 1,
    }
    (workdir / "job.json").write_text(json.dumps(config))
    code, out = run_cli(["run", "--config", str(workdir / "job.json")], capsys)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "BudgetError"
    assert "order" in err["message"]


def test_verify_command(workdir, capsys):
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
