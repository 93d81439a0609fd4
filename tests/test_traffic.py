"""Every function under src/epsim is entered by some benchmark job, or is
named below with the reason it stays.  ``tools/traffic.py`` prints the same
list for any seeds; this test runs its two steps in-process on one seed."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# (file, qualname) of the functions no benchmark job enters.
ALLOWED = {
    # Traced by name in bench/tracing.py.
    ("network.py", "compile_gate"),
    # Input-file writers: the tests write the files the CLI reads.
    ("mps.py", "MPS.to_dict"),
    ("network.py", "BrickworkCircuit.to_dict"),
    ("hamiltonians.py", "LocalHamiltonian.to_dict"),
    ("serialize.py", "cnum"),
    ("serialize.py", "cmat_flat"),
    ("serialize.py", "cmat_nested"),
    ("serialize.py", "cvec"),
    # An observable given as a matrix: the benchmark's jobs name Paulis only.
    ("cli.py", "_square_matrix"),
}


def _traffic():
    spec = importlib.util.spec_from_file_location("traffic", ROOT / "tools" / "traffic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_unreached_function_is_allowed(monkeypatch):
    traffic = _traffic()
    monkeypatch.setattr(sys, "path", list(sys.path))  # entered_code prepends src/ and bench/
    entered = traffic.entered_code([1])
    functions = traffic.source_functions()
    unreached = {(f, name) for f, line, name, _ in functions if (f, line) not in entered}
    assert unreached <= ALLOWED, f"functions no benchmark job enters: {sorted(unreached - ALLOWED)}"
    assert ALLOWED <= {(f, name) for f, _, name, _ in functions}, "allowlist names a lost function"
