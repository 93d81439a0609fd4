"""The benchmark's per-layer tracer (bench/tracing.py) wraps epsim functions
by "module.qualname"; a name that no longer resolves breaks ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path


def _tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_inside_epsim():
    tracing = _tracing()
    missing = []
    for name in tracing.TRACED:
        module_name, *owner_path, attr = name.split(".")
        owner = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
        for part in owner_path:
            owner = getattr(owner, part)
        # Tracer.install looks the function up in its owner's own namespace.
        if not callable(vars(owner).get(attr)):
            missing.append(name)
    assert not missing, f"traced names missing from epsim: {missing}"
