"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps named epsim functions and methods and rebinds every
module namespace (and module-level dict, such as ``verify.SUITES``) that
holds them, so calls made through names imported elsewhere are seen too.
For each function it records, per traced pass:

* ``calls``    number of calls,
* ``s``        inclusive seconds (outermost activation only, so recursion
               is not counted twice),
* ``self_s``   seconds minus the time spent in wrapped children,
* ``failed_s`` inclusive seconds of outermost calls that raised.

Spans stay in memory; :meth:`Tracer.take` returns and clears them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "epsim"
# The per-layer metrics the benchmark prints, "<module>.<function>.<stat>".
PER_LAYER = (
    "network.build_network.s",
    "network.compile_gate.calls",
    "network.evaluate_exact.s",
    "network.evaluate_regions.s",
    "network.evaluate_regions.failed_s",
    "network.branch_distribution.s",
    "network.branch_distribution.failed_s",
    "network.evaluate_sampled.self_s",
    "oracle.circuit_expectation.s",
    "oracle.expectation.s",
    "oracle.apply_circuit.s",
    "linalg.embed_operator.s",
    "oracle.thermal_exact.s",
    "algorithms.thermal_value.self_s",
    "algorithms.extract_moments.self_s",
    "algorithms.extract_moments.calls",
    "algorithms.hadamard_test.s",
    "algorithms.hadamard_test.calls",
    "algorithms.entropy.self_s",
    "algorithms.transition_amplitude.s",
    "hamiltonians.exact_unitary.s",
    "hamiltonians.exact_unitary.calls",
    "hamiltonians.LocalHamiltonian.dense.calls",
    "hamiltonians.trotter_circuit.s",
    "linalg.matrix_exp.s",
    "linalg.matrix_exp.calls",
    "mps.MPS.canonicalize.s",
    "mps.MPS.expectation_product.s",
    "channels.Channel.apply.s",
    "channels.ChoiState.apply.s",
    "verify.suite_duality.s",
    "verify.suite_mps.s",
    "verify.suite_network.s",
    "verify.suite_oqt.s",
    "verify.suite_thermal.s",
    "verify.suite_amplitude.s",
    "cli.main.self_s",
)
TRACE_OVERHEAD = "trace.overhead"
# Every function those metrics name, as "module.qualname".
TRACED = tuple(dict.fromkeys(m.rsplit(".", 1)[0] for m in PER_LAYER))


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = []  # [name, child seconds] per active wrapped call
        self._active = {}  # name -> activation depth
        self._undo = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.stats.setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "failed_s": 0.0}
            )
            rec["calls"] += 1
            outermost = tracer._active.get(name, 0) == 0
            tracer._active[name] = tracer._active.get(name, 0) + 1
            frame = [name, 0.0]
            tracer._stack.append(frame)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer._active[name] -= 1
                rec["self_s"] += elapsed - frame[1]
                if outermost:
                    rec["s"] += elapsed
                    if raised:
                        rec["failed_s"] += elapsed
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed

        return wrapper

    def install(self):
        """Wrap every traced function wherever the package holds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module_name in sorted({n.split(".")[0] for n in TRACED}):
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for name in TRACED:
            module_name, *owner_path, attr = name.split(".")
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            if owner_path:  # a method: rebinding the class attribute suffices
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self._undo.append((value.__setitem__, k, original))

    def _rebind(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((functools.partial(setattr, owner), key, original))

    def uninstall(self):
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)

    def take(self) -> dict:
        stats, self.stats = self.stats, {}
        return stats
