"""List the functions under ``src/epsim`` that the benchmark's jobs never enter.

    python3 tools/traffic.py [--seeds 1 5]

Run from anywhere inside a source checkout.  For each workload of
``bench/workloads.py`` and each seed, the script writes the job list into a
temporary directory and runs every job in this process through
``epsim.cli.main``, under ``sys.setprofile``, which records each code object
of ``src/epsim`` that is entered.  Functions and methods are listed with
``ast``; a function counts as reached when its code object was entered at
least once.  The script prints each unreached function as
``file:line qualname (n lines)``, lines counted from the first decorator to
the end of the body, and then the totals.  It changes nothing under
``bench/``.  ``tests/test_traffic.py`` runs the same two steps on one seed
and fails when a function outside its allowlist goes unentered.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "epsim"


def source_functions():
    """(file name, first line, qualname, line count) of every function and
    method under src/epsim, nested ones included."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    found.append((path.name, first, name, child.end_lineno - first + 1))
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def entered_code(seeds):
    """{(file name, first line)} of every src/epsim code object entered while
    the benchmark's jobs run."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import epsim.cli as cli
    from workloads import WORKLOADS, make_jobs

    src = str(SRC)
    entered = set()
    # A cached function is not entered on a hit: start every epsim cache
    # cold, so a process that already ran epsim sees what a fresh one sees.
    for name, module in list(sys.modules.items()):
        if name.startswith("epsim."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(src):
                entered.add((Path(code.co_filename).name, code.co_firstlineno))

    for workload in WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                for job in make_jobs(workload, seed, Path(tmp)):
                    sys.setprofile(profile)
                    try:
                        with contextlib.redirect_stdout(io.StringIO()):
                            cli.main(job["argv"])
                    finally:
                        sys.setprofile(None)
    return entered


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 5])
    args = parser.parse_args(argv)

    entered = entered_code(args.seeds)
    unreached = [f for f in source_functions() if (f[0], f[1]) not in entered]
    for file, line, name, n_lines in unreached:
        print(f"{file}:{line} {name} ({n_lines} lines)")
    total = sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))
    print(f"unreached: {len(unreached)} functions, "
          f"{sum(f[3] for f in unreached)} lines, of {total} source lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
