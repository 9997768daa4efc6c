"""Which functions of tensorchain a list of CLI runs calls.

Usage: python tests/golden/reach.py

profiles every golden case (tests/golden/cases.json) and every benchmark
workload config at seed 1, and exits 1, naming them, if a workload calls a
package function that no golden case calls: that function would be
benchmarked, but neither compared with stored outputs nor run under its slow
oracle.  Exit status 0 means the golden cases reach all that the workloads
reach.

:func:`unreached` gives the package functions that a list of configs never
calls; ``tests/test_package.py`` pins that set for the golden cases.  Each
list is profiled (``sys.setprofile``) in a fresh interpreter that starts the
profile before it imports the package, so what runs at import counts, and
runs in that one process (``kernels._WORKERS`` 1), so what a forked child
would run counts too.
"""

from __future__ import annotations

import inspect
import json
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "tensorchain"


def functions() -> dict:
    """{module.qualname: (file name, first line, name)} of every function and
    method the package defines, nested ones too; lambdas and comprehensions
    are left out.  The key is the one a profiled call's code object gives, so
    a decorated function is found at its first decorator's line."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                    continue
                qualname = prefix + const.co_name
                if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                    found[f"{path.stem}.{qualname}"] = (path.name, const.co_firstlineno, const.co_name)
                    stack.append((const, qualname + ".<locals>."))
                else:
                    stack.append((const, qualname + "."))
    return found


def _profile(runs) -> list:
    """[file name, first line, name] of each package code object that the
    runs [(experiment, config), ...] call; run in a fresh interpreter."""
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    sys.path.insert(0, str(ROOT / "src"))
    from tensorchain import cli, kernels

    kernels._WORKERS = 1  # a function that only a forked child calls is still seen

    with tempfile.TemporaryDirectory() as tmp:
        for k, (experiment, config) in enumerate(runs):
            path = Path(tmp, f"{k}.json")
            path.write_text(json.dumps(config))
            cli.main([experiment, "--config", str(path), "--out", str(Path(tmp, str(k)))])
    sys.setprofile(None)
    here = str(PACKAGE)
    return sorted([Path(c.co_filename).name, c.co_firstlineno, c.co_name]
                  for c in called if c.co_filename.startswith(here))


def reached(runs) -> set:
    """module.qualname of each package function that the CLI runs
    [(experiment, config), ...] call, profiled in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, __file__, "--profile"], input=json.dumps(list(runs)),
        capture_output=True, text=True,
    )
    if probe.returncode != 0:
        raise RuntimeError(f"the profiled runs failed:\n{probe.stderr}")
    keys = {tuple(key) for key in json.loads(probe.stdout.splitlines()[-1])}
    return {name for name, key in functions().items() if key in keys}


def unreached(runs) -> set:
    """module.qualname of each package function that the runs never call."""
    return set(functions()) - reached(runs)


def golden_runs() -> list:
    cases = json.loads((ROOT / "tests" / "golden" / "cases.json").read_text())
    return [(case["experiment"], case) for _, case in sorted(cases.items())]


def workload_runs(seed: int) -> list:
    sys.path.insert(0, str(Path(__file__).parent))
    import workload_outputs

    return [run for name in workload_outputs.workloads.WORKLOADS
            for run in workload_outputs.workloads.configs(name, seed)]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args == ["--profile"]:
        print(json.dumps(_profile(json.loads(sys.stdin.read()))))
        return 0
    if args:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    missed = sorted(reached(workload_runs(1)) - reached(golden_runs()))
    for name in missed:
        print(f"{name}: a workload calls it, no golden case does")
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
