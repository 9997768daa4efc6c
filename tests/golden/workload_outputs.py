"""Write the outputs of every benchmark workload config, for a byte-level
comparison of two checkouts.

Usage: python tests/golden/workload_outputs.py [--chunk-entries N] [--workers N] OUT

For each workload of ``clibench/workloads.py`` and each seed in SEEDS, the
k-th config runs through ``tensorchain.cli.main`` of this checkout (its
``src`` comes first on the import path) into
OUT/<workload>/<seed>/<k>-<experiment>/, with the exit code in the file
``exit_code``.  Every JSON output must parse as strict JSON: a NaN or an
infinity in a report stops the script with ValueError.

The contract is byte identity: CI runs this script in the base branch and
in the change and requires ``diff -r -x manifest.json A B`` to find no
difference.  When it does, ``python tests/golden/compare.py A B`` tells
whether values moved (beyond a relative 1e-12) or only their text.

``--chunk-entries N`` sets ``kernels._CHUNK_ENTRIES``, the budget the work
is cut by, to N in this process, and ``--workers N`` sets
``kernels._WORKERS``, the count of processes ``kernels.map_blocks`` shares a
loop among: no byte may depend on either, and CI diffs runs at one worker,
and at a small budget with two, against a run at the defaults.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEEDS = (1, 4242)

sys.path.insert(0, str(ROOT / "src"))
from tensorchain import cli, kernels  # noqa: E402

_spec = importlib.util.spec_from_file_location("workloads", ROOT / "clibench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def strict_json(path):
    """The JSON value in ``path``; NaN and the infinities raise ValueError."""

    def reject(token):
        raise ValueError(f"{path}: {token} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def run_config(experiment: str, config: dict, root, name: str) -> Path:
    """Run one config through ``cli.main`` into root/<name>/, with the exit
    code in its ``exit_code`` file and every JSON output checked by
    :func:`strict_json`; returns root/<name>."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"{name}.config.json"
    path.write_text(json.dumps(config))
    out = root / name
    code = cli.main([experiment, "--config", str(path), "--out", str(out)])
    path.unlink()
    out.mkdir(exist_ok=True)
    (out / "exit_code").write_text(f"{code}\n")
    for output in sorted(out.glob("*.json")):
        strict_json(output)
    return out


def write_workload(out, name: str, seed: int) -> None:
    """Run every config of one workload at one seed into out/<name>/<seed>/."""
    root = Path(out) / name / str(seed)
    for k, (experiment, config) in enumerate(workloads.configs(name, seed)):
        run_config(experiment, config, root, f"{k}-{experiment}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    options, chosen = {"--chunk-entries": "_CHUNK_ENTRIES", "--workers": "_WORKERS"}, {}
    while len(args) > 2 and args[0] in options and args[1].isdigit() and int(args[1]) > 0:
        chosen[options.pop(args[0])] = int(args[1])
        args = args[2:]
    if len(args) != 1:
        print(__doc__.strip().splitlines()[3], file=sys.stderr)
        return 2
    for name, value in chosen.items():
        setattr(kernels, name, value)
    shutil.rmtree(args[0], ignore_errors=True)
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            write_workload(args[0], name, seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
