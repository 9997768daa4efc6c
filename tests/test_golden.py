"""Golden-output contract: each case in tests/golden/cases.json, run through
``cli.main``, reproduces the exit code and outputs stored under
tests/golden/expected/<case>/ (see tests/golden/compare.py for the rule).

To regenerate the stored outputs (say why in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py tests/golden/expected
"""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

from tensorchain import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())

_spec = importlib.util.spec_from_file_location("golden_compare", GOLDEN / "compare.py")
golden_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_compare)


def run_case(name, root):
    """Run one case into root/<name>, exit code in its ``exit_code`` file."""
    config = CASES[name]
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"{name}.config.json"
    path.write_text(json.dumps(config))
    out = root / name
    code = cli.main([config["experiment"], "--config", str(path), "--out", str(out)])
    path.unlink()
    out.mkdir(exist_ok=True)
    (out / "exit_code").write_text(f"{code}\n")
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_reproduces_golden_outputs(tmp_path, name):
    out = run_case(name, tmp_path)
    assert golden_compare.compare(GOLDEN / "expected" / name, out) == []


def mutate_verdict(root):
    path = root / "simulate-violated" / "report.json"
    path.write_text(path.read_text().replace('"violated"', '"holds"', 1))


def mutate_csv_row(root):
    path = root / "verify-azuma" / "bound_report.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def mutate_float(root):
    path = root / "gamma-small" / "report.json"
    report = json.loads(path.read_text())
    report["diameter"] *= 1.0 + 1e-9
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


def mutate_exit_code(root):
    (root / "rip-fourier" / "exit_code").write_text("4\n")


@pytest.mark.parametrize(
    "mutate", [mutate_verdict, mutate_csv_row, mutate_float, mutate_exit_code]
)
def test_comparator_rejects_mutants(tmp_path, mutate):
    expected = GOLDEN / "expected"
    copy = tmp_path / "expected"
    shutil.copytree(expected, copy)
    assert golden_compare.main([str(expected), str(copy)]) == 0
    mutate(copy)
    assert golden_compare.compare(expected, copy) != []
    assert golden_compare.main([str(expected), str(copy)]) == 1


if __name__ == "__main__":
    target = Path(sys.argv[1])
    shutil.rmtree(target, ignore_errors=True)
    for case in sorted(CASES):
        run_case(case, target)
