"""Golden-output contract: each case in tests/golden/cases.json, run through
``cli.main``, reproduces the exit code and outputs stored under
tests/golden/expected/<case>/ (see tests/golden/compare.py for the rule).

To regenerate the stored outputs (say why in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py tests/golden/expected

which runs :func:`regenerate`: the stored tree holds no ``manifest.json``.
"""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _load(name):
    spec = importlib.util.spec_from_file_location(name, GOLDEN / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_compare = _load("compare")
same_bytes = _load("same_bytes")
workload_outputs = _load("workload_outputs")


def run_case(name, root):
    """Run one case into root/<name>, exit code in its ``exit_code`` file."""
    return workload_outputs.run_config(CASES[name]["experiment"], CASES[name], root, name)


def regenerate(target, names=tuple(sorted(CASES))):
    """Replace ``target`` with the outputs of the cases ``names``, less the
    ``manifest.json`` each run writes (wall times, never compared)."""
    target = Path(target)
    shutil.rmtree(target, ignore_errors=True)
    for name in names:
        (run_case(name, target) / "manifest.json").unlink(missing_ok=True)


def test_regeneration_writes_the_stored_files_and_no_manifest(tmp_path):
    names = ("gamma-small", "verify-azuma")
    regenerate(tmp_path, names)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        stored = sorted(p.name for p in (GOLDEN / "expected" / name).iterdir())
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == stored


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


def test_strict_json_rejects_nan_and_infinities(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"u": 1.0, "empirical": 0.5}')
    assert workload_outputs.strict_json(path) == {"u": 1.0, "empirical": 0.5}
    for token in ("NaN", "Infinity", "-Infinity"):
        path.write_text(f'{{"u": 1.0, "threshold": {token}}}')
        with pytest.raises(ValueError, match=token):
            workload_outputs.strict_json(path)


def test_workload_outputs_are_written_per_config_and_reproducible(tmp_path):
    for side in ("a", "b"):
        workload_outputs.write_workload(tmp_path / side, "rip-scan", 1)
    cases = sorted(p.name for p in (tmp_path / "a" / "rip-scan" / "1").iterdir())
    assert cases == ["0-rip", "1-rip", "2-rip"]
    for case in cases:
        out = tmp_path / "a" / "rip-scan" / "1" / case
        assert (out / "exit_code").read_text() == "0\n"
        assert (out / "rip_report.json").is_file()
    assert golden_compare.compare(tmp_path / "a", tmp_path / "b") == []
    assert workload_outputs.main([]) == 2


def test_same_bytes_lists_what_differs(tmp_path, capfd):
    base, change = tmp_path / "base", tmp_path / "change"
    for side in (base, change):
        shutil.copytree(GOLDEN / "expected", side / "golden")
    (change / "golden" / "rip-fourier" / "manifest.json").write_text("{}\n")
    assert same_bytes.same_tree(base, change, "golden")
    report = change / "golden" / "gamma-small" / "report.json"
    report.write_text(report.read_text() + "\n")  # text only
    assert not same_bytes.same_tree(base, change, "golden")
    assert "every value agrees to 1e-12; only the text differs" in capfd.readouterr().out
    mutate_float(change / "golden")
    assert not same_bytes.same_tree(base, change, "golden")
    out = capfd.readouterr().out
    assert "gamma-small/report.json.diameter:" in out and "only the text" not in out
    assert same_bytes.main([]) == 2


if __name__ == "__main__":
    regenerate(sys.argv[1])
