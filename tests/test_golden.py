"""Golden-output contract: each case in tests/golden/cases.json, run through
``cli.main``, reproduces the exit code and outputs stored under
tests/golden/expected/<case>/ (see tests/golden/compare.py for the rule).

To regenerate the stored outputs (say why in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py tests/golden/expected [CASE ...]

which runs :func:`regenerate`: the stored tree holds no ``manifest.json``.
Only the named cases' directories are replaced, every case's when none is
named.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from tensorchain import cli, kernels
from tensorchain.empirical import diagonal_family, family_space

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _load(name):
    spec = importlib.util.spec_from_file_location(name, GOLDEN / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_compare = _load("compare")
oracles = _load("oracles")
same_bytes = _load("same_bytes")
workload_outputs = _load("workload_outputs")


def run_case(name, root):
    """Run one case into root/<name>, exit code in its ``exit_code`` file."""
    return workload_outputs.run_config(CASES[name]["experiment"], CASES[name], root, name)


def regenerate(target, names=()):
    """Replace target/<name> with the outputs of each case of ``names`` (every
    case when none is named), less the ``manifest.json`` each run writes (wall
    times, never compared); every other directory of ``target`` is left alone."""
    for name in names or sorted(CASES):
        shutil.rmtree(Path(target, name), ignore_errors=True)
        (run_case(name, target) / "manifest.json").unlink(missing_ok=True)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print(__doc__.splitlines()[6].strip(), file=sys.stderr)
        return 2
    unknown = sorted(set(args[1:]) - set(CASES))
    if unknown:
        print(f"unknown cases: {', '.join(unknown)}", file=sys.stderr)
        return 2
    regenerate(args[0], args[1:])
    return 0


def test_regeneration_rewrites_only_the_named_cases(tmp_path):
    copy = tmp_path / "expected"
    shutil.copytree(GOLDEN / "expected", copy)
    for name in ("gamma-small", "rip-fourier"):
        (copy / name / "stale").write_text("\n")
    assert main([str(copy), "gamma-small", "verify-azuma"]) == 0
    assert not (copy / "gamma-small" / "stale").exists()
    assert (copy / "rip-fourier" / "stale").read_text() == "\n"
    (copy / "rip-fourier" / "stale").unlink()
    assert subprocess.run(["diff", "-r", str(GOLDEN / "expected"), str(copy)]).returncode == 0
    assert main([str(copy), "no-such-case"]) == 2
    assert main([]) == 2


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


def test_every_case_writes_the_same_bytes_with_every_fast_path_slow(tmp_path):
    # each oracle must run on some case, or its fast path goes unchecked
    fast, slow = tmp_path / "fast", tmp_path / "slow"
    for name in sorted(CASES):
        run_case(name, fast / "golden")
    with oracles.slow_paths() as calls:
        for name in sorted(CASES):
            run_case(name, slow / "golden")
    assert all(calls.values()), calls
    assert same_bytes.same_tree(fast, slow, "golden")


# 4 x 4 stacks with thresholds inside the sample: each run has empirical
# frequencies strictly between 0 and 1, which a Monte Carlo sum bound that
# decides a sample wrongly moves; these two cases alone must exercise the
# sum-interval oracle, whatever the other cases do
INSIDE = ("verify-azuma-inside", "verify-bernstein-inside")


def test_thresholds_inside_the_sample_write_the_same_bytes_with_every_fast_path_slow(tmp_path):
    fast, slow = tmp_path / "fast", tmp_path / "slow"
    for name in INSIDE:
        rows = workload_outputs.strict_json(run_case(name, fast / "inside") / "bound_report.json")["rows"]
        assert any(0.0 < row["empirical"] < 1.0 for row in rows), name
    with oracles.slow_paths() as calls:
        for name in INSIDE:
            run_case(name, slow / "inside")
    assert calls["tensorchain.kernels._sum_intervals"], calls
    assert same_bytes.same_tree(fast, slow, "inside")


@pytest.fixture(scope="module")
def default_cut(tmp_path_factory):
    """Every golden case written at the default chunk budget."""
    root = tmp_path_factory.mktemp("default")
    for name in sorted(CASES):
        run_case(name, root / "golden")
    return root


# the work is cut into chunks of kernels._CHUNK_ENTRIES; no byte may depend
# on where the cuts fall
@pytest.mark.parametrize("chunk_entries", [4096, 1 << 24])
def test_every_case_writes_the_same_bytes_at_any_chunk_budget(
    tmp_path, monkeypatch, default_cut, chunk_entries
):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    for name in sorted(CASES):
        run_case(name, tmp_path / "golden")
    assert same_bytes.same_tree(default_cut, tmp_path, "golden")


# kernels.map_blocks shares its loops among kernels._WORKERS processes; with
# kernels._FORK_WORK 0 the small cases fork too, and at 1024 entries a chunk a
# child's share of the ensemble.csv norms holds several chunks, so that a
# share reduced out of order moves bytes.  Whatever the exit code, a run
# leaves no child behind and prints its diagnostics once
@pytest.mark.parametrize("chunk_entries", [4096, 1024])
def test_every_case_writes_the_same_bytes_at_any_worker_count(
    tmp_path, monkeypatch, capfd, default_cut, chunk_entries
):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    printed, forked = {}, {}
    for workers in (1, 2):
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        for name in sorted(CASES):
            run_case(name, tmp_path / str(workers) / "golden")
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            printed[workers, name] = capfd.readouterr()
        forked[workers] = len(forks)
        assert same_bytes.same_tree(default_cut, tmp_path / str(workers), "golden")
    assert forked[1] == 0 and forked[2] > 0
    assert all(printed[2, name] == printed[1, name] for name in CASES)


# each mapped loop of every workload config at seed 1, at two workers and the
# default kernels._FORK_WORK: its items, the entries of one, the work it
# states (None: its entries) and the forks it made.  A loop forks once its
# items' work reaches twice _FORK_WORK, 2^19
WORKLOAD_FORKS = {
    ("mc-deep", "simulate"): [(1500, 528, None, 1), (1500, 4096, None, 1)],
    ("mc-deep", "mixed-tail"): [(8000, 576, 214, 1)],
    ("mc-deep", "empirical"): [(496, 128, None, 0)],
    ("index-wide", "simulate"): [(200, 12816, None, 1)],
    ("index-wide", "mixed-tail"): [(200, 14400, 1750, 0)],
    ("index-wide", "empirical"): [(19900, 128, None, 1)],
}


def test_the_fork_rule_forks_the_loops_whose_work_pays(tmp_path, monkeypatch):
    assert kernels._FORK_WORK == 1 << 18
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    fork, map_blocks, forks, maps = os.fork, kernels.map_blocks, [], []

    def counted_fork():
        forks.append(None)
        return fork()

    def recorded(fn, count, entries, work=None):
        before = len(forks)
        try:
            return map_blocks(fn, count, entries, work)
        finally:
            maps.append((count, entries, work, len(forks) - before))

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(kernels, "map_blocks", recorded)
    seen = {}
    workloads = workload_outputs.workloads
    for w in workloads.WORKLOADS:
        for k, (experiment, config) in enumerate(workloads.configs(w, 1)):
            workload_outputs.run_config(experiment, config, tmp_path, f"{w}-{k}")
            if maps:
                seen[w, experiment] = maps[:]
                maps.clear()
    assert seen == WORKLOAD_FORKS
    # diagonal families of 46 and 64 tuples, 1 035 and 2 016 pairs of 128
    # entries, stay in one process, as does the t_count-6 family whose
    # batch_spectral calls clibench/tests/test_tracing.py counts here
    for modes, t_count, n in [((2, 2), 46, 8), ((2, 2), 64, 8), ((2,), 6, 3)]:
        family_space(diagonal_family(modes, t_count=t_count, n=n, seed=1))
    assert maps == [(1035, 128, None, 0), (2016, 128, None, 0), (15, 12, None, 0)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# a simulate config of 1 x 1 matrices, whose ensemble.csv text outweighs
# every array it holds: 400 000 rows
CSV_HEAVY = {"experiment": "simulate", "seed": 3, "samples": 4000, "index_count": 100,
             "basis_count": 2, "row_modes": [1]}


def test_each_run_peaks_within_twice_the_entries_it_declares(tmp_path, monkeypatch):
    # the golden cases, every workload config at seed 1 and CSV_HEAVY, each
    # traced on its own in this one process (a forked child's allocations
    # escape tracemalloc): the peak of what a run allocates, in bytes,
    # against 16 B per complex entry of cli._ENTRIES, or of the chunk budget
    # where that is more
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    workloads = workload_outputs.workloads
    runs = [(name, CASES[name]["experiment"], CASES[name]) for name in sorted(CASES)]
    runs += [
        (f"{w}-{k}-{experiment}", experiment, config)
        for w in workloads.WORKLOADS
        for k, (experiment, config) in enumerate(workloads.configs(w, 1))
    ]
    runs.append(("csv-heavy", "simulate", CSV_HEAVY))
    ratios = {}
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        for name, experiment, config in runs:
            entries = max(cli._ENTRIES[experiment](config), kernels._CHUNK_ENTRIES)
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            workload_outputs.run_config(experiment, config, tmp_path, name)
            ratios[name] = (tracemalloc.get_traced_memory()[1] - held) / (16 * entries)
    finally:
        if started:
            tracemalloc.stop()
    assert max(ratios.values()) <= 2.0, ratios


def test_index_wide_simulate_holds_less_than_its_trajectories(tmp_path, monkeypatch):
    # 200 samples over 400 indices of 4 x 4 matrices are 20.48 MB of
    # trajectories; formed a chunk at a time inside the loops that reduce
    # them, the run never holds them whole
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    experiment, config = workload_outputs.workloads.configs("index-wide", 1)[0]
    assert experiment == "simulate" and (config["samples"], config["index_count"]) == (200, 400)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        workload_outputs.run_config(experiment, config, tmp_path, "index-wide-simulate")
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 200 * 400 * 16 * 16, peak


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
    assert workload_outputs.main(["--chunk-entries", "4096"]) == 2
    assert workload_outputs.main(["--workers", "2"]) == 2
    assert workload_outputs.main(["--workers", "0", str(tmp_path / "c")]) == 2
    assert workload_outputs.main(["--workers", "1", "--workers", "2", str(tmp_path / "c")]) == 2
    assert workload_outputs.main(["--fork-work", "0"]) == 2
    assert workload_outputs.main(["--fork-work", "-1", str(tmp_path / "c")]) == 2


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


def test_same_bytes_compares_only_the_cases_both_sides_hold(tmp_path, capfd):
    base, change = tmp_path / "base", tmp_path / "change"
    for side in (base, change):
        shutil.copytree(GOLDEN / "expected", side / "golden")
    shutil.copytree(change / "golden" / "gamma-small", change / "golden" / "gamma-added")
    shutil.rmtree(change / "golden" / "rip-fourier")
    same_bytes.shared_cases(base, change, "golden")
    out = capfd.readouterr().out
    assert "golden: rip-fourier is only in the base checkout; not compared" in out
    assert "golden: gamma-added is only in the change checkout; not compared" in out
    assert same_bytes.same_tree(base, change, "golden")
    assert not (change / "golden" / "gamma-added").exists()


if __name__ == "__main__":
    raise SystemExit(main())
