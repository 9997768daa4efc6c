"""Check that this checkout writes the same bytes as a base checkout.

Usage: python tests/golden/same_bytes.py BASE

BASE is another checkout of this repository, say a ``git worktree`` of the
base branch.  Each side writes, with its own ``src``, the outputs of every
benchmark workload config at seeds 1 and 4242 (``workload_outputs.py``)
and of the golden cases (``python tests/test_golden.py OUT``).  Each pair
of trees must pass ``diff -r -x manifest.json``, byte for byte.  Exit
status 0 means both pairs match; 1 prints ``compare.py``'s listing of the
pair that differs, which tells moved values from changed text.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(Path(__file__).parent))
import compare  # noqa: E402


def write_outputs(checkout: Path, out: Path) -> None:
    """The workload and golden outputs of ``checkout`` under out/."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    scripts = {"workloads": "golden/workload_outputs.py", "golden": "test_golden.py"}
    for tree, script in scripts.items():
        argv = [sys.executable, str(checkout / "tests" / script), str(out / tree)]
        subprocess.run(argv, env=env, check=True)


def same_tree(base: Path, change: Path, tree: str) -> bool:
    """Whether base/tree and change/tree pass ``diff -r -x manifest.json``;
    if not, the diff is followed by ``compare.py``'s listing."""
    diff = ["diff", "-r", "-x", "manifest.json", str(base / tree), str(change / tree)]
    if subprocess.run(diff).returncode == 0:
        return True
    print(f"{tree}: the bytes differ from the base checkout's", flush=True)
    if compare.main([str(base / tree), str(change / tree)]) == 0:
        print(f"{tree}: every value agrees to 1e-12; only the text differs")
    return False


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        base, change = Path(tmp, "base"), Path(tmp, "change")
        write_outputs(Path(args[0]).resolve(), base)
        write_outputs(ROOT, change)
        same = [same_tree(base, change, tree) for tree in ("workloads", "golden")]
    return 0 if all(same) else 1


if __name__ == "__main__":
    raise SystemExit(main())
