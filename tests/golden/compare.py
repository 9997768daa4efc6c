"""Compare two trees of experiment outputs under the golden-output contract.

Usage: python tests/golden/compare.py A B

A and B are output directories, or directories of them; files are paired
by relative path and ``manifest.json`` (wall times) is skipped.  Exit
codes, verdicts, strings, integers, booleans, JSON keys and CSV row counts
must match exactly.  Floats must agree to a relative tolerance of 1e-12,
and a zero must stay zero.  Exit status 0 means the trees match; 1 lists
every difference.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

RTOL = 1e-12
SKIPPED = {"manifest.json"}


def _floats_match(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    if a == 0.0 or b == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def _json_diffs(a, b, where):
    if type(a) is not type(b):
        return [f"{where}: {a!r} != {b!r}"]
    if isinstance(a, dict):
        if set(a) != set(b):
            return [f"{where}: keys {sorted(a)} != {sorted(b)}"]
        return [d for k in sorted(a) for d in _json_diffs(a[k], b[k], f"{where}.{k}")]
    if isinstance(a, list):
        if len(a) != len(b):
            return [f"{where}: length {len(a)} != {len(b)}"]
        pairs = enumerate(zip(a, b))
        return [d for i, (x, y) in pairs for d in _json_diffs(x, y, f"{where}[{i}]")]
    if isinstance(a, float):
        return [] if _floats_match(a, b) else [f"{where}: {a!r} != {b!r}"]
    return [] if a == b else [f"{where}: {a!r} != {b!r}"]


def _cell(text):
    """A CSV cell as the JSON value it spells: int, float or string."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _csv_diffs(a: str, b: str, where):
    rows_a = list(csv.reader(io.StringIO(a)))
    rows_b = list(csv.reader(io.StringIO(b)))
    if len(rows_a) != len(rows_b):
        return [f"{where}: {len(rows_a)} rows != {len(rows_b)}"]
    diffs = []
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        cells_a = [_cell(c) for c in ra]
        cells_b = [_cell(c) for c in rb]
        diffs += _json_diffs(cells_a, cells_b, f"{where} row {i}")
    return diffs


def file_diffs(a: Path, b: Path, where: str):
    text_a, text_b = a.read_text(), b.read_text()
    if a.suffix == ".json":
        return _json_diffs(json.loads(text_a), json.loads(text_b), where)
    if a.suffix == ".csv":
        return _csv_diffs(text_a, text_b, where)
    return [] if text_a == text_b else [f"{where}: contents differ"]


def compare(a, b):
    """Every difference between the output trees a and b, as messages."""
    a, b = Path(a), Path(b)

    def files(root):
        return {
            p.relative_to(root).as_posix()
            for p in root.rglob("*")
            if p.is_file() and p.name not in SKIPPED
        }

    in_a, in_b = files(a), files(b)
    diffs = [f"{name}: only in {a}" for name in sorted(in_a - in_b)]
    diffs += [f"{name}: only in {b}" for name in sorted(in_b - in_a)]
    for name in sorted(in_a & in_b):
        diffs += file_diffs(a / name, b / name, name)
    return diffs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    diffs = compare(*args)
    for d in diffs:
        print(d)
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
