"""The one output format: ``report.dumps`` and ``report.csv_text`` against
plain ``f"{x!r}"`` references built from Python scalars."""

import numpy as np
import pytest

from tensorchain.report import csv_text, dumps

# a negative zero, the least subnormal, the largest float, and a float whose
# shortest repr is not its exact binary value
FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
INTS = [0, -3, 2**62]
BOOLS = [True, False, True]


def reference_csv(header, *columns):
    lines = [header] + [",".join(f"{x!r}" for x in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "column, values",
    [
        (FLOATS, FLOATS),
        (tuple(FLOATS), FLOATS),
        (np.array(FLOATS, np.float64), FLOATS),
        (INTS, INTS),
        (np.array(INTS, np.int64), INTS),
        (range(4), [0, 1, 2, 3]),
        (np.array(BOOLS), BOOLS),
    ],
    ids=["list", "tuple", "float64", "ints", "int64", "range", "bool"],
)
def test_csv_text_prints_each_cell_as_the_repr_of_its_python_scalar(column, values):
    assert csv_text("v", column) == reference_csv("v", values)


def test_csv_text_pairs_columns_of_mixed_kinds_by_row():
    columns = (range(4), np.array(FLOATS), tuple(FLOATS[::-1]), np.arange(4, dtype=np.int64))
    rows = (range(4), FLOATS, FLOATS[::-1], [0, 1, 2, 3])
    assert csv_text("a,b,c,d", *columns) == reference_csv("a,b,c,d", *rows)
    assert "np." not in csv_text("a,b", np.array(FLOATS), np.array(INTS + [1]))


@pytest.mark.parametrize("empty", [[], (), range(0), np.array([]), np.array([], np.int64)])
def test_csv_text_of_empty_columns_is_the_header_line(empty):
    assert csv_text("u,count", empty, empty) == "u,count\n"


def test_dumps_sorts_keys_indents_by_two_and_ends_with_a_newline():
    floats = ",\n".join(f"    {x!r}" for x in FLOATS)
    want = f'{{\n  "a": [\n{floats}\n  ],\n  "b": {{\n    "c": {INTS[2]!r},\n    "d": true\n  }}\n}}\n'
    assert dumps({"b": {"d": True, "c": INTS[2]}, "a": FLOATS}) == want
    assert dumps({"b": {"c": INTS[2], "d": True}, "a": tuple(np.array(FLOATS))}) == want
