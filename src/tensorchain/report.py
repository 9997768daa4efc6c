"""Bound-verification reports and their serialization.

A report records, per tested point, the evaluated threshold, the claimed
probability bound, the empirical exceedance frequency, and the binomial
margin used for the verdict.  The verdict is "holds" only when every row
satisfies empirical <= bound + margin, so a report has at least one row:
over zero rows it would hold vacuously.

This module owns the one output format: every JSON file a run writes is
:func:`dumps` of its payload and every CSV file :func:`csv_text` of its
columns, so reruns with identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields
from itertools import chain

import numpy as np

from . import kernels
from .errors import DomainError, ValidationError


def dumps(obj) -> str:
    """The JSON form of every report: sorted keys, indent 2, a final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def csv_text(header: str, *columns) -> str:
    """The CSV form of every table: ``header``, then one line per row.

    A cell is the ``repr`` of the Python scalar ``tolist`` gives for its
    entry, never ``np.float64(x)``.  Rows are formatted in ``kernels.chunks``
    blocks, a cell counted as the 4 complex entries (64 bytes) its scalar
    and text take, so no column is held whole as Python objects."""
    columns = [np.asarray(column) for column in columns]
    line = ",".join(["%r"] * len(columns)) + "\n"
    parts = [header + "\n"]
    for rows in kernels.chunks(len(columns[0]), 4 * len(columns)):
        cells = [column[rows].tolist() for column in columns]
        block = line * len(cells[0])  # one format for the block's rows
        parts.append(block % tuple(chain.from_iterable(zip(*cells))))
    return "".join(parts)


# binomial standard errors of slack every verdict allows
MARGIN_SIGMAS = 3.0


def binomial_margin(prob: float, samples: int) -> float:
    """MARGIN_SIGMAS binomial standard errors at success probability `prob`.

    The standard error is floored at 1/samples: below that, a frequency
    estimator has no resolution, and an unfloored margin would force
    verdicts to hinge on single extreme samples.  ``samples`` is at least
    1: every sampler and bound check rejects an empty sample.
    """
    p = min(max(prob, 0.0), 1.0)
    return MARGIN_SIGMAS * max(math.sqrt(p * (1.0 - p) / samples), 1.0 / samples)


@dataclass(frozen=True)
class BoundRow:
    u: float
    threshold: float
    prob_bound: float
    empirical: float
    margin: float
    holds: bool


@dataclass(frozen=True)
class BoundReport:
    bound_name: str
    inputs: dict
    rows: tuple
    fitted: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.rows:
            raise ValidationError(f"{self.bound_name}: a report needs at least one u")

    @property
    def verdict(self) -> str:
        return "holds" if all(r.holds for r in self.rows) else "violated"

    def to_dict(self) -> dict:
        return {**asdict(self), "verdict": self.verdict}

    def to_json(self) -> str:
        return dumps(self.to_dict())

    def to_csv(self) -> str:
        *values, holds = zip(*map(astuple, self.rows))
        header = ",".join(f.name for f in fields(BoundRow))
        return csv_text(header, *values, np.array(holds, int))  # holds as 1 or 0


def row_holds(prob_bound, empirical, samples) -> bool:
    """The verdict of one row: empirical <= prob_bound + its binomial margin."""
    return bool(empirical <= prob_bound + binomial_margin(prob_bound, samples))


def make_rows(u_grid, thresholds, prob_bounds, empiricals, samples):
    """One verdict row per u; a threshold or bound that is not finite, one
    beyond the float range, is refused with :class:`DomainError`."""
    rows = []
    for u, thr, pb, emp in zip(u_grid, thresholds, prob_bounds, empiricals):
        if not (math.isfinite(thr) and math.isfinite(pb)):
            raise DomainError(f"u = {float(u)!r}: the threshold or bound is not finite")
        rows.append(
            BoundRow(
                u=float(u),
                threshold=float(thr),
                prob_bound=float(pb),
                empirical=float(emp),
                margin=float(binomial_margin(pb, samples)),
                holds=row_holds(pb, emp, samples),
            )
        )
    return tuple(rows)
