"""Seeded experiment configs for each benchmark workload.

Sizes are fixed per workload; the workload seed only chooses the config
seeds and the random planar points of the ``gamma`` experiments, so the
work done is the same for every seed.
"""

from __future__ import annotations

import numpy as np

# Grouped-mode 2x2 row modes: every tensor unfolds to a 4x4 matrix.
MODES = [2, 2]


def _seeds(gen, count):
    return [int(s) for s in gen.integers(0, 2**31 - 1, size=count)]


def _mc_deep(gen):
    s = _seeds(gen, 5)
    return [
        ("simulate", {
            "experiment": "simulate", "seed": s[0], "samples": 1500,
            "family": "gaussian_linear", "tail_beta": 2.0, "metric_scale": 2.0,
            "index_count": 16, "basis_count": 4, "row_modes": MODES,
            "verify_tail": True, "fit_exponent": True,
        }),
        ("mixed-tail", {
            "experiment": "mixed-tail", "seed": s[1], "samples": 8000,
            "index_count": 16, "basis_count": 4, "row_modes": MODES,
        }),
        ("empirical", {
            "experiment": "empirical", "seed": s[2], "samples": 10000,
            "t_count": 32, "n": 8, "row_modes": MODES,
        }),
        ("verify-azuma", {
            "experiment": "verify-azuma", "seed": s[3], "samples": 100000,
            "steps": 8, "row_modes": MODES,
        }),
        ("verify-bernstein", {
            "experiment": "verify-bernstein", "seed": s[4], "samples": 100000,
            "n": 8, "row_modes": MODES,
        }),
    ]


def _points(gen, count):
    return [[float(x), float(y)] for x, y in gen.uniform(0.0, 1.0, (count, 2))]


def _index_wide(gen):
    s = _seeds(gen, 6)
    return [
        ("simulate", {
            "experiment": "simulate", "seed": s[0], "samples": 200,
            "family": "gaussian_linear", "index_count": 400, "basis_count": 4,
            "row_modes": MODES, "verify_tail": False, "fit_exponent": True,
        }),
        ("mixed-tail", {
            "experiment": "mixed-tail", "seed": s[1], "samples": 200,
            "index_count": 400, "basis_count": 4, "row_modes": MODES,
        }),
        ("empirical", {
            "experiment": "empirical", "seed": s[2], "samples": 400,
            "t_count": 200, "n": 8, "row_modes": MODES,
        }),
        ("gamma", {
            "experiment": "gamma", "seed": s[3], "points": _points(gen, 100),
            "beta": 2.0, "p_values": [1, 2, 4],
        }),
        ("gamma", {
            "experiment": "gamma", "seed": s[4], "points": _points(gen, 16),
            "beta": 2.0, "p_values": [1, 2, 4],
        }),
        ("gamma", {
            "experiment": "gamma", "seed": s[5], "points": _points(gen, 20),
            "beta": 2.0, "p_values": [1, 2, 4],
        }),
    ]


def _rip_scan(gen):
    s = _seeds(gen, 4)
    base = {"experiment": "rip", "xi": 3, "tau": 0.5, "trials": 10}
    return [
        ("rip", {**base, "seed": s[0], "col_dims": [64], "target_size": 32,
                 "operator": "fourier"}),
        ("rip", {**base, "seed": s[1], "col_dims": [8, 8], "target_size": 32,
                 "operator": "fourier"}),
        ("rip", {**base, "seed": s[2], "col_dims": [64], "target_size": 32,
                 "operator": {"seed": s[3]}}),
    ]


WORKLOADS = {"mc-deep": _mc_deep, "index-wide": _index_wide, "rip-scan": _rip_scan}


def configs(workload: str, seed: int):
    """[(experiment, config), ...] for one workload, in run order."""
    return WORKLOADS[workload](np.random.default_rng([seed, 0x7E57]))
