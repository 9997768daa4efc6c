"""Span tracing of tensorchain's public functions from outside the package.

Each wrapped function records one span per call: name, start, end, the
span that was open when it was called, and a work count taken from its
arguments or result.  Nothing in the package is edited.  A wrapper
replaces every module-level binding of the original object in the loaded
``tensorchain`` modules, because modules import one another's functions
by name (``cli`` binds ``sample_ensemble``, ``empirical`` binds
``fit_constants``) and a call through an unreplaced name would escape the
trace.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import math
import sys
import time

PACKAGE = "tensorchain"
MODULES = ("kernels", "chaining", "processes", "empirical", "bounds", "sensing",
           "tensor", "cli")


def _result_size(args, result):
    return int(result.size)


def _first_arg_rows(args, result):
    return int(args[0].shape[0])


def _supports(args, result):
    gram, xi = args[0], args[1]
    return math.comb(gram.shape[0], xi)


def _space_points(args, result):
    return int(args[0].size)  # args[0] is the instance being initialised


def _ensemble_samples(args, result):
    return int(result.sample_count)


def _result_len(args, result):
    return len(result)


def _pairs(args, result):
    return result.size * (result.size - 1) // 2


# (module, attribute, count kind or None, count function, report calls).
# Counts are whole numbers fixed by the inputs, so two traced runs of one
# config agree on them exactly.  ``matrices`` is the number of matrices
# whose norm or eigenvalue a kernel returns.
TARGETS = (
    ("kernels", "ensemble_pairwise_norms", "matrices", _result_size, False),
    ("kernels", "ensemble_norms_vs_ref", "matrices", _result_size, True),
    ("kernels", "batch_spectral", "matrices", _result_size, True),
    ("kernels", "batch_lambda_max", "matrices", _result_size, False),
    ("kernels", "rip_scan", "supports", _supports, False),
    ("kernels", "greedy_cover", None, None, True),
    ("kernels", "max_triangle_violation", "points", _first_arg_rows, False),
    ("kernels", "farthest_point_order", None, None, False),
    ("kernels", "chain_sum", None, None, False),
    ("kernels", "gamma2_scan", None, None, False),
    ("chaining", "FiniteMetricSpace", "points", _space_points, False),
    ("chaining", "build_admissible_greedy", None, None, False),
    ("chaining", "covering_number", None, None, True),
    ("chaining", "dudley_integral", None, None, False),
    ("chaining", "gamma_exhaustive", None, None, False),
    ("processes", "sample_ensemble", "samples", _ensemble_samples, False),
    ("processes", "sample_mixed_sups", "samples", _result_len, False),
    ("processes", "verify_increment_tail", None, None, False),
    ("processes", "empirical_tail", None, None, False),
    ("processes", "ensemble_to_csv", "bytes", _result_len, False),
    ("empirical", "family_space", "pairs", _pairs, False),
    ("empirical", "sample_family_sups", "samples", _result_len, False),
    ("bounds", "fit_constants", None, None, False),
    ("bounds", "verify_azuma", None, None, False),
    ("bounds", "verify_bernstein", None, None, False),
    ("sensing", "rip_exact", None, None, True),
    ("sensing", "sample_operator", None, None, False),
    ("tensor", "random_hermitian", None, None, True),
    ("cli", "validate", None, None, False),
)

def metric_names():
    """[(name, unit)] of every per-layer metric, in report order."""
    names = []
    for module, attr, kind, _, calls in TARGETS:
        base = f"{module}.{attr}"
        names.append((f"{base}.s", "s"))
        if calls:
            names.append((f"{base}.calls", "count"))
        if kind:
            names.append((f"{base}.{kind}", "bytes" if kind == "bytes" else "count"))
    names += [(f"{m}.self_s", "s") for m in MODULES]
    names += [("cli.output.bytes", "bytes"), ("trace.overhead_s", "s")]
    return names


class Tracer:
    """Records spans in memory; ``install`` puts the wrappers in place."""

    def __init__(self):
        self.spans = []  # (name, parent index or -1, start, end, count)
        self._open = []
        self._restore = []

    def wrap(self, name, fn, count=None):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[idx] = (name, parent, start, end, 0)
            if count is not None:
                spans[idx] = (name, parent, start, end, count(args, result))
            return result

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module, attr, _, count, _ in TARGETS:
            name = f"{module}.{attr}"
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            if isinstance(original, type):
                init = original.__init__
                self._restore.append((original, "__init__", init))
                original.__init__ = self.wrap(name, init, count)
                continue
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore = []

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans = self.spans[:]
        del self.spans[:]
        return spans


def summarize(spans):
    """Per-layer figures of one traced round.

    ``<name>.s`` is inclusive time, counted once for nested calls of the
    same name; ``<module>.self_s`` sums span durations minus the time
    covered by their direct children.
    """
    out = {}
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, parent, start, end, count) in enumerate(spans):
        module = name.split(".", 1)[0]
        key = f"{module}.self_s"
        out[key] = out.get(key, 0.0) + (end - start) - child_time[i]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.count"] = out.get(f"{name}.count", 0) + count
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
    return out


def layer_metrics(summary):
    """Map one round's summary onto the declared per-layer metric names."""
    values = {}
    for module, attr, kind, _, calls in TARGETS:
        base = f"{module}.{attr}"
        values[f"{base}.s"] = summary.get(f"{base}.s", 0.0)
        if calls:
            values[f"{base}.calls"] = summary.get(f"{base}.calls", 0)
        if kind:
            values[f"{base}.{kind}"] = summary.get(f"{base}.count", 0)
    for m in MODULES:
        values[f"{m}.self_s"] = summary.get(f"{m}.self_s", 0.0)
    return values


def write_spans(path, rounds):
    """Write the spans of every traced round as CSV."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("round,span,parent,name,start,end,count\n")
        for r, spans in enumerate(rounds):
            for i, (name, parent, start, end, count) in enumerate(spans):
                fh.write(f"{r},{i},{parent},{name},{start!r},{end!r},{count}\n")
