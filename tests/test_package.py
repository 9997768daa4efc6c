"""Package-wide checks on the source itself: the public names, unused imports,
module-level names that nothing calls and functions that no golden case runs."""

import ast
import importlib.util
from pathlib import Path

import pytest

import tensorchain

PACKAGE = Path(tensorchain.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))

EXPORTS = [
    "AdmissibleSequence",
    "BoundReport",
    "ConstantSet",
    "DenseTensor",
    "Ensemble",
    "FiniteMetricSpace",
    "GaugeNorm",
    "PartitionSequence",
    "ProcessFamily",
    "ProcessSpec",
    "Shape",
    "TailCurve",
    "build_admissible_greedy",
    "covering_number",
    "diameter",
    "dudley_integral",
    "einstein_product",
    "empirical_tail",
    "fit_constants",
    "fit_tail_exponent",
    "fold",
    "gamma_exhaustive",
    "gamma_prime_value",
    "gamma_truncated_value",
    "gamma_value",
    "hermitian_part",
    "intersect_partitions",
    "is_unitary",
    "sample_ensemble",
    "unfold",
    "verify_increment_tail",
]


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_public_surface_is_pinned():
    tree = parse(PACKAGE / "__init__.py")
    names = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for a in node.names]
    assert sorted(names) == EXPORTS
    assert all(hasattr(tensorchain, n) for n in EXPORTS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_import_is_used(path):
    source = path.read_text(encoding="utf-8").splitlines()
    tree = parse(path)
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in source[node.lineno - 1]:
            continue
        for a in node.names:
            bound[a.asname or a.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert {name: line for name, line in bound.items() if name not in used} == {}


# module-level functions and classes that no src/ name calls and __init__.py
# does not export, each with why it stays
PAPER = "a statement of the paper, checked against exact laws by the tests"
KEPT = {
    "bounds.exp_tail_sup_moment_bound": PAPER,
    "bounds.martingale_chain_metric": PAPER,
    "bounds.mixed_moment_to_tail": PAPER,
    "bounds.mixed_tail_sup_moment_bound": PAPER,
    "bounds.mixed_tail_to_moment": PAPER,
    "bounds.moment_to_tail": PAPER,
    "bounds.scaled_tail_moment_bound": PAPER,
    "bounds.tail_to_moment": PAPER,
    "bounds.union_bound_series_constant": PAPER,
    "empirical.check_bernstein_condition": "the Monte Carlo check of the empirical "
    "theorem's Bernstein hypothesis",
    "kernels.ensemble_pairwise_norms": "bound by `clibench/tracing.py`; goes with "
    "ROADMAP item 1",
    "processes.process_metric": PAPER,
    "sensing.coherence": PAPER,
    "sensing.entropy_bound": PAPER,
    "sensing.rip_sampling_condition": PAPER,
    "sensing.rip_tau_threshold": PAPER,
}


def uncalled_names():
    """module.name of each module-level function or class that no src/ code
    outside its own body names, and that __init__.py does not import."""
    trees = {path.stem: parse(path) for path in MODULES}
    exported = {a.asname or a.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    defined, named = [], set()
    for module, tree in trees.items():
        for top in tree.body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, own))
            named |= {node.id if isinstance(node, ast.Name) else node.attr
                      for node in ast.walk(top)
                      if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    return {f"{m}.{n}" for m, n in defined if n not in named and n not in exported}


def test_every_module_level_name_has_a_caller_or_a_reason():
    assert uncalled_names() == set(KEPT)


_spec = importlib.util.spec_from_file_location(
    "reach", Path(__file__).parent / "golden" / "reach.py"
)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

# package functions that no golden case calls, each with why it stays
TAIL_ROW = ("a helper of the `exp_tail` or `martingale` row of `bounds._TAIL_BOUNDS`: "
            "the paper's single-tail and martingale supremum bounds, which no experiment fits")
GAMMA_PRIME = ("the partition sequences behind the mixed-tail theory's gamma-prime; "
               "`mixed-tail` takes its two gamma values from two greedy sequences")
TRACED = "bound by `clibench/tracing.py`'s TARGETS, which looks each name up"
UNREACHED = {
    **KEPT,
    "bounds._tail_decay": TAIL_ROW,
    "bounds.exp_tail_sup_tail_bound": TAIL_ROW,
    "bounds.martingale_sup_tail_bound": TAIL_ROW,
    "bounds.mixed_moment_envelope": "the envelope f_n of `bounds.mixed_tail_to_moment`",
    "chaining.PartitionSequence.__post_init__": GAMMA_PRIME,
    "chaining.PartitionSequence.cell_of": GAMMA_PRIME,
    "chaining.PartitionSequence.depth": GAMMA_PRIME,
    "chaining.PartitionSequence.level_at": GAMMA_PRIME,
    "chaining._canonical_partition": GAMMA_PRIME,
    "chaining.gamma_prime_value": GAMMA_PRIME,
    "chaining.intersect_partitions": GAMMA_PRIME,
    "chaining.covering_number": TRACED,
    "chaining.dudley_integral": TRACED,
    "kernels._fork": "forks a child of `kernels.map_blocks`; the reach probe runs in one process",
    "kernels.sup_norms": "the suprema of a dense `EmpiricalFamily`, which the CLI never builds",
    "processes.Ensemble.trajectories": "every sample formed at once, for tests and library "
                                       "callers; the CLI's reductions stream `Ensemble.blocks`",
    "processes._realize": "refuses the entries that overflow once a pad scale passes half "
                          "`_entry_limit`; no golden case draws near the float limit",
    "tensor.einstein_product": "the contraction product of the paper's tensors",
    "tensor.is_unitary": "`sensing.coherence` checks its input by it",
}


def test_every_function_is_reached_by_a_golden_case_or_kept_for_a_reason():
    assert reach.unreached(reach.golden_runs()) == set(UNREACHED)
