"""Package-wide checks on the source itself: the public names, unused imports
and module-level names that nothing calls."""

import ast
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
    "add",
    "build_admissible_greedy",
    "conjugate_transpose",
    "covering_number",
    "diameter",
    "dudley_integral",
    "einstein_product",
    "empirical_sup_moment",
    "empirical_tail",
    "fit_constants",
    "fit_tail_exponent",
    "fold",
    "gamma_exhaustive",
    "gamma_prime_value",
    "gamma_truncated_value",
    "gamma_value",
    "hermitian_part",
    "identity",
    "inner_product",
    "intersect_partitions",
    "inverse",
    "is_hermitian",
    "is_unitary",
    "lambda_max",
    "norm",
    "sample_ensemble",
    "trace",
    "unfold",
    "verify_increment_tail",
    "zero",
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
