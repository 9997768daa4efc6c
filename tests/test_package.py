"""Package-wide checks on the source itself: the public names and unused imports."""

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
