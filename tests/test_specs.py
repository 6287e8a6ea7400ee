import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

import udortho
from udortho.estimator import ExperimentSpec
from udortho.lowdisc import SequenceSpec
from udortho.orthogonal import OrthoSequenceSpec

SRC = Path(__file__).resolve().parent.parent / "src"

# The settable fields of each spec, in positional order.  Everything else
# about a run is derived from them, so a setting added back (an index
# offset, an unscrambled sequence) has to change this table on purpose.
SETTINGS = {
    SequenceSpec: ("dims", "bases", "permutation_seed"),
    OrthoSequenceSpec: ("n", "permutation_seed", "veech"),
    ExperimentSpec: ("polytope", "n", "k", "N", "mode", "seed", "trace_points"),
}


@pytest.mark.parametrize("spec", SETTINGS, ids=lambda spec: spec.__name__)
def test_specs_take_only_their_documented_settings(spec):
    assert tuple(f.name for f in fields(spec) if f.init) == SETTINGS[spec]


# The package's public names: the pipeline stages, the specs and the
# paper's named objects.  Test-only helpers live in the tests that use them.
PUBLIC = {
    "ComparisonReport", "ConvergenceTrace", "ExperimentSpec", "OrthoSequence",
    "OrthoSequenceSpec", "Polytope", "SequenceSpec", "Subspace", "ball_volume",
    "beta_k", "builtin", "champernowne_digit", "compare", "convolution_index",
    "coset_rep", "crofton_constant", "generated", "hull_measure", "load_polytope",
    "occurrence_positions", "point_at", "points", "r_sequence", "random_ortho_batch",
    "random_spherical_polytope", "reference_value", "run", "sphere_points",
    "sphere_sequence", "t_inverse",
}


def test_public_names_are_the_documented_set():
    assert len(udortho.__all__) == len(set(udortho.__all__))
    assert set(udortho.__all__) == PUBLIC
    assert all(hasattr(udortho, name) for name in udortho.__all__)


# Spellings that exist only from numpy 2.0: the matrix-transpose attributes
# and the array-API aliases added then.  pyproject.toml declares numpy >= 1.24,
# where each of them raises AttributeError.
NUMPY2_ONLY = re.compile(
    r"\.m[TH]\b"
    r"|\bnp\.(concat|permute_dims|matrix_transpose|vecdot|matvec|vecmat|pow|acos|asin|"
    r"atan2?|acosh|asinh|atanh|unique_(values|counts|inverse|all)|isdtype|"
    r"bitwise_(left_shift|right_shift|invert)|cumulative_(sum|prod))\b"
    r"|\bnp\.linalg\.(matrix_transpose|vecdot|matrix_norm|vector_norm|svdvals|diagonal|"
    r"trace|outer|cross|matmul|tensordot)\b")


@pytest.mark.parametrize("path", sorted((SRC / "udortho").glob("*.py")), ids=lambda p: p.name)
def test_sources_keep_the_declared_numpy_floor(path):
    floor = re.search(r'"numpy>=([\d.]+)"', (SRC.parent / "pyproject.toml").read_text())
    assert floor and floor.group(1) == "1.24"
    found = [(i, line.strip()) for i, line in enumerate(path.read_text().splitlines(), 1)
             if NUMPY2_ONLY.search(line)]
    assert not found, f"numpy >= 2.0 spellings in {path.name}: {found}"


# The integer rule for arguments (an integer, not a boolean, not a truncated
# float) is spelled once, in lowdisc.check_integer, which every other module
# calls.  The patterns match the code, not the word: geometry cites Schneider
# and Weil's "Integral Geometry", and its load_polytope keeps its own JSON
# rule (a Real that is integral, so 3.0 passes).
INTEGER_RULE = (re.compile(r"isinstance\(.*\bIntegral\b"),
                re.compile(r"^\s*from numbers import .*\bIntegral\b", re.M))


@pytest.mark.parametrize("path", sorted((SRC / "udortho").glob("*.py")), ids=lambda p: p.name)
def test_only_lowdisc_spells_the_integer_rule(path):
    text = path.read_text()
    found = [bool(pattern.search(text)) for pattern in INTEGER_RULE]
    assert found == [path.name == "lowdisc.py"] * 2, f"Integral test or import in {path.name}"


@pytest.mark.parametrize("path", sorted((SRC / "udortho").glob("*.py")), ids=lambda p: p.name)
def test_sources_parse_at_the_declared_python_floor(path):
    # the tests run on a newer Python than the floor, where syntax added
    # after it (an except* clause) would pass unseen; this checks syntax
    # only.  The floor is read with a regex, as tomllib is Python 3.11+.
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject)
    assert floor and floor.groups() == ("3", "10")
    ast.parse(path.read_text(), filename=path.name, feature_version=tuple(map(int, floor.groups())))
