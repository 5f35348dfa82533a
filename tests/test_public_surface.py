"""The names ``modclass`` exports, pinned here and named in the README.

``PUBLIC`` is every attribute of the package that does not start with
``_``, submodules aside.  The README's Layout section names each of
them.  ``DELETED`` are the names that were library code no command ran:
a homotopy builder, one-line wrappers of the ``verify_ruth`` report and
a second determinant path; the tests build what they still need in
``oracle.py``.  None of them can be imported from the package or from
any of its modules.
"""

import importlib
import pathlib
import re
import types

import pytest

import modclass

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
LAYERS = ("cli", "complexes", "groupoid", "linalg", "reps", "schema")
MODULES = ("modclass", *(f"modclass.{layer}" for layer in LAYERS))

PUBLIC = {
    "ChainMap", "ClassReport", "Cochain", "ComplexFiber", "Decomposition",
    "FiniteGroupoid", "Fraction", "GradedDimensionMismatch", "GroupTable",
    "InputDocument", "LineRep", "Matrix", "NotACocycle", "NotHomotopyEquivalence",
    "RepUpToWeakHomotopy", "SchemaError", "Trivialization", "ValidationReport",
    "VectorRep", "action_groupoid", "berezinian", "berezinian_class",
    "characteristic_function", "coboundary", "coboundary_solve_1",
    "connected_groupoid", "cyclic_groupoid", "decide_modular_class", "decompose",
    "det", "disjoint_union", "format_rational", "harmonic_blocks",
    "invertible_replacement", "is_cocycle_1", "modular_class", "pair_groupoid",
    "parse", "parse_data", "parse_rational", "rref", "serialize",
    "strict_as_homotopy", "validate", "verify_chain_map", "verify_complex",
    "verify_line_rep", "verify_rep", "verify_ruth", "verify_vector_rep",
}

DELETED = {
    "Homotopy", "HomotopyEquivalenceCheck", "_GradedMap", "_contracting_homotopy",
    "_coordinates", "_require_chain_map", "abs_plus_function", "are_homotopic",
    "class_equal", "cohomology_dims", "cohomology_representation",
    "composable_tuples", "det_representation", "induced_ber_rep",
    "is_homotopy_equivalence", "null_homotopy", "regular_factorization_check",
    "tensor",
}


def test_the_package_exports_the_pinned_names():
    exported = {
        name
        for name, value in vars(modclass).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC


def test_the_readme_layout_names_every_public_name():
    layout = README.read_text(encoding="utf-8").split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"`([^`]*)`", layout)
    unnamed = [
        name for name in sorted(PUBLIC)
        if not any(re.search(rf"(?<![\w.]){name}\b", span) for span in spans)
    ]
    assert unnamed == []


@pytest.mark.parametrize("module", MODULES)
def test_no_deleted_name_can_be_imported(module):
    importlib.import_module(module)
    for name in sorted(DELETED):
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})


def test_reps_no_longer_reads_cohomology_off_its_report():
    # the one read the report kept besides the Berezinian representation
    assert not hasattr(modclass.reps.RuthReport, "cohomology_rep")
