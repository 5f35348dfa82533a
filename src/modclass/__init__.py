"""Modular classes of finite groupoid representations, exactly.

The pipeline: a finite groupoid acts on per-object chain complexes by
chain maps, functorially up to homotopy; the Berezinian of each arrow's
homotopy class is read off the harmonic blocks of the per-object
boundary/harmonic/lift decompositions; the resulting scalar cocycle
is strictly functorial and its cohomology class (trivial or not, with a
witness or obstructions) is the modular class.
"""

from fractions import Fraction

from .linalg import Matrix, det, format_rational, parse_rational, rref
from .complexes import (
    ChainMap,
    ComplexFiber,
    Decomposition,
    GradedDimensionMismatch,
    Homotopy,
    NotHomotopyEquivalence,
    ValidationReport,
    are_homotopic,
    berezinian,
    berezinian_class,
    cohomology_dims,
    decompose,
    harmonic_blocks,
    invertible_replacement,
    is_homotopy_equivalence,
    null_homotopy,
    verify_chain_map,
    verify_complex,
)
from .groupoid import (
    ClassReport,
    Cochain,
    FiniteGroupoid,
    GroupTable,
    NotACocycle,
    action_groupoid,
    class_equal,
    coboundary,
    coboundary_solve_1,
    composable_tuples,
    connected_groupoid,
    cyclic_groupoid,
    disjoint_union,
    is_cocycle_1,
    pair_groupoid,
    validate,
)
from .reps import (
    LineRep,
    RepUpToWeakHomotopy,
    Trivialization,
    VectorRep,
    abs_plus_function,
    characteristic_function,
    cohomology_representation,
    decide_modular_class,
    det_representation,
    induced_ber_rep,
    modular_class,
    regular_factorization_check,
    strict_as_homotopy,
    tensor,
    verify_line_rep,
    verify_rep,
    verify_ruth,
    verify_vector_rep,
)
from .schema import InputDocument, SchemaError, parse, parse_data, serialize

__version__ = "0.1.0"
