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
    NotHomotopyEquivalence,
    ValidationReport,
    berezinian,
    berezinian_class,
    decompose,
    harmonic_blocks,
    invertible_replacement,
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
    coboundary,
    coboundary_solve_1,
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
    characteristic_function,
    decide_modular_class,
    modular_class,
    strict_as_homotopy,
    verify_line_rep,
    verify_rep,
    verify_ruth,
    verify_vector_rep,
)
from .schema import InputDocument, SchemaError, parse, parse_data, serialize

__version__ = "0.1.0"
