"""Exact solver for the Lusztig-Shoji factorization omega = P * Lambda * P^T
over Laurent polynomials in t^(1/2), together with builders for type-A
Springer block data, a charge-statistic Kostka-Foulkes oracle, and a graded
Ext-dimension calculator.
"""

from .laurent import (
    ONE,
    ZERO,
    HalfLaurent,
    NonExactDivision,
    bar,
    exact_div,
    t_half_power,
    t_power,
)
from .weyl import (
    CharTable,
    Partition,
    SizeMismatch,
    char_table_sn,
    coinvariant_pairing,
    conjugacy_classes,
    mn_character,
    partitions_of,
    perm_molien_det,
)
from .blockdata import (
    BlockData,
    Dataset,
    OrbitInfo,
    SimpleLabel,
    Violation,
    build_springer_block_a,
    dominates,
    load_dataset,
    orbit_dim_type_a,
    save_dataset,
    singleton_cuspidal_block,
    validate_block,
    validate_dataset,
)
from .solver import (
    DualSymmetryViolation,
    SingularLambdaBlock,
    SolveResult,
    SolverError,
    SupportViolation,
    dualize_p,
    extension_invariance_check,
    reconstruct,
    solve,
)
from .oracle import Tableau, charge, kostka_foulkes, ssyt_enumerate
from .exthom import GradedDims, graded_hom_dims, lusztig_sheaf_endo_dims, series_consistency

__version__ = "0.1.0"
