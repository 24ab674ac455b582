"""Exact solver for the Lusztig-Shoji factorization omega = P * Lambda * P^T
over Laurent polynomials in t^(1/2), together with builders for type-A
Springer block data, a charge-statistic Kostka-Foulkes oracle, and a graded
Ext-dimension calculator.

This namespace holds the README's library entry points and the types they
return or raise; every other name is imported from its own module.
"""

from .laurent import DataFormatError, HalfLaurent, NonExactDivision
from .weyl import coinvariant_pairing
from .blockdata import build_springer_block_a
from .solver import InvalidBlock, SolveResult, SolverError, dualize_p, reconstruct, solve
from .oracle import kostka_foulkes
from .exthom import graded_hom_dims

__version__ = "0.1.0"
