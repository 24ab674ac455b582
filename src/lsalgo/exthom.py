"""Graded Hom dimensions between simple objects of one block.

The graded endomorphism data of a block is controlled by the character table
of its relative Weyl group W acting on a rank-r polynomial algebra with
generators in cohomological degree 2: the dimension in degree 2k of the Hom
space between the simples labelled chi and psi is the k-th coefficient of
the Molien series

    (1/|W|) * sum_c |c| * chi(c) * psi(c) / det(1 - u*w_c).

Odd cohomological degrees vanish identically and are never stored.  The
series is infinite, so every interface takes an explicit truncation bound;
no Euler characteristic of it is ever formed.  Each 1/det(1 - u*w_c) has
constant term 1, so the sum is expanded as an integer power series and
divided by |W| coefficient by coefficient.  A remainder or a negative
dimension proves the table inconsistent and raises an ArithmeticError
(NonExactDivision for a remainder), never a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .laurent import HalfLaurent
from .weyl import CharTable, class_pair_series, coinvariant_pairing, degrees_product


@dataclass(frozen=True)
class GradedDims:
    """dims[k] = dim Hom in cohomological degree 2k, for k = 0..max_degree.

    Entries beyond max_degree are not represented and are *not* implicitly
    zero; the underlying series is infinite.
    """

    dims: tuple[int, ...]
    max_degree: int

    def __post_init__(self):
        if len(self.dims) != self.max_degree + 1:
            raise ValueError("dims must hold one entry per degree 0..max_degree")
        if any(d < 0 for d in self.dims):
            raise ValueError("graded dimensions must be nonnegative")

    def to_json(self) -> dict:
        return {"dims": list(self.dims), "max_k": self.max_degree}


def graded_hom_dims(table: CharTable, chi: str, psi: str, max_k: int) -> GradedDims:
    """Graded Hom dimensions of the pair (chi, psi) through degree 2*max_k.

    Symmetric in chi and psi; the k=0 entry is 1 on the diagonal and 0 off
    it, because degree-0 maps between simples are scalars.
    """
    dims = class_pair_series(table, chi, psi, max_k + 1)
    for k, value in enumerate(dims):
        if value < 0:
            raise ArithmeticError(
                f"negative graded dimension {value} at degree {2 * k}: "
                f"the character table is inconsistent")
    return GradedDims(dims, max_k)


def lusztig_sheaf_endo_dims(table: CharTable, rank: int, max_k: int) -> GradedDims:
    """Graded endomorphisms of the full induced sheaf of the block:
    |W| independent copies of the degree-k monomials in `rank` variables,
    so dims[k] = |W| * C(k + rank - 1, rank - 1)."""
    if rank < 1:
        raise ValueError("rank must be positive")
    dims = tuple(table.group_order * comb(k + rank - 1, rank - 1)
                 for k in range(max_k + 1))
    return GradedDims(dims, max_k)


def series_consistency(table: CharTable, chi: str, psi: str, max_k: int) -> bool:
    """Check the formal identity tying the infinite Hom series to the finite
    coinvariant pairing: the series times prod (1 - u^d_j) must agree with
    coinvariant_pairing(chi, psi) through degree max_k."""
    dims = graded_hom_dims(table, chi, psi, max_k).dims
    product = HalfLaurent({2 * k: v for k, v in enumerate(dims)}) * degrees_product(table)
    pairing = coinvariant_pairing(table, chi, psi)
    return all(product.coefficient(2 * k) == pairing.coefficient(2 * k)
               for k in range(max_k + 1))
