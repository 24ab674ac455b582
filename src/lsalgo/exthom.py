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

from .weyl import CharTable, class_pair_series


def graded_hom_dims(table: CharTable, chi: str, psi: str, max_k: int) -> tuple[int, ...]:
    """Graded Hom dimensions of the pair (chi, psi): entry k, for k = 0..max_k,
    is the dimension of Hom in cohomological degree 2k.  Higher degrees are
    not represented and are *not* implicitly zero; the series is infinite.

    Symmetric in chi and psi; the k=0 entry is 1 on the diagonal and 0 off
    it, because degree-0 maps between simples are scalars.
    """
    dims = class_pair_series(table, chi, psi, max_k + 1)
    for k, value in enumerate(dims):
        if value < 0:
            raise ArithmeticError(
                f"negative graded dimension {value} at degree {2 * k}: "
                f"the character table is inconsistent")
    return dims
