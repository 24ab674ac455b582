"""Character data for symmetric groups and pluggable finite-group tables.

The symmetric group S_n acting on its rank-n permutation representation is
generated here from scratch: conjugacy classes by cycle type, irreducible
character values by the Murnaghan-Nakayama rule, and per-class Molien
determinants det(1 - q*w).  Tables for other finite (relative) Weyl groups
carry exactly the same data and can be supplied as JSON files, so everything
downstream works at the level of characters with no group theory attached.

The coinvariant pairing of two characters chi, psi is the graded multiplicity

    (1/|W|) * sum_c |c| * chi(c) * psi(c) * c_w(q),   c_w = P(q) / det(1 - q*w_c)

where P(q) is the product of (1 - q^d) over the fundamental invariant
degrees; for S_n these are 1..n.  By Chevalley's theorem c_w is the graded
trace of w on the coinvariant algebra, a polynomial for every class, so the
whole computation stays in integer polynomials and integer power series.
P(q) is recovered from the table as the reciprocal of the invariant Molien
series, so no degree list is stored.  Each class sum is divided by |W| once,
coefficient by coefficient; a remainder, or a c_w that fails to divide,
proves the table invalid and raises NonExactDivision.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat, zip_longest
from math import factorial
from operator import mul, sub

from .laurent import (
    DataFormatError, HalfLaurent, NonExactDivision, _digit_width, _pack, _unpack, decode_int,
    decode_str)


class SizeMismatch(ValueError):
    """Two partitions that must partition the same integer do not."""


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if any(type(p) is not int for p in self.parts):
            raise TypeError(f"parts must be ints: {self.parts}")
        if any(p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError(f"parts must weakly decrease: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def conjugate(self) -> Partition:
        parts = self.parts
        return Partition(tuple(sum(1 for p in parts if p > i)
                               for i in range(parts[0]))) if parts else Partition(())

    def n_statistic(self) -> int:
        """sum (i-1) * lambda_i, the minimal charge-complement statistic."""
        return sum(i * p for i, p in enumerate(self.parts))

    def key(self) -> str:
        """Stable string id, parts joined by dots: (2,1,1) -> "2.1.1"."""
        return ".".join(str(p) for p in self.parts) if self.parts else "0"

    def __repr__(self) -> str:
        return f"Partition({self.parts})"


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first, *rest)

    return tuple(Partition(p) for p in gen(n, n))


def _centralizer_order(rho: Partition) -> int:
    # z_rho = prod over part values i of i^m_i * m_i!
    mult: dict[int, int] = {}
    for p in rho:
        mult[p] = mult.get(p, 0) + 1
    z = 1
    for i, m in mult.items():
        z *= i**m * factorial(m)
    return z


def conjugacy_classes(n: int) -> list[tuple[Partition, int]]:
    """Cycle types and class sizes of S_n; sizes are n!/z_rho."""
    if n < 1:
        raise ValueError("n must be at least 1")
    nf = factorial(n)
    return [(rho, nf // _centralizer_order(rho)) for rho in partitions_of(n)]


@lru_cache(maxsize=None)
def _mn(beta: int, rho: tuple[int, ...]) -> int:
    # chi_lam(rho) by Murnaghan-Nakayama, beta being lam's beta-set as a bitmask,
    # bit b for a bead at b on the abacus; a border strip of length k is a bead
    # b moved to an empty b - k, with sign (-1)^(beads passed).  The one-row
    # partition gives the trivial character, the one-column one the sign
    if not rho:
        return 1
    k, rest = rho[0], rho[1:]
    total = 0
    movable = beta & ~(beta << k) >> k << k  # beads at b >= k with b - k empty
    while movable:
        bead = movable & -movable
        movable ^= bead
        low = bead >> k
        value = _mn(beta ^ bead ^ low, rest)
        # bead - 2 * low has the bits strictly between b - k and b
        total += -value if (beta & (bead - (low << 1))).bit_count() & 1 else value
    return total


def _beta_set(lam: Partition) -> int:
    """The beta-set of lam with n = |lam| beads, as the bitmask `_mn` takes;
    with n beads each partition of at most n has one beta-set in the memo."""
    n = lam.n
    parts = lam.parts + (0,) * (n - len(lam))
    return sum(1 << (p + n - 1 - i) for i, p in enumerate(parts))


def perm_molien_det(rho: Partition) -> tuple[int, ...]:
    """det(1 - q*w) for a permutation w of cycle type rho acting on its
    natural rank-n space: the product of (1 - q^length) over cycles, in q."""
    c = [1] + [0] * rho.n
    for length in rho:
        for k in range(rho.n, length - 1, -1):
            c[k] -= c[k - length]
    return tuple(c)


@dataclass(frozen=True)
class ClassData:
    """A class: id, size and det(1 - q*w), dense in q, index k for q^k."""

    id: str
    size: int
    molien_det: tuple[int, ...]


@dataclass(frozen=True)
class IrrData:
    id: str
    values: tuple[int, ...]


@dataclass(frozen=True)
class CharTable:
    """Conjugacy-class and irreducible-character data for one finite group.

    `classes[i].molien_det` is det(1 - q*w) in q for a class representative w
    in the chosen graded representation; `irreducibles[j].values[i]` is the
    j-th character on the i-th class.  Construction raises DataFormatError
    unless there is a class, |W| >= 1, each row has one value per class and
    the determinants have constant term 1, a nonzero last coefficient and one
    length, the rank plus one, with the rank at most MAX_COINVARIANT_DEGREE.
    """

    group_order: int
    classes: tuple[ClassData, ...]
    irreducibles: tuple[IrrData, ...]

    def __post_init__(self):
        k = len(self.classes)
        if not k:
            raise DataFormatError("a character table needs at least one class")
        if self.group_order < 1:
            raise DataFormatError(f"group_order must be positive, got {self.group_order}")
        for irr in self.irreducibles:
            if len(irr.values) != k:
                raise DataFormatError(
                    f"character {irr.id!r} has {len(irr.values)} values for {k} classes")
        for c in self.classes:
            if c.molien_det[:1] != (1,):
                raise DataFormatError(f"Molien determinant {c.molien_det} of class {c.id!r} "
                                      f"is not a polynomial in q with constant term 1")
            if not c.molien_det[-1]:  # det(1 - q*w) has degree r, leading coefficient +-det w
                raise DataFormatError(f"Molien determinant {c.molien_det} of class {c.id!r} "
                                      f"ends in a zero coefficient")
        if len({len(c.molien_det) for c in self.classes}) != 1:
            raise DataFormatError("Molien determinants of inconsistent degree")
        if self.rank() > MAX_COINVARIANT_DEGREE:
            raise DataFormatError(f"rank {self.rank()} is beyond MAX_COINVARIANT_DEGREE")

    def char_ids(self) -> tuple[str, ...]:
        return tuple(irr.id for irr in self.irreducibles)

    @cached_property
    def _coinvariant_memo(self) -> tuple[tuple[int, ...], _Packing]:
        """`_coinvariant_setup(self)`, built on first use and dropped with the table."""
        return _coinvariant_setup(self)

    def character(self, char_id: str) -> IrrData:
        for irr in self.irreducibles:
            if irr.id == char_id:
                return irr
        raise KeyError(f"unknown character id {char_id!r}")

    def rank(self) -> int:
        """Degree of the Molien determinants, i.e. the dimension of the
        graded representation; construction made every class agree."""
        return len(self.classes[0].molien_det) - 1

    def validate(self) -> list[str]:
        """Human-readable failures of the rules construction leaves: class sizes
        that sum to |W|, one character per class, distinct ids, orthogonality."""
        problems: list[str] = []
        if sum(c.size for c in self.classes) != self.group_order:
            problems.append("class sizes do not sum to the group order")
        k = len(self.classes)
        if len(self.irreducibles) != k:
            problems.append(f"{len(self.irreducibles)} characters for {k} classes")
        for kind, ids in (("class", [c.id for c in self.classes]), ("character", self.char_ids())):
            problems += [f"{kind} id {i} appears {ids.count(i)} times"
                         for i in dict.fromkeys(ids) if ids.count(i) > 1]
        for i, chi in enumerate(self.irreducibles):
            weighted = [c.size * x for c, x in zip(self.classes, chi.values)]
            for j, psi in enumerate(self.irreducibles[i:], i):
                dot = sum(map(mul, weighted, psi.values))
                expected = self.group_order if j == i else 0
                if dot != expected:
                    problems.append(f"orthogonality fails for ({chi.id}, {psi.id})")
        return problems

    def to_json(self) -> dict:
        return {
            "group_order": self.group_order,
            "classes": [
                {"id": c.id, "size": c.size,
                 "molien_det": {str(2 * k): v for k, v in enumerate(c.molien_det) if v}}
                for c in self.classes
            ],
            "irreducibles": [
                {"id": irr.id, "values": list(irr.values)} for irr in self.irreducibles
            ],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> CharTable:
        """Decode a table; every number must be a JSON integer and every id a
        JSON string, anything else (bool and float included) raises
        DataFormatError, as does a table that fails the constructor's
        shape rules or a determinant that `_decode_det` refuses."""
        try:
            return cls(
                group_order=decode_int(obj["group_order"], "group_order"),
                classes=tuple(
                    ClassData(decode_str(c["id"], "a class id"),
                              decode_int(c["size"], f"size of class {c['id']!r}"),
                              _decode_det(c["molien_det"], c["id"]))
                    for c in obj["classes"]
                ),
                irreducibles=tuple(map(_decode_row, obj["irreducibles"])),
            )
        except (KeyError, TypeError) as exc:
            raise DataFormatError(f"malformed character table: {exc!r}") from exc


def _decode_det(obj: Mapping, class_id: str) -> tuple[int, ...]:
    """A Molien determinant, JSON keyed by doubled exponents, as dense
    coefficients in q, laid out no further than MAX_COINVARIANT_DEGREE, which
    no table that pairs can exceed.  A term that this leaves out, at an odd,
    negative or larger exponent, raises DataFormatError."""
    f = HalfLaurent.from_json(obj)
    top = min(max(f.support(), default=0), 2 * MAX_COINVARIANT_DEGREE)
    out = tuple(map(f.coefficient, range(0, top + 1, 2)))
    if len(out) - out.count(0) != len(f.items()):
        raise DataFormatError(f"Molien determinant {f} of class {class_id!r} is not a polynomial "
                              f"in q with constant term 1 and degree <= {MAX_COINVARIANT_DEGREE}")
    return out


def _decode_row(obj: Mapping) -> IrrData:
    """One row of a table; its value types are checked in one pass, and a
    per-value message is built only when one of them is not int."""
    char_id = decode_str(obj["id"], "a character id")
    values = tuple(obj["values"])
    if set(map(type, values)) - {int}:
        for v in values:
            decode_int(v, f"value of character {obj['id']!r}")
    return IrrData(char_id, values)


def char_table_sn(n: int, char_ids: Iterable[str] | None = None) -> CharTable:
    """The character table of S_n with rank-n permutation Molien data; given
    `char_ids`, restricted to the characters whose keys are listed there.

    Every class is kept with its size and Molien determinant; only the
    listed rows are evaluated.  Classes and characters are both indexed by
    partitions of n in descending lexicographic order; ids are partition
    keys such as "2.1.1".  A key that is not a partition of n selects
    nothing, so `character` raises KeyError for it.  A proper restriction
    has fewer characters than classes and does not pass `validate()`.
    """
    classes = tuple(
        ClassData(rho.key(), size, perm_molien_det(rho))
        for rho, size in conjugacy_classes(n)
    )
    rhos = partitions_of(n)
    wanted = {lam.key() for lam in rhos} if char_ids is None else set(char_ids)
    cycle_types = [rho.parts for rho in rhos]
    irreducibles = tuple(
        IrrData(lam.key(), tuple(map(_mn, repeat(_beta_set(lam)), cycle_types)))
        for lam in rhos if lam.key() in wanted
    )
    return CharTable(factorial(n), classes, irreducibles)


# -- Molien and coinvariant series ----------------------------------------------
#
# Every series below is in q = t and held as a dense tuple of integer
# coefficients, index k for q^k, as the Molien determinants are once decoded;
# every division by a series is `_quotient_series`.  A sum over classes is
# formed in the integers and divided by |W| once at the end; a remainder
# proves the table invalid.
# The coinvariant characters c_w, which every pairing of a table reuses, are
# also held packed: each class's series as the one integer sum_k c_w[k] *
# 2^(width * k), so a pairing sums one product per class and reads its
# coefficients back as signed width-bit digits.  Packing, reading back and
# the width, in whole 64-bit words, are laurent's `_pack`, `_unpack` and
# `_digit_width`, the one kernel, which the solver's elimination shares.  The
# width bounds every digit by the table's own class sizes and values, so it
# holds whether or not the table is consistent.  Series used once, such as the
# inverse determinants of `graded_hom_dims`, are summed column by column:
# packing them would cost more than it saves.

# Largest coinvariant degree N + r, the length of a quadratic Molien inversion,
# hence the largest rank a table may have; S_12 (`exthom --sn`) needs 78, W(E_8) 128
MAX_COINVARIANT_DEGREE = 256


def _divide_by_order(table: CharTable, acc: Iterable[int]) -> tuple[int, ...]:
    """Each coefficient of acc divided by |W|, in ascending k; the first
    remainder raises NonExactDivision."""
    out = []
    for k, v in enumerate(acc):
        quotient, remainder = divmod(v, table.group_order)
        if remainder:
            raise NonExactDivision(
                f"coefficient {v} of q^{k} is not divisible by |W| = "
                f"{table.group_order}: the character table is inconsistent")
        out.append(quotient)
    return tuple(out)


def _average(table: CharTable, weights, series) -> tuple[int, ...]:
    """(1/|W|) * sum over classes of weights[c] * series[c], coefficientwise,
    with every division certified exact."""
    return _divide_by_order(table, [sum(map(mul, weights, column))
                                    for column in zip_longest(*series, fillvalue=0)])


# packs, width, digits per pack: see `_packing`
_Packing = tuple[tuple[int, ...], int, int]


def _packing(table: CharTable, series: tuple[tuple[int, ...], ...]) -> _Packing:
    """The per-class series packed at one width, with that width and the
    number of digits.  The width bounds every digit of sum_c w_c * series[c]
    for w_c the class sizes or the weights of any pair of the table's
    characters."""
    # |w_c| <= |c| * peak_c^2, with peak_c >= 1 the largest |value| on
    # class c: for the class sizes, and for any pair of rows, each of which
    # has one value per class by construction.  Each bound is at least 1, so
    # the width also holds every digit of the series themselves, as packed
    peaks = [1] * len(table.classes)
    for irr in table.irreducibles:
        peaks = list(map(max, peaks, map(abs, irr.values)))
    weight_bounds = [max(abs(c.size), 1) * peak * peak
                     for c, peak in zip(table.classes, peaks)]
    bound = max((sum(map(mul, weight_bounds, map(abs, column)))
                 for column in zip_longest(*series, fillvalue=0)), default=0)
    width = _digit_width(bound)
    return tuple(_pack(s, width) for s in series), width, max(map(len, series), default=0)


def _packed_average(table: CharTable, weights: Iterable[int],
                    packing: _Packing) -> tuple[int, ...]:
    """`_average(table, weights, series)` for the packed series: the same
    quotients, and the same NonExactDivision at the same q^k."""
    packs, width, n_terms = packing
    return _divide_by_order(table, _unpack(sum(map(mul, weights, packs)), width, n_terms))


def _pair_weights(table: CharTable, chi: str, psi: str) -> list[int]:
    xv = table.character(chi).values
    yv = table.character(psi).values
    return [c.size * x * y for c, x, y in zip(table.classes, xv, yv, strict=True)]


def _quotient_series(g: tuple[int, ...], f: tuple[int, ...], n_terms: int) -> tuple[int, ...]:
    """First n_terms coefficients of g/f for integer series g and f with f[0] = 1."""
    tail = f[1:]
    out: list[int] = []
    for gk in g[:n_terms] + (0,) * (n_terms - len(g)):
        out.append(gk - sum(map(mul, tail, reversed(out))))
    return tuple(out)


def _inverse_dets(table: CharTable, n_terms: int):
    """First n_terms coefficients of 1/det(1 - q*w) for every class, and of
    their invariant average, the Molien series of W.

    The constant term of each determinant is 1, so the inverse is an integer
    power series.  The Molien series must itself be an integer series with
    constant term 1; that certifies the class sizes before any pair is summed.
    """
    out = tuple(_quotient_series((1,), c.molien_det, n_terms) for c in table.classes)
    molien = _average(table, [c.size for c in table.classes], out)
    if molien[0] != 1:
        raise NonExactDivision(
            f"class sizes sum to {molien[0]} * |W|: the character table is inconsistent")
    return out, molien


def graded_hom_dims(table: CharTable, chi: str, psi: str, max_k: int) -> tuple[int, ...]:
    """Graded Hom dimensions between the simples chi and psi of one block:
    entry k, for k = 0..max_k, is the dimension in cohomological degree 2k,
    the coefficient of q^k in the pair's Molien series on the rank-r
    polynomial algebra with generators in degree 2,
    (1/|W|) * sum_c |c| * chi(c) * psi(c) / det(1 - q*w_c).  Odd degrees
    vanish and are never stored; the series is infinite, so degrees above
    2 * max_k are not represented and are *not* implicitly zero.  The class
    sum is an integer power series, divided by |W| coefficient by
    coefficient: a remainder raises NonExactDivision and a negative dimension
    ArithmeticError, as either proves the table inconsistent.  Symmetric in
    chi and psi; the k = 0 entry is 1 on the diagonal and 0 off it.
    """
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    dims = _average(table, _pair_weights(table, chi, psi), _inverse_dets(table, max_k + 1)[0])
    for k, value in enumerate(dims):
        if value < 0:
            raise ArithmeticError(f"negative graded dimension {value} at degree {2 * k}: "
                                  f"the character table is inconsistent")
    return dims


def _coinvariant_setup(table: CharTable) -> tuple[tuple[int, ...], _Packing]:
    """P(q) and the coinvariant characters c_w = P / det(1 - q*w) per class,
    packed; read through `table._coinvariant_memo`, so each table builds it
    once.

    P has degree top = N + r, where r is the rank and N the number of
    reflections (the classes with det = (1-q)^(r-1) * (1+q)), so inverting
    the Molien series to top + 1 terms recovers it.  c_w is P / det to
    top + 1 terms, exact iff its last r terms vanish: c_w * det and P then
    agree below q^(top+1) and both have degree <= top, so they are equal.
    Then sum |c| * c_w == |W| certifies P * Molien == 1 as a power series.
    """
    r = table.rank()
    reflection = (1, 1, *[0] * (r - 1))  # (1 + q) * (1 - q)^(r - 1), a factor at a time
    for _ in range(r - 1):
        reflection = tuple(map(sub, reflection, (0, *reflection)))
    top = r + sum(c.size for c in table.classes if c.molien_det == reflection)
    if top > MAX_COINVARIANT_DEGREE:  # inverting the Molien series is quadratic in top
        raise ValueError(f"coinvariant degree top = {top} is beyond {MAX_COINVARIANT_DEGREE}")
    p = _quotient_series((1,), _inverse_dets(table, top + 1)[1], top + 1)
    series = tuple(_quotient_series(p, c.molien_det, top + 1) for c in table.classes)
    if any(any(c_w[top + 1 - r:]) for c_w in series):
        raise NonExactDivision("P(q) is not divisible by every Molien determinant")
    packing = _packing(table, tuple(c_w[:top + 1 - r] for c_w in series))
    certificate = _packed_average(table, [c.size for c in table.classes], packing)
    if certificate[0] != 1 or any(certificate[1:]):
        raise NonExactDivision(
            "the inverted Molien series is not a polynomial of degree N + r: "
            "the table is not reflection data")
    return p, packing


def degrees_product(table: CharTable) -> HalfLaurent:
    """prod (1 - q^d_j) over the fundamental invariant degrees.

    Computed as the reciprocal of the invariant Molien series
    (1/|W|) sum |c| / det(1 - q*w), truncated at its degree N + r and
    certified exactly.  For S_n this returns (1-q)(1-q^2)...(1-q^n).
    """
    return HalfLaurent({2 * k: v for k, v in enumerate(table._coinvariant_memo[0])})


def coinvariant_pairing(table: CharTable, chi: str, psi: str) -> HalfLaurent:
    """Graded multiplicity of the pair (chi, psi) in the coinvariant algebra:
    the pair's weights averaged against the table's c_w, as one integer dot
    product with the packed c_w.

    Symmetric in chi and psi, has nonnegative integer coefficients, and
    evaluates at q=1 to deg(chi)*deg(psi).  Raises NonExactDivision when the
    table data is not internally consistent, ValueError when N + r is beyond
    MAX_COINVARIANT_DEGREE.
    """
    return HalfLaurent({2 * k: v for k, v in enumerate(_packed_average(
        table, _pair_weights(table, chi, psi), table._coinvariant_memo[1]))})
