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

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import mul
from typing import Iterable, Mapping

from .laurent import (
    ONE,
    T,
    DataFormatError,
    HalfLaurent,
    NonExactDivision,
    decode_int,
    decode_str,
    exact_div,
    t_power,
)


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

    @classmethod
    def from_key(cls, key: str) -> Partition:
        """The partition whose `key()` is exactly `key`, else ValueError."""
        lam = cls(()) if key == "0" else cls(tuple(int(p) for p in key.split(".")))
        if lam.key() != key:
            raise ValueError(f"{key!r} is not the key of a partition")
        return lam

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
def _mn(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    if not rho:
        return 1
    k, rest = rho[0], rho[1:]
    # beta-set of lam: strictly decreasing first-column hook lengths
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        low = b - k
        if low < 0 or low in beta_set:
            continue
        # removing the strip: replace b by b-k; leg length counts entries
        # of the beta-set strictly between them
        leg = sum(1 for x in beta if low < x < b)
        new_beta = sorted((x if x != b else low for x in beta), reverse=True)
        new_lam = tuple(x - (m - 1 - i) for i, x in enumerate(new_beta))
        new_lam = tuple(p for p in new_lam if p > 0)
        total += (-1) ** leg * _mn(new_lam, rest)
    return total


def mn_character(lam: Partition, rho: Partition) -> int:
    """Murnaghan-Nakayama evaluation of the character chi_lam on cycle type rho.

    Recursively strips border strips of length rho_1 from lam, with sign
    (-1)^(leg length).  The single-row partition gives the trivial character;
    the single-column partition gives the sign character.
    """
    if lam.n != rho.n:
        raise SizeMismatch(f"|{lam.parts}| != |{rho.parts}|")
    return _mn(lam.parts, rho.parts)


def perm_molien_det(rho: Partition) -> HalfLaurent:
    """det(1 - q*w) for a permutation w of cycle type rho acting on its
    natural rank-n space: the product of (1 - q^length) over cycles."""
    out = ONE
    for length in rho:
        out = out * (ONE - t_power(length))
    return out


@dataclass(frozen=True)
class ClassData:
    id: str
    size: int
    molien_det: HalfLaurent


@dataclass(frozen=True)
class IrrData:
    id: str
    values: tuple[int, ...]


@dataclass(frozen=True)
class CharTable:
    """Conjugacy-class and irreducible-character data for one finite group.

    `classes[i].molien_det` is det(1 - q*w) for a class representative w in
    the chosen graded representation; `irreducibles[j].values[i]` is the
    j-th character on the i-th class.
    """

    group_order: int
    classes: tuple[ClassData, ...]
    irreducibles: tuple[IrrData, ...]

    def char_ids(self) -> tuple[str, ...]:
        return tuple(irr.id for irr in self.irreducibles)

    def character(self, char_id: str) -> IrrData:
        for irr in self.irreducibles:
            if irr.id == char_id:
                return irr
        raise KeyError(f"unknown character id {char_id!r}")

    def rank(self) -> int:
        """Degree of the Molien determinants, i.e. the dimension of the
        graded representation (all classes must agree)."""
        degrees = {c.molien_det.degree() // 2 for c in self.classes}
        if len(degrees) != 1:
            raise ValueError("Molien determinants of inconsistent degree")
        return degrees.pop()

    def validate(self) -> list[str]:
        """Human-readable invariant failures; empty when the table is sound."""
        problems: list[str] = []
        if sum(c.size for c in self.classes) != self.group_order:
            problems.append("class sizes do not sum to the group order")
        for c in self.classes:
            if c.molien_det.coefficient(0) != 1:
                problems.append(f"Molien determinant of class {c.id} has constant term != 1")
        try:
            self.rank()
        except ValueError:
            problems.append("Molien determinants have inconsistent degrees")
        k = len(self.classes)
        if len(self.irreducibles) != k:
            problems.append(f"{len(self.irreducibles)} characters for {k} classes")
        for i, chi in enumerate(self.irreducibles):
            if len(chi.values) != k:
                problems.append(f"character {chi.id} has {len(chi.values)} values for {k} classes")
                continue
            weighted = [c.size * x for c, x in zip(self.classes, chi.values)]
            for psi in self.irreducibles[i:]:
                dot = sum(map(mul, weighted, psi.values))
                expected = self.group_order if chi.id == psi.id else 0
                if dot != expected:
                    problems.append(f"orthogonality fails for ({chi.id}, {psi.id})")
        return problems

    def to_json(self) -> dict:
        return {
            "group_order": self.group_order,
            "classes": [
                {"id": c.id, "size": c.size, "molien_det": c.molien_det.to_json()}
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
        DataFormatError, as do a table without classes and a group order
        below 1."""
        try:
            table = cls(
                group_order=decode_int(obj["group_order"], "group_order"),
                classes=tuple(
                    ClassData(decode_str(c["id"], "a class id"),
                              decode_int(c["size"], f"size of class {c['id']!r}"),
                              HalfLaurent.from_json(c["molien_det"]))
                    for c in obj["classes"]
                ),
                irreducibles=tuple(
                    IrrData(decode_str(i["id"], "a character id"), tuple(
                        decode_int(v, f"value of character {i['id']!r}") for v in i["values"]))
                    for i in obj["irreducibles"]
                ),
            )
        except (KeyError, TypeError) as exc:
            raise DataFormatError(f"malformed character table: {exc!r}") from exc
        if not table.classes:
            raise DataFormatError("a character table needs at least one class")
        if table.group_order < 1:
            raise DataFormatError(f"group_order must be positive, got {table.group_order}")
        for irr in table.irreducibles:
            if len(irr.values) != len(table.classes):
                raise DataFormatError(f"character {irr.id!r} has {len(irr.values)} "
                                      f"values for {len(table.classes)} classes")
        return table


def char_table_sn_rows(n: int, char_ids: Iterable[str]) -> CharTable:
    """The character table of S_n with rank-n permutation Molien data,
    restricted to the characters whose keys are in `char_ids`.

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
    wanted = set(char_ids)
    rhos = partitions_of(n)
    irreducibles = tuple(
        IrrData(lam.key(), tuple(mn_character(lam, rho) for rho in rhos))
        for lam in rhos if lam.key() in wanted
    )
    return CharTable(factorial(n), classes, irreducibles)


@lru_cache(maxsize=None)
def char_table_sn(n: int) -> CharTable:
    """The full character table of S_n: `char_table_sn_rows` on every key."""
    return char_table_sn_rows(n, (lam.key() for lam in partitions_of(n)))


# -- Molien and coinvariant series ----------------------------------------------
#
# Every series below is in q = t and held as a dense tuple of integer
# coefficients, index k for q^k.  A sum over classes is formed in the integers
# and divided by |W| once at the end; a remainder proves the table invalid.


def _q_coefficients(f: HalfLaurent) -> tuple[int, ...]:
    """Dense coefficients of a nonzero polynomial in q = t, index k for q^k."""
    out = [0] * (f.degree() // 2 + 1)
    for e, v in f.items():
        out[e // 2] = v
    return tuple(out)


def _molien_det_q(c: ClassData) -> tuple[int, ...]:
    """det(1 - q*w) of one class as dense coefficients in q."""
    f = c.molien_det
    if (f.is_zero() or f.coefficient(0) != 1
            or any(e % 2 or e < 0 for e in f.support())):
        raise NonExactDivision(
            f"Molien determinant {f} of class {c.id} is not a polynomial in q "
            f"with constant term 1, so 1/det(1 - q*w) is not an integer series")
    return _q_coefficients(f)


def _average(table: CharTable, weights, series) -> tuple[int, ...]:
    """(1/|W|) * sum over classes of weights[c] * series[c], coefficientwise,
    with every division certified exact."""
    acc = [0] * max(map(len, series))
    for w, s in zip(weights, series):
        if w:
            for k, v in enumerate(s):
                acc[k] += w * v
    out = []
    for k, v in enumerate(acc):
        quotient, remainder = divmod(v, table.group_order)
        if remainder:
            raise NonExactDivision(
                f"coefficient {v} of q^{k} is not divisible by |W| = "
                f"{table.group_order}: the character table is inconsistent")
        out.append(quotient)
    return tuple(out)


def _pair_weights(table: CharTable, chi: str, psi: str) -> list[int]:
    xv = table.character(chi).values
    yv = table.character(psi).values
    return [c.size * x * y for c, x, y in zip(table.classes, xv, yv, strict=True)]


def _inverse_series(f: tuple[int, ...], n_terms: int) -> tuple[int, ...]:
    """First n_terms coefficients of 1/f for an integer series f with f[0] = 1."""
    terms = [(j, v) for j, v in enumerate(f) if j and v]
    inv = [1]
    for k in range(1, n_terms):
        inv.append(-sum(v * inv[k - j] for j, v in terms if j <= k))
    return tuple(inv)


@lru_cache(maxsize=32)
def _inverse_dets(table: CharTable, n_terms: int):
    """First n_terms coefficients of 1/det(1 - q*w) for every class, and of
    their invariant average, the Molien series of W.

    The constant term of each determinant is 1, so the inverse is an integer
    power series.  The Molien series must itself be an integer series with
    constant term 1; that certifies the class sizes before any pair is
    summed.
    """
    out = [_inverse_series(_molien_det_q(c), n_terms) for c in table.classes]
    molien = _average(table, [c.size for c in table.classes], out)
    if molien[0] != 1:
        raise NonExactDivision(
            f"class sizes sum to {molien[0]} * |W|: the character table is inconsistent")
    return tuple(out), molien


def class_pair_series(table: CharTable, chi: str, psi: str, n_terms: int) -> tuple[int, ...]:
    """First n_terms coefficients of (1/|W|) * sum_c |c| * chi * psi / det(1 - q*w).

    This is the graded multiplicity series of the pair in the full symmetric
    algebra; index k is the coefficient of q^k.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    return _average(table, _pair_weights(table, chi, psi), _inverse_dets(table, n_terms)[0])


@lru_cache(maxsize=None)
def _coinvariant_setup(table: CharTable) -> tuple[HalfLaurent, tuple[tuple[int, ...], ...]]:
    """P(q) and the coinvariant characters c_w = P / det(1 - q*w) per class.

    P has degree N + r, where r is the rank and N the number of reflections
    (the classes with det = (1-q)^(r-1) * (1+q)), so inverting the Molien
    series to that degree recovers it.  Each c_w must divide exactly, and
    sum |c| * c_w == |W| certifies P * Molien == 1 as a power series.
    """
    for c in table.classes:
        _molien_det_q(c)  # reject a malformed determinant before reading degrees
    r = table.rank()
    reflection = (ONE - T) ** (r - 1) * (ONE + T)
    top = r + sum(c.size for c in table.classes if c.molien_det == reflection)
    p = _inverse_series(_inverse_dets(table, top + 1)[1], top + 1)
    product = HalfLaurent({2 * k: v for k, v in enumerate(p)})
    graded = tuple(_q_coefficients(exact_div(product, c.molien_det))
                   for c in table.classes)
    certificate = _average(table, [c.size for c in table.classes], graded)
    if certificate[0] != 1 or any(certificate[1:]):
        raise NonExactDivision(
            "the inverted Molien series is not a polynomial of degree N + r: "
            "the table is not reflection data")
    return product, graded


def degrees_product(table: CharTable) -> HalfLaurent:
    """prod (1 - q^d_j) over the fundamental invariant degrees.

    Computed as the reciprocal of the invariant Molien series
    (1/|W|) sum |c| / det(1 - q*w), truncated at its degree N + r and
    certified exactly.  For S_n this returns (1-q)(1-q^2)...(1-q^n).
    """
    return _coinvariant_setup(table)[0]


def coinvariant_pairing(table: CharTable, chi: str, psi: str) -> HalfLaurent:
    """Graded multiplicity of the pair (chi, psi) in the coinvariant algebra.

    Symmetric in chi and psi, has nonnegative integer coefficients, and
    evaluates at q=1 to deg(chi)*deg(psi).  Raises NonExactDivision when the
    table data is not internally consistent.
    """
    return coinvariant_pairings(table, [(chi, psi)])[0]


def coinvariant_pairings(table: CharTable, pairs) -> list[HalfLaurent]:
    """`coinvariant_pairing` of each (chi, psi) in `pairs`, in order.

    The table's setup is looked up once for all pairs: the cache key is the
    whole table, so each lookup hashes every class and character.
    """
    graded = _coinvariant_setup(table)[1]
    return [HalfLaurent({2 * k: v for k, v in enumerate(
                _average(table, _pair_weights(table, chi, psi), graded))})
            for chi, psi in pairs]
