"""Brute-force Kostka-Foulkes polynomials via the charge statistic.

This module is deliberately independent of the solver: semistandard tableaux
are enumerated by backtracking, charge is computed on reading words by
standard-subword extraction, and K_{lambda,mu}(q) is the plain generating
function sum q^charge.  It serves as external ground truth for the type-A
Springer block and shares no code path with the factorization algorithm.

Charge convention: the reading word lists rows bottom to top, each left to
right.  Standard subwords are extracted scanning right to left (the first 1
met, then cyclically leftward the first 2, and so on).  In each subword
the letter 1 has index 0 and the index of r+1 is that of r, plus one
exactly when the leftward search for r+1 wrapped; charge is the sum of
indices over all extracted subwords.  With this convention the row word
1 2 ... n has charge n(n-1)/2 and K_{lambda,lambda} = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import HalfLaurent
from .weyl import Partition, SizeMismatch


@dataclass(frozen=True)
class Tableau:
    """A semistandard filling: rows weakly increase, columns strictly increase."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
                raise ValueError(f"row not weakly increasing: {row}")
        for upper, lower in zip(self.rows, self.rows[1:]):
            if len(lower) > len(upper):
                raise ValueError("row lengths must weakly decrease")
            if any(upper[j] >= lower[j] for j in range(len(lower))):
                raise ValueError("columns must strictly increase")

    def reading_word(self) -> tuple[int, ...]:
        """Rows bottom to top, each left to right."""
        word: list[int] = []
        for row in reversed(self.rows):
            word.extend(row)
        return tuple(word)

    def __repr__(self) -> str:
        return "Tableau(" + ", ".join(str(list(r)) for r in self.rows) + ")"


def ssyt_enumerate(shape: Partition, content: Partition) -> list[Tableau]:
    """All semistandard tableaux of the given shape and content.

    Cells are filled in row-major order with the smallest feasible letter
    first, so the output order is deterministic (lexicographic in the row
    reading).  Empty when no filling exists, e.g. when shape does not
    dominate content.
    """
    if shape.n != content.n:
        raise SizeMismatch(f"|{shape.parts}| != |{content.parts}|")
    rows = shape.parts
    n = shape.n
    positions = [(i, j) for i, r in enumerate(rows) for j in range(r)]
    counts = list(content.parts)
    m = len(counts)
    grid = [[0] * r for r in rows]
    out: list[Tableau] = []

    def fill(cell: int):
        if cell == n:
            out.append(Tableau(tuple(tuple(r) for r in grid)))
            return
        i, j = positions[cell]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        for v in range(lo, m + 1):
            if counts[v - 1] == 0:
                continue
            counts[v - 1] -= 1
            grid[i][j] = v
            fill(cell + 1)
            counts[v - 1] += 1

    fill(0)
    return out


def _rfind(word: list[int], letter: int, start: int) -> int | None:
    for p in range(start, -1, -1):
        if word[p] == letter:
            return p
    return None


def charge(t: Tableau) -> int:
    """Lascoux-Schutzenberger charge of the tableau's reading word.

    The content must be a partition (weakly decreasing letter multiplicities);
    otherwise a pass finds no 1 in what is left of the word, and ValueError
    is raised.  Each pass extracts one standard subword and adds its indices.
    """
    word = list(t.reading_word())
    total = 0
    while word:
        pos = _rfind(word, 1, len(word) - 1)
        if pos is None:
            raise ValueError(f"content of {t!r} is not a partition")
        letter, index = 1, 0
        while pos is not None:
            word[pos] = 0  # picked; no later search looks for 0
            total += index
            letter += 1
            nxt = _rfind(word, letter, pos - 1)
            if nxt is None:
                index += 1
                nxt = _rfind(word, letter, len(word) - 1)
            pos = nxt
        word = [x for x in word if x]
    return total


def kostka_foulkes(shape: Partition, content: Partition) -> HalfLaurent:
    """K_{shape,content}(q): sum of q^charge over all semistandard tableaux."""
    coeffs: dict[int, int] = {}
    for t in ssyt_enumerate(shape, content):
        e = 2 * charge(t)
        coeffs[e] = coeffs.get(e, 0) + 1
    return HalfLaurent(coeffs)
