"""Brute-force Kostka-Foulkes polynomials via the charge statistic.

This module is deliberately independent of the solver: semistandard tableaux
are enumerated by backtracking as reading words, their charge is found by
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

from .laurent import HalfLaurent
from .weyl import Partition, SizeMismatch


def ssyt_enumerate(shape: Partition, content: Partition) -> list[tuple[int, ...]]:
    """Reading words of all semistandard tableaux of the given shape and
    content: rows weakly increase, columns strictly increase.

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
    out: list[tuple[int, ...]] = []

    def fill(cell: int):
        if cell == n:
            out.append(tuple(sum(reversed(grid), [])))  # rows bottom to top
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


def charge(word: tuple[int, ...]) -> int:
    """Lascoux-Schutzenberger charge of a reading word.

    The content must be a partition (weakly decreasing letter multiplicities);
    otherwise a pass finds no 1 in what is left of the word, and ValueError
    is raised, as it is for a letter below 1.  Each pass extracts one
    standard subword and adds its indices.
    """
    if min(word, default=1) < 1:
        raise ValueError(f"word {word} has a letter below 1")
    rest = list(word)
    total = 0
    while rest:
        pos = _rfind(rest, 1, len(rest) - 1)
        if pos is None:
            raise ValueError(f"content of {word} is not a partition")
        letter, index = 1, 0
        while pos is not None:
            rest[pos] = 0  # picked; no later search looks for 0
            total += index
            letter += 1
            nxt = _rfind(rest, letter, pos - 1)
            if nxt is None:
                index += 1
                nxt = _rfind(rest, letter, len(rest) - 1)
            pos = nxt
        rest = [x for x in rest if x]
    return total


def kostka_foulkes(shape: Partition, content: Partition) -> HalfLaurent:
    """K_{shape,content}(q): sum of q^charge over all semistandard tableaux."""
    coeffs: dict[int, int] = {}
    for word in ssyt_enumerate(shape, content):
        e = 2 * charge(word)
        coeffs[e] = coeffs.get(e, 0) + 1
    return HalfLaurent(coeffs)
