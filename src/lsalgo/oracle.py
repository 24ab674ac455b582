"""Brute-force Kostka-Foulkes polynomials via the charge statistic.

This module is deliberately independent of the solver: each semistandard
tableau is built as a chain of horizontal strips, one strip per letter
(Macdonald, ch. I, §5), and taken as its reading word; its charge is found
by standard-subword extraction, and K_{lambda,mu}(q) is the plain generating
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

from bisect import bisect_left
from collections import Counter
from itertools import chain, product

from .laurent import HalfLaurent
from .weyl import Partition, SizeMismatch


def ssyt_enumerate(shape: Partition, content: Partition) -> list[tuple[int, ...]]:
    """Reading words of all semistandard tableaux of the given shape and
    content: rows weakly increase, columns strictly increase.

    Each tableau is a chain of horizontal strips: letter i adds content_i
    cells, row 0 growing to at most shape_0 and row r > 0 to at most shape_r
    and the length row r-1 had before letter i.  Strips that put more cells
    in higher rows come first.  Empty when no filling exists, e.g. when
    shape does not dominate content.
    """
    if shape.n != content.n:
        raise SizeMismatch(f"|{shape.parts}| != |{content.parts}|")
    tableaux: list[list[list[int]]] = [[[] for _ in shape.parts]]
    for letter, count in enumerate(content.parts, 1):
        grown = []
        for rows in tableaux:
            caps = [shape.parts[0], *map(min, shape.parts[1:], map(len, rows))]
            for adds in product(*(range(cap - len(row), -1, -1) for cap, row in zip(caps, rows))):
                if sum(adds) == count:
                    grown.append([row + [letter] * k if k else row for row, k in zip(rows, adds)])
        tableaux = grown
    # rows are capped by the shape and hold n letters in all, so each is full
    return [tuple(chain.from_iterable(reversed(rows))) for rows in tableaux]


def charge(word: tuple[int, ...]) -> int:
    """Lascoux-Schutzenberger charge of a reading word.

    The content must be a partition (weakly decreasing letter multiplicities);
    otherwise a pass finds no 1 in what is left of the word, and ValueError
    is raised, as it is for a letter below 1.  Each pass extracts one
    standard subword and adds its indices.
    """
    if min(word, default=1) < 1:
        raise ValueError(f"word {word} has a letter below 1")
    unpicked: dict[int, list[int]] = {}  # letter -> its unpicked positions, ascending
    for pos, letter in enumerate(word):
        unpicked.setdefault(letter, []).append(pos)
    total = 0
    while unpicked:
        if 1 not in unpicked:
            raise ValueError(f"content of {word} is not a partition")
        pos, letter, index = len(word), 1, 0
        while letter in unpicked:
            places = unpicked[letter]
            i = bisect_left(places, pos)
            if not i:  # nothing left of pos: wrap to the rightmost
                index += 1
                i = len(places)
            pos = places.pop(i - 1)
            if not places:
                del unpicked[letter]
            total += index
            letter += 1
    return total


def kostka_foulkes(shape: Partition, content: Partition) -> HalfLaurent:
    """K_{shape,content}(q): sum of q^charge over all semistandard tableaux."""
    return HalfLaurent(Counter(2 * charge(w) for w in ssyt_enumerate(shape, content)))
