"""Seeded multi-label blocks with a planted factorization.

A block is built from a known P and Lambda that satisfy the solver's
constraints (P unitriangular up to the diagonal monomials t^(-dim/2) and
supported below the closure order, Lambda symmetric and block diagonal by
orbit, both invariant under the duality on labels), and omega = P Lambda P^T
is multiplied out here.  The factorization under those constraints is unique,
so the planted P and Lambda are the exact answer `lsalgo solve` must return.

The arithmetic is a few lines of dict-based Laurent polynomials in t^(1/2),
written against the dataset JSON format only, so this oracle shares no code
with the program it checks.  A polynomial is a dict {doubled exponent: int}.
"""

from __future__ import annotations

import random
from fractions import Fraction

Poly = dict  # {doubled exponent: nonzero int}


def poly_mul(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for e1, v1 in f.items():
        for e2, v2 in g.items():
            e = e1 + e2
            s = out.get(e, 0) + v1 * v2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def poly_add_into(acc: Poly, f: Poly) -> None:
    for e, v in f.items():
        s = acc.get(e, 0) + v
        if s:
            acc[e] = s
        else:
            acc.pop(e, None)


def poly_to_json(f: Poly) -> dict:
    return {str(e): v for e, v in sorted(f.items())}


def _random_poly(rng: random.Random, parity: int, terms: int) -> Poly:
    """`terms` terms with random nonzero coefficients at the doubled
    exponents parity - 2, parity + 2, parity + 6, ...  Exponents follow a
    fixed pattern so that the solver's work per block (operand sizes and
    products) barely depends on the seed; the values do."""
    return {2 * (2 * k - 1) + parity: rng.choice((-3, -2, -1, 1, 2, 3))
            for k in range(terms)}


def _det_at(matrix: list[list[Poly]], s: Fraction) -> Fraction:
    """Determinant of the matrix evaluated at t^(1/2) = s (Gaussian
    elimination over the rationals)."""
    m = [[sum((Fraction(c) * s**e for e, c in f.items()), Fraction(0)) for f in row]
         for row in matrix]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    return det


def plant_block(rng: random.Random, name: str, label_counts: list[int]) -> dict:
    """One block as a dict: `block` is the dataset JSON object, `p` and
    `lambda` the planted matrices in the solver's output JSON form (rows and
    columns in the block's label order)."""
    n_orbits = len(label_counts)
    # distinct dims, a mix of parities, increasing along the closure order
    dims = sorted(rng.sample(range(0, 4 * n_orbits), n_orbits))
    # orbits come in levels of two incomparable orbits, each covering both
    # orbits of the level below; a fixed shape keeps the solver's work per
    # block nearly independent of the seed
    covers = [[c for c in range(2 * (i // 2) - 2, 2 * (i // 2)) if c >= 0]
              for i in range(n_orbits)]
    below: list[set[int]] = []
    for i in range(n_orbits):
        reach: set[int] = set()
        for c in covers[i]:
            reach.add(c)
            reach |= below[c]
        below.append(reach)

    label_ids: list[str] = []
    label_orbit: list[int] = []
    dual: list[int] = []
    members: list[list[int]] = []
    for i in range(n_orbits):
        count = label_counts[i]
        first = len(label_ids)
        idx = list(range(first, first + count))
        pairing = {a: a for a in idx}
        for a, b in zip(idx[0::2], idx[1::2]):
            if rng.random() < 0.6:
                pairing[a], pairing[b] = b, a
        for a in idx:
            label_ids.append(f"o{i}l{a - first}")
            label_orbit.append(i)
            dual.append(pairing[a])
        members.append(idx)

    k = len(label_ids)
    p: list[list[Poly]] = [[{} for _ in range(k)] for _ in range(k)]
    lam: list[list[Poly]] = [[{} for _ in range(k)] for _ in range(k)]

    def set_pair(matrix, a, b, value):
        matrix[a][b] = value
        matrix[dual[a]][dual[b]] = dict(value)

    for i in range(n_orbits):
        for a in members[i]:
            p[a][a] = {-dims[i]: 1}
        while True:
            for x, a in enumerate(members[i]):
                for b in members[i][x:]:
                    value = _random_poly(rng, 0, 1 + (a + b) % 3)
                    set_pair(lam, a, b, value)
                    set_pair(lam, b, a, value)
            block = [[lam[a][b] for b in members[i]] for a in members[i]]
            if _det_at(block, Fraction(3, 2)) != 0:
                break
        for j in range(n_orbits):
            if i in below[j]:
                for a in members[j]:
                    for b in members[i]:
                        set_pair(p, a, b, _random_poly(rng, dims[i] % 2, (a + 2 * b) % 4))

    # omega = (P Lambda) P^T, with Lambda block diagonal by orbit
    pl: list[list[Poly]] = [[{} for _ in range(k)] for _ in range(k)]
    for a in range(k):
        for i in range(n_orbits):
            for c in members[i]:
                if not p[a][c]:
                    continue
                for b in members[i]:
                    if lam[c][b]:
                        poly_add_into(pl[a][b], poly_mul(p[a][c], lam[c][b]))
    omega: list[list[Poly]] = [[{} for _ in range(k)] for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            acc: Poly = {}
            for c in range(k):
                if pl[a][c] and p[b][c]:
                    poly_add_into(acc, poly_mul(pl[a][c], p[b][c]))
            omega[a][b] = acc
            omega[b][a] = acc

    block_json = {
        "name": name,
        "provenance": {"family": "planted", "orbits": n_orbits},
        "orbits": [{"id": f"o{i}", "dim": dims[i], "covers": [f"o{c}" for c in covers[i]]}
                   for i in range(n_orbits)],
        "labels": [{"id": label_ids[a], "orbit": f"o{label_orbit[a]}",
                    "local_system": f"L{a}", "dual": label_ids[dual[a]]}
                   for a in range(k)],
        "omega": {"order": list(label_ids),
                  "entries": [[poly_to_json(f) for f in row] for row in omega]},
    }
    return {
        "block": block_json,
        "p": [[poly_to_json(f) for f in row] for row in p],
        "lambda": [[poly_to_json(f) for f in row] for row in lam],
    }
