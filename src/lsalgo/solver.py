"""The Lusztig-Shoji algorithm: factor omega = P * Lambda * P^T exactly.

Unknowns are constrained as follows.  P is lower triangular with respect to
the closure order of orbits: the entry p[chi][psi] vanishes unless the orbit
of psi lies strictly below the orbit of chi or chi = psi, and the diagonal
entry is the monomial t^(-dim/2) for the orbit dimension.  Lambda is
supported on pairs of labels sharing an orbit and is symmetric.  Under these
constraints the factorization has a unique solution, which this module
computes as a block LDL^T elimination along a linear extension of the
closure order, smallest orbits first.  The elimination reads the residual
r, omega minus the contributions of the orbits processed so far, and forms
each entry of r only when a stage reads it (left-looking, as in Golub and
Van Loan, Matrix Computations, section 4.2).  Row i keeps rhs_i, the
right-hand sides p[i] * Lambda of the orbits it was solved over, flattened,
and their columns; the orbits of processed rows contribute p[i] * Lambda *
p[j]^T to (i, j), nothing where row i or row j was not solved, so

  r[i][j] = omega[i][j] - sum over those columns c of rhs_i[c] * p[j][c],

one `dot` and at most one subtraction.  For the current orbit O, only the
rows of orbits later in the extension are live:

  * stage (i): the Lambda block L of O is forced, lambda[i][j] =
    t^dim(O) * r[i][j], formed for j >= i and mirrored, as both rows were
    solved over the same orbits, those below O; one fraction-free
    Gauss-Jordan elimination of [L | I] gives d = +-det(L) and E with
    E * L = d * I;
  * stage (ii): for each live label i on an orbit strictly above O, the row
    of new p entries solves sum_k p[i][k]*lambda[k][phi] = t^(dim(O)/2) *
    r[i][phi] as that right-hand side times E, divided by d, and the
    right-hand side joins rhs_i;
  * stage (iii): for live labels whose orbit is not above O, r[i][phi] must
    vanish identically on O.

Rows on O and on orbits processed before it are not read at O.  Nor are
they checked in stage (iii): for i on an earlier orbit Q and j on O, the
entry at (j, i) was read when Q was processed and row j was live.  Either j
was not above Q and r[j][i] was checked to be zero, or row j was solved over
Q, and from then on r[j][i] also subtracts rhs_j * p[i]^T over the columns
of Q, where p[i] holds only its diagonal entry t^(-dim(Q)/2), which takes
away t^(dim(Q)/2) * r[j][i] * t^(-dim(Q)/2) and leaves zero.  So no skipped
check could fail, and as rows are scanned in label order, the first error
is raised at the same row and orbit as if every row were visited.  Every
sum of products in these stages, and in the elimination, is one `dot`.

All divisions are certified exact in Z[t^(1/2), t^(-1/2)]; the elimination is
fraction-free (Bareiss).  A zero determinant means omega is not a block.
Any failure names the inconsistency instead of producing wrong numbers.
As the solution is unique, it does not depend on the linear extension,
which `linear_extension` from `blockdata` makes: ascending (dimension, id)
by default, or drawn at random from a seed.  The returned matrices are
always indexed by the block's own label order.

`solve` validates the block with `validate_block`, builds the closure order
once with `closure_below`, and returns the first run of `_runs` that passes
`_check_invariants`, so a block is validated before solving, always, and a
result is checked before it is returned, always: p must be invariant
under duality, Lambda symmetric, and P * Lambda * P^T must equal omega
exactly.  The check compares only the upper triangle j >= i of that product
with omega's: validation rejects an asymmetric omega, and with Lambda symmetric,
(P Lambda P^T)^T = P Lambda^T P^T = P Lambda P^T, so two symmetric matrices
that agree on j >= i are equal.  It forms no polynomial product: both sides
are evaluated exactly under the ring homomorphism t^(1/2) -> x = 2^B, each
entry held as x^lo times an int, lo its least doubled exponent.  Write
|f|_1 for the sum of the absolute coefficients of f, and let

  C = max |coefficient of omega| + max |lambda entry|_1 * (max_i sum_m |p[i][m]|_1)^2.

As |f * g|_1 <= |f|_1 * |g|_1, every coefficient of an entry of
P * Lambda * P^T - omega is at most C in absolute value, and B is one more
than the bit length of C, so x > C + 1.  By Cauchy's bound a nonzero integer
polynomial whose coefficients are that small has no root of absolute value
C + 1 or more, so an entry of the difference that vanishes at x is the zero
Laurent polynomial: equal values prove equal entries, and the check is a
certificate, not a probabilistic test.  It shares no code with either
arithmetic of the elimination, so a fault there cannot cancel in the check.
The evaluation reads the entries the result actually holds, not the
support the closure order allows, so a stray entry anywhere in p or
Lambda still enters it and fails the check.  The check then requires the
constraints above of every entry: p zero off the closure order with
diagonal t^(-dim/2), Lambda zero off the orbit blocks.  A result that
passes is a constrained factorization of omega, so by uniqueness it is the
answer, whatever the elimination did (Lusztig, Character sheaves V, 1986,
section 24; Shoji 1987), if every Lambda orbit block is nonsingular.  The
check does not test that premise; stage (i) proves it for every checked run,
as a zero determinant raises SingularLambdaBlock.  So a result equal to one
that passed is the answer as well: `verify` validates once, reads `_runs`
alone for its seeded re-solves and compares each with a checked result.
`reconstruct` forms the full product as polynomials, one `dot` per entry.

The stages are written once, over two arithmetics, and `_runs` yields their
runs lazily, packed first: an entry f is (lo, N), f = t^(lo/2) * N at x = t =
2^PACK_WIDTH, lo a doubled exponent; omega's entries are packed as signed
64-bit digits.  The exact run runs alone if omega has an odd exponent, which no
geometric block has, or spans eight packed digits a term or more, as a digit
takes a word and a HalfLaurent term about eight.  Else the parity of each lo
follows from its indices alone, whatever the digits hold: column m of P has the
parity of dim O_m, and residuals, Lambda, E and d are even, so no sum mixes
parities.  A product adds the offsets and multiplies the ints; a sum shifts to
the least lo and moves N's zero low digits into lo, a zero sum being None; a
monomial shift changes lo only; a division is `divmod`, a remainder meaning it
is not exact.  Evaluation at x is a ring homomorphism, so each N is exact
however large the coefficients grow in between.  Only the final unpacking,
which takes a spare digit and never raises, assumes every |coefficient| < 2^63,
so a packed result is trusted once certified: in `solve` by the check above, in
`verify` by equality with a checked result.  The run over HalfLaurent, which
raises the located error, comes next, so it is made only where it decides: a
packed run that stops (an omega coefficient outside [-2^63, 2^63), a zero pivot
or divisor, a remainder, a nonzero residual in stage (iii)), a result the check
rejects and a seeded result unequal to the checked one.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import count, repeat
from operator import itemgetter

from .blockdata import (
    BlockData, Violation, _decode_ids, _decode_matrix, closure_below, linear_extension,
    validate_block)
from .laurent import (
    ONE, PACK_WIDTH, ZERO, DataFormatError, HalfLaurent, NonExactDivision, _pack, _raw,
    _unpack, decode_str, dot, exact_div, t_half_power)

Matrix = tuple[tuple[HalfLaurent, ...], ...]


class SolverError(Exception):
    """Base class for inconsistencies detected while solving."""


class InvalidBlock(SolverError):
    """The block failed validation; solving was not attempted."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


class SingularLambdaBlock(SolverError):
    """A Lambda block has determinant zero: omega is not the pairing of any
    block, since the local systems on each orbit must stay independent."""


class SupportViolation(SolverError):
    """omega has a nonzero entry where the support constraints force zero."""


class DualSymmetryViolation(SolverError):
    """The solved p is not invariant under the duality involution."""


class ShapeMismatch(SolverError):
    """Result and block shapes disagree."""


@dataclass(frozen=True)
class SolveResult:
    """The factorization of one block, indexed by the block's label order."""

    block: str
    labels: tuple[str, ...]
    p: Matrix
    lam: Matrix
    p_dual: Matrix

    def entry(self, matrix: Matrix, row: str, col: str) -> HalfLaurent:
        return matrix[self.labels.index(row)][self.labels.index(col)]

    def p_entry(self, row: str, col: str) -> HalfLaurent:
        return self.entry(self.p, row, col)

    def lam_entry(self, row: str, col: str) -> HalfLaurent:
        return self.entry(self.lam, row, col)

    def to_json(self) -> dict:
        return {
            "block": self.block,
            "order": list(self.labels),
            "p": [[v.to_json() for v in row] for row in self.p],
            "lambda": [[v.to_json() for v in row] for row in self.lam],
            "p_dual": [[v.to_json() for v in row] for row in self.p_dual],
        }

    @classmethod
    def from_json(cls, obj) -> SolveResult:
        """Decode one result as `to_json` writes it, else DataFormatError."""
        try:
            block = decode_str(obj["block"], "a result block")
            labels = _decode_ids(obj["order"], "result order")
            p, lam, p_dual = (_decode_matrix(obj[key], len(labels), f"result {block!r}: {key}")
                              for key in ("p", "lambda", "p_dual"))
        except (KeyError, TypeError) as exc:
            raise DataFormatError(f"not a solve result file: missing {exc}") from exc
        if len(set(labels)) != len(labels):
            raise DataFormatError(f"result {block!r}: order repeats a label id")
        return cls(block, labels, p, lam, p_dual)


_Arithmetic = namedtuple("_Arithmetic", "zero one of out dot sub div shift")
_EXACT = _Arithmetic(ZERO, ONE, lambda f: f, lambda f: f, dot, HalfLaurent.__sub__, exact_div,
                     HalfLaurent.shift)


def _eliminate(matrix: list[list], ar: _Arithmetic = _EXACT):
    """One fraction-free Gauss-Jordan elimination of [A | I] for a square A:
    (d, E) with d = +-det(A), the sign that of the row swaps, and
    E * A = d * I, or (zero, None) if A is singular.  Each entry is a
    minor of [A | I], so every division by the previous pivot is exact
    (Sylvester's identity).  Columns left of the pivot are never read again,
    so they are not updated."""
    n = len(matrix)
    dot, div, zero = ar.dot, ar.div, ar.zero
    rows = [list(row) + [ar.one if j == i else zero for j in range(n)]
            for i, row in enumerate(matrix)]
    prev = ar.one
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return zero, None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        pivot_row = rows[k]
        for i, row in enumerate(rows):
            if i != k:
                pair = (pivot_row[k], ar.sub(zero, row[k]))
                for j in range(k + 1, 2 * n):
                    row[j] = div(dot(pair, (row[j], pivot_row[j])), prev)
        prev = pivot_row[k]
    return prev, [row[n:] for row in rows]


def _packed_div(f, g):
    q, r = divmod(f[1], g[1]) if f else (None, 0)
    if r:
        raise NonExactDivision("a packed quotient leaves a remainder")
    return f and (f[0] - g[0], q)


def _packed(block: BlockData) -> _Arithmetic | None:
    """The packed arithmetic of `block` at x = t, or None if omega has an odd
    exponent or is sparse, as the module docstring sets out."""
    keys = [f._c.keys() for row in block.omega for f in row if f]
    exponents = set().union(*keys)
    if any(e % 2 for e in exponents) or (
            keys and max(exponents) - min(exponents) >= 16 * sum(map(len, keys))):
        return None

    def total(lo: int, terms):  # the sum of c * t^(e/2) over the pairs (e, c), e >= lo
        n = 0
        for e, c in terms:
            n += c << PACK_WIDTH * ((e - lo) >> 1)
        k = ((n & -n).bit_length() - 1) // PACK_WIDTH  # n's zero low digits move into lo
        return (lo + 2 * k, n >> PACK_WIDTH * k) if n else None

    def dot(xs, ys):  # products summed per offset, then one shift per offset
        terms: dict[int, int] = {}
        for x, y in zip(xs, ys):
            if x and y:
                e = x[0] + y[0]
                terms[e] = terms.get(e, 0) + x[1] * y[1]
        return total(min(terms, default=0), terms.items())

    def sub(f, g):
        if not (f and g):
            return f if g is None else (g[0], -g[1])
        return total(min(f[0], g[0]), (f, (g[0], -g[1])))

    def of(f: HalfLaurent):  # omega's coefficients as dense digits, lowest first
        c = f._c
        return (min(c), _pack(list(map(c.get, range(min(c), max(c) + 1, 2), repeat(0))),
                              PACK_WIDTH)) if c else None

    def out(v) -> HalfLaurent:  # with a spare digit, which never raises
        return _raw(dict(filter(itemgetter(1), zip(count(v[0], 2), _unpack(
            v[1], PACK_WIDTH, v[1].bit_length() // PACK_WIDTH + 2))))) if v else ZERO

    return _Arithmetic(None, (0, 1), of, out, dot, sub, _packed_div,
                       lambda v, k: v and (v[0] + k, v[1]))


def solve(block: BlockData, *, order_seed: int | None = None) -> SolveResult:
    """Validate one block, run the factorization on it and check the result.

    With `order_seed` the linear extension is drawn at random from the given
    seed; the result is identical either way.
    """
    violations = validate_block(block)
    if violations:
        raise InvalidBlock(violations)
    below = closure_below(block)
    duals = _duals(block)
    for p, lam in _runs(block, below, order_seed):
        result = SolveResult(block.name, block.label_ids(), p, lam, _dual_stalks(p, *duals))
        try:
            _check_invariants(result, block, below)
            return result
        except SolverError as exc:
            rejection = exc
    raise rejection


def _runs(block: BlockData, below: dict[str, frozenset[str]], order_seed: int | None):
    """The unchecked (p, lam) of each elimination of a validated `block`, whose
    closure order is `below`, along the extension drawn from `order_seed`: the
    packed run's, unless omega is odd or sparse or the run stops, then the exact run's."""
    packed = _packed(block)
    if packed is not None:
        try:
            run = _stages(block, below, order_seed, packed)
        except (SolverError, ArithmeticError):
            pass
        else:
            yield run
    yield _stages(block, below, order_seed, _EXACT)


def _stages(block: BlockData, below: dict[str, frozenset[str]],
            order_seed: int | None, ar: _Arithmetic) -> tuple[Matrix, Matrix]:
    # the stages (i)-(iii) of the module docstring over `ar`, whose zero alone is falsy
    of, dot, sub, div, shift = ar.of, ar.dot, ar.sub, ar.div, ar.shift
    labels = block.label_ids()
    k = len(labels)
    dim_of = {o.id: o.dim for o in block.orbits}
    on_orbit: dict[str, list[int]] = {o.id: [] for o in block.orbits}
    for i, lb in enumerate(block.labels):
        on_orbit[lb.orbit].append(i)
    extension = linear_extension(block, order_seed)
    rank = {orbit_id: pos for pos, orbit_id in enumerate(extension)}
    row_orbit = [lb.orbit for lb in block.labels]

    p = [[ar.zero] * k for _ in range(k)]
    lam = [[ar.zero] * k for _ in range(k)]
    # per row, the right-hand sides p[i] * Lambda of the orbits it was
    # solved over, flattened, and the columns they sit in
    rhs_of: list[list] = [[] for _ in range(k)]
    cols_of: list[list[int]] = [[] for _ in range(k)]

    def residual(i: int, j: int):
        # omega minus the contributions of the processed orbits, at (i, j),
        # over the columns where p[j] is nonzero; each (i, j) is read once
        pj = p[j]
        return sub(of(block.omega[i][j]), dot(rhs_of[i], [pj[c] for c in cols_of[i]]))

    live = range(k)

    for pos, orbit_id in enumerate(extension):
        members = on_orbit[orbit_id]
        dim = dim_of[orbit_id]
        live = [i for i in live if rank[row_orbit[i]] > pos]

        # (i) the Lambda block of this orbit is forced; one elimination of
        #     [Lambda_O | I] gives d and E with E * Lambda_O = d * I
        for a, i in enumerate(members):
            p[i][i] = shift(ar.one, -dim)
            for j in members[a:]:
                lam[i][j] = lam[j][i] = shift(residual(i, j), 2 * dim)
        d, e = _eliminate([[lam[i][j] for j in members] for i in members], ar)
        if not d:
            raise _located(SingularLambdaBlock(
                f"stage (i): the Lambda block of orbit {orbit_id!r} has determinant zero"),
                "i", orbit_id)
        e_columns = list(zip(*e))

        # (ii) later rows strictly above: solve over the Lambda block;
        # (iii) later rows not above: the same right-hand side must vanish
        for i in live:
            if orbit_id in below[row_orbit[i]]:
                rhs = [shift(residual(i, j), dim) for j in members]
                try:
                    for col, e_column in zip(members, e_columns):
                        p[i][col] = div(dot(rhs, e_column), d)
                except NonExactDivision as exc:
                    raise _located(NonExactDivision(
                        f"stage (ii), row {labels[i]!r} over orbit {orbit_id!r}: {exc}"),
                        "ii", orbit_id, labels[i]) from exc
                rhs_of[i] += rhs
                cols_of[i] += members
            elif any(residual(i, j) for j in members):
                raise _located(SupportViolation(
                    f"omega[{labels[i]}][...] is nonzero on orbit {orbit_id!r}, "
                    f"which the closure order forbids"), "iii", orbit_id, labels[i])

    return tuple(tuple(tuple(map(ar.out, row)) for row in m) for m in (p, lam))


def _located(exc: Exception, stage: str, orbit: str, row: str | None = None) -> Exception:
    """`exc` with the stage, orbit and row (a label id, or None for a whole
    orbit) at which the elimination failed, as attributes."""
    exc.stage, exc.orbit, exc.row = stage, orbit, row
    return exc


def _duals(block: BlockData) -> tuple[list[int], list[int]]:
    """Per label, in the block's order: its dual's position and its orbit's dim."""
    index = {lb.id: i for i, lb in enumerate(block.labels)}
    dim_of = {o.id: o.dim for o in block.orbits}
    return [index[lb.dual] for lb in block.labels], [dim_of[lb.orbit] for lb in block.labels]


def _check_invariants(result: SolveResult, block: BlockData,
                      below: dict[str, frozenset[str]]) -> None:
    """Raise SolverError unless `result` is the constrained factorization of
    `block`, whose closure order is `below`: p dual-invariant, Lambda
    symmetric, P * Lambda * P^T = omega by `_first_mismatch`, then the
    support constraints; the module docstring says why that certifies it."""
    dual, dims = _duals(block)
    labels = result.labels
    k = len(labels)
    for i in range(k):
        for j in range(k):
            di, dj = dual[i], dual[j]
            if result.p[i][j] != result.p[di][dj]:
                raise DualSymmetryViolation(
                    f"p[{labels[i]}][{labels[j]}] != p[{labels[di]}][{labels[dj]}]")
            if j > i and result.lam[i][j] != result.lam[j][i]:
                raise SolverError(
                    f"lambda[{labels[i]}][{labels[j]}] is not symmetric")

    mismatch = _first_mismatch(result.p, result.lam, block.omega)
    if mismatch:
        i, j = mismatch
        raise SolverError(
            f"P * Lambda * P^T does not reproduce omega[{labels[i]}][{labels[j]}]")

    orbit = [lb.orbit for lb in block.labels]
    for i, (p_row, lam_row) in enumerate(zip(result.p, result.lam)):
        if p_row[i] != t_half_power(-dims[i]):
            raise SolverError(f"p[{labels[i]}][{labels[i]}] is not t^(-dim/2) "
                              f"for the dim {dims[i]} of its orbit")
        for j in range(k):
            if p_row[j] and j != i and orbit[j] not in below[orbit[i]]:
                raise SolverError(f"p[{labels[i]}][{labels[j]}] is nonzero, "
                                  f"which the closure order forbids")
            if lam_row[j] and orbit[j] != orbit[i]:
                raise SolverError(f"lambda[{labels[i]}][{labels[j]}] is nonzero "
                                  f"off the orbit blocks")


def reconstruct(result: SolveResult, block: BlockData) -> Matrix:
    """P * Lambda * P^T, for comparison against the block's omega.

    The products run over every entry that `result` holds, not over the
    support the closure order allows, so a stray entry anywhere in p or lam
    enters the product like any other.
    """
    if result.labels != block.label_ids():
        raise ShapeMismatch("result labels do not match the block")
    pl = [[dot(row, col) for col in zip(*result.lam)] for row in result.p]
    return tuple(tuple(dot(pl_row, p_row) for p_row in result.p) for pl_row in pl)


def _first_mismatch(p: Matrix, lam: Matrix, omega: Matrix) -> tuple[int, int] | None:
    """The first (i, j) with j >= i, in label order, at which P * Lambda * P^T
    differs from omega, or None if the upper triangles agree, decided at
    t^(1/2) = x = 2^bits as the module docstring sets out, a nonzero entry
    f as (lo, n) with f(x) = x^lo * n, lo its least doubled exponent."""
    k = len(p)
    # each nonzero entry read as its pairs (doubled exponent, coefficient),
    # of omega only the upper triangle
    p_terms = [[(m, f.items()) for m, f in enumerate(row) if f] for row in p]
    lam_terms = [[(m, f.items()) for m, f in enumerate(row) if f] for row in lam]
    omega_terms = [[(j, omega[i][j].items()) for j in range(i, k) if omega[i][j]]
                   for i in range(k)]
    row_l1 = max((sum(abs(c) for _, f in row for _, c in f) for row in p_terms), default=0)
    lam_l1 = max((sum(abs(c) for _, c in f) for row in lam_terms for _, f in row), default=0)
    omega_max = max((abs(c) for row in omega_terms for _, f in row for _, c in f), default=0)
    bits = (omega_max + lam_l1 * row_l1 ** 2).bit_length() + 1

    def value(terms) -> tuple[int, int]:
        # the sum of n * x^e over the pairs (e, n) of `terms` is x^lo * N;
        # the exponents are distinct, so the least pair holds the least one
        lo = min(terms)[0]
        return lo, sum(n << bits * (e - lo) for e, n in terms)

    p_rows = [[(m, value(f)) for m, f in row] for row in p_terms]
    lam_rows = [[(m, value(f)) for m, f in row] for row in lam_terms]
    p_cols: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in range(k)]
    for j, row in enumerate(p_rows):
        for m, v in row:
            p_cols[m].append((j, v))
    for i, p_row in enumerate(p_rows):
        # row i of P * Lambda, then its products with the columns j >= i of
        # P^T, added to -omega[i][j]; products of one offset are summed as
        # they come
        pl: dict[int, dict[int, int]] = {}
        for a, (lo1, n1) in p_row:
            for m, (lo2, n2) in lam_rows[a]:
                terms = pl.setdefault(m, {})
                terms[lo1 + lo2] = terms.get(lo1 + lo2, 0) + n1 * n2
        diff = {j: {e: -c for e, c in f} for j, f in omega_terms[i]}
        for m, pl_terms in pl.items():
            lo1, n1 = value(pl_terms.items())
            for j, (lo2, n2) in p_cols[m]:
                if j >= i:
                    terms = diff.setdefault(j, {})
                    terms[lo1 + lo2] = terms.get(lo1 + lo2, 0) + n1 * n2
        bad = [j for j, terms in diff.items() if value(terms.items())[1]]
        if bad:
            return i, min(bad)
    return None


def dualize_p(result: SolveResult, block: BlockData) -> Matrix:
    """The dual stalk matrix: p_dual[chi][psi] = t^(-dim O_psi) * p[chi*][psi*].bar().

    Applying the same transformation twice returns the original p, because
    duality preserves orbits and bar is an involution.
    """
    if result.labels != block.label_ids():
        raise ShapeMismatch("result labels do not match the block")
    return _dual_stalks(result.p, *_duals(block))


def _dual_stalks(p: Matrix, dual: list[int], dims: list[int]) -> Matrix:
    return tuple(tuple(_raw({-2 * d - e: v for e, v in p[i][j].items()}) if p[i][j] else ZERO
                       for j, d in zip(dual, dims)) for i in dual)
