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
is raised at the same row and orbit as if every row were visited.

Every sum of products in these stages, and in the elimination, is one `dot`
call, so an entry builds one polynomial however many terms it sums.

All divisions are certified exact in Z[t^(1/2), t^(-1/2)]; the elimination is
fraction-free (Bareiss).  A zero determinant means omega is not a block.
Any failure names the inconsistency instead of producing wrong numbers.
Because the solution is unique, the result does not depend on which linear
extension was used; the returned matrices are always indexed by the block's
own label order.
`linear_extension`, imported from `blockdata`, produces every extension:
ascending (dimension, id) by default, or drawn at random from a seed.

`solve` validates the block before solving, always, and a result is checked
before it is returned, always: p must be invariant under duality, Lambda
symmetric, and P * Lambda * P^T must equal omega exactly.  The check forms
only the upper triangle j >= i of that product and compares it with omega's:
validation rejects an asymmetric omega, and with Lambda symmetric,
(P Lambda P^T)^T = P Lambda^T P^T = P Lambda P^T, so two symmetric matrices
that agree on j >= i are equal.  The product is sparse over the entries the
result actually holds, not over the support the closure order allows, so a
stray entry anywhere in p or Lambda still enters it and fails the check.
The check then requires the constraints above of every entry: p zero off
the closure order with diagonal t^(-dim/2), Lambda zero off the orbit
blocks.  A result that passes is a constrained factorization of omega, so
by uniqueness it is the answer, whatever the elimination did (Lusztig,
Character sheaves V, 1986, section 24; Shoji 1987).
`reconstruct` forms the full product the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blockdata import (
    BlockData, Violation, _check_block, _decode_ids, _decode_matrix, linear_extension)
from .laurent import (
    ONE, ZERO, DataFormatError, HalfLaurent, NonExactDivision, decode_str, dot, exact_div,
    t_half_power)

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

    def p_dual_entry(self, row: str, col: str) -> HalfLaurent:
        return self.entry(self.p_dual, row, col)

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


def _eliminate(matrix: list[list[HalfLaurent]]):
    """One fraction-free Gauss-Jordan elimination of [A | I] for a square A:
    (d, sign, E) with d = sign * det(A), sign that of the row swaps, and
    E * A = d * I, or (ZERO, sign, None) if A is singular.  Each entry is a
    minor of [A | I], so every division by the previous pivot is exact
    (Sylvester's identity).  Columns left of the pivot are never read again,
    so they are not updated."""
    n = len(matrix)
    rows = [list(row) + [ONE if j == i else ZERO for j in range(n)]
            for i, row in enumerate(matrix)]
    sign, prev = 1, ONE
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return ZERO, sign, None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        sign = sign if pivot == k else -sign
        pivot_row = rows[k]
        for i, row in enumerate(rows):
            if i != k:
                pair = (pivot_row[k], -row[k])
                for j in range(k + 1, 2 * n):
                    row[j] = exact_div(dot(pair, (row[j], pivot_row[j])), prev)
        prev = pivot_row[k]
    return prev, sign, [row[n:] for row in rows]


def solve(block: BlockData, *, order_seed: int | None = None) -> SolveResult:
    """Validate one block and run the factorization on it.

    With `order_seed` the linear extension is drawn at random from the given
    seed; the result is identical either way.
    """
    violations, below = _check_block(block)
    if violations:
        raise InvalidBlock(violations)

    labels = block.label_ids()
    k = len(labels)
    dim_of = {o.id: o.dim for o in block.orbits}
    on_orbit: dict[str, list[int]] = {o.id: [] for o in block.orbits}
    for i, lb in enumerate(block.labels):
        on_orbit[lb.orbit].append(i)
    extension = linear_extension(block, order_seed)
    rank = {orbit_id: pos for pos, orbit_id in enumerate(extension)}
    row_orbit = [lb.orbit for lb in block.labels]

    p = [[ZERO] * k for _ in range(k)]
    lam = [[ZERO] * k for _ in range(k)]
    # per row, the right-hand sides p[i] * Lambda of the orbits it was
    # solved over, flattened, and the columns they sit in
    rhs_of: list[list[HalfLaurent]] = [[] for _ in range(k)]
    cols_of: list[list[int]] = [[] for _ in range(k)]

    def residual(i: int, j: int) -> HalfLaurent:
        # omega minus the contributions of the processed orbits, at (i, j)
        if not rhs_of[i]:
            return block.omega[i][j]
        pj = p[j]
        return block.omega[i][j] - dot(rhs_of[i], [pj[c] for c in cols_of[i]])

    live = range(k)

    for pos, orbit_id in enumerate(extension):
        members = on_orbit[orbit_id]
        dim = dim_of[orbit_id]
        live = [i for i in live if rank[row_orbit[i]] > pos]

        # (i) the Lambda block of this orbit is forced; one elimination of
        #     [Lambda_O | I] gives d and E with E * Lambda_O = d * I
        for a, i in enumerate(members):
            p[i][i] = t_half_power(-dim)
            for j in members[a:]:
                lam[i][j] = lam[j][i] = residual(i, j).shift(2 * dim)
        d, _, e = _eliminate([[lam[i][j] for j in members] for i in members])
        if not d:
            raise _located(SingularLambdaBlock(
                f"stage (i): the Lambda block of orbit {orbit_id!r} has determinant zero"),
                "i", orbit_id)
        e_columns = list(zip(*e))

        # (ii) later rows strictly above: solve over the Lambda block;
        # (iii) later rows not above: the same right-hand side must vanish
        for i in live:
            if orbit_id in below[row_orbit[i]]:
                rhs = [residual(i, j).shift(dim) for j in members]
                try:
                    for col, e_column in zip(members, e_columns):
                        p[i][col] = exact_div(dot(rhs, e_column), d)
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

    p_matrix: Matrix = tuple(tuple(row) for row in p)
    dual, dims = _duals(block)
    result = SolveResult(block.name, labels, p_matrix, tuple(tuple(row) for row in lam),
                         _dual_stalks(p_matrix, dual, dims))
    _check_invariants(result, block, dual, dims, below)
    return result


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


def _check_invariants(result: SolveResult, block: BlockData, dual: list[int],
                      dims: list[int], below: dict[str, frozenset[str]]) -> None:
    """Raise SolverError unless `result` is the constrained factorization of
    `block`: p dual-invariant, Lambda symmetric, P * Lambda * P^T = omega,
    and the support constraints of the module docstring, under which that
    factorization is unique.  `dual` and `dims` are as `_duals` gives them,
    `below` is the block's closure order."""
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

    # omega and lam are symmetric, so is P * Lambda * P^T: the upper triangles
    # decide; columns are scanned only in the first row that differs
    pl = _sparse_product(result.p, result.lam)
    upper = _sparse_product(pl, tuple(zip(*result.p)), upper=True)
    for i, row in enumerate(upper):
        if row != block.omega[i][i:]:
            j = next(j for j in range(i, k) if row[j - i] != block.omega[i][j])
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

    The products run over the nonzero entries that `result` actually holds,
    not over the support the closure order allows, so a stray entry anywhere
    in p or lam enters the product like any other.
    """
    k = len(result.labels)
    if len(block.labels) != k or result.labels != block.label_ids():
        raise ShapeMismatch("result labels do not match the block")
    p_transpose = tuple(zip(*result.p))
    pl = _sparse_product(result.p, result.lam)
    return _sparse_product(pl, p_transpose)


def _sparse_product(a: Matrix, b: Matrix, *, upper: bool = False) -> Matrix:
    """a * b for square matrices: one `dot` per entry, over the indices
    where both factors are nonzero.  With `upper`, row i holds only the
    columns j >= i."""
    n = len(b)
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for i, row in enumerate(a):
        lo = i if upper else 0
        xs: dict[int, list[HalfLaurent]] = {}
        ys: dict[int, list[HalfLaurent]] = {}
        for m, x in enumerate(row):
            if x:
                for j, y in b_rows[m]:
                    if j >= lo:
                        xs.setdefault(j, []).append(x)
                        ys.setdefault(j, []).append(y)
        out.append(tuple(dot(xs[j], ys[j]) if j in xs else ZERO for j in range(lo, n)))
    return tuple(out)


def dualize_p(result: SolveResult, block: BlockData) -> Matrix:
    """The dual stalk matrix: p_dual[chi][psi] = t^(-dim O_psi) * bar(p[chi*][psi*]).

    Applying the same transformation twice returns the original p, because
    duality preserves orbits and bar is an involution.
    """
    if result.labels != block.label_ids():
        raise ShapeMismatch("result labels do not match the block")
    return _dual_stalks(result.p, *_duals(block))


def _dual_stalks(p: Matrix, dual: list[int], dims: list[int]) -> Matrix:
    k = len(p)
    return tuple(tuple(p[dual[a]][dual[b]].bar().shift(-2 * dims[b]) for b in range(k))
                 for a in range(k))
