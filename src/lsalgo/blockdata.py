"""Block datasets: labels on an orbit poset with a pairing matrix omega.

One block couples a finite poset of orbits (stored as a Hasse diagram with
complex dimensions), a set of simple labels sitting on those orbits with a
duality involution, and a symmetric omega matrix over Z[t^(1/2), t^(-1/2)].
The type-A Springer block is generated from symmetric group data: labels are
partitions of n, the trivial character sits on the regular orbit, closure
order is dominance order, and omega is the coinvariant pairing evaluated at
q = t^(-1).

Blocks from other cuspidal data are supported as hand-authored JSON files
conforming to the same schema; no builder is shipped for them.  A dataset
file holds a JSON array of blocks; pairings between labels of different
blocks must vanish identically, and validation reports any nonzero
cross-block entry.
"""

from __future__ import annotations

import json
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from operator import ge

from .laurent import ZERO, DataFormatError, HalfLaurent, decode_int, decode_str
from .weyl import Partition, SizeMismatch, char_table_sn, coinvariant_pairing, partitions_of

# Springer blocks beyond this size are refused: the character-table and
# pairing computations stay exact but stop being desk-checkable.
MAX_SPRINGER_N = 8

# Largest orbit dimension a decoded block may carry; Springer blocks up to
# MAX_SPRINGER_N reach 56.  The solver shifts exponents by up to twice an
# orbit dimension, so this bound and MAX_EXPONENT bound every solved exponent.
MAX_ORBIT_DIM = 10_000


@dataclass(frozen=True)
class OrbitInfo:
    """One orbit: complex dimension plus the orbits it immediately covers."""

    id: str
    dim: int
    covers: tuple[str, ...] = ()


@dataclass(frozen=True)
class SimpleLabel:
    """A simple object: the orbit it sits on, a local system name, its dual (None: itself)."""

    id: str
    orbit: str
    local_system: str = "triv"
    dual: str | None = None

    def __post_init__(self):
        if self.dual is None:
            object.__setattr__(self, "dual", self.id)


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass(frozen=True)
class BlockData:
    """One block: orbit poset, labels, and the omega matrix over the labels.

    `omega[i][j]` pairs `labels[i]` with `labels[j]`.  Instances are
    immutable after construction; use `validate_block` for invariants.
    """

    name: str
    orbits: tuple[OrbitInfo, ...]
    labels: tuple[SimpleLabel, ...]
    omega: tuple[tuple[HalfLaurent, ...], ...]
    provenance: Mapping = field(default_factory=dict)

    def label_ids(self) -> tuple[str, ...]:
        return tuple(lb.id for lb in self.labels)


def orbit_dim_type_a(lam: Partition) -> int:
    """Complex dimension of the type-A orbit with Jordan type lam, a
    partition of n: n^2 minus the sum of squared conjugate parts."""
    return lam.n * lam.n - sum(c * c for c in lam.conjugate())


def dominates(lam: Partition, mu: Partition) -> bool:
    """Dominance order: every prefix sum of lam is >= the one of mu.  Past the
    shorter partition's end its prefix sums stay at n, so the shared prefixes decide."""
    if lam.n != mu.n:
        raise SizeMismatch(f"|{lam.parts}| != |{mu.parts}|")
    return all(map(ge, accumulate(lam.parts), accumulate(mu.parts)))


def dominance_covers(n: int) -> dict[Partition, tuple[Partition, ...]]:
    """Hasse diagram of dominance order: each partition mapped to the
    partitions it covers (immediately below), in `partitions_of` order: the
    transitive reduction, each strict-below set less those of its members."""
    parts = partitions_of(n)
    below = {lam: {mu for mu in parts if mu != lam and dominates(lam, mu)} for lam in parts}
    direct = {lam: strict.difference(*map(below.get, strict)) for lam, strict in below.items()}
    return {lam: tuple(mu for mu in parts if mu in direct[lam]) for lam in parts}


def build_springer_block_a(n: int) -> BlockData:
    """The Springer block for GL_n: one label per partition of n.

    Labeling convention: the character of partition lam sits on the orbit of
    Jordan type lam, so the trivial character (n) lands on the regular orbit
    and the sign character (1^n) on the zero orbit.  All local systems are
    trivial and duality is the identity.  Orbits and labels are listed in
    ascending (dimension, key) order.
    """
    if not 1 <= n <= MAX_SPRINGER_N:
        raise ValueError(f"n must be between 1 and {MAX_SPRINGER_N}, got {n}")
    covers = dominance_covers(n)
    order = sorted(partitions_of(n), key=lambda p: (orbit_dim_type_a(p), p.key()))
    orbits = tuple(
        OrbitInfo(lam.key(), orbit_dim_type_a(lam),
                  tuple(sorted(mu.key() for mu in covers[lam])))
        for lam in order
    )
    labels = tuple(SimpleLabel(lam.key(), lam.key(), "triv", lam.key()) for lam in order)
    keys = [lam.key() for lam in order]
    table = char_table_sn(n)
    pairings: dict[tuple[str, str], HalfLaurent] = {}
    for i, a in enumerate(keys):
        for b in keys[i:]:
            pairings[a, b] = pairings[b, a] = coinvariant_pairing(table, a, b).bar()
    omega = tuple(tuple(pairings[a, b] for b in keys) for a in keys)
    provenance = {
        "family": "springer-a",
        "n": n,
        "group": f"GL_{n}",
        "relative_weyl_group": f"S_{n}",
        "cuspidal_datum": "maximal torus, point orbit, trivial local system",
    }
    return BlockData(f"springer-a-{n}", orbits, labels, omega, provenance)


# -- poset utilities ---------------------------------------------------------


def linear_extension(block: BlockData, order_seed: int | None = None) -> list[str]:
    """A linear extension of the closure order, lowest orbits first: each step
    lists, of the orbits whose covers are all listed, the least by (dim, id), or
    with a seed a random one of them sorted by id.  Unknown covers are ignored; a
    repeated orbit id has its last record's covers.  A cycle in the covers is a
    DataFormatError naming the cycle `graphlib` finds, set by orbit and cover order."""
    dim_of = {o.id: o.dim for o in block.orbits}
    sorter = TopologicalSorter({o.id: [c for c in o.covers if c in dim_of] for o in block.orbits})
    try:
        sorter.prepare()
    except CycleError as exc:  # each node of exc.args[1] is covered by the next
        raise DataFormatError("cover relation has a cycle: " + " covers ".join(
            map(repr, reversed(exc.args[1])))) from None
    rng = None if order_seed is None else random.Random(order_seed)
    ready, out = set(), []
    while sorter.is_active():
        ready.update(sorter.get_ready())
        out.append(min(ready, key=lambda o: (dim_of[o], o)) if rng is None
                   else rng.choice(sorted(ready)))
        ready.remove(out[-1])
        sorter.done(out[-1])
    return out


def closure_below(block: BlockData) -> dict[str, frozenset[str]]:
    """For each orbit id, the set of orbit ids strictly below it in the
    closure order generated by the cover relation, built up along
    `linear_extension` (which raises DataFormatError on a cycle)."""
    covers = {orb.id: orb.covers for orb in block.orbits}
    below: dict[str, frozenset[str]] = {}
    for oid in linear_extension(block):
        below[oid] = frozenset(covers[oid]).union(*(below.get(c, ()) for c in covers[oid]))
    return below


def validate_block(block: BlockData) -> list[Violation]:
    """Check every block invariant; the list is empty iff the block is sound.
    Dims must fall along each cover, so by transitivity along the closure
    order; they are not checked when the covers have a cycle.

    Violations are data, not exceptions: callers decide how to react.
    """
    out: list[Violation] = []
    orbit_ids = [o.id for o in block.orbits]
    if len(set(orbit_ids)) != len(orbit_ids):
        out.append(Violation("DuplicateId", f"duplicate orbit ids in block {block.name!r}"))
    label_ids = [lb.id for lb in block.labels]
    if len(set(label_ids)) != len(label_ids):
        out.append(Violation("DuplicateId", f"duplicate label ids in block {block.name!r}"))
    orbit_by_id = {o.id: o for o in block.orbits}

    rising: list[Violation] = []
    for orb in block.orbits:
        if orb.dim < 0:
            out.append(Violation("NegativeDimension",
                                 f"orbit {orb.id!r} has dim {orb.dim}"))
        for child in orb.covers:
            if child not in orbit_by_id:
                out.append(Violation("UnknownOrbit",
                                     f"orbit {orb.id!r} covers unknown {child!r}"))
            elif orbit_by_id[child].dim >= orb.dim:
                rising.append(Violation(
                    "DimMonotonicityViolation",
                    f"orbit {child!r} (dim {orbit_by_id[child].dim}) lies below "
                    f"{orb.id!r} (dim {orb.dim})"))
    try:
        linear_extension(block)
        out += rising
    except DataFormatError as exc:
        out.append(Violation("PosetCycle", str(exc)))

    label_set = set(label_ids)
    for lb in block.labels:
        if lb.orbit not in orbit_by_id:
            out.append(Violation("UnknownOrbit",
                                 f"label {lb.id!r} references unknown orbit {lb.orbit!r}"))
        if lb.dual not in label_set:
            out.append(Violation("UnknownLabel",
                                 f"label {lb.id!r} has unknown dual {lb.dual!r}"))

    dual_of = {lb.id: lb.dual for lb in block.labels}
    orbit_of = {lb.id: lb.orbit for lb in block.labels}
    for lb in block.labels:
        partner = dual_of.get(lb.dual)
        if partner is not None and partner != lb.id:
            out.append(Violation("DualityViolation",
                                 f"duality is not an involution at {lb.id!r}"))
        if lb.dual in orbit_of and orbit_of[lb.dual] != lb.orbit:
            out.append(Violation("DualityViolation",
                                 f"dual of {lb.id!r} sits on a different orbit"))

    k = len(block.labels)
    if len(block.omega) != k or any(len(row) != k for row in block.omega):
        out.append(Violation("ShapeMismatch",
                             f"omega of block {block.name!r} is not {k}x{k}"))
        return out

    for i in range(k):
        for j in range(i + 1, k):
            if block.omega[i][j] != block.omega[j][i]:
                out.append(Violation(
                    "SymmetryViolation",
                    f"omega[{label_ids[i]}][{label_ids[j]}] != transpose"))

    index = {lb.id: i for i, lb in enumerate(block.labels)}
    # with a repeated label id the duality map is ambiguous: DuplicateId says so
    if len(index) == k and all(lb.dual in index for lb in block.labels):
        for i, a in enumerate(block.labels):
            for j, b in enumerate(block.labels):
                di, dj = index[a.dual], index[b.dual]
                if (di, dj) < (i, j):
                    continue  # the mirrored pair reports the same failure
                if block.omega[i][j] != block.omega[di][dj]:
                    out.append(Violation(
                        "DualityViolation",
                        f"omega[{a.id}][{b.id}] changes under dualization"))
    return out


# -- datasets ----------------------------------------------------------------


@dataclass(frozen=True)
class CrossEntry:
    """A pairing recorded between labels that live in different blocks."""

    block: str
    row: str
    col: str
    value: HalfLaurent


@dataclass(frozen=True)
class Dataset:
    """A decomposition into blocks, plus any cross-block pairings found in
    the file (which must all be zero for the dataset to be valid)."""

    blocks: tuple[BlockData, ...]
    cross_entries: tuple[CrossEntry, ...] = ()


def validate_dataset(ds: Dataset) -> list[Violation]:
    out: list[Violation] = []
    owner: dict[str, int] = {}
    for pos, block in enumerate(ds.blocks):
        for lb in block.labels:  # a label repeated within one block is validate_block's
            if owner.setdefault(lb.id, pos) != pos:
                out.append(Violation(
                    "DuplicateId",
                    f"label {lb.id!r} appears in blocks "
                    f"{ds.blocks[owner[lb.id]].name!r} and {block.name!r}"))
        out.extend(validate_block(block))
    reported: set[tuple[str, str]] = set()  # (block, foreign label) pairs named once
    for entry in ds.cross_entries:
        unknown = [x for x in (entry.row, entry.col) if x not in owner]
        for label_id in unknown:
            if (entry.block, label_id) not in reported:
                reported.add((entry.block, label_id))
                out.append(Violation("UnknownLabel", f"omega of block {entry.block!r} mentions "
                                     f"{label_id!r}, which no block defines"))
        if unknown:
            continue
        if owner[entry.row] == owner[entry.col]:
            # a redundant copy of some single block's own pairing; it only
            # has to agree with the authoritative omega of that block
            home = ds.blocks[owner[entry.row]]
            ids = home.label_ids()
            if home.omega[ids.index(entry.row)][ids.index(entry.col)] != entry.value:
                out.append(Violation(
                    "InconsistentDuplicate",
                    f"omega[{entry.row}][{entry.col}] recorded in "
                    f"{entry.block!r} disagrees with block {home.name!r}"))
        elif entry.value != ZERO:
            out.append(Violation(
                "CrossBlockNonzero",
                f"omega[{entry.row}][{entry.col}] = {entry.value} pairs labels "
                f"of different blocks and must vanish"))
    return out


# -- JSON schema --------------------------------------------------------------


def block_to_json(block: BlockData) -> dict:
    return {
        "name": block.name,
        "provenance": dict(block.provenance),
        "orbits": [
            {"id": o.id, "dim": o.dim, "covers": list(o.covers)} for o in block.orbits
        ],
        "labels": [
            {"id": lb.id, "orbit": lb.orbit, "local_system": lb.local_system,
             "dual": lb.dual}
            for lb in block.labels
        ],
        "omega": {
            "order": [lb.id for lb in block.labels],
            "entries": [[v.to_json() for v in row] for row in block.omega],
        },
    }


def _decode_dim(value) -> int:
    dim = decode_int(value, "an orbit dim")
    if dim > MAX_ORBIT_DIM:
        raise DataFormatError(f"orbit dim {dim} is beyond the bound {MAX_ORBIT_DIM}")
    return dim


def _decode_ids(value, what: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise DataFormatError(f"{what} must be a JSON list, got {value!r}")
    return tuple(decode_str(x, f"an entry of {what}") for x in value)


def _decode_matrix(value, size: int, what: str) -> tuple[tuple[HalfLaurent, ...], ...]:
    """A JSON list of `size` lists of `size` polynomials each."""
    if (not isinstance(value, list) or len(value) != size
            or any(not isinstance(row, list) or len(row) != size for row in value)):
        raise DataFormatError(f"{what} are not square over order")
    return tuple(tuple(HalfLaurent.from_json(v) for v in row) for row in value)


def block_from_json(obj: Mapping) -> tuple[BlockData, list[CrossEntry]]:
    """Decode one block.  `omega.order` may be a superset of the block's own
    labels (a file may record the full decomposition matrix); entries that
    touch a foreign label are returned separately as cross entries."""
    try:
        name = decode_str(obj["name"], "a block name")
        orbits = tuple(
            OrbitInfo(decode_str(o["id"], "an orbit id"), _decode_dim(o["dim"]),
                      _decode_ids(o.get("covers", []), "orbit covers"))
            for o in obj["orbits"]
        )
        labels = tuple(
            SimpleLabel(decode_str(lb["id"], "a label id"),
                        decode_str(lb["orbit"], "a label orbit"),
                        decode_str(lb.get("local_system", "triv"), "a local system"),
                        decode_str(lb.get("dual", lb["id"]), "a label dual"))
            for lb in obj["labels"]
        )
        order = _decode_ids(obj["omega"]["order"], "omega order")
        entries = obj["omega"]["entries"]
        provenance = obj.get("provenance", {})
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"malformed block object: {exc}") from exc
    if not isinstance(provenance, Mapping):
        raise DataFormatError(f"block {name!r}: provenance must be a JSON object")
    matrix = _decode_matrix(entries, len(order), f"block {name!r}: omega entries")
    if len(set(order)) != len(order):
        raise DataFormatError(f"block {name!r}: omega order repeats a label id")

    own = {lb.id for lb in labels}
    position = {label_id: i for i, label_id in enumerate(order)}
    missing = own - set(order)
    if missing:
        raise DataFormatError(f"block {name!r}: omega order misses labels {sorted(missing)}")

    own_ids = [lb.id for lb in labels]
    omega = tuple(
        tuple(matrix[position[a]][position[b]] for b in own_ids) for a in own_ids
    )
    cross: list[CrossEntry] = []
    for a in order:
        for b in order:
            if a in own and b in own:
                continue
            value = matrix[position[a]][position[b]]
            cross.append(CrossEntry(name, a, b, value))
    block = BlockData(name, orbits, labels, omega, dict(provenance))
    return block, cross


def dataset_from_json(obj) -> Dataset:
    if not isinstance(obj, Sequence) or isinstance(obj, (str, bytes)):
        raise DataFormatError("a dataset file must hold a JSON array of blocks")
    blocks: list[BlockData] = []
    cross: list[CrossEntry] = []
    for entry in obj:
        block, more = block_from_json(entry)
        blocks.append(block)
        cross.extend(more)
    return Dataset(tuple(blocks), tuple(cross))


def read_json(path):
    """The JSON value held in the file at `path`.  Invalid JSON and bytes that
    are not UTF-8 raise DataFormatError; a file that cannot be read, OSError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
        raise DataFormatError(f"not valid JSON: {exc}") from exc


def write_json(value, fh) -> None:
    """Write `value` to the text stream `fh` as exactly the characters of the
    stdlib json encoder with indent=2 and sort_keys=True, which runs in pure
    Python whenever it indents.  One `fh.write` per node, so a document never
    exists as one string.  Only dicts with str keys, lists, str, int, float,
    bool and None are written; any other value, a tuple included, raises TypeError."""
    _write_node(value, fh, "\n")


def _write_node(value, fh, newline: str) -> None:
    # a dict or list of plain ints (not bools), as every polynomial's to_json, is one join
    inner = newline + "  "
    if isinstance(value, dict):
        if value and set(map(type, value.values())) == {int}:
            items = [f"{encode_basestring_ascii(key)}: {value[key]}" for key in sorted(value)]
            fh.write("{" + inner + ("," + inner).join(items) + newline + "}")
            return
        for i, key in enumerate(sorted(value)):
            fh.write(("," if i else "{") + inner + encode_basestring_ascii(key) + ": ")
            _write_node(value[key], fh, inner)
        fh.write(newline + "}" if value else "{}")
    elif isinstance(value, list):
        if value and set(map(type, value)) == {int}:
            fh.write("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
            return
        for i, item in enumerate(value):
            fh.write(("," if i else "[") + inner)
            _write_node(item, fh, inner)
        fh.write(newline + "]" if value else "[]")
    elif isinstance(value, str):
        fh.write(encode_basestring_ascii(value))
    elif value is None or isinstance(value, int):
        fh.write("null" if value is None else "true" if value is True
                 else "false" if value is False else int.__repr__(value))
    elif isinstance(value, float):  # repr, or NaN and the infinities by name
        fh.write(json.dumps(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def load_dataset(path) -> Dataset:
    return dataset_from_json(read_json(path))


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json([block_to_json(b) for b in ds.blocks], fh)
        fh.write("\n")
