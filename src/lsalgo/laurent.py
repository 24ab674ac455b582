"""Exact arithmetic in the ring Z[t^(1/2), t^(-1/2)].

Every matrix entry in this package lives in the ring of Laurent polynomials
in a square root of t with integer coefficients.  Half powers are genuinely
needed: diagonal normalizations are t^(-d/2) for an orbit dimension d that
need not be even.  A polynomial is stored sparsely as a map from *doubled*
exponents to nonzero integer coefficients, so t^(k/2) is stored under the
integer key k and exponent arithmetic never leaves the integers.  The only
division is `exact_div`, which either returns a ring element or raises.

Every sum, difference and product is one `dot(xs, ys)`: the sum of x*y over
paired polynomials, multiplied term by term into one coefficient map whose
zero entries are dropped once, at the end.  A sum of products, such as one
entry of a matrix product, thus builds one polynomial instead of one per
term; `f * g` is `dot((f,), (g,))` and `f - g` is `dot((f, g), (ONE, -ONE))`.
Every quotient is one `exact_div`, a long division from the top term on the
exponents as given.  Packing has one kernel too, `_pack`/`_unpack`: digits
d_k as sum_k d_k * 2^(width * k), width in whole words, one `struct` call
and one int conversion each way at 64 bits.

Values are immutable after construction and all operations are pure, so they
may be shared freely between workers.  Coefficients are plain Python ints,
hence arbitrary precision.  The constructor takes int exponents and int
coefficients only and raises TypeError for anything else, bool included.
Decoding from JSON is strict: an exponent or a coefficient that is not
exactly an integer, or an exponent key beyond MAX_EXPONENT in absolute
value, raises DataFormatError.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, ItemsView, Mapping, Sequence
from functools import lru_cache
from itertools import chain
from operator import attrgetter

# Largest doubled exponent, in absolute value, that decoding accepts; the
# omega of springer-a n <= 8 reaches 56 and the shipped datasets 6.
MAX_EXPONENT = 100_000

# Bits per digit of the solver's packed integers: a polynomial is held as
# its value at x = 2^PACK_WIDTH.
PACK_WIDTH = 64


class NonExactDivision(ArithmeticError):
    """Quotient does not exist in Z[t^(1/2), t^(-1/2)].

    Raised when a division that the surrounding algorithm guarantees to be
    exact turns out not to be: the input data was corrupted or inconsistent.
    """


class DataFormatError(ValueError):
    """Input data is structurally unusable (missing keys, ragged matrix) or
    holds a value that does not decode exactly."""


def decode_int(value, what: str) -> int:
    """A JSON integer as an int; bool, float, str and anything else raise
    DataFormatError instead of being coerced."""
    if type(value) is not int:
        raise DataFormatError(f"{what} must be an integer, got {value!r}")
    return value


def decode_str(value, what: str) -> str:
    """A JSON string as a str; null, numbers and anything else raise
    DataFormatError instead of being passed through str()."""
    if type(value) is not str:
        raise DataFormatError(f"{what} must be a string, got {value!r}")
    return value


class _ExponentMemo(dict):
    """Canonical str exponent keys, each decoded on its first lookup; 4096 at most."""

    def __missing__(self, key) -> int:
        # JSON object keys are strings; only the canonical decimal form is taken,
        # and only a str key is held, so True and 1.0 never meet the entry of "1"
        try:
            e = int(key) if isinstance(key, str) and str(int(key)) == key else key
        except ValueError:
            e = key
        if type(e) is not int:
            raise DataFormatError(f"exponent key {key!r} is not an integer")
        if abs(e) > MAX_EXPONENT:
            raise DataFormatError(
                f"exponent key {e} is beyond the bound {MAX_EXPONENT} in absolute value")
        if type(key) is str and len(self) < 4096:
            self[key] = e
        return e


_EXPONENTS = _ExponentMemo()


class HalfLaurent:
    """A Laurent polynomial in t^(1/2) with integer coefficients.

    Construct from a mapping of doubled exponents to coefficients::

        HalfLaurent({2: 1, 0: -1})    # t - 1
        HalfLaurent({-1: 3})          # 3*t^(-1/2)

    Exponents and coefficients must have type int (bool is refused), else
    TypeError.  Zero coefficients are dropped on construction; the zero
    polynomial has an empty coefficient map.  Supports +, -, *, ** (by an
    int n >= 0, else ValueError) and mixing with ints, but not with bools:
    ONE + True raises TypeError and ONE == True is False.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c: dict[int, int] = {}
        if coeffs:
            for e, v in coeffs.items():
                if type(e) is not int or type(v) is not int:
                    raise TypeError(f"exponent {e!r} and coefficient {v!r} must be ints")
                if v:
                    c[e] = v
        self._c = c

    # -- basic queries ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._c)

    def items(self) -> ItemsView[int, int]:
        """Pairs (doubled exponent, coefficient), in no particular order."""
        return self._c.items()

    def coefficient(self, double_exp: int) -> int:
        return self._c.get(double_exp, 0)

    def support(self) -> tuple[int, ...]:
        """Doubled exponents carrying a nonzero coefficient, ascending."""
        return tuple(sorted(self._c))

    # -- ring structure ---------------------------------------------------

    def _plus(self, other: HalfLaurent | int, sign: HalfLaurent) -> HalfLaurent:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return dot((self, other), (ONE, sign))

    def __add__(self, other: HalfLaurent | int) -> HalfLaurent:
        return self._plus(other, ONE)

    __radd__ = __add__

    def __neg__(self) -> HalfLaurent:
        return _raw({e: -v for e, v in self._c.items()})

    def __sub__(self, other: HalfLaurent | int) -> HalfLaurent:
        return self._plus(other, -ONE)

    def __rsub__(self, other: int) -> HalfLaurent:
        return (-self).__add__(other)

    def __mul__(self, other: HalfLaurent | int) -> HalfLaurent:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return dot((self,), (other,))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> HalfLaurent:
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if type(other) is int:
            other = _coerce(other)
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        # a constant hashes as the int it equals, so ONE and 1 are one key
        c = self._c
        if len(c) == 1 and 0 in c:
            return hash(c[0])
        return hash(frozenset(c.items())) if c else 0

    # -- the bar involution and shifts ------------------------------------

    def bar(self) -> HalfLaurent:
        """The ring involution t^(1/2) -> t^(-1/2): every exponent is negated."""
        return _raw({-e: v for e, v in self._c.items()})

    def shift(self, double_exp: int) -> HalfLaurent:
        """Multiply by the monomial t^(double_exp/2)."""
        return _raw({e + double_exp: v for e, v in self._c.items()})

    # -- serialization and display -----------------------------------------

    def to_json(self) -> dict[str, int]:
        """JSON form: doubled exponents as string keys, e.g. t^(-1) <-> {"-2": 1}."""
        return {str(e): v for e, v in sorted(self._c.items())}

    @classmethod
    def from_json(cls, obj: Mapping[str, int]) -> HalfLaurent:
        if not isinstance(obj, Mapping):
            raise DataFormatError(f"a polynomial must be a JSON object, got {obj!r}")
        # the exponent is decoded first; of two keys for one exponent, the last wins
        c = {_EXPONENTS[e]: v if type(v) is int else decode_int(v, "a coefficient")
             for e, v in obj.items()}
        return _raw({e: v for e, v in c.items() if v} if 0 in c.values() else c)

    def pretty(self) -> str:
        """Human-readable form, ascending exponents: "t^-2 + 2*t^-1 - 1"."""
        if not self._c:
            return "0"
        parts: list[str] = []
        for e, v in sorted(self._c.items()):
            mono = _monomial_str(e)
            if mono is None:
                term = str(abs(v))
            elif abs(v) == 1:
                term = mono
            else:
                term = f"{abs(v)}*{mono}"
            if not parts:
                parts.append(term if v > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if v > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return self.pretty()


def _monomial_str(double_exp: int) -> str | None:
    if double_exp == 0:
        return None
    if double_exp % 2 == 0:
        k = double_exp // 2
        return "t" if k == 1 else f"t^{k}"
    return f"t^({double_exp}/2)"


def _raw(c: dict[int, int]) -> HalfLaurent:
    # the value over c as is, unchecked: c maps ints to nonzero ints
    out = HalfLaurent.__new__(HalfLaurent)
    out._c = c
    return out


def _coerce(x: HalfLaurent | int) -> HalfLaurent:
    # an int (not a bool) as a constant polynomial
    if isinstance(x, HalfLaurent):
        return x
    if type(x) is int:
        return _raw({0: x} if x else {})
    return NotImplemented


ZERO = HalfLaurent()
ONE = HalfLaurent({0: 1})


def t_half_power(double_exp: int) -> HalfLaurent:
    """The monomial t^(double_exp/2)."""
    return HalfLaurent({double_exp: 1})


def max_abs_coefficient(rows: Iterable[Iterable[HalfLaurent]], part=dict.values) -> int:
    """The largest absolute value of a coefficient in `rows`, or with
    part=dict.keys of a doubled exponent; 0 if all are zero."""
    return max(map(abs, chain.from_iterable(map(part, filter(None, map(
        attrgetter("_c"), chain.from_iterable(rows)))))), default=0)


def dot(xs: Iterable[HalfLaurent], ys: Iterable[HalfLaurent]) -> HalfLaurent:
    """sum(x * y for x, y in zip(xs, ys)), term by term into one coefficient map.

    Zero coefficients are dropped once, after the last product; sequences of
    different lengths raise ValueError.  The empty sum is ZERO.
    """
    c: dict[int, int] = {}
    get = c.get
    for x, y in zip(xs, ys, strict=True):
        # the shorter operand drives the outer loop, so the inner loops are long
        xc, yc = (x._c, y._c) if len(x._c) <= len(y._c) else (y._c, x._c)
        yc = yc.items()
        for e1, v1 in xc.items():
            for e2, v2 in yc:
                e = e1 + e2
                c[e] = get(e, 0) + v1 * v2
    return _raw({e: v for e, v in c.items() if v})


def _digit_width(bound: int) -> int:
    """Bits per signed digit of absolute value at most bound, in whole words."""
    return (bound.bit_length() + 64) // 64 * 64


def _pack(digits: Sequence[int], width: int) -> int:
    """sum_k digits[k] * 2^(width * k) for a width in whole 64-bit words; a
    digit outside [-2^(width - 1), 2^(width - 1)) raises ArithmeticError."""
    offset = _digit_offset(width, len(digits))
    try:  # two's complement words: flipping each top bit adds 2^(width - 1)
        words = (struct.pack(f"<{len(digits)}q", *digits) if width == 64 else
                 b"".join(d.to_bytes(width // 8, "little", signed=True) for d in digits))
    except (struct.error, OverflowError):
        raise ArithmeticError(
            f"a series does not fit {len(digits)} digits of {width} bits") from None
    return (int.from_bytes(words, "little") ^ offset) - offset


def _unpack(value: int, width: int, n_terms: int) -> list[int]:
    """The n_terms signed width-bit digits of value, ascending: the inverse
    of `_pack`.  A value that no such digits give raises ArithmeticError."""
    offset = _digit_offset(width, n_terms)
    try:
        words = ((value + offset) ^ offset).to_bytes(width // 8 * n_terms, "little")
    except OverflowError:
        raise ArithmeticError(
            f"a packed series does not fit {n_terms} digits of {width} bits") from None
    return list(struct.unpack(f"<{n_terms}q", words)) if width == 64 else [
        int.from_bytes(words[k:k + width // 8], "little", signed=True)
        for k in range(0, len(words), width // 8)]


@lru_cache(maxsize=64)
def _digit_offset(width: int, n_terms: int) -> int:
    # 2^(width - 1) in each of n_terms digits; memoized, as it costs as much as a small pack
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * n_terms, "little")


def exact_div(f: HalfLaurent, g: HalfLaurent) -> HalfLaurent:
    """Return q with f = q*g, or raise NonExactDivision if no such q exists.

    Division is over the integers: a remainder, or a leading coefficient
    that fails to divide, both signal inconsistent input data.
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    gd = max(g._c)
    qmin = min(f._c, default=0) - min(g._c)  # the lowest exponent of any q with f = q*g
    rem = dict(f._c)
    q: dict[int, int] = {}
    while rem:
        qe = max(rem) - gd
        c, r = divmod(rem[qe + gd], g._c[gd])
        if r or qe < qmin:
            raise NonExactDivision(f"({f}) is not divisible by ({g})")
        q[qe] = c
        for e, v in g._c.items():
            k = e + qe
            s = rem.get(k, 0) - c * v
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return _raw(q)
