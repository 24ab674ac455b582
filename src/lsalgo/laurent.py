"""Exact arithmetic in the ring Z[t^(1/2), t^(-1/2)].

Every matrix entry in this package lives in the ring of Laurent polynomials
in a square root of t with integer coefficients.  Half powers are genuinely
needed: diagonal normalizations are t^(-d/2) for an orbit dimension d that
need not be even.  A polynomial is stored sparsely as a map from *doubled*
exponents to nonzero integer coefficients, so t^(k/2) is stored under the
integer key k and exponent arithmetic never leaves the integers.  The only
division is `exact_div`, which either returns a ring element or raises.

Products have one kernel, `dot(xs, ys)`: the sum of x*y over paired
polynomials, accumulated in a single coefficient map whose zero entries are
dropped once at the end.  A sum of products, such as one entry of a matrix
product, thus builds one polynomial instead of one per term; a single
product `f * g` is `dot((f,), (g,))`.

Values are immutable after construction and all operations are pure, so they
may be shared freely between workers.  Coefficients are plain Python ints,
hence arbitrary precision.  The constructor takes int exponents and int
coefficients only and raises TypeError for anything else, bool included.
Decoding from JSON is strict: an exponent or a coefficient that is not
exactly an integer, or an exponent key beyond MAX_EXPONENT in absolute
value, raises DataFormatError.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping

# Largest doubled exponent, in absolute value, that decoding accepts; the
# omega of springer-a n <= 8 reaches 56 and the shipped datasets 6.
MAX_EXPONENT = 100_000


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


@lru_cache(maxsize=4096, typed=True)
def _decode_exponent(key) -> int:
    # JSON object keys are strings; only the canonical decimal form is taken.
    # Files repeat few keys; typed, so True and 1.0 never hit the entry of 1
    if isinstance(key, str):
        try:
            e = int(key)
        except ValueError:
            pass
        else:
            if str(e) == key:
                key = e
    if type(key) is not int:
        raise DataFormatError(f"exponent key {key!r} is not an integer")
    if abs(key) > MAX_EXPONENT:
        raise DataFormatError(
            f"exponent key {key} is beyond the bound {MAX_EXPONENT} in absolute value")
    return key


class HalfLaurent:
    """A Laurent polynomial in t^(1/2) with integer coefficients.

    Construct from a mapping of doubled exponents to coefficients::

        HalfLaurent({2: 1, 0: -1})    # t - 1
        HalfLaurent({-1: 3})          # 3*t^(-1/2)

    Exponents and coefficients must have type int (bool is refused), else
    TypeError.  Zero coefficients are dropped on construction; the zero
    polynomial has an empty coefficient map.  Supports +, -, *, ** and
    mixing with ints, but not with bools: ONE + True raises TypeError and
    ONE == True is False.
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

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def items(self) -> Iterator[tuple[int, int]]:
        """Pairs (doubled exponent, coefficient) in ascending exponent order."""
        return iter(sorted(self._c.items()))

    def coefficient(self, double_exp: int) -> int:
        return self._c.get(double_exp, 0)

    def support(self) -> tuple[int, ...]:
        """Doubled exponents carrying a nonzero coefficient, ascending."""
        return tuple(sorted(self._c))

    def valuation(self) -> int:
        """Smallest doubled exponent; undefined on zero."""
        if not self._c:
            raise ValueError("zero polynomial has no valuation")
        return min(self._c)

    def degree(self) -> int:
        """Largest doubled exponent; undefined on zero."""
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return max(self._c)

    # -- ring structure ---------------------------------------------------

    def _merge(self, other: HalfLaurent | int, sign: int) -> HalfLaurent:
        # self + sign * other in one pass over other's terms
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            s = c.get(e, 0) + sign * v
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        return _raw(c)

    def __add__(self, other: HalfLaurent | int) -> HalfLaurent:
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self) -> HalfLaurent:
        return _raw({e: -v for e, v in self._c.items()})

    def __sub__(self, other: HalfLaurent | int) -> HalfLaurent:
        return self._merge(other, -1)

    def __rsub__(self, other: int) -> HalfLaurent:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: HalfLaurent | int) -> HalfLaurent:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return dot((self,), (other,))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> HalfLaurent:
        if n < 0:
            # only units (signed monomials) may be inverted
            if len(self._c) == 1:
                ((e, v),) = self._c.items()
                if v in (1, -1):
                    sign = -1 if (v == -1 and n % 2) else 1
                    return HalfLaurent({n * e: sign})
            raise ValueError(f"({self}) is not invertible in the ring")
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

    # -- the bar involution and evaluation --------------------------------

    def bar(self) -> HalfLaurent:
        """The ring involution t^(1/2) -> t^(-1/2): every exponent is negated."""
        return _raw({-e: v for e, v in self._c.items()})

    def shift(self, double_exp: int) -> HalfLaurent:
        """Multiply by the monomial t^(double_exp/2)."""
        return _raw({e + double_exp: v for e, v in self._c.items()})

    def evaluate_at_one(self) -> int:
        return sum(self._c.values())

    # -- serialization and display -----------------------------------------

    def to_json(self) -> dict[str, int]:
        """JSON form: doubled exponents as string keys, e.g. t^(-1) <-> {"-2": 1}."""
        return {str(e): v for e, v in sorted(self._c.items())}

    @classmethod
    def from_json(cls, obj: Mapping[str, int]) -> HalfLaurent:
        if not isinstance(obj, Mapping):
            raise DataFormatError(f"a polynomial must be a JSON object, got {obj!r}")
        # the exponent is decoded first; of two keys for one exponent, the last wins
        c = {_decode_exponent(e): v if type(v) is int else decode_int(v, "a coefficient")
             for e, v in obj.items()}
        return _raw({e: v for e, v in c.items() if v})

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
T = HalfLaurent({2: 1})


def t_power(k: int) -> HalfLaurent:
    """The monomial t^k."""
    return HalfLaurent({2 * k: 1})


def t_half_power(double_exp: int) -> HalfLaurent:
    """The monomial t^(double_exp/2)."""
    return HalfLaurent({double_exp: 1})


def bar(f: HalfLaurent) -> HalfLaurent:
    """Function form of the bar involution t^(1/2) -> t^(-1/2)."""
    return f.bar()


def dot(xs: Iterable[HalfLaurent], ys: Iterable[HalfLaurent]) -> HalfLaurent:
    """sum(x * y for x, y in zip(xs, ys)), accumulated in one coefficient map.

    Zero coefficients are dropped once, after the last product; sequences of
    different lengths raise ValueError.  The empty sum is ZERO.
    """
    c: dict[int, int] = {}
    get = c.get
    for x, y in zip(xs, ys, strict=True):
        yc = y._c.items()
        for e1, v1 in x._c.items():
            for e2, v2 in yc:
                e = e1 + e2
                c[e] = get(e, 0) + v1 * v2
    return _raw({e: v for e, v in c.items() if v})


def exact_div(f: HalfLaurent, g: HalfLaurent) -> HalfLaurent:
    """Return q with f = q*g, or raise NonExactDivision if no such q exists.

    Division is over the integers: a remainder, or a leading coefficient
    that fails to divide, both signal inconsistent input data.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return ZERO
    shift = f.valuation() - g.valuation()
    gd = g.degree() - g.valuation()
    g0 = {e - g.valuation(): v for e, v in g._c.items()}
    rem = {e - f.valuation(): v for e, v in f._c.items()}
    glead = g0[gd]
    q: dict[int, int] = {}
    while rem:
        rd = max(rem)
        if rd < gd:
            raise NonExactDivision(f"({f}) is not divisible by ({g})")
        c, r = divmod(rem[rd], glead)
        if r:
            raise NonExactDivision(f"({f}) is not divisible by ({g})")
        qe = rd - gd
        q[qe] = c
        for e, v in g0.items():
            k = e + qe
            s = rem.get(k, 0) - c * v
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return _raw({e + shift: v for e, v in q.items()})
