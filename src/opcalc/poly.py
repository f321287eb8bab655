"""Exact rational scalars and univariate polynomials.

Scalars are arbitrary-precision rationals (`fractions.Fraction`), which are
always kept in lowest terms with a positive denominator.

A polynomial is stored as integer content over one common denominator, the
layout of FLINT's ``fmpq_poly``: a tuple ``nums`` of integer numerators
indexed by exponent, with no trailing zero, and one positive integer
``den``.  The pair is kept canonical, ``gcd(den, *nums) == 1``, so equal
polynomials have equal fields; the zero polynomial is ``((), 1)`` and its
degree is the distinguished sentinel ``NEG_INF`` rather than an integer.
Arithmetic works on the integers and normalises each result with one
``math.gcd``.  ``coeffs``, the tuple of `Fraction` coefficients, is a
read-only view built on first access.

Products use Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", JSC 2009): each
numerator list is packed into one Python int, its value at x = 2^B, with
byte-aligned B-bit digits wide enough that no coefficient of the product
overflows half a digit.  One big-int product then carries every
coefficient; adding ``2^(B-1)`` to each digit makes all digits
nonnegative for unpacking.  A factor with a single nonzero term (a
constant or a monomial) takes a scalar path instead.

Every change of coordinates against a triangular basis goes through two
helpers: ``coordinates`` solves p = sum_k c_k basis(k) by
back-substitution, and ``combine`` forms the sum from the c_k.  Both call
``basis`` only at a nonzero coefficient, so a basis can be built lazily.

``render_poly`` writes the text form and ``Scanner`` reads it; the same
``Scanner`` reads the operator language of `opcalc.dsl`.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Callable, Iterable, Sequence, Union

from .errors import ParseError

Rat = Fraction

RatLike = Union[Rat, int, str]

# Degree of the zero polynomial.  Compares below every integer, and
# NEG_INF + k == NEG_INF, so degree bookkeeping needs no special cases.
NEG_INF = float("-inf")

# Array type codes of signed machine integers by width in bytes.  With a
# little-endian machine order they pack and unpack Kronecker digits of up
# to 8 bytes without a Python-level loop.
_DIGIT_CODES = (
    {array(code).itemsize: code for code in "bhiq"} if sys.byteorder == "little" else {}
)


def rat(value: RatLike) -> Rat:
    """Coerce an int, string like ``-3/4``, or Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _canonical(nums: list, den: int) -> tuple:
    """(nums, den) with trailing zeros dropped and the common gcd divided out."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return (), 1
    g = gcd(den, *nums)
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    return tuple(nums), den


def _from_canonical(nums: tuple, den: int) -> "Poly":
    p = object.__new__(Poly)
    object.__setattr__(p, "nums", nums)
    object.__setattr__(p, "den", den)
    object.__setattr__(p, "_coeffs", None)
    return p


def _poly(nums: list, den: int) -> "Poly":
    """The polynomial sum(nums[k] x^k) / den, for any positive den."""
    return _from_canonical(*_canonical(nums, den))


def _pack(cs, k: int, code: str) -> int:
    """The k-byte two's-complement digits of cs, read as one nonnegative int."""
    if code:
        return int.from_bytes(array(code, cs).tobytes(), "little")
    return int.from_bytes(b"".join([c.to_bytes(k, "little", signed=True) for c in cs]), "little")


def _unpack(x: int, n: int, k: int, code: str) -> list:
    """The n signed k-byte digits of the nonnegative int x."""
    digits = x.to_bytes(n * k, "little")
    if code:
        return array(code, digits).tolist()
    view = memoryview(digits)
    return [int.from_bytes(view[i : i + k], "little", signed=True) for i in range(0, n * k, k)]


def _kronecker(a: tuple, b: tuple) -> list:
    """Integer coefficients of a*b from one big-int product."""
    la, lb = len(a), len(b)
    n = la + lb - 1
    # |c_k| < min(la, lb) * 2^(bits(a) + bits(b)), which must stay below 2^(B-1).
    bits = (
        max(map(int.bit_length, a))
        + max(map(int.bit_length, b))
        + min(la, lb).bit_length()
        + 1
    )
    k = (bits + 7) >> 3
    if k <= 8:
        k = 1 << (k - 1).bit_length()
    B = 8 * k
    code = _DIGIT_CODES.get(k)
    # The digit 2^(B-1) in each of n places.  XOR with it turns
    # two's-complement digits into digits biased by 2^(B-1); subtracting it
    # then leaves the signed value at x = 2^B.
    offset = int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")
    off_a = offset >> (B * (lb - 1))
    off_b = offset >> (B * (la - 1))
    product = ((_pack(a, k, code) ^ off_a) - off_a) * ((_pack(b, k, code) ^ off_b) - off_b)
    # Adding the offset makes every digit nonnegative, so the digits separate
    # without borrows; the XOR turns them back into two's complement.
    return _unpack((product + offset) ^ offset, n, k, code)


class Poly:
    """Univariate polynomial over the rationals, in canonical form."""

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [rat(c) for c in coeffs]
        den = lcm(*[c.denominator for c in cs])
        nums, den = _canonical([c.numerator * (den // c.denominator) for c in cs], den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_coeffs", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, indexed by exponent."""
        cs = self._coeffs
        if cs is None:
            den = self.den
            cs = tuple(Fraction(n, den) for n in self.nums)
            object.__setattr__(self, "_coeffs", cs)
        return cs

    # -- construction -------------------------------------------------

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def const(cls, c: RatLike) -> "Poly":
        return cls((rat(c),))

    @classmethod
    def monomial(cls, k: int, c: RatLike = 1) -> "Poly":
        """The polynomial c*x^k."""
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        c = rat(c)
        return _poly([0] * k + [c.numerator], c.denominator)

    # -- structure ----------------------------------------------------

    @property
    def degree(self):
        """Degree, or the NEG_INF sentinel for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else NEG_INF

    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, k: int) -> Rat:
        """Coefficient of x^k (zero when k is out of range)."""
        if 0 <= k < len(self.nums):
            if self._coeffs is not None:
                return self._coeffs[k]
            return Fraction(self.nums[k], self.den)
        return Rat(0)

    @property
    def lead(self) -> Rat:
        """Leading coefficient; zero for the zero polynomial."""
        return Fraction(self.nums[-1], self.den) if self.nums else Rat(0)

    def truncate(self, n: int) -> "Poly":
        """The terms of degree at most n."""
        if len(self.nums) <= n + 1:
            return self
        return _poly(list(self.nums[: max(n + 1, 0)]), self.den)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.nums, other.nums
        if not b:
            return self
        if not a:
            return other
        den = self.den
        if den != other.den:
            g = gcd(den, other.den)
            scale_a, scale_b = other.den // g, den // g
            a = [n * scale_a for n in a]
            b = [n * scale_b for n in b]
            den *= scale_a
        if len(a) < len(b):
            a, b = b, a
        return _poly([*map(add, a, b), *a[len(b) :]], den)

    def __neg__(self) -> "Poly":
        return _from_canonical(tuple([-n for n in self.nums]), self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            a, b = self.nums, other.nums
            if not a or not b:
                return Poly()
            if b.count(0) == len(b) - 1:
                a, b = b, a
            if a.count(0) == len(a) - 1:
                c = a[-1]
                nums = [0] * (len(a) - 1) + [c * n for n in b]
            else:
                nums = _kronecker(a, b)
            return _poly(nums, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power must be a nonnegative integer")
        out = Poly.one()
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c: RatLike) -> "Poly":
        c = rat(c)
        if c == 0:
            return Poly()
        m = c.numerator
        return _poly([n * m for n in self.nums], self.den * c.denominator)

    def derivative(self) -> "Poly":
        """Formal derivative."""
        nums = self.nums
        return _poly([k * nums[k] for k in range(1, len(nums))], self.den)

    def integral(self) -> "Poly":
        """Antiderivative with zero constant term (definite integral from 0)."""
        m = lcm(*range(1, len(self.nums) + 1))
        return _poly([0] + [n * (m // k) for k, n in enumerate(self.nums, 1)], self.den * m)

    def eval(self, point: RatLike) -> Rat:
        """Value at a rational point, by Horner's rule on the numerators."""
        point = rat(point)
        if not self.nums:
            return Rat(0)
        p, q = point.numerator, point.denominator
        # acc = sum nums[k] p^k q^(deg - k); q_pow ends at q^(deg + 1).
        acc, q_pow = 0, 1
        for n in reversed(self.nums):
            acc = acc * p + n * q_pow
            q_pow *= q
        return Fraction(acc, self.den * (q_pow // q))

    def compose(self, inner: "Poly") -> "Poly":
        """Substitution self(inner(x))."""
        acc = Poly()
        den = self.den
        for n in reversed(self.nums):
            acc = acc * inner + _poly([n], den)
        return acc

    def shift(self, a: RatLike) -> "Poly":
        """p(x + a)."""
        return self.compose(Poly((rat(a), 1)))

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    # -- text ------------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"

    @classmethod
    def parse(cls, text: str, var: str = "x") -> "Poly":
        return parse_poly(text, var=var)


def coordinates(p: Poly, basis: Callable[[int], Poly]) -> list:
    """c_0..c_deg(p) with p = sum_k c_k basis(k), by back-substitution.

    ``basis(k)`` must have degree exactly k wherever it is called, which
    makes the solve exact and unique; it is called only at a nonzero
    coefficient.  A basis of higher degree there leaves a residue and is
    refused.
    """
    coords = [Rat(0)] * len(p.nums)
    residue = p
    for k in range(len(p.nums) - 1, -1, -1):
        r = residue.coeff(k)
        if r != 0:
            b = basis(k)
            coords[k] = c = r / b.coeff(k)
            residue = residue - b.scale(c)
    if not residue.is_zero():
        raise ValueError(f"back-substitution left the residue {residue}: not a triangular basis")
    return coords


def combine(coeffs: Sequence[RatLike], basis: Callable[[int], Poly]) -> Poly:
    """sum_k c_k basis(k), calling ``basis`` only where c_k is nonzero."""
    out = Poly()
    for k, c in enumerate(coeffs):
        c = rat(c)
        if c != 0:
            out = out + basis(k).scale(c)
    return out


def falling_factorial(m: int) -> Poly:
    """(x)_m = x(x-1)(x-2)...(x-m+1) as a polynomial; (x)_0 = 1."""
    if m < 0:
        raise ValueError("falling factorial index must be nonnegative")
    out = Poly.one()
    for i in range(m):
        out = out * Poly((-i, 1))
    return out


def falling_factorial_at(n: RatLike, m: int) -> Rat:
    """(n)_m for a rational n: n(n-1)...(n-m+1); (n)_0 = 1."""
    if m < 0:
        raise ValueError("falling factorial index must be nonnegative")
    n = rat(n)
    out = Rat(1)
    for i in range(m):
        out *= n - i
    return out


# ----------------------------------------------------------------------
# Canonical text form: descending exponents, explicit rational
# coefficients, e.g. "x^2 - 1/2*x + 3".  parse(render(p)) == p exactly.


def _render_coeff(c: Rat) -> str:
    return str(c)  # Fraction prints "3" or "-1/2"


def render_poly(p: Poly, var: str = "x") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if k == 0:
            body = _render_coeff(mag)
        else:
            xpart = var if k == 1 else f"{var}^{k}"
            body = xpart if mag == 1 else f"{_render_coeff(mag)}*{xpart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


class Scanner:
    """A cursor over input text, shared by polynomials and `opcalc.dsl`.

    It is the one reader of whitespace, unsigned integers, rationals and
    polynomials.  Whitespace may separate any two tokens, and every
    `ParseError` carries its position in the whole text.
    """

    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        """The next non-space character, or "" at the end."""
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, expected) -> ParseError:
        what = expected[0] if len(expected) == 1 else f"one of {', '.join(expected)}"
        return ParseError(
            f"at position {self.pos}: expected {what}", position=self.pos, expected=expected
        )

    def take(self, ch: str):
        if self.peek() != ch:
            raise self.error((ch,))
        self.pos += 1

    def end(self):
        if self.peek():
            raise self.error(("end of input", "+", "-"))

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalpha()
            or (self.pos > start and self.text[self.pos].isdigit())
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error(("integer",))
        return int(self.text[start : self.pos])

    def rational(self, signed: bool = False) -> Rat:
        sign = 1
        if signed and self.peek() == "-":
            self.pos += 1
            sign = -1
        num = self.uint()
        if self.peek() != "/":
            return Rat(sign * num)
        self.pos += 1
        self.skip_ws()
        start = self.pos
        den = self.uint()
        if not den:
            self.pos = start
            raise self.error(("nonzero denominator",))
        return Rat(sign * num, den)

    def poly(self, var: str) -> Poly:
        """One ``poly`` in ``var``; the production is in `parse_poly`."""
        coeffs: dict = {}
        sign = self.peek()
        while True:
            if sign in ("+", "-"):
                self.pos += 1
            coef, exp = self._pterm(var)
            coeffs[exp] = coeffs.get(exp, 0) + (-coef if sign == "-" else coef)
            sign = self.peek()
            if sign not in ("+", "-"):
                return Poly(coeffs.get(k, 0) for k in range(max(coeffs) + 1))

    def _pterm(self, var: str) -> tuple:
        """(coefficient, exponent) of one ``pterm`` in ``var``."""
        coef, expected = Rat(1), ("rational", var)
        if self.peek().isdigit():
            coef, expected = self.rational(), (var,)
            if self.peek() == "*":
                self.pos += 1
                self.skip_ws()
            elif not self.text.startswith(var, self.pos):
                return coef, 0
        if not self.text.startswith(var, self.pos):
            raise self.error(expected)
        self.pos += len(var)
        if self.peek() == "^":
            self.pos += 1
            return coef, self.uint()
        return coef, 1


def parse_poly(text: str, var: str = "x") -> Poly:
    """Parse a whole text as one polynomial in ``var``.

    The production, shared with the ``sub``, ``poly`` and ``series`` atoms
    of `opcalc.dsl` (``tpoly`` is ``poly`` in t)::

        poly  := ('+'|'-')? pterm (('+'|'-') pterm)*
        pterm := rational ('*'? var ('^' uint)?)? | var ('^' uint)?

    Terms of equal exponent add up, so ``x + x`` is ``2*x``.
    """
    sc = Scanner(text)
    p = sc.poly(var)
    sc.end()
    return p
