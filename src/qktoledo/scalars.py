"""Exact scalars: the field Q(i, sqrt2), quaternions over it, and first-order jets.

Every number in this library is an element of Q(i, sqrt2), stored with exact
rational coordinates in the basis {1, i, sqrt2, i*sqrt2} over Q.  All checks
downstream are therefore equality tests, never tolerance comparisons.

The canonical textual form of a field element is

    p/q + r/s*i + t/u*sqrt2 + v/w*i*sqrt2

with zero terms omitted, "0" for zero, and "-" joining negative terms
(e.g. "3 - 2*sqrt2").  ``parse_field_elem`` accepts this format back.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

_SUFFIXES = ("", "*i", "*sqrt2", "*i*sqrt2")


def _rational(value):
    """An int or a Fraction, as is: both have a numerator and a denominator."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _frozen(self, *_):
    raise AttributeError(f"{type(self).__name__} is immutable")


class FieldElem:
    """Element a + b*i + c*sqrt2 + d*i*sqrt2 of Q(i, sqrt2).

    Immutable.  The coordinate representation is unique, so equality of
    coordinates is equality in the field.  ``conj`` is complex conjugation
    (flips b and d, fixes sqrt2); an element is real iff b = d = 0.

    Internally the four coordinates share one positive denominator with the
    five integers coprime, so products need a single gcd instead of one per
    Fraction operation; a, b, c, d are exposed as Fractions.  ``str`` renders
    from these integers too, reducing each coordinate by one gcd when
    den > 1, and keeps the text in a sixth slot, so a value is rendered at
    most once; the value is immutable, so its text cannot go stale.
    ``repr`` is ``str``, except for a value that ``str`` cannot render (a
    coordinate past Python's limit on int-to-str digits): then it is the
    five integers in hex, "(na + nb*i + nc*sqrt2 + nd*i*sqrt2)/den".
    """

    __slots__ = ("na", "nb", "nc", "nd", "den", "_text")
    __setattr__ = __delattr__ = _frozen

    def __new__(cls, a=0, b=0, c=0, d=0):
        # True.numerator is the int 1, so a bool is stored as an int
        fa, fb, fc, fd = map(_rational, (a, b, c, d))
        den = lcm(fa.denominator, fb.denominator, fc.denominator, fd.denominator)
        return _raw(fa.numerator * (den // fa.denominator),
                    fb.numerator * (den // fb.denominator),
                    fc.numerator * (den // fc.denominator),
                    fd.numerator * (den // fd.denominator), den)

    def __reduce__(self):
        return FieldElem, (self.a, self.b, self.c, self.d)

    @property
    def a(self) -> Fraction:
        return Fraction(self.na, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.nb, self.den)

    @property
    def c(self) -> Fraction:
        return Fraction(self.nc, self.den)

    @property
    def d(self) -> Fraction:
        return Fraction(self.nd, self.den)

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        if type(other) is not FieldElem:
            other = as_scalar(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _raw(self.na + other.na, self.nb + other.nb,
                        self.nc + other.nc, self.nd + other.nd, d1)
        # as in Fraction._add, the common factor of lcm(d1, d2) = s*d2 and
        # the new numerators divides g: a prime of d1 but not of d2 dividing
        # every new numerator would divide every numerator of self
        g = gcd(d1, d2)
        s, t = d1 // g, d2 // g
        return _raw(self.na * t + other.na * s, self.nb * t + other.nb * s,
                    self.nc * t + other.nc * s, self.nd * t + other.nd * s,
                    s * d2, g)

    __radd__ = __add__

    def __neg__(self):
        # negation keeps a canonical value canonical, so g = 1
        return _raw(-self.na, -self.nb, -self.nc, -self.nd, self.den, 1)

    def __sub__(self, other):
        if type(other) is not FieldElem:
            other = as_scalar(other)
            if other is NotImplemented:
                return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not FieldElem:
            other = as_scalar(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, c1, d1 = self.na, self.nb, self.nc, self.nd
        if not (a1 or b1 or c1 or d1):
            return ZERO
        a2, b2, c2, d2 = other.na, other.nb, other.nc, other.nd
        if not (a2 or b2 or c2 or d2):
            return ZERO
        # sqrt2*sqrt2 = 2, i*i = -1, (i*sqrt2)^2 = -2
        return _raw(
            a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            self.den * other.den,
        )

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        """Multiplicative inverse in one integer step.

        With x = (a + b*i + c*sqrt2 + d*i*sqrt2)/den, x*conj(x) is
        (p + q*sqrt2)/den^2 with p = a^2 + b^2 + 2c^2 + 2d^2 and
        q = 2(ac + bd), so 1/x = conj(x)*(p - q*sqrt2)*den^2 / (p^2 - 2q^2),
        and p^2 - 2q^2 > 0: times 1/den^4 it is the product of |x|^2 under
        both embeddings of sqrt2 (as +sqrt2 and as -sqrt2).
        """
        a, b, c, d = self.na, self.nb, self.nc, self.nd
        if not (a or b or c or d):
            raise ZeroDivisionError("inverse of 0 in Q(i, sqrt2)")
        p = a * a + b * b + 2 * (c * c + d * d)
        q = 2 * (a * c + b * d)
        den = self.den
        return _raw((a * p - 2 * c * q) * den, (2 * d * q - b * p) * den,
                    (c * p - a * q) * den, (b * q - d * p) * den,
                    p * p - 2 * q * q)

    def __truediv__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    # -- structure maps -------------------------------------------------

    def conj(self) -> "FieldElem":
        # canonical in, canonical out, as for negation
        return _raw(self.na, -self.nb, self.nc, -self.nd, self.den, 1)

    def real_part(self) -> "FieldElem":
        """The a + c*sqrt2 part (real part as a complex number)."""
        return _raw(self.na, 0, self.nc, 0, self.den)

    def __bool__(self):
        return bool(self.na or self.nb or self.nc or self.nd)

    def is_real(self) -> bool:
        return not (self.nb or self.nd)

    def real_sign(self) -> int:
        """Exact sign of a real element a + c*sqrt2.

        Decided by the signs of a, c and the comparison a^2 vs 2c^2; no
        floating point is involved.  Raises ValueError on non-real input.
        """
        if not self.is_real():
            raise ValueError(f"real_sign of non-real element {self}")
        a, c = self.na, self.nc
        if a == 0 and c == 0:
            return 0
        if a >= 0 and c >= 0:
            return 1
        if a <= 0 and c <= 0:
            return -1
        # strict opposite signs; a^2 = 2c^2 is impossible for rationals
        bigger_rational = a * a > 2 * c * c
        if a > 0:
            return 1 if bigger_rational else -1
        return -1 if bigger_rational else 1

    # -- comparison / rendering -----------------------------------------

    def __eq__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.na == other.na and self.nb == other.nb
                and self.nc == other.nc and self.nd == other.nd
                and self.den == other.den)

    def __hash__(self):
        # a rational element equals its Fraction (and int), so it hashes alike
        if not (self.nb or self.nc or self.nd):
            return hash(Fraction(self.na, self.den))
        return hash((self.na, self.nb, self.nc, self.nd, self.den))

    def __str__(self):
        text = self._text
        if text is not None:
            return text
        den, parts = self.den, []
        for n, sfx in zip((self.na, self.nb, self.nc, self.nd), _SUFFIXES):
            if n:
                q = den
                if den != 1:
                    g = gcd(n, den)
                    n, q = n // g, den // g
                if parts:
                    parts.append(" - " if n < 0 else " + ")
                    n = abs(n)
                parts.append(f"{n}{sfx}" if q == 1 else f"{n}/{q}{sfx}")
        text = "".join(parts) or "0"
        _set_text(self, text)
        return text

    def __repr__(self):
        try:
            return self.__str__()
        except ValueError:
            # a coordinate past int's decimal-digit limit: the five stored
            # integers exactly, in hex, which has no such limit
            return (f"({self.na:#x} + {self.nb:#x}*i + {self.nc:#x}*sqrt2"
                    f" + {self.nd:#x}*i*sqrt2)/{self.den:#x}")


def as_scalar(value):
    """Coerce int/Fraction to FieldElem; pass FieldElem through."""
    if isinstance(value, FieldElem):
        return value
    if isinstance(value, int):
        return _raw(int(value), 0, 0, 0, 1)
    if isinstance(value, Fraction):
        return _raw(value.numerator, 0, 0, 0, value.denominator)
    return NotImplemented


def _raw(na, nb, nc, nd, den, g=None):
    """(na + nb*i + nc*sqrt2 + nd*i*sqrt2) / den in lowest terms, den > 0.
    A given g > 0 is a multiple of every common factor of den and the
    numerators, so g == 1, like den == 1, means they are canonical already."""
    if den != 1 and g != 1:
        g = gcd(g or den, na, nb, nc, nd)
        if g > 1:
            na //= g
            nb //= g
            nc //= g
            nd //= g
            den //= g
    out = _new(FieldElem)
    _set_na(out, na)
    _set_nb(out, nb)
    _set_nc(out, nc)
    _set_nd(out, nd)
    _set_den(out, den)
    _set_text(out, None)
    return out


_new = object.__new__
_set_na, _set_nb, _set_nc, _set_nd, _set_den, _set_text = (
    vars(FieldElem)[slot].__set__ for slot in FieldElem.__slots__)

ZERO = FieldElem()
ONE = FieldElem(1)
I = FieldElem(0, 1)
SQRT2 = FieldElem(0, 0, 1)
I_SQRT2 = FieldElem(0, 0, 0, 1)
HALF_SQRT2 = FieldElem(0, 0, Fraction(1, 2), 0)   # 1/sqrt2


_RATIONAL = re.compile(r"([0-9]+)(?:/([0-9]+))?")
# spaces before or after an operator: dropped by the parser
_SPACES_BY_OPERATOR = re.compile(r" +(?=[-+*/])|(?<=[-+*/]) +")


def _parse_rational(factor: str, text: str) -> tuple:
    """A numeric factor, "digits" or "digits/digits" only, so no decimal or
    exponent notation can ask for an unbounded coefficient: its numerator
    and its nonzero denominator, as written."""
    match = _RATIONAL.fullmatch(factor)
    if match is None:
        raise ValueError(f"malformed term in {text!r}")
    num, den = int(match[1]), int(match[2] or 1)
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return num, den


def parse_field_elem(text: str) -> FieldElem:
    """Parse the canonical textual format back into a FieldElem.

    Accepts sums of terms ``[rational][*i][*sqrt2]`` joined with + or -,
    e.g. "11/64", "1 - 1*i", "1/2*sqrt2", "-2*i*sqrt2", "i", "sqrt2".  A
    space may stand at either end and next to +, -, * or /; any other space,
    as in "1 2", makes a malformed term.
    """
    s = _SPACES_BY_OPERATOR.sub("", text).strip(" ")
    if not s:
        raise ValueError("empty field element")
    terms = []
    start = 0
    for pos in range(1, len(s)):
        if s[pos] in "+-" and s[pos - 1] not in "+-*/":
            terms.append(s[start:pos])
            start = pos
    terms.append(s[start:])
    sums = [0, 0, 0, 0]
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise ValueError(f"malformed term in {text!r}")
        # the factors multiply as two ints, reduced once per term: a
        # Fraction product would take a gcd per factor
        num, den = sign, 1
        has_i = has_sqrt2 = False
        for factor in term.split("*"):
            if factor == "i":
                if has_i:
                    raise ValueError(f"repeated i in {text!r}")
                has_i = True
            elif factor == "sqrt2":
                if has_sqrt2:
                    raise ValueError(f"repeated sqrt2 in {text!r}")
                has_sqrt2 = True
            else:
                n, d = _parse_rational(factor, text)
                num *= n
                den *= d
        sums[(1 if has_i else 0) + (2 if has_sqrt2 else 0)] += Fraction(num, den)
    return FieldElem(*sums)


def _as_pair(value, cls):
    """A Quat or JetScalar operand as an instance of cls: one passes through,
    a scalar s becomes cls(s, 0), and anything else is NotImplemented."""
    if isinstance(value, cls):
        return value
    scalar = as_scalar(value)
    if scalar is NotImplemented:
        return NotImplemented
    return cls(scalar, ZERO)


class _Pair:
    """Immutable pair over Q(i, sqrt2) in which a scalar s is the pair (s, 0).

    A subclass names its parts in ``__slots__`` and ``__init__``, names its
    second unit in ``_UNIT``, and defines the product and ``conj``.
    """

    __slots__ = ()
    __setattr__ = __delattr__ = _frozen

    def __init_subclass__(cls):
        cls._parts = property(attrgetter(*cls.__slots__))

    def __init__(self, first, second):
        a, b = as_scalar(first), as_scalar(second)
        if a is NotImplemented or b is NotImplemented:
            raise TypeError(f"{type(self).__name__} components must be "
                            "FieldElem, int or Fraction")
        for name, value in zip(self.__slots__, (a, b)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), self._parts

    def __add__(self, other):
        other = _as_pair(other, type(self))
        if other is NotImplemented:
            return NotImplemented
        (a, b), (c, d) = self._parts, other._parts
        return type(self)(a + c, b + d)

    __radd__ = __add__

    def __neg__(self):
        a, b = self._parts
        return type(self)(-a, -b)

    def __eq__(self, other):
        other = _as_pair(other, type(self))
        if other is NotImplemented:
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self):
        # a pair with zero second part equals its first part, so it hashes alike
        first, second = self._parts
        return hash(first) if not second else hash((first, second))

    def __repr__(self):
        first, second = self._parts
        return f"({first!r}) + ({second!r})*{self._UNIT}"


class Quat(_Pair):
    """Quaternion z + w*j with z, w in Q(i, sqrt2) and j*z = conj(z)*j.

    Immutable.  conj(q) = conj(z) - w*j; conj(q)*q is a real scalar, the
    norm.  Scalar multiplication is side-aware: q*s uses j*s = conj(s)*j.
    """

    __slots__ = ("z", "w")
    _UNIT = "j"

    def __init__(self, z=0, w=0):
        super().__init__(z, w)

    def __mul__(self, other):
        other = _as_pair(other, Quat)
        if other is NotImplemented:
            return NotImplemented
        z1, w1, z2, w2 = self.z, self.w, other.z, other.w
        return Quat(z1 * z2 - w1 * w2.conj(), z1 * w2 + w1 * z2.conj())

    def __rmul__(self, other):
        other = _as_pair(other, Quat)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def conj(self) -> "Quat":
        return Quat(self.z.conj(), -self.w)

    def __bool__(self):
        return bool(self.z or self.w)


QUAT_I = Quat(I)
QUAT_J = Quat(ZERO, ONE)
QUAT_K = Quat(ZERO, I)
QUAT_UNITS = {"i": QUAT_I, "j": QUAT_J, "k": QUAT_K}


class JetScalar(_Pair):
    """First-order jet val + eps*deriv over Q(i, sqrt2), with eps^2 = 0.

    Models the value and first derivative of a curve parameter; products
    follow the Leibniz rule and inversion requires val != 0.
    """

    __slots__ = ("val", "deriv")
    _UNIT = "eps"

    def __init__(self, val=0, deriv=0):
        super().__init__(val, deriv)

    def __mul__(self, other):
        other = _as_pair(other, JetScalar)
        if other is NotImplemented:
            return NotImplemented
        return JetScalar(self.val * other.val,
                         self.val * other.deriv + self.deriv * other.val)

    __rmul__ = __mul__

    def inverse(self) -> "JetScalar":
        if not self.val:
            raise ZeroDivisionError("jet with zero value part is not invertible")
        inv = self.val.inverse()
        return JetScalar(inv, -(inv * inv) * self.deriv)

    def conj(self) -> "JetScalar":
        # jets are taken along a real parameter, so conjugation acts per part
        return JetScalar(self.val.conj(), self.deriv.conj())
