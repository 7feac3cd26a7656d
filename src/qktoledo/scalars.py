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
from math import gcd

_SUFFIXES = ("", "*i", "*sqrt2", "*i*sqrt2")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
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
    from these integers too, reducing each coordinate by one gcd.
    """

    __slots__ = ("na", "nb", "nc", "nd", "den")
    __setattr__ = __delattr__ = _frozen

    def __new__(cls, a=0, b=0, c=0, d=0):
        if isinstance(a, int) and isinstance(b, int) and isinstance(c, int) \
                and isinstance(d, int):
            return _raw(a, b, c, d, 1)
        fa, fb, fc, fd = (_as_fraction(x) for x in (a, b, c, d))
        den = 1
        for f in (fa, fb, fc, fd):
            den = den * f.denominator // gcd(den, f.denominator)
        return _raw(fa.numerator * (den // fa.denominator),
                    fb.numerator * (den // fb.denominator),
                    fc.numerator * (den // fc.denominator),
                    fd.numerator * (den // fd.denominator), den)

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
        return _raw(self.na * d2 + other.na * d1, self.nb * d2 + other.nb * d1,
                    self.nc * d2 + other.nc * d1, self.nd * d2 + other.nd * d1,
                    d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.na, -self.nb, -self.nc, -self.nd, self.den)

    def __sub__(self, other):
        if type(other) is not FieldElem:
            other = as_scalar(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _raw(self.na - other.na, self.nb - other.nb,
                        self.nc - other.nc, self.nd - other.nd, d1)
        return _raw(self.na * d2 - other.na * d1, self.nb * d2 - other.nb * d1,
                    self.nc * d2 - other.nc * d1, self.nd * d2 - other.nd * d1,
                    d1 * d2)

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
        """Multiplicative inverse, rationalizing the i-part then the sqrt2-part."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in Q(i, sqrt2)")
        norm = self * self.conj()        # real: (p + q*sqrt2) / den
        p, q, den = norm.na, norm.nc, norm.den
        denom = p * p - 2 * q * q        # nonzero since sqrt2 is irrational
        inv_norm = _raw(p * den, 0, -q * den, 0, denom)
        return self.conj() * inv_norm

    def __truediv__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    # -- structure maps -------------------------------------------------

    def conj(self) -> "FieldElem":
        return _raw(self.na, -self.nb, self.nc, -self.nd, self.den)

    def real_part(self) -> "FieldElem":
        """The a + c*sqrt2 part (real part as a complex number)."""
        return _raw(self.na, 0, self.nc, 0, self.den)

    def is_zero(self) -> bool:
        return not (self.na or self.nb or self.nc or self.nd)

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
        den, parts = self.den, []
        for n, sfx in zip((self.na, self.nb, self.nc, self.nd), _SUFFIXES):
            if n:
                g = gcd(n, den)
                n, q = n // g, den // g
                if parts:
                    parts.append(" - " if n < 0 else " + ")
                    n = abs(n)
                parts.append(f"{n}{sfx}" if q == 1 else f"{n}/{q}{sfx}")
        return "".join(parts) or "0"

    __repr__ = __str__


def as_scalar(value):
    """Coerce int/Fraction to FieldElem; pass FieldElem through."""
    if isinstance(value, FieldElem):
        return value
    if isinstance(value, int):
        return _raw(value, 0, 0, 0, 1)
    if isinstance(value, Fraction):
        return _raw(value.numerator, 0, 0, 0, value.denominator)
    return NotImplemented


def _raw(na, nb, nc, nd, den):
    """(na + nb*i + nc*sqrt2 + nd*i*sqrt2) / den in lowest terms, den != 0;
    with den == 1 the five integers are already canonical."""
    if den != 1:
        if den < 0:
            na, nb, nc, nd, den = -na, -nb, -nc, -nd, -den
        g = gcd(na, nb, nc, nd, den)
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
    return out


_new = object.__new__
_set_na, _set_nb, _set_nc, _set_nd, _set_den = (
    vars(FieldElem)[slot].__set__ for slot in FieldElem.__slots__)

ZERO = FieldElem()
ONE = FieldElem(1)
I = FieldElem(0, 1)
SQRT2 = FieldElem(0, 0, 1)
I_SQRT2 = FieldElem(0, 0, 0, 1)
HALF_SQRT2 = FieldElem(0, 0, Fraction(1, 2), 0)   # 1/sqrt2


_RATIONAL = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def _parse_rational(factor: str, text: str) -> Fraction:
    """A numeric factor, "digits" or "digits/digits" only, so no decimal or
    exponent notation can ask for an unbounded coefficient."""
    match = _RATIONAL.fullmatch(factor)
    if match is None:
        raise ValueError(f"malformed term in {text!r}")
    num, den = int(match[1]), int(match[2] or 1)
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def parse_field_elem(text: str) -> FieldElem:
    """Parse the canonical textual format back into a FieldElem.

    Accepts sums of terms ``[rational][*i][*sqrt2]`` joined with + or -,
    e.g. "11/64", "1 - 1*i", "1/2*sqrt2", "-2*i*sqrt2", "i", "sqrt2".
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty field element")
    terms = []
    start = 0
    for pos in range(1, len(s)):
        if s[pos] in "+-" and s[pos - 1] not in "+-*/":
            terms.append(s[start:pos])
            start = pos
    terms.append(s[start:])
    result = ZERO
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise ValueError(f"malformed term in {text!r}")
        coef = Fraction(sign)
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
                coef *= _parse_rational(factor, text)
        coords = [0, 0, 0, 0]
        coords[(1 if has_i else 0) + (2 if has_sqrt2 else 0)] = coef
        result = result + FieldElem(*coords)
    return result


class Quat:
    """Quaternion z + w*j with z, w in Q(i, sqrt2) and j*z = conj(z)*j.

    Immutable.  conj(q) = conj(z) - w*j; conj(q)*q is a real scalar, the
    norm.  Scalar multiplication is side-aware: q*s uses j*s = conj(s)*j.
    """

    __slots__ = ("z", "w")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, z=0, w=0):
        zc, wc = as_scalar(z), as_scalar(w)
        if zc is NotImplemented or wc is NotImplemented:
            raise TypeError("Quat components must be FieldElem, int or Fraction")
        object.__setattr__(self, "z", zc)
        object.__setattr__(self, "w", wc)

    def __add__(self, other):
        other = _as_quat(other)
        if other is NotImplemented:
            return NotImplemented
        return Quat(self.z + other.z, self.w + other.w)

    __radd__ = __add__

    def __neg__(self):
        return Quat(-self.z, -self.w)

    def __mul__(self, other):
        other = _as_quat(other)
        if other is NotImplemented:
            return NotImplemented
        z1, w1, z2, w2 = self.z, self.w, other.z, other.w
        return Quat(z1 * z2 - w1 * w2.conj(), z1 * w2 + w1 * z2.conj())

    def __rmul__(self, other):
        other = _as_quat(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def conj(self) -> "Quat":
        return Quat(self.z.conj(), -self.w)

    def norm(self) -> FieldElem:
        """conj(q)*q as a real FieldElem."""
        return self.z * self.z.conj() + self.w * self.w.conj()

    def re(self) -> FieldElem:
        """Real (1-component) part, a real FieldElem."""
        return self.z.real_part()

    def __bool__(self):
        return bool(self.z or self.w)

    def __eq__(self, other):
        other = _as_quat(other)
        if other is NotImplemented:
            return NotImplemented
        return self.z == other.z and self.w == other.w

    def __hash__(self):
        # a quaternion with w = 0 equals its scalar z, so it hashes alike
        return hash(self.z) if self.w.is_zero() else hash((self.z, self.w))

    def __repr__(self):
        return f"({self.z}) + ({self.w})*j"


def _as_quat(value):
    if isinstance(value, Quat):
        return value
    scalar = as_scalar(value)
    if scalar is NotImplemented:
        return NotImplemented
    return Quat(scalar, ZERO)


QUAT_I = Quat(I)
QUAT_J = Quat(ZERO, ONE)
QUAT_K = Quat(ZERO, I)
QUAT_UNITS = {"i": QUAT_I, "j": QUAT_J, "k": QUAT_K}


class JetScalar:
    """First-order jet val + eps*deriv over Q(i, sqrt2), with eps^2 = 0.

    Models the value and first derivative of a curve parameter; products
    follow the Leibniz rule and inversion requires val != 0.
    """

    __slots__ = ("val", "deriv")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, val=0, deriv=0):
        v, d = as_scalar(val), as_scalar(deriv)
        if v is NotImplemented or d is NotImplemented:
            raise TypeError("JetScalar components must be FieldElem, int or Fraction")
        object.__setattr__(self, "val", v)
        object.__setattr__(self, "deriv", d)

    def __add__(self, other):
        other = _as_jet(other)
        if other is NotImplemented:
            return NotImplemented
        return JetScalar(self.val + other.val, self.deriv + other.deriv)

    __radd__ = __add__

    def __neg__(self):
        return JetScalar(-self.val, -self.deriv)

    def __mul__(self, other):
        other = _as_jet(other)
        if other is NotImplemented:
            return NotImplemented
        return JetScalar(self.val * other.val,
                         self.val * other.deriv + self.deriv * other.val)

    __rmul__ = __mul__

    def inverse(self) -> "JetScalar":
        if self.val.is_zero():
            raise ZeroDivisionError("jet with zero value part is not invertible")
        inv = self.val.inverse()
        return JetScalar(inv, -(inv * inv) * self.deriv)

    def conj(self) -> "JetScalar":
        # jets are taken along a real parameter, so conjugation acts per part
        return JetScalar(self.val.conj(), self.deriv.conj())

    def __eq__(self, other):
        other = _as_jet(other)
        if other is NotImplemented:
            return NotImplemented
        return self.val == other.val and self.deriv == other.deriv

    def __hash__(self):
        # a jet with zero derivative equals its value, so it hashes alike
        if self.deriv.is_zero():
            return hash(self.val)
        return hash((self.val, self.deriv))

    def __repr__(self):
        return f"({self.val}) + ({self.deriv})*eps"


def _as_jet(value):
    if isinstance(value, JetScalar):
        return value
    scalar = as_scalar(value)
    if scalar is NotImplemented:
        return NotImplemented
    return JetScalar(scalar, ZERO)
