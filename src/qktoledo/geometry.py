"""Base-point geometry of SU(p,q)/S(U(p)xU(q)) and the quaternionic 4-form.

A tangent vector at the base point is the p x q block A of the symmetric-pair
element [[0, A], [A*, 0]].  Conventions fixed here and used everywhere:

* complex structure: J(A) = i*A;
* metric: g0(X, Y) = 4 Re Tr(B* A), Kahler form Omega0(X, Y) = g0(JX, Y)
  = 4 Re(i Tr(Y* X)), which is 4 omega_i (below) on 2-column blocks;
* quaternionic coordinates (q = 2 only): row m of A = (x_m, y_m) becomes the
  quaternion x_m + y_m*j, i.e. the identification q = x + y*j;
* the 2-forms omega_u(X, Y) = Re(q_X . conj(q_Y) u) for u in {i, j, k}, with
  q . conj(p) = sum_m q_m conj(p_m).  This pairing is Tr(Y* X) + s*j with
  s = sum_m (w_X z_Y - z_X w_Y) over the rows (z, w), so omega_i =
  Re(i Tr(Y* X)), omega_j = -Re s and omega_k = Re(i s) are read off the
  integer coordinates of two complex sums; the quaternion product is the
  tests' oracle for them.  ``unit_wedge_squares`` builds one pairing table
  for a quadruple: both sums of each of its six pairs, once, over its rows,
  skipping terms with a zero factor;
* the square of a 2-form alpha is evaluated by the three-term expansion

      alpha(X,Y)alpha(Z,W) - alpha(X,Z)alpha(Y,W) + alpha(X,W)alpha(Y,Z)

  (the signed sum over the three perfect matchings, with no extra
  combinatorial factor), and the 4-form is

      omega = omega_i^2 + omega_j^2 + omega_k^2.

With these conventions the pullback constants through the four standard
embeddings of complex hyperbolic space come out exactly 1/4, 11/64, 1/16, 0
relative to the square of the base Kahler form.  The opposite identification
q = x + j*y swaps which embedding carries the extreme constant.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm

from .scalars import FieldElem, Quat, ZERO, I, QUAT_UNITS, _raw, as_scalar
from .linalg import Matrix, herm_form


class TangentVec(Matrix):
    """p x q block A of a symmetric-pair tangent vector at the base point.

    A Matrix whose sums, negatives and scalar multiples stay tangent vectors;
    it adds only real scaling.
    """

    __slots__ = ()

    def scale(self, s) -> "TangentVec":
        """Real scalar multiple (the tangent space is a real vector space)."""
        s = as_scalar(s)
        if s is NotImplemented:
            raise TypeError("scale expects a real scalar")
        if not s.is_real():
            raise ValueError("scale by a non-real scalar; J(A) is A * I")
        return self * s


def _check_same_shape(*vecs):
    p, q = vecs[0].rows, vecs[0].cols
    for v in vecs[1:]:
        if (v.rows, v.cols) != (p, q):
            raise ValueError("tangent vectors have mismatched shapes")


def _check_quaternionic(*vecs):
    _check_same_shape(*vecs)
    if vecs[0].cols != 2:
        raise ValueError("quaternionic coordinates need exactly 2 columns")


def _hermitian(x: TangentVec, y: TangentVec) -> FieldElem:
    """Tr(Y* X) = sum of x_ab conj(y_ab) over the entries, of any width: the
    Hermitian form of ``herm_form`` on the flattened blocks, every sign +1."""
    flat_x = [a for row in x.entries for a in row]
    flat_y = [b for row in y.entries for b in row]
    return herm_form(flat_x, flat_y, (1,) * len(flat_x))


def metric_g0(x: TangentVec, y: TangentVec) -> FieldElem:
    """g0(X, Y) = 4 Re Tr(B* A); real, symmetric, positive definite."""
    _check_same_shape(x, y)
    return (_hermitian(x, y) * 4).real_part()


def to_quat(x: TangentVec) -> tuple:
    """Identify a 2n x 2 block (x | y) with the quaternion vector x + y*j,
    returned as a tuple of Quat."""
    _check_quaternionic(x)
    return tuple(Quat(z, w) for z, w in x.entries)


def kahler_form(x: TangentVec, y: TangentVec) -> FieldElem:
    """Omega0 = 4 omega_i: Omega0(X, Y) = g0(JX, Y) = 4 Re(i Tr(Y* X)), for
    blocks of any width; antisymmetric and real.  It takes Tr(Y* X) from
    ``linalg.herm_form``, a kernel apart from the pairing table of
    ``unit_wedge_squares``, so it checks Omega0^2 = 16 omega_i^2
    independently."""
    _check_same_shape(x, y)
    return (_hermitian(x, y) * I).real_part() * 4


def _mul(x, y) -> tuple:
    """Integer coordinates of x*y for coordinate 4-tuples x, y of Q(i, sqrt2)."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    # sqrt2*sqrt2 = 2, i*i = -1, (i*sqrt2)^2 = -2
    return (a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)


def _coordinate_rows(vecs) -> tuple:
    """The 2-column blocks' rows as coordinate 4-tuples over one common
    denominator, with None for a zero entry, and that denominator."""
    den = lcm(*(e.den for v in vecs for row in v.entries for e in row))
    return [[[(e.na * (den // e.den), e.nb * (den // e.den),
               e.nc * (den // e.den), e.nd * (den // e.den)) if e else None
              for e in row] for row in v.entries] for v in vecs], den


def _unit_pairings(rows_x, rows_y) -> tuple:
    """(omega_i, omega_j, omega_k)(X, Y) on coordinate rows (z, w), each a
    real coordinate 4-tuple (rational part, 0, sqrt2 part, 0) of numerators
    over the square of the rows' denominator.  omega_i = Re(i Tr(Y* X)) =
    Im sum conj(x) y over the entries, and with t = -s = sum (z_X w_Y -
    w_X z_Y), omega_j = Re t and omega_k = Im t.  Every product is ``_mul``;
    a term with a zero factor is skipped."""
    hb = hd = ta = tb = tc = td = 0
    for (z_x, w_x), (z_y, w_y) in zip(rows_x, rows_y):
        if z_x and z_y:
            a, b, c, d = z_x
            _, pb, _, pd = _mul((a, -b, c, -d), z_y)
            hb += pb
            hd += pd
        if w_x and w_y:
            a, b, c, d = w_x
            _, pb, _, pd = _mul((a, -b, c, -d), w_y)
            hb += pb
            hd += pd
        if z_x and w_y:
            pa, pb, pc, pd = _mul(z_x, w_y)
            ta += pa
            tb += pb
            tc += pc
            td += pd
        if w_x and z_y:
            pa, pb, pc, pd = _mul(w_x, z_y)
            ta -= pa
            tb -= pb
            tc -= pc
            td -= pd
    return (hb, 0, hd, 0), (ta, 0, tc, 0), (tb, 0, td, 0)


_UNITS = {"i": 0, "j": 1, "k": 2}


def omega_unit(x: TangentVec, y: TangentVec, unit: str) -> FieldElem:
    """omega_u(X, Y) = Re(q_X . conj(q_Y) u); antisymmetric, real-valued."""
    _check_quaternionic(x, y)
    (rows_x, rows_y), den = _coordinate_rows((x, y))
    return _raw(*_unit_pairings(rows_x, rows_y)[_UNITS[unit]], den * den)


def wedge_square_eval(form, x, y, z, w):
    """(alpha ^ alpha)(X,Y,Z,W) by the three-term matching expansion."""
    return (form(x, y) * form(z, w)
            - form(x, z) * form(y, w)
            + form(x, w) * form(y, z))


def unit_wedge_squares(x: TangentVec, y: TangentVec, z: TangentVec,
                       w: TangentVec) -> tuple:
    """(omega_i^2, omega_j^2, omega_k^2)(X, Y, Z, W), the three unit wedge
    squares.  One pairing table: the rows are converted to integer
    coordinates once, and both pairings of each of the six pairs are
    computed once over them."""
    _check_quaternionic(x, y, z, w)
    blocks, den = _coordinate_rows((x, y, z, w))
    # per pair (X,Y), (X,Z), (X,W), (Y,Z), (Y,W), (Z,W): the three forms
    table = [_unit_pairings(blocks[a], blocks[b])
             for a, b in combinations(range(4), 2)]
    out = []
    for xy, xz, xw, yz, yw, zw in zip(*table):
        p1, _, q1, _ = _mul(xy, zw)
        p2, _, q2, _ = _mul(xz, yw)
        p3, _, q3, _ = _mul(xw, yz)
        out.append(_raw(p1 - p2 + p3, 0, q1 - q2 + q3, 0, den ** 4))
    return tuple(out)


def omega4(x: TangentVec, y: TangentVec, z: TangentVec, w: TangentVec) -> FieldElem:
    """The quaternionic 4-form omega_i^2 + omega_j^2 + omega_k^2."""
    ii, jj, kk = unit_wedge_squares(x, y, z, w)
    return ii + jj + kk


# The three generators whose adjoint action realizes right quaternion
# multiplication on the tangent space: conjugating [[0,A],[A*,0]] by the
# group element diag(I_2n, u*) sends A to A*u.
_SU2_GENERATORS = {
    "i": Matrix([[I, ZERO], [ZERO, -I]]),
    "j": Matrix([[ZERO, FieldElem(1)], [FieldElem(-1), ZERO]]),
    "k": Matrix([[ZERO, I], [I, ZERO]]),
}


def su2_action_check(unit: str, x: TangentVec) -> bool:
    """Adjoint action of the unit's generator == right multiplication by it."""
    acted = x @ _SU2_GENERATORS[unit]
    u = QUAT_UNITS[unit]
    return to_quat(acted) == tuple(q * u for q in to_quat(x))
