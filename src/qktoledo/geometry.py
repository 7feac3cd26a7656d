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
  Re(i Tr(Y* X)), omega_j = -Re s and omega_k = Re(i s) are read off two
  complex sums; the quaternion product is the tests' oracle for them.  Both
  sums skip a term with a zero factor (the embedded basis quadruple is
  nonzero only in its first four rows), and omega4 computes each once per
  pair of its quadruple;
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

from .scalars import (FieldElem, Quat, ZERO, I, QUAT_UNITS, as_scalar)
from .linalg import Matrix


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
            raise ValueError("scale by a non-real scalar; use complex_structure_j")
        return self * s


def complex_structure_j(x: TangentVec) -> TangentVec:
    """J(A) = i*A; squares to minus the identity."""
    return x * I


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
    """Tr(Y* X) = sum of x_ab conj(y_ab) over the entries, of any width, where
    both factors are nonzero."""
    return sum((a * b.conj() for row_x, row_y in zip(x.entries, y.entries)
                for a, b in zip(row_x, row_y) if a and b), ZERO)


def _symplectic(x: TangentVec, y: TangentVec) -> FieldElem:
    """s = sum_m (w_X z_Y - z_X w_Y) over the rows (z, w) of 2-column blocks;
    a term with a zero factor is skipped."""
    acc = ZERO
    for (z_x, w_x), (z_y, w_y) in zip(x.entries, y.entries):
        if w_x and z_y:
            acc = acc + w_x * z_y
        if z_x and w_y:
            acc = acc - z_x * w_y
    return acc


def metric_g0(x: TangentVec, y: TangentVec) -> FieldElem:
    """g0(X, Y) = 4 Re Tr(B* A); real, symmetric, positive definite."""
    _check_same_shape(x, y)
    return (_hermitian(x, y) * 4).real_part()


def to_quat(x: TangentVec) -> tuple:
    """Identify a 2n x 2 block (x | y) with the quaternion vector x + y*j,
    returned as a tuple of Quat."""
    _check_quaternionic(x)
    return tuple(Quat(z, w) for z, w in x.entries)


# each unit form as (its complex pairing, how the form reads that pairing)
_UNIT_FORMS = {
    "i": (_hermitian, lambda h: (h * I).real_part()),
    "j": (_symplectic, lambda s: -s.real_part()),
    "k": (_symplectic, lambda s: (s * I).real_part()),
}


def kahler_form(x: TangentVec, y: TangentVec) -> FieldElem:
    """Omega0 = 4 omega_i: Omega0(X, Y) = g0(JX, Y) = 4 Re(i Tr(Y* X)), read
    off the i-pairing of omega_i for blocks of any width; antisymmetric and
    real."""
    _check_same_shape(x, y)
    pairing, read = _UNIT_FORMS["i"]
    return read(pairing(x, y)) * 4


def omega_unit(x: TangentVec, y: TangentVec, unit: str) -> FieldElem:
    """omega_u(X, Y) = Re(q_X . conj(q_Y) u); antisymmetric, real-valued."""
    _check_quaternionic(x, y)
    pairing, read = _UNIT_FORMS[unit]
    return read(pairing(x, y))


def wedge_square_eval(form, x, y, z, w):
    """(alpha ^ alpha)(X,Y,Z,W) by the three-term matching expansion."""
    return (form(x, y) * form(z, w)
            - form(x, z) * form(y, w)
            + form(x, w) * form(y, z))


def omega4(x: TangentVec, y: TangentVec, z: TangentVec, w: TangentVec) -> FieldElem:
    """The quaternionic 4-form omega_i^2 + omega_j^2 + omega_k^2; both
    pairings of each of the six pairs, keyed by slot index, are computed once."""
    _check_quaternionic(x, y, z, w)
    vecs = (x, y, z, w)
    pairings = {(a, b): {p: p(vecs[a], vecs[b]) for p in (_hermitian, _symplectic)}
                for a, b in combinations(range(4), 2)}
    total = ZERO
    for pairing, read in _UNIT_FORMS.values():
        total = total + wedge_square_eval(
            lambda a, b: read(pairings[a, b][pairing]), 0, 1, 2, 3)
    return total


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
