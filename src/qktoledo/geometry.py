"""Base-point geometry of SU(p,q)/S(U(p)xU(q)) and the quaternionic 4-form.

A tangent vector at the base point is the p x q block A of the symmetric-pair
element [[0, A], [A*, 0]].  Conventions fixed here and used everywhere:

* complex structure: J(A) = i*A;
* metric: g0(X, Y) = 4 Re Tr(B* A), Kahler form Omega0(X, Y) = g0(JX, Y);
* quaternionic coordinates (q = 2 only): row m of A = (x_m, y_m) becomes the
  quaternion x_m + y_m*j, i.e. the identification q = x + y*j;
* the 2-forms omega_u(X, Y) = Re(q_X . conj(q_Y) u) for u in {i, j, k}, with
  q . conj(p) = sum_m q_m conj(p_m);
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


def metric_g0(x: TangentVec, y: TangentVec) -> FieldElem:
    """g0(X, Y) = 4 Re Tr(B* A); real, symmetric, positive definite."""
    _check_same_shape(x, y)
    t = (y.conj_transpose() @ x).trace()
    return (t * 4).real_part()


def kahler_form(x: TangentVec, y: TangentVec) -> FieldElem:
    """Omega0(X, Y) = g0(JX, Y); antisymmetric and real."""
    return metric_g0(complex_structure_j(x), y)


def _pairing(qs, ps) -> Quat:
    """Standard quaternionic Hermitian pairing sum_m q_m conj(p_m)."""
    acc = Quat()
    for q, p in zip(qs, ps):
        acc = acc + q * p.conj()
    return acc


def to_quat(x: TangentVec) -> tuple:
    """Identify a 2n x 2 block (x | y) with the quaternion vector x + y*j,
    returned as a tuple of Quat."""
    if x.cols != 2:
        raise ValueError("quaternionic coordinates need exactly 2 columns")
    return tuple(Quat(z, w) for z, w in x.entries)


def omega_unit(x: TangentVec, y: TangentVec, unit: str) -> FieldElem:
    """omega_u(X, Y) = Re(q_X . conj(q_Y) u); antisymmetric, real-valued."""
    _check_same_shape(x, y)
    pairing = _pairing(to_quat(x), to_quat(y))
    return (pairing * QUAT_UNITS[unit]).re()


def wedge_square_eval(form, x, y, z, w):
    """(alpha ^ alpha)(X,Y,Z,W) by the three-term matching expansion."""
    return (form(x, y) * form(z, w)
            - form(x, z) * form(y, w)
            + form(x, w) * form(y, z))


def omega4(x: TangentVec, y: TangentVec, z: TangentVec, w: TangentVec) -> FieldElem:
    """The quaternionic 4-form omega_i^2 + omega_j^2 + omega_k^2.

    The six quaternionic pairings are computed once and reused across the
    three unit 2-forms; the value agrees with composing wedge_square_eval
    and omega_unit directly.
    """
    _check_same_shape(x, y, z, w)
    qx, qy, qz, qw = (to_quat(v) for v in (x, y, z, w))
    pair = {
        "xy": _pairing(qx, qy), "zw": _pairing(qz, qw),
        "xz": _pairing(qx, qz), "yw": _pairing(qy, qw),
        "xw": _pairing(qx, qw), "yz": _pairing(qy, qz),
    }
    total = ZERO
    for unit in QUAT_UNITS.values():
        f = {key: (p * unit).re() for key, p in pair.items()}
        total = total + (f["xy"] * f["zw"] - f["xz"] * f["yw"]
                         + f["xw"] * f["yz"])
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
