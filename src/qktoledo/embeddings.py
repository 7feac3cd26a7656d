"""Differentials at the base point of four embeddings of the complex ball.

The ball B = SU(n,1)/S(U(n)xU(1)) sits inside X = SU(2n,2)/S(U(2n)xU(2)) in
four ways, each differential an R-linear map from C^n to 2n x 2 blocks given
by its closed form, with no stored Jacobian:

* ``rho``          row pairs (x_k, 0), (0, x_k): the holomorphic diagonal;
* ``totally_real`` row pairs (x_k, 0), (0, conj(x_k));
* ``phi``          row pairs (x_k, 0), (0, 0): one diagonal factor frozen;
* ``sym_square``   n = 2 only: the symmetric square of the defining
  representation of SU(2,1), landing in SU(4,2).

For the symmetric square, W = Sym^2(C^{2,1}) carries the orthonormal basis

    E1 = e1^2, E2 = e2^2, E3 = e3^2,
    E4 = sqrt2 e1.e2, E5 = sqrt2 e3.e1, E6 = sqrt2 e3.e2

(u.v = (u@v + v@u)/2) of signature (4,2): E1..E4 positive, E5, E6 negative.
The E-map is ``sym_to_e_coords(sym_product(u, v))``, and
``lifting.e_map_certificate`` certifies this E-basis against the ball form.
``sym_square_lie`` is the Leibniz-rule differential in this basis, an honest
Lie algebra homomorphism into su(4,2).  The bounded-domain chart identifies
the base negative plane through the unnormalized vectors e3.e1, e3.e2, which
rescales the off-diagonal blocks by 1/sqrt2; the closed form of that
extraction is ``make_embedding("sym_square")``.  The library computes with
the closed forms (this one and ``lifting.iota_star_bplus``); the Leibniz
differential is the reference the tests compare them against, through the
extraction ``sym_square_p_block`` in ``tests/_helpers.py``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .scalars import ZERO, I, SQRT2, HALF_SQRT2
from .linalg import Matrix, _coerce_row, unit_vector
from .geometry import TangentVec

W_SIG = (1, 1, 1, 1, -1, -1)
BALL_SIG = (1, 1, -1)
_ETA = Matrix.diagonal(BALL_SIG)
_HALF = Fraction(1, 2)


# -- symmetric square of C^{2,1} --------------------------------------------

def sym_product(u, v):
    """Coefficient grid of u.v in the e_i (x) e_j basis; generic in the scalar."""
    return tuple(tuple((u[i] * v[j] + u[j] * v[i]) * _HALF for j in range(3))
                 for i in range(3))


def sym_to_e_coords(grid):
    """Coordinates of a symmetric tensor in the orthonormal basis E1..E6."""
    return (grid[0][0], grid[1][1], grid[2][2],
            SQRT2 * grid[0][1], SQRT2 * grid[2][0], SQRT2 * grid[2][1])


E_BASIS_TENSORS = tuple(
    sym_product(unit_vector(3, i), unit_vector(3, j)) if i == j
    else tuple(tuple(x * SQRT2 for x in row)
               for row in sym_product(unit_vector(3, i), unit_vector(3, j)))
    for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (2, 0), (2, 1))
)


# -- su(2,1) -----------------------------------------------------------------

def su21_p_matrix(a1, a2) -> Matrix:
    """The symmetric-pair element of su(2,1) with top-right column (a1, a2)."""
    a1, a2 = _coerce_row((a1, a2))
    return Matrix([
        [ZERO, ZERO, a1],
        [ZERO, ZERO, a2],
        [a1.conj(), a2.conj(), ZERO],
    ])


def is_su21(m: Matrix) -> bool:
    if (m.rows, m.cols) != (3, 3):
        return False
    if m.trace():
        return False
    return (m.conj_transpose() @ _ETA + _ETA @ m).is_zero()


def sym_square_lie(m: Matrix) -> Matrix:
    """Leibniz differential of g -> g(x)g on Sym^2, in the E-basis.

    A Lie algebra homomorphism su(2,1) -> su(4,2): the result is traceless
    and skew with respect to diag(1,1,1,1,-1,-1).
    """
    if not is_su21(m):
        raise ValueError("input is not an su(2,1) matrix")
    mt = m.transpose()
    columns = []
    for tensor in E_BASIS_TENSORS:
        t = Matrix(tensor)
        image = m @ t + t @ mt
        columns.append(sym_to_e_coords(image.entries))
    return Matrix(columns).transpose()


def _sym_square_rows(a):
    """Closed form of the symmetric-square differential on the ball tangent:
    for a = (a1, a2) the 4 x 2 block has rows (a1, 0), (0, a2),
    (conj(a1), conj(a2)), (a2/sqrt2, a1/sqrt2)."""
    a1, a2 = a
    return ([a1, ZERO], [ZERO, a2], [a1.conj(), a2.conj()],
            [a2 * HALF_SQRT2, a1 * HALF_SQRT2])


# -- the four embedding differentials ----------------------------------------

# closed-form row maps from a complex n-vector to the rows of its image, one
# module function each, so a named embedding copies and pickles as it is

def _rho_rows(x):
    return [r for c in x for r in ([c, ZERO], [ZERO, c])]


def _totally_real_rows(x):
    return [r for c in x for r in ([c, ZERO], [ZERO, c.conj()])]


def _phi_rows(x):
    return [r for c in x for r in ([c, ZERO], [ZERO, ZERO])]


_ROW_MAPS = {"rho": _rho_rows, "totally_real": _totally_real_rows,
             "phi": _phi_rows, "sym_square": _sym_square_rows}


class EmbeddingDiff(namedtuple("EmbeddingDiff", "name n rows_of")):
    """R-linear differential from C^n to 2n x 2 blocks, given by its
    closed-form row map ``rows_of`` from a complex n-vector to the rows of
    its image.  An immutable value of its name, n and row map; it caches
    nothing."""

    __slots__ = ()

    def __repr__(self):
        return f"EmbeddingDiff(name={self.name!r}, n={self.n!r})"

    def __call__(self, x) -> TangentVec:
        comps = _coerce_row(x)
        if len(comps) != self.n:
            raise ValueError(f"expected a complex {self.n}-vector")
        return TangentVec(self.rows_of(comps))


def make_embedding(name: str, n=2) -> EmbeddingDiff:
    """The differential of the named embedding of the n-ball."""
    if name not in _ROW_MAPS:
        raise ValueError(f"unknown embedding {name!r}")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be an int, got {n!r}")
    if name == "sym_square" and n != 2:
        raise ValueError("the symmetric square embedding requires n = 2")
    if n < 1:
        raise ValueError("n must be at least 1")
    return EmbeddingDiff(name, n, _ROW_MAPS[name])


def standard_quadruple(n=2):
    """The basis quadruple (e1, i e1, e2, i e2) of the ball tangent space."""
    if n < 2:
        raise ValueError("the standard quadruple needs n >= 2")
    return (unit_vector(n, 0), unit_vector(n, 0, I),
            unit_vector(n, 1), unit_vector(n, 1, I))

