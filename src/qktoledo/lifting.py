"""Period-domain checks for the symmetric square embedding.

A flag domain of SU(4,2) carries the complex structure whose holomorphic
tangent space is the positive eigenspace of ad(H) for a grading element
H = diag(h); ``grading_mask`` gives the set of matrix positions that allows.
Two gradings are used:

* twistor grading (0,0,0,0,1,-1): the holomorphic-lift obstruction lives in
  the off-diagonal blocks, and the image of the holomorphic ball tangent
  under the symmetric square always leaves the holomorphic pattern, so no
  holomorphic horizontal lift to the twistor space exists;
* flag grading (1,1,-3,1,0,0): the same image always stays inside the
  holomorphic pattern, and first-order curve calculus shows the induced map
  of flags (Sym^2 of the orthocomplement, square of the line, mixed plane)
  is horizontal, so the lift to that period domain exists.

The three flag parts are mutually orthogonal and non-degenerate for the form
of W, of dimensions 3 + 1 + 2 = 6, so they span W and each fiber part plus
the mixed plane is exactly the orthocomplement of the other fiber part.
Horizontality is therefore decided by Hermitian products alone, and the
identity h_W(E(a.b), E(c.d)) = (h(a,c) h(b,d) + h(a,d) h(b,c)) / 2 turns
each product into a combination of h(v0, u_i) and h(w, u_i) in C^{2,1}.  A
flag PASS thus rests on two facts: that identity, which
``e_map_certificate`` checks on the basis products once per process, and the
orthogonality of the ``negative_line_basis`` vectors u_i to v0, which
``horizontality_check`` evaluates on the concrete inputs of every sample.

The checks return plain values.  ``twistor_nonlift_check`` returns the
entries that leave the twistor pattern as 1-based (row, col, value) triples
in the E-basis, so (1, 5) is the E1-row, E5-column entry; an empty tuple
means the image is in the pattern.  ``period_triple`` returns the flag as
(name, Subspace) pairs named S2Lperp, L2 and LoLperp.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .scalars import ZERO, ONE, I, HALF_SQRT2
from .linalg import Matrix, Subspace, _coerce_row, herm_form, unit_vector
from .embeddings import BALL_SIG, W_SIG, EmbeddingDiff

TWISTOR_H = (0, 0, 0, 0, 1, -1)
PERIOD_FLAG_H = (1, 1, -3, 1, 0, 0)


def grading_mask(h) -> frozenset:
    """1-based (row, col) positions where ad(diag(h)) has a positive eigenvalue."""
    hs = tuple(Fraction(x) for x in h)
    return frozenset((r + 1, c + 1) for r, hr in enumerate(hs)
                     for c, hc in enumerate(hs) if hr > hc)


def iota_star_bplus(a) -> Matrix:
    """Symmetric-square image of the holomorphic tangent vector for a.

    Closed form of the complex-linear extension (L(X_a) - i * L(X_{ia})) / 2
    of the Leibniz differential, with the off-diagonal blocks in the
    bounded-domain chart normalization: the diagonal blocks vanish, the
    top-right 4 x 2 block has rows (a1, 0), (0, a2), (0, 0),
    (a2/sqrt2, a1/sqrt2), and the bottom-left 2 x 4 block has rows
    (0, 0, a1, 0), (0, 0, a2, 0).
    """
    a1, a2 = _coerce_row(a)
    z = ZERO
    return Matrix([
        [z, z, z, z, a1, z],
        [z, z, z, z, z, a2],
        [z, z, z, z, z, z],
        [z, z, z, z, a2 * HALF_SQRT2, a1 * HALF_SQRT2],
        [z, z, a1, z, z, z],
        [z, z, a2, z, z, z],
    ])


# 1-based (row, col) positions of the 6 x 6 image outside each grading mask,
# in row-major order
_TWISTOR_OFF, _FLAG_OFF = (
    tuple((r, c) for r in range(1, 7) for c in range(1, 7) if (r, c) not in mask)
    for mask in map(grading_mask, (TWISTOR_H, PERIOD_FLAG_H)))


def _pattern_violations(a, off) -> tuple:
    """Nonzero entries of the image for a at the positions off.

    1-based (row, col, value) triples in the order of off.
    """
    entries = iota_star_bplus(a).entries
    return tuple((r, c, value) for r, c in off
                 if (value := entries[r - 1][c - 1]))


def twistor_nonlift_check(a) -> tuple:
    """The entries of the symmetric-square image for a that leave the twistor
    holomorphic pattern, as 1-based (row, col, value) triples in row-major
    order.

    An empty tuple means the image is in the pattern.  For every a != 0 the
    tuple is nonempty, and its entries all lie in the off-diagonal blocks.
    """
    return _pattern_violations(a, _TWISTOR_OFF)


def holomorphy_check_u3u1u2(a) -> bool:
    """True iff the symmetric-square image respects the flag grading."""
    return not _pattern_violations(a, _FLAG_OFF)


# -- linearity classification -------------------------------------------------

LINEAR, CONJUGATE_LINEAR, ZERO_MAP, NEITHER = (
    "linear", "conjugate_linear", "zero", "neither")


def _check_index(value, what: str, top: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) \
            or not 1 <= value <= top:
        raise ValueError(f"{what} must be in 1..{top}, got {value!r}")


def classify_linearity(embedding: EmbeddingDiff, column: int, row: int) -> str:
    """Classify one scalar component of a differential (1-based column, row).

    Tests L(i e_k) = i L(e_k) (linear) and L(i e_k) = -i L(e_k)
    (conjugate-linear) across the domain basis; identically zero components
    report "zero".
    """
    n, first = embedding.n, embedding.values[0]
    _check_index(column, "column", first.cols)
    _check_index(row, "row", first.rows)
    alphas = [embedding.values[k][row - 1, column - 1] for k in range(n)]
    betas = [embedding.values[n + k][row - 1, column - 1] for k in range(n)]
    if all(x.is_zero() for x in alphas + betas):
        return ZERO_MAP
    if all(b == I * a for a, b in zip(alphas, betas)):
        return LINEAR
    if all(b == -I * a for a, b in zip(alphas, betas)):
        return CONJUGATE_LINEAR
    return NEITHER


def fold_column(verdicts) -> str:
    """The verdict of a column from the verdicts of its components."""
    verdicts = set(verdicts)
    if verdicts == {ZERO_MAP}:
        return ZERO_MAP
    if verdicts <= {LINEAR, ZERO_MAP}:
        return LINEAR
    if verdicts <= {CONJUGATE_LINEAR, ZERO_MAP}:
        return CONJUGATE_LINEAR
    return NEITHER


def fold_lift_condition(first: str, second: str) -> bool:
    """Necessary condition for a holomorphic twistor lift from the two
    column verdicts: first column conjugate-linear, second column linear
    (zero components permitted)."""
    return first in (CONJUGATE_LINEAR, ZERO_MAP) and second in (LINEAR, ZERO_MAP)


def classify_column(embedding: EmbeddingDiff, column: int) -> str:
    rows = embedding.values[0].rows
    return fold_column(classify_linearity(embedding, column, r)
                       for r in range(1, rows + 1))


def twistor_lift_condition(embedding: EmbeddingDiff) -> bool:
    """``fold_lift_condition`` of the embedding's two columns."""
    return fold_lift_condition(classify_column(embedding, 1),
                               classify_column(embedding, 2))


# -- the flag of a negative line ----------------------------------------------

def negative_line_basis(v):
    """v as a vector of C^{2,1}, with the rref basis of its orthocomplement.

    v is negative, so v2 != 0, and h(x, v) = x0 conj(v0) + x1 conj(v1)
    - x2 conj(v2) vanishes on (1, 0, conj(v0/v2)) and (0, 1, conj(v1/v2)).
    """
    vec = _coerce_row(v)
    if len(vec) != 3:
        raise ValueError("expected a vector in C^{2,1}")
    if herm_form(vec, vec, BALL_SIG).real_sign() >= 0:
        raise ValueError("the vector must be negative for the (2,1) form")
    v0, v1, v2 = vec
    return vec, ((ONE, ZERO, (v0 / v2).conj()), (ZERO, ONE, (v1 / v2).conj()))


def _e_product(x, y):
    """E-coordinates of the symmetric product x.y of two vectors of C^3:
    x0y0, x1y1, x2y2, (x0y1 + x1y0)/sqrt2, (x2y0 + x0y2)/sqrt2,
    (x2y1 + x1y2)/sqrt2."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    return (x0 * y0, x1 * y1, x2 * y2,
            (x0 * y1 + x1 * y0) * HALF_SQRT2,
            (x2 * y0 + x0 * y2) * HALF_SQRT2,
            (x2 * y1 + x1 * y2) * HALF_SQRT2)


# the factor pairs spanning each flag component, indexing (line, u1, u2)
_FLAG_PAIRS = {
    "S2Lperp": ((1, 1), (1, 2), (2, 2)),
    "L2": ((0, 0),),
    "LoLperp": ((0, 1), (0, 2)),
}


def period_triple(v) -> tuple:
    """The flag of the negative line through v: (name, Subspace) pairs in W,
    in the order S2Lperp (Sym^2 of the orthocomplement), L2 (square of the
    line), LoLperp (mixed plane)."""
    vec, (u1, u2) = negative_line_basis(v)
    factors = (vec, u1, u2)
    return tuple((name, Subspace(6, [_e_product(factors[i], factors[j])
                                     for i, j in pairs]))
                 for name, pairs in _FLAG_PAIRS.items())


# -- horizontality along first-order curves ------------------------------------

@functools.cache
def e_map_certificate():
    """Check h_W(E(a.b), E(c.d)) = (h(a,c) h(b,d) + h(a,d) h(b,c)) / 2 on
    the 6 x 6 pairs of basis products, once per process.

    E is ``_e_product`` and h the (2,1) form.  Both sides are bilinear in
    (a, b), conjugate-bilinear in (c, d) and symmetric within each pair, so
    agreement on the products e_i.e_j (i <= j) proves the identity on all of
    C^{2,1}.  Returns None, or the first pair that disagrees as 1-based
    ((i, j), (k, l), got, want).
    """
    basis = [unit_vector(3, k) for k in range(3)]
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    for i, j in pairs:
        for k, l in pairs:
            a, b, c, d = basis[i], basis[j], basis[k], basis[l]
            got = herm_form(_e_product(a, b), _e_product(c, d), W_SIG)
            want = (herm_form(a, c, BALL_SIG) * herm_form(b, d, BALL_SIG)
                    + herm_form(a, d, BALL_SIG) * herm_form(b, c, BALL_SIG)
                    ) * Fraction(1, 2)
            if got != want:
                return (i + 1, j + 1), (k + 1, l + 1), got, want
    return None


def horizontality_check(v0, w) -> bool:
    """True iff the induced flag motion along the line curve v0 + t*w is
    horizontal to first order: each derivative of one fiber part must be
    orthogonal to the generators of the other.

    The basis u_i of ``negative_line_basis`` moves as u_i + t*c_i*v0 with
    c_i = -h(u_i, w)/h(v0, v0).  By the identity of ``e_map_certificate``,
    with p_i = h(v0, u_i) and q_i = h(w, u_i), the square of the line gives
    h_W(2 E(v0.w), E(u_i.u_j)) = p_i q_j + p_j q_i, and Sym^2 of the
    orthocomplement gives h(v0, v0) (c_i conj(p_j) + c_j conj(p_i)), which is
    -conj(p_i q_j + p_j q_i).  False whenever the certificate fails.
    """
    v0, w = _coerce_row(v0), _coerce_row(w)
    if len(w) != 3:
        raise ValueError("expected a vector in C^{2,1}")
    if herm_form(v0, w, BALL_SIG):
        raise ValueError("the curve direction must be orthogonal to the line")
    vec, basis = negative_line_basis(v0)
    if e_map_certificate() is not None:
        return False
    p, q = ([herm_form(x, u, BALL_SIG) for u in basis] for x in (vec, w))
    return not any(p[i] * q[j] + p[j] * q[i] for i, j in ((0, 0), (0, 1), (1, 1)))
