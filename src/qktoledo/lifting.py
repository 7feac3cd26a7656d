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
identity h_W(E(a.b), E(c.d)) = (h(a,c) h(b,d) + h(a,d) h(b,c)) / 2 of the
E-map ``sym_to_e_coords(sym_product(a, b))`` from ``embeddings`` makes each
product a sum of terms with a factor h(v0, u_i) in C^{2,1}, zero because the
``negative_line_basis`` vectors u_i are orthogonal to v0 (a nonzero one
raises).  So three facts the selftest checks fix both lift-check verdicts
before any sample is drawn: ``_TWISTOR_OFF`` reads both a1 and a2, so no
a != 0 lifts to the twistor space; ``_FLAG_OFF`` is empty; and the
``e_map_certificate`` identity holds, so every flag sample is horizontal.
The same identity gives each flag part's Gram matrix in closed form, so
``period_triple`` reads its definiteness off it; it writes each part's reduced
row echelon basis out in closed form too, so it eliminates nothing.

The checks return plain values.  ``twistor_nonlift_check`` returns the
entries that leave the twistor pattern as 1-based (row, col, value) triples
in the E-basis, so (1, 5) is the E1-row, E5-column entry; an empty tuple
means the image is in the pattern.  Both pattern checks read
``_IOTA_SUPPORT``, the six nonzero entries of the image, and evaluate only
the entries outside the grading mask: three for the twistor grading, none
for the flag grading.  ``iota_star_bplus`` builds the dense matrix from the
same table.  ``period_triple`` returns the flag as (name, rows,
definiteness) triples named S2Lperp, L2 and LoLperp, the rows a part's rref
basis as a tuple of 6-tuples.  ``classify`` is the one linearity
classification of a differential: it evaluates the map on the real basis
once and returns every component verdict, the two column verdicts and the
twistor-lift condition.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .scalars import ZERO, ONE, I, SQRT2, HALF_SQRT2
from .linalg import Matrix, _coerce_row, herm_form, unit_vector
from .embeddings import (BALL_SIG, W_SIG, EmbeddingDiff, sym_product,
                         sym_to_e_coords)

TWISTOR_H = (0, 0, 0, 0, 1, -1)
PERIOD_FLAG_H = (1, 1, -3, 1, 0, 0)


def grading_mask(h) -> frozenset:
    """1-based (row, col) positions where ad(diag(h)) has a positive eigenvalue."""
    hs = tuple(Fraction(x) for x in h)
    return frozenset((r + 1, c + 1) for r, hr in enumerate(hs)
                     for c, hc in enumerate(hs) if hr > hc)


# The support of the image iota_star_bplus(a), as 1-based ((row, col), k,
# halve) in row-major order: the entry is a_k, or a_k/sqrt2 when halve is
# set, and every other entry is zero.
_IOTA_SUPPORT = (((1, 5), 1, False), ((2, 6), 2, False), ((4, 5), 2, True),
                 ((4, 6), 1, True), ((5, 3), 1, False), ((6, 3), 2, False))


def iota_star_bplus(a) -> Matrix:
    """Symmetric-square image of the holomorphic tangent vector for a.

    Closed form of the complex-linear extension (L(X_a) - i * L(X_{ia})) / 2
    of the Leibniz differential, with the off-diagonal blocks in the
    bounded-domain chart normalization: the diagonal blocks vanish, the
    top-right 4 x 2 block has rows (a1, 0), (0, a2), (0, 0),
    (a2/sqrt2, a1/sqrt2), and the bottom-left 2 x 4 block has rows
    (0, 0, a1, 0), (0, 0, a2, 0).  Built from ``_IOTA_SUPPORT``.
    """
    rows = [[ZERO] * 6 for _ in range(6)]
    for r, c, x in _pattern_violations(a, _IOTA_SUPPORT):
        rows[r - 1][c - 1] = x
    return Matrix(rows)


def _pattern_violations(a, off) -> tuple:
    """Nonzero entries of the image for a at the support entries off, as
    1-based (row, col, value) triples in the order of off."""
    a1, a2 = _coerce_row(a)
    return tuple((r, c, x * HALF_SQRT2 if halve else x)
                 for (r, c), k, halve in off if (x := a1 if k == 1 else a2))


# the support entries outside each grading mask; the flag set is empty, so
# the image always lies in the flag pattern
_TWISTOR_OFF, _FLAG_OFF = (
    tuple(entry for entry in _IOTA_SUPPORT if entry[0] not in mask)
    for mask in map(grading_mask, (TWISTOR_H, PERIOD_FLAG_H)))


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


def classify_linearity(alphas, betas) -> str:
    """Classify one scalar component of a differential L from its values
    alphas on e_1..e_n and betas on i*e_1..i*e_n.

    Tests L(i e_k) = i L(e_k) (linear) and L(i e_k) = -i L(e_k)
    (conjugate-linear) across the domain basis; identically zero components
    report "zero".  Given the values of several components at once, it
    classifies them together: a zero component satisfies both identities.
    """
    if not any(alphas) and not any(betas):
        return ZERO_MAP
    if all(b == I * a for a, b in zip(alphas, betas)):
        return LINEAR
    if all(b == -I * a for a, b in zip(alphas, betas)):
        return CONJUGATE_LINEAR
    return NEITHER


def classify(embedding: EmbeddingDiff) -> tuple:
    """Linearity classification of a differential with two columns.

    Returns (components, columns, condition): the verdict of every
    component as a 1-based (column, row, verdict) triple in column-major
    order, the verdicts of the two columns (each over the values of all its
    rows), and the necessary condition for a holomorphic twistor lift, first
    column conjugate-linear and second column linear (zero components
    permitted).
    """
    n = embedding.n
    images = [embedding(unit_vector(n, k, s)) for s in (ONE, I) for k in range(n)]
    all_rows = range(images[0].rows)

    def verdict(col, rows):
        return classify_linearity([x[r, col] for x in images[:n] for r in rows],
                                  [x[r, col] for x in images[n:] for r in rows])

    components = tuple((col + 1, row + 1, verdict(col, (row,)))
                       for col in (0, 1) for row in all_rows)
    first, second = columns = tuple(verdict(col, all_rows) for col in (0, 1))
    condition = first in (CONJUGATE_LINEAR, ZERO_MAP) and second in (LINEAR, ZERO_MAP)
    return components, columns, condition


# -- the flag of a negative line ----------------------------------------------

def is_negative(v) -> bool:
    """True iff h(v, v) < 0 for the (2,1) form: the one negativity decision."""
    return herm_form(v, v, BALL_SIG).real_sign() < 0


def negative_line_basis(v):
    """v as a vector of C^{2,1}, with the rref basis of its orthocomplement.

    v is negative, so v2 != 0, and h(x, v) = x0 conj(v0) + x1 conj(v1)
    - x2 conj(v2) vanishes on (1, 0, conj(v0/v2)) and (0, 1, conj(v1/v2)).
    Both third coordinates are read off the one inverse of conj(v2); when
    v2 = 1 the basis is (1, 0, conj(v0)), (0, 1, conj(v1)).
    """
    vec = _coerce_row(v)
    if len(vec) != 3:
        raise ValueError("expected a vector in C^{2,1}")
    if not is_negative(vec):
        raise ValueError("the vector must be negative for the (2,1) form")
    v0, v1, v2 = vec
    inv = v2.conj().inverse()
    return vec, ((ONE, ZERO, v0.conj() * inv), (ZERO, ONE, v1.conj() * inv))


# each flag component: its name and the definiteness of its Gram matrix
_FLAG_PARTS = (("S2Lperp", "positive"), ("L2", "positive"), ("LoLperp", "negative"))


def period_triple(v) -> tuple:
    """The flag of the negative line through v: (name, rows, definiteness)
    triples in W, in the order S2Lperp (Sym^2 of the orthocomplement), L2
    (square of the line), LoLperp (mixed plane); rows is the part's reduced
    row echelon basis, a tuple of 6-tuples.

    Each part is spanned by the E-coordinates of its products: u1.u1,
    u1.u2, u2.u2; v.v; v.u1, v.u2, with u1 = (1, 0, c0), u2 = (0, 1, c1)
    the orthocomplement basis of ``negative_line_basis``.  A reduced row
    echelon basis is unique per span, so the rows are written out as the
    rref of those products, and nothing is eliminated here.

    When v0 v1 != 0 every inverse comes from i0 = 1/v0 and i1 = 1/v1, since
    1/c0 = conj(v2 i0) and 1/c1 = conj(v2 i1).  With h = 1/sqrt2, t = v1 i0,
    u = v2 i0, s = v0 i1 and w = v2 i1, so that c0/c1 = conj(s) and c1/c0 =
    conj(t): L2 is E(v.v)/v0^2 = (1, t^2, u^2, sqrt2 t, sqrt2 u, sqrt2 t u);
    LoLperp is E(v.u1)/v0 and E(v.u2)/v1, pivots E1 and E2; S2Lperp is
    E(u1.u1) and E(u2.u2), pivots E1 and E2, with their E3 entries cleared
    by E(u1.u2)/(c0 c1) = (0, 0, 1, p, c1 p, c0 p), p = h conj(u w).  That
    clearing is the one elimination the generic case needs.  When v0 = 0 or
    v1 = 0, so that c0 = 0 or c1 = 0, no product of a part has a nonzero
    entry in the leading column of another, so each part's rref is its
    products, each scaled by the inverse of its leading entry, in pivot
    order.

    The definiteness is read off the identity of ``e_map_certificate``
    with h(v, u_i) = 0: the Gram matrix of L2 is h(v,v)^2 > 0, that of
    LoLperp is h(v,v) h(u_i,u_j) / 2, and that of S2Lperp is Sym^2 of the
    Gram matrix h(u_i,u_j).  By Sylvester's law the orthocomplement of a
    negative v in signature (2,1) is positive definite, so S2Lperp and L2
    are positive and LoLperp is negative.  The other premises are checked
    here: a v that is not negative, a basis u_i not orthogonal to v, or a
    failing certificate raises ValueError.
    """
    (v0, v1, v2), ((_, _, c0), (_, _, c1)) = _orthocomplement(v)
    failure = e_map_certificate()
    if failure is not None:
        raise ValueError(f"the E-map identity fails: {e_map_failure(failure)}")
    if v0 and v1:
        rows = _generic_flag(v0, v1, v2, c0, c1)
    else:
        rows = _special_flag(v0, v1, v2, c0, c1)
    return tuple((name, part, definiteness)
                 for (name, definiteness), part in zip(_FLAG_PARTS, rows))


def _generic_flag(v0, v1, v2, c0, c1) -> tuple:
    """The three rref bases of ``period_triple`` when v0 v1 != 0."""
    i0, i1 = v0.inverse(), v1.inverse()
    t, u, s, w = v1 * i0, v2 * i0, v0 * i1, v2 * i1
    q01, q10 = s.conj(), t.conj()
    h = HALF_SQRT2
    hc0, hc1, ht, hs = h * c0, h * c1, h * t, h * s
    p = h * (u * w).conj()
    st = SQRT2 * t
    return (
        ((ONE, ZERO, ZERO, -(h * q01), hc0, -(hc0 * q01)),
         (ZERO, ONE, ZERO, -(h * q10), -(hc1 * q10), hc1),
         (ZERO, ZERO, ONE, p, c1 * p, c0 * p)),
        ((ONE, t * t, u * u, st, SQRT2 * u, st * u),),
        ((ONE, ZERO, c0 * u, ht, h * (u + c0), ht * c0),
         (ZERO, ONE, c1 * w, hs, hs * c1, h * (w + c1))),
    )


def _special_flag(v0, v1, v2, c0, c1) -> tuple:
    """The three rref bases of ``period_triple`` when v0 = 0 or v1 = 0."""
    s0, s1, s01 = SQRT2 * c0, SQRT2 * c1, SQRT2 * (c0 * c1)
    w0, w1 = SQRT2 * v0, SQRT2 * v1
    products = (
        # E(u1.u1), sqrt2 E(u1.u2), E(u2.u2)
        ((ONE, ZERO, c0 * c0, ZERO, s0, ZERO),
         (ZERO, ZERO, s01, ONE, c1, c0),
         (ZERO, ONE, c1 * c1, ZERO, ZERO, s1)),
        # E(v.v)
        ((v0 * v0, v1 * v1, v2 * v2, w0 * v1, w0 * v2, w1 * v2),),
        # sqrt2 E(v.u1), sqrt2 E(v.u2)
        ((w0, ZERO, s0 * v2, v1, v2 + v0 * c0, v1 * c0),
         (ZERO, w1, s1 * v2, v0, v0 * c1, v2 + v1 * c1)),
    )
    return tuple(map(_scaled_in_pivot_order, products))


def _scaled_in_pivot_order(gens) -> tuple:
    """Each generator times the inverse of its leading entry, ordered by
    the column of that entry: the rref when no generator has a nonzero
    entry in another's leading column."""
    rows = []
    for gen in gens:
        k = next(k for k, x in enumerate(gen) if x)
        inv = gen[k].inverse()
        rows.append((k, tuple(x * inv for x in gen)))
    return tuple(row for _, row in sorted(rows, key=lambda kr: kr[0]))


# -- horizontality along first-order curves ------------------------------------

@functools.cache
def e_map_certificate():
    """Check h_W(E(a.b), E(c.d)) = (h(a,c) h(b,d) + h(a,d) h(b,c)) / 2 on
    the 6 x 6 ordered pairs of basis products, once per process.

    E is ``sym_to_e_coords(sym_product(a, b))``, the E-map of ``embeddings``
    that defines W's basis, and h the (2,1) form.  Both sides are bilinear
    in (a, b), conjugate-bilinear in (c, d) and symmetric within each pair,
    so agreement on the products e_i.e_j (i <= j), each mapped once, proves
    the identity on all of C^{2,1}.  Returns None, or the first pair that
    disagrees as 1-based ((i, j), (k, l), got, want).
    """
    basis = [unit_vector(3, k) for k in range(3)]
    h = [[herm_form(x, y, BALL_SIG) for y in basis] for x in basis]
    products = [((i, j), sym_to_e_coords(sym_product(basis[i], basis[j])))
                for i in range(3) for j in range(i, 3)]
    for (i, j), p in products:
        for (k, l), q in products:
            got = herm_form(p, q, W_SIG)
            want = (h[i][k] * h[j][l] + h[i][l] * h[j][k]) * Fraction(1, 2)
            if got != want:
                return (i + 1, j + 1), (k + 1, l + 1), got, want
    return None


def e_map_failure(failure) -> str:
    """The text naming a failing pair of ``e_map_certificate``."""
    (i, j), (k, l), got, want = failure
    return f"h_W(E(e{i}.e{j}), E(e{k}.e{l})): got {got}, want {want}"


def _orthocomplement(v):
    """``negative_line_basis(v)``, with h(v, u_i) = 0 checked: the products
    ``period_triple`` and ``horizontality_check`` read off the E-map
    identity drop every term with that factor, so a nonzero one is a wrong
    basis and raises ValueError."""
    vec, basis = negative_line_basis(v)
    if any(herm_form(vec, u, BALL_SIG) for u in basis):
        raise ValueError("the orthocomplement basis is not orthogonal to the line")
    return vec, basis


def horizontality_check(v0, w) -> bool:
    """True iff the induced flag motion along the line curve v0 + t*w is
    horizontal to first order: each derivative of one fiber part must be
    orthogonal to the generators of the other.

    The basis u_i of ``negative_line_basis`` moves as u_i + t*c_i*v0 with
    c_i = -h(u_i, w)/h(v0, v0).  By the identity of ``e_map_certificate``,
    each product of one moving fiber part with the other has a factor
    p_i = h(v0, u_i) or its conjugate in every term.  The u_i are built
    orthogonal to v0, so a nonzero p_i is a wrong basis and raises
    ValueError; otherwise the motion is horizontal exactly when the
    certificate holds.  The check has two parts that a caller can also run
    apart: ``_orthocomplement`` decides the line (negativity and the basis
    guard) and ``horizontality_along`` the direction (h(v0, w) = 0, then
    the certificate); lift-check runs the first once per distinct line and
    the second once per sample.
    """
    v0 = _coerce_row(v0)
    # the direction's guards raise first, so a v0 of the wrong length fails
    # against the signature in herm_form
    horizontal = horizontality_along(v0, w)
    _orthocomplement(v0)
    return horizontal


def horizontality_along(v0, w) -> bool:
    """The per-direction part of ``horizontality_check``, for a line v0
    that ``_orthocomplement`` has already checked: raise ValueError unless
    w is a vector of C^{2,1} orthogonal to v0, then return the verdict,
    which is the certificate's."""
    w = _coerce_row(w)
    if len(w) != 3:
        raise ValueError("expected a vector in C^{2,1}")
    if herm_form(v0, w, BALL_SIG):
        raise ValueError("the curve direction must be orthogonal to the line")
    return e_map_certificate() is None
