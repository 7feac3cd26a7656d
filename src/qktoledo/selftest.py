"""Fixed golden checks behind the ``selftest`` CLI verb.

Each check recomputes one of the library's documented exact values (pullback
constants, basis images, grading patterns, flag facts, the E-map identity) and
compares it against the frozen expected result.  All comparisons are exact.
The helpers below (ball tangent blocks, the tensor form on Sym^2, the
off-diagonal block positions, the full symmetric-pair matrix) serve only
these checks, so the verbs other than ``selftest`` never compile them.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import FieldElem, Quat, ZERO, ONE, I, HALF_SQRT2, QUAT_J, QUAT_K
from .linalg import Matrix, Subspace, herm_form, unit_vector
from .geometry import (TangentVec, kahler_form, metric_g0, omega4, omega_unit,
                       su2_action_check, to_quat, wedge_square_eval)
from .embeddings import (BALL_SIG, E_BASIS_TENSORS, W_SIG, make_embedding,
                         standard_quadruple, su21_p_matrix, sym_product,
                         sym_to_e_coords)
from .toledo import composition_invariant, pullback_constant
from .lifting import (PERIOD_FLAG_H, TWISTOR_H, classify, e_map_certificate,
                      e_map_failure, grading_mask, holomorphy_check_u3u1u2,
                      negative_line_basis, period_triple, twistor_nonlift_check)


def ball_tangent(x) -> TangentVec:
    """A ball tangent vector as an n x 1 block (for the base Kahler form)."""
    return TangentVec([[c] for c in x])


_TENSOR_SIG = tuple(s_i * s_j for s_i in BALL_SIG for s_j in BALL_SIG)


def w_form_tensor(s, t) -> FieldElem:
    """Induced Hermitian form on Sym^2 evaluated on coefficient grids: the
    form of ``herm_form`` on the flattened 3 x 3 grids, with sign s_i s_j
    at position (i, j)."""
    return herm_form([x for row in s for x in row], [y for row in t for y in row],
                     _TENSOR_SIG)


def p_positions():
    """Off-diagonal block positions of the (4, 2) decomposition of 6 x 6."""
    return tuple((r, c) for r in range(1, 7) for c in range(1, 7)
                 if (r <= 4) != (c <= 4))


def su_matrix(x: TangentVec) -> Matrix:
    """The full (p+q) x (p+q) matrix [[0, A], [A*, 0]] of the block A = x."""
    p, q = x.rows, x.cols
    astar = x.conj_transpose()
    rows = []
    for i in range(p):
        rows.append([ZERO] * p + list(x.row(i)))
    for i in range(q):
        rows.append(list(astar.row(i)) + [ZERO] * q)
    return Matrix(rows)


CHECKS = []


def _check(name):
    def register(fn):
        CHECKS.append((name, fn))
        return fn
    return register


def _expect(actual, expected, label):
    ok = actual == expected
    return ok, f"{label}: got {actual}, want {expected}"


def _golden(name, label, want, compute):
    """Register the check name: compute() must equal the golden value want."""
    _check(name)(lambda: _expect(compute(), want, label))


def _span_e(*ks) -> Subspace:
    """The span of the E-basis vectors with 0-based indices ks."""
    return Subspace(6, [unit_vector(6, k) for k in ks])


def _quad_images(name):
    emb = make_embedding(name)
    return [emb(x) for x in standard_quadruple(2)]


def _quat_image(name, x):
    return to_quat(make_embedding(name)(x))


_golden("signature form on E5", "h(E5, E5)", FieldElem(-1),
        lambda: herm_form(unit_vector(6, 4), unit_vector(6, 4), W_SIG))


@_check("E-basis orthonormal in the tensor form")
def _e_basis_orthonormal():
    for i in range(6):
        for j in range(6):
            want = FieldElem(W_SIG[i]) if i == j else ZERO
            got = w_form_tensor(E_BASIS_TENSORS[i], E_BASIS_TENSORS[j])
            if got != want:
                return False, f"<E{i+1}, E{j+1}> = {got}, want {want}"
    return True, "tensor form of E1..E6 is diag(1,1,1,1,-1,-1)"


_golden("mixed plane is negative definite", "span(E5, E6)", "negative",
        lambda: _span_e(4, 5).definiteness(W_SIG))
_golden("Sym^2 orthocomplement is positive definite", "span(E1, E2, E4)",
        "positive", lambda: _span_e(0, 1, 3).definiteness(W_SIG))
_golden("ball metric normalization", "g_B(u, u), u = (1, 0)", FieldElem(4),
        lambda: metric_g0(ball_tangent((ONE, ZERO)), ball_tangent((ONE, ZERO))))
_golden("base Kahler form on the first basis pair", "Omega_B(X, Y)", FieldElem(4),
        lambda: kahler_form(ball_tangent((ONE, ZERO)), ball_tangent((I, ZERO))))
_golden("base Kahler form on the second basis pair", "Omega_B(Z, W)", FieldElem(4),
        lambda: kahler_form(ball_tangent((ZERO, ONE)), ball_tangent((ZERO, I))))
_golden("base Kahler form squared on the quadruple", "Omega_B^2(X, Y, Z, W)",
        FieldElem(16), lambda: wedge_square_eval(
            kahler_form, *map(ball_tangent, standard_quadruple(2))))
_golden("diagonal embedding quaternion coordinates", "rho(e1)",
        (Quat(ONE), QUAT_J, Quat(), Quat()),
        lambda: _quat_image("rho", (ONE, ZERO)))


@_check("diagonal embedding block matrices")
def _rho_blocks():
    emb = make_embedding("rho")
    i2 = Matrix.diagonal((1, 1))
    z2 = Matrix.zeros(2, 2)

    def block3(b13, b23, b31, b32):
        rows = []
        grid = ((z2, z2, b13), (z2, z2, b23), (b31, b32, z2))
        for brow in grid:
            for r in range(2):
                rows.append([x for blk in brow for x in blk.row(r)])
        return Matrix(rows)

    got_x = su_matrix(emb((ONE, ZERO)))
    want_x = block3(i2, z2, i2, z2)
    got_y = su_matrix(emb((I, ZERO)))
    want_y = block3(i2 * I, z2, -(i2 * I), z2)
    if got_x != want_x:
        return False, "rho(e1) block matrix mismatch"
    if got_y != want_y:
        return False, "rho(i e1) block matrix mismatch"
    return True, "rho basis images match the explicit block matrices"


_golden("symmetric square quaternion coordinates, first basis vector", "iota(e1)",
        (Quat(ONE), Quat(), Quat(ONE), Quat(ZERO, HALF_SQRT2)),
        lambda: _quat_image("sym_square", (ONE, ZERO)))
_golden("symmetric square quaternion coordinates, second basis vector", "iota(e2)",
        (Quat(), QUAT_J, QUAT_J, Quat(HALF_SQRT2)),
        lambda: _quat_image("sym_square", (ZERO, ONE)))
_golden("symmetric square quaternion coordinates, fourth basis vector", "iota(i e2)",
        (Quat(), QUAT_K, -QUAT_K, Quat(I * HALF_SQRT2)),
        lambda: _quat_image("sym_square", (ZERO, I)))


def _leibniz_mixed():
    x = su21_p_matrix(ONE, ZERO)
    t = Matrix(sym_product(unit_vector(3, 2), unit_vector(3, 0)))
    return sym_to_e_coords((x @ t + t @ x.transpose()).entries)


_golden("Leibniz expansion on the mixed basis vector",
        "d iota(X)(e3 . e1) in E-coordinates", (ONE, ZERO, ONE, ZERO, ZERO, ZERO),
        _leibniz_mixed)

# the three embeddings whose 4-form and pullback ratio are golden rows; each
# row binds its embedding as a lambda default
for _name, _title, _omega in (("rho", "diagonal embedding", 4),
                              ("sym_square", "symmetric square", Fraction(11, 4)),
                              ("totally_real", "totally real embedding", 0)):
    _golden(f"4-form on the {_title}", f"omega on {_name} images", FieldElem(_omega),
            lambda name=_name: omega4(*_quad_images(name)))


@_check("i-component 2-form vanishes on totally real images")
def _omega_i_totally_real():
    emb = make_embedding("totally_real")
    samples = [(ONE, I), (FieldElem(1, 2), FieldElem(0, 0, 1)),
               (I, FieldElem(3, -1)), (FieldElem(2, 1), FieldElem(-1, 2))]
    for x in samples:
        for y in samples:
            if omega_unit(emb(x), emb(y), "i"):
                return False, f"omega_i != 0 at {x}, {y}"
    return True, "omega_i = 0 on sampled totally real pairs"


# omega_j and omega_k are nonzero on this pair, so a pairing that is not
# antisymmetric fails the checks below
_SKEW_PAIR = (
    TangentVec([[ONE, FieldElem(2)], [I, ZERO], [ZERO, ZERO], [ZERO, ZERO]]),
    TangentVec([[ZERO, FieldElem(1, 1)], [ONE, FieldElem(2)], [ZERO, ZERO],
                [ZERO, ZERO]]),
)


def _omega_unit_skew(unit, want):
    x, y = _SKEW_PAIR
    got = (omega_unit(x, y, unit), omega_unit(y, x, unit))
    ok = got == (FieldElem(want), FieldElem(-want))
    return ok, (f"omega_{unit}(X, Y), omega_{unit}(Y, X): got {got[0]}, {got[1]}, "
                f"want {want}, {-want}")


_check("j-component 2-form on an antisymmetric pair")(lambda: _omega_unit_skew("j", 1))
_check("k-component 2-form on an antisymmetric pair")(lambda: _omega_unit_skew("k", 3))


@_check("holomorphic pullback identity")
def _pullback_identity():
    imgs = _quad_images("rho")
    lhs = wedge_square_eval(kahler_form, *imgs)
    rhs = omega4(*imgs) * 16
    return _expect(lhs, rhs, "Omega0^2 vs 16*omega on rho images")


def _su2_unit(unit):
    samples = [
        TangentVec([[ONE, I], [ZERO, FieldElem(2)],
                    [FieldElem(0, 0, 1), ZERO], [I, I]]),
        TangentVec([[FieldElem(1, 1), ZERO], [ZERO, ZERO],
                    [ONE, FieldElem(-2, 3)], [ZERO, ONE]]),
        TangentVec.zeros(4, 2),
    ]
    for x in samples:
        if not su2_action_check(unit, x):
            return False, f"unit {unit} fails on {x}"
    return True, f"right multiplication by {unit} realized"


_check("adjoint action is right multiplication by i")(lambda: _su2_unit("i"))
_check("adjoint action is right multiplication by j")(lambda: _su2_unit("j"))
_check("adjoint action is right multiplication by k")(lambda: _su2_unit("k"))

for _name, _title, _ratio in (("rho", "diagonal embedding", Fraction(1, 4)),
                              ("sym_square", "symmetric square", Fraction(11, 64)),
                              ("totally_real", "totally real embedding", 0)):
    _golden(f"pullback ratio of the {_title}", f"ratio({_name})", FieldElem(_ratio),
            lambda name=_name: pullback_constant(make_embedding(name)).ratio)


@_check("pullback ratio of the frozen-factor embedding")
def _ratio_phi():
    rep = pullback_constant(make_embedding("phi"))
    ok1 = rep.omega_value == FieldElem(1)
    ok2 = rep.ratio == FieldElem(Fraction(1, 16))
    return ok1 and ok2, f"omega = {rep.omega_value}, ratio = {rep.ratio}"


@_check("composition invariant arithmetic")
def _composition():
    rep = composition_invariant(3, 8, vol_source=100)
    ok = rep.value == Fraction(3, 2) and rep.below_source_bound is True
    return ok, f"value = {rep.value}, below bound = {rep.below_source_bound}"


_golden("twistor grading pattern", "twistor holomorphic pattern",
        [(1, 6), (2, 6), (3, 6), (4, 6), (5, 1), (5, 2), (5, 3), (5, 4), (5, 6)],
        lambda: sorted(grading_mask(TWISTOR_H)))
_golden("flag grading pattern on the off-diagonal blocks",
        "flag holomorphic pattern on p-positions",
        [(1, 5), (1, 6), (2, 5), (2, 6), (4, 5), (4, 6), (5, 3), (6, 3)],
        lambda: sorted(grading_mask(PERIOD_FLAG_H).intersection(p_positions())))


def _twistor(a, want):
    violations = twistor_nonlift_check(a)
    return violations == want, f"member={not violations}, violations={violations}"


_check("twistor obstruction for a = (1, 0)")(
    lambda: _twistor((ONE, ZERO), ((1, 5, ONE),)))
_check("twistor obstruction for a = (0, 1)")(
    lambda: _twistor((ZERO, ONE), ((4, 5, HALF_SQRT2), (6, 3, ONE))))
_check("flag holomorphy for a = (1, 0)")(
    lambda: (holomorphy_check_u3u1u2((ONE, ZERO)), "image inside the flag pattern"))
_check("flag holomorphy for a = (0, 1)")(
    lambda: (holomorphy_check_u3u1u2((ZERO, ONE)), "image inside the flag pattern"))


@_check("flag of the base negative line")
def _period_triple_base():
    triple = period_triple(unit_vector(3, 2))
    want = (_span_e(0, 1, 3), _span_e(2), _span_e(4, 5))
    got = tuple(rows for _, rows, _ in triple)
    if got != tuple(s.basis for s in want):
        return False, f"triple mismatch: {got}"
    # the labels are read off the E-map identity; inertia is the oracle
    inertia = tuple(s.definiteness(W_SIG) for s in want)
    labels = tuple(kind for _, _, kind in triple)
    if labels != inertia:
        return False, f"labels {labels}, but inertia gives {inertia}"
    return _expect(inertia, ("positive", "positive", "negative"), "definiteness")


# conjugation fixes the base point (0, 0, 1), so this row is the one that
# sees a dropped conj in the basis or in the Hermitian form
_golden("orthocomplement basis of a non-real negative line",
        "negative_line_basis(1/2 + 1/3*i, -2/5, 3)",
        ((ONE, ZERO, FieldElem(Fraction(1, 6), Fraction(-1, 9))),
         (ZERO, ONE, FieldElem(Fraction(-2, 15)))),
        lambda: negative_line_basis((FieldElem(Fraction(1, 2), Fraction(1, 3)),
                                     FieldElem(Fraction(-2, 5)), FieldElem(3)))[1])


@_check("E-map identity on the basis pairs")
def _e_map_identity():
    failure = e_map_certificate()
    if failure is None:
        return True, ("h_W(E(a.b), E(c.d)) = (h(a,c)h(b,d) + h(a,d)h(b,c))/2 "
                      "on all 36 basis pairs")
    return False, e_map_failure(failure)


@_check("linearity classification of the totally real embedding")
def _classify_totally_real():
    _, (col1, col2), condition = classify(make_embedding("totally_real"))
    ok = col1 == "linear" and col2 == "conjugate_linear" and not condition
    return ok, f"col1={col1}, col2={col2}, lift condition={condition}"


# phi's second column is identically zero, so a wrong zero verdict shows here
_golden("column verdicts of the frozen-factor embedding", "classify(phi) columns",
        ("linear", "zero"), lambda: classify(make_embedding("phi"))[1])


def run_selftest():
    """Run all golden checks; returns (all_ok, [(name, ok, detail), ...]).

    A check that raises fails, with the exception as its detail.
    """
    results = []
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
        all_ok = all_ok and ok
    return all_ok, results
