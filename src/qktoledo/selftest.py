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
from .lifting import (PERIOD_FLAG_H, TWISTOR_H, classify_column, e_map_certificate,
                      grading_mask, holomorphy_check_u3u1u2, period_triple,
                      twistor_lift_condition, twistor_nonlift_check)


def ball_tangent(x) -> TangentVec:
    """A ball tangent vector as an n x 1 block (for the base Kahler form)."""
    return TangentVec([[c] for c in x])


def w_form_tensor(s, t) -> FieldElem:
    """Induced Hermitian form on Sym^2 evaluated on coefficient grids."""
    acc = ZERO
    for i in range(3):
        for j in range(3):
            acc = acc + BALL_SIG[i] * BALL_SIG[j] * (s[i][j] * t[i][j].conj())
    return acc


def p_positions(size=6, split=4):
    """Off-diagonal block positions of the (split, size-split) decomposition."""
    return tuple((r, c) for r in range(1, size + 1) for c in range(1, size + 1)
                 if (r <= split) != (c <= split))


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


def _quad_images(name):
    emb = make_embedding(name)
    return [emb(x) for x in standard_quadruple(2)]


@_check("signature form on E5")
def _w_form_e5():
    e5 = unit_vector(6, 4)
    return _expect(herm_form(e5, e5, W_SIG), FieldElem(-1), "h(E5, E5)")


@_check("E-basis orthonormal in the tensor form")
def _e_basis_orthonormal():
    for i in range(6):
        for j in range(6):
            want = FieldElem(W_SIG[i]) if i == j else ZERO
            got = w_form_tensor(E_BASIS_TENSORS[i], E_BASIS_TENSORS[j])
            if got != want:
                return False, f"<E{i+1}, E{j+1}> = {got}, want {want}"
    return True, "tensor form of E1..E6 is diag(1,1,1,1,-1,-1)"


@_check("mixed plane is negative definite")
def _mixed_negative():
    s = Subspace(6, [unit_vector(6, 4), unit_vector(6, 5)])
    return _expect(s.definiteness(W_SIG), "negative", "span(E5, E6)")


@_check("Sym^2 orthocomplement is positive definite")
def _s2perp_positive():
    s = Subspace(6, [unit_vector(6, 0), unit_vector(6, 1), unit_vector(6, 3)])
    return _expect(s.definiteness(W_SIG), "positive", "span(E1, E2, E4)")


@_check("ball metric normalization")
def _ball_metric():
    u = ball_tangent((ONE, ZERO))
    return _expect(metric_g0(u, u), FieldElem(4), "g_B(u, u), u = (1, 0)")


@_check("base Kahler form on the first basis pair")
def _omega_b_xy():
    x = ball_tangent((ONE, ZERO))
    y = ball_tangent((I, ZERO))
    return _expect(kahler_form(x, y), FieldElem(4), "Omega_B(X, Y)")


@_check("base Kahler form on the second basis pair")
def _omega_b_zw():
    z = ball_tangent((ZERO, ONE))
    w = ball_tangent((ZERO, I))
    return _expect(kahler_form(z, w), FieldElem(4), "Omega_B(Z, W)")


@_check("base Kahler form squared on the quadruple")
def _omega_b_squared():
    quad = [ball_tangent(x) for x in standard_quadruple(2)]
    return _expect(wedge_square_eval(kahler_form, *quad), FieldElem(16),
                   "Omega_B^2(X, Y, Z, W)")


@_check("diagonal embedding quaternion coordinates")
def _rho_quat():
    img = make_embedding("rho")((ONE, ZERO))
    want = (Quat(ONE), QUAT_J, Quat(), Quat())
    return _expect(to_quat(img), want, "rho(e1)")


@_check("diagonal embedding block matrices")
def _rho_blocks():
    emb = make_embedding("rho")
    i2 = Matrix.identity(2)
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


@_check("symmetric square quaternion coordinates, first basis vector")
def _iota_quat_x():
    img = make_embedding("sym_square")((ONE, ZERO))
    want = (Quat(ONE), Quat(), Quat(ONE), Quat(ZERO, HALF_SQRT2))
    return _expect(to_quat(img), want, "iota(e1)")


@_check("symmetric square quaternion coordinates, second basis vector")
def _iota_quat_z():
    img = make_embedding("sym_square")((ZERO, ONE))
    want = (Quat(), QUAT_J, QUAT_J, Quat(HALF_SQRT2))
    return _expect(to_quat(img), want, "iota(e2)")


@_check("symmetric square quaternion coordinates, fourth basis vector")
def _iota_quat_w():
    img = make_embedding("sym_square")((ZERO, I))
    want = (Quat(), QUAT_K, -QUAT_K, Quat(I * HALF_SQRT2))
    return _expect(to_quat(img), want, "iota(i e2)")


@_check("Leibniz expansion on the mixed basis vector")
def _leibniz_mixed():
    x = su21_p_matrix(ONE, ZERO)
    t = Matrix(sym_product(unit_vector(3, 2), unit_vector(3, 0)))
    image = x @ t + t @ x.transpose()
    got = sym_to_e_coords(image.entries)
    want = (ONE, ZERO, ONE, ZERO, ZERO, ZERO)
    return _expect(got, want, "d iota(X)(e3 . e1) in E-coordinates")


@_check("4-form on the diagonal embedding")
def _omega_rho():
    return _expect(omega4(*_quad_images("rho")), FieldElem(4),
                   "omega on rho images")


@_check("4-form on the symmetric square")
def _omega_sym_square():
    return _expect(omega4(*_quad_images("sym_square")), FieldElem(Fraction(11, 4)),
                   "omega on sym_square images")


@_check("4-form on the totally real embedding")
def _omega_totally_real():
    return _expect(omega4(*_quad_images("totally_real")), ZERO,
                   "omega on totally_real images")


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


@_check("holomorphic pullback identity")
def _pullback_identity():
    imgs = _quad_images("rho")
    lhs = wedge_square_eval(kahler_form, *imgs)
    rhs = omega4(*imgs) * 16
    return _expect(lhs, rhs, "Omega0^2 vs 16*omega on rho images")


@_check("adjoint action is right multiplication by i")
def _su2_i():
    return _su2_unit("i")


@_check("adjoint action is right multiplication by j")
def _su2_j():
    return _su2_unit("j")


@_check("adjoint action is right multiplication by k")
def _su2_k():
    return _su2_unit("k")


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


@_check("pullback ratio of the diagonal embedding")
def _ratio_rho():
    rep = pullback_constant(make_embedding("rho"))
    return _expect(rep.ratio, FieldElem(Fraction(1, 4)), "ratio(rho)")


@_check("pullback ratio of the symmetric square")
def _ratio_sym_square():
    rep = pullback_constant(make_embedding("sym_square"))
    return _expect(rep.ratio, FieldElem(Fraction(11, 64)), "ratio(sym_square)")


@_check("pullback ratio of the totally real embedding")
def _ratio_totally_real():
    rep = pullback_constant(make_embedding("totally_real"))
    return _expect(rep.ratio, ZERO, "ratio(totally_real)")


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


@_check("twistor grading pattern")
def _twistor_pattern():
    want = {(r, 6) for r in range(1, 5)} | {(5, c) for c in range(1, 5)} | {(5, 6)}
    got = set(grading_mask(TWISTOR_H))
    return _expect(got, want, "twistor holomorphic pattern")


@_check("flag grading pattern on the off-diagonal blocks")
def _flag_pattern():
    mask = grading_mask(PERIOD_FLAG_H)
    got = {pos for pos in p_positions() if pos in mask}
    want = {(1, 5), (1, 6), (2, 5), (2, 6), (4, 5), (4, 6), (5, 3), (6, 3)}
    return _expect(got, want, "flag holomorphic pattern on p-positions")


@_check("twistor obstruction for a = (1, 0)")
def _twistor_10():
    violations = twistor_nonlift_check((ONE, ZERO))
    ok = violations == ((1, 5, ONE),)
    return ok, f"member={not violations}, violations={violations}"


@_check("twistor obstruction for a = (0, 1)")
def _twistor_01():
    violations = twistor_nonlift_check((ZERO, ONE))
    ok = violations == ((4, 5, HALF_SQRT2), (6, 3, ONE))
    return ok, f"member={not violations}, violations={violations}"


@_check("flag holomorphy for a = (1, 0)")
def _holomorphy_10():
    return holomorphy_check_u3u1u2((ONE, ZERO)), "image inside the flag pattern"


@_check("flag holomorphy for a = (0, 1)")
def _holomorphy_01():
    return holomorphy_check_u3u1u2((ZERO, ONE)), "image inside the flag pattern"


@_check("flag of the base negative line")
def _period_triple_base():
    got = tuple(s for _, s in period_triple(unit_vector(3, 2)))
    want = (Subspace(6, [unit_vector(6, 0), unit_vector(6, 1), unit_vector(6, 3)]),
            Subspace(6, [unit_vector(6, 2)]),
            Subspace(6, [unit_vector(6, 4), unit_vector(6, 5)]))
    if got != want:
        return False, f"triple mismatch: {got}"
    return _expect(tuple(s.definiteness(W_SIG) for s in got),
                   ("positive", "positive", "negative"), "definiteness")


@_check("E-map identity on the basis pairs")
def _e_map_identity():
    failure = e_map_certificate()
    if failure is None:
        return True, ("h_W(E(a.b), E(c.d)) = (h(a,c)h(b,d) + h(a,d)h(b,c))/2 "
                      "on all 36 basis pairs")
    (i, j), (k, l), got, want = failure
    return False, f"h_W(E(e{i}.e{j}), E(e{k}.e{l})): got {got}, want {want}"


@_check("linearity classification of the totally real embedding")
def _classify_totally_real():
    emb = make_embedding("totally_real")
    col1, col2 = classify_column(emb, 1), classify_column(emb, 2)
    condition = twistor_lift_condition(emb)
    ok = col1 == "linear" and col2 == "conjugate_linear" and not condition
    return ok, f"col1={col1}, col2={col2}, lift condition={condition}"


def run_selftest():
    """Run all golden checks; returns (all_ok, [(name, ok, detail), ...])."""
    results = []
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn()
        results.append((name, ok, detail))
        all_ok = all_ok and ok
    return all_ok, results
