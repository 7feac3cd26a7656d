"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single [acceptance] PASS line once its criterion holds;
a failed assertion is the fail line.
"""

from fractions import Fraction

from qktoledo import (FieldElem, Matrix, Subspace, W_SIG,
                      ZERO, ONE, ball_tangent, kahler_form, make_embedding,
                      omega4, pullback_constant, standard_quadruple,
                      su2_action_check, su21_p_matrix,
                      sym_square_lie, sym_square_p_block,
                      sym_square_tangent_diff, twistor_nonlift_check,
                      holomorphy_check_u3u1u2, horizontality_check,
                      wedge_square_eval)

from _helpers import (matchings_oracle, perm_det, rng, rand_complex_vec,
                      rand_fraction, rand_gauss, rand_negative_vector,
                      rand_nonzero_pair, rand_orthogonal_direction, rand_su21,
                      rand_tangent)

QUAD = standard_quadruple(2)


def _report(num, text):
    print(f"[acceptance] criterion {num}: PASS - {text}")


def test_criterion_1_pullback_constants():
    expected = {"rho": Fraction(1, 4), "sym_square": Fraction(11, 64),
                "totally_real": Fraction(0), "phi": Fraction(1, 16)}
    for name, want in expected.items():
        assert pullback_constant(make_embedding(name)).ratio == FieldElem(want)
    iota = make_embedding("sym_square")
    assert omega4(*(iota(x) for x in QUAD)) == FieldElem(Fraction(11, 4))
    _report(1, "ratios 1/4, 11/64, 0, 1/16 and 4-form value 11/4, exact")


def test_criterion_2_base_kahler_square():
    x, y, z, w = (ball_tangent(v) for v in QUAD)
    assert kahler_form(x, y) == FieldElem(4)
    assert kahler_form(z, w) == FieldElem(4)
    assert wedge_square_eval(kahler_form, x, y, z, w) == FieldElem(16)
    _report(2, "base Kahler form factors 4 and square 16, exact")


def test_criterion_3_holomorphic_pullback_identity():
    for n in (2, 3, 4):
        emb = make_embedding("rho", n)
        r = rng(700 + n)
        for _ in range(100):
            imgs = [emb(rand_complex_vec(r, n)) for _ in range(4)]
            assert wedge_square_eval(kahler_form, *imgs) == omega4(*imgs) * 16
    _report(3, "16*omega = Omega0^2 on 100 random rho-quadruples for n=2,3,4")


def test_criterion_4_quaternionic_action():
    r = rng(704)
    for unit in ("i", "j", "k"):
        for _ in range(100):
            assert su2_action_check(unit, rand_tangent(r, 4))
    _report(4, "adjoint action = right multiplication by i, j, k, 300 trials")


def test_criterion_5_symmetric_square_differential():
    r = rng(705)
    for _ in range(200):
        a = rand_complex_vec(r, 2)
        lie = sym_square_lie(su21_p_matrix(*a))
        assert sym_square_p_block(lie) == sym_square_tangent_diff(a)
    form = Matrix.diagonal([1, 1, 1, 1, -1, -1])
    for _ in range(100):
        x, y = rand_su21(r), rand_su21(r)
        lx, ly = sym_square_lie(x), sym_square_lie(y)
        assert sym_square_lie(x @ y - y @ x) == lx @ ly - ly @ lx
        assert (lx.conj_transpose() @ form + form @ lx).is_zero()
    _report(5, "closed form = Leibniz block (200), bracket homomorphism and "
               "form-skewness (100)")


def test_criterion_6_twistor_obstruction():
    r = rng(706)
    for _ in range(100):
        a1, a2 = rand_nonzero_pair(r)
        violations = twistor_nonlift_check((a1, a2))
        assert violations     # a nonempty tuple: the image leaves the pattern
        want = set()
        if a1:
            want.add((1, 5))
        if a2:
            want.update({(4, 5), (6, 3)})
        assert {(row, col) for row, col, _ in violations} == want
    _report(6, "twistor membership false with predicted violations, 100 trials")


def test_criterion_7_period_domain_lift():
    r = rng(707)
    for _ in range(100):
        assert holomorphy_check_u3u1u2(rand_nonzero_pair(r))
    e3 = (ZERO, ZERO, ONE)
    assert horizontality_check(e3, (ONE, ZERO, ZERO))
    assert horizontality_check(e3, (ZERO, ONE, ZERO))
    assert horizontality_check(e3, (ZERO, ZERO, ZERO))
    for _ in range(50):
        v0 = rand_negative_vector(r)
        assert horizontality_check(v0, rand_orthogonal_direction(r, v0))
    _report(7, "holomorphy (100) and horizontality (50 + base cases), exact")


def test_criterion_8_property_suites():
    r = rng(708)
    # omega alternation and multilinearity, 500 seeded trials
    for _ in range(500):
        vecs = [rand_tangent(r, 4) for _ in range(4)]
        base = omega4(*vecs)
        i, j = sorted(r.sample(range(4), 2))
        swapped = list(vecs)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert omega4(*swapped) == -base
        a, b = rand_fraction(r, -3, 3, 3), rand_fraction(r, -3, 3, 3)
        extra = rand_tangent(r, 4)
        combo = vecs[0].scale(a) + extra.scale(b)
        assert (omega4(combo, *vecs[1:])
                == a * base + b * omega4(extra, *vecs[1:]))
    # wedge-square vs the matchings oracle, 200 trials
    for _ in range(200):
        table = [[ZERO] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                v = FieldElem(rand_fraction(r), 0, rand_fraction(r), 0)
                table[i][j], table[j][i] = v, -v
        form = lambda u, v: table[u][v]
        slots = (0, 1, 2, 3)
        assert wedge_square_eval(form, *slots) == matchings_oracle(form, slots)
    # determinant scaling under basis recombination, 100 trials
    emb = make_embedding("rho")
    images = [emb(x) for x in QUAD]
    base = omega4(*images)
    done = 0
    while done < 100:
        m = [[rand_fraction(r, -3, 3, 3) for _ in range(4)] for _ in range(4)]
        det = perm_det(m)
        if det == 0:
            continue
        done += 1
        recombined = []
        for row in m:
            acc = images[0].scale(row[0])
            for c, img in zip(row[1:], images[1:]):
                acc = acc + img.scale(c)
            recombined.append(acc)
        assert omega4(*recombined) == FieldElem(det) * base
    # subspace perp involution and definiteness invariants, 50 trials
    done = 0
    while done < 50:
        d = r.randint(1, 5)
        vecs = [tuple(rand_gauss(r) for _ in range(6)) for _ in range(d)]
        s = Subspace(6, vecs)
        if s.dim == 0:
            continue
        assert s.dim + s.perp(W_SIG).dim == 6
        if s.definiteness(W_SIG) == "degenerate":
            continue
        done += 1
        assert s.perp(W_SIG).perp(W_SIG) == s
        n_plus, n_minus, n_zero = s.inertia(W_SIG)
        assert n_zero == 0 and n_plus + n_minus == s.dim
    _report(8, "alternation/multilinearity (500), matchings oracle (200), "
               "determinant scaling (100), subspace invariants (50)")

