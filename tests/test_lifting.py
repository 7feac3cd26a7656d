"""Grading masks, twistor obstruction, linearity, flags and horizontality."""

import re
from fractions import Fraction

import pytest

from qktoledo import (BALL_SIG, W_SIG, EmbeddingDiff, FieldElem,
                      JetScalar, Matrix, Subspace,
                      ZERO, ONE, I, SQRT2, HALF_SQRT2, PERIOD_FLAG_H,
                      classify_column, classify_linearity, grading_mask,
                      herm_form, holomorphy_check_u3u1u2, horizontality_check,
                      iota_star_bplus, make_embedding,
                      negative_line_basis, period_triple, su21_p_matrix,
                      sym_product, sym_to_e_coords, twistor_lift_condition,
                      twistor_nonlift_check, unit_vector)
from qktoledo import lifting
from qktoledo.cli import main
from qktoledo.selftest import ball_tangent, run_selftest

from _helpers import (contains, flag_motion, jet_flag_motion,
                      jet_horizontality_check, leibniz_bplus_image,
                      mutually_orthogonal, orthogonality_horizontality_check,
                      perp, rng, rand_field_elem,
                      rand_fraction, rand_gauss, rand_nonzero_field_elem,
                      rand_nonzero_pair, rand_negative_vector,
                      rand_orthogonal_direction, rref_horizontality_check)


# -- grading masks ------------------------------------------------------------

def test_flag_mask_golden():
    # full positive eigenspace; rows 1,2,4 also reach column 3 inside the
    # diagonal block, beyond the off-diagonal pattern the registry checks
    want = ({(r, c) for r in (1, 2, 4) for c in (3, 5, 6)}
            | {(5, 3), (6, 3)})
    assert grading_mask(PERIOD_FLAG_H) == want


def test_zero_grading_gives_empty_mask():
    assert grading_mask((0,) * 6) == frozenset()


def test_mask_against_bracket_oracle():
    r = rng(601)
    for _ in range(100):
        h = tuple(rand_fraction(r, -3, 3, 2) for _ in range(6))
        mask = grading_mask(h)
        for p_ in range(1, 7):
            assert (p_, p_) not in mask
            for q_ in range(1, 7):
                assert not ((p_, q_) in mask and (q_, p_) in mask)
        p, q = r.randrange(6), r.randrange(6)
        hm = Matrix.diagonal([FieldElem(x) for x in h])
        e = Matrix([[ONE if (i, j) == (p, q) else ZERO for j in range(6)]
                    for i in range(6)])
        bracket = hm @ e - e @ hm
        assert bracket == e * FieldElem(h[p] - h[q])
        assert ((p + 1, q + 1) in mask) == (h[p] - h[q] > 0)


# -- the holomorphic tangent image ---------------------------------------------

def test_iota_star_matches_leibniz_oracle():
    r = rng(602)
    inputs = [(ZERO, ZERO)]
    for _ in range(10):
        x = rand_nonzero_field_elem(r)
        inputs += [(x, ZERO), (ZERO, x)]
    inputs += [(rand_field_elem(r), rand_field_elem(r)) for _ in range(300)]
    for a1, a2 in inputs:
        # the (1,0)-part of X_a is the 3 x 3 matrix with (a1, a2) top right
        xa, xia = su21_p_matrix(a1, a2), su21_p_matrix(a1 * I, a2 * I)
        assert (xa - xia * I) * Fraction(1, 2) == Matrix(
            [[ZERO, ZERO, a1], [ZERO, ZERO, a2], [ZERO, ZERO, ZERO]])
        assert iota_star_bplus((a1, a2)) == leibniz_bplus_image((a1, a2))


def test_iota_star_block_structure():
    r = rng(603)
    for _ in range(50):
        a1, a2 = rand_nonzero_pair(r)
        image = iota_star_bplus((a1, a2))
        want_u = Matrix([[a1, ZERO], [ZERO, a2], [ZERO, ZERO],
                         [a2 * HALF_SQRT2, a1 * HALF_SQRT2]])
        want_v = Matrix([[ZERO, ZERO, a1, ZERO], [ZERO, ZERO, a2, ZERO]])
        got_u = Matrix([[image[r_, 4 + c] for c in range(2)] for r_ in range(4)])
        got_v = Matrix([[image[4 + r_, c] for c in range(4)] for r_ in range(2)])
        assert got_u == want_u
        assert got_v == want_v
        # diagonal blocks vanish: the image is purely off-diagonal
        for i in range(4):
            for j in range(4):
                assert image[i, j].is_zero()
        for i in range(4, 6):
            for j in range(4, 6):
                assert image[i, j].is_zero()


def test_twistor_nonlift_golden():
    # the (1, 0) and (0, 1) verdicts are selftest registry checks
    assert twistor_nonlift_check((ZERO, ZERO)) == ()


def test_holomorphy_random():
    r = rng(605)
    assert holomorphy_check_u3u1u2((ZERO, ZERO))
    for _ in range(100):
        assert holomorphy_check_u3u1u2(rand_nonzero_pair(r))


# -- linearity classification ---------------------------------------------------

def test_classify_rho():
    rho = make_embedding("rho")
    for col in (1, 2):
        assert classify_column(rho, col) == "linear"
        for row in range(1, 5):
            assert classify_linearity(rho, col, row) in ("linear", "zero")
    assert not twistor_lift_condition(rho)


def test_classify_sym_square():
    iota = make_embedding("sym_square")
    assert classify_linearity(iota, 1, 1) == "linear"            # a1
    assert classify_linearity(iota, 1, 3) == "conjugate_linear"  # conj(a1)
    assert classify_linearity(iota, 1, 2) == "zero"
    assert classify_column(iota, 1) == "neither"
    assert not twistor_lift_condition(iota)


def test_classify_phi():
    phi = make_embedding("phi")
    assert classify_column(phi, 1) == "linear"
    assert classify_column(phi, 2) == "zero"
    assert not twistor_lift_condition(phi)
    # columns run over 1..2 and rows over 1..4; nothing wraps around, and
    # only a plain int is an index (True is not column 1)
    for column in (0, 3, True, 1.5, "1"):
        with pytest.raises(ValueError):
            classify_column(phi, column)
    for column, row in ((1, 0), (1, 5), (True, 1), (1, True), (1.5, 1),
                        ("1", 1), (1, 1.5), (1, "1")):
        with pytest.raises(ValueError):
            classify_linearity(phi, column, row)


def _synthetic_rows(x):
    c = x[0]
    return [[c.conj(), c], [c.conj(), c]]


def _synthetic_embedding():
    # column 1 = conj(x), column 2 = x, on both rows: satisfies the condition
    return EmbeddingDiff("synthetic", 1, _synthetic_rows)


def test_classify_synthetic_round_trip():
    emb = _synthetic_embedding()
    assert classify_column(emb, 1) == "conjugate_linear"
    assert classify_column(emb, 2) == "linear"
    assert twistor_lift_condition(emb)


def test_conjugate_linearity_matches_real_block_criterion():
    # f conjugate-linear iff the real Jacobian blocks satisfy A = -D, B = C
    r = rng(606)
    for _ in range(200):
        n = 2
        alphas = [rand_gauss(r) for _ in range(n)]
        if r.random() < 0.5:
            betas = [-I * a for a in alphas]       # conjugate-linear by construction
        else:
            betas = [rand_gauss(r) for _ in range(n)]
        ctest = all(b == -I * a for a, b in zip(alphas, betas))
        blocks = all(b.a == a.b and b.b == -a.a for a, b in zip(alphas, betas))
        assert ctest == blocks


# -- flags of negative lines -----------------------------------------------------

def _definiteness(triple):
    return tuple(s.definiteness(W_SIG) for _, s in triple)


def test_period_triple_base_point():
    # the subspaces and their definiteness are a selftest registry check
    triple = period_triple(unit_vector(3, 2))
    assert tuple(name for name, _ in triple) == ("S2Lperp", "L2", "LoLperp")
    assert tuple(s.dim for _, s in triple) == (3, 1, 2)
    assert mutually_orthogonal(triple)


def test_period_triple_shifted_line():
    v = (FieldElem(Fraction(1, 2)), ZERO, ONE)
    triple = period_triple(v)
    assert tuple(s.dim for _, s in triple) == (3, 1, 2)
    assert _definiteness(triple) == ("positive", "positive", "negative")
    assert mutually_orthogonal(triple)
    coords = sym_to_e_coords(sym_product(v, v))
    assert contains(dict(triple)["L2"], coords)


def _negative_vector_with_specials(r):
    """A negative vector of C^{2,1} with full Q(i, sqrt2) entries, where v0
    and v1 are zero a quarter of the time each and v2 is i or sqrt2 a
    quarter of the time each; (v0, v1) is halved until the vector is
    negative."""
    v0, v1 = (ZERO if r.random() < 0.25 else rand_field_elem(r) for _ in range(2))
    v2 = r.choice((I, SQRT2, rand_nonzero_field_elem(r), rand_nonzero_field_elem(r)))
    while herm_form((v0, v1, v2), (v0, v1, v2), BALL_SIG).real_sign() >= 0:
        v0, v1 = v0 * Fraction(1, 2), v1 * Fraction(1, 2)
    return (v0, v1, v2)


def test_negative_line_basis_matches_the_perp_oracle():
    r = rng(609)
    seen = {"v0 = 0": 0, "v1 = 0": 0, "v2 = i": 0, "v2 = sqrt2": 0}
    for _ in range(400):
        v = _negative_vector_with_specials(r)
        vec, basis = negative_line_basis(v)
        assert vec == v
        assert basis == perp(Subspace(3, [v]), BALL_SIG).basis
        seen["v0 = 0"] += not v[0]
        seen["v1 = 0"] += not v[1]
        seen["v2 = i"] += v[2] == I
        seen["v2 = sqrt2"] += v[2] == SQRT2
    assert min(seen.values()) >= 50, seen


def test_period_triple_rejects_non_negative():
    with pytest.raises(ValueError):
        period_triple(unit_vector(3, 0))
    with pytest.raises(ValueError):
        period_triple((ONE, ZERO, ONE))   # isotropic


def test_period_triple_random_invariants():
    r = rng(607)
    for _ in range(50):
        triple = period_triple(rand_negative_vector(r))
        assert tuple(s.dim for _, s in triple) == (3, 1, 2)
        assert _definiteness(triple) == ("positive", "positive", "negative")
        assert mutually_orthogonal(triple)


# -- horizontality ----------------------------------------------------------------

def test_horizontality_base_cases():
    e3 = unit_vector(3, 2)
    assert horizontality_check(e3, unit_vector(3, 1))
    assert horizontality_check(e3, (ZERO, ZERO, ZERO))
    # along e1 the square of the line moves into span(E5), along e2 into
    # span(E6): nonzero motions inside the mixed plane
    for k, mixed in ((0, 4), (1, 5)):
        gens, moved = flag_motion(e3, unit_vector(3, k))
        residue = Subspace(6, gens["L2"]).residue(moved["L2"][0])
        assert contains(Subspace(6, [unit_vector(6, mixed)]), residue)
        assert any(residue)


def test_flag_motion_matches_jet_oracle():
    # the product rule on exact vectors against the Leibniz rule of jets
    r = rng(610)
    e3, still = unit_vector(3, 2), (ZERO, ZERO, ZERO)
    cases = [(e3, still), (e3, unit_vector(3, 0)), (e3, unit_vector(3, 1))]
    for k in range(300):
        v0 = rand_negative_vector(r)
        cases.append((v0, still if k % 50 == 0
                      else rand_orthogonal_direction(r, v0)))
    moving = 0
    for v0, w in cases:
        want = jet_flag_motion(v0, w)
        gens, moved = flag_motion(v0, w)
        assert ({name: Subspace(6, vecs) for name, vecs in gens.items()}
                == {name: span for name, (span, _) in want.items()})
        assert moved == {name: want[name][1] for name in ("L2", "S2Lperp")}
        # the C^{2,1} decision against jet and rref span membership and the
        # six 6-dim orthogonality products
        verdict = horizontality_check(v0, w)
        assert verdict is True
        assert jet_horizontality_check(v0, w) is verdict
        assert rref_horizontality_check(v0, w) is verdict
        assert orthogonality_horizontality_check(v0, w) is verdict
        moving += any(any(d) for d in moved["L2"])
    assert moving > 250


def _h(x, y):
    return herm_form(x, y, BALL_SIG)


def test_e_map_identity_on_random_quadruples():
    # h_W(E(a.b), E(c.d)) = (h(a,c) h(b,d) + h(a,d) h(b,c)) / 2 on random
    # vectors, without the bilinearity argument of the basis certificate
    r = rng(612)
    assert lifting.e_map_certificate() is None
    for _ in range(300):
        a, b, c, d = (tuple(rand_field_elem(r) for _ in range(3)) for _ in range(4))
        got = herm_form(lifting._e_product(a, b), lifting._e_product(c, d), W_SIG)
        assert got == (_h(a, c) * _h(b, d) + _h(a, d) * _h(b, c)) * Fraction(1, 2)


def test_orthogonality_check_catches_a_rescaled_coordinate(monkeypatch, capsys):
    # dropping the 1/sqrt2 on E4 is a linear change of coordinates, which
    # span membership cannot see; it breaks the E-map identity, so the
    # certificate, the selftest and every u3u1u2 lift-check fail
    exact = lifting._e_product

    def unscaled_e4(x, y):
        coords = exact(x, y)
        return coords[:3] + (coords[3] * SQRT2,) + coords[4:]

    monkeypatch.setattr(lifting, "_e_product", unscaled_e4)
    lifting.e_map_certificate.cache_clear()
    try:
        # E(e1.e2) = E4 now has square norm 1 instead of 1/2
        assert lifting.e_map_certificate() == (
            (1, 2), (1, 2), ONE, FieldElem(Fraction(1, 2)))
        all_ok, results = run_selftest()
        assert not all_ok
        assert [detail for name, ok, detail in results if not ok] == [
            "h_W(E(e1.e2), E(e1.e2)): got 1, want 1/2"]
        capsys.readouterr()
        assert main(["lift-check", "--domain", "u3u1u2", "--samples", "3",
                     "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert out.count("horizontal=False") == 3
        assert out.endswith("summary: FAIL\n")
        r = rng(611)
        for _ in range(100):
            v0 = rand_negative_vector(r)
            w = rand_orthogonal_direction(r, v0)
            assert rref_horizontality_check(v0, w)
            assert not horizontality_check(v0, w)
    finally:
        lifting.e_map_certificate.cache_clear()


@pytest.mark.parametrize("bad", [0.5, "x"])
@pytest.mark.parametrize("call", [
    lambda bad: period_triple((bad, 0, 1)),
    lambda bad: horizontality_check((0, 0, 1), (bad, 0, 0)),
    lambda bad: twistor_nonlift_check((bad, 1)),
    lambda bad: iota_star_bplus((bad, 1)),
    lambda bad: su21_p_matrix(bad, 0),
    lambda bad: ball_tangent((bad, 1)),
    lambda bad: make_embedding("sym_square")((bad, 1)),
    lambda bad: make_embedding("rho")((bad, 1)),
], ids=["period_triple", "horizontality_check", "twistor_nonlift_check",
        "iota_star_bplus", "su21_p_matrix", "ball_tangent", "sym_square", "rho"])
def test_non_scalar_entries_raise_type_error(call, bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad)) + " is not a scalar"):
        call(bad)


def test_horizontality_preconditions():
    with pytest.raises(ValueError):
        horizontality_check(unit_vector(3, 0), unit_vector(3, 1))   # positive line
    with pytest.raises(ValueError):
        horizontality_check(unit_vector(3, 2), unit_vector(3, 2))   # not orthogonal


def test_residue_class_independent_of_first_order_family():
    # a different valid first-order correction of the orthocomplement basis
    # changes spanning derivatives only inside the time-zero subspace
    r = rng(609)
    for _ in range(20):
        v0 = rand_negative_vector(r)
        w = rand_orthogonal_direction(r, v0)
        basis = perp(Subspace(3, [v0]), BALL_SIG).basis
        hvv = herm_form(v0, v0, BALL_SIG)
        v_t = tuple(JetScalar(a, b) for a, b in zip(v0, w))
        u_t, u_t_pert = [], []
        for u in basis:
            c = -(herm_form(u, w, BALL_SIG) / hvv)
            correction = tuple(c * x for x in v0)
            d1, d2 = rand_gauss(r, -2, 2), rand_gauss(r, -2, 2)
            drift = tuple(d1 * x + d2 * y for x, y in zip(*basis))
            u_t.append(tuple(JetScalar(a, b)
                             for a, b in zip(u, correction)))
            u_t_pert.append(tuple(JetScalar(a, b + d)
                                  for a, b, d in zip(u, correction, drift)))
        for fam in (u_t, u_t_pert):
            for vec in fam:
                assert herm_form(vec, v_t, BALL_SIG) == JetScalar(0, 0)
        pairs = [(0, 0), (0, 1), (1, 1)]
        spans = [tuple(j.val for j in sym_to_e_coords(sym_product(u_t[i], u_t[j])))
                 for i, j in pairs]
        at_zero = Subspace(6, spans)
        for i, j in pairs:
            d_std = tuple(js.deriv for js in
                          sym_to_e_coords(sym_product(u_t[i], u_t[j])))
            d_pert = tuple(js.deriv for js in
                           sym_to_e_coords(sym_product(u_t_pert[i], u_t_pert[j])))
            assert at_zero.residue(d_std) == at_zero.residue(d_pert)
