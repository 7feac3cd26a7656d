"""Grading masks, twistor obstruction, linearity, flags and horizontality."""

import json
import re
from fractions import Fraction

import pytest

from qktoledo import (BALL_SIG, W_SIG, EmbeddingDiff, FieldElem,
                      JetScalar, Matrix, Subspace,
                      ZERO, ONE, I, SQRT2, HALF_SQRT2, PERIOD_FLAG_H, TWISTOR_H,
                      classify, classify_linearity, grading_mask,
                      herm_form, holomorphy_check_u3u1u2, horizontality_check,
                      iota_star_bplus, is_negative, make_embedding,
                      negative_line_basis, period_triple, su21_p_matrix,
                      sym_product, sym_to_e_coords,
                      parse_field_elem, twistor_nonlift_check, unit_vector)
from qktoledo import lifting, linalg
from qktoledo.cli import _HALVES, _MAX_VECTOR_BITS, main
from qktoledo.selftest import ball_tangent, run_selftest

import argv_digest
from _helpers import (contains, e_product, flag_motion, fold_column,
                      full_field_vector, generic_herm_form, jet_flag_motion,
                      jet_horizontality_check, leibniz_bplus_image,
                      mutually_orthogonal, orthogonality_horizontality_check,
                      perp, rng, rand_big_field_elem, rand_field_elem,
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
                assert not image[i, j]
        for i in range(4, 6):
            for j in range(4, 6):
                assert not image[i, j]


def test_twistor_nonlift_golden():
    # the (1, 0) and (0, 1) verdicts are selftest registry checks
    assert twistor_nonlift_check((ZERO, ZERO)) == ()


def test_holomorphy_random():
    r = rng(605)
    assert holomorphy_check_u3u1u2((ZERO, ZERO))
    for _ in range(100):
        assert holomorphy_check_u3u1u2(rand_nonzero_pair(r))


def _scan_outside(image, h):
    """Row-major scan of a 6 x 6 image for the nonzero entries outside the
    grading mask of h, as 1-based (row, col, value) triples."""
    mask = grading_mask(h)
    return tuple((r, c, image[r - 1, c - 1]) for r in range(1, 7)
                 for c in range(1, 7)
                 if (r, c) not in mask and image[r - 1, c - 1])


def test_image_support_lies_in_the_flag_mask():
    assert lifting._FLAG_OFF == ()


def test_pattern_checks_match_a_dense_scan_of_the_leibniz_image():
    r = rng(606)
    # the CLI's Gaussian integers, pairs with one zero component, and full
    # Q(i, sqrt2) entries
    inputs = [(rand_gauss(r), rand_gauss(r)) for _ in range(40)]
    for _ in range(20):
        x = rand_nonzero_field_elem(r)
        inputs += [(x, ZERO), (ZERO, x)]
    inputs += [(rand_field_elem(r), rand_field_elem(r)) for _ in range(40)]
    for a in inputs:
        image = leibniz_bplus_image(a)
        assert twistor_nonlift_check(a) == _scan_outside(image, TWISTOR_H)
        assert _scan_outside(image, PERIOD_FLAG_H) == ()
        assert holomorphy_check_u3u1u2(a)


@pytest.mark.parametrize("a", [(ONE,), (ONE, ZERO, ONE)], ids=["one", "three"])
@pytest.mark.parametrize("call", [iota_star_bplus, twistor_nonlift_check,
                                  holomorphy_check_u3u1u2])
def test_wrong_length_pair_raises_value_error(call, a):
    with pytest.raises(ValueError):
        call(a)


# -- linearity classification ---------------------------------------------------

def _verdicts(components):
    """{(column, row): verdict} of ``classify``'s component triples."""
    return {(col, row): verdict for col, row, verdict in components}


def test_classify_rho():
    components, columns, condition = classify(make_embedding("rho"))
    assert [(col, row) for col, row, _ in components] == \
        [(col, row) for col in (1, 2) for row in range(1, 5)]   # column-major
    assert set(_verdicts(components).values()) == {"linear", "zero"}
    assert columns == ("linear", "linear")
    assert not condition


def test_classify_sym_square():
    components, columns, condition = classify(make_embedding("sym_square"))
    verdicts = _verdicts(components)
    assert verdicts[1, 1] == "linear"            # a1
    assert verdicts[1, 3] == "conjugate_linear"  # conj(a1)
    assert verdicts[1, 2] == "zero"
    assert columns == ("neither", "neither")
    assert not condition


def test_classify_phi():
    components, columns, condition = classify(make_embedding("phi"))
    assert len(components) == 8
    assert columns == ("linear", "zero")
    assert not condition


def _synthetic_rows(x):
    c = x[0]
    return [[c.conj(), c], [c.conj(), c]]


def _synthetic_embedding():
    # column 1 = conj(x), column 2 = x, on both rows: satisfies the condition
    return EmbeddingDiff("synthetic", 1, _synthetic_rows)


def test_classify_synthetic_round_trip():
    components, columns, condition = classify(_synthetic_embedding())
    assert components == ((1, 1, "conjugate_linear"), (1, 2, "conjugate_linear"),
                          (2, 1, "linear"), (2, 2, "linear"))
    assert columns == ("conjugate_linear", "linear")
    assert condition


def _random_entry_map(r, n):
    """A scalar component x -> 0, c x_k, c conj(x_k) or c x_k + d conj(x_k),
    chosen at random with nonzero coefficients c, d."""
    kind = r.choice(("zero", "linear", "conjugate_linear", "neither"))
    k = r.randrange(n)
    c, d = rand_nonzero_field_elem(r), rand_nonzero_field_elem(r)
    return {"zero": lambda x: ZERO,
            "linear": lambda x: c * x[k],
            "conjugate_linear": lambda x: c * x[k].conj(),
            "neither": lambda x: c * x[k] + d * x[k].conj()}[kind]


def _random_embedding(r):
    """A synthetic EmbeddingDiff whose 2n x 2 entries are random entry maps;
    one column in three is forced all zero."""
    n = r.randint(1, 3)
    zero_col = r.choice((0, 1, None, None, None, None))
    maps = [[(lambda x: ZERO) if col == zero_col else _random_entry_map(r, n)
             for col in (0, 1)] for _ in range(2 * n)]
    return EmbeddingDiff("synthetic", n,
                         lambda x: [[f(x) for f in row] for row in maps])


def test_column_verdicts_match_the_fold_of_component_verdicts():
    # the old per-component fold is the oracle of the column verdicts
    r = rng(607)
    embeddings = [make_embedding(name) for name in
                  ("rho", "sym_square", "totally_real", "phi")]
    embeddings += [_synthetic_embedding()] + [_random_embedding(r) for _ in range(300)]
    seen, mixed = set(), False
    for emb in embeddings:
        components, columns, condition = classify(emb)
        parts = {col: {v for c, _, v in components if c == col} for col in (1, 2)}
        for col, verdict in zip((1, 2), columns):
            assert verdict == fold_column(parts[col]), (emb, col, parts[col])
            mixed = mixed or {"linear", "conjugate_linear"} <= parts[col]
        assert condition == (parts[1] <= {"conjugate_linear", "zero"}
                             and parts[2] <= {"linear", "zero"}), (emb, parts)
        seen.update(columns)
    assert seen == {"linear", "conjugate_linear", "zero", "neither"}
    assert mixed


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
        verdict = classify_linearity(alphas, betas)
        blocks = all(b.a == a.b and b.b == -a.a for a, b in zip(alphas, betas))
        assert (verdict in ("conjugate_linear", "zero")) == blocks


# -- flags of negative lines -----------------------------------------------------

def _spans(triple):
    """Each part's rows as a Subspace: the rref oracle of its span."""
    return tuple(Subspace(6, rows) for _, rows, _ in triple)


def _definiteness(triple):
    """The definiteness of each part by inertia, the labels' oracle."""
    return tuple(s.definiteness(W_SIG) for s in _spans(triple))


def _labels(triple):
    return tuple(kind for _, _, kind in triple)


def test_period_triple_base_point():
    # the subspaces and their definiteness are a selftest registry check
    triple = period_triple(unit_vector(3, 2))
    assert tuple(name for name, _, _ in triple) == ("S2Lperp", "L2", "LoLperp")
    assert tuple(s.dim for s in _spans(triple)) == (3, 1, 2)
    assert mutually_orthogonal(triple)


def test_period_triple_shifted_line():
    v = (FieldElem(Fraction(1, 2)), ZERO, ONE)
    triple = period_triple(v)
    spans = _spans(triple)
    assert tuple(s.dim for s in spans) == (3, 1, 2)
    assert _definiteness(triple) == _labels(triple) == (
        "positive", "positive", "negative")
    assert mutually_orthogonal(triple)
    coords = sym_to_e_coords(sym_product(v, v))
    assert contains(spans[1], coords)


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


def _basis_raises(v):
    try:
        negative_line_basis(v)
    except ValueError:
        return True
    return False


def test_negative_line_basis_rejects_exactly_what_is_negative_rejects():
    # is_negative is the one negativity decision: False exactly when
    # negative_line_basis raises, and it agrees with the generic form
    r = rng(611)
    i2 = I * SQRT2
    halves = [(h1, h2, ONE) for h1 in _HALVES.values() for h2 in _HALVES.values()]
    vectors = halves + [
        unit_vector(3, 0), unit_vector(3, 1), (ONE, ONE, ONE), (i2, ZERO, ONE),
        (ZERO, ZERO, ZERO), (ONE, ZERO, ONE), (i2, ZERO, SQRT2), (ONE, ONE, i2),
        (I * HALF_SQRT2, HALF_SQRT2, I), (I * HALF_SQRT2, ZERO, ONE)]
    vectors += [_negative_vector_with_specials(r) for _ in range(100)]
    vectors += [tuple(rand_field_elem(r) for _ in range(3)) for _ in range(200)]
    seen = {-1: 0, 0: 0, 1: 0}
    for v in vectors:
        sign = generic_herm_form(v, v, BALL_SIG).real_sign()
        seen[sign] += 1
        assert is_negative(v) == (sign < 0), v
        assert _basis_raises(v) == (not is_negative(v)), v
    # the 16 corners with |h1|^2 + |h2|^2 = 1 are the null candidates of
    # the CLI's draw; the other 65 are negative
    assert sum(not generic_herm_form(v, v, BALL_SIG) for v in halves) == 16
    assert min(seen.values()) >= 20, seen


def _big_negative_vector(r):
    """A negative vector of C^{2,1} whose entries have coordinates with
    numerators of about 320 bits (``rand_big_field_elem``); (v0, v1) is
    halved until the vector is negative."""
    v0, v1, v2 = (rand_big_field_elem(r) for _ in range(3))
    while herm_form((v0, v1, v2), (v0, v1, v2), BALL_SIG).real_sign() >= 0:
        v0, v1 = v0 * Fraction(1, 2), v1 * Fraction(1, 2)
    return (v0, v1, v2)


def _cap_vector():
    """The accepted full-field vector at the 1,024-bit cap of the argv
    digest, parsed."""
    text = full_field_vector(_MAX_VECTOR_BITS)
    assert ["period-triple", "--vector", text] in argv_digest.corpus()
    return tuple(map(parse_field_elem, text.split(",")))


def test_period_triple_random_invariants():
    # each label is read off the E-map identity; inertia of the Gram matrix
    # of the rows returned with it is the independent oracle.  Each rref
    # basis is written out in closed form; its oracles are rref itself (the
    # rows reduce to themselves), the span of the generic E-products of
    # the factor pairs and the jet flag at rest, whose products are jet
    # tensors
    r = rng(607)
    vectors = [rand_negative_vector(r) for _ in range(50)]
    vectors += [_negative_vector_with_specials(r) for _ in range(30)]
    vectors += [_big_negative_vector(r) for _ in range(6)]
    assert sum(any(x.nb or x.nd for x in v) for v in vectors) >= 50
    # the zero patterns of (v0, v1) with v2 != 1, and the cap vector
    x, v2 = FieldElem(Fraction(1, 3), -1, 0, Fraction(1, 5)), FieldElem(2, 1)
    vectors += [(ZERO, x, v2), (x, ZERO, v2), (ZERO, ZERO, v2), _cap_vector()]
    still = (ZERO, ZERO, ZERO)
    for v in vectors:
        triple = period_triple(v)
        spans = {name: Subspace(6, rows) for name, rows, _ in triple}
        assert all(spans[name].basis == rows for name, rows, _ in triple), v
        assert tuple(s.dim for s in spans.values()) == (3, 1, 2)
        assert _labels(triple) == _definiteness(triple) == (
            "positive", "positive", "negative"), v
        assert mutually_orthogonal(triple)
        gens, _ = flag_motion(v, still)
        assert spans == {name: Subspace(6, g) for name, g in gens.items()}, v
        assert spans == {name: span for name, (span, _)
                         in jet_flag_motion(v, still).items()}, v


def test_period_triple_verb_eliminates_nothing(monkeypatch, capsys):
    # the rows are written out as rref bases, so no verb but selftest
    # needs the elimination: with it raising, a generic vector and the
    # three zero patterns of (v0, v1) print the same bytes
    x, v2 = str(FieldElem(Fraction(1, 3), -1, 0, Fraction(1, 5))), "2 + i"
    argvs = [["period-triple", "--vector", ",".join(v), *fmt]
             for v in ((x, x, v2), ("0", x, v2), (x, "0", v2), ("0", "0", v2))
             for fmt in ((), ("--json",))]

    def outputs():
        got = []
        for argv in argvs:
            assert main(argv) == 0, argv
            got.append(capsys.readouterr())
        return got

    want = outputs()

    def no_rref(*args):
        raise AssertionError("linalg._rref called")

    monkeypatch.setattr(linalg, "_rref", no_rref)
    with pytest.raises(AssertionError):
        Subspace(6, [unit_vector(6, 0)])
    assert outputs() == want


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
        got = herm_form(e_product(a, b), e_product(c, d), W_SIG)
        assert got == (_h(a, c) * _h(b, d) + _h(a, d) * _h(b, c)) * Fraction(1, 2)


def test_orthogonality_check_catches_a_rescaled_coordinate(monkeypatch, capsys):
    # dropping the 1/sqrt2 on E4 is a linear change of coordinates, which
    # span membership cannot see; it breaks the E-map identity, so the
    # certificate, the selftest and every u3u1u2 lift-check fail
    exact = lifting.sym_to_e_coords

    def unscaled_e4(grid):
        coords = exact(grid)
        return coords[:3] + (coords[3] * SQRT2,) + coords[4:]

    monkeypatch.setattr(lifting, "sym_to_e_coords", unscaled_e4)
    lifting.e_map_certificate.cache_clear()
    try:
        # E(e1.e2) = E4 now has square norm 1 instead of 1/2
        assert lifting.e_map_certificate() == (
            (1, 2), (1, 2), ONE, FieldElem(Fraction(1, 2)))
        all_ok, results = run_selftest()
        assert not all_ok
        # period_triple reads its labels off the identity, so it refuses too
        assert [detail for name, ok, detail in results if not ok] == [
            "raised ValueError: the E-map identity fails: "
            "h_W(E(e1.e2), E(e1.e2)): got 1, want 1/2",
            "h_W(E(e1.e2), E(e1.e2)): got 1, want 1/2"]
        capsys.readouterr()
        assert main(["lift-check", "--domain", "u3u1u2", "--samples", "3",
                     "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert out.count("horizontal=False") == 3
        assert out.endswith("summary: FAIL\n")
        # the failing records take the one --json path no passing run takes
        assert main(["lift-check", "--domain", "u3u1u2", "--samples", "3",
                     "--seed", "0", "--json"]) == 1
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True) + "\n"
        assert payload["summary"] == "FAIL"
        assert [sample["pass"] for sample in payload["samples"]] == [False] * 3
        r = rng(611)
        for _ in range(100):
            v0 = rand_negative_vector(r)
            w = rand_orthogonal_direction(r, v0)
            assert rref_horizontality_check(v0, w)
            assert not horizontality_check(v0, w)
    finally:
        lifting.e_map_certificate.cache_clear()


def test_e_map_certificate_maps_each_basis_product_once(monkeypatch):
    # six basis products e_i.e_j (i <= j), each through the E-map once; the
    # 36 ordered pairs reuse them
    calls = []
    exact = lifting.sym_to_e_coords

    def counted(grid):
        calls.append(grid)
        return exact(grid)

    monkeypatch.setattr(lifting, "sym_to_e_coords", counted)
    lifting.e_map_certificate.cache_clear()
    try:
        assert lifting.e_map_certificate() is None
        assert len(calls) == 6
        assert lifting.e_map_certificate() is None and len(calls) == 6
    finally:
        lifting.e_map_certificate.cache_clear()


@pytest.mark.parametrize("call", [
    lambda e3: horizontality_check(e3, unit_vector(3, 0)),
    lambda e3: period_triple(e3),
], ids=["horizontality", "period_triple"])
def test_horizontality_rejects_a_basis_not_orthogonal_to_the_line(monkeypatch, call):
    # every product horizontality decides, and every Gram matrix the flag's
    # labels are read from, has a factor h(v0, u_i); the basis makes each
    # vanish, so a nonzero one is a wrong basis, not a verdict
    real = lifting.negative_line_basis

    def tilted(v):
        vec, (u1, u2) = real(v)
        return vec, (tuple(x + y for x, y in zip(u1, vec)), u2)

    monkeypatch.setattr(lifting, "negative_line_basis", tilted)
    with pytest.raises(ValueError, match="not orthogonal to the line"):
        call(unit_vector(3, 2))


def test_period_triple_refuses_a_failing_certificate(monkeypatch, capsys):
    # the labels hold only under the E-map identity, so a failing
    # certificate is an error, and the CLI prints no flag
    failure = ((1, 2), (1, 2), ONE, FieldElem(Fraction(1, 2)))
    monkeypatch.setattr(lifting, "e_map_certificate", lambda: failure)
    message = ("the E-map identity fails: "
               "h_W(E(e1.e2), E(e1.e2)): got 1, want 1/2")
    with pytest.raises(ValueError, match=re.escape(message)):
        period_triple(unit_vector(3, 2))
    capsys.readouterr()
    assert main(["period-triple", "--vector", "0,0,1", "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("bad", [0.5, "x"])
@pytest.mark.parametrize("call", [
    lambda bad: period_triple((bad, 0, 1)),
    lambda bad: horizontality_check((0, 0, 1), (bad, 0, 0)),
    lambda bad: twistor_nonlift_check((bad, 1)),
    lambda bad: holomorphy_check_u3u1u2((bad, 1)),
    lambda bad: iota_star_bplus((bad, 1)),
    lambda bad: su21_p_matrix(bad, 0),
    lambda bad: ball_tangent((bad, 1)),
    lambda bad: make_embedding("sym_square")((bad, 1)),
    lambda bad: make_embedding("rho")((bad, 1)),
], ids=["period_triple", "horizontality_check", "twistor_nonlift_check",
        "holomorphy_check_u3u1u2", "iota_star_bplus", "su21_p_matrix", "ball_tangent", "sym_square", "rho"])
def test_non_scalar_entries_raise_type_error(call, bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad)) + " is not a scalar"):
        call(bad)


def test_horizontality_preconditions():
    with pytest.raises(ValueError):
        horizontality_check(unit_vector(3, 0), unit_vector(3, 1))   # positive line
    with pytest.raises(ValueError):
        horizontality_check(unit_vector(3, 2), unit_vector(3, 2))   # not orthogonal
    # vectors of C^2 are not vectors of C^{2,1}
    with pytest.raises(ValueError, match="expected a vector in C"):
        negative_line_basis((ZERO, ONE))
    with pytest.raises(ValueError, match="expected a vector in C"):
        horizontality_check(unit_vector(3, 2), (ONE, ZERO))
    with pytest.raises(ValueError, match="does not match the signature"):
        horizontality_check((ZERO, ONE), unit_vector(3, 0))


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
                assert generic_herm_form(vec, v_t, BALL_SIG) == JetScalar(0, 0)
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
