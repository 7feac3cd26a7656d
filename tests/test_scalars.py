"""Field, quaternion and jet arithmetic: exact identities and oracles."""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest

from qktoledo import scalars
from qktoledo import (EmbeddingDiff, FieldElem, JetScalar, Matrix, Quat, Subspace,
                      TangentVec, composition_invariant, make_embedding,
                      pullback_constant, parse_field_elem, period_triple, unit_vector,
                      ZERO, ONE, I, SQRT2, I_SQRT2, HALF_SQRT2, QUAT_I, QUAT_J, QUAT_K)

from _helpers import (fraction_render, iv_sign, rationalized_inverse, rng,
                      rand_big_field_elem, rand_field_elem, rand_fraction,
                      rand_nonzero_field_elem, rand_real_field_elem, rand_quat,
                      term_by_term_parse)


def test_defining_relations():
    assert SQRT2 * SQRT2 == FieldElem(2)
    assert (ONE + I) * (ONE - I) == FieldElem(2)
    assert (ONE + SQRT2) * (SQRT2 - ONE) == ONE
    assert I * I == FieldElem(-1)
    assert I_SQRT2 * I_SQRT2 == FieldElem(-2)


def test_inverses():
    assert SQRT2.inverse() == HALF_SQRT2
    assert (ONE + I).inverse() == FieldElem(Fraction(1, 2), Fraction(-1, 2))
    assert (ONE + SQRT2).inverse() == FieldElem(-1, 0, 1, 0)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_field_axioms_random():
    r = rng(101)
    for _ in range(1000):
        x, y, z = rand_field_elem(r), rand_field_elem(r), rand_field_elem(r)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) + z == x + (y + z)
    for _ in range(1000):
        x = rand_nonzero_field_elem(r)
        assert x * x.inverse() == ONE
        assert x / x == ONE


def test_conj_is_involutive_automorphism():
    r = rng(102)
    assert SQRT2.conj() == SQRT2
    for _ in range(300):
        x, y = rand_field_elem(r), rand_field_elem(r)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()


def test_real_sign_cases():
    assert FieldElem(3, 0, -2, 0).real_sign() == 1      # 9 > 8
    assert FieldElem(1, 0, -1, 0).real_sign() == -1     # 1 - sqrt2 < 0
    assert ZERO.real_sign() == 0
    assert FieldElem(-3, 0, 2, 0).real_sign() == -1
    assert FieldElem(-1, 0, 1, 0).real_sign() == 1      # sqrt2 - 1 > 0
    with pytest.raises(ValueError):
        I.real_sign()


def test_real_sign_matches_interval_arithmetic():
    # Independent oracle: 50-bit interval arithmetic, refined until decisive.
    r = rng(103)
    for _ in range(1000):
        x = rand_real_field_elem(r)
        assert x.real_sign() == iv_sign(x.a, x.c)


def test_quat_units():
    assert QUAT_I * QUAT_J == QUAT_K
    assert QUAT_J * QUAT_I == -QUAT_K
    assert QUAT_I * QUAT_I == Quat(-1)
    assert QUAT_J * QUAT_J == Quat(-1)
    assert QUAT_K * QUAT_K == Quat(-1)
    # j z = conj(z) j
    z = FieldElem(2, 3)
    assert QUAT_J * Quat(z) == Quat(z.conj()) * QUAT_J
    # a scalar on the left is the quaternion z + 0*j on the left
    assert I * QUAT_J == Quat(I) * QUAT_J == QUAT_K
    assert QUAT_J * I == -QUAT_K != I * QUAT_J
    assert not Quat(ZERO) and QUAT_J and Quat(I)


def test_quat_scalar_side_matters():
    # (x j) conj(y j) = x conj(y) for complex x, y
    x, y = ONE + I, SQRT2
    lhs = Quat(ZERO, x) * Quat(ZERO, y).conj()
    assert lhs == Quat(FieldElem(0, 0, 1, 1))    # sqrt2 + sqrt2*i
    assert lhs == Quat(x * y.conj())


def test_quat_conj_antihomomorphism_and_norm():
    r = rng(104)
    for _ in range(300):
        p, q = rand_quat(r), rand_quat(r)
        assert (p * q).conj() == q.conj() * p.conj()
        norm = lambda x: x.conj() * x
        assert norm(p * q) == norm(p) * norm(q)
        assert not norm(q).w and norm(q).z.is_real()


def test_jets():
    one_eps = JetScalar(1, 1)
    assert one_eps * JetScalar(1, -1) == JetScalar(1, 0)
    assert JetScalar(1, 2) * JetScalar(3, 4) == JetScalar(3, 10)
    assert JetScalar(2, 1).inverse() == JetScalar(Fraction(1, 2), Fraction(-1, 4))
    with pytest.raises(ZeroDivisionError):
        JetScalar(0, 1).inverse()
    with pytest.raises(TypeError):
        JetScalar(1, "x")
    r = rng(105)
    for _ in range(200):
        a = JetScalar(rand_field_elem(r), rand_field_elem(r))
        b = JetScalar(rand_field_elem(r), rand_field_elem(r))
        assert a * b == b * a
        assert (a + b) * a == a * a + b * a
        if a.val:
            assert a * a.inverse() == JetScalar(1, 0)


def test_pair_types_share_one_surface():
    # keyword construction by each type's own part names
    q, jet = Quat(z=I, w=SQRT2), JetScalar(val=ONE, deriv=HALF_SQRT2)
    assert (q.z, q.w, jet.val, jet.deriv) == (I, SQRT2, ONE, HALF_SQRT2)
    assert Quat(w=ONE) == QUAT_J and JetScalar(deriv=0) == JetScalar()
    assert repr(q) == "(1*i) + (1*sqrt2)*j"
    assert repr(jet) == "(1) + (1/2*sqrt2)*eps"
    with pytest.raises(TypeError, match="^Quat components must be FieldElem, "
                                        "int or Fraction$"):
        Quat(1, 0.5)
    with pytest.raises(TypeError, match="^JetScalar components must be "
                                        "FieldElem, int or Fraction$"):
        JetScalar("x")
    # a pair with zero second part is its scalar, with the scalar's hash
    for three in (Quat(3), JetScalar(3)):
        assert three == 3 and hash(three) == hash(3)
    # the two types never meet: neither coerces the other
    assert Quat(1) != JetScalar(1)
    with pytest.raises(TypeError):
        Quat(1) + JetScalar(1)


def test_rendering_golden():
    assert str(ZERO) == "0"
    assert str(FieldElem(Fraction(11, 64))) == "11/64"
    assert str(I) == "1*i"
    assert str(FieldElem(3, 0, -2, 0)) == "3 - 2*sqrt2"
    assert str(FieldElem(-1, 0, 1, 0)) == "-1 + 1*sqrt2"
    assert str(FieldElem(0, Fraction(1, 2), 0, Fraction(-3, 4))) == "1/2*i - 3/4*i*sqrt2"
    assert str(HALF_SQRT2) == "1/2*sqrt2"


def _render_case(r):
    """A field element whose nonzero coordinates are chosen by a random
    4-bit mask; a quarter of them have coefficients near 10**30."""
    mask, big = r.randrange(16), r.random() < 0.25
    coords = [0, 0, 0, 0]
    for k in range(4):
        if mask >> k & 1:
            if big:
                num = 10 ** 30 + r.randint(-10 ** 6, 10 ** 6)
                den = r.choice((1, r.randint(2, 9), 10 ** 30 + r.randint(1, 10 ** 6)))
            else:
                num, den = r.randint(1, 99), r.choice((1, r.randint(2, 99)))
            coords[k] = Fraction(r.choice((-1, 1)) * num, den)
    return FieldElem(*coords)


def test_rendering_matches_the_fraction_oracle():
    r = rng(109)
    values = [ZERO] + [_render_case(r) for _ in range(20_000)]
    for x in values:
        # the first str renders and keeps the text; the second reads it back
        for _ in range(2):
            text = str(x)
            assert text == fraction_render(x), (x.na, x.nb, x.nc, x.nd, x.den)
        assert parse_field_elem(text) == x, text
    x = FieldElem(Fraction(-1, 3), 2)
    assert str(x) is str(x)
    # the seeded cases cover every shape of the rendered text
    coords = [(x.na, x.nb, x.nc, x.nd) for x in values]
    nonzero = [tuple(k for k, n in enumerate(c) if n) for c in coords]
    assert nonzero.count(()) >= 1 and nonzero.count((0, 1, 2, 3)) > 500
    for k in range(4):
        assert nonzero.count((k,)) > 200
    assert sum(len({n > 0 for n in c if n}) == 2 for c in coords) > 5000
    assert sum(x.den == 1 for x in values) > 1000
    assert sum(max(map(abs, c)) > 10 ** 29 for c in coords) > 3000


def test_parse_round_trip():
    r = rng(106)
    for _ in range(300):
        x = rand_field_elem(r)
        assert parse_field_elem(str(x)) == x
    assert parse_field_elem("i") == I
    assert parse_field_elem("sqrt2") == SQRT2
    assert parse_field_elem("-i*sqrt2") == -I_SQRT2
    assert parse_field_elem("2i".replace("2i", "2*i")) == FieldElem(0, 2)
    for bad in ("", "1+", "i*i", "sqrt2*sqrt2*1", "x",
                "1/0", "1e5", "1.5", "1_0"):
        with pytest.raises(ValueError):
            parse_field_elem(bad)


def test_a_space_stands_only_at_an_end_or_by_an_operator():
    for text, want in ((" 1 / 2 * i ", FieldElem(0, Fraction(1, 2))),
                       ("1 -  2*sqrt2", FieldElem(1, 0, -2)),
                       ("- 3 + - i", FieldElem(-3, -1))):
        assert parse_field_elem(text) == term_by_term_parse(text) == want
    # a space inside a number or a name used to be deleted: "1 2" read as 12
    for bad in ("1 2", "s qrt2", "1 2*i", "i sqrt2", "1/2 0", "1 +2 3"):
        for parse in (parse_field_elem, term_by_term_parse):
            with pytest.raises(ValueError, match="malformed term"):
                parse(bad)


def test_a_bool_is_stored_as_an_int():
    # as Fraction(True) == Fraction(1): a bool numerator used to render "True"
    values = {"1": (FieldElem(True), Matrix([[True]]).entries[0][0],
                    unit_vector(2, 0, True)[0]),
              "1*i": (FieldElem(0, True),)}
    for text, elems in values.items():
        for x in elems:
            assert all(type(n) is int for n in (x.na, x.nb, x.nc, x.nd, x.den))
            assert str(x) == repr(x) == text
            assert parse_field_elem(str(x)) == x
    assert repr(Matrix([[True]])) == "[[1]]"


_PARSE_TOKENS = ("0", "1", "2", "7", "12", "3/4", "/", "/0", "*", "*i",
                 "*sqrt2", "i", "sqrt2", "+", "-", " ", "x", ".")
_PARSE_ERRORS = ("empty field element", "malformed term", "repeated i",
                 "repeated sqrt2", "zero denominator")
# terms of several numeric factors, whose product the parser builds as one
# numerator and one denominator, reduced once
_MULTI_FACTOR_TERMS = (
    "2*3/4", "3/4*4/3", "6/4*2/9*i", "-2/3*sqrt2*9/10*i", "1/2*2/3*3/4*5",
    "4*0/3*i + 7", "2*3*5*7/210 - 11/6*12/22*sqrt2", "0/5*0/7",
    "9999*" * 40 + "1/" + "9999" * 40, "2/3*3/0", "2*3/4*x", "2*3/4*i*3*i",
    "1/2*sqrt2*3/5", "- -3/8*8/3*i*sqrt2 + 1/9*3*3")


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


def test_parser_matches_the_term_by_term_oracle():
    # one FieldElem per call, built from four coordinate sums, against a
    # running sum of one FieldElem per term: same value or same error
    for text in _MULTI_FACTOR_TERMS:
        want = _parse_outcome(term_by_term_parse, text)
        assert _parse_outcome(parse_field_elem, text) == want, text
    r = rng(110)
    parsed, messages = 0, set()
    for _ in range(20_000):
        text = "".join(r.choice(_PARSE_TOKENS) for _ in range(r.randint(0, 9)))
        want = _parse_outcome(term_by_term_parse, text)
        assert _parse_outcome(parse_field_elem, text) == want, text
        if isinstance(want, FieldElem):
            parsed += 1
        else:
            messages.update(m for m in _PARSE_ERRORS if want[1].startswith(m))
    assert parsed > 1000
    assert messages == set(_PARSE_ERRORS)


def _hash_contract_holds(values):
    """x == y implies hash(x) == hash(y) on every pair; returns how many
    pairs of distinct types compared equal, so the check is not vacuous."""
    cross = 0
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)
                cross += type(x) is not type(y)
    return cross


def test_equal_values_hash_equal():
    assert len({FieldElem(1), 1, Fraction(1), Quat(1)}) == 1
    assert len({FieldElem(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert hash(Quat(I)) == hash(I)
    assert hash(JetScalar(2)) == hash(FieldElem(2))
    r = rng(107)
    for _ in range(200):
        q = rand_fraction(r)
        x = rand_field_elem(r)
        rationals = [q, FieldElem(q)] + ([int(q)] if q.denominator == 1 else [])
        # Quat and JetScalar never compare equal to each other: two groups
        quats = rationals + [Quat(q), x, Quat(x), Quat(x, x)]
        jets = rationals + [JetScalar(q), x, JetScalar(x), JetScalar(x, x)]
        assert _hash_contract_holds(quats) >= 4
        assert _hash_contract_holds(jets) >= 4
    # a tangent vector equals the plain matrix with its entries
    m, t = Matrix([[1, 0], [0, 1]]), TangentVec([[1, 0], [0, 1]])
    assert m == t and hash(m) == hash(t) and len({m, t}) == 1
    # a subspace is its rref basis, whichever spanning set built it
    s = Subspace(2, [(ONE, ZERO), (ZERO, ONE)])
    s2 = Subspace(2, [(ONE, ONE), (ONE, -ONE)])
    assert s == s2 and hash(s) == hash(s2)
    assert len({s: "e1, e2", s2: "e1 + e2, e1 - e2"}) == 1


def test_values_refuse_assignment_and_deletion():
    values = [(FieldElem(1, 2), "na"), (Quat(I), "z"), (JetScalar(1, 2), "val"),
              (Matrix.diagonal((1, 1)), "entries"), (TangentVec([[ONE, I]]), "rows"),
              (Subspace(2, [(ONE, I)]), "basis"),
              (make_embedding("phi"), "name"),
              (pullback_constant(make_embedding("phi")), "ratio"),
              (composition_invariant(2, 3, 7), "value")]
    for value, slot in values:
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, slot, None)
        with pytest.raises(AttributeError):
            delattr(value, slot)
        with pytest.raises(AttributeError):
            value.extra = None
        assert repr(value) == before
    # the text str keeps is no more assignable than the coordinates
    x = FieldElem(1, 2)
    for text in (None, "3", str(x)):
        with pytest.raises(AttributeError):
            x._text = text
        assert str(x) == "1 + 2*i"


def test_values_copy_and_pickle():
    values = [FieldElem(1), FieldElem(Fraction(-1, 3), 2, 0, Fraction(5, 7)),
              FieldElem(Fraction(1, 10**4400), 0, 0, -3),
              Quat(I, SQRT2), JetScalar(1, HALF_SQRT2), Matrix.diagonal((1, 1)),
              TangentVec([[ONE, I]]), Subspace(3, [(ONE, I, ZERO), (ONE, ONE, ONE)]),
              pullback_constant(make_embedding("rho")),
              composition_invariant(2, 3, 7), period_triple((0, 0, 1)),
              Subspace(6, period_triple((0, 0, 1))[0][1])]
    for value in values:
        # rendered first, so a copy starts from a value that holds its text
        text = repr(value)
        copies = (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value)))
        for twin in copies:
            assert twin == value and type(twin) is type(value), value
            assert repr(twin) == text
    # each named row map is a module function, so every copy keeps that
    # very function and a pickle refers to it by name
    for name, n in (("rho", 3), ("totally_real", 2), ("phi", 4), ("sym_square", 2)):
        emb = make_embedding(name, n)
        for twin in (copy.copy(emb), copy.deepcopy(emb),
                     pickle.loads(pickle.dumps(emb))):
            assert twin == emb and type(twin) is EmbeddingDiff
            assert twin.rows_of is emb.rows_of
            assert twin(unit_vector(n, 0)) == emb(unit_vector(n, 0))
    # any other row map is kept as it is: a lambda copies but cannot pickle
    emb = EmbeddingDiff("rho", 1, lambda x: [[x[0], ZERO], [ZERO, ZERO]])
    assert copy.deepcopy(emb) == emb
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(emb)


def test_reflected_division():
    r = rng(111)
    for _ in range(100):
        x, n, q = rand_nonzero_field_elem(r), r.randint(-9, 9), rand_fraction(r)
        for got, want in ((n / x, FieldElem(n) / x), (q / x, FieldElem(q) / x)):
            assert type(got) is FieldElem and _is_canonical(got)
            assert got == want
        assert 1 / x == x.inverse()
    for numerator in (1, 0, Fraction(1, 2)):
        with pytest.raises(ZeroDivisionError):
            numerator / ZERO


def test_report_reprs_and_equality():
    pullback = pullback_constant(make_embedding("phi"))
    assert repr(pullback) == ("PullbackReport(embedding='phi', omega_value=1, "
                              "omega0sq_value=16, ratio=1/16)")
    composition = composition_invariant(3, 8, 25)
    assert repr(composition) == ("CompositionReport(value=Fraction(3, 2), "
                                 "below_source_bound=True)")
    for a, b in ((pullback, pullback_constant(make_embedding("phi"))),
                 (composition, composition_invariant(3, 8, 25))):
        assert a is not b and a == b and hash(a) == hash(b)


def test_repr_renders_values_past_the_int_digit_limit():
    # str of such a value raises, as int's own str does; repr stays exact
    tiny = FieldElem(Fraction(1, 10**4400), 0, 0, -3)
    with pytest.raises(ValueError):
        str(tiny)
    text = repr(tiny)
    assert text == (f"(0x1 + 0x0*i + 0x0*sqrt2 + {-3 * 10**4400:#x}*i*sqrt2)"
                    f"/{10**4400:#x}")
    assert f"[{text}, 1/2]" == repr([tiny, FieldElem(Fraction(1, 2))])
    assert repr(Matrix([[tiny, ONE]])) == f"[[{text}, 1]]"
    assert repr(Subspace(2, [(ONE, tiny)])) == f"span{{[1, {text}]}} in C^2"
    assert repr(Quat(tiny, I)) == f"({text}) + (1*i)*j"
    assert repr(JetScalar(ONE, tiny)) == f"(1) + ({text})*eps"
    report = pullback_constant(make_embedding("phi"))._replace(ratio=tiny)
    assert repr(report).endswith(f"ratio={text})")


def _is_canonical(x):
    coords = (x.na, x.nb, x.nc, x.nd)
    return (x.den > 0 and gcd(*coords, x.den) == 1
            and (any(coords) or x.den == 1))


def _wide_elem(r, den):
    """A full-field element over exactly den: four numerators below den in
    absolute value, the first coprime to it."""
    while True:
        nums = [r.randrange(-den, den) for _ in range(4)]
        if gcd(nums[0], den) == 1 and all(nums):
            return FieldElem(*(Fraction(n, den) for n in nums))


def _coords(x):
    return x.a, x.b, x.c, x.d


def test_results_stay_canonical(monkeypatch):
    # equality is coordinate equality, so every fast path must normalize
    r = rng(108)
    integral = [FieldElem(*(r.randint(-4, 4) for _ in range(4)))
                for _ in range(40)]
    fractional = [rand_field_elem(r) for _ in range(40)]
    values = integral + fractional + [ZERO, ONE, -ONE, HALF_SQRT2]
    assert {x.den for x in integral} == {1}
    assert sum(x.den > 1 for x in fractional) > 30
    results = 0
    for _ in range(300):
        x, y = r.choice(values), r.choice(values)
        outs = [x + y, x - y, x * y, x - x]
        if y:
            outs.append(y.inverse())
        for out in outs:
            assert _is_canonical(out), (x, y, out)
        results += len(outs)
    assert results >= 1000
    for x in values:
        for zero in (x * ZERO, ZERO * x, x * 0, 0 * x):
            assert zero == ZERO and zero.den == 1 and hash(zero) == hash(0)
    # the one-step inverse against the two-step oracle, small and large
    big = [rand_big_field_elem(r) for _ in range(150)]
    assert min(max(abs(n) for n in (x.na, x.nb, x.nc, x.nd)).bit_length()
               for x in big) >= 300
    assert sum(len({Fraction(n, x.den).denominator for n in
                    (x.na, x.nb, x.nc, x.nd) if n}) > 1 for x in big) > 100
    for x in big + [x for x in values if x]:
        inv = x.inverse()
        assert _is_canonical(inv), x
        assert inv == rationalized_inverse(x), x
        assert x * inv == ONE
    # sums and differences over unequal 120-digit denominators against
    # Fraction's; over coprime ones they take no five-way gcd
    five_way = []

    def counted_gcd(*args):
        if len(args) == 5:
            five_way.append(args)
        return gcd(*args)

    monkeypatch.setattr(scalars, "gcd", counted_gcd)
    dens = [r.randrange(10**119, 10**120) for _ in range(40)]
    wide = [_wide_elem(r, den * k) for den in dens for k in (1, 6)]
    coprime = 0
    for _ in range(300):
        x, y = r.sample(wide, 2)
        five_way.clear()
        for got, want in ((x + y, map(Fraction.__add__, _coords(x), _coords(y))),
                          (x - y, map(Fraction.__sub__, _coords(x), _coords(y)))):
            assert _is_canonical(got) and _coords(got) == tuple(want), (x, y)
        if gcd(x.den, y.den) == 1:
            assert five_way == [], (x, y)
            coprime += 1
    assert 100 < coprime < 250


def test_negation_and_conjugation_take_no_gcd(monkeypatch):
    # a canonical value stays canonical under both, so neither reduces;
    # real_part drops b and d, and the rest may share a factor with den
    calls = []

    def counted_gcd(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(scalars, "gcd", counted_gcd)
    r = rng(111)
    values = [_wide_elem(r, r.randrange(2, 10**30)) for _ in range(200)]
    assert min(x.den for x in values) > 1
    for x in values:
        calls.clear()
        neg, conj = -x, x.conj()
        assert calls == [], x
        assert _coords(neg) == tuple(-c for c in _coords(x))
        assert _coords(conj) == (x.a, -x.b, x.c, -x.d)
        assert _is_canonical(neg) and _is_canonical(conj), x
    half = FieldElem(1, Fraction(1, 2)).real_part()
    assert half == ONE and half.den == 1


def test_mixed_operands_match_the_field_result():
    r = rng(110)
    for _ in range(300):
        x, n, q = rand_field_elem(r), r.randint(-9, 9), rand_fraction(r)
        fn, fq = FieldElem(n), FieldElem(q)
        for got, want in ((x + n, x + fn), (n + x, fn + x), (x - n, x - fn),
                          (n - x, fn - x), (x * q, x * fq), (q * x, fq * x),
                          (x - q, x - fq), (q - x, fq - x)):
            assert type(got) is FieldElem and _is_canonical(got)
            assert got == want


@pytest.mark.parametrize("operation", [
    lambda x: x - 1.5, lambda x: 1.5 - x, lambda x: x * "2", lambda x: x + None,
    lambda x: Quat("x"), lambda x: FieldElem(1.5), lambda x: 1.5 / x])
def test_non_scalar_operands_raise_type_error(operation):
    with pytest.raises(TypeError):
        operation(FieldElem(1, 2, 3, 4))
