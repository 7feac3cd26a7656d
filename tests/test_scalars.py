"""Field, quaternion and jet arithmetic: exact identities and oracles."""

from fractions import Fraction
from math import gcd

import pytest

from qktoledo import (FieldElem, JetScalar, Matrix, Quat, Subspace, TangentVec,
                      composition_invariant, make_embedding, pullback_constant,
                      parse_field_elem, ZERO, ONE, I, SQRT2, I_SQRT2,
                      HALF_SQRT2, QUAT_I, QUAT_J, QUAT_K)

from _helpers import (fraction_render, iv_sign, rng, rand_field_elem,
                      rand_fraction, rand_nonzero_field_elem,
                      rand_real_field_elem, rand_quat)


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
        assert (p * q).norm() == p.norm() * q.norm()
        n = q.conj() * q
        assert n.w.is_zero() and n.z.is_real()


def test_jets():
    one_eps = JetScalar(1, 1)
    assert one_eps * JetScalar(1, -1) == JetScalar(1, 0)
    assert JetScalar(1, 2) * JetScalar(3, 4) == JetScalar(3, 10)
    assert JetScalar(2, 1).inverse() == JetScalar(Fraction(1, 2), Fraction(-1, 4))
    with pytest.raises(ZeroDivisionError):
        JetScalar(0, 1).inverse()
    r = rng(105)
    for _ in range(200):
        a = JetScalar(rand_field_elem(r), rand_field_elem(r))
        b = JetScalar(rand_field_elem(r), rand_field_elem(r))
        assert a * b == b * a
        assert (a + b) * a == a * a + b * a
        if a.val:
            assert a * a.inverse() == JetScalar(1, 0)


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
        text = str(x)
        assert text == fraction_render(x), (x.na, x.nb, x.nc, x.nd, x.den)
        assert parse_field_elem(text) == x, text
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
              (Matrix.identity(2), "entries"), (TangentVec([[ONE, I]]), "rows"),
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


def _is_canonical(x):
    coords = (x.na, x.nb, x.nc, x.nd)
    return (x.den > 0 and gcd(*coords, x.den) == 1
            and (any(coords) or x.den == 1))


def test_results_stay_canonical():
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
    lambda x: x - 1.5, lambda x: 1.5 - x, lambda x: x * "2", lambda x: x + None])
def test_non_scalar_operands_raise_type_error(operation):
    with pytest.raises(TypeError):
        operation(FieldElem(1, 2, 3, 4))
