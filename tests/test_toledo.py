"""Pullback constants, their distinctness, and the composition arithmetic."""

from fractions import Fraction

import pytest

from qktoledo import (FieldElem, Matrix, TangentVec, ONE, ZERO, I, HALF_SQRT2,
                      composition_invariant, kahler_form, make_embedding, omega4,
                      pullback_constant, standard_quadruple, wedge_square_eval)

from _helpers import (invariant_omega4, matchings_oracle, perm_det,
                      quat_omega_unit, rng, rand_fraction)

EMBEDDINGS = ("rho", "sym_square", "phi", "totally_real")


def test_pullback_ratios():
    # the four ratio values are selftest registry checks; the convention the
    # CLI prints with each report is checked in test_cli
    for name in EMBEDDINGS:
        rep = pullback_constant(make_embedding(name))
        assert rep.ratio * 16 == rep.omega_value


@pytest.mark.parametrize("n", (2, 3, 16, 17, 100))
def test_pullback_at_the_size_bounds(n):
    # n = 2 and 100 are the CLI's bounds on --n, 16 the largest the benchmark
    # draws; the images are nonzero only in their first four rows at every n
    for name, omega, omega0sq, ratio in (("rho", 4, 64, Fraction(1, 4)),
                                         ("totally_real", 0, 0, 0),
                                         ("phi", 1, 16, Fraction(1, 16))):
        rep = pullback_constant(make_embedding(name, n))
        assert (rep.omega_value, rep.omega0sq_value, rep.ratio) == (
            FieldElem(omega), FieldElem(omega0sq), FieldElem(ratio))


def test_pullback_report_is_the_n_2_report_at_every_n():
    # the named row maps put coordinate k in row pair k only, so the report
    # is evaluated at n = 2; the full-image oracle below checks that value
    for name in ("rho", "totally_real", "phi"):
        at_two = pullback_constant(make_embedding(name, 2))
        for n in range(2, 101):
            assert pullback_constant(make_embedding(name, n)) == at_two, (name, n)
        with pytest.raises(ValueError, match="n >= 2"):
            pullback_constant(make_embedding(name, 1))


@pytest.mark.parametrize("name, n", [
    *((name, n) for name in ("rho", "totally_real", "phi") for n in (2, 3, 16, 17, 100)),
    ("sym_square", 2)])
def test_pullback_report_matches_the_oracles_on_the_full_images(name, n):
    # both values come from one pairing table over the images at n = 2; the
    # oracles read every row of the full images: the quaternion product for
    # each unit form, and the Kahler form's herm_form pairing for Omega0^2
    embedding = make_embedding(name, n)
    images = [embedding(x) for x in standard_quadruple(n)]
    rep = pullback_constant(embedding)
    total = ZERO
    for unit in ("i", "j", "k"):
        total = total + matchings_oracle(
            lambda u, v: quat_omega_unit(u, v, unit), images)
    assert rep.omega_value == total
    assert rep.omega0sq_value == wedge_square_eval(kahler_form, *images)


def _mix_rows(a, b):
    """The 4 x 4 unitary sending rows (a, b) to (h*a - h*b, h*a + h*b)."""
    m = [[ONE if r == c else ZERO for c in range(4)] for r in range(4)]
    m[a][a], m[a][b], m[b][a], m[b][b] = HALF_SQRT2, -HALF_SQRT2, HALF_SQRT2, HALF_SQRT2
    return Matrix(m)


_I4, _I2 = Matrix.diagonal((1,) * 4), Matrix.diagonal((1, 1))
_U = Matrix([[HALF_SQRT2, HALF_SQRT2 * I, ZERO, ZERO],
             [HALF_SQRT2 * I, HALF_SQRT2, ZERO, ZERO],
             [ZERO, ZERO, ONE, ZERO], [ZERO, ZERO, ZERO, ONE]])
_V = Matrix([[HALF_SQRT2, HALF_SQRT2 * I], [HALF_SQRT2 * I, HALF_SQRT2]])
_P = Matrix.diagonal([I, ONE, ONE, ONE])
# P.H13.P.H12 has determinant -1; the central phase (1 + i)/sqrt2, whose
# fourth power is -1, puts it in SU(4)
_U_MIXED = (_P @ _mix_rows(0, 2) @ _P @ _mix_rows(0, 1)) * (HALF_SQRT2 * (ONE + I))

# elements (U, V) of K = S(U(4) x U(2)), acting on a block by A -> U A V*
K_ELEMENTS = {"identity": (_I4, _I2), "U": (_U, _I2), "V": (_I4, _V),
              "U and V": (_U, _V), "P.H13.P.H12": (_U_MIXED, _I2)}

# the pullback constants of the K-invariant form, relative to Omega_B^2 = 16
INVARIANT_RATIOS = {"rho": 0, "totally_real": Fraction(1, 4),
                    "phi": Fraction(1, 16), "sym_square": Fraction(-3, 64)}


def _moved_images(name, k):
    """Images of the standard quadruple under k composed with the embedding."""
    u, v = K_ELEMENTS[k]
    emb = make_embedding(name)
    return [TangentVec((u @ emb(x) @ v.conj_transpose()).entries)
            for x in standard_quadruple(2)]


@pytest.mark.parametrize("k", K_ELEMENTS)
def test_k_elements_lie_in_the_isotropy_group(k):
    u, v = K_ELEMENTS[k]
    assert u @ u.conj_transpose() == _I4
    assert v @ v.conj_transpose() == _I2
    assert perm_det(u.entries) * perm_det(v.entries) == ONE


@pytest.mark.parametrize("k", K_ELEMENTS)
def test_invariant_oracle_gives_one_constant_through_every_k(k):
    for name, ratio in INVARIANT_RATIOS.items():
        assert invariant_omega4(*_moved_images(name, k)) == FieldElem(ratio * 16), name


def test_omega4_is_the_chart_form_and_not_k_invariant():
    # a known fact, pinned: the printed constants are those of the chart
    # form x + y*j, and U moves the symmetric square's 11/64 to 19/64
    moved = {name: omega4(*_moved_images(name, "U")) / 16 for name in EMBEDDINGS}
    assert moved == {"rho": FieldElem(Fraction(1, 4)),
                     "sym_square": FieldElem(Fraction(19, 64)),
                     "phi": FieldElem(Fraction(1, 16)), "totally_real": ZERO}
    assert pullback_constant(make_embedding("sym_square")).ratio == FieldElem(Fraction(11, 64))


def test_ratios_pairwise_distinct():
    ratios = [pullback_constant(make_embedding(n)).ratio for n in EMBEDDINGS]
    for i in range(len(ratios)):
        for j in range(i + 1, len(ratios)):
            assert ratios[i] != ratios[j]


def test_determinant_scaling_under_recombination():
    r = rng(501)
    emb = make_embedding("sym_square")
    quad = standard_quadruple(2)
    images = [emb(x) for x in quad]
    base = omega4(*images)
    for _ in range(100):
        m = [[rand_fraction(r, -3, 3, 3) for _ in range(4)] for _ in range(4)]
        det = perm_det(m)
        if det == 0:
            continue
        recombined = []
        for row in m:
            acc = images[0].scale(row[0])
            for c, img in zip(row[1:], images[1:]):
                acc = acc + img.scale(c)
            recombined.append(acc)
        assert omega4(*recombined) == FieldElem(det) * base


def test_composition_invariant_values():
    assert composition_invariant(1, 16).value == 1
    rep = composition_invariant(2, 5, vol_source=11)
    assert rep.value == Fraction(5, 8)
    assert rep.below_source_bound is True   # 2*5 < 11
    rep = composition_invariant(3, 4, vol_source=12)
    assert rep.below_source_bound is False  # 3*4 = 12, not strict
    assert composition_invariant(2, 5).below_source_bound is None


def test_composition_invariant_rejects_bad_input():
    with pytest.raises(ValueError):
        composition_invariant(0, 4)
    with pytest.raises(ValueError):
        composition_invariant(1, 0)
    with pytest.raises(ValueError):
        composition_invariant(1, 4, vol_source=-1)
    # inexact or non-integral arguments would make the value a float
    # bool is a subclass of int, but True is not a degree or a volume
    for args in ((1.5, 8), (Fraction(3, 2), 8), (1, 8.0), (1, 8, 2.5), (1, "8"),
                 (True, 8), (2, True), (1, 8, True)):
        with pytest.raises(ValueError):
            composition_invariant(*args)
