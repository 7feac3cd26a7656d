"""Pullback constants, their distinctness, and the composition arithmetic."""

from fractions import Fraction

import pytest

from qktoledo import (FieldElem, composition_invariant,
                      make_embedding, omega4, pullback_constant,
                      standard_quadruple)

from _helpers import perm_det, rng, rand_fraction

EMBEDDINGS = ("rho", "sym_square", "phi", "totally_real")


def test_pullback_ratios():
    # the four ratio values are selftest registry checks; the convention the
    # CLI prints with each report is checked in test_cli
    for name in EMBEDDINGS:
        rep = pullback_constant(make_embedding(name))
        assert rep.ratio * 16 == rep.omega_value


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
