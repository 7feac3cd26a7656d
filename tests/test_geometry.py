"""Complex structure, metric, quaternionic coordinates and the 4-form."""

import pytest

from qktoledo import (FieldElem, Matrix, Quat, TangentVec,
                      ZERO, ONE, I, QUAT_UNITS,
                      complex_structure_j, kahler_form,
                      make_embedding, metric_g0, omega4, omega_unit,
                      standard_quadruple, to_quat, wedge_square_eval)
from qktoledo.selftest import ball_tangent, su_matrix

from _helpers import matchings_oracle, rng, rand_tangent, rand_complex_vec

RHO = make_embedding("rho")
TOT = make_embedding("totally_real")
QUAD = standard_quadruple(2)


def test_full_tangent_matrix_lies_in_su_p_q():
    r = rng(300)
    form = Matrix.diagonal([1, 1, 1, 1, -1, -1])
    for _ in range(50):
        m = su_matrix(rand_tangent(r, 4))
        assert (m.conj_transpose() @ form + form @ m).is_zero()
        assert m.trace() == ZERO


def test_complex_structure():
    x = TangentVec.identity(2)
    assert complex_structure_j(x) == TangentVec.identity(2) * I
    r = rng(301)
    for _ in range(50):
        y = rand_tangent(r, 4)
        assert complex_structure_j(complex_structure_j(y)) == -y
    # J carries the first diagonal basis image to the second
    assert complex_structure_j(RHO((ONE, ZERO))) == RHO((I, ZERO))


def test_metric_values():
    e11 = TangentVec([[ONE, ZERO], [ZERO, ZERO]])
    assert metric_g0(e11, e11) == FieldElem(4)
    x, y = ball_tangent(QUAD[0]), ball_tangent(QUAD[1])
    assert metric_g0(x, y) == ZERO


def test_metric_symmetric_positive_j_invariant():
    r = rng(302)
    for _ in range(100):
        x, y = rand_tangent(r, 4), rand_tangent(r, 4)
        assert metric_g0(x, y) == metric_g0(y, x)
        assert metric_g0(complex_structure_j(x), complex_structure_j(y)) == metric_g0(x, y)
        if not x.is_zero():
            assert metric_g0(x, x).real_sign() > 0


def test_kahler_form_values_and_antisymmetry():
    # the basis values 4, 4 and 16 are selftest registry checks
    r = rng(303)
    for _ in range(100):
        u, v = rand_tangent(r, 4), rand_tangent(r, 4)
        assert kahler_form(u, u) == ZERO
        assert kahler_form(u, v) == -kahler_form(v, u)
        assert kahler_form(u, v).is_real()


def test_wedge_alternation_on_repeat():
    r = rng(304)
    x, z, w = (rand_tangent(r, 4) for _ in range(3))
    assert wedge_square_eval(kahler_form, x, x, z, w) == ZERO


def test_to_quat_examples_and_round_trip():
    zero = TangentVec.zeros(4, 2)
    assert to_quat(zero) == (Quat(),) * 4
    with pytest.raises(ValueError):
        to_quat(ball_tangent((ONE, ZERO)))
    r = rng(306)
    for _ in range(50):
        x = rand_tangent(r, 4)
        assert TangentVec([[q.z, q.w] for q in to_quat(x)]) == x


def test_totally_real_quat_coords():
    img = TOT((I, ZERO))
    assert to_quat(img) == (Quat(I), Quat(ZERO, -I), Quat(), Quat())


def test_omega_unit_values():
    x, y = RHO(QUAD[0]), RHO(QUAD[1])
    # single pairing is 2; its square in the wedge gives the 4 below
    assert omega_unit(x, y, "i") == FieldElem(2)
    assert omega_unit(x, y, "j") == ZERO
    assert omega_unit(x, y, "k") == ZERO
    r = rng(307)
    for _ in range(100):
        u = rand_tangent(r, 4)
        for unit in ("i", "j", "k"):
            assert omega_unit(u, u, unit) == ZERO
    # all three 2-forms vanish identically on totally real images
    for _ in range(50):
        u = TOT(rand_complex_vec(r, 2))
        v = TOT(rand_complex_vec(r, 2))
        for unit in ("i", "j", "k"):
            assert omega_unit(u, v, unit) == ZERO


def test_omega4_vs_unit_oracles():
    r = rng(309)
    for _ in range(50):
        vecs = [rand_tangent(r, 4) for _ in range(4)]
        total = ZERO
        for unit in ("i", "j", "k"):
            form = lambda u, v: omega_unit(u, v, unit)
            total = total + matchings_oracle(form, vecs)
        assert omega4(*vecs) == total


def test_right_multiplications_square_and_anticommute():
    def right_mul(qs, unit):
        return tuple(q * QUAT_UNITS[unit] for q in qs)

    r = rng(312)
    for _ in range(50):
        qc = to_quat(rand_tangent(r, 4))
        for unit in ("i", "j", "k"):
            twice = right_mul(right_mul(qc, unit), unit)
            assert twice == tuple(-q for q in qc)
        for u1, u2 in (("i", "j"), ("j", "k"), ("k", "i")):
            ab = right_mul(right_mul(qc, u1), u2)
            ba = right_mul(right_mul(qc, u2), u1)
            assert ab == tuple(-q for q in ba)
