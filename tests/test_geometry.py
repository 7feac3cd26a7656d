"""Complex structure, metric, quaternionic coordinates and the 4-form."""

from itertools import chain

import pytest

from qktoledo import (FieldElem, Matrix, Quat, TangentVec,
                      ZERO, ONE, I, QUAT_UNITS,
                      kahler_form,
                      make_embedding, metric_g0, omega4, omega_unit,
                      standard_quadruple, to_quat, unit_wedge_squares,
                      wedge_square_eval)
from qktoledo.selftest import ball_tangent, su_matrix

from _helpers import (matchings_oracle, quat_omega_unit, rng, rand_field_elem,
                      rand_nonzero_field_elem, rand_tangent, rand_complex_vec,
                      trace_metric)

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
    # J(A) = A * I squares to minus the identity
    r = rng(301)
    for _ in range(50):
        y = rand_tangent(r, 4)
        assert y * I * I == -y
    # J carries the first diagonal basis image to the second
    assert RHO((ONE, ZERO)) * I == RHO((I, ZERO))
    with pytest.raises(ValueError, match=r"J\(A\) is A \* I"):
        TangentVec.diagonal((1, 1)).scale(I)
    with pytest.raises(TypeError, match="real scalar"):
        TangentVec.diagonal((1, 1)).scale("x")


def test_metric_values():
    e11 = TangentVec([[ONE, ZERO], [ZERO, ZERO]])
    assert metric_g0(e11, e11) == FieldElem(4)
    x, y = ball_tangent(QUAD[0]), ball_tangent(QUAD[1])
    assert metric_g0(x, y) == ZERO
    with pytest.raises(ValueError, match="mismatched shapes"):
        metric_g0(x, e11)


def test_metric_symmetric_positive_j_invariant():
    r = rng(302)
    for _ in range(100):
        x, y = rand_tangent(r, 4), rand_tangent(r, 4)
        assert metric_g0(x, y) == metric_g0(y, x) == trace_metric(x, y)
        assert metric_g0(x * I, y * I) == metric_g0(x, y)
        if not x.is_zero():
            assert metric_g0(x, x).real_sign() > 0
    # the pairing reads every entry, so blocks of any width agree too
    for cols in (1, 3):
        for _ in range(20):
            x, y = rand_tangent(r, 3, cols), rand_tangent(r, 3, cols)
            assert metric_g0(x, y) == trace_metric(x, y)


def test_kahler_form_values_and_antisymmetry():
    # the basis values 4, 4 and 16 are selftest registry checks
    r = rng(303)
    for _ in range(100):
        u, v = rand_tangent(r, 4), rand_tangent(r, 4)
        assert kahler_form(u, u) == ZERO
        assert kahler_form(u, v) == -kahler_form(v, u)
        assert kahler_form(u, v).is_real()


def test_kahler_form_is_g0_of_jx_and_four_omega_i():
    # Omega0 = g0(JX, Y) by definition; on 2-column blocks it is 4 omega_i
    r = rng(305)
    for cols in (1, 2):
        for rows in (1, 2, 3, 5):
            for _ in range(10):
                x, y = (TangentVec([[rand_field_elem(r) for _ in range(cols)]
                                    for _ in range(rows)]) for _ in range(2))
                assert kahler_form(x, y) == metric_g0(x * I, y)
                if cols == 2:
                    assert kahler_form(x, y) == omega_unit(x, y, "i") * 4
    for other in (TangentVec.zeros(3, 2), TangentVec.zeros(2, 1)):
        with pytest.raises(ValueError, match="mismatched shapes"):
            kahler_form(TangentVec.zeros(2, 2), other)


def test_wedge_alternation_on_repeat():
    r = rng(304)
    x, z, w = (rand_tangent(r, 4) for _ in range(3))
    assert wedge_square_eval(kahler_form, x, x, z, w) == ZERO


def test_to_quat_examples_and_round_trip():
    zero = TangentVec.zeros(4, 2)
    assert to_quat(zero) == (Quat(),) * 4
    ball = ball_tangent((ONE, ZERO))
    for call in (lambda: to_quat(ball), lambda: omega_unit(ball, ball, "j"),
                 lambda: omega4(ball, ball, ball, ball)):
        with pytest.raises(ValueError, match="exactly 2 columns"):
            call()
    with pytest.raises(ValueError, match="mismatched shapes"):
        omega4(zero, zero, zero, TangentVec.zeros(2, 2))
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
        u, v = rand_tangent(r, 4), rand_tangent(r, 4)
        for unit in ("i", "j", "k"):
            assert omega_unit(u, u, unit) == ZERO
            assert omega_unit(u, v, unit) == quat_omega_unit(u, v, unit)
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
            form = lambda u, v: quat_omega_unit(u, v, unit)
            total = total + matchings_oracle(form, vecs)
        assert omega4(*vecs) == total


def _sparse_block(r, n):
    """A 2n x 2 block whose entries are each zero with probability 1/2."""
    return TangentVec([[rand_nonzero_field_elem(r) if r.random() < 0.5 else ZERO
                        for _ in range(2)] for _ in range(2 * n)])


def test_zero_skipping_pairings_match_the_oracles_on_sparse_blocks():
    # the pairings skip terms with a zero factor; the oracles read every entry
    r = rng(313)
    seen = set()
    for n in range(1, 6):
        for _ in range(20):
            vecs = [_sparse_block(r, n) for _ in range(4)]
            x, y = vecs[:2]
            for a, b in zip(chain(*x.entries), chain(*y.entries)):
                if not a and b:
                    seen.add("zero in x only")
                if a and not b:
                    seen.add("zero in y only")
            if any(not any(row) for row in x.entries + y.entries):
                seen.add("zero row")
            for unit in ("i", "j", "k"):
                assert omega_unit(x, y, unit) == quat_omega_unit(x, y, unit)
            assert kahler_form(x, y) == metric_g0(x * I, y)
            total = ZERO
            for unit in ("i", "j", "k"):
                form = lambda u, v: quat_omega_unit(u, v, unit)
                total = total + matchings_oracle(form, vecs)
            assert omega4(*vecs) == total
    assert seen == {"zero in x only", "zero in y only", "zero row"}


def _unit_oracles(vecs):
    return tuple(matchings_oracle(lambda u, v: quat_omega_unit(u, v, unit), vecs)
                 for unit in ("i", "j", "k"))


@pytest.mark.parametrize("zero_rows", [(0, 1), (3, 4), (6, 7), ()],
                         ids=["start", "middle", "end", "none"])
def test_unit_wedge_squares_over_the_union_of_the_supports(zero_rows):
    # rows zero in all four blocks are skipped; the first four other rows
    # are each zero in one block only, and the fifth in the first two, so
    # only the union of the four supports covers every row that counts
    r = rng(314)
    live = [k for k in range(8) if k not in zero_rows]
    zeros = [{*zero_rows, live[b], *(live[4:5] if b < 2 else ())} for b in range(4)]
    for _ in range(10):
        vecs = [TangentVec([[ZERO, ZERO] if k in zeros[b]
                             else [rand_nonzero_field_elem(r) for _ in range(2)]
                             for k in range(8)])
                for b in range(4)]
        got = unit_wedge_squares(*vecs)
        assert got == _unit_oracles(vecs)
        assert all(got)
        assert omega4(*vecs) == got[0] + got[1] + got[2]


def test_unit_wedge_squares_of_zero_blocks_are_zero():
    zero = TangentVec.zeros(6, 2)
    assert unit_wedge_squares(zero, zero, zero, zero) == (ZERO, ZERO, ZERO)
    # one nonzero block still gives zero: every matching pairs a zero block
    x = TangentVec([[ONE, I]] + [[ZERO, ZERO]] * 5)
    assert unit_wedge_squares(x, zero, zero, zero) == (ZERO, ZERO, ZERO)


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
