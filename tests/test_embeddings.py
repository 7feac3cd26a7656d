"""The four embedding differentials and the symmetric square machinery."""

import pytest

from qktoledo import (FieldElem, Matrix, Quat,
                      ZERO, ONE, I, SQRT2, HALF_SQRT2,
                      W_SIG,
                      herm_form, is_su21, make_embedding, standard_quadruple,
                      su21_p_matrix, sym_product,
                      sym_square_lie, sym_to_e_coords, to_quat)
from qktoledo.selftest import w_form_tensor

from _helpers import (rng, rand_complex_vec, rand_su21, rand_field_elem,
                      rand_real_field_elem)


def test_rho_blocks():
    # n = 2 is pinned by the selftest registry; here the layout at n = 3
    rho = make_embedding("rho", 3)
    assert rho((ZERO, ZERO, I)) == Matrix([[ZERO, ZERO]] * 4
                                          + [[I, ZERO], [ZERO, I]])
    assert rho((ZERO, ZERO, ZERO)).is_zero()


def test_totally_real_blocks():
    tot = make_embedding("totally_real")
    assert tot((ONE, ZERO)) == make_embedding("rho")((ONE, ZERO))
    assert make_embedding("totally_real", 3)((ZERO, ZERO, I)) == Matrix(
        [[ZERO, ZERO]] * 4 + [[I, ZERO], [ZERO, -I]])
    assert tot((ZERO, ZERO)).is_zero()


def test_phi_blocks():
    phi = make_embedding("phi")
    assert to_quat(phi((ONE, ZERO))) == (Quat(ONE), Quat(), Quat(), Quat())
    assert make_embedding("phi", 3)((ZERO, ZERO, I)) == Matrix(
        [[ZERO, ZERO]] * 4 + [[I, ZERO], [ZERO, ZERO]])
    assert phi((ZERO, ZERO)).is_zero()


def test_sym_square_tangent_quat_coords():
    # the (1, 0), (0, 1) and (0, i) images are selftest registry checks
    assert to_quat(make_embedding("sym_square")((I, ZERO))) == (
        Quat(I), Quat(), Quat(-I), Quat(ZERO, I * HALF_SQRT2))


def test_tensor_form_matches_coordinate_form():
    r = rng(401)
    for _ in range(100):
        u = rand_complex_vec(r, 3)
        v = rand_complex_vec(r, 3)
        x = rand_complex_vec(r, 3)
        y = rand_complex_vec(r, 3)
        s, t = sym_product(u, v), sym_product(x, y)
        lhs = w_form_tensor(s, t)
        rhs = herm_form(sym_to_e_coords(s), sym_to_e_coords(t), W_SIG)
        assert lhs == rhs


def test_leibniz_expansion_of_mixed_vector():
    # d(X)(e3 . e1) = E1 + E3 for a = (1, 0) is a selftest registry check;
    # in the orthonormal E5 column it carries the extra sqrt2
    lie = sym_square_lie(su21_p_matrix(ONE, ZERO))
    assert lie.col(4) == (SQRT2, ZERO, SQRT2, ZERO, ZERO, ZERO)


def test_sym_square_lie_on_compact_direction():
    x = Matrix.diagonal([I, I, FieldElem(0, -2)])
    assert is_su21(x)
    want = Matrix.diagonal([FieldElem(0, 2), FieldElem(0, 2), FieldElem(0, -4),
                            FieldElem(0, 2), -I, -I])
    assert sym_square_lie(x) == want


def test_sym_square_lie_rejects_non_su21():
    with pytest.raises(ValueError):
        sym_square_lie(Matrix.diagonal((1, 1, 1)))
    assert not is_su21(Matrix.zeros(2, 2))
    with pytest.raises(ValueError):
        sym_square_lie(Matrix.diagonal([I, I, I]))


def test_sym_square_lie_zero():
    zero = Matrix.zeros(3, 3)
    assert sym_square_lie(zero).is_zero()


def test_sym_square_lie_lands_in_su42():
    form = Matrix.diagonal([1, 1, 1, 1, -1, -1])
    r = rng(403)
    for _ in range(100):
        lie = sym_square_lie(rand_su21(r))
        assert (lie.conj_transpose() @ form + form @ lie).is_zero()
        assert not lie.trace()


NAMES = ("rho", "totally_real", "phi", "sym_square")


def test_embeddings_are_real_linear():
    # each differential is its closed-form row map, so R-linearity must hold
    # for full Q(i, sqrt2) coordinates and real coefficients a + c*sqrt2
    r = rng(406)
    cases = [(name, 2) for name in NAMES] + [(name, 3) for name in NAMES[:3]]
    for name, n in cases:
        emb = make_embedding(name, n)
        for _ in range(50):
            x = tuple(rand_field_elem(r) for _ in range(n))
            y = tuple(rand_field_elem(r) for _ in range(n))
            a, b = rand_real_field_elem(r), rand_real_field_elem(r)
            combo = tuple(a * u + b * v for u, v in zip(x, y))
            assert emb(combo) == emb(x).scale(a) + emb(y).scale(b)


def test_embeddings_are_values():
    for name in NAMES:
        a, b = make_embedding(name), make_embedding(name)
        assert a == b and hash(a) == hash(b)
        assert not hasattr(a, "__dict__")      # nothing cached beside the value
    assert make_embedding("rho", 2) != make_embedding("rho", 3)
    assert make_embedding("rho") != make_embedding("phi")
    assert repr(make_embedding("rho", 3)) == "EmbeddingDiff(name='rho', n=3)"


def test_complex_linearity_of_rho_and_phi():
    r = rng(407)
    for name in ("rho", "phi"):
        emb = make_embedding(name)
        for _ in range(50):
            x = rand_complex_vec(r, 2)
            ix = tuple(I * c for c in x)
            assert emb(ix) == emb(x) * I
    tot = make_embedding("totally_real")
    x = (ONE, ZERO)
    ix = (I, ZERO)
    assert tot(ix) != tot(x) * I


def test_make_embedding_validation():
    with pytest.raises(ValueError):
        make_embedding("sym_square", 3)
    with pytest.raises(ValueError):
        make_embedding("unknown")
    for n in (0, 2.5, "2", True, False):
        with pytest.raises(ValueError):
            make_embedding("rho", n)
    with pytest.raises(ValueError, match="expected a complex 3-vector"):
        make_embedding("rho", 3)((ONE, ZERO))
    with pytest.raises(ValueError, match="needs n >= 2"):
        standard_quadruple(1)
