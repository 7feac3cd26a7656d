"""Matrices, Hermitian forms and subspace calculus over Q(i, sqrt2)."""

from fractions import Fraction

import pytest

from qktoledo import (BALL_SIG, W_SIG, FieldElem, Matrix, Subspace, herm_form,
                      unit_vector, ZERO, ONE, I, SQRT2, su21_p_matrix)

from _helpers import (contains, iv_sign, perm_det, perp, rng, rand_gauss,
                      rand_field_elem)


def test_matrix_basics():
    assert Matrix.identity(3).trace() == FieldElem(3)
    col = Matrix([[I], [SQRT2]])
    assert col.conj_transpose() == Matrix([[-I, SQRT2]])
    with pytest.raises(ValueError):
        Matrix([[ONE, ZERO]]).trace()
    with pytest.raises(ValueError):
        Matrix([[ONE]]) @ Matrix([[ONE, ZERO], [ZERO, ONE], [ONE, ONE]])


def test_matrix_rows_of_any_scalar_kind():
    half = Fraction(1, 2)
    want = Matrix([[ONE, FieldElem(half), I], [ZERO, SQRT2, FieldElem(-3)]])
    mixed = Matrix([[1, half, I], [0, SQRT2, -3]])
    generators = Matrix((x for x in row) for row in ([1, half, I], (0, SQRT2, -3)))
    for m in (mixed, generators):
        assert m == want
        assert all(type(x) is FieldElem for row in m.entries for x in row)
        assert all(type(row) is tuple for row in m.entries)
    with pytest.raises(TypeError, match="is not a scalar"):
        Matrix([[ONE, I, 1.5]])


def test_su21_basis_product():
    # hand-computed: X @ Y = diag(-i, 0, i) for the first two pair basis elements
    x = su21_p_matrix(ONE, ZERO)
    y = su21_p_matrix(I, ZERO)
    assert x @ y == Matrix.diagonal([-I, ZERO, I])
    assert y @ x == Matrix.diagonal([I, ZERO, -I])


def test_herm_form_values():
    assert herm_form(unit_vector(3, 2), unit_vector(3, 2), BALL_SIG) == FieldElem(-1)
    assert herm_form(unit_vector(3, 0), unit_vector(3, 2), BALL_SIG) == ZERO
    with pytest.raises(ValueError):
        herm_form(unit_vector(3, 0), unit_vector(6, 0), BALL_SIG)


def test_herm_form_conjugate_symmetry():
    r = rng(201)
    for _ in range(200):
        u = tuple(rand_field_elem(r) for _ in range(3))
        v = tuple(rand_field_elem(r) for _ in range(3))
        assert herm_form(u, v, BALL_SIG) == herm_form(v, u, BALL_SIG).conj()


def test_perp_examples():
    s = Subspace(3, [unit_vector(3, 2)])
    assert perp(s, BALL_SIG) == Subspace(3, [unit_vector(3, 0), unit_vector(3, 1)])


def test_definiteness_examples():
    # span(E5, E6) negative and span(E1, E2, E4) positive are registry checks
    mixed = Subspace(6, [unit_vector(6, 0), unit_vector(6, 4)])
    assert mixed.definiteness(W_SIG) == "indefinite"
    e_plus = tuple(x + y for x, y in zip(unit_vector(6, 0), unit_vector(6, 4)))
    e_minus = tuple(x - y for x, y in zip(unit_vector(6, 0), unit_vector(6, 4)))
    # isotropic line: degenerate restriction
    assert Subspace(6, [e_plus]).definiteness(W_SIG) == "degenerate"
    # hyperbolic plane spanned by isotropic vectors: zero diagonal, indefinite
    assert Subspace(6, [e_plus, e_minus]).definiteness(W_SIG) == "indefinite"


def test_inertia_of_full_space():
    full = Subspace(6, [unit_vector(6, k) for k in range(6)])
    assert full.inertia(W_SIG) == (4, 2, 0)


def _random_subspace(r, ambient=6, max_dim=5):
    d = r.randint(1, max_dim)
    vecs = [tuple(rand_gauss(r) for _ in range(ambient)) for _ in range(d)]
    return Subspace(ambient, vecs)


def test_membership_invariant_under_recombination():
    r = rng(202)
    for _ in range(50):
        s = _random_subspace(r)
        if s.dim == 0:
            continue
        # random invertible recombination of the spanning set
        while True:
            coeffs = [[rand_gauss(r) for _ in range(s.dim)] for _ in range(s.dim)]
            recombined = []
            for row in coeffs:
                v = tuple(ZERO for _ in range(6))
                for c, b in zip(row, s.basis):
                    v = tuple(x + c * y for x, y in zip(v, b))
                recombined.append(v)
            s2 = Subspace(6, recombined)
            if s2.dim == s.dim:
                break
        assert s2 == s
        probe = tuple(rand_gauss(r) for _ in range(6))
        assert contains(s, probe) == contains(s2, probe)
        inside = s.basis[0]
        assert contains(s2, inside)


def test_residue_is_linear_and_canonical():
    r = rng(204)
    s = _random_subspace(r, max_dim=3)
    for _ in range(50):
        u = tuple(rand_gauss(r) for _ in range(6))
        v = tuple(rand_gauss(r) for _ in range(6))
        sum_res = s.residue(tuple(x + y for x, y in zip(u, v)))
        res_sum = tuple(x + y for x, y in zip(s.residue(u), s.residue(v)))
        assert sum_res == res_sum
        assert s.residue(s.residue(u)) == s.residue(u)
        assert contains(s, tuple(x - y for x, y in zip(u, s.residue(u))))


def test_inertia_matches_leading_minor_oracle():
    # Independent oracle: the leading principal minors of the Gram matrix,
    # expanded over permutations and signed by interval arithmetic.  If
    # none vanishes, Jacobi's rule gives n_minus as the number of sign
    # changes in 1, D_1, ..., D_k; in any case sign(det) = (-1)^n_minus
    # when det != 0, and det = 0 means a degenerate restriction.
    e_plus = tuple(x + y for x, y in zip(unit_vector(6, 0), unit_vector(6, 4)))
    e_minus = tuple(x - y for x, y in zip(unit_vector(6, 0), unit_vector(6, 4)))
    e2_e5 = tuple(x + y for x, y in zip(unit_vector(6, 1), unit_vector(6, 4)))
    e2_e6 = tuple(x + y for x, y in zip(unit_vector(6, 1), unit_vector(6, 5)))
    structured = [
        Subspace(6, [e_plus]),              # isotropic line
        Subspace(6, [e_plus, e2_e6]),       # totally isotropic plane
        Subspace(6, [e_plus, e_minus]),     # hyperbolic plane span(E1, E5)
        Subspace(6, [e_plus, e2_e5]),       # hyperbolic plane, zero diagonal
    ]
    r = rng(205)
    jacobi = degenerate = 0
    while jacobi < 300:
        if structured:
            s = structured.pop()
        else:
            s = _random_subspace(r)
            if s.dim == 0:
                continue
        g = s.gram(W_SIG).entries
        signs = []
        for k in range(1, s.dim + 1):
            minor = perm_det([row[:k] for row in g[:k]])
            assert minor.is_real()
            signs.append(iv_sign(minor.a, minor.c))
        if signs[-1] == 0:
            assert s.definiteness(W_SIG) == "degenerate"
            degenerate += 1
            continue
        n_plus, n_minus, n_zero = s.inertia(W_SIG)
        assert n_zero == 0 and n_plus + n_minus == s.dim
        assert (-1) ** n_minus == signs[-1]
        if all(signs):
            changes = sum(1 for x, y in zip([1] + signs, signs) if x != y)
            assert (n_plus, n_minus) == (s.dim - changes, changes)
            jacobi += 1
    assert degenerate >= 2
