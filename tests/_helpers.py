"""Seeded random generators and reference computations shared across the
test modules."""

import random
import re
from fractions import Fraction
from itertools import permutations

from qktoledo import (BALL_SIG, W_SIG, FieldElem, JetScalar, Matrix, Quat,
                      Subspace, TangentVec, ZERO, ONE, I, HALF_SQRT2, QUAT_UNITS,
                      herm_form, su21_p_matrix, sym_product, sym_square_lie,
                      sym_to_e_coords, to_quat, unit_vector)
from qktoledo import lifting, wedge_square_eval
from qktoledo.geometry import _SU2_GENERATORS
from qktoledo.scalars import _parse_rational


def rng(seed):
    return random.Random(seed)


def perm_sign(perm):
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return 1 if inv % 2 == 0 else -1


def perm_det(m):
    """Determinant of a square matrix (list of rows) by permutation expansion;
    generic in the entry type (Fraction or FieldElem)."""
    total = 0
    for perm in permutations(range(len(m))):
        prod = 1
        for i, p in enumerate(perm):
            prod = prod * m[i][p]
        total = total + perm_sign(perm) * prod
    return total


def matchings_oracle(form, vecs):
    """(alpha ^ alpha)(X,Y,Z,W) as the signed sum over the three perfect
    matchings of four slots, enumerated through all permutations."""
    total = ZERO
    for perm in permutations(range(4)):
        a, b, c, d = perm
        if a > b or c > d or a > c:
            continue
        total = total + perm_sign(perm) * (form(vecs[a], vecs[b])
                                           * form(vecs[c], vecs[d]))
    return total


def quat_omega_unit(x, y, unit):
    """omega_u(X, Y) = Re(q_X . conj(q_Y) u) through the quaternion product,
    with q . conj(p) = sum_m q_m conj(p_m)."""
    pairing = Quat()
    for q, p in zip(to_quat(x), to_quat(y)):
        pairing = pairing + q * p.conj()
    return (pairing * QUAT_UNITS[unit]).z.real_part()


def invariant_omega4(x, y, z, w):
    """sum_u omega_u ^ omega_u with omega_u(X, Y) = Re Tr(Y* X A_u) over the
    su(2) generators A_u of ``geometry._SU2_GENERATORS``.  The isotropy
    group S(U(4) x U(2)), acting on blocks by A -> U A V*, preserves it,
    unlike the chart form ``omega4``."""
    total = ZERO
    for gen in _SU2_GENERATORS.values():
        def form(p, q, gen=gen):
            return (q.conj_transpose() @ p @ gen).trace().real_part()
        total = total + wedge_square_eval(form, x, y, z, w)
    return total


def trace_metric(x, y):
    """g0(X, Y) = 4 Re Tr(Y* X) through the matrix product and trace."""
    return ((y.conj_transpose() @ x).trace() * 4).real_part()


def generic_herm_form(u, v, sig):
    """Reference for ``herm_form``: sum_k s_k u_k conj(v_k) through the
    scalar type's own operators, so it also takes JetScalar entries."""
    if len(u) != len(sig) or len(v) != len(sig):
        raise ValueError("vector length does not match the signature")
    acc = None
    for s, x, y in zip(sig, u, v):
        term = x * y.conj()
        if s < 0:
            term = -term
        acc = term if acc is None else acc + term
    return acc if acc is not None else ZERO


def fold_column(verdicts):
    """The verdict of a column folded from the verdicts of its components:
    zero when all are zero, linear (conjugate-linear) when each is linear
    (conjugate-linear) or zero, and neither otherwise."""
    verdicts = set(verdicts)
    if verdicts == {"zero"}:
        return "zero"
    if verdicts <= {"linear", "zero"}:
        return "linear"
    if verdicts <= {"conjugate_linear", "zero"}:
        return "conjugate_linear"
    return "neither"


def contains(space, vector):
    """True iff the vector lies in the Subspace: its residue vanishes."""
    return not any(space.residue(vector))


def perp(space, sig):
    """Orthocomplement of the Subspace for the form with sign tuple sig, by
    solving the rref of the constraints h(x, b) = 0 for the free columns."""
    n = space.ambient
    if len(sig) != n:
        raise ValueError("signature does not match ambient dimension")
    if not space.basis:
        return Subspace(n, [unit_vector(n, i) for i in range(n)])
    constraints = Subspace(n, [tuple(s * b.conj() for s, b in zip(sig, row))
                               for row in space.basis])
    vectors = []
    for f in range(n):
        if f in constraints.pivots:
            continue
        v = [ZERO] * n
        v[f] = ONE
        for row, p in zip(constraints.basis, constraints.pivots):
            v[p] = -row[f]
        vectors.append(tuple(v))
    return Subspace(n, vectors or [(ZERO,) * n])


def sym_square_p_block(lie_matrix):
    """Bounded-domain tangent block of a symmetric-square image.

    Extracts the top-right 4 x 2 block and removes the sqrt2 that the
    orthonormal E5, E6 carry relative to the chart's unnormalized e3.e1,
    e3.e2; on p-part images this recovers ``make_embedding("sym_square")``.
    """
    return Matrix([[lie_matrix[r, 4 + c] * HALF_SQRT2 for c in range(2)]
                   for r in range(4)])


def iv_sign(a, c):
    """Sign of a + c*sqrt2 (Fractions a, c) by mpmath interval arithmetic,
    starting at 50 bits and refining until the interval is decisive."""
    from mpmath import iv

    if a == 0 and c == 0:
        return 0
    prec = 50
    while True:
        iv.prec = prec
        x = (iv.mpf(a.numerator) / a.denominator
             + (iv.mpf(c.numerator) / c.denominator) * iv.sqrt(2))
        if x.a > 0:
            return 1
        if x.b < 0:
            return -1
        prec *= 2


def fraction_render(x):
    """Reference for ``str(FieldElem)``: the canonical text built from the
    Fraction coordinates a, b, c, d."""
    terms = [(coef, sfx) for coef, sfx in
             zip((x.a, x.b, x.c, x.d), ("", "*i", "*sqrt2", "*i*sqrt2")) if coef]
    if not terms:
        return "0"
    parts = []
    for k, (coef, sfx) in enumerate(terms):
        if k == 0:
            parts.append(f"{coef}{sfx}")
        elif coef > 0:
            parts.append(f" + {coef}{sfx}")
        else:
            parts.append(f" - {-coef}{sfx}")
    return "".join(parts)


def term_by_term_parse(text):
    """Reference for ``parse_field_elem``: the same term splitting, sign
    handling and factor checks, but each term becomes its own FieldElem,
    added to a running sum."""
    s = re.sub(r" *([-+*/]) *", r"\1", text).strip(" ")
    if not s:
        raise ValueError("empty field element")
    terms = []
    start = 0
    for pos in range(1, len(s)):
        if s[pos] in "+-" and s[pos - 1] not in "+-*/":
            terms.append(s[start:pos])
            start = pos
    terms.append(s[start:])
    result = ZERO
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise ValueError(f"malformed term in {text!r}")
        coef = Fraction(sign)
        has_i = has_sqrt2 = False
        for factor in term.split("*"):
            if factor == "i":
                if has_i:
                    raise ValueError(f"repeated i in {text!r}")
                has_i = True
            elif factor == "sqrt2":
                if has_sqrt2:
                    raise ValueError(f"repeated sqrt2 in {text!r}")
                has_sqrt2 = True
            else:
                coef *= Fraction(*_parse_rational(factor, text))
        coords = [0, 0, 0, 0]
        coords[(1 if has_i else 0) + (2 if has_sqrt2 else 0)] = coef
        result = result + FieldElem(*coords)
    return result


def full_field_vector(bits, seed=0):
    """Text of a negative vector in C^{2,1} whose components each have four
    nonzero coordinates over a common denominator of exactly ``bits`` bits,
    drawn separately for each component, with numerators of at most
    ``bits`` bits: the worst shape for the size of what ``period-triple``
    prints."""
    r = rng(seed)

    def component(lead):
        den = r.randrange(2 ** (bits - 1), 2 ** bits) | 1
        nums = [r.randrange(2 ** (bits - 5), 2 ** (bits - 4)) for _ in range(4)]
        if lead:    # a rational part near 1 outweighs the other components
            nums[0] = den - nums[0]
        return str(FieldElem(*(Fraction(n, den) for n in nums)))

    return ",".join((component(False), component(False), component(True)))


def reciprocal_sum(terms, digits, seed=0):
    """Text "1/d1+1/d2+..." of ``terms`` reciprocals of distinct seeded
    ``digits``-digit integers: a component of many terms whose sum has a
    common denominator far past the CLI's bit cap."""
    r = rng(seed)
    dens = []
    while len(dens) < terms:
        d = r.randrange(10 ** (digits - 1), 10 ** digits)
        if d not in dens:
            dens.append(d)
    return "+".join(f"1/{d}" for d in dens)


def rand_fraction(r, lo=-9, hi=9, max_den=9):
    return Fraction(r.randint(lo, hi), r.randint(1, max_den))


def rand_field_elem(r):
    return FieldElem(*(rand_fraction(r) for _ in range(4)))


def rand_nonzero_field_elem(r):
    while True:
        x = rand_field_elem(r)
        if x:
            return x


def rationalized_inverse(x):
    """Reference for ``FieldElem.inverse``: rationalize the i-part, x*conj(x)
    = p + q*sqrt2 with p, q rational, then the sqrt2-part, 1/(p + q*sqrt2)
    = (p - q*sqrt2)/(p^2 - 2q^2), and multiply by conj(x)."""
    norm = x * x.conj()
    p, q = norm.a, norm.c
    return x.conj() * FieldElem(p / (p * p - 2 * q * q), 0,
                                -q / (p * p - 2 * q * q), 0)


def rand_big_field_elem(r, bits=320):
    """Nonzero element whose four coordinates have numerators of about
    ``bits`` bits over unequal denominators; a coordinate is zero a sixth
    of the time."""
    while True:
        x = FieldElem(*(0 if r.random() < 1 / 6 else
                        Fraction(r.choice((1, -1)) * r.getrandbits(bits),
                                 r.getrandbits(bits // 4) + 1)
                        for _ in range(4)))
        if x:
            return x


def rand_real_field_elem(r):
    return FieldElem(rand_fraction(r), 0, rand_fraction(r), 0)


def rand_gauss(r, lo=-3, hi=3):
    """Element of Q(i) with small integer coordinates."""
    return FieldElem(r.randint(lo, hi), r.randint(lo, hi))


def rand_quat(r):
    return Quat(rand_field_elem(r), rand_field_elem(r))


def rand_complex_vec(r, n):
    return tuple(rand_gauss(r) for _ in range(n))


def rand_nonzero_pair(r):
    while True:
        a = rand_complex_vec(r, 2)
        if any(a):
            return a


def rand_tangent(r, p, q=2):
    return TangentVec([[rand_gauss(r) for _ in range(q)] for _ in range(p)])


def rand_su21(r):
    """Random element of su(2,1): anti-Hermitian 2x2 block, imaginary corner,
    trace zero, plus a symmetric-pair part."""
    r1, r2 = rand_fraction(r), rand_fraction(r)
    z = rand_gauss(r)
    a1, a2 = rand_gauss(r), rand_gauss(r)
    k = Matrix([
        [FieldElem(0, r1), z, ZERO],
        [-z.conj(), FieldElem(0, r2), ZERO],
        [ZERO, ZERO, FieldElem(0, -(r1 + r2))],
    ])
    return k + su21_p_matrix(a1, a2)


def rand_negative_vector(r):
    """Vector in C^{2,1} with negative squared norm."""
    while True:
        v = (FieldElem(Fraction(r.randint(-1, 1), 2), Fraction(r.randint(-1, 1), 2)),
             FieldElem(Fraction(r.randint(-1, 1), 2), Fraction(r.randint(-1, 1), 2)),
             ONE)
        norm = sum(((x * x.conj()) for x in v[:2]), start=ZERO) - v[2] * v[2].conj()
        if norm.real_sign() < 0:
            return v


def rand_orthogonal_direction(r, v0):
    """Direction in C^{2,1} orthogonal to v0: a Q(i) combination, with
    coordinates in -2..2, of the basis of the orthocomplement of v0."""
    acc = (ZERO, ZERO, ZERO)
    for b in perp(Subspace(3, [v0]), BALL_SIG).basis:
        coef = rand_gauss(r, -2, 2)
        acc = tuple(x + coef * y for x, y in zip(acc, b))
    return acc


def leibniz_bplus_image(a):
    """Reference for ``iota_star_bplus``: (L(X_a) - i * L(X_{ia})) / 2 from
    the Leibniz differential L, with both off-diagonal blocks rescaled by
    1/sqrt2 to the bounded-domain chart normalization."""
    a1, a2 = a
    full = (sym_square_lie(su21_p_matrix(a1, a2))
            - sym_square_lie(su21_p_matrix(a1 * I, a2 * I)) * I) * Fraction(1, 2)
    u = sym_square_p_block(full)
    rows = [[full[r, c] for c in range(4)] + list(u.row(r)) for r in range(4)]
    rows += [[full[4 + r, c] * HALF_SQRT2 for c in range(4)]
             + [full[4 + r, 4 + c] for c in range(2)] for r in range(2)]
    return Matrix(rows)


# the factor pairs spanning each flag component, indexing (line, u1, u2):
# the generic construction whose rref bases ``lifting.period_triple`` writes
# out in closed form
FLAG_PAIRS = {"S2Lperp": ((1, 1), (1, 2), (2, 2)), "L2": ((0, 0),),
              "LoLperp": ((0, 1), (0, 2))}


def e_product(x, y):
    """E-coordinates of the symmetric product x.y by the E-map that
    ``lifting.e_map_certificate`` certifies, looked up through ``lifting``
    on every call, so a patched E-map shows here."""
    return lifting.sym_to_e_coords(lifting.sym_product(x, y))


def flag_motion(v0, w):
    """The flag along the line curve v0 + t*w in E-coordinates: the spanning
    vectors at time zero of all three components, and for the square of the
    line and Sym^2 of the orthocomplement the derivatives of their spanning
    vectors.

    The orthocomplement basis u_i of ``negative_line_basis`` gets the
    first-order correction u_i + t*c_i*v0 with c_i = -h(u_i, w)/h(v0, v0),
    which keeps it orthogonal to the moving line.  A factor pair (x, y)
    spans E(x.y) at time zero, and by the product rule its derivative is
    E(x'.y) + E(x.y').  The mixed plane's own motion is the base motion of
    the flag, so its derivatives are not needed.  E is ``e_product``, so
    a patched E-map shows here.
    """
    vec, (u1, u2) = lifting.negative_line_basis(v0)
    hvv = herm_form(vec, vec, BALL_SIG)
    cs = [-(herm_form(u, w, BALL_SIG) / hvv) for u in (u1, u2)]
    factors = (vec, u1, u2)
    velocities = (tuple(w),) + tuple(tuple(c * x for x in vec) for c in cs)
    gens = {name: [e_product(factors[i], factors[j]) for i, j in pairs]
            for name, pairs in FLAG_PAIRS.items()}
    moved = {name: [tuple(p + q for p, q in
                          zip(e_product(velocities[i], factors[j]),
                              e_product(factors[i], velocities[j])))
                    for i, j in FLAG_PAIRS[name]]
             for name in ("L2", "S2Lperp")}
    return gens, moved


def jet_flag_motion(v0, w):
    """Reference for ``flag_motion``: the three flag components of the line
    curve v0 + t*w built from first-order jets, whose symmetric products
    follow the Leibniz rule.  Per component: the span at time zero and the
    derivatives of its spanning vectors."""
    hvv = herm_form(v0, v0, BALL_SIG)
    u1, u2 = perp(Subspace(3, [v0]), BALL_SIG).basis

    def jets(vals, derivs):
        return tuple(JetScalar(a, b) for a, b in zip(vals, derivs))

    line = jets(v0, w)
    t1, t2 = (jets(u, tuple(-(herm_form(u, w, BALL_SIG) / hvv) * x
                            for x in v0)) for u in (u1, u2))

    def coords(x, y):
        return sym_to_e_coords(sym_product(x, y))

    curves = {"S2Lperp": [coords(t1, t1), coords(t1, t2), coords(t2, t2)],
              "L2": [coords(line, line)],
              "LoLperp": [coords(line, t1), coords(line, t2)]}
    return {name: (Subspace(6, [tuple(j.val for j in vec) for vec in vecs]),
                   [tuple(j.deriv for j in vec) for vec in vecs])
            for name, vecs in curves.items()}


def _moves_inside(spans, moved):
    """True iff each derivative of the square of the line and of Sym^2 of
    the orthocomplement lies in the span of (that component + mixed plane)
    at time zero, decided by rref membership; spans holds generator lists."""
    for name in ("L2", "S2Lperp"):
        target = Subspace(6, spans[name] + spans["LoLperp"])
        if not all(contains(target, d) for d in moved[name]):
            return False
    return True


def rref_horizontality_check(v0, w):
    """Reference for ``horizontality_check``: span membership on the
    E-coordinate flag motion of ``flag_motion``."""
    return _moves_inside(*flag_motion(v0, w))


def jet_horizontality_check(v0, w):
    """Reference for ``horizontality_check``: span membership on the jet
    flag motion of ``jet_flag_motion``, which differentiates by the
    Leibniz rule of jets, not by the product rule on exact vectors."""
    motion = jet_flag_motion(v0, w)
    return _moves_inside({name: list(span.basis) for name, (span, _) in motion.items()},
                         {name: derivs for name, (_, derivs) in motion.items()})


def orthogonality_horizontality_check(v0, w):
    """Reference for ``horizontality_check``: the six 6-dim Hermitian
    products of the E-coordinate flag motion, each derivative of one fiber
    part against the generators of the other."""
    gens, moved = flag_motion(v0, w)
    return not any(herm_form(d, g, W_SIG)
                   for name, other in (("L2", "S2Lperp"), ("S2Lperp", "L2"))
                   for d in moved[name] for g in gens[other])


def mutually_orthogonal(parts):
    """True iff the (name, rows, definiteness) parts of ``period_triple``
    are pairwise orthogonal in W."""
    spaces = [rows for _, rows, _ in parts]
    return not any(herm_form(u, v, W_SIG)
                   for i, a in enumerate(spaces) for b in spaces[i + 1:]
                   for u in a for v in b)
