"""Exact matrices over Q(i, sqrt2), indefinite Hermitian forms, subspaces.

Subspaces are stored in reduced row echelon form (applied to their spanning
vectors), which is the canonical basis of a subspace: subspace equality is
basis-tuple equality, and reduction modulo a subspace is well defined.

A Hermitian form diag(s_1, ..., s_n) is given by its sign tuple, e.g.
(1, 1, -1) for C^{2,1}, and ``herm_form`` evaluates it on FieldElem rows as
an integer kernel over the coordinates of the entries.  Definiteness of the
restricted form is decided by exact congruence elimination of the Gram
matrix (Sylvester inertia).  A subspace meeting its own orthocomplement
reports "degenerate".
"""

from __future__ import annotations

from .scalars import FieldElem, ZERO, ONE, _frozen, _raw, as_scalar


def _coerce_row(row):
    row = tuple(row)
    for x in row:
        if type(x) is not FieldElem:
            break
    else:
        return row
    out = []
    for x in row:
        s = as_scalar(x)
        if s is NotImplemented:
            raise TypeError(f"matrix entry {x!r} is not a scalar")
        out.append(s)
    return tuple(out)


class Matrix:
    """Immutable matrix with FieldElem entries.

    Sums, negation and scalar multiples keep the subclass of the left
    operand; products and transposes are plain matrices.
    """

    __slots__ = ("rows", "cols", "entries")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, rows_of_entries):
        entries = tuple(_coerce_row(r) for r in rows_of_entries)
        if not entries or not entries[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(entries[0])
        if any(len(r) != width for r in entries):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", entries)

    def __reduce__(self):
        # type(self) keeps a subclass such as TangentVec
        return type(self), (self.entries,)

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls.diagonal((ONE,) * n)

    @classmethod
    def diagonal(cls, values):
        vals = _coerce_row(values)
        n = len(vals)
        return cls([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        return type(self)([[x + y for x, y in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)([[-x for x in r] for r in self.entries])

    def __mul__(self, scalar):
        s = as_scalar(scalar)
        if s is NotImplemented:
            return NotImplemented
        return type(self)([[x * s for x in r] for r in self.entries])

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = [other.col(j) for j in range(other.cols)]
        return Matrix([[_dot(r, c) for c in cols] for r in self.entries])

    def transpose(self) -> "Matrix":
        return Matrix([self.col(j) for j in range(self.cols)])

    def conj_transpose(self) -> "Matrix":
        return Matrix([[x.conj() for x in self.col(j)] for j in range(self.cols)])

    def trace(self) -> FieldElem:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        t = ZERO
        for i in range(self.rows):
            t = t + self.entries[i][i]
        return t

    def is_zero(self) -> bool:
        return not any(x for r in self.entries for x in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        rows = ["[" + ", ".join(repr(x) for x in r) + "]" for r in self.entries]
        return "[" + "; ".join(rows) + "]"


def _dot(u, v):
    acc = ZERO
    for x, y in zip(u, v):
        if x and y:
            acc = acc + x * y
    return acc


def unit_vector(n, k, s=ONE):
    """The k-th standard basis vector of C^n (0-based), scaled by s."""
    if not 0 <= k < n:
        raise ValueError(f"basis index {k} out of range for C^{n}")
    return _coerce_row(s if i == k else ZERO for i in range(n))


def herm_form(u, v, sig):
    """h(u, v) = sum_k s_k u_k conj(v_k) for the sign tuple sig = (s_1, ...):
    linear in u, conjugate-linear in v.

    An integer kernel on FieldElem rows (int and Fraction entries are
    coerced): each term x conj(y) is read off the coordinates of x and y,
    a term with a zero factor is skipped, and the four numerators add up
    over one denominator, so the sum builds a single FieldElem.
    """
    u, v = _coerce_row(u), _coerce_row(v)
    if len(u) != len(sig) or len(v) != len(sig):
        raise ValueError("vector length does not match the signature")
    na = nb = nc = nd = 0
    den = 1
    for s, x, y in zip(sig, u, v):
        a1, b1, c1, d1 = x.na, x.nb, x.nc, x.nd
        if not (a1 or b1 or c1 or d1):
            continue
        a2, b2, c2, d2 = y.na, y.nb, y.nc, y.nd
        if not (a2 or b2 or c2 or d2):
            continue
        # x * conj(y), with conj(y) = a2 - b2*i + c2*sqrt2 - d2*i*sqrt2
        ta = a1 * a2 + b1 * b2 + 2 * (c1 * c2 + d1 * d2)
        tb = b1 * a2 - a1 * b2 + 2 * (d1 * c2 - c1 * d2)
        tc = a1 * c2 + c1 * a2 + b1 * d2 + d1 * b2
        td = d1 * a2 - a1 * d2 + b1 * c2 - c1 * b2
        if s < 0:
            ta, tb, tc, td = -ta, -tb, -tc, -td
        tden = x.den * y.den
        if tden != den:
            na, nb, nc, nd = na * tden, nb * tden, nc * tden, nd * tden
            ta, tb, tc, td = ta * den, tb * den, tc * den, td * den
            den *= tden
        na += ta
        nb += tb
        nc += tc
        nd += td
    return _raw(na, nb, nc, nd, den)


def _rref(vectors, ambient):
    """Reduced row echelon form of the spanning vectors; returns (rows, pivots)."""
    rows = [list(_coerce_row(v)) for v in vectors]
    for r in rows:
        if len(r) != ambient:
            raise ValueError("vector length does not match ambient dimension")
    pivots = []
    rank = 0
    for col in range(ambient):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y if y else x
                           for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return [tuple(r) for r in rows[:rank]], pivots


class Subspace:
    """Subspace of C^n over Q(i, sqrt2), canonicalized on construction."""

    __slots__ = ("ambient", "basis", "pivots")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, ambient, vectors):
        basis, pivots = _rref(vectors, ambient)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __reduce__(self):
        # a basis in reduced row echelon form reduces to itself
        return Subspace, (self.ambient, self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def residue(self, vector):
        """Canonical representative of the vector modulo this subspace."""
        x = list(_coerce_row(vector))
        if len(x) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        for row, p in zip(self.basis, self.pivots):
            if x[p]:
                f = x[p]
                x = [a - f * b if b else a for a, b in zip(x, row)]
        return tuple(x)

    def inertia(self, sig):
        """(n_plus, n_minus, n_zero) of the restricted form, by exact congruence."""
        g = [[herm_form(u, v, sig) for v in self.basis] for u in self.basis]
        active = list(range(len(self.basis)))
        n_plus = n_minus = n_zero = 0
        while active:
            pivot = next((d for d in active if g[d][d]), None)
            if pivot is None:
                pair = next(((i, j) for i in active for j in active
                             if i != j and g[i][j]), None)
                if pair is None:
                    n_zero += len(active)
                    break
                i, j = pair
                lam = g[i][j]
                # b_i <- b_i + lam*b_j makes the i-th diagonal 2|lam|^2 > 0
                for k in active:
                    if k != i:
                        g[i][k] = g[i][k] + lam * g[j][k]
                        g[k][i] = g[i][k].conj()
                g[i][i] = (lam * lam.conj()) * 2
                continue
            d = g[pivot][pivot]
            if d.real_sign() > 0:
                n_plus += 1
            else:
                n_minus += 1
            active.remove(pivot)
            inv = d.inverse()
            for i in active:
                fi = g[i][pivot]
                if not fi:
                    continue
                fi_inv = fi * inv
                for j in active:
                    g[i][j] = g[i][j] - fi_inv * g[pivot][j]
            for i in active:
                g[i][pivot] = ZERO
                g[pivot][i] = ZERO
        return (n_plus, n_minus, n_zero)

    def definiteness(self, sig) -> str:
        """One of "positive", "negative", "indefinite", "degenerate"."""
        n_plus, n_minus, n_zero = self.inertia(sig)
        if n_zero:
            return "degenerate"
        if n_plus and n_minus:
            return "indefinite"
        if n_minus:
            return "negative"
        return "positive"

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        rows = ["[" + ", ".join(repr(x) for x in r) + "]" for r in self.basis]
        return f"span{{{'; '.join(rows)}}} in C^{self.ambient}"
