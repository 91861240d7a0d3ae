"""Even lattices and exact integer-linear-algebra operations on them.

An even lattice is held as its Gram matrix: symmetric, integral, even
diagonal, nonzero determinant.  Vectors are coordinate tuples in the
implied basis; the pairing of u and v is u^T G v.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import gcd

from . import intmat
from .errors import (
    BadParams,
    Degenerate,
    DegenerateSublattice,
    NonIntegralRescale,
    NotIsometry,
    NotPrimitive,
    NotSymmetric,
    OddDiagonal,
    UnknownName,
    ZeroVector,
)
from .intmat import Matrix


@functools.lru_cache(maxsize=256)
def _det_cached(gram: Matrix) -> int:
    return intmat.det(gram)


class _Frozen:
    """Immutable value with equality, hash and repr over the fields that a
    subclass lists in _fields, in that order.

    A subclass's __init__ stores its fields with object.__setattr__; any
    later assignment or deletion raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = operator.attrgetter(*cls._fields)
        # the field tuple also for one field, so that hashes are hash(fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda value: (get(value),))

    def __eq__(self, other):
        # the same object has identical field tuples, which compare equal
        if other is self:
            return True
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _assign(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


class EvenLattice(_Frozen):
    """Nondegenerate even lattice given by its Gram matrix.

    Rank 0 (empty Gram) is allowed; it shows up as the quotient l^perp/Zl
    of a hyperbolic plane and as the neutral element of direct sums.
    """

    _fields = ("gram",)

    def __init__(self, gram: Matrix):
        object.__setattr__(self, "gram", gram)
        g = gram
        n = len(g)
        for row in g:
            if len(row) != n:
                raise NotSymmetric("Gram matrix is not square")
        for i in range(n):
            for j in range(i + 1, n):
                if g[i][j] != g[j][i]:
                    raise NotSymmetric(f"gram[{i}][{j}] != gram[{j}][{i}]")
        for i in range(n):
            if g[i][i] % 2 != 0:
                raise OddDiagonal(f"diagonal entry gram[{i}][{i}] = {g[i][i]} is odd")
        if n > 0 and _det_cached(g) == 0:
            raise Degenerate("Gram matrix has zero determinant")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return _det_cached(self.gram) if self.rank else 1

    def pair(self, u, v) -> int:
        g = self.gram
        return sum(u[i] * g[i][j] * v[j] for i in range(self.rank) for j in range(self.rank))

    def norm(self, v) -> int:
        return self.pair(v, v)

    def __repr__(self):
        return f"EvenLattice({[list(r) for r in self.gram]})"


class LatticeMap(_Frozen):
    """Pairing-preserving map between two lattices (columns = basis images)."""

    _fields = ("source", "target", "matrix")

    def __init__(self, source: EvenLattice, target: EvenLattice, matrix: Matrix):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)
        rows, cols = intmat.shape(self.matrix)
        if (rows, cols) != (self.target.rank, self.source.rank):
            raise NotIsometry("map matrix shape does not match the lattices")
        if restricted_gram(self.target, self.matrix) != self.source.gram:
            raise NotIsometry("matrix does not preserve the pairing")

    def apply(self, v) -> tuple:
        return intmat.matvec(self.matrix, v)


class LatticeIsometry(_Frozen):
    """Element of O(L): integer matrix with M^T G M = G and det +-1."""

    _fields = ("lattice", "matrix")

    def __init__(self, lattice: EvenLattice, matrix: Matrix):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "matrix", matrix)
        n = self.lattice.rank
        if intmat.shape(self.matrix) != (n, n):
            raise NotIsometry("isometry matrix has wrong shape")
        # M^T G M = G with det G != 0 forces det(M)^2 = 1, so M is unimodular
        if restricted_gram(self.lattice, self.matrix) != self.lattice.gram:
            raise NotIsometry("matrix does not preserve the Gram form")

    def apply(self, v) -> tuple:
        return intmat.matvec(self.matrix, v)

    def compose(self, other: "LatticeIsometry") -> "LatticeIsometry":
        # self after other
        if other.lattice != self.lattice:
            raise NotIsometry("cannot compose isometries of different lattices")
        return LatticeIsometry(self.lattice, intmat.matmul(self.matrix, other.matrix))

    def inverse(self) -> "LatticeIsometry":
        return LatticeIsometry(self.lattice, intmat.inv_unimodular(self.matrix))

    @staticmethod
    def identity(lattice: EvenLattice) -> "LatticeIsometry":
        return LatticeIsometry(lattice, intmat.identity(lattice.rank))

    @staticmethod
    def minus_identity(lattice: EvenLattice) -> "LatticeIsometry":
        return LatticeIsometry(
            lattice, tuple(tuple(-1 if i == j else 0 for j in range(lattice.rank)) for i in range(lattice.rank))
        )


class Embedding(_Frozen):
    """Sublattice of `target` spanned by the columns of `matrix`, a
    target.rank x k matrix."""

    _fields = ("target", "matrix")

    def __init__(self, target: EvenLattice, matrix: Matrix):
        self._assign(target, matrix)
        rows, cols = intmat.shape(self.matrix)
        if rows != self.target.rank:
            raise NotPrimitive("embedding columns live in the wrong ambient rank")
        if len(intmat.hnf_rows(self.matrix)) != cols:
            raise NotPrimitive("embedding columns are not linearly independent")

    @property
    def sub_rank(self) -> int:
        return intmat.shape(self.matrix)[1]

    def source_gram(self) -> Matrix:
        return restricted_gram(self.target, self.matrix)

    def is_primitive(self) -> bool:
        return intmat.hnf_rows(self.matrix) == intmat.identity(self.sub_rank)


def _integer_matrix(data) -> Matrix:
    """Nested sequences as a frozen matrix; NotSymmetric unless they are
    equal-length rows of integers.  A bool is not an integer here: JSON's
    true and false are not entries."""
    try:
        rows = [list(row) for row in data]
        integral = all(not isinstance(x, bool) and int(x) == x for row in rows for x in row)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or any(len(row) != len(rows[0]) for row in rows):
        raise NotSymmetric("expected a matrix: equal-length rows of integers")
    return intmat.freeze(rows)


def make_lattice(gram) -> EvenLattice:
    """Validate a Gram matrix and wrap it."""
    rows = _integer_matrix(gram)
    if intmat.shape(rows)[1] != len(rows):
        raise NotSymmetric("Gram matrix is not square")
    return EvenLattice(rows)


def _cartan_a(n: int) -> list:
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = -1
    return g


def _cartan_d(n: int) -> list:
    # chain 0-1-...-(n-2), extra node n-1 attached to n-3
    g = _cartan_a(n - 1) if n > 1 else [[2]]
    for row in g:
        row.append(0)
    g.append([0] * n)
    g[n - 1][n - 1] = 2
    if n >= 3:
        g[n - 1][n - 3] = g[n - 3][n - 1] = -1
    return g


_E8_CARTAN = [
    [2, 0, -1, 0, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]


def named_lattice(name: str, params=(), root_convention: str = "neg") -> EvenLattice:
    """Standard Gram matrices for U, U(r), A(n), D(n), E8 and diag(...).

    Root lattices (A, D, E8) default to the negative-definite convention;
    pass root_convention="pos" for the positive-definite Cartan matrices.
    """
    params = tuple(int(p) for p in params)
    if root_convention not in ("neg", "pos"):
        raise BadParams(f"unknown root convention {root_convention!r}")
    sign = -1 if root_convention == "neg" else 1
    if name == "U":
        r = 1
        if params:
            if len(params) != 1:
                raise BadParams("U takes at most one parameter")
            r = params[0]
        if r == 0:
            raise BadParams("U(0) is degenerate")
        return make_lattice([[0, r], [r, 0]])
    if name == "A":
        if len(params) != 1 or params[0] < 1:
            raise BadParams("A(n) needs n >= 1")
        return make_lattice([[sign * x for x in row] for row in _cartan_a(params[0])])
    if name == "D":
        if len(params) != 1 or params[0] < 2:
            raise BadParams("D(n) needs n >= 2")
        return make_lattice([[sign * x for x in row] for row in _cartan_d(params[0])])
    if name == "E8":
        if params:
            raise BadParams("E8 takes no parameters")
        return make_lattice([[sign * x for x in row] for row in _E8_CARTAN])
    if name == "diag":
        if not params:
            raise BadParams("diag needs at least one entry")
        n = len(params)
        return make_lattice([[params[i] if i == j else 0 for j in range(n)] for i in range(n)])
    raise UnknownName(f"unknown lattice name {name!r}")


def direct_sum(left: EvenLattice, right: EvenLattice) -> EvenLattice:
    a, b = left.rank, right.rank
    g = [[0] * (a + b) for _ in range(a + b)]
    for i in range(a):
        for j in range(a):
            g[i][j] = left.gram[i][j]
    for i in range(b):
        for j in range(b):
            g[a + i][a + j] = right.gram[i][j]
    return EvenLattice(intmat.freeze(g))


def rescale(lattice: EvenLattice, factor) -> EvenLattice:
    """L(n): multiply the pairing by `factor` (Fractions allowed if integral)."""
    f = Fraction(factor)
    if f == 0:
        raise NonIntegralRescale("rescaling factor must be nonzero")
    scaled = []
    for row in lattice.gram:
        out = []
        for x in row:
            y = f * x
            if y.denominator != 1:
                raise NonIntegralRescale(f"entry {x} * {f} is not an integer")
            out.append(int(y))
        scaled.append(out)
    for i in range(lattice.rank):
        if scaled[i][i] % 2 != 0:
            raise NonIntegralRescale("rescaled diagonal is odd")
    return EvenLattice(intmat.freeze(scaled))


def signature(lattice: EvenLattice) -> tuple:
    """(p, q) by exact symmetric elimination in integers, computed once per
    Gram matrix and then read from a bounded cache.

    Each step clears column k below the pivot p by the row operation
    R_i <- p R_i - f R_k and the matching column operation.  Together they
    are the basis change e_i <- p e_i - f e_k, a congruence with p != 0, so
    by Sylvester's law of inertia the signature is kept; the remaining
    block is then divided by the positive gcd of its entries.  A zero
    leading pivot is repaired by an integral basis change, never by
    perturbation.
    """
    return _signature_cached(lattice.gram)


@functools.lru_cache(maxsize=256)
def _signature_cached(gram: Matrix) -> tuple:
    n = len(gram)
    a = [list(row) for row in gram]
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                j = next(j for j in range(k + 1, n) if a[k][j] != 0)
                # e_k += e_j turns the zero diagonal into 2*a[k][j]
                for t in range(n):
                    a[k][t] += a[j][t]
                for t in range(n):
                    a[t][k] += a[t][j]
        pivot = a[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k]
            if f != 0:
                a[i] = [pivot * x - f * y for x, y in zip(a[i], a[k])]
                for row in a[k:]:
                    row[i] = pivot * row[i] - f * row[k]
        g = 0
        for row in a[k + 1 :]:
            g = gcd(g, *row[k + 1 :])
        if g > 1:
            for row in a[k + 1 :]:
                row[k + 1 :] = [x // g for x in row[k + 1 :]]
    if pos + neg != n:
        raise AssertionError("inertia count lost a pivot")
    return (pos, neg)


def is_indefinite(lattice: EvenLattice) -> bool:
    p, q = signature(lattice)
    return p > 0 and q > 0


def divisor(lattice: EvenLattice, v) -> int:
    """Positive generator of the pairing ideal (v, L)."""
    v = tuple(int(x) for x in v)
    if len(v) != lattice.rank or all(x == 0 for x in v):
        raise ZeroVector("divisor needs a nonzero vector of matching length")
    return intmat.vec_gcd(intmat.matvec(lattice.gram, v))


def is_primitive(lattice: EvenLattice, v) -> bool:
    v = tuple(int(x) for x in v)
    if len(v) != lattice.rank or all(x == 0 for x in v):
        raise ZeroVector("primitivity needs a nonzero vector of matching length")
    return intmat.vec_gcd(v) == 1


def orthogonal_complement(lattice: EvenLattice, emb: Embedding):
    """(S^perp as EvenLattice, its embedding)."""
    if emb.target != lattice:
        raise NotPrimitive("embedding targets a different lattice")
    if not emb.is_primitive():
        raise NotPrimitive("orthogonal complements are taken of primitive sublattices")
    pairing_rows = intmat.matmul(intmat.transpose(emb.matrix), lattice.gram)
    basis = intmat.kernel_basis(pairing_rows)
    gram = restricted_gram(lattice, basis)
    if intmat.shape(gram)[0] > 0 and intmat.det(gram) == 0:
        raise DegenerateSublattice("restricted form on the complement is degenerate")
    return EvenLattice(gram), Embedding(lattice, basis)


def smith_normal_form(mat):
    """(left, diag, right) with left @ diag @ right == mat, outer factors unimodular."""
    m = intmat.freeze(mat)
    u, d, v = intmat.snf_transforms(m)
    uinv, vinv = intmat.inv_unimodular(u), intmat.inv_unimodular(v)
    if intmat.matmul(intmat.matmul(uinv, d), vinv) != m:
        raise AssertionError("SNF factor product check failed")
    return uinv, d, vinv


def restricted_gram(lattice: EvenLattice, cols) -> Matrix:
    """Gram matrix of the sublattice spanned by the given columns: the table
    of c_j . (G c_i), with each image G c_i taken once.  C^T G C is
    symmetric, so only the upper triangle is computed (row i, entries
    j >= i) and the lower one is mirrored from the rows above."""
    vecs = tuple(zip(*cols))
    if vecs and len(cols) != lattice.rank:
        raise ValueError(f"shape mismatch: {len(cols)} rows of columns for a rank {lattice.rank} lattice")
    out = []
    for i, c in enumerate(vecs):
        image = [sum(map(operator.mul, row, c)) for row in lattice.gram]
        row = [above[i] for above in out]
        row += [sum(map(operator.mul, d, image)) for d in vecs[i:]]
        out.append(tuple(row))
    return tuple(out)


def is_hyperbolic_shape(lattice: EvenLattice):
    """Return r when the Gram is exactly [[0, r], [r, 0]] (r > 0), else None."""
    g = lattice.gram
    if lattice.rank == 2 and g[0][0] == 0 and g[1][1] == 0 and g[0][1] > 0:
        return g[0][1]
    return None
