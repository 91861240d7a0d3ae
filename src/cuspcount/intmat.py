"""Exact integer matrix primitives.

Matrices are immutable tuples of int rows.  Everything here is exact:
arbitrary-precision ints, no floating point anywhere.  Elimination is
fraction-free.  det is Bareiss elimination.  The row Hermite form hnf_rows
answers kernel, solve, inverse, rank (len(hnf_rows(mat))) and primitivity
(the k columns of mat span a primitive sublattice exactly when
hnf_rows(mat) == identity(k)).  snf_transforms, the Smith form, serves only
the callers that read its transforms U or V.  It reduces one augmented
matrix [[A, I], [I, 0]] and returns (U, D, V); inverses of U and V come from
inv_unimodular.
"""

from __future__ import annotations

import operator
from math import gcd
from typing import Optional

Matrix = tuple  # tuple[tuple[int, ...], ...]


def freeze(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def thaw(mat):
    return [list(row) for row in mat]


def shape(mat):
    return (len(mat), len(mat[0]) if mat else 0)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(mat) -> Matrix:
    rows, cols = shape(mat)
    return tuple(tuple(mat[i][j] for i in range(rows)) for j in range(cols))


def matmul(a, b) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch {shape(a)} @ {shape(b)}")
    b_cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in b_cols) for row in a)


def matvec(mat, vec) -> tuple:
    if shape(mat)[1] != len(vec):
        raise ValueError("shape mismatch in matvec")
    return tuple(sum(map(operator.mul, row, vec)) for row in mat)


def columns(mat):
    return [tuple(row[j] for row in mat) for j in range(shape(mat)[1])]


def from_columns(cols) -> Matrix:
    if not cols:
        return ()
    n = len(cols[0])
    return tuple(tuple(int(col[i]) for col in cols) for i in range(n))


def xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def vec_gcd(vec) -> int:
    return gcd(*vec)


def det(mat) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    n, m = shape(mat)
    if n != m:
        raise ValueError("det needs a square matrix")
    if n == 0:
        return 1
    a = thaw(mat)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve_integer(mat, rhs) -> Optional[tuple]:
    """Integer solution of mat @ x = rhs (full column rank), else None.

    The kernel of [mat | -rhs] holds the (x, t) with mat x = t rhs.  Full
    column rank makes it 0 or spanned by one primitive (x, t) with t != 0,
    and x t is the integer solution exactly when |t| = 1.
    """
    rows, cols = shape(mat)
    if len(rhs) != rows:
        raise ValueError("rhs length mismatch")
    kernel = _kernel_rows(transpose(mat) + (tuple(-b for b in rhs),), rows)
    if len(kernel) > 1 or (kernel and kernel[0][-1] == 0):
        raise ValueError("matrix does not have full column rank")
    if not kernel or abs(kernel[0][-1]) != 1:
        return None
    *x, t = kernel[0]
    return tuple(t * c for c in x)


def inv_unimodular(mat) -> Matrix:
    """Exact inverse of a unimodular integer matrix.

    The row HNF of [mat | I] is [H | W] with W mat = H.  A zero row of H
    means mat is singular; else mat is unimodular iff H = I, and W inverts it.
    """
    n, m = shape(mat)
    if n != m:
        raise ValueError("inverse needs a square matrix")
    hnf = hnf_rows([tuple(row) + unit for row, unit in zip(mat, identity(n))])
    if any(not any(row[:n]) for row in hnf):
        raise ValueError("matrix does not have full column rank")
    if any(row[:n] != unit for row, unit in zip(hnf, identity(n))):
        raise ValueError("matrix is not unimodular")
    return tuple(row[n:] for row in hnf)


class _Transformed:
    """Mutable SNF worker on the augmented matrix [[A, I], [I, 0]].

    Row operations act on the first `rows` rows and column operations on
    the first `cols` columns, so the top-left block a[i][j] is A, U builds
    up to its right and V below it.
    """

    def __init__(self, mat):
        self.rows, self.cols = shape(mat)
        pad = [0] * self.rows
        self.a = [list(row) + list(unit) for row, unit in zip(mat, identity(self.rows))]
        self.a += [list(unit) + pad for unit in identity(self.cols)]

    def swap_rows(self, i, j):
        self.a[i], self.a[j] = self.a[j], self.a[i]

    def swap_cols(self, i, j):
        for row in self.a:
            row[i], row[j] = row[j], row[i]

    def add_row(self, i, j, c):
        # row_i += c * row_j
        self.a[i] = [x + c * y for x, y in zip(self.a[i], self.a[j])]

    def add_col(self, j, i, c):
        # col_j += c * col_i
        for row in self.a:
            row[j] += c * row[i]

    def negate_row(self, i):
        self.a[i] = [-x for x in self.a[i]]

    def _pivot(self, t):
        best = None
        where = None
        for i in range(t, self.rows):
            for j in range(t, self.cols):
                x = self.a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    where = (i, j)
        return where

    def reduce(self):
        a = self.a
        limit = min(self.rows, self.cols)
        self._diagonalize(0)
        # enforce the divisibility chain d_1 | d_2 | ...; each fix re-clears
        # from the 2x2 block it creates, then the scan restarts
        k = 0
        while k < limit - 1:
            dk, dn = a[k][k], a[k + 1][k + 1]
            if dk != 0 and dn % dk != 0:
                self.add_col(k, k + 1, 1)
                self._diagonalize(k)
                k = 0
            else:
                k += 1

    def _diagonalize(self, t):
        # pivot on the smallest entry and clear its row and column, from
        # position t on, until the remaining block is zero
        a = self.a
        limit = min(self.rows, self.cols)
        while t < limit:
            where = self._pivot(t)
            if where is None:
                break
            self.swap_rows(t, where[0])
            self.swap_cols(t, where[1])
            while True:
                for i in range(t + 1, self.rows):
                    if a[i][t]:
                        self.add_row(i, t, -(a[i][t] // a[t][t]))
                        if a[i][t]:
                            self.swap_rows(t, i)
                for j in range(t + 1, self.cols):
                    if a[t][j]:
                        self.add_col(j, t, -(a[t][j] // a[t][t]))
                        if a[t][j]:
                            self.swap_cols(t, j)
                if all(a[i][t] == 0 for i in range(t + 1, self.rows)) and all(
                    a[t][j] == 0 for j in range(t + 1, self.cols)
                ):
                    break
            if a[t][t] < 0:
                self.negate_row(t)
            t += 1


def snf_transforms(mat):
    """Smith normal form with transforms.

    Returns (U, D, V) with U @ mat @ V == D, U/V unimodular, and the
    diagonal of D a nonnegative divisibility chain.  A caller that needs
    U^-1 or V^-1 takes it from inv_unimodular.
    """
    worker = _Transformed(mat)
    worker.reduce()
    rows, cols, a = worker.rows, worker.cols, worker.a
    u = freeze(row[cols:] for row in a[:rows])
    d = freeze(row[:cols] for row in a[:rows])
    v = freeze(row[:cols] for row in a[rows:])
    if matmul(matmul(u, mat), v) != d:
        raise AssertionError("SNF transform bookkeeping broke")
    return u, d, v


def kernel_basis(mat) -> Matrix:
    """Columns spanning the full integer kernel of mat (saturated), HNF-canonical."""
    rows, cols = shape(mat)
    canon = _kernel_rows(transpose(mat), rows)
    if not canon:
        return tuple(() for _ in range(cols))
    basis = transpose(canon)
    for col in canon:
        if any(matvec(mat, col)):
            raise AssertionError("kernel basis check failed")
    return basis


def _kernel_rows(lefts, width: int) -> list:
    """Row HNF of the x with x @ lefts = 0, for rows `lefts` of that width.

    The rows of [lefts | I] span the pairs (x @ lefts, x).  In the row HNF
    of that lattice the rows that vanish on the lefts part span exactly the
    pairs (0, x) with x @ lefts = 0, and they are themselves in row HNF,
    which is unique: their right parts are the answer.
    """
    stacked = [left + unit for left, unit in zip(lefts, identity(len(lefts)))]
    return [row[width:] for row in hnf_rows(stacked) if not any(row[:width])]


def hnf_rows(mat) -> Matrix:
    """Row-style Hermite normal form of the row lattice; zero rows dropped.

    Pivots are positive, entries below a pivot are zero and entries above
    are reduced into [0, pivot).
    """
    rows, cols = shape(mat)
    a = thaw(mat)
    r = 0
    for c in range(cols):
        # gcd the column below r into one row
        pivot = None
        for i in range(r, len(a)):
            if a[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, len(a)):
            while a[i][c] != 0:
                q = a[r][c] // a[i][c]
                a[r] = [x - q * y for x, y in zip(a[r], a[i])]
                a[r], a[i] = a[i], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return tuple(tuple(row) for row in a[:r])
