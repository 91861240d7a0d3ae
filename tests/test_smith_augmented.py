"""The augmented-matrix Smith worker against the five-matrix worker it replaced.

intmat._Transformed reduces one matrix [[A, I], [I, 0]], and snf_transforms
returns (U, D, V).  The worker below is the one it replaced, copied verbatim:
it carried U, U^-1, V and V^-1 next to A through every elementary operation.
Both run the same pivot order and floor quotients, so U, D and V must agree
exactly, and inv_unimodular must give back the inverses the old worker kept.
"""

import json
import pathlib

import pytest
from conftest import corpus

from cuspcount import intmat
from cuspcount.cli import lattice_from_arg
from cuspcount.errors import LatticeError
from cuspcount.intmat import freeze, identity, matmul, shape, thaw

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


class _FiveMatrixWorker:
    """Mutable SNF worker tracking U, U^-1, V, V^-1 alongside A."""

    def __init__(self, mat):
        self.rows, self.cols = shape(mat)
        self.a = thaw(mat)
        self.u = thaw(identity(self.rows))
        self.uinv = thaw(identity(self.rows))
        self.v = thaw(identity(self.cols))
        self.vinv = thaw(identity(self.cols))

    def swap_rows(self, i, j):
        if i == j:
            return
        self.a[i], self.a[j] = self.a[j], self.a[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]
        for row in self.uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]
        self.vinv[i], self.vinv[j] = self.vinv[j], self.vinv[i]

    def add_row(self, i, j, c):
        # row_i += c * row_j
        if c == 0:
            return
        self.a[i] = [x + c * y for x, y in zip(self.a[i], self.a[j])]
        self.u[i] = [x + c * y for x, y in zip(self.u[i], self.u[j])]
        for row in self.uinv:
            row[j] -= c * row[i]

    def add_col(self, j, i, c):
        # col_j += c * col_i
        if c == 0:
            return
        for row in self.a:
            row[j] += c * row[i]
        for row in self.v:
            row[j] += c * row[i]
        self.vinv[i] = [x - c * y for x, y in zip(self.vinv[i], self.vinv[j])]

    def negate_row(self, i):
        self.a[i] = [-x for x in self.a[i]]
        self.u[i] = [-x for x in self.u[i]]
        for row in self.uinv:
            row[i] = -row[i]

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


def five_matrix_snf_transforms(mat):
    """Smith normal form with transforms.

    Returns (U, Uinv, D, V, Vinv) with U @ mat @ V == D, U/V unimodular,
    and the diagonal of D a nonnegative divisibility chain.
    """
    rows, cols = shape(mat)
    if rows == 0 or cols == 0:
        ident_r, ident_c = identity(rows), identity(cols)
        return ident_r, ident_r, freeze(mat) if rows else (), ident_c, ident_c
    worker = _FiveMatrixWorker(mat)
    worker.reduce()
    u, uinv = freeze(worker.u), freeze(worker.uinv)
    v, vinv = freeze(worker.v), freeze(worker.vinv)
    d = freeze(worker.a)
    if matmul(matmul(u, mat), v) != d:
        raise AssertionError("SNF transform bookkeeping broke")
    return u, uinv, d, v, vinv



def golden_grams() -> list:
    """The Gram of every lattice argument in the golden CLI snapshot."""
    cases = json.loads((GOLDEN / "cli_snapshot.json").read_text(encoding="utf-8"))
    grams = []
    for case in cases:
        for arg in case["argv"][1:]:
            try:
                lattice = lattice_from_arg(arg.replace("{golden}", str(GOLDEN)))
            except LatticeError:
                continue
            if lattice.gram not in grams:
                grams.append(lattice.gram)
    return grams


def assert_same_as_five_matrix_worker(mat):
    u, uinv, d, v, vinv = five_matrix_snf_transforms(mat)
    assert intmat.snf_transforms(mat) == (u, d, v)
    assert intmat.inv_unimodular(u) == uinv
    assert intmat.inv_unimodular(v) == vinv


def test_random_matrices_match_five_matrix_worker(rng):
    for _ in range(3000):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        assert_same_as_five_matrix_worker(
            freeze([[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)])
        )


@pytest.mark.parametrize("source", ["corpus", "golden"])
def test_lattice_grams_match_five_matrix_worker(source):
    grams = [lat.gram for lat in corpus()] if source == "corpus" else golden_grams()
    assert len(grams) >= 20
    for gram in grams:
        assert_same_as_five_matrix_worker(gram)


def test_empty_shapes_match_five_matrix_worker():
    # snf_transforms has no branch for these shapes: the augmented worker
    # handles them, and _disc_data reaches the 0x0 case on rank-0 lattices
    for mat in ((), ((),), ((), (), ())):
        assert_same_as_five_matrix_worker(mat)
