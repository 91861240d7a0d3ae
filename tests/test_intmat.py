from fractions import Fraction

from conftest import det_oracle, random_unimodular, saturation, smith_diagonal

from cuspcount import intmat


def test_snf_identity():
    u, d, v = intmat.snf_transforms(intmat.identity(3))
    assert d == u == v == intmat.identity(3)


def test_snf_examples():
    assert smith_diagonal(((0, 3), (3, 0))) == (3, 3)
    assert smith_diagonal(((2, 0), (0, 4))) == (2, 4)
    assert smith_diagonal(((12, 6, 4), (3, 9, 6), (2, 16, 14))) == (1, 10, 30)


def test_snf_product_and_chain(rng):
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = intmat.freeze(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        u, d, v = intmat.snf_transforms(mat)
        assert intmat.matmul(intmat.matmul(u, mat), v) == d
        uinv, vinv = intmat.inv_unimodular(u), intmat.inv_unimodular(v)
        assert intmat.matmul(intmat.matmul(uinv, d), vinv) == mat
        assert abs(intmat.det(u)) == 1 and abs(intmat.det(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_snf_diagonal_unimodular_invariance(rng):
    for _ in range(25):
        n = rng.randint(2, 4)
        mat = intmat.freeze([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        left = random_unimodular(n, rng)
        right = random_unimodular(n, rng)
        twisted = intmat.matmul(intmat.matmul(left, mat), right)
        assert smith_diagonal(mat) == smith_diagonal(twisted)


def test_vec_gcd():
    assert intmat.vec_gcd(()) == 0
    assert intmat.vec_gcd((0, 0)) == 0
    assert intmat.vec_gcd((-4, 6, -10)) == 2
    assert intmat.vec_gcd((-7,)) == 7
    assert intmat.vec_gcd((0, -1, 0)) == 1
    assert intmat.vec_gcd((12, 1, -18)) == 1


def test_det_against_fraction_gauss(rng):
    for _ in range(80):
        n = rng.randint(1, 5)
        mat = intmat.freeze([[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)])
        assert Fraction(intmat.det(mat)) == det_oracle(mat)


def test_kernel_basis(rng):
    mat = intmat.freeze([[1, 2, 3], [2, 4, 6]])
    k = intmat.kernel_basis(mat)
    assert intmat.shape(k) == (3, 2)
    for col in intmat.columns(k):
        assert all(x == 0 for x in intmat.matvec(mat, col))
    # saturated: gcd across each HNF pivot is 1
    assert saturation(k) == k


def test_hnf_rows_canonical():
    mat = intmat.freeze([[2, 4], [1, 3]])
    h = intmat.hnf_rows(mat)
    assert h == intmat.hnf_rows(h)
    assert h == ((1, 1), (0, 2))


def test_inv_unimodular(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        m = random_unimodular(n, rng)
        assert intmat.matmul(m, intmat.inv_unimodular(m)) == intmat.identity(n)


def test_solve_integer():
    mat = intmat.freeze([[2, 0], [0, 3], [1, 1]])
    assert intmat.solve_integer(mat, (4, 9, 5)) == (2, 3)
    assert intmat.solve_integer(mat, (4, 9, 6)) is None
    assert intmat.solve_integer(((2,),), (1,)) is None


class _ReferenceWorker(intmat._Transformed):
    """The Smith reduction as it stood before its pivot-and-clear loop became
    one pass: reduce, plus a second copy of the loop in _requeue for the
    divisibility fix.  Kept only to pin the exact operation sequence, which
    fixes U and V and so the discriminant generators that disc and aut print."""

    requeues = 0

    def reduce(self):
        a = self.a
        t = 0
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
        # enforce the divisibility chain d_1 | d_2 | ...
        changed = True
        while changed:
            changed = False
            for k in range(limit - 1):
                dk, dn = a[k][k], a[k + 1][k + 1]
                if dk != 0 and dn % dk != 0:
                    self.add_col(k, k + 1, 1)
                    self._requeue(k)
                    changed = True
                    break

    def _requeue(self, t):
        _ReferenceWorker.requeues += 1
        # re-clear the 2x2 block created by the divisibility fix
        a = self.a
        while True:
            where = self._pivot(t)
            i, j = where
            self.swap_rows(t, i)
            self.swap_cols(t, j)
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
            if t >= min(self.rows, self.cols) or self._pivot(t) is None:
                break


def test_snf_transforms_match_reference_operation_sequence(rng):
    freeze = intmat.freeze
    _ReferenceWorker.requeues = 0
    # entries stay within +-20 and sizes within 5x5: larger inputs blow up
    # the coefficients of the transforms
    for _ in range(3000):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = freeze([[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)])
        ref = _ReferenceWorker(mat)
        ref.reduce()
        a = ref.a
        expected = (
            freeze(row[cols:] for row in a[:rows]),
            freeze(row[:cols] for row in a[:rows]),
            freeze(row[:cols] for row in a[rows:]),
        )
        assert intmat.snf_transforms(mat) == expected
    assert _ReferenceWorker.requeues > 0  # the divisibility fix was exercised
