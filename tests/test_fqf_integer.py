"""The integer q/b numerators of a finite quadratic form against the plain
Fraction formulas, on random even lattices of rank <= 4."""

import random
from fractions import Fraction

from conftest import det_oracle, random_unimodular
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cuspcount import intmat
from cuspcount.discriminant import FiniteQuadraticForm, _disc_data, aut_group
from cuspcount.lattices import make_lattice

MAX_ORDER = 64  # every pair (x, y) of A is checked, so |A|^2 stays small


def reference_q(q_diag, b_mat, x) -> Fraction:
    """q(x) = sum x_i^2 q(g_i) + 2 sum_{i<j} x_i x_j b(g_i, g_j) mod 2."""
    total = Fraction(0)
    k = len(q_diag)
    for i in range(k):
        total += x[i] * x[i] * q_diag[i]
        for j in range(i + 1, k):
            total += 2 * x[i] * x[j] * b_mat[i][j]
    return total % 2


def reference_b(b_mat, x, y) -> Fraction:
    """b(x, y) = sum x_i y_j b(g_i, g_j) mod 1."""
    total = Fraction(0)
    k = len(b_mat)
    for i in range(k):
        for j in range(k):
            total += x[i] * y[j] * b_mat[i][j]
    return total % 1


def _block(draw):
    if draw(st.booleans()):
        return [[2 * draw(st.integers(-4, 4).filter(bool))]]
    a, b, c = draw(st.integers(-3, 3)), draw(st.integers(-3, 3)), draw(st.integers(-4, 4))
    return [[2 * a, c], [c, 2 * b]]


@st.composite
def even_grams(draw):
    """A sum of one or two small blocks, optionally in a random basis."""
    blocks = [_block(draw)]
    if len(blocks[0]) + 2 <= 4 and draw(st.booleans()):
        blocks.append(_block(draw))
    n = sum(len(b) for b in blocks)
    gram = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            gram[at + i][at : at + len(row)] = row
        at += len(block)
    det = det_oracle(gram)
    assume(det != 0 and abs(det) <= MAX_ORDER)
    steps = draw(st.integers(0, 4))
    if steps and n > 1:
        u = random_unimodular(n, random.Random(draw(st.integers(0, 2**16))), steps)
        gram = intmat.matmul(intmat.matmul(intmat.transpose(u), gram), u)
    return [list(row) for row in gram]


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(even_grams())
@example([[0, 3], [3, 0]])  # U(3): odd exponent
@example([[-2, 1], [1, -2]])  # A(2): odd exponent, q(g) = 4/3
@example([[0, 9], [9, 0]])  # U(9): odd prime power
@example([[-2, 0, 0], [0, -4, 0], [0, 0, -8]])  # exponent 8, chain (2, 4, 8)
@example([[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 4], [0, 0, 4, 0]])  # U(2) + U(4)
@example([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 6, 0], [0, 0, 0, -10]])  # exponent 30
def test_integer_forms_match_the_fraction_reference(gram):
    lattice = make_lattice(gram)
    data = _disc_data(lattice)
    form = data.form
    n = form.exponent()
    assert all(type(v) is int for v in form._q)
    assert all(type(v) is int for row in form._b for v in row)
    # the Fraction tables read back what the lattice pairs the lifts to
    q_diag, b_mat = form.q_diag, form.b_mat
    lifts = [data.lift(e) for e in intmat.identity(form.ngens)]
    assert q_diag == tuple(lattice.pair(v, v) % 2 for v in lifts)
    assert b_mat == tuple(tuple(lattice.pair(v, w) % 1 for w in lifts) for v in lifts)
    assert FiniteQuadraticForm(form.orders, q_diag, b_mat) == form
    elements = list(form.elements())
    for x in elements:
        qx = form.q(x)
        assert type(qx) is Fraction
        assert qx == reference_q(q_diag, b_mat, x)
        assert type(form._qn(x)) is int
        if n % 2:  # q(d x) = d^2 q(x) vanishes mod 2 for odd d, so N q(x) is even
            assert form._qn(x) % 2 == 0
        for y in elements:
            bxy = form.b(x, y)
            assert type(bxy) is Fraction
            assert bxy == reference_b(b_mat, x, y)
            assert type(form._bn(x, y)) is int
    primary = aut_group(form, method="primary")
    direct = aut_group(form, method="direct")
    assert primary.order() == direct.order()
    assert set(primary.elements) == set(direct.elements)
