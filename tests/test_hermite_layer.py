"""One Hermite reduction for solve, inverse, rank and primitivity.

inv_unimodular, the Embedding checks and the IsotropicPlane check are
compared with the code they replaced, kept here only as oracles: the inverse
as one integer solve per unit column (through the Fraction reference solve
of test_integer_layer), and the rank and primitivity rules as read off the
Smith diagonal.  Each input must give the same matrix, or be accepted or
rejected alike with the same exception.  The dual partner read off the
Hermite form, and the rank-0 complement that the solver now handles without
special cases, are pinned on explicit lattices.
"""

import time

import pytest
from conftest import U, smith_diagonal, sums
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_integer_layer import _outcome, reference_solve_integer

from cuspcount import intmat
from cuspcount.errors import NotIsotropicPlane, NotPrimitive
from cuspcount.isotropic import (
    HyperbolicSplit,
    IsotropicPlane,
    _find_dual_partner,
    enumerate_isotropic,
    hyperbolic_completion,
    stabilizer_decompose,
    transvection,
)
from cuspcount.lattices import Embedding, LatticeIsometry, make_lattice, named_lattice

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

# --- references ---------------------------------------------------------------


def reference_inv_unimodular(mat):
    """inv_unimodular as it was: one integer solve per unit column."""
    n, m = intmat.shape(mat)
    if n != m:
        raise ValueError("inverse needs a square matrix")
    cols = []
    for unit in intmat.identity(n):
        col = reference_solve_integer(mat, unit)
        if col is None:
            raise ValueError("matrix is not unimodular")
        cols.append(col)
    return intmat.from_columns(cols)


def reference_embedding(matrix) -> str:
    """'dependent', 'imprimitive' or 'primitive' by the Smith diagonal."""
    cols = intmat.shape(matrix)[1]
    if not cols:
        return "primitive"
    diag = smith_diagonal(matrix)
    if len(diag) < cols or any(d == 0 for d in diag):
        return "dependent"
    return "primitive" if all(d == 1 for d in diag) else "imprimitive"


# --- random inputs ------------------------------------------------------------

ENTRY = st.integers(-6, 6)


@st.composite
def unimodular_products(draw, n):
    """Products of row additions, swaps and sign changes."""
    m = intmat.thaw(intmat.identity(n))
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            c = draw(st.integers(-4, 4))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif op == "swap":
            m[i], m[j] = m[j], m[i]
        elif op == "negate":
            m[i] = [-x for x in m[i]]
    return intmat.freeze(m)


@st.composite
def square_matrices(draw):
    """Unimodular, singular, |det| > 1 and plain random square matrices."""
    n = draw(st.integers(1, 5))
    left, right = draw(unimodular_products(n)), draw(unimodular_products(n))
    kind = draw(st.sampled_from(["unimodular", "singular", "scaled", "random"]))
    if kind == "unimodular":
        return intmat.matmul(left, right)
    if kind == "random":
        return tuple(tuple(draw(ENTRY) for _ in range(n)) for _ in range(n))
    d = [draw(st.integers(2, 5)) if i == n - 1 else 1 for i in range(n)]
    if kind == "singular":
        d[draw(st.integers(0, n - 1))] = 0
    middle = tuple(tuple(d[i] * (i == j) for j in range(n)) for i in range(n))
    return intmat.matmul(intmat.matmul(left, middle), right)


@st.composite
def column_matrices(draw):
    """n x k matrices, k <= n + 1, built to hit every rank and index."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, min(n + 1, 4)))
    if k <= n and draw(st.booleans()):  # columns of a unimodular matrix
        basis = draw(unimodular_products(n))
        cols = [tuple(basis[i][j] for i in range(n)) for j in range(k)]
    else:
        cols = [tuple(draw(ENTRY) for _ in range(n)) for _ in range(k)]
    if k >= 2 and draw(st.booleans()):  # a dependent or a non-saturated column
        c, s = draw(st.integers(-2, 2)), draw(st.sampled_from([0, 2]))
        cols[-1] = tuple(c * a + s * b for a, b in zip(cols[0], cols[-1]))
    return tuple(tuple(col[i] for col in cols) for i in range(n))


# --- solve --------------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_solve_rejects_every_rank_deficient_system(data):
    """Column rank r < k, with rhs inside and outside the column span; the
    random matrices of test_integer_layer are seldom rank deficient."""
    n, k = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    r = data.draw(st.integers(0, k - 1))
    left = tuple(tuple(data.draw(ENTRY) for _ in range(r)) for _ in range(n))
    right = tuple(tuple(data.draw(ENTRY) for _ in range(k)) for _ in range(r))
    mat = intmat.matmul(left, right) if r else tuple((0,) * k for _ in range(n))
    if data.draw(st.booleans()):
        rhs = intmat.matvec(mat, tuple(data.draw(ENTRY) for _ in range(k)))
    else:
        rhs = tuple(data.draw(ENTRY) for _ in range(n))
    want = ("ValueError", "matrix does not have full column rank")
    assert _outcome(reference_solve_integer, mat, rhs) == want
    assert _outcome(intmat.solve_integer, mat, rhs) == want


# --- inverse ------------------------------------------------------------------


@SETTINGS
@given(square_matrices())
def test_inverse_matches_column_solve_reference(mat):
    want = _outcome(reference_inv_unimodular, mat)
    assert _outcome(intmat.inv_unimodular, mat) == want
    if not isinstance(want[0], str):
        assert intmat.matmul(mat, want) == intmat.identity(len(mat))


@pytest.mark.parametrize(
    "mat, message",
    [
        (((1, 2), (2, 4)), "matrix does not have full column rank"),
        (((0, 0), (0, 0)), "matrix does not have full column rank"),
        (((2, 0), (0, 1)), "matrix is not unimodular"),
        (((1, 2, 3), (4, 5, 6)), "inverse needs a square matrix"),
    ],
)
def test_inverse_messages(mat, message):
    with pytest.raises(ValueError, match=message):
        intmat.inv_unimodular(mat)
    assert _outcome(reference_inv_unimodular, mat) == ("ValueError", message)


def test_inverse_of_empty_matrix():
    assert intmat.inv_unimodular(()) == ()


# --- rank and primitivity -----------------------------------------------------


@SETTINGS
@given(column_matrices())
def test_embedding_matches_smith_rule(matrix):
    target = named_lattice("diag", (2,) * len(matrix))
    want = reference_embedding(matrix)
    if want == "dependent":
        with pytest.raises(NotPrimitive):
            Embedding(target, matrix)
    else:
        assert Embedding(target, matrix).is_primitive() == (want == "primitive")


# orthogonal isotropic pairs of U + U(2), spanning planes of several indices
PLANE_LATTICE = sums(U(1), U(2))
PLANE_PAIRS = [
    (v.vector, w.vector)
    for v in enumerate_isotropic(PLANE_LATTICE, 1)
    for w in enumerate_isotropic(PLANE_LATTICE, 1)
    if PLANE_LATTICE.pair(v.vector, w.vector) == 0
]


@SETTINGS
@given(st.sampled_from(PLANE_PAIRS), st.tuples(*[st.integers(-3, 3)] * 4))
def test_isotropic_plane_matches_smith_rule(pair, coeffs):
    lattice = PLANE_LATTICE
    (v, w), (a, b, c, d) = pair, coeffs
    v1 = tuple(a * x + b * y for x, y in zip(v, w))
    v2 = tuple(c * x + d * y for x, y in zip(v, w))
    assert lattice.norm(v1) == lattice.norm(v2) == lattice.pair(v1, v2) == 0
    if smith_diagonal(intmat.from_columns([v1, v2])) == (1, 1):
        IsotropicPlane(lattice, (v1, v2))
    else:
        with pytest.raises(NotIsotropicPlane):
            IsotropicPlane(lattice, (v1, v2))


# --- the dual partner from the Hermite form -----------------------------------

# U in the basis P = [[10, 13], [13, 17]]: l = (17, -13) is isotropic with
# G l = (13, 17), and no m with |coords| <= 3 has 13 m_1 + 17 m_2 = 1.  The
# Hermite form of the rows (13, 1, 0) and (17, 0, 1) starts with (1, 4, -3).
P_GRAM = ((260, 339), (339, 442))


def _p_sum(blocks: int) -> tuple:
    """The Gram matrix of P + P + ... with `blocks` summands."""
    n = 2 * blocks
    return tuple(tuple(P_GRAM[i % 2][j % 2] if i // 2 == j // 2 else 0 for j in range(n)) for i in range(n))


def _check_split(split: HyperbolicSplit, l):
    lattice = split.lattice
    assert split.f_image == l
    assert lattice.pair(split.f_image, split.e_image) == 1
    assert lattice.norm(split.e_image) == 0
    assert abs(intmat.det(split.basis_matrix())) == 1


def test_hermite_partner_rank_two():
    lattice = make_lattice(P_GRAM)
    l = (17, -13)
    assert _find_dual_partner(lattice, l) == (4, -3)
    split = hyperbolic_completion(lattice, l)
    _check_split(split, l)
    assert split.e_image == (-13, 10)
    assert split.complement.rank == 0
    # the rank-0 complement: only the zero vector lies in it
    assert split.in_complement((0, 0)) == ()
    assert split.in_complement((1, 0)) is None
    assert split.to_ambient(()) == (0, 0)
    ident = LatticeIsometry.identity(lattice)
    assert transvection(split, (0, 0)) == ident
    h, v = stabilizer_decompose(split, ident)
    assert (h.matrix, v) == ((), (0, 0))


def test_hermite_partner_rank_four():
    lattice = make_lattice(_p_sum(2))
    l = (17, -13, 0, 0)
    assert _find_dual_partner(lattice, l) == (4, -3, 0, 0)
    split = hyperbolic_completion(lattice, l)
    _check_split(split, l)
    assert split.complement.rank == 2
    assert split.complement.gram == P_GRAM
    for col in intmat.columns(split.complement_columns):
        coords = split.in_complement(col)
        assert split.to_ambient(coords) == col
    assert split.in_complement(split.e_image) is None


@pytest.mark.parametrize("blocks", [4, 6])
def test_hermite_partner_at_rank_8_and_12(blocks):
    # a box search of height 3 walks 7^n points here before it gives up
    lattice = make_lattice(_p_sum(blocks))
    l = (17, -13) + (0,) * (2 * blocks - 2)
    start = time.perf_counter()
    split = hyperbolic_completion(lattice, l)
    elapsed = time.perf_counter() - start
    _check_split(split, l)
    assert split.e_image == (-13, 10) + (0,) * (2 * blocks - 2)
    assert split.complement.gram == _p_sum(blocks - 1)
    assert elapsed < 0.1
