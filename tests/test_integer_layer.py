"""The integer-only lattice layer against the Fraction and Smith-form code it
replaced.

The references below are the earlier implementations, kept here only as
oracles: Fraction Gauss-Jordan for intmat.solve_integer, Fraction symmetric
elimination for signature, the Smith-form kernel and the quotient built on
those three.  Divisor-1 quotients are also checked against the U-splitting
argument, which puts every divisor-1 quotient of a window in one genus, and
the one cell of classify_i1_orbits against grouping by is_isogenus, on fixed
and on random windows.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_isotropic import ISO_WINDOW_TIERS, indefinite_grams

from cuspcount import intmat
from cuspcount.cli import parse_lattice_spec
from cuspcount.discriminant import is_isogenus
from cuspcount.errors import NoneFoundInWindow
from cuspcount.isotropic import classify_i1_orbits, enumerate_isotropic, quotient_lattice
from cuspcount.lattices import EvenLattice, make_lattice, signature

# --- references ---------------------------------------------------------------


def reference_solve_rational(mat, rhs):
    rows, cols = intmat.shape(mat)
    if len(rhs) != rows:
        raise ValueError("rhs length mismatch")
    a = [[Fraction(mat[i][j]) for j in range(cols)] + [Fraction(rhs[i])] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    if len(pivots) < cols:
        raise ValueError("matrix does not have full column rank")
    for i in range(r, rows):
        if a[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = a[i][cols]
    return tuple(x)


def reference_solve_integer(mat, rhs):
    sol = reference_solve_rational(mat, rhs)
    if sol is None or any(f.denominator != 1 for f in sol):
        return None
    return tuple(int(f) for f in sol)


def reference_signature(gram):
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
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
            if a[i][k] != 0:
                f = a[i][k] / pivot
                for t in range(k, n):
                    a[i][t] -= f * a[k][t]
                for t in range(k, n):
                    a[t][i] -= f * a[t][k]
    return (pos, neg)


def reference_kernel_basis(mat):
    rows, cols = intmat.shape(mat)
    if cols == 0:
        return ()
    _, d, v = intmat.snf_transforms(mat)
    rank = sum(1 for i in range(min(rows, cols)) if d[i][i] != 0)
    cols_v = intmat.columns(v)[rank:]
    if not cols_v:
        return tuple(() for _ in range(cols))
    return intmat.transpose(intmat.hnf_rows(intmat.transpose(intmat.from_columns(cols_v))))


def reference_quotient_gram(lattice, v):
    perp = reference_kernel_basis((intmat.matvec(lattice.gram, v),))
    coords = reference_solve_integer(perp, v)
    if intmat.shape(perp)[1] == 1:
        return ()
    u, _, _ = intmat.snf_transforms(intmat.from_columns([coords]))
    uinv = intmat.inv_unimodular(u)
    cols = intmat.from_columns([intmat.matvec(perp, c) for c in intmat.columns(uinv)[1:]])
    return intmat.matmul(intmat.matmul(intmat.transpose(cols), lattice.gram), cols)


def reference_classes(lattice, height_bound):
    """classify_i1_orbits as it was: grouped by is_isogenus."""
    classes = []
    for iv in enumerate_isotropic(lattice, height_bound):
        if iv.divisor != 1:
            continue
        quot = quotient_lattice(lattice, iv.vector)
        for cls in classes:
            if is_isogenus(cls[2], quot):
                cls[1].append(iv.vector)
                break
        else:
            classes.append((iv.vector, [iv.vector], quot))
    return [(rep, tuple(members), quot.gram) for rep, members, quot in classes]


# --- random inputs ------------------------------------------------------------

ENTRY = st.integers(-20, 20)


@st.composite
def int_matrices(draw, max_rows=5, max_cols=5):
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    return tuple(tuple(draw(ENTRY) for _ in range(cols)) for _ in range(rows))


@st.composite
def symmetric_even_grams(draw):
    n = draw(st.integers(1, 5))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * draw(st.integers(-10, 10))
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = draw(ENTRY)
    assume(intmat.det(gram) != 0)
    return intmat.freeze(gram)


SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@SETTINGS
@given(int_matrices(), st.data())
def test_solve_matches_fraction_reference(mat, data):
    rows, cols = intmat.shape(mat)
    if data.draw(st.booleans()):
        rhs = tuple(data.draw(ENTRY) for _ in range(rows))
    else:  # consistent, with the solution x / scale
        x = tuple(data.draw(ENTRY) for _ in range(cols))
        rhs = intmat.matvec(mat, x)
        scale = data.draw(st.integers(1, 3))
        mat = tuple(tuple(scale * y for y in row) for row in mat)
    assert _outcome(intmat.solve_integer, mat, rhs) == _outcome(reference_solve_integer, mat, rhs)


@SETTINGS
@given(int_matrices())
def test_kernel_basis_matches_smith_reference(mat):
    assert intmat.kernel_basis(mat) == reference_kernel_basis(mat)
    # the saturation callers see the same matrices too
    assert intmat.kernel_basis(intmat.transpose(mat)) == reference_kernel_basis(intmat.transpose(mat))


@SETTINGS
@given(symmetric_even_grams())
def test_signature_matches_fraction_reference(gram):
    assert signature(EvenLattice(gram)) == reference_signature(gram)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(indefinite_grams())
def test_isotropic_grams_match_references(gram):
    lattice = make_lattice(gram)
    assert signature(lattice) == reference_signature(lattice.gram)
    pairing_rows = intmat.matmul(intmat.identity(lattice.rank)[:2], lattice.gram)
    assert intmat.kernel_basis(pairing_rows) == reference_kernel_basis(pairing_rows)
    for iv in enumerate_isotropic(lattice, 2)[:8]:
        assert quotient_lattice(lattice, iv.vector).gram == reference_quotient_gram(lattice, iv.vector)


# --- divisor-1 quotients and the classification ---------------------------------


def _windows(corpus_lattices):
    tiers = [(parse_lattice_spec(label), bound) for label, bound in ISO_WINDOW_TIERS]
    return tiers + [(lattice, 3) for lattice in corpus_lattices]


def test_divisor_one_quotients_split_off_u(corpus_lattices):
    seen = 0
    for lattice, bound in _windows(corpus_lattices):
        p, q = signature(lattice)
        for iv in enumerate_isotropic(lattice, bound):
            if iv.divisor != 1:
                continue
            quot = quotient_lattice(lattice, iv.vector)
            assert signature(quot) == (p - 1, q - 1)
            assert abs(quot.det()) == abs(lattice.det())
            assert quot.gram == reference_quotient_gram(lattice, iv.vector)
            seen += 1
    assert seen > 300


def test_classes_match_isogenus_grouping(corpus_lattices):
    compared = 0
    for lattice, bound in _windows(corpus_lattices):
        want = reference_classes(lattice, bound)
        if not want:
            with pytest.raises(NoneFoundInWindow):
                classify_i1_orbits(lattice, bound)
            continue
        got = [
            (cls.representative.vector, tuple(iv.vector for iv in cls.vectors), cls.quotient.gram)
            for cls in classify_i1_orbits(lattice, bound)
        ]
        assert got == want
        compared += 1
    assert compared >= len(ISO_WINDOW_TIERS)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(indefinite_grams(), st.integers(1, 2))
def test_random_windows_form_one_isogenus_cell(gram, h):
    lattice = make_lattice(gram)
    want = reference_classes(lattice, h)
    if not want:
        with pytest.raises(NoneFoundInWindow):
            classify_i1_orbits(lattice, h)
    assume(want)  # 40 windows that hold a divisor-1 vector
    assert len(want) == 1
    (cell,) = classify_i1_orbits(lattice, h)
    got = (cell.representative.vector, tuple(iv.vector for iv in cell.vectors), cell.quotient.gram)
    assert [got] == want
