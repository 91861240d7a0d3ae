import random
from fractions import Fraction
from math import lcm

import pytest

from cuspcount import intmat
from cuspcount.lattices import direct_sum, make_lattice, named_lattice


def U(r=1):
    return named_lattice("U", (r,))


def diag(*entries):
    return named_lattice("diag", entries)


def sums(*lattices):
    out = lattices[0]
    for latt in lattices[1:]:
        out = direct_sum(out, latt)
    return out


def corpus():
    """Deterministic test corpus: 24 lattices of rank <= 4."""
    a2_neg = named_lattice("A", (2,))
    return [
        U(1),
        U(2),
        U(3),
        U(4),
        U(5),
        U(6),
        sums(U(1), U(1)),
        sums(U(1), U(2)),
        sums(U(1), U(3)),
        sums(U(2), U(2)),
        sums(U(2), U(3)),
        sums(U(2), U(1)),
        sums(U(1), diag(-2)),
        sums(U(1), diag(-4)),
        sums(U(1), diag(-6)),
        sums(U(1), diag(2)),
        diag(2, -2),
        diag(2, -4),
        diag(4, -6),
        diag(2, -2, -2),
        sums(U(1), diag(-2, -2)),
        a2_neg,
        sums(a2_neg, U(1)),
        diag(6, -2),
    ]


@pytest.fixture(scope="session")
def corpus_lattices():
    return corpus()


@pytest.fixture()
def rng():
    return random.Random(20240817)


# --- test-only helpers ------------------------------------------------------


def random_unimodular(n: int, rng, steps: int = 12):
    """Random unimodular matrix from elementary ops (deterministic given rng)."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return intmat.freeze(m)


def saturation(cols_mat):
    """Saturation of the column span inside Z^n (double annihilator)."""
    ann = intmat.kernel_basis(intmat.transpose(cols_mat))
    return intmat.kernel_basis(intmat.transpose(ann))


def classify(data, x) -> tuple:
    """Class in the discriminant group of a dual vector x (rational coords),
    for the _DiscData of its lattice."""
    d = lcm(*(Fraction(val).denominator for val in x))
    return data.class_of(tuple(int(Fraction(val) * d) for val in x), d)


# --- independent oracles ----------------------------------------------------


def det_oracle(gram) -> Fraction:
    """Determinant by plain fraction Gaussian elimination (not Bareiss)."""
    n = len(gram)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in gram]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def signature_oracle(gram):
    """Count positive/negative eigenvalues (with multiplicity) via Sturm
    root counting on the square-free layers of the characteristic polynomial."""
    import sympy

    n = len(gram)
    if n == 0:
        return (0, 0)
    lam = sympy.Symbol("lam")
    poly = sympy.Poly(sympy.Matrix(gram).charpoly(lam), lam)
    pos = neg = 0
    _, layers = sympy.sqf_list(poly)
    for factor, mult in layers:
        factor = sympy.Poly(factor, lam)
        pos += mult * factor.count_roots(0, sympy.oo)
        neg += mult * factor.count_roots(-sympy.oo, 0)
    return (int(pos), int(neg))


def random_even_lattice(rng, rank, entry_bound=20):
    """Random nondegenerate even lattice (deterministic given rng)."""
    while True:
        g = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            g[i][i] = 2 * rng.randint(-entry_bound // 2, entry_bound // 2)
            for j in range(i + 1, rank):
                g[i][j] = g[j][i] = rng.randint(-entry_bound, entry_bound)
        if det_oracle(g) != 0:
            return make_lattice(g)
