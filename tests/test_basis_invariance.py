"""Exact answers do not depend on the basis.

Every count is a lattice invariant, so it must come out the same in every
basis of the Picard lattice.  The window searches (the section vector of a
cusp count, the isotropic orbits of fm elliptic) scan boxes in the given
coordinates, so a count may be exact in one basis and only a lower bound in
another; then the lower bound must not exceed the exact value.  The
discriminant group, an invariant too, is compared field by field where the
field does not depend on the chosen generators.

Bases come from conftest.random_unimodular (4 to 12 elementary steps with
multipliers in [-3, 3]), small enough for the Smith reduction.
"""

import functools

from conftest import random_unimodular
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcount import intmat
from cuspcount.cli import parse_lattice_spec
from cuspcount.counting import K3Model, count_cusps_zero_dim, count_fm, count_fm_elliptic
from cuspcount.discriminant import discriminant_form
from cuspcount.lattices import EvenLattice

SPECS = [
    "U(6)",
    "U(12)",
    "U+diag(-2)",
    "U+diag(-4)",
    "U+diag(-6)",
    "U+diag(-12)",
    "U+diag(-2,-2)",
    "U+diag(-2,-4)",
    "diag(2,-4)",
    "diag(6,-10)",
    "diag(2,-50)",
    "diag(2,-2,-2)",
    "U(3)+diag(-2)",
    "U(2)+diag(-6)",
    "U(2)+diag(-2,-2)",
]


def answers(lattice: EvenLattice) -> tuple:
    """((value, exact) of fm count, fm elliptic at h = 3 and the d = 2 cusp
    count), and the generator-free fields of the discriminant form."""
    model = K3Model.generic(lattice)
    reports = (
        count_fm(model),
        count_fm_elliptic(model, height_bound=3),
        count_cusps_zero_dim(model, 2),
    )
    form = discriminant_form(lattice)
    return tuple((r.value, r.exact) for r in reports), (form.orders, form.order(), form.ngens)


@functools.lru_cache(maxsize=None)
def given_basis(spec: str) -> tuple:
    return answers(parse_lattice_spec(spec))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(SPECS), st.integers(4, 12), st.randoms(use_true_random=False))
def test_exact_answers_do_not_depend_on_the_basis(spec, steps, rnd):
    lattice = parse_lattice_spec(spec)
    w = random_unimodular(lattice.rank, rnd, steps=steps)
    moved = EvenLattice(intmat.matmul(intmat.matmul(intmat.transpose(w), lattice.gram), w))
    counts, disc = given_basis(spec)
    moved_counts, moved_disc = answers(moved)
    assert moved_disc == disc
    for (value, exact), (moved_value, moved_exact) in zip(counts, moved_counts):
        if exact and moved_exact:
            assert moved_value == value
        elif exact:
            assert moved_value <= value
        elif moved_exact:
            assert value <= moved_value
