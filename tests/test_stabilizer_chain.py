"""aut_group's primary route reads |O(A, q)| off a stabilizer chain of each
p-primary block and builds the elements as products of transversal
elements.  These tests check the order against the order of the split
orthogonal group, with no element built, and the elements against the
direct route and the full enumeration of every block that the chain
replaced (conftest.reference_full_group), on each form and its negation.
Groups too large to list refuse before they build anything.
"""

import contextlib
import functools
import io
import random
from math import prod

import pytest
from conftest import negated, random_unimodular, reference_full_group
from test_aut_certified import TWO_PRIMES
from test_fqf_products import SCALAR_RICH, SMALL, TIERS

from cuspcount import counting, discriminant, intmat
from cuspcount.cli import main, parse_lattice_spec
from cuspcount.discriminant import (
    MAX_SUBGROUP_ORDER,
    _double_coset_sweep,
    aut_group,
    discriminant_form,
    double_coset_count,
    plus_minus_subgroup,
    transport_subgroup,
)
from cuspcount.errors import BudgetExceeded
from cuspcount.lattices import make_lattice


def split_orthogonal_order(p, m):
    """|O+_2m(F_p)|: the discriminant form of U(p)^m is F_p^2m with the
    hyperbolic quadratic form, of Witt index m."""
    return 2 * p ** (m * (m - 1)) * (p**m - 1) * prod(p ** (2 * i) - 1 for i in range(1, m))


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2)])
def test_order_is_the_split_orthogonal_group_order(p, m):
    group = aut_group(discriminant_form(parse_lattice_spec("+".join([f"U({p})"] * m))))
    assert group.order() == split_orthogonal_order(p, m)
    assert "elements" not in vars(group)


LARGER = ("U(2)+U(2)+U(2)", "U(3)+U(3)", "U(4)+U(4)", "U(5)+U(5)", "U(6)+U(3)", "U(6)+U(6)", "U(9)+U(3)")
UR = tuple(f"U({r})" for r in range(1, 61))
LABELS = tuple(dict.fromkeys(TIERS + SMALL + SCALAR_RICH + TWO_PRIMES + LARGER + UR))


@functools.cache
def form_of(label):
    return discriminant_form(parse_lattice_spec(label))


@functools.cache
def oracle_matrices(label):
    """The sorted element matrices by the direct route and by the full
    enumeration of each block, which must agree.  O(A, q) and O(A, -q) have
    the same matrices, so the negated form shares them."""
    form = form_of(label)
    direct = [iso.matrix for iso in aut_group(form, method="direct", budget=10**5).elements]
    assert direct == reference_full_group(form)
    return direct


@pytest.mark.parametrize("negate", [False, True])
@pytest.mark.parametrize("label", LABELS)
def test_chain_matches_the_direct_route_and_the_full_enumeration(label, negate):
    form = negated(form_of(label)) if negate else form_of(label)
    group = aut_group(form, budget=10**5)
    want = oracle_matrices(label)
    assert group.order() == len(want)
    assert [iso.matrix for iso in group.elements] == want


@pytest.mark.parametrize("label", ["U(2)+U(6)", "U(4)+U(4)", "U(6)+U(3)", "U(2)+A(2)+A(2)"])
def test_transported_full_group_is_the_target_group(label):
    lattice = parse_lattice_spec(label)
    source = discriminant_form(lattice)
    rng = random.Random(19)
    moved_forms = 0
    for _ in range(3):
        u = random_unimodular(lattice.rank, rng)
        gram = intmat.matmul(intmat.matmul(intmat.transpose(u), lattice.gram), u)
        target = discriminant_form(make_lattice(gram))
        moved = transport_subgroup(aut_group(source), target)
        assert moved.elements == aut_group(target).elements
        moved_forms += target != source
    assert moved_forms


def test_repr_builds_no_element():
    big = aut_group(discriminant_form(parse_lattice_spec("U(2)+U(2)+U(2)+U(2)")))
    assert "348364800" in repr(big)
    small = aut_group(discriminant_form(parse_lattice_spec("U(6)")))
    assert repr(small) == "_FullGroup(orders=(6, 6), order=8)"
    assert "elements" not in vars(small)


def test_equality_and_hash_build_no_element():
    form = discriminant_form(parse_lattice_spec("U(2)+U(2)+U(2)+U(2)"))
    group = aut_group(form)
    assert group == aut_group(form)
    assert hash(group) == hash(aut_group(form))
    assert group != plus_minus_subgroup(form) and plus_minus_subgroup(form) != group
    assert "elements" not in vars(group)


def test_a_full_group_equals_its_direct_route_both_ways():
    form = discriminant_form(parse_lattice_spec("U(6)"))
    lazy, direct = aut_group(form), aut_group(form, method="direct")
    assert lazy == direct and direct == lazy
    assert hash(lazy) == hash(direct)
    assert "elements" not in vars(lazy)
    pm = plus_minus_subgroup(form)
    assert lazy != pm and pm != lazy and direct != pm
    other = aut_group(negated(form))  # the same order on another form
    assert other.order() == lazy.order() and other != lazy and lazy != other


@pytest.mark.parametrize("label", ["U(3)+U(3)+U(3)", "U(2)+U(2)+U(2)+U(2)"])
def test_groups_beyond_the_cap_refuse_to_build_elements(label, monkeypatch):
    built = []
    real = discriminant._products
    monkeypatch.setattr(discriminant, "_products", lambda *args: built.append(args) or real(*args))
    form = discriminant_form(parse_lattice_spec(label))
    group = aut_group(form)
    pm = plus_minus_subgroup(form)
    assert group.order() > MAX_SUBGROUP_ORDER
    # +-1 is central in O(A, q), so the order route answers |O| / |+-1|
    assert double_coset_count(pm, group, pm) == group.order() // pm.order()
    with pytest.raises(BudgetExceeded, match="exceeds the cap"):
        group.elements
    with pytest.raises(BudgetExceeded):
        _double_coset_sweep(pm, group, pm)
    with pytest.raises(BudgetExceeded):
        counting._orbit_count([form.zero()], group)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["aut", label]) == 3
    assert built == []
