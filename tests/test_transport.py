"""transport_subgroup conjugates by a matrix inverse, without enumerating A.

The reference below is the A-enumerating transport it replaced: it maps
every element of A once along psi and reads psi^-1 off that table.
"""

import random

import pytest
from conftest import corpus, diag, random_unimodular

from cuspcount import intmat
from cuspcount.cli import parse_lattice_spec
from cuspcount.discriminant import (
    FiniteQuadraticForm,
    FqfIsometry,
    FqfSubgroup,
    aut_group,
    discriminant_form,
    fqf_isomorphism,
    fqf_subgroup,
    plus_minus_subgroup,
    transport_subgroup,
    trivial_subgroup,
)
from cuspcount.errors import NotIsometry
from cuspcount.lattices import make_lattice


def reference_transport(sub, iso_matrix, target) -> FqfSubgroup:
    source = sub.form
    if source.is_trivial():
        return trivial_subgroup(target)
    image_of = {x: target.reduce(intmat.matvec(iso_matrix, x)) for x in source.elements()}
    preimage = {img: x for x, img in image_of.items()}
    k = source.ngens
    unit_cols = [preimage[tuple(1 if i == j else 0 for i in range(k))] for j in range(k)]
    moved = {
        FqfIsometry.from_images(target, [image_of[iso.apply(x)] for x in unit_cols])
        for iso in sub.elements
    }
    elements = tuple(sorted(moved, key=lambda iso: iso.matrix))
    return FqfSubgroup(target, elements)


def _rebased(lattice, rng):
    u = random_unimodular(lattice.rank, rng)
    return make_lattice(intmat.matmul(intmat.matmul(intmat.transpose(u), lattice.gram), u))


def _pairs():
    """(source, target) forms of equal orders: every corpus lattice (plus
    three with larger groups) against itself in two random bases and
    against each other lattice of the same invariant factors."""
    rng = random.Random(11)
    extra = [diag(6, -10), parse_lattice_spec("U(2)+U(6)"), parse_lattice_spec("U(3)+A(2)")]
    lattices = [lat for lat in corpus() + extra if lat.det() != 0]
    forms = [discriminant_form(lat) for lat in lattices]
    pairs = []
    for lattice, form in zip(lattices, forms):
        pairs += [(form, discriminant_form(_rebased(lattice, rng))) for _ in range(2)]
        pairs += [(form, other) for other in forms if other.orders == form.orders]
    return pairs


def _subgroups(form, rng):
    full = aut_group(form)
    gens = rng.sample(full.elements, min(2, full.order()))
    return [full, plus_minus_subgroup(form), trivial_subgroup(form), fqf_subgroup(form, gens)]


def _matrices(sub):
    return {iso.matrix for iso in sub.elements}


def test_matches_the_enumerating_reference(monkeypatch):
    rng = random.Random(5)
    cases = []
    for source, target in _pairs():
        psi = fqf_isomorphism(source, target)
        for sub in _subgroups(source, rng):
            want = None if psi is None else reference_transport(sub, psi, target)
            cases.append((sub, target, want))

    def no_enumeration(self):
        raise AssertionError("transport enumerated A")

    monkeypatch.setattr(FiniteQuadraticForm, "elements", no_enumeration)
    moved_by_search = 0
    for sub, target, want in cases:
        if want is None:
            pm_source, pm_target = plus_minus_subgroup(sub.form), plus_minus_subgroup(target)
            if _matrices(sub) <= _matrices(pm_source):  # {1} and {+-1} move onto any form
                assert _matrices(transport_subgroup(sub, target)) <= _matrices(pm_target)
            else:
                with pytest.raises(NotIsometry):
                    transport_subgroup(sub, target)
            continue
        moved = transport_subgroup(sub, target)
        assert moved.form == target
        assert moved.elements == want.elements
        moved_by_search += sub.form != target and sub.order() > 2
    assert moved_by_search >= 20


def test_moved_elements_are_checked_once(monkeypatch):
    """The moved full group is checked on its generators when it is read,
    and builds no element through the validating constructor; any other
    subgroup validates each moved element."""
    source = discriminant_form(diag(6, -10))
    target = discriminant_form(make_lattice(((6, 6), (6, -4))))
    full = aut_group(source)
    sub = fqf_subgroup(source, full.elements[1:3])
    built = []
    check = FqfIsometry.__init__

    def counted(self, *args):
        check(self, *args)
        built.append(self.matrix)

    monkeypatch.setattr(FqfIsometry, "__init__", counted)
    moved = transport_subgroup(full, target).elements
    assert built == []
    moved_sub = transport_subgroup(sub, target)
    assert _matrices(moved_sub) <= set(built)
    monkeypatch.undo()
    assert moved == aut_group(target).elements
    for iso in moved:
        assert FqfIsometry(target, iso.matrix) == iso  # passes full validation


def test_a_corrupt_moved_generator_fails_on_read():
    # one prime: the moved group runs no check when it is built
    lattice = parse_lattice_spec("U(4)")
    source = discriminant_form(lattice)
    rng = random.Random(1)
    target = next(f for f in (discriminant_form(_rebased(lattice, rng)) for _ in range(50)) if f != source)
    moved = transport_subgroup(aut_group(source), target)
    ((ident, levels),) = moved._chains
    at = next(i for i, u in enumerate(levels[0]) if u != ident)
    levels[0][at] = tuple((0,) + row[1:] for row in levels[0][at])  # g_1 goes to 0
    with pytest.raises(AssertionError, match="the images of the generators do not preserve q and b"):
        moved.elements
