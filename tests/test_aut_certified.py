"""aut_group certifies its elements on their generators: the p-primary
searches find the transversal elements, each generator is checked for q and
b, and the products are built without FqfIsometry's validation.  These
tests compare it with the full enumeration of each block
(conftest.reference_full_group), validate every element in full again, pin
that the route validates none itself, and break one transversal element to
see the construction-time and read-time checks fire.
"""

import functools

import pytest
from conftest import negated, reference_full_subgroup
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcount import discriminant
from cuspcount.cli import parse_lattice_spec
from cuspcount.discriminant import FqfIsometry, aut_group, discriminant_form, fqf_isomorphism
from test_fqf_products import SCALAR_RICH, SMALL

# U(6) and U(2)+A(2)+A(2) are in SMALL already
TWO_PRIMES = ("U(6)", "U(2)+U(6)", "U(2)+A(2)+A(2)", "U(3)+U(6)")
LABELS = tuple(dict.fromkeys(SMALL + SCALAR_RICH + TWO_PRIMES))


@functools.cache
def form_of(label, negate):
    form = discriminant_form(parse_lattice_spec(label))
    return negated(form) if negate else form


@functools.cache
def reference_elements(label, negate):
    return reference_full_subgroup(form_of(label, negate)).elements


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(LABELS), st.booleans())
def test_primary_route_matches_the_reference_and_validates(label, negate):
    form = form_of(label, negate)
    group = aut_group(form)
    assert group.elements == reference_elements(label, negate)
    for iso in group.elements:
        again = FqfIsometry(form, iso.matrix)  # full validation
        assert again == iso
        assert hash(again) == hash(iso)


@pytest.mark.parametrize("label", ["U(2)+U(4)", "U(2)+U(6)"])
def test_primary_route_validates_no_element(label, monkeypatch):
    form = discriminant_form(parse_lattice_spec(label))
    validated = []
    init = FqfIsometry.__init__

    def counting(self, *args):
        init(self, *args)
        validated.append(self.matrix)

    monkeypatch.setattr(FqfIsometry, "__init__", counting)
    group = aut_group(form)
    group.elements
    assert validated == []
    assert group.order() == len(reference_full_subgroup(form).elements)
    assert validated  # the reference still validates each element


def _patch_first_level(monkeypatch, edit):
    """Let edit rewrite the first level of the first stabilizer chain built:
    the transversal of the orbit of h_1 in the first p-primary block."""
    real = discriminant._stabilizer_chain
    calls = []

    def patched(*args):
        ident, levels = real(*args)
        calls.append(None)
        if len(calls) == 1:
            levels = [edit(levels[0])] + levels[1:]
        return ident, levels

    monkeypatch.setattr(discriminant, "_stabilizer_chain", patched)
    return calls


def _corrupt_first_contribution(monkeypatch):
    """Send h_1 to 0 in the first block isometry made into a contribution
    matrix: the first transversal element of aut_group, or the first
    block's witness of fqf_isomorphism."""
    real = discriminant._contribution
    calls = []

    def patched(block, sigma, target):
        calls.append(None)
        if len(calls) == 1:
            sigma = (target.zero(),) + tuple(sigma[1:])
        return real(block, sigma, target)

    monkeypatch.setattr(discriminant, "_contribution", patched)
    return calls


def test_corrupt_transversal_element_fails_the_stitched_check(monkeypatch):
    form = discriminant_form(parse_lattice_spec("U(6)"))
    calls = _corrupt_first_contribution(monkeypatch)
    with pytest.raises(AssertionError, match="the images of the generators do not preserve q and b"):
        aut_group(form)
    calls.clear()
    with pytest.raises(AssertionError, match="the images of the generators do not preserve q and b"):
        fqf_isomorphism(form, form)


def test_corrupt_transversal_element_of_one_block_fails_on_read(monkeypatch):
    # one prime: the transversal elements are search leaves and are not
    # checked when the chain is built, but every generator is when read
    form = discriminant_form(parse_lattice_spec("U(4)"))
    _corrupt_first_contribution(monkeypatch)
    group = aut_group(form)
    with pytest.raises(AssertionError, match="the images of the generators do not preserve q and b"):
        group.elements


@pytest.mark.parametrize("label", ["U(4)", "U(2)+U(4)", "U(6)", "U(2)+U(6)"])
def test_each_generator_is_checked_once(label, monkeypatch):
    # one block: on the first read; several: when the group is built
    checked = []
    real = discriminant._assert_keeps_form

    def counted(source, target, matrices):
        checked.append(len(matrices))
        real(source, target, matrices)

    monkeypatch.setattr(discriminant, "_assert_keeps_form", counted)
    group = aut_group(discriminant_form(parse_lattice_spec(label)))
    group.elements
    assert len(checked) == 1 and checked[0] > 0


def test_repeated_transversal_element_fails_the_distinctness_check(monkeypatch):
    form = discriminant_form(parse_lattice_spec("U(6)"))
    _patch_first_level(monkeypatch, lambda level: level + level[:1])
    with pytest.raises(AssertionError, match="gave one element"):
        aut_group(form)


def test_two_transversal_elements_of_one_coset_fail_on_read(monkeypatch):
    """u_0 and u_0 v, for v in the next stabilizer, are distinct but lie in
    one coset, so their products with the later levels collide."""
    form = discriminant_form(parse_lattice_spec("U(2)+U(2)"))
    (block,) = discriminant._primary_blocks(form, form)
    ident, levels = discriminant._stabilizer_chain(form, block)
    v = next(u for u in levels[1] if u != ident)

    def same_coset(level):
        twin = discriminant._matmul_mod(level[0], tuple(zip(*v)), form.orders)
        assert twin not in level
        return [level[0], twin] + level[2:]

    _patch_first_level(monkeypatch, same_coset)
    group = aut_group(form)
    assert group.order() == 72
    with pytest.raises(AssertionError, match="two products of transversal elements gave one element"):
        group.elements
