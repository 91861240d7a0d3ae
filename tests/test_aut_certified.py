"""The primary route of aut_group certifies each element once, in the
p-primary search that finds it, and builds it without FqfIsometry's
validation.  These tests compare it with the direct route, validate every
element in full again, pin that the route validates none itself, and break
one block solution to see the stitched-element checks fire.
"""

import functools

import pytest
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
def form_of(label, negated):
    form = discriminant_form(parse_lattice_spec(label))
    return form.negated() if negated else form


@functools.cache
def direct_elements(label, negated):
    return aut_group(form_of(label, negated), method="direct").elements


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(LABELS), st.booleans())
def test_primary_route_matches_direct_and_validates(label, negated):
    form = form_of(label, negated)
    group = aut_group(form)
    assert group.elements == direct_elements(label, negated)
    for iso in group.elements:
        again = FqfIsometry(form, iso.matrix)  # full validation
        assert again == iso
        assert hash(again) == hash(iso)


@pytest.mark.parametrize("label", ["U(2)+U(4)", "U(2)+U(6)"])
def test_primary_route_validates_no_element(label, monkeypatch):
    form = discriminant_form(parse_lattice_spec(label))
    validated = []
    post_init = FqfIsometry.__post_init__

    def counting(self):
        post_init(self)
        validated.append(self.matrix)

    monkeypatch.setattr(FqfIsometry, "__post_init__", counting)
    group = aut_group(form)
    assert validated == []
    assert group.order() == len(aut_group(form, method="direct").elements)
    assert validated  # the direct route still validates each element


def _patch_first_block(monkeypatch, edit):
    """Let edit rewrite the solutions of the first p-primary block searched."""
    real = discriminant._image_assignments
    calls = []

    def patched(*args):
        solutions = list(real(*args))
        calls.append(None)
        return iter(edit(solutions) if len(calls) == 1 else solutions)

    monkeypatch.setattr(discriminant, "_image_assignments", patched)
    return calls


def test_corrupt_block_solution_fails_the_stitched_check(monkeypatch):
    form = discriminant_form(parse_lattice_spec("U(6)"))

    def corrupt(solutions):
        first = solutions[0]
        return [(tuple(0 for _ in first[0]),) + first[1:]] + solutions[1:]

    calls = _patch_first_block(monkeypatch, corrupt)
    with pytest.raises(AssertionError, match="the stitched images do not preserve q and b"):
        aut_group(form)
    calls.clear()
    with pytest.raises(AssertionError, match="the stitched images do not preserve q and b"):
        fqf_isomorphism(form, form)


def test_repeated_block_solution_fails_the_distinctness_check(monkeypatch):
    form = discriminant_form(parse_lattice_spec("U(6)"))
    _patch_first_block(monkeypatch, lambda solutions: solutions + solutions[:1])
    with pytest.raises(AssertionError, match="gave one element"):
        aut_group(form)
