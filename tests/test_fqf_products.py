"""Group products on reduced matrices against the compose-based references.

double_coset_count answers from group orders when a factor is central and
otherwise sweeps reduced matrices; fqf_subgroup multiplies reduced
matrices; FqfIsometry.inverse takes powers.  The references below are the
compose-and-validate sweep, closure and element-enumerating inverse.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcount import discriminant
from cuspcount.cli import parse_lattice_spec
from cuspcount.discriminant import (
    FqfIsometry,
    FqfSubgroup,
    _inverse_mod,
    _is_central,
    aut_group,
    discriminant_form,
    double_coset_count,
    fqf_subgroup,
    natural_map,
    plus_minus_subgroup,
    trivial_subgroup,
)
from cuspcount.errors import NotIsometry

# the ten fqf-groups benchmark tiers, in the standard basis, plus U(3)+U(3)
TIERS = (
    "U+diag(-2,-2,-2,-2)",
    "U(3)+A(2)",
    "U(2)+A(2)+A(2)",
    "U(2)+U(2)",
    "U(4)+diag(-2,-2)",
    "U(2)+D(4)",
    "U+diag(-2,-2,-2,-2,-2)",
    "U(2)+diag(-2,-2,-2)",
    "U(2)+U(4)",
    "U(2)+U(6)",
    "U(3)+U(3)",
)

# |A| <= 64, so that random generator subsets close quickly
SMALL = (
    "U(2)",
    "U(3)",
    "U(6)",
    "U(2)+U(2)",
    "U(3)+A(2)",
    "U(2)+A(2)+A(2)",
    "U(4)+diag(-2,-2)",
    "U(2)+diag(-2,-2,-2)",
    "U(2)+U(4)",
)

# cyclic Z/60 and Z/2 + Z/30: 8 and 4 scalar isometries, so central factors
# beyond {1} and {+-1}
SCALAR_RICH = ("diag(60)", "diag(2,-30)")


def reference_double_coset_count(left, ambient, right) -> int:
    visited = set()
    count = 0
    for x in ambient.elements:
        if x in visited:
            continue
        count += 1
        for l in left.elements:
            lx = l.compose(x)
            for r in right.elements:
                visited.add(lx.compose(r))
    return count


def reference_subgroup(form, generators) -> FqfSubgroup:
    gens = tuple(generators)
    ident = FqfIsometry.identity(form)
    seen = {ident}
    queue = [ident]
    while queue:
        x = queue.pop()
        for g in gens:
            y = g.compose(x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return FqfSubgroup(form, tuple(sorted(seen, key=lambda iso: iso.matrix)))


def reference_inverse(iso) -> FqfIsometry:
    form = iso.form
    k = form.ngens
    if not k:
        return iso
    preimage = {iso.apply(x): x for x in form.elements()}
    cols = [preimage[tuple(1 if i == j else 0 for i in range(k))] for j in range(k)]
    return FqfIsometry.from_images(form, cols)


def scalar_isometries(form) -> list:
    """Every c * id that is an isometry, c mod the exponent."""
    k = form.ngens
    found = []
    for c in range(form.exponent()):
        try:
            found.append(FqfIsometry(form, tuple(tuple(c * (i == j) for j in range(k)) for i in range(k))))
        except NotIsometry:
            pass
    return found


def first_block_image(lattice):
    """Generators of r(O(U(r))) for the leading U(r) block: swap and -1 on
    it, the identity elsewhere."""
    n = lattice.rank
    swap = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    swap[0][0] = swap[1][1] = 0
    swap[0][1] = swap[1][0] = 1
    minus = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    minus[0][0] = minus[1][1] = -1
    return tuple(natural_map(lattice, m) for m in (swap, minus))


@pytest.fixture(scope="module", params=TIERS)
def tier(request):
    lattice = parse_lattice_spec(request.param)
    form = discriminant_form(lattice)
    return lattice, form, aut_group(form)


def element_of_order_3(group):
    for g in group.elements:
        g2 = g.compose(g)
        if not g2.is_identity() and g2.compose(g).is_identity():
            return g
    raise AssertionError("no element of order 3")


class TestDoubleCosetSweep:
    def test_matches_reference(self, tier):
        lattice, form, ambient = tier
        pm = plus_minus_subgroup(form)
        image = fqf_subgroup(form, first_block_image(lattice))
        for right in (pm, ambient, image):
            assert double_coset_count(pm, ambient, right) == reference_double_coset_count(
                pm, ambient, right
            )

    def test_non_closed_ambient_is_caught(self):
        form = discriminant_form(parse_lattice_spec("U(2)+U(2)"))
        g = element_of_order_3(aut_group(form))
        ident = FqfIsometry.identity(form)
        # {id, g} holds g but not g^2: it is not a group
        broken = FqfSubgroup(form, tuple(sorted((ident, g), key=lambda iso: iso.matrix)))
        with pytest.raises(AssertionError):
            double_coset_count(broken, broken, broken)

    def test_central_factor_skips_the_sweep(self, tier, monkeypatch):
        lattice, form, ambient = tier
        pm = plus_minus_subgroup(form)
        image = fqf_subgroup(form, first_block_image(lattice))
        want = reference_double_coset_count(pm, ambient, image)

        def no_sweep(*args):
            raise AssertionError("a central factor was swept")

        monkeypatch.setattr(discriminant, "_double_coset_sweep", no_sweep)
        assert double_coset_count(pm, ambient, image) == want
        assert double_coset_count(image, ambient, pm) == want

    def test_order_route_checks_lagrange(self):
        form = discriminant_form(parse_lattice_spec("U(3)+A(2)"))
        g = element_of_order_3(aut_group(form))
        pm = plus_minus_subgroup(form)
        # {1, -1, g} is not a group, and |{+-1}| = 2 does not divide 3
        broken = FqfSubgroup(form, tuple(sorted({*pm.elements, g}, key=lambda iso: iso.matrix)))
        with pytest.raises(AssertionError):
            double_coset_count(pm, broken, trivial_subgroup(form))


class TestClosure:
    def test_matches_reference(self, tier):
        lattice, form, ambient = tier
        for gens in (
            (FqfIsometry.minus_identity(form),),
            first_block_image(lattice),
            ambient.elements[1 :: max(1, ambient.order() // 5)],
        ):
            assert fqf_subgroup(form, gens) == reference_subgroup(form, gens)

    def test_every_element_is_validated_once(self, monkeypatch):
        form = discriminant_form(parse_lattice_spec("U(2)+U(4)"))
        gens = aut_group(form).elements[1::9]
        validated = []
        post_init = FqfIsometry.__post_init__

        def counting(self):
            post_init(self)
            validated.append(self.matrix)

        monkeypatch.setattr(FqfIsometry, "__post_init__", counting)
        closure = fqf_subgroup(form, gens)
        monkeypatch.undo()
        assert sorted(validated) == [iso.matrix for iso in closure.elements]
        for iso in closure.elements:
            assert type(iso) is FqfIsometry
            assert FqfIsometry(form, iso.matrix) == iso  # passes full validation again

    def test_trivial_form(self):
        form = discriminant_form(parse_lattice_spec("U"))
        assert fqf_subgroup(form, ()).order() == 1
        assert double_coset_count(*(trivial_subgroup(form),) * 3) == 1


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL), st.data())
def test_random_generator_subsets_match_reference(label, data):
    form = discriminant_form(parse_lattice_spec(label))
    ambient = aut_group(form)
    picks = st.lists(st.sampled_from(ambient.elements), max_size=3)
    left_gens, right_gens = data.draw(picks), data.draw(picks)
    left = fqf_subgroup(form, left_gens)
    right = fqf_subgroup(form, right_gens)
    assert left == reference_subgroup(form, left_gens)
    assert right == reference_subgroup(form, right_gens)
    assert double_coset_count(left, ambient, right) == reference_double_coset_count(
        left, ambient, right
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL + SCALAR_RICH), st.data())
def test_order_route_matches_reference(label, data):
    form = discriminant_form(parse_lattice_spec(label))
    ambient = aut_group(form)
    scalars = fqf_subgroup(form, data.draw(st.lists(st.sampled_from(scalar_isometries(form)), max_size=2)))
    two_gens = fqf_subgroup(form, data.draw(st.lists(st.sampled_from(ambient.elements), min_size=2, max_size=2)))
    left = data.draw(st.sampled_from((trivial_subgroup(form), plus_minus_subgroup(form), scalars)))
    right = data.draw(st.sampled_from((trivial_subgroup(form), plus_minus_subgroup(form), ambient, two_gens)))
    assert _is_central(left)
    for h, k in ((left, right), (right, left)):
        assert double_coset_count(h, ambient, k) == reference_double_coset_count(h, ambient, k)


@pytest.mark.parametrize("label", ["U(6)", "U(12)", "U(2)+U(4)", "U(3)+A(2)"])
def test_inverse_matches_enumeration(label):
    form = discriminant_form(parse_lattice_spec(label))
    for iso in aut_group(form).elements:
        inv = iso.inverse()
        assert inv == reference_inverse(iso)
        assert _inverse_mod(iso.matrix, form.orders) == reference_inverse(iso).matrix
        assert iso.compose(inv).is_identity()
