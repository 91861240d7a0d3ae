"""Group products on reduced matrices against the validating references.

double_coset_count answers from group orders when a factor is central and
otherwise sweeps reduced matrices; fqf_subgroup multiplies reduced
matrices and builds its products certified; FqfIsometry.inverse takes
powers; compose, the identity, -1 and {+-1} are built certified.  The
references multiply with intmat.matmul and validate each product (the
sweep, and the closure conftest.reference_subgroup); the inverse
enumerates A; the scalars go through the validating constructor.
"""

import pytest
from conftest import reference_subgroup
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuspcount import discriminant, intmat
from cuspcount.cli import parse_lattice_spec
from cuspcount.discriminant import (
    FiniteQuadraticForm,
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
from cuspcount.errors import LatticeError, NotIsometry
from test_discriminant import consistent_tables

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


def validated_product(a, b) -> FqfIsometry:
    """a after b, by intmat.matmul and the validating constructor."""
    return FqfIsometry(a.form, intmat.matmul(a.matrix, b.matrix))


def reference_double_coset_count(left, ambient, right) -> int:
    visited = set()
    count = 0
    for x in ambient.elements:
        if x in visited:
            continue
        count += 1
        for l in left.elements:
            lx = validated_product(l, x)
            for r in right.elements:
                visited.add(validated_product(lx, r))
    return count


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
            assert fqf_subgroup(form, gens).elements == reference_subgroup(form, gens).elements

    def test_no_product_is_validated(self, monkeypatch):
        form = discriminant_form(parse_lattice_spec("U(2)+U(4)"))
        gens = aut_group(form).elements[1::9]
        validated = []
        init = FqfIsometry.__init__

        def counting(self, *args):
            init(self, *args)
            validated.append(self.matrix)

        monkeypatch.setattr(FqfIsometry, "__init__", counting)
        closure = fqf_subgroup(form, gens)
        monkeypatch.undo()
        assert validated == []
        assert closure.order() > len(gens)
        assert closure.elements == reference_subgroup(form, gens).elements
        for iso in closure.elements:
            assert type(iso) is FqfIsometry
            assert FqfIsometry(form, iso.matrix) == iso  # passes full validation again

    def test_a_corrupt_product_is_caught(self, monkeypatch):
        """A _matmul_mod that gets one product wrong makes the closure
        differ from the reference, which multiplies with intmat.matmul."""
        form = discriminant_form(parse_lattice_spec("U(2)+U(4)"))
        gens = aut_group(form).elements[1::9]
        want = reference_subgroup(form, gens)
        real = discriminant._matmul_mod
        calls = []

        def corrupt(a, b_cols, orders):
            product = real(a, b_cols, orders)
            calls.append(None)
            if len(calls) != 5:
                return product
            return ((product[0][0] + 1) % orders[0],) + product[0][1:], *product[1:]

        monkeypatch.setattr(discriminant, "_matmul_mod", corrupt)
        assert fqf_subgroup(form, gens).elements != want.elements
        assert len(calls) > 5

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
    assert left.elements == reference_subgroup(form, left_gens).elements
    assert right.elements == reference_subgroup(form, right_gens).elements
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


@pytest.mark.parametrize("label", ["U(6)", "U(2)+U(4)", "U(3)+A(2)", "U(2)+U(6)"])
def test_compose_matches_the_validated_product(label):
    elements = aut_group(discriminant_form(parse_lattice_spec(label))).elements
    for i, a in enumerate(elements):
        b = elements[(7 * i + 3) % len(elements)]
        assert a.compose(b) == validated_product(a, b)


def _validated_scalars(form):
    """The identity, -1 and {+-1} through the validating constructor and
    the reference closure."""
    k = form.ngens
    one = FqfIsometry(form, intmat.identity(k))
    minus = FqfIsometry(form, tuple(tuple(-(i == j) for j in range(k)) for i in range(k)))
    return one, minus, reference_subgroup(form, (minus,))


def _assert_scalars_match(form):
    one, minus, pm = _validated_scalars(form)
    assert FqfIsometry.identity(form) == one
    assert FqfIsometry.minus_identity(form) == minus
    assert plus_minus_subgroup(form).elements == pm.elements
    assert trivial_subgroup(form).elements == (one,)
    two_elementary = all(d == 2 for d in form.orders)
    assert plus_minus_subgroup(form).order() == (1 if two_elementary else 2)


def test_scalars_match_their_validated_constructions(corpus_lattices):
    for lattice in corpus_lattices:
        _assert_scalars_match(discriminant_form(lattice))


@pytest.mark.parametrize("label", ["diag(2,-2,-2)", "U(2)+U(2)", "U(2)+D(4)", "U"])
def test_minus_one_is_one_on_two_elementary_forms(label):
    form = discriminant_form(parse_lattice_spec(label))
    assert plus_minus_subgroup(form).order() == 1
    _assert_scalars_match(form)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(consistent_tables())
def test_scalars_match_on_random_forms(tables):
    try:
        form = FiniteQuadraticForm(*tables)
    except LatticeError:  # b has a radical
        assume(False)
    _assert_scalars_match(form)
