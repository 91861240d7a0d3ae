"""The O(A, q) search prunes by forward checking and forms are built in
integers; every answer is the one the node-by-node checks and the Fraction
construction give.

Each property runs on random tables with |A| <= 64 and on the discriminant
forms of the ten fqf-groups benchmark tiers in random unimodular bases, each
possibly negated.  The references live in conftest: the block search checked
at every node, the full enumeration of each block that the stabilizer chain
replaced, the Fraction tables of a discriminant form and the Fraction
validator of a q/b table.
"""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import (
    corpus,
    negated,
    random_even_lattice,
    random_unimodular,
    reference_form_tables,
    reference_full_group,
    reference_image_assignments,
    reference_validate,
)
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cuspcount import discriminant, intmat
from cuspcount.cli import parse_lattice_spec
from cuspcount.discriminant import (
    FiniteQuadraticForm,
    FqfIsometry,
    _combine,
    _contribution,
    _place_images,
    _prime_factors,
    _p_valuation,
    _span_elements,
    aut_group,
    discriminant_form,
    fqf_isomorphism,
    plus_minus_subgroup,
)
from cuspcount.errors import LatticeError
from cuspcount.lattices import make_lattice
from test_discriminant import consistent_tables
from test_fqf_integer import even_grams, reference_q
from test_fqf_products import TIERS

FQF_GROUPS_TIERS = TIERS[:10]  # TIERS adds U(3)+U(3) to the ten
SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def in_random_basis(gram, seed):
    u = random_unimodular(len(gram), random.Random(seed), 6)
    return make_lattice(intmat.matmul(intmat.matmul(intmat.transpose(u), gram), u))


@st.composite
def form_pairs(draw):
    """(form, partner): a tier's form in two random bases, or a nondegenerate
    table and itself; both negated or neither."""
    if draw(st.booleans()):
        gram = parse_lattice_spec(draw(st.sampled_from(FQF_GROUPS_TIERS))).gram
        seeds = draw(st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)))
        form, partner = (discriminant_form(in_random_basis(gram, s)) for s in seeds)
    else:
        try:
            form = partner = FiniteQuadraticForm(*draw(consistent_tables()))
        except LatticeError:  # b has a radical
            assume(False)
    if draw(st.booleans()):
        form, partner = negated(form), negated(partner)
    return form, partner


class _SetUpSpy:
    """Records the target form and the block set-ups of every p-primary
    search."""

    def __init__(self):
        self.real = discriminant._primary_blocks
        self.calls = []

    def __call__(self, source, target):
        blocks = list(self.real(source, target))
        self.calls.append((target, blocks))
        return iter(blocks)


def _set_ups(run):
    spy = _SetUpSpy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discriminant, "_primary_blocks", spy)
        result = run()
    return spy.calls, result


def _reference_search(target, block):
    pool = itertools.product(*block.axes)
    return list(reference_image_assignments(target, pool, block.gen_orders, block.gen_q, block.gen_b))


@SETTINGS
@given(form_pairs())
def test_search_yields_the_node_checked_sequence(pair):
    form, partner = pair
    calls, witness = _set_ups(lambda: fqf_isomorphism(form, partner))
    ((target, blocks),) = calls
    assert target == partner
    firsts = []
    for block in blocks:
        want = _reference_search(target, block)
        assert list(_place_images(target._pack, block.candidates, block.gen_b, [])) == want
        firsts.append(want[0])  # the forms are isomorphic
    assert witness == _combine([_contribution(b, s, target) for b, s in zip(blocks, firsts)], target.orders)


@SETTINGS
@given(form_pairs())
def test_block_pools_are_the_sorted_spans(pair):
    form = pair[0]
    calls, _ = _set_ups(lambda: aut_group(form))
    ((_, blocks),) = calls
    pools = [list(itertools.product(*block.axes)) for block in blocks]
    orders = form.orders
    expected = []
    for p in _prime_factors(form.exponent()):
        hgens = []
        for i, d in enumerate(orders):
            if d % p == 0:
                h = [0] * len(orders)
                h[i] = d // p ** _p_valuation(d, p)
                hgens.append(tuple(h))
        expected.append(sorted(_span_elements(form, hgens)))
    assert pools == expected


@SETTINGS
@given(form_pairs())
def test_chain_elements_are_the_full_enumeration(pair):
    form = pair[0]
    group = aut_group(form)
    want = reference_full_group(form)
    assert group.order() == len(want)
    assert [iso.matrix for iso in group.elements] == want


@SETTINGS
@given(form_pairs())
def test_q_from_the_pairing_row(pair):
    form = pair[0]
    n, q_diag, b_mat = form.exponent(), form.q_diag, form.b_mat
    for x in form.elements():
        qn = form._qn_paired(x, form._pairing(x))
        assert qn == reference_q(q_diag, b_mat, x) * n
        assert form._qn(x) == qn


@pytest.mark.parametrize("lattice", corpus(), ids=repr)
def test_discriminant_form_matches_the_fraction_tables_on_the_corpus(lattice):
    form = discriminant_form(lattice)
    assert (form.orders, form.q_diag, form.b_mat) == reference_form_tables(lattice)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**16), st.integers(1, 4))
def test_discriminant_form_matches_the_fraction_tables_on_random_lattices(seed, rank):
    lattice = random_even_lattice(random.Random(seed), rank, entry_bound=8)
    form = discriminant_form(lattice)
    assert (form.orders, form.q_diag, form.b_mat) == reference_form_tables(lattice)


TIER_GRAMS = st.sampled_from(FQF_GROUPS_TIERS).map(lambda label: parse_lattice_spec(label).gram)


@SETTINGS
@given(st.one_of(even_grams(), TIER_GRAMS), st.integers(0, 2**16))
def test_discriminant_form_matches_the_fraction_tables_in_random_bases(gram, seed):
    lattice = in_random_basis(gram, seed)
    form = discriminant_form(lattice)
    assert (form.orders, form.q_diag, form.b_mat) == reference_form_tables(lattice)


def _fractions(draw, bound):
    den = draw(st.integers(1, 2 * bound))
    return Fraction(draw(st.integers(-den, 3 * den)), den)


@st.composite
def tables(draw):
    """Consistent tables, and tables broken in one place: an entry with any
    denominator and any sign or size, b made asymmetric, a short row or q,
    or orders that are not a chain of factors > 1."""
    orders, q_diag, b_mat = draw(consistent_tables())
    q_diag, b_mat = list(q_diag), [list(row) for row in b_mat]
    k, n = len(orders), orders[-1]
    edit = draw(st.sampled_from(("none", "q", "b", "b-one-side", "short-row", "short-q", "orders")))
    i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    if edit == "q":
        q_diag[i] = _fractions(draw, n)
    elif edit == "b":
        b_mat[i][j] = b_mat[j][i] = _fractions(draw, n)
    elif edit == "b-one-side":
        b_mat[i][j] = _fractions(draw, n)
    elif edit == "short-row":
        b_mat[i] = b_mat[i][: draw(st.integers(0, k - 1))]
    elif edit == "short-q":
        q_diag = q_diag[:i]
    elif edit == "orders":
        orders = draw(st.sampled_from([(1,) + orders, orders + (n + 1,), tuple(reversed(orders)) + (1,)]))
    return orders, tuple(q_diag), tuple(map(tuple, b_mat))


def _outcome(build, table):
    try:
        return build(*table)
    except (LatticeError, IndexError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tables())
def test_constructor_accepts_and_rejects_as_the_fraction_validator(table):
    want = _outcome(reference_validate, table)
    got = _outcome(FiniteQuadraticForm, table)
    if isinstance(got, FiniteQuadraticForm):
        got = (got._q, got._b)
    assert got == want


def test_constructor_tables_cover_each_outcome():
    """The drawn tables reach acceptance, each of the ten LatticeError
    messages and the IndexError of a row shorter than an earlier index."""
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(tables())
    def collect(table):
        got = _outcome(reference_validate, table)
        seen.add(got[1] if got[0] in (LatticeError, IndexError) else "accepted")

    collect()
    assert "accepted" in seen and "tuple index out of range" in seen
    assert len(seen) == 12, seen


def test_membership_compares_the_form():
    # two forms on Z/2 + Z/2 whose identities share a matrix
    hyperbolic = discriminant_form(parse_lattice_spec("U(2)"))
    split = discriminant_form(parse_lattice_spec("diag(2,-2)"))
    assert hyperbolic.orders == split.orders and hyperbolic != split
    assert FqfIsometry.identity(hyperbolic) in plus_minus_subgroup(hyperbolic)
    assert FqfIsometry.identity(split) not in plus_minus_subgroup(hyperbolic)
    assert not plus_minus_subgroup(split).is_subgroup_of(aut_group(hyperbolic))
