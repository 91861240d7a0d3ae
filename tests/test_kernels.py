"""The exact kernels under verify-ur take each product once, and give what
the plain products give.

_candidates walks the coordinate ranges of a block with running packed
coordinates P, a packed pairing row R, a q numerator and an element order;
its lists, read back field by field (conftest.unpacked), equal the scan of
every pool element (conftest.reference_candidates), element for element and
in order.
restricted_gram takes each image G c once and equals C^T G C.
_DiscData.class_of reads U G once and equals the class through G w and
U (G w / d); a w / d outside the dual lattice still raises.

Three broken walks are caught by name below: a dropped high-q shift (the
N a term of a generator with q >= N), a stale prefix pairing row (the cross
term of two coupled generators left out of q) and max in place of lcm for
the element order (seen only where one element mixes coprime orders, as on
the whole-group axes of U(6)).
"""

import itertools
import random

import pytest
from conftest import corpus, negated, random_even_lattice, reference_candidates, reference_class_of, unpacked
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cuspcount import intmat
from cuspcount.cli import parse_lattice_spec
from cuspcount.discriminant import (
    FiniteQuadraticForm,
    _candidates,
    _disc_data,
    _primary_blocks,
    discriminant_form,
    isotropic_elements,
)
from cuspcount.errors import LatticeError
from cuspcount.lattices import make_lattice, restricted_gram
from test_discriminant import consistent_tables
from test_fqf_integer import even_grams

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
# U(2)+U(4) mixes 2-power orders in one block; diag(-2, ...) and U(3)+A(2)
# have generators with q >= N
EXTRA_SPECS = ("U(2)+U(4)", "U(2)+U(6)", "U(6)+U(6)", "diag(-2,-2,-2)", "U(3)+A(2)", "U(4)+diag(-2,-2)")


def _forms():
    forms = [discriminant_form(lattice) for lattice in corpus()]
    forms += [discriminant_form(parse_lattice_spec(spec)) for spec in EXTRA_SPECS]
    return forms + [negated(form) for form in forms]


FORMS = _forms()


def with_coordinates(lists) -> list:
    """Reference (x, pairing row) lists as (x, coordinates, pairing row)."""
    return [[(x, x, row) for x, row in pool] for pool in lists]


def assert_walk_is_the_scan(form):
    for block in _primary_blocks(form, form):
        pool = itertools.product(*block.axes)
        want = reference_candidates(form, pool, block.gen_orders, block.gen_q)
        got = _candidates(form, block.axes, block.gen_orders, block.gen_q)
        assert unpacked(form, got) == with_coordinates(want)
    axes = [range(d) for d in form.orders]
    want = reference_candidates(form, sorted(form.elements()), form.orders, form._q)
    got = _candidates(form, axes, form.orders, form._q)  # one list per generator of A
    assert unpacked(form, got) == with_coordinates(want)


def test_the_forms_have_high_q_generators_and_mixed_orders():
    assert sum(bool(form._q_high) for form in FORMS) >= 10
    assert any(len(set(form.orders)) > 1 and form.exponent() == 4 for form in FORMS)


@pytest.mark.parametrize("form", FORMS, ids=lambda form: str(form.orders))
def test_walk_lists_are_the_pool_scan(form):
    assert_walk_is_the_scan(form)


@SETTINGS
@given(consistent_tables())
def test_walk_lists_are_the_pool_scan_on_random_tables(tables):
    try:
        form = FiniteQuadraticForm(*tables)
    except LatticeError:  # b has a radical
        assume(False)
    assert_walk_is_the_scan(form)


@pytest.mark.parametrize("form", FORMS, ids=lambda form: str(form.orders))
def test_isotropic_elements_are_the_sorted_filter(form):
    for d in range(1, form.exponent() + 1):
        want = sorted(x for x in form.elements() if form.element_order(x) == d and form._qn(x) == 0)
        assert isotropic_elements(form, d) == want


def test_trivial_form_walk():
    form = FiniteQuadraticForm.trivial()
    assert _candidates(form, [], (), ()) == []
    assert isotropic_elements(form, 1) == [()]


def test_a_high_q_generator_shifts_q():
    # Z/2 with q = 3/2: N q = 3 >= N = 2, so q(g) is b(g, g) + 1 mod 2
    form = discriminant_form(parse_lattice_spec("diag(-2)"))
    assert form._q_high == (0,)
    assert _candidates(form, [range(2)], (2,), (3,)) == [[((1,), 1, 1)]]


def test_the_prefix_row_carries_cross_terms():
    # U(2): q(g_1 + g_2) = 2 b(g_1, g_2) = 1, which a stale prefix row reads as 0
    form = discriminant_form(parse_lattice_spec("U(2)"))
    assert isotropic_elements(form, 2) == [(0, 1), (1, 0)]
    (one_one,) = _candidates(form, [range(2), range(2)], (2,), (form._qn((1, 1)),))
    assert unpacked(form, [one_one]) == [[((1, 1), (1, 1), form._pairing((1, 1)))]]


def test_order_is_the_lcm():
    # (2, 3) in (Z/6)^2 has order lcm(3, 2) = 6, not max(3, 2)
    form = discriminant_form(parse_lattice_spec("U(6)"))
    assert (2, 3) in isotropic_elements(form, 6)
    axes = [range(6), range(6)]
    want = reference_candidates(form, sorted(form.elements()), form.orders, form._q)
    assert unpacked(form, _candidates(form, axes, form.orders, form._q)) == with_coordinates(want)


# --- restricted_gram ------------------------------------------------------------


@st.composite
def gram_and_columns(draw):
    gram = draw(even_grams())
    n = len(gram)
    k = draw(st.integers(0, n + 1))
    entries = st.integers(-9, 9)
    cols = tuple(tuple(draw(entries) for _ in range(k)) for _ in range(n))
    return make_lattice(gram), cols


@SETTINGS
@given(gram_and_columns())
def test_restricted_gram_is_the_triple_product(pair):
    lattice, cols = pair
    if not cols[0]:  # k = 0
        assert restricted_gram(lattice, cols) == restricted_gram(lattice, ()) == ()
        return
    want = intmat.matmul(intmat.matmul(intmat.transpose(cols), lattice.gram), cols)
    assert restricted_gram(lattice, cols) == want


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 7) for k in range(n + 1)])
@settings(SETTINGS, max_examples=10)
@given(data=st.data())
def test_restricted_gram_mirrors_one_triangle(n, k, data):
    """restricted_gram computes the triangle j >= i and mirrors it; the whole
    table is still C^T (G C), for every rank up to 6 and every k <= n."""
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * data.draw(st.integers(-3, 3))
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = data.draw(st.integers(-6, 6))
    assume(intmat.det(gram) != 0)
    lattice = make_lattice(gram)
    cols = tuple(tuple(data.draw(st.integers(-9, 9)) for _ in range(k)) for _ in range(n))
    got = restricted_gram(lattice, cols)
    if k == 0:
        assert got == ()
    else:
        assert got == intmat.matmul(intmat.transpose(cols), intmat.matmul(lattice.gram, cols))


def test_restricted_gram_checks_the_row_count():
    lattice = parse_lattice_spec("U+U")
    with pytest.raises(ValueError, match="shape mismatch"):
        restricted_gram(lattice, ((1,), (0,), (0,)))


# --- _DiscData.class_of ---------------------------------------------------------


def _class_or_error(fn, data, w, d):
    try:
        return fn(data, w, d)
    except LatticeError:
        return LatticeError


def test_class_of_is_the_two_product_class():
    rng = random.Random(23)
    lattices = corpus() + [random_even_lattice(rng, rng.randint(1, 4)) for _ in range(40)]
    raised = matched = 0
    for lattice in lattices:
        data = _disc_data(lattice)
        n, dkeep = lattice.rank, [data.dvec[i] for i in data.keep]
        exponent = dkeep[-1] if dkeep else 1
        for _ in range(12):
            d = exponent * rng.randint(1, 3)
            # w / d = sum_a c_a v_a / d_a + z lies in the dual lattice
            w = [d * rng.randint(-3, 3) for _ in range(n)]
            for idx, da in zip(data.keep, dkeep):
                c = rng.randint(-5, 5) * (d // da)
                w = [wi + c * row[idx] for wi, row in zip(w, data.v)]
            assert data.class_of(tuple(w), d) == reference_class_of(data, tuple(w), d)
            matched += 1
            w = tuple(rng.randint(-6, 6) for _ in range(n))
            d = rng.randint(1, 2 * exponent + 1)
            want = _class_or_error(reference_class_of, data, w, d)
            assert _class_or_error(type(data).class_of, data, w, d) == want
            raised += want is LatticeError
    assert raised > 50 and matched > 500


def test_class_of_rejects_a_vector_outside_the_dual():
    data = _disc_data(parse_lattice_spec("U(3)"))
    with pytest.raises(LatticeError, match="not in the dual lattice"):
        data.class_of((1, 1), 2)  # G w = (3, 3) is not 0 mod 2
    assert data.class_of((1, 1), 3) == reference_class_of(data, (1, 1), 3)
