"""The O(A, q) search tests b with one product of packed integers, stops the
last candidate list at its first match and reads each block's b and q off
the form's numerator tables; every list, chain level and table is the one
the unpacked search gives.

The references live in conftest: reference_candidates (the scan of every
pool element, through test_kernels.assert_walk_is_the_scan), reference_chain (the chain on (x, pairing row) lists, each
later list narrowed in full before a first completion is taken) and
reference_block_tables (_bn and _qn on the vectors h_i).  The forms are the
corpus, its negated forms, the ten fqf-groups tiers in random bases, U(r)
for r <= 60 and random tables.

The no-carry tests compare the packed b of _narrow and of the lazy last
list with form._bn on every pair of candidates, on forms where the fields
come near their bound: coordinates d_t - 1, table entries near N, k up to 8
(U(2)^4) and N up to 1999.  Five broken searches are caught by name:
- w sized for N^2 instead of k^2 N^3: a field of a product carries into
  the next, and the narrow, lazy-list and field-bound tests fail on
  -U(1999) and the three large tables;
- a dropped `& mask`, in _narrow or in the lazy last list: the fields above
  k-1 leak into the residue mod N, and the narrow or lazy-list test fails
  on every form but U(2)^4, where N = 2 divides 2^w;
- a lazy last list that yields without its b test: the lazy-list test and
  test_search_is_the_reference (its chain levels) fail;
- gen_b with one factor s_i missing, or gen_q with s_i where s_i^2
  belongs: test_block_tables_are_the_reference fails, as does
  test_search_is_the_reference on the two-prime forms, where some s_i > 1.
"""

import functools
import itertools
import operator
import random

import pytest
from conftest import corpus, negated, reference_block_tables, reference_chain
from hypothesis import HealthCheck, assume, given, settings
from test_discriminant import consistent_tables
from test_forward_checking import FQF_GROUPS_TIERS, in_random_basis
from test_kernels import assert_walk_is_the_scan

from cuspcount.cli import parse_lattice_spec
from cuspcount.discriminant import (
    FiniteQuadraticForm,
    _candidates,
    _narrow,
    _place_images,
    _primary_blocks,
    _stabilizer_chain,
    discriminant_form,
)
from cuspcount.errors import LatticeError

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def _forms():
    forms = [discriminant_form(lattice) for lattice in corpus()]
    forms += [negated(form) for form in forms]
    for seed, label in enumerate(FQF_GROUPS_TIERS):
        forms.append(discriminant_form(in_random_basis(parse_lattice_spec(label).gram, seed)))
    return forms + [discriminant_form(parse_lattice_spec(f"U({r})")) for r in range(1, 61)]


FORMS = _forms()


def _assert_search_is_the_reference(form):
    assert_walk_is_the_scan(form)  # on every block and on the whole-group axes
    for block in _primary_blocks(form, form):
        assert (block.gen_b, block.gen_q) == reference_block_tables(form, block)
        assert _stabilizer_chain(form, block) == reference_chain(form, block)


@pytest.mark.parametrize("form", FORMS, ids=lambda form: str(form.orders))
def test_search_is_the_reference(form):
    _assert_search_is_the_reference(form)


@SETTINGS
@given(consistent_tables())
def test_search_is_the_reference_on_random_tables(tables):
    try:
        form = FiniteQuadraticForm(*tables)
    except LatticeError:  # b has a radical
        assume(False)
    _assert_search_is_the_reference(form)


@pytest.mark.parametrize("label", ["U(6)", "U(2)+U(6)", "U(3)+U(6)", "diag(4,-6)"])
def test_block_tables_are_the_reference(label):
    # every block of a two-prime form has some s_i = d_i / p^v > 1
    form = discriminant_form(parse_lattice_spec(label))
    for source in (form, negated(form)):
        blocks = list(_primary_blocks(source, source))
        assert len(blocks) == 2
        for block in blocks:
            assert any(h[i] > 1 for h, i in zip(block.hgens, block.idxs))
            assert (block.gen_b, block.gen_q) == reference_block_tables(source, block)


# --- no carry ---------------------------------------------------------------------


def _large_table_form(orders, seed):
    """A nondegenerate form on the given orders whose b numerators lie in the
    top five residues below each bound d_i d_j / gcd: the largest rows."""
    rng = random.Random(seed)
    k, n = len(orders), orders[-1]
    while True:
        b = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                step = n // min(orders[i], orders[j])  # b(g_i, g_j) N lies in step Z
                b[i][j] = b[j][i] = n - step * rng.randint(1, min(5, orders[i], orders[j]))
        q = [b[i][i] + (n if (b[i][i] * orders[i] ** 2) % (2 * n) else 0) for i in range(k)]
        try:
            return FiniteQuadraticForm._from_numerators(orders, q, b, n)
        except LatticeError:  # b has a radical or q no even lift
            continue


def _edge_axes(form):
    """Per coordinate 0, 1, 2 and d_t - 2, d_t - 1: the largest fields."""
    return [sorted({a % d for a in (0, 1, 2, d - 2, d - 1)}) for d in form.orders]


def _spec(label, negate=False):
    form = discriminant_form(parse_lattice_spec(label))
    return negated(form) if negate else form


def _all_axes(form):
    return [range(d) for d in form.orders]


# label: (form, the axes of its candidates)
NEAR_BOUND = {
    "U(1999)": (lambda: _spec("U(1999)"), _edge_axes),
    "-U(1999)": (lambda: _spec("U(1999)", negate=True), _edge_axes),
    "large (1999,1999)": (lambda: _large_table_form((1999, 1999), 1), _edge_axes),
    "large (3,5991,5991)": (lambda: _large_table_form((3, 5991, 5991), 2), _edge_axes),
    "large (25,25,25)": (lambda: _large_table_form((25, 25, 25), 3), _edge_axes),
    "U(2)^4": (lambda: _spec("U(2)+U(2)+U(2)+U(2)"), _all_axes),
    "-U(7)+U(7)": (lambda: _spec("U(7)+U(7)", negate=True), _edge_axes),
    "-U(2)+U(6)": (lambda: _spec("U(2)+U(6)", negate=True), _all_axes),
}


def _all_candidates(form, axes) -> list:
    """Every element of the product of axes as (x, P(x), R(x)), from the walk."""
    keys = sorted({(form.element_order(x), form._qn(x)) for x in itertools.product(*axes)})
    lists = _candidates(form, axes, [o for o, _ in keys], [q for _, q in keys])
    return [c for pool in lists for c in pool]


@functools.cache
def _near_bound(label):
    build, axes_of = NEAR_BOUND[label]
    form = build()
    cands = _all_candidates(form, axes_of(form))
    assert sorted(c[0] for c in cands) == sorted(itertools.product(*axes_of(form)))
    return form, cands


@pytest.fixture(params=NEAR_BOUND)
def near_bound(request):
    return _near_bound(request.param)


@pytest.mark.parametrize("label", ["-U(1999)", "large (1999,1999)", "large (3,5991,5991)", "large (25,25,25)"])
def test_the_fields_come_near_their_bound(label):
    # the largest field of a product P(c) R(x) is at least k N^3 / 8, and fits
    form, cands = _near_bound(label)
    k, n = form.ngens, form._n
    largest = max(sum(map(operator.mul, c[0], form._pairing(x[0]))) for c in cands for x in cands)
    assert k * n**3 <= 8 * largest < 8 << form._w


def test_narrow_is_the_pairing_near_the_bound(near_bound):
    form, cands = near_bound
    singletons = [[c] for c in cands]
    for x in cands:
        wants = [form._bn(c[0], x[0]) for c in cands]
        assert _narrow(form._pack, singletons, x[2], wants) == singletons


def test_lazy_last_list_is_the_pairing_near_the_bound(near_bound):
    form, cands = near_bound
    for x in cands[:: max(1, len(cands) // 24)]:
        for want in sorted({form._bn(c[0], x[0]) for c in cands}):
            gen_b = [[0, want], [want, 0]]
            got = list(_place_images(form._pack, [[x], cands], gen_b, []))
            assert got == [(x[0], c[0]) for c in cands if form._bn(c[0], x[0]) == want]


def test_the_packing_is_built_on_first_use():
    # most forms are never searched, so validation builds no packed field
    form = discriminant_form(parse_lattice_spec("U(2)+U(6)"))
    fresh = FiniteQuadraticForm(form.orders, form.q_diag, form.b_mat)
    assert not {"_w", "_pack", "_b_packed"} & set(vars(fresh))
    assert (fresh._w, fresh._pack, fresh._b_packed) == (form._w, form._pack, form._b_packed)
    assert {"_w", "_pack", "_b_packed"} <= set(vars(fresh))
