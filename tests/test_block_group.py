"""aut_group's primary route keeps O(A, q) as a stabilizer chain of each
p-primary block.

Its order, membership and containment are read from the chains, and its
elements are built as products and stitched on first read.  These tests
compare that group with its materialised copy and with the direct route,
check that the counting paths of generic models build no element, and check
the direct mu_1 lift test against the induced map it replaced.
"""

import contextlib
import io
import random
from math import gcd

import pytest
from conftest import U, corpus, negated, random_unimodular
from test_aut_certified import _patch_first_level
from test_fqf_products import SCALAR_RICH, SMALL, TIERS, scalar_isometries

from cuspcount import counting, discriminant, intmat
from cuspcount.cli import main, parse_lattice_spec
from cuspcount.counting import K3Model, count_fm, count_fm_elliptic, mu1_fiber_ur, ur_example
from cuspcount.discriminant import (
    FqfIsometry,
    FqfSubgroup,
    _disc_data,
    _double_coset_sweep,
    _is_central,
    aut_group,
    discriminant_form,
    double_coset_count,
    fqf_subgroup,
    natural_map,
    plus_minus_subgroup,
    transport_subgroup,
    trivial_subgroup,
)
from cuspcount.lattices import LatticeIsometry, direct_sum, make_lattice, named_lattice, signature

# the ten fqf-groups benchmark tiers (TIERS ends with U(3)+U(3)), the
# |A| <= 64 forms of the random-subgroup tests, and U(r) for r <= 60
LABELS = tuple(dict.fromkeys(TIERS[:10] + SMALL + SCALAR_RICH))
FORMS = [(label, discriminant_form(parse_lattice_spec(label))) for label in LABELS] + [
    (f"U({r})", discriminant_form(U(r))) for r in range(1, 61)
]


def _other_form(form):
    """A form on the same group but not equal to form, if there is one."""
    other = negated(form)
    return other if other != form else None


@pytest.mark.parametrize("label,form", FORMS, ids=[label for label, _ in FORMS])
def test_order_and_membership_match_the_materialised_group(label, form):
    lazy = aut_group(form)
    direct = aut_group(form, method="direct")
    pm, one = plus_minus_subgroup(form), trivial_subgroup(form)
    order = lazy.order()
    assert all(iso in lazy for iso in direct.elements)
    assert pm.is_subgroup_of(lazy) and one.is_subgroup_of(lazy)
    assert lazy.is_subgroup_of(direct) and direct.is_subgroup_of(lazy)
    assert lazy.is_subgroup_of(pm) is (pm.order() == order)
    other = _other_form(form)
    if other is not None:
        assert FqfIsometry.identity(other) not in lazy
        assert not plus_minus_subgroup(other).is_subgroup_of(lazy)
    assert "elements" not in vars(lazy)  # nothing above stitched

    materialised = FqfSubgroup(form, lazy.elements)
    assert order == len(lazy.elements) == direct.order() == materialised.order()
    assert lazy.elements == direct.elements
    assert lazy == materialised == direct and hash(lazy) == hash(direct)
    for sub in (pm, one, lazy, direct):
        assert sub.is_subgroup_of(lazy) is sub.is_subgroup_of(materialised)
        assert lazy.is_subgroup_of(sub) is materialised.is_subgroup_of(sub)
    if other is not None:
        stranger = FqfIsometry.identity(other)
        assert (stranger in lazy) is (stranger in materialised)


@pytest.mark.parametrize("label", LABELS)
def test_order_route_matches_the_sweep_on_the_materialised_group(label):
    form = discriminant_form(parse_lattice_spec(label))
    lazy = aut_group(form)
    materialised = FqfSubgroup(form, lazy.elements)
    scalars = fqf_subgroup(form, scalar_isometries(form))
    centrals = [trivial_subgroup(form), plus_minus_subgroup(form), scalars]
    others = centrals + [lazy, fqf_subgroup(form, lazy.elements[1 :: max(1, lazy.order() // 3)])]
    for h in centrals:
        assert _is_central(h)
        for k in others:
            k_mat = materialised if k is lazy else k
            want = _double_coset_sweep(h, materialised, k_mat)
            assert double_coset_count(h, lazy, k) == want
            assert double_coset_count(k, lazy, h) == _double_coset_sweep(k_mat, materialised, h)


@pytest.mark.parametrize("label", ["U(6)", "U(2)+U(6)", "U(2)+U(4)"])
def test_dropping_a_transversal_element_changes_the_order(label, monkeypatch):
    form = discriminant_form(parse_lattice_spec(label))
    want = aut_group(form, method="direct").order()
    assert aut_group(form).order() == want
    _patch_first_level(monkeypatch, lambda level: level[:-1])
    assert aut_group(form).order() != want


@pytest.fixture
def stitches(monkeypatch):
    """The names of the element-building steps called: _products, per block,
    and _stitch."""
    calls = []
    for name in ("_products", "_stitch"):
        real = getattr(discriminant, name)

        def spy(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(discriminant, name, spy)
    return calls


HYPERBOLIC = [lat for lat in corpus() if signature(lat) == (1, lat.rank - 1)] + [
    parse_lattice_spec(spec)
    for spec in (
        "U+diag(-2,-2)",
        "U+A(2)",
        "U(2)+diag(-2,-2)",
        "U+diag(-2,-4)",
        "U(2)+A(2)",
        "U+diag(-2,-6)",
        "U+diag(-2,-2,-2)",
        "U+A(3)",
        "U(6)+diag(-6,-6)",
    )
]


def test_generic_counts_build_no_element(stitches):
    unique = 0
    for lattice in HYPERBOLIC:
        model = K3Model.generic(lattice)
        count_fm(model)
        count_fm_elliptic(model, height_bound=2)
        unique += counting.nikulin_unique(lattice)
    for r in range(3, 31):
        assert ur_example(r).passed
    assert stitches == []
    assert unique >= 8  # members whose r(O(M)) is the full group


def test_aut_command_still_stitches(stitches):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["aut", "U(6)"]) == 0
    assert stitches == ["_products", "_products", "_stitch"]  # two primes


def test_transported_full_group_is_the_target_group_without_stitching(stitches):
    lattice = parse_lattice_spec("U(2)+U(6)")
    source = discriminant_form(lattice)
    rng = random.Random(3)
    moved_forms = 0
    for _ in range(4):
        u = random_unimodular(lattice.rank, rng)
        gram = intmat.matmul(intmat.matmul(intmat.transpose(u), lattice.gram), u)
        target = discriminant_form(make_lattice(gram))
        moved = transport_subgroup(aut_group(source), target)
        assert moved.order() == aut_group(target).order()
        assert FqfIsometry.identity(target) in moved
        moved_forms += target != source
    assert stitches == []
    assert moved_forms >= 2
    assert moved.elements == aut_group(target).elements  # reading checks the moved generators


@pytest.mark.parametrize("r", range(3, 61))
def test_mu1_class_check_matches_the_induced_map(r):
    ambient = direct_sum(named_lattice("U", (r,)), named_lattice("U"))
    data = _disc_data(ambient)
    form = data.form
    class_l = data.class_of((1, 0, 0, 0), r)
    class_m = data.class_of((0, 1, 0, 0), r)
    for beta in range(1, r):
        if gcd(beta, r) != 1:
            continue
        rows, (on_l, on_m) = counting._ur_unit_lift(r, beta)
        # the images of l, m, e, f as the docstring of mu1_fiber_ur gives them
        alpha = 0 if beta == 1 else 1
        _, delta, gamma = intmat.xgcd(beta, r * alpha)
        cols = [(delta, 0, 0, -r * gamma), (0, beta, -r * alpha, 0), (0, gamma, delta, 0), (alpha, 0, 0, beta)]
        assert rows == intmat.from_columns(cols)
        lift = LatticeIsometry(ambient, rows)
        induced = natural_map(ambient, lift)  # the oracle
        assert data.class_of(cols[0], r) == induced.apply(class_l) == form.scale(on_l, class_l)
        assert data.class_of(cols[1], r) == induced.apply(class_m) == form.scale(on_m, class_m)
    assert mu1_fiber_ur(r).exact


def _mutate_action(monkeypatch, edit):
    real = counting._ur_unit_lift

    def mutant(r, beta):
        cols, action = real(r, beta)
        return cols, edit(*action)

    monkeypatch.setattr(counting, "_ur_unit_lift", mutant)


@pytest.mark.parametrize("r", range(3, 61))
def test_mu1_check_catches_a_negated_delta(r, monkeypatch):
    _mutate_action(monkeypatch, lambda delta, beta: (-delta, beta))
    with pytest.raises(AssertionError, match="l/r"):
        mu1_fiber_ur(r)


@pytest.mark.parametrize("r", range(3, 61))
def test_mu1_check_catches_swapped_delta_and_beta(r, monkeypatch):
    # delta is beta^-1 mod r, so the swap shows exactly when some unit
    # is not its own inverse
    _mutate_action(monkeypatch, lambda delta, beta: (beta, delta))
    if all(beta * beta % r == 1 for beta in range(1, r) if gcd(beta, r) == 1):
        assert mu1_fiber_ur(r).exact
    else:
        with pytest.raises(AssertionError, match="l/r"):
            mu1_fiber_ur(r)
