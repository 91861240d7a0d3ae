from fractions import Fraction

import pytest
from conftest import U, diag, reference_full_group, sums

from cuspcount import counting
from cuspcount.counting import (
    K3Model,
    count_cusps_zero_dim,
    count_fm,
    count_fm_elliptic,
    count_fm_elliptic_sec,
    euler_phi,
    mu1_fiber_ur,
    num_prime_factors,
    route_crosscheck,
    ur_example,
)
from cuspcount.discriminant import (
    _disc_data,
    aut_group,
    discriminant_form,
    fqf_subgroup,
    plus_minus_subgroup,
    trivial_subgroup,
)
from cuspcount.errors import BadParams, BudgetExceeded, HypothesisFails


def _q_rank1_oracle(two_k, c):
    # q(c*g) for <-2k>: dual generator e/(2k), q = -c^2/(2k) mod 2
    return (Fraction(-c * c, two_k)) % 2


class TestModel:
    def test_generic_group(self):
        model = K3Model.generic(U(3))
        assert model.hodge_image.order() == 2

    def test_generic_on_two_torsion(self):
        # -id is the identity when the exponent divides 2
        model = K3Model.generic(U(2))
        assert model.hodge_image.order() == 1

    def test_rejects_wrong_signature(self):
        with pytest.raises(BadParams):
            K3Model.generic(diag(-2, -4))

    def test_full_group_model(self):
        form = discriminant_form(U(3))
        model = K3Model(U(3), aut_group(form))
        assert model.hodge_image.order() == 4


class TestCuspCounts:
    def test_no_order_two_isotropic(self):
        model = K3Model.generic(sums(U(1), diag(-2)))
        assert count_cusps_zero_dim(model, 2).value == 0

    def test_u2_two_classes(self):
        model = K3Model.generic(U(2))
        report = count_cusps_zero_dim(model, 2)
        assert report.value == 2
        assert report.route == "orbit_on_A"
        assert report.exact

    def test_divisor_one_always_single(self, corpus_lattices):
        from cuspcount.lattices import signature

        for lattice in corpus_lattices:
            p, q = signature(lattice)
            if p != 1 or q != lattice.rank - 1:
                continue
            model = K3Model.generic(lattice)
            assert count_cusps_zero_dim(model, 1).value == 1

    def test_rank1_oracle_agreement(self):
        # exhaustive scan over Z/2k with the first-principles q formula
        for k in (1, 2, 3, 4):
            ns = sums(U(1), diag(-2 * k))
            model = K3Model.generic(ns)
            for d in (2, 3, 4, 6):
                if (2 * k) % d:
                    continue
                expected_elements = [
                    c
                    for c in range(2 * k)
                    if (2 * k) // __import__("math").gcd(c, 2 * k) == d
                    and _q_rank1_oracle(2 * k, c) == 0
                ]
                # orbit under negation
                seen = set()
                expected = 0
                for c in expected_elements:
                    if c in seen:
                        continue
                    seen.update({c, (-c) % (2 * k)})
                    expected += 1
                assert count_cusps_zero_dim(model, d).value == expected


class TestCountFm:
    @pytest.mark.parametrize("r,expected", [(3, 1), (4, 1), (5, 2), (6, 2), (12, 4)])
    def test_twisted_planes(self, r, expected):
        report = count_fm(K3Model.generic(U(r)))
        assert report.value == expected
        assert report.exact
        assert report.route == "double_coset"

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_elliptic_with_section_is_unique(self, k):
        report = count_fm(K3Model.generic(sums(U(1), diag(-2 * k))))
        assert report.value == 1
        assert report.exact

    def test_always_at_least_one(self, corpus_lattices):
        from cuspcount.lattices import signature

        for lattice in corpus_lattices:
            p, q = signature(lattice)
            if p != 1 or q != lattice.rank - 1:
                continue
            assert count_fm(K3Model.generic(lattice)).value >= 1


class TestCountFmElliptic:
    @pytest.mark.parametrize("r", [3, 4, 5, 6, 12])
    def test_twisted_planes(self, r):
        report = count_fm_elliptic(K3Model.generic(U(r)))
        expected = (2 ** num_prime_factors(r) * euler_phi(r)) // 2
        assert report.value == expected
        assert report.exact

    def test_unimodular_plane(self):
        report = count_fm_elliptic(K3Model.generic(U(1)))
        assert report.value == 1
        assert report.exact

    def test_full_hodge_group_collapses(self):
        form = discriminant_form(U(3))
        model = K3Model(U(3), aut_group(form))
        assert count_fm_elliptic(model).value == 1

    def test_monotone_in_window(self):
        # inexact counts are lower bounds: enlarging the window never shrinks
        for ns in (sums(U(1), diag(-8)), sums(U(1), diag(-2, -2))):
            model = K3Model.generic(ns)
            small = count_fm_elliptic(model, height_bound=1)
            big = count_fm_elliptic(model, height_bound=3)
            assert not small.exact
            assert small.value <= big.value


class TestCountFmEllipticSec:
    @pytest.mark.parametrize("k,expected", [(1, 1), (2, 1), (3, 1)])
    def test_rank_one_quotients(self, k, expected):
        report = count_fm_elliptic_sec(K3Model.generic(sums(U(1), diag(-2 * k))))
        assert report.value == expected
        assert report.exact

    def test_rank_one_quotient_oracle(self):
        # brute-force double-coset oracle over O(Z/2k) for larger k
        import math

        for k in (4, 6, 12):
            two_k = 2 * k
            units = [
                u
                for u in range(1, two_k)
                if math.gcd(u, two_k) == 1
                and _q_rank1_oracle(two_k, u) == _q_rank1_oracle(two_k, 1)
            ]
            # double cosets {+-1} \ O / {+-1} in an abelian group: unit pairs
            seen = set()
            expected = 0
            for u in units:
                if u in seen:
                    continue
                seen.update({u, (-u) % two_k})
                expected += 1
            report = count_fm_elliptic_sec(K3Model.generic(sums(U(1), diag(-two_k))))
            assert report.value == expected

    def test_unimodular_plane(self):
        report = count_fm_elliptic_sec(K3Model.generic(U(1)))
        assert report.value == 1

    def test_no_section_class(self):
        report = count_fm_elliptic_sec(K3Model.generic(U(2)))
        assert report.value == 0
        assert not report.exact
        assert "NoSectionClass" in report.window_note


class TestMu1Fiber:
    @pytest.mark.parametrize("r,expected", [(3, 1), (5, 2), (12, 2)])
    def test_values(self, r, expected):
        report = mu1_fiber_ur(r)
        assert report.value == expected
        assert report.route == "ur_closed_form"

    def test_rejects_small_r(self):
        with pytest.raises(BadParams):
            mu1_fiber_ur(2)


class TestRouteCrosscheck:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rank3_models(self, k):
        result = route_crosscheck(K3Model.generic(sums(U(1), diag(-2 * k))))
        assert result.passed
        assert dict(result.cusp_counts)[1] == 1

    def test_u_minus_two_all_higher_divisors_empty(self):
        result = route_crosscheck(K3Model.generic(sums(U(1), diag(-2))))
        assert dict(result.cusp_counts) == {1: 1, 2: 0}

    def test_hypothesis_fails(self):
        with pytest.raises(HypothesisFails):
            route_crosscheck(K3Model.generic(U(2)))


class TestUrExample:
    @pytest.mark.parametrize(
        "r,values",
        [
            (3, (1, 2, 1, 2)),
            (12, (4, 8, 2, 4)),
            (30, (16, 32, 4, 8)),
        ],
    )
    def test_frozen_values(self, r, values):
        report = ur_example(r)
        assert report.passed
        assert (
            report.fm.value,
            report.fm_ell.value,
            report.mu1.value,
            report.cusps_one_dim,
        ) == values
        assert report.one_dim_distinct
        assert report.genus_singleton

    def test_one_dim_distinct_matches_subgroup_comparison(self):
        # ur_example tests only whether iso(l/r) lies in <m/r>.  The oracle
        # is the comparison it made before: iso(<l/r>) == <m/r> as sets.
        # Both are checked on every element of O(A), which holds the swap
        # of l and m, and the verdict on the generic group is compared.
        for r in range(3, 61):
            form = discriminant_form(U(r))
            data = _disc_data(U(r))
            class_l, class_m = data.class_of((1, 0), r), data.class_of((0, 1), r)
            sub_l = frozenset(form.scale(c, class_l) for c in range(r))
            sub_m = frozenset(form.scale(c, class_m) for c in range(r))
            swaps = {
                iso: frozenset(iso.apply(x) for x in sub_l) == sub_m
                for iso in aut_group(form).elements
            }
            assert any(swaps.values())
            for iso, swapped in swaps.items():
                assert (iso.apply(class_l) in sub_m) == swapped
            generic = plus_minus_subgroup(form).elements
            assert ur_example(r).one_dim_distinct == (not any(swaps[iso] for iso in generic))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            ur_example(101, budget=100)

    def test_rejects_small_r(self):
        with pytest.raises(BadParams):
            ur_example(2)


class TestAutOrderClaim:
    def test_product_equals_the_reference_for_all_r_up_to_30(self):
        # 2^tau(r) phi(r), via the stabilizer chains and by the full
        # enumeration of each block, for every twisted plane up to r = 30
        for r in range(2, 31):
            form = discriminant_form(U(r))
            primary = aut_group(form)
            expected = 2 ** num_prime_factors(r) * euler_phi(r)
            assert primary.order() == expected
            assert [iso.matrix for iso in primary.elements] == reference_full_group(form)

    def test_ur_example_every_r_up_to_30(self):
        for r in range(3, 31):
            assert ur_example(r).passed


class TestUserInputs:
    def test_user_generators_attested(self):
        # rank 3 with three generators: no built-in route, caller supplies O(M)
        from cuspcount.counting import OMGenerators
        from cuspcount.lattices import LatticeIsometry

        ns = sums(U(2), diag(-2))
        model = K3Model.generic(ns)
        form = discriminant_form(ns)
        gens = OMGenerators((LatticeIsometry.minus_identity(ns),), complete=True)
        report = count_fm(model, gens={ns: gens})
        # -id acts trivially on the 2-torsion form, so the right factor is
        # trivial and the count is the full coset count |O(A)| (attested)
        assert report.value == aut_group(form).order()
        assert not report.exact  # the genus list itself is uncertified at rank 3

    def test_user_generators_unattested_clamp(self):
        from cuspcount.counting import OMGenerators
        from cuspcount.lattices import LatticeIsometry

        ns = sums(U(2), diag(-2))
        model = K3Model.generic(ns)
        gens = OMGenerators((LatticeIsometry.minus_identity(ns),), complete=False)
        report = count_fm(model, gens={ns: gens})
        assert report.value == 1  # certified minimum per genus class
        assert not report.exact

    def test_user_orbit_data(self):
        from cuspcount.counting import IsotropicOrbitDatum

        ns = U(3)
        model = K3Model.generic(ns)
        form = discriminant_form(ns)
        datum = IsotropicOrbitDatum((1, 0), trivial_subgroup(form), True)
        report = count_fm_elliptic(model, orbit_data={ns: (datum,)})
        assert report.value == count_fm_elliptic(model).value

    def test_orbit_data_outside_genus_rejected(self):
        from cuspcount.counting import IsotropicOrbitDatum
        from cuspcount.errors import IncompleteInputs

        ns = U(3)
        model = K3Model.generic(ns)
        foreign = U(5)
        datum = IsotropicOrbitDatum(
            (1, 0), trivial_subgroup(discriminant_form(foreign)), True
        )
        with pytest.raises(IncompleteInputs):
            count_fm_elliptic(model, orbit_data={foreign: (datum,)})


class TestConjugationInvariance:
    def test_orbit_counts_stable_under_conjugate_hodge(self):
        # replacing the symmetry group by a conjugate never changes counts
        ns = U(5)
        form = discriminant_form(ns)
        full = aut_group(form)
        base = plus_minus_subgroup(form)
        for conj in list(full.elements)[:6]:
            moved = fqf_subgroup(
                form,
                tuple(conj.compose(g).compose(conj.inverse()) for g in base.elements),
            )
            model = K3Model(ns, moved)
            for d in (1, 5):
                assert (
                    count_cusps_zero_dim(model, d).value
                    == count_cusps_zero_dim(K3Model.generic(ns), d).value
                )


class TestMoveSubgroup:
    """Each branch of the subgroup transport.  The source is A of
    diag(6, -10); the target is the same lattice in the basis (e1, e1 + e2),
    whose discriminant form is isomorphic but written differently."""

    @staticmethod
    def forms():
        from cuspcount.lattices import make_lattice

        source = discriminant_form(diag(6, -10))
        target = discriminant_form(make_lattice(((6, 6), (6, -4))))
        assert source != target and source.orders == target.orders
        return source, target

    @staticmethod
    def elements(sub):
        return {iso.matrix for iso in sub.elements}

    def test_same_form(self):
        from cuspcount.discriminant import transport_subgroup

        source, _ = self.forms()
        sub = aut_group(source)
        assert transport_subgroup(sub, source) is sub

    def test_order_one(self):
        from cuspcount.discriminant import transport_subgroup

        source, target = self.forms()
        moved = transport_subgroup(trivial_subgroup(source), target)
        assert moved.form == target
        assert moved.order() == 1

    def test_plus_minus(self):
        from cuspcount.discriminant import transport_subgroup

        source, target = self.forms()
        moved = transport_subgroup(plus_minus_subgroup(source), target)
        assert moved.form == target
        assert self.elements(moved) == self.elements(plus_minus_subgroup(target))

    def test_scalar_subgroup_moves_as_itself(self, monkeypatch):
        from cuspcount import discriminant
        from cuspcount.discriminant import FqfIsometry, transport_subgroup

        source, target = self.forms()
        # 11 and 19 generate the scalars {1, 11, 19, 29} on Z/2 + Z/30
        scalars = fqf_subgroup(source, (FqfIsometry(source, ((1, 0), (0, c))) for c in (11, 19)))
        assert scalars.order() == 4

        def no_search(*args):
            raise AssertionError("a scalar subgroup needed an isomorphism search")

        monkeypatch.setattr(discriminant, "fqf_isomorphism", no_search)
        moved = transport_subgroup(scalars, target)
        assert moved.form == target
        assert self.elements(moved) == self.elements(scalars)
        assert self.elements(moved) <= self.elements(aut_group(target))

    def test_full_group_by_isomorphism_search(self):
        from cuspcount.discriminant import transport_subgroup

        source, target = self.forms()
        full = aut_group(source)
        assert full.order() == 8  # larger than {+-id}: no shortcut applies
        moved = transport_subgroup(full, target)
        assert moved.form == target
        assert self.elements(moved) == self.elements(aut_group(target))

    def test_stabilizer_image_on_another_form(self):
        # caller-supplied orbit data may carry its stabilizer image on any
        # isomorphic form; the count must equal the one taken on that form
        from cuspcount.counting import IsotropicOrbitDatum
        from cuspcount.discriminant import FqfIsometry, double_coset_count
        from cuspcount.lattices import make_lattice

        source, target = self.forms()
        ns = make_lattice(((6, 6), (6, -4)))
        g = FqfIsometry(source, ((1, 0), (0, 11)))
        stab = fqf_subgroup(source, (g,))
        assert stab.order() == 2 and g not in plus_minus_subgroup(source)
        # counting reads only the stabilizer image, not the vector
        datum = IsotropicOrbitDatum((1, 0), stab, True)
        report = count_fm_elliptic(
            K3Model.generic(ns), genus_list=[ns], orbit_data={ns: (datum,)}
        )
        expected = double_coset_count(plus_minus_subgroup(source), aut_group(source), stab)
        assert report.value == expected == 2
        assert report.exact


class TestCallerInputs:
    def test_caller_certified_genus_list(self):
        report = count_fm(K3Model.generic(U(12)), genus_list=[U(12)])
        assert report.value == count_fm(K3Model.generic(U(12))).value == 4
        assert report.exact
        assert report.window_note == "1 genus class(es); caller-certified genus list"

    def test_sectioned_count_with_user_generators(self):
        from cuspcount.counting import OMGenerators
        from cuspcount.discriminant import double_coset_count
        from cuspcount.isotropic import quotient_lattice, section_vector
        from cuspcount.lattices import LatticeIsometry

        ns = sums(U(1), diag(-2, -4))
        model = K3Model.generic(ns)
        quot = quotient_lattice(ns, section_vector(ns, 4))
        minus = (LatticeIsometry.minus_identity(quot),)

        unattested = {quot: OMGenerators(minus, complete=False)}
        report = count_fm_elliptic_sec(model, gens=unattested, quotient_genus=[quot])
        assert report.value == 1  # certified minimum for the one genus class
        assert not report.exact
        assert report.window_note.endswith("; lower bound (incomplete inputs)")

        attested = {quot: OMGenerators(minus, complete=True)}
        report = count_fm_elliptic_sec(model, gens=attested, quotient_genus=[quot])
        form = discriminant_form(quot)
        pm = plus_minus_subgroup(form)
        assert report.value == double_coset_count(pm, aut_group(form), pm)
        assert report.exact


class TestOneResolutionPerQuery:
    @staticmethod
    def _spy(monkeypatch, name):
        calls = []
        real = getattr(counting, name)

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(counting, name, spy)
        return calls

    @pytest.mark.parametrize("r", [3, 12, 30])
    def test_one_genus_sweep_per_ur_example(self, monkeypatch, r):
        calls = self._spy(monkeypatch, "genus_representatives_rank2")
        report = ur_example(r)
        assert report.passed
        assert report.fm.window_note == "1 genus class(es); complete rank-2 reduction sweep"
        assert len(calls) == 1

    @pytest.mark.parametrize("ns", [sums(U(1), diag(-2, -2)), sums(U(1), diag(-4))])
    def test_one_aut_group_per_form_in_count_fm(self, monkeypatch, ns):
        calls = self._spy(monkeypatch, "aut_group")
        report = count_fm(K3Model.generic(ns))
        assert (report.value, report.exact) == (1, True)
        assert calls == [discriminant_form(ns)]

    def test_one_window_scan_per_route_crosscheck(self, monkeypatch):
        model = K3Model.generic(sums(U(1), diag(-12)))
        per_d = tuple((d, count_cusps_zero_dim(model, d).value) for d in (1, 2, 3, 4, 6, 12))
        calls = self._spy(monkeypatch, "section_vector")
        check = route_crosscheck(model)
        assert check.passed and check.cusp_counts == per_d
        assert calls == [model.ns]

    def test_genus_sweep_under_budget(self):
        assert ur_example(210, budget=50000).passed
