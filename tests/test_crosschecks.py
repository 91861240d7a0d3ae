"""Cross-module consistency properties tying the independent routes together."""

import itertools

import pytest
from conftest import U, classify, diag, random_unimodular, reference_full_group, sums

from cuspcount import intmat, isotropic
from cuspcount.counting import derive_orbit_data
from cuspcount.discriminant import (
    _disc_data,
    aut_group,
    discriminant_form,
    fqf_isomorphism,
    is_isogenus,
    overlattice,
)
from cuspcount.genus import GenusQuery, equivalent_rank2, genus_representatives_rank2
from cuspcount.isotropic import enumerate_isotropic, quotient_lattice, section_vector
from cuspcount.lattices import (
    EvenLattice,
    LatticeIsometry,
    direct_sum,
    make_lattice,
    named_lattice,
    signature,
)


class TestPrimaryDecompositionOnMixedForms:
    """The CRT recombination must agree with the full enumeration of each
    block on forms whose invariant factors mix primes unevenly."""

    MIXED = [
        sums(diag(-2), diag(-12)),        # Z/2 + Z/12
        sums(diag(-4), diag(-6)),         # Z/2 + Z/12 again, different q
        sums(U(2), diag(-6)),             # Z/2 + Z/2 + Z/6
        sums(diag(-2), diag(-2, -8)),     # 2-groups of unequal exponent
        sums(U(3), diag(-4)),             # coprime blocks
        diag(2, -18),                     # Z/6 + Z/6 from a non-split Gram
    ]

    @pytest.mark.parametrize("lattice", MIXED, ids=lambda L: str(L.gram))
    def test_primary_equals_the_reference(self, lattice):
        form = discriminant_form(lattice)
        primary = aut_group(form)
        assert [iso.matrix for iso in primary.elements] == reference_full_group(form)


class TestPaperedGroupShapes:
    @pytest.mark.parametrize("r", [3, 5, 8, 12])
    def test_twisted_plane_isometries_by_brute_force(self, r):
        # O(U(r)) = {id, -id, swap, -swap}: exhaustive 2x2 column search
        ur = U(r)
        gram = ur.gram
        columns = [
            v
            for v in itertools.product(range(-1, 2), repeat=2)
            if v != (0, 0) and ur.norm(v) == 0
        ]
        found = []
        for c1 in columns:
            for c2 in columns:
                mat = intmat.from_columns([c1, c2])
                if intmat.det(mat) in (1, -1):
                    pulled = intmat.matmul(
                        intmat.matmul(intmat.transpose(mat), gram), mat
                    )
                    if pulled == gram:
                        found.append(mat)
        expected = {
            ((1, 0), (0, 1)),
            ((-1, 0), (0, -1)),
            ((0, 1), (1, 0)),
            ((0, -1), (-1, 0)),
        }
        assert set(found) == expected

    @pytest.mark.parametrize("r", [3, 4, 5, 8, 9])
    def test_prime_power_aut_is_diag_or_antidiag(self, r):
        # at a prime power every automorphism of the twisted-plane form is
        # diag(a, a^-1) or antidiag(b, b^-1) on the (l/r, m/r) pair
        ur = U(r)
        data = _disc_data(ur)
        from fractions import Fraction

        class_l = classify(data, (Fraction(1, r), 0))
        class_m = classify(data, (0, Fraction(1, r)))
        form = data.form
        for iso in aut_group(form).elements:
            img_l, img_m = iso.apply(class_l), iso.apply(class_m)
            on_l_axis = any(img_l == form.scale(a, class_l) for a in range(r))
            on_m_axis = any(img_l == form.scale(a, class_m) for a in range(r))
            assert on_l_axis or on_m_axis
            if on_l_axis:
                assert any(img_m == form.scale(a, class_m) for a in range(r))
            else:
                assert any(img_m == form.scale(a, class_l) for a in range(r))

    @pytest.mark.parametrize("r", [3, 6, 12, 30])
    def test_aut_matches_congruence_description(self, r):
        # relative to the (l/r, m/r) basis, O(A) is exactly the set of
        # GL2(Z/r) matrices with ad + bc = 1 and ab = cd = 0 mod r
        ur = U(r)
        data = _disc_data(ur)
        from fractions import Fraction

        class_l = classify(data, (Fraction(1, r), 0))
        class_m = classify(data, (0, Fraction(1, r)))
        form = data.form

        def coords(x):
            for a in range(r):
                for c in range(r):
                    if form.add(form.scale(a, class_l), form.scale(c, class_m)) == x:
                        return a, c
            raise AssertionError("element outside the (l/r, m/r) span")

        group = aut_group(form)
        for iso in group.elements:
            a, c = coords(iso.apply(class_l))
            b, d = coords(iso.apply(class_m))
            assert (a * d + b * c) % r == 1
            assert (a * b) % r == 0 and (c * d) % r == 0
        # and conversely, every such matrix defines an automorphism
        count = sum(
            1
            for a in range(r)
            for b in range(r)
            for c in range(r)
            for d in range(r)
            if (a * d + b * c) % r == 1 and (a * b) % r == 0 and (c * d) % r == 0
        )
        assert count == group.order()


class TestOverlatticeQuotientChain:
    def test_saturating_an_isotropic_vector_splits_a_plane(self, corpus_lattices):
        # <L, l/d> must be isogenus to U + (l^perp/Zl), and the index-law
        # chain |A| = d^2 |A~| must match the quotient route exactly
        checked = 0
        for lattice in corpus_lattices:
            for iv in enumerate_isotropic(lattice, 2):
                d = iv.divisor
                if d == 1:
                    continue
                data = _disc_data(lattice)
                from fractions import Fraction

                cls = classify(data, tuple(Fraction(x, d) for x in iv.vector))
                over = overlattice(lattice, [cls])
                quot = quotient_lattice(lattice, iv.vector)
                model = direct_sum(U(1), quot)
                assert abs(over.det()) == abs(quot.det())
                if abs(over.det()) <= 400:
                    assert bool(is_isogenus(over, model))
                checked += 1
        assert checked >= 5


class TestGenusSweepCompleteness:
    def _random_rank2(self, rng):
        while True:
            a = rng.randint(-4, 4)
            b = rng.randint(-5, 5)
            c = rng.randint(-4, 4)
            g = ((2 * a, b), (b, 2 * c))
            if 4 * a * c - b * b != 0:
                return EvenLattice(g)

    def test_every_random_lattice_appears_in_its_own_sweep(self, rng):
        for _ in range(40):
            lattice = self._random_rank2(rng)
            form = discriminant_form(lattice)
            if form.order() > 300:
                continue
            bound = max(form.order(), form.exponent()) + 1
            reps = genus_representatives_rank2(
                GenusQuery(signature(lattice), form, bound)
            )
            assert any(equivalent_rank2(rep, lattice) is not None for rep in reps)

    def test_equivalence_invariant_under_random_base_change(self, rng):
        for _ in range(40):
            lattice = self._random_rank2(rng)
            t = random_unimodular(2, rng)
            twisted = EvenLattice(
                intmat.matmul(intmat.matmul(intmat.transpose(t), lattice.gram), t)
            )
            witness = equivalent_rank2(lattice, twisted)
            assert witness is not None  # Gram pullback checked on construction


class TestNaturalMapKernel:
    def test_minus_identity_nontrivial_off_two_torsion(self):
        from cuspcount.discriminant import natural_map

        iso = natural_map(U(3), LatticeIsometry.minus_identity(U(3)))
        assert not iso.is_identity()

    def test_default_budget_contract(self):
        from cuspcount.discriminant import DEFAULT_BUDGET, resolve_budget

        assert DEFAULT_BUDGET == 10_000
        assert resolve_budget(None) in (10_000,) or resolve_budget(None) > 0


class TestIndependentCountingOracles:
    """Recompute the headline counts from the bare congruence model of the
    twisted-plane automorphism group, sharing no code with the library."""

    @staticmethod
    def _congruence_group(r):
        # column convention on the (l/r, m/r) pair: img(g1) = (a, c),
        # img(g2) = (b, d); q-preservation forces ac = bd = 0, ad + bc = 1
        group = []
        for a in range(r):
            for b in range(r):
                for c in range(r):
                    for d in range(r):
                        if (
                            (a * c) % r == 0
                            and (b * d) % r == 0
                            and (a * d + b * c) % r == 1
                        ):
                            group.append(((a, b), (c, d)))
        return group

    @staticmethod
    def _mul(m1, m2, r):
        return tuple(
            tuple(
                sum(m1[i][k] * m2[k][j] for k in range(2)) % r for j in range(2)
            )
            for i in range(2)
        )

    @pytest.mark.parametrize("r", [3, 5, 8, 9, 12, 18])
    def test_partner_count_against_raw_double_cosets(self, r):
        from cuspcount.counting import K3Model, count_fm

        group = self._congruence_group(r)
        ident = ((1, 0), (0, 1))
        minus = ((r - 1, 0), (0, r - 1))
        swap = ((0, 1), (1, 0))
        mswap = self._mul(minus, swap, r)
        left = {ident, minus}
        right = {ident, minus, swap, mswap}
        visited = set()
        classes = 0
        for x in group:
            if x in visited:
                continue
            classes += 1
            for l in left:
                lx = self._mul(l, x, r)
                for k in right:
                    visited.add(self._mul(lx, k, r))
        assert classes == count_fm(K3Model.generic(U(r))).value

    @pytest.mark.parametrize("r", [4, 6, 9, 12])
    def test_twisted_classes_against_raw_orbits(self, r):
        from cuspcount.counting import K3Model, count_cusps_zero_dim
        from math import gcd, lcm

        model = K3Model.generic(U(r))
        for d in range(1, r + 1):
            if r % d:
                continue
            elements = [
                (x, y)
                for x in range(r)
                for y in range(r)
                if (x * y) % r == 0  # q(x l/r + y m/r) = 2xy/r = 0 in Q/2Z
                and lcm(r // gcd(x, r), r // gcd(y, r)) == d
            ]
            seen = set()
            orbits = 0
            for x, y in elements:
                if (x, y) in seen:
                    continue
                seen.update({(x, y), ((-x) % r, (-y) % r)})
                orbits += 1
            assert orbits == count_cusps_zero_dim(model, d).value


class TestConcurrentUse:
    def test_parallel_invocations_agree(self):
        # all values are immutable and operations are pure; hammer the same
        # computations from several threads and compare results
        from concurrent.futures import ThreadPoolExecutor

        from cuspcount.counting import ur_example

        def work(_):
            report = ur_example(6)
            form = discriminant_form(sums(U(2), diag(-6)))
            return (report.to_dict(), aut_group(form).order())

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, range(8)))
        assert all(r == results[0] for r in results)

    def test_parallel_window_queries_agree(self):
        # the window and quotient memos are shared by all threads; clearing
        # them in half the workers makes the readers of a new window race
        from concurrent.futures import ThreadPoolExecutor

        lattice = sums(U(1), named_lattice("A", (3,)))

        def work(k):
            if k % 2 == 0:
                isotropic._window.cache_clear()
                isotropic._quotient.cache_clear()
            window = enumerate_isotropic(lattice, 4)
            section = section_vector(lattice, 4)
            return window, section, quotient_lattice(lattice, section).gram

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, range(16)))
        assert results[0][1] == next(iv.vector for iv in results[0][0] if iv.divisor == 1)
        assert all(r == results[0] for r in results)


class TestDerivedOrbitDataShapes:
    def test_hyperbolic_family_is_exact(self):
        for r in (1, 2, 5):
            data, complete = derive_orbit_data(U(r), budget=10_000)
            assert complete and len(data) == 1
            assert data[0].stabilizer_image.order() == 1

    def test_definite_lattices_have_no_orbits(self):
        data, complete = derive_orbit_data(diag(-2, -4), budget=10_000)
        assert data == () and complete

    def test_square_free_rank3_is_exact(self):
        ns = sums(U(1), diag(-6))
        data, complete = derive_orbit_data(ns, budget=10_000)
        assert complete and len(data) == 1
        assert data[0].complete

    def test_uncertified_stabilizer_is_lower_bound(self):
        # det 3 is square-free and the quotient A(2) has a one-class genus,
        # but no theorem certifies r(O(A(2)))
        data, complete = derive_orbit_data(sums(U(1), named_lattice("A", (2,))), budget=10_000)
        assert not complete
        assert len(data) == 1 and not data[0].complete

    def test_non_square_free_rank3_is_lower_bound(self):
        ns = sums(U(1), diag(-8))
        data, complete = derive_orbit_data(ns, budget=10_000)
        assert not complete
        assert len(data) >= 1
