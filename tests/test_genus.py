from fractions import Fraction

import pytest
from conftest import U, diag, random_unimodular, reference_equivalent_rank2, sums

from cuspcount import genus, intmat
from cuspcount.discriminant import discriminant_form, fqf_isomorphism
from cuspcount.errors import BoundTooSmall, BudgetExceeded, NotRank2
from cuspcount.genus import (
    GenusQuery,
    equivalent_rank2,
    genus_representatives_rank2,
    nikulin_unique,
)
from cuspcount.lattices import EvenLattice, rescale, restricted_gram, signature


class TestNikulinUnique:
    def test_twisted_plane_plus_u(self):
        # rank 4, two generators: the indefinite criterion applies
        for r in (2, 3, 12):
            assert nikulin_unique(sums(U(r), U(1)))

    def test_twisted_plane_alone_fails(self):
        # rank 2 equals the generator count, criterion does not apply
        for r in (2, 3, 12):
            assert not nikulin_unique(U(r))

    def test_unimodular_plane(self):
        assert nikulin_unique(U(1))

    def test_definite_fails(self):
        assert not nikulin_unique(diag(-2, -4))


class TestGenusSweep:
    @pytest.mark.parametrize("r", list(range(2, 13)))
    def test_twisted_plane_singleton(self, r):
        form = discriminant_form(U(r))
        reps = genus_representatives_rank2(GenusQuery((1, 1), form, r * r + 1))
        assert len(reps) == 1
        assert equivalent_rank2(reps[0], U(r)) is not None

    def test_trivial_form_gives_u(self):
        form = discriminant_form(U(1))
        reps = genus_representatives_rank2(GenusQuery((1, 1), form, 4))
        assert len(reps) == 1
        assert equivalent_rank2(reps[0], U(1)) is not None

    def test_negative_definite_det_four(self):
        form = discriminant_form(diag(-2, -2))
        reps = genus_representatives_rank2(GenusQuery((0, 2), form, 10))
        assert [rep.gram for rep in reps] == [((-2, 0), (0, -2))]

    def test_nonsquare_discriminant(self):
        base = EvenLattice(((2, 1), (1, -2)))
        form = discriminant_form(base)
        reps = genus_representatives_rank2(GenusQuery((1, 1), form, 10))
        assert len(reps) == 1
        assert equivalent_rank2(reps[0], base) is not None

    def test_all_members_are_isogenus(self):
        form = discriminant_form(diag(-2, -4))
        reps = genus_representatives_rank2(GenusQuery((0, 2), form, 12))
        for rep in reps:
            assert signature(rep) == (0, 2)
            assert fqf_isomorphism(discriminant_form(rep), form) is not None
        for i, a in enumerate(reps):
            for b in reps[i + 1 :]:
                assert equivalent_rank2(a, b) is None

    def test_bound_too_small(self):
        form = discriminant_form(U(12))
        with pytest.raises(BoundTooSmall):
            genus_representatives_rank2(GenusQuery((1, 1), form, 3))

    def test_rank_guard(self):
        form = discriminant_form(U(3))
        with pytest.raises(NotRank2):
            genus_representatives_rank2(GenusQuery((1, 2), form, 10))

    def test_budget(self):
        form = discriminant_form(U(30))
        with pytest.raises(BudgetExceeded, match=r"^\|A\| = 900 exceeds the budget 899$"):
            genus_representatives_rank2(GenusQuery((1, 1), form, 901), budget=899)
        with pytest.raises(BoundTooSmall):  # the bound is checked first
            genus_representatives_rank2(GenusQuery((1, 1), form, 3), budget=1)
        assert len(genus_representatives_rank2(GenusQuery((1, 1), form, 901), budget=900)) == 1

    @pytest.mark.parametrize("r", [3, 4, 6, 9, 12])
    def test_rescaling_consistency(self, r):
        # every member of the twisted-plane genus has Gram divisible by r
        # and unscales to the unimodular plane
        form = discriminant_form(U(r))
        for rep in genus_representatives_rank2(GenusQuery((1, 1), form, r * r + 1)):
            assert all(x % r == 0 for row in rep.gram for x in row)
            unscaled = rescale(rep, Fraction(1, r))
            assert equivalent_rank2(unscaled, U(1)) is not None


class TestEquivalentRank2:
    def test_identity_witness(self):
        assert equivalent_rank2(U(1), U(1)).matrix == ((1, 0), (0, 1))

    def test_base_change_recovered(self):
        # U(3) in the basis (l, l+m)
        twisted = EvenLattice(((0, 3), (3, 6)))
        witness = equivalent_rank2(U(3), twisted)
        assert witness is not None  # Gram pullback verified on construction

    def test_different_determinants(self):
        assert equivalent_rank2(U(1), U(2)) is None

    def test_definite_pair(self):
        a2 = EvenLattice(((2, 1), (1, 2)))
        shuffled = EvenLattice(((2, -1), (-1, 2)))
        assert equivalent_rank2(a2, shuffled) is not None
        assert equivalent_rank2(a2, diag(2, 2)) is None

    def test_square_disc_classes_distinct(self):
        # same determinant -256 but different isotropic-line invariants
        other = EvenLattice(((16, 16), (16, 0)))
        assert equivalent_rank2(U(16), other) is None

    def test_rejects_wrong_rank(self):
        with pytest.raises(NotRank2):
            equivalent_rank2(U(1), sums(U(1), U(1)))

    def test_nonsquare_disc_distinct_classes(self):
        # discriminant 65 = 5 * 13: the two classes lie in different genera
        # (the character at 5 separates values 1 and 2), so they are
        # inequivalent even under improper base changes
        principal = EvenLattice(((2, 7), (7, -8)))
        other = EvenLattice(((4, 7), (7, -4)))
        assert equivalent_rank2(principal, other) is None
        for lattice in (principal, other):
            form = discriminant_form(lattice)
            reps = genus_representatives_rank2(GenusQuery((1, 1), form, 70))
            assert len(reps) == 1
            assert equivalent_rank2(reps[0], lattice) is not None


def _nondegenerate_grams():
    """Every nondegenerate [[2a, b], [b, 2c]] with a in -12..12, b in 0..12
    and c in -13..13."""
    return [
        ((2 * a, b), (b, 2 * c))
        for a in range(-12, 13)
        for b in range(13)
        for c in range(-13, 14)
        if 4 * a * c != b * b
    ]


class TestEqualGramShortcut:
    """equivalent_rank2 answers equal Grams with the identity; the
    reduction route it skips (conftest.reference_equivalent_rank2) returns
    the same witness, and unequal Grams still take that route."""

    def test_equal_grams_give_the_reference_witness(self):
        grams = _nondegenerate_grams()
        assert len(grams) == 8692
        for gram in grams:
            lattice = EvenLattice(gram)
            witness = equivalent_rank2(lattice, lattice)
            assert witness == reference_equivalent_rank2(lattice, lattice)
            assert witness.matrix == ((1, 0), (0, 1))

    def test_a_new_basis_takes_the_reduction_route(self, rng, monkeypatch):
        calls = []
        real_witness = genus._witness

        def witness_spy(*args):
            calls.append(args)
            return real_witness(*args)

        monkeypatch.setattr(genus, "_witness", witness_spy)
        checked = 0
        for gram in rng.sample(_nondegenerate_grams(), 300):
            lattice = EvenLattice(gram)
            t = random_unimodular(2, rng)
            twisted = EvenLattice(intmat.matmul(intmat.matmul(intmat.transpose(t), gram), t))
            if twisted.gram == gram:
                continue
            del calls[:]
            witness = equivalent_rank2(lattice, twisted)
            assert len(calls) == 1  # the reduction route built the witness
            assert witness is not None
            assert restricted_gram(twisted, witness.matrix) == gram
            assert witness == reference_equivalent_rank2(lattice, twisted)
            checked += 1
        assert checked >= 250
