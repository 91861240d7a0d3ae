import gc
import itertools
from fractions import Fraction

import pytest
from conftest import U, classify, diag, negated, random_even_lattice, sums
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcount import intmat
from cuspcount.discriminant import (
    FiniteQuadraticForm,
    FqfIsometry,
    _disc_data,
    aut_group,
    discriminant_form,
    double_coset_count,
    fqf_isomorphism,
    fqf_subgroup,
    is_isogenus,
    isotropic_elements,
    isotropic_subgroups,
    natural_map,
    overlattice,
    plus_minus_subgroup,
    trivial_subgroup,
)
from cuspcount.errors import (
    BadParams,
    BudgetExceeded,
    LatticeError,
    NotIsometry,
    NotIsotropic,
    SubgroupNotContained,
)
from cuspcount.lattices import (
    Embedding,
    EvenLattice,
    LatticeIsometry,
    orthogonal_complement,
    signature,
)


class TestDiscriminantForm:
    def test_unimodular_trivial(self):
        form = discriminant_form(U(1))
        assert form.is_trivial()
        assert form.order() == 1

    def test_twisted_plane_values(self):
        # (Z/r)^2 with q = 0 on both generators and b(g1, g2) = 1/r
        for r in (2, 3, 5, 12):
            form = discriminant_form(U(r))
            assert form.orders == (r, r)
            assert form.q_diag == (Fraction(0), Fraction(0))
            assert form.b_mat[0][1] == Fraction(1, r)

    def test_rank_one_quarter(self):
        # dual generator e/4 has q = (-4)/16 = -1/4, canonically 7/4 mod 2
        form = discriminant_form(diag(-4))
        assert form.orders == (4,)
        assert form.q_diag == (Fraction(7, 4),)

    def test_order_equals_det_on_random_lattices(self, rng):
        for _ in range(200):
            lattice = random_even_lattice(rng, rng.randint(1, 4), 20)
            assert discriminant_form(lattice).order() == abs(lattice.det())

    def test_q_b_compatibility_on_elements(self, rng):
        form = discriminant_form(sums(U(2), diag(-4)))
        elements = sorted(form.elements())
        for _ in range(60):
            x = elements[rng.randrange(len(elements))]
            y = elements[rng.randrange(len(elements))]
            lhs = form.q(form.add(x, y))
            rhs = (form.q(x) + form.q(y) + 2 * form.b(x, y)) % 2
            assert lhs == rhs
            assert form.b(x, x) == form.q(x) % 1


class TestMinGenerators:
    def test_examples(self):
        assert discriminant_form(U(1)).ngens == 0
        assert discriminant_form(U(7)).ngens == 2
        assert discriminant_form(sums(diag(-2), diag(-4))).ngens == 2


class TestAutGroup:
    def test_trivial(self):
        group = aut_group(discriminant_form(U(1)))
        assert group.order() == 1

    def test_u3(self):
        assert aut_group(discriminant_form(U(3))).order() == 4

    def test_u12_both_methods(self):
        form = discriminant_form(U(12))
        primary = aut_group(form, method="primary")
        direct = aut_group(form, method="direct")
        assert primary.order() == 16
        assert set(primary.elements) == set(direct.elements)

    def test_group_axioms_and_q_preservation(self):
        form = discriminant_form(U(6))
        group = aut_group(form)
        elements = set(group.elements)
        for a in group.elements:
            assert a.inverse() in elements
            for b in group.elements:
                assert a.compose(b) in elements
        for iso in group.elements:
            for x in form.elements():
                assert form.q(iso.apply(x)) == form.q(x)

    def test_budget(self):
        with pytest.raises(BudgetExceeded, match=r"^\|A\| = 100 exceeds the budget 50$"):
            aut_group(discriminant_form(U(10)), budget=50)


class TestNoReferenceCycles:
    def test_enumeration_leaves_no_cyclic_garbage(self):
        # integer code triggers the cyclic collector rarely, so a cycle per
        # search would pile up: each would hold the search's candidate lists
        form = discriminant_form(U(6))
        gc.collect()
        gc.disable()
        try:
            fqf_isomorphism(form, form)
            aut_group(form)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSubgroupMembership:
    def test_contains_and_subgroup(self):
        form = discriminant_form(U(6))
        group = aut_group(form)
        pm = plus_minus_subgroup(form)
        assert all(iso in group for iso in pm)
        assert FqfIsometry.identity(form) in pm
        assert pm.is_subgroup_of(group)
        assert not group.is_subgroup_of(pm)
        assert not pm.is_subgroup_of(plus_minus_subgroup(discriminant_form(U(5))))


class TestNaturalMap:
    def test_minus_identity(self):
        for r in (3, 4):
            iso = natural_map(U(r), LatticeIsometry.minus_identity(U(r)))
            assert iso == FqfIsometry.minus_identity(discriminant_form(U(r)))

    def test_swap_exchanges_generators(self):
        r = 5
        data = _disc_data(U(r))
        swap = natural_map(U(r), LatticeIsometry(U(r), ((0, 1), (1, 0))))
        class_l = classify(data, (Fraction(1, r), 0))
        class_m = classify(data, (0, Fraction(1, r)))
        assert swap.apply(class_l) == class_m
        assert swap.apply(class_m) == class_l

    def test_u_summand_flip_acts_trivially(self):
        ambient = sums(U(2), U(1))
        mat = intmat.from_columns(
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)]
        )
        iso = natural_map(ambient, LatticeIsometry(ambient, mat))
        assert iso.is_identity()

    def test_homomorphism(self):
        ambient = sums(U(3), U(1))
        swap_u3 = intmat.from_columns(
            [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        )
        gens = [
            LatticeIsometry(ambient, swap_u3),
            LatticeIsometry.minus_identity(ambient),
        ]
        for g in gens:
            for h in gens:
                lhs = natural_map(ambient, g.compose(h))
                rhs = natural_map(ambient, g).compose(natural_map(ambient, h))
                assert lhs == rhs


def _lift_search(lattice, data, target, r, bound):
    """Backtracking search over bounded basis images for g in O(L) with
    r(g) = target, on the U(r) + U shape (basis l, m, e, f).

    The images of l and m are pruned by their forced discriminant classes,
    which pins the search to the right coset immediately.
    """
    form = data.form
    gram = lattice.gram
    n = lattice.rank
    isotropics = [
        v
        for v in itertools.product(range(-bound, bound + 1), repeat=n)
        if any(x != 0 for x in v)
        and sum(v[a] * gram[a][b] * v[b] for a in range(n) for b in range(n)) == 0
    ]

    class_l = classify(data, (Fraction(1, r), 0, 0, 0))
    class_m = classify(data, (0, Fraction(1, r), 0, 0))
    want_l = target.apply(class_l)
    want_m = target.apply(class_m)

    def class_of_over_r(v):
        pairings = intmat.matvec(gram, v)
        if any(x % r for x in pairings):
            return None
        return classify(data, tuple(Fraction(x, r) for x in v))

    def pair(u, v):
        return sum(u[a] * gram[a][b] * v[b] for a in range(n) for b in range(n))

    cols = []

    def place(j):
        if j == n:
            mat = intmat.from_columns(cols)
            if abs(intmat.det(mat)) != 1:
                return None
            iso = LatticeIsometry(lattice, mat)
            if natural_map(lattice, iso) == target:
                return iso
            return None
        for v in isotropics:
            if any(pair(w, v) != gram[i][j] for i, w in enumerate(cols)):
                continue
            if j == 0 and class_of_over_r(v) != want_l:
                continue
            if j == 1 and class_of_over_r(v) != want_m:
                continue
            cols.append(v)
            got = place(j + 1)
            if got is not None:
                return got
            cols.pop()
        return None

    return place(0)


class TestSurjectivityLifts:
    @pytest.mark.parametrize("r", [3, 5])
    def test_every_automorphism_lifts(self, r):
        # indefinite, rank 4 >= l(A) + 2: every generator of O(A) must lift
        ambient = sums(U(r), U(1))
        data = _disc_data(ambient)
        group = aut_group(data.form)
        # generators: the whole (small) group, so the check is exhaustive
        for target in group.elements:
            iso = _lift_search(ambient, data, target, r, bound=r)
            assert iso is not None, f"no preimage of {target.matrix} within bound {r}"


class TestIsotropicElements:
    def test_trivial_d1(self):
        form = discriminant_form(U(1))
        assert isotropic_elements(form, 1) == [()]

    def test_u2(self):
        form = discriminant_form(U(2))
        assert isotropic_elements(form, 2) == [(0, 1), (1, 0)]

    def test_minus_four_empty(self):
        form = discriminant_form(diag(-4))
        assert isotropic_elements(form, 2) == []

    def test_budget(self):
        with pytest.raises(BudgetExceeded, match=r"^\|A\| = 100 exceeds the budget 50$"):
            isotropic_elements(discriminant_form(U(10)), 2, budget=50)

    @pytest.mark.parametrize("d", [0, -2])
    def test_order_below_one_rejected_before_budget(self, d):
        with pytest.raises(BadParams):
            isotropic_elements(discriminant_form(U(10)), d, budget=50)


class TestIsotropicSubgroups:
    def test_u2_two_lines(self):
        form = discriminant_form(U(2))
        subs = isotropic_subgroups(form, 2)
        assert len(subs) == 2
        assert all(len(sub) == 2 for sub in subs)

    def test_u3_two_lines(self):
        form = discriminant_form(U(3))
        subs = isotropic_subgroups(form, 3)
        assert len(subs) == 2

    def test_order_one(self):
        form = discriminant_form(U(4))
        assert isotropic_subgroups(form, 1) == [(form.zero(),)]

    def test_budget(self):
        with pytest.raises(BudgetExceeded, match=r"^\|A\| = 100 exceeds the budget 50$"):
            isotropic_subgroups(discriminant_form(U(10)), 10, budget=50)


class TestOverlattice:
    def test_u2_to_u(self):
        form = discriminant_form(U(2))
        line = isotropic_subgroups(form, 2)[0]
        over = overlattice(U(2), line)
        assert bool(is_isogenus(over, U(1)))
        assert abs(over.det()) == 1

    def test_trivial_subgroup_identity(self):
        over = overlattice(U(3), [discriminant_form(U(3)).zero()])
        assert over.gram == U(3).gram

    def test_index_law_u4(self):
        ambient = sums(U(4), U(1))
        form = discriminant_form(ambient)
        line = next(
            sub for sub in isotropic_subgroups(form, 4)
        )
        over = overlattice(ambient, line)
        assert abs(ambient.det()) == 16 * abs(over.det())

    def test_rejects_non_isotropic(self):
        form = discriminant_form(diag(-4))
        with pytest.raises(NotIsotropic):
            overlattice(diag(-4), [(2,)])  # q(2g) = -1 mod 2, not isotropic

    def test_index_law_all_corpus(self, corpus_lattices):
        for lattice in corpus_lattices:
            form = discriminant_form(lattice)
            if form.order() > 400:
                continue
            for order in range(1, form.order() + 1):
                if form.order() % order:
                    continue
                for sub in isotropic_subgroups(form, order):
                    over = overlattice(lattice, sub)
                    assert abs(lattice.det()) == order * order * abs(over.det())


class TestIsogeny:
    def test_isometric_blocks(self):
        assert bool(is_isogenus(sums(U(5), U(1)), sums(U(1), U(5))))

    def test_det_obstruction(self):
        assert not is_isogenus(U(1), U(2))
        assert not is_isogenus(U(10), U(5), budget=1)  # decided before the budget check

    def test_witness_preserves_form(self):
        left, right = sums(U(3), U(1)), sums(U(1), U(3))
        result = is_isogenus(left, right)
        fl, fr = discriminant_form(left), discriminant_form(right)
        witness = result.witness
        for x in fl.elements():
            image = fr.reduce(intmat.matvec(witness, x))
            assert fr.q(image) == fl.q(x)

    def test_signature_obstruction(self):
        assert not is_isogenus(sums(U(1), diag(2)), sums(U(1), diag(-2)))
        assert not is_isogenus(U(10), diag(-2, -50), budget=1)

    def test_budget(self):
        with pytest.raises(BudgetExceeded, match=r"^\|A\| = 100 exceeds the budget 50$"):
            is_isogenus(U(10), U(10), budget=50)


class TestDoubleCosets:
    def test_whole_group(self):
        group = aut_group(discriminant_form(U(3)))
        assert double_coset_count(group, group, group) == 1

    def test_trivial_factors(self):
        group = aut_group(discriminant_form(U(3)))
        triv = trivial_subgroup(group.form)
        assert double_coset_count(triv, group, triv) == group.order()

    def test_not_contained(self):
        form = discriminant_form(U(3))
        pm = plus_minus_subgroup(form)
        with pytest.raises(SubgroupNotContained):
            double_coset_count(pm, trivial_subgroup(form), pm)

    @pytest.mark.parametrize("r", [3, 4, 5, 6, 12])
    def test_twisted_plane_formula(self, r):
        # {+-id} \ O(A) / r(O(U(r))) has 2^(tau-2) phi(r) classes
        from cuspcount.counting import euler_phi, num_prime_factors

        form = discriminant_form(U(r))
        ambient = aut_group(form)
        pm = plus_minus_subgroup(form)
        swap = natural_map(U(r), LatticeIsometry(U(r), ((0, 1), (1, 0))))
        image = fqf_subgroup(form, (swap, FqfIsometry.minus_identity(form)))
        count = double_coset_count(pm, ambient, image)
        assert count == (2 ** num_prime_factors(r) * euler_phi(r)) // 4


class TestComplementFormRelation:
    def test_rank_one_sublattices_of_uu(self, rng):
        # (A_S, q) is isomorphic to (A_{S^perp}, -q) inside a unimodular lattice
        ambient = sums(U(1), U(1))
        checked = 0
        while checked < 8:
            v = tuple(rng.randint(-3, 3) for _ in range(4))
            if all(x == 0 for x in v) or intmat.vec_gcd(v) != 1:
                continue
            if ambient.norm(v) == 0:
                continue
            emb = Embedding(ambient, intmat.from_columns([v]))
            sub_form = discriminant_form(EvenLattice(((ambient.norm(v),),)))
            comp, _ = orthogonal_complement(ambient, emb)
            comp_form = discriminant_form(comp)
            assert fqf_isomorphism(sub_form, negated(comp_form)) is not None
            checked += 1


def _f(num, den=1):
    return Fraction(num, den)


def _chains(bound, least=2):
    """Divisibility chains d_1 | d_2 | ... with every d_i >= 2 and product <= bound."""
    for d in range(least, bound + 1):
        yield (d,)
        for rest in _chains(bound // d, d):
            if rest[0] % d == 0:
                yield (d,) + rest


@st.composite
def consistent_tables(draw):
    """Tables that pass every check of FiniteQuadraticForm but, possibly,
    nondegeneracy: |A| <= 64, b(g_i, g_j) in (1/gcd(d_i, d_j))Z and q(g_i)
    in b(g_i, g_i) + {0, 1} with d_i^2 q(g_i) even."""
    orders = draw(st.sampled_from(sorted(_chains(64))))
    k = len(orders)
    b_mat = [[_f(0)] * k for _ in range(k)]
    q_diag = []
    for i, di in enumerate(orders):
        for j in range(i, k):
            b_mat[i][j] = b_mat[j][i] = _f(draw(st.integers(0, di - 1)), di)
        t = b_mat[i][i] * di
        # d_i^2 q = t d_i + e d_i^2 must be even
        lift = draw(st.integers(0, 1)) if di % 2 == 0 else int(t) % 2
        q_diag.append(b_mat[i][i] + lift)
    return orders, tuple(q_diag), tuple(map(tuple, b_mat))


class TestFormValidation:
    """Each rejection branch of the FiniteQuadraticForm constructor."""

    @pytest.mark.parametrize(
        "orders, q_diag, b_mat, message",
        [
            ((2, 3), (_f(0), _f(0)), ((_f(0), _f(0)), (_f(0), _f(0))), "divisibility chain"),
            ((1,), (_f(0),), ((_f(0),),), "must be > 1"),
            ((2,), (), ((_f(0),),), "do not match the generator count"),
            ((2,), (_f(0),), (), "do not match the generator count"),
            ((2,), (_f(-1, 2),), ((_f(1, 2),),), r"canonical residues in \[0, 2\)"),
            ((2,), (_f(2),), ((_f(0),),), r"canonical residues in \[0, 2\)"),
            ((2,), (_f(1, 4),), ((_f(1, 4),),), "incompatible with the generator order"),
            ((3,), (_f(1, 3),), ((_f(1, 3),),), "incompatible with the generator order"),
            ((2, 2), (_f(0), _f(0)), ((_f(0),), (_f(0), _f(0))), "not square"),
            ((2,), (_f(1, 2),), ((_f(0),),), r"b\(g,g\) must reduce q\(g\) mod 1"),
            ((2, 2), (_f(0), _f(0)), ((_f(0), _f(1, 2)), (_f(0), _f(0))), "symmetric"),
            ((2, 2), (_f(0), _f(0)), ((_f(0), _f(1)), (_f(1), _f(0))), "symmetric"),
            ((2, 2), (_f(0), _f(0)), ((_f(0), _f(1, 4)), (_f(1, 4), _f(0))), "incompatible with the generator orders"),
            # consistent tables with a radical, which holds g1, g1, g1 and g2
            ((2, 2), (_f(0), _f(0)), ((_f(0), _f(0)), (_f(0), _f(0))), "nondegenerate"),
            ((2, 2, 2), (_f(0), _f(0), _f(1)), ((_f(0),) * 3,) * 3, "nondegenerate"),
            ((2, 4), (_f(0), _f(1, 2)), ((_f(0), _f(0)), (_f(0), _f(1, 2))), "nondegenerate"),
            ((3, 3), (_f(2, 3), _f(0)), ((_f(2, 3), _f(0)), (_f(0), _f(0))), "nondegenerate"),
        ],
    )
    def test_rejects(self, orders, q_diag, b_mat, message):
        with pytest.raises(LatticeError, match=message):
            FiniteQuadraticForm(orders, q_diag, b_mat)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(consistent_tables())
    def test_accepts_exactly_the_tables_without_radical(self, table):
        orders, q_diag, b_mat = table
        has_radical = any(
            any(x) and all(sum(c * row[j] for c, row in zip(x, b_mat)) % 1 == 0 for j in range(len(orders)))
            for x in itertools.product(*(range(d) for d in orders))
        )
        if has_radical:
            with pytest.raises(LatticeError, match="nondegenerate"):
                FiniteQuadraticForm(orders, q_diag, b_mat)
        else:
            FiniteQuadraticForm(orders, q_diag, b_mat)

    def test_accepts_discriminant_tables(self):
        form = discriminant_form(sums(U(2), diag(-4)))
        rebuilt = FiniteQuadraticForm(form.orders, form.q_diag, form.b_mat)
        assert rebuilt == form
        assert hash(rebuilt) == hash(form)


class TestIsometryValidation:
    """Each rejection branch of the FqfIsometry constructor."""

    @pytest.mark.parametrize(
        "lattice, matrix, message",
        [
            (U(3), ((1, 0, 0), (0, 1, 0)), "wrong shape"),
            (U(3), ((1,), (0,)), "wrong shape"),
            # orders (2, 4): the image of the order-2 generator must be 2-torsion
            (diag(-2, -4), ((1, 0), (1, 1)), "not a well-defined endomorphism"),
            # not injective; b is nondegenerate, so b is not kept either
            (U(3), ((1, 0), (0, 0)), "does not preserve b"),
            (U(6), ((1, 0), (0, 2)), "does not preserve b"),
            # g1 -> g1 + g2 has q = 2/3, but q(g1) = 0
            (U(3), ((1, 0), (1, 1)), "does not preserve q"),
            # q is kept on both columns, but b(g2', g1') = 2/3 != 1/3
            (U(3), ((1, 0), (0, 2)), "does not preserve b"),
        ],
    )
    def test_rejects(self, lattice, matrix, message):
        form = discriminant_form(lattice)
        with pytest.raises(NotIsometry, match=message):
            FqfIsometry(form, matrix)

    def test_accepts_and_reduces(self):
        form = discriminant_form(U(3))
        iso = FqfIsometry(form, ((3, 4), (-2, 6)))
        assert iso.matrix == ((0, 1), (1, 0))


def _brute_force_aut_order(form):
    """Count the matrices FqfIsometry accepts, over all entries mod d_i."""
    k, d = form.ngens, form.orders
    rows = [list(itertools.product(range(d[i]), repeat=k)) for i in range(k)]
    count = 0
    for matrix in itertools.product(*rows):
        try:
            FqfIsometry(form, matrix)
        except NotIsometry:
            continue
        count += 1
    return count


class TestAutGroupOnHandBuiltForms:
    """Forms built from tables, not from a lattice.  FqfIsometry checks only
    that a matrix is a well-defined endomorphism that keeps q and b; with b
    nondegenerate that accepts exactly O(A, q), and both routes find it."""

    @pytest.mark.parametrize(
        "orders, q_diag, b_rows",
        [
            ((2, 2), (0, 0), ((0, _f(1, 2)), (_f(1, 2), 0))),
            ((2, 2), (1, 1), ((0, _f(1, 2)), (_f(1, 2), 0))),
            ((2, 4), (_f(3, 2), _f(1, 4)), ((_f(1, 2), 0), (0, _f(1, 4)))),
            ((3, 3), (_f(2, 3), _f(4, 3)), ((_f(2, 3), 0), (0, _f(1, 3)))),
            ((2, 2, 2), (_f(1, 2),) * 3, ((_f(1, 2), 0, 0), (0, _f(1, 2), 0), (0, 0, _f(1, 2)))),
            ((4,), (_f(1, 4),), ((_f(1, 4),),)),
        ],
        ids=["U2", "2x2-q11", "2x4", "3x3", "half-cubed", "quarter"],
    )
    def test_both_routes_match_brute_force(self, orders, q_diag, b_rows):
        form = FiniteQuadraticForm(
            orders, tuple(map(Fraction, q_diag)), tuple(tuple(map(Fraction, r)) for r in b_rows)
        )
        want = _brute_force_aut_order(form)
        primary = aut_group(form, method="primary")
        direct = aut_group(form, method="direct")
        assert primary.order() == want
        assert set(primary.elements) == set(direct.elements)
        assert fqf_isomorphism(form, form) is not None


class TestBoundedCaches:
    def test_caches_stop_growing_at_maxsize(self):
        from cuspcount.lattices import _det_cached, _signature_cached

        caches = (_disc_data, _det_cached, _signature_cached)
        for cache in caches:
            assert cache.cache_info().maxsize is not None
        bound = max(cache.cache_info().maxsize for cache in caches)
        for k in range(1, bound + 50):
            discriminant_form(diag(2 * k))
            signature(diag(2 * k))
        for cache in caches:
            info = cache.cache_info()
            assert info.currsize <= info.maxsize

    def test_signature_is_computed_once_per_gram(self):
        from cuspcount.lattices import _signature_cached

        gram = ((0, 3, 0, 0), (3, 0, 0, 0), (0, 0, -2, 1), (0, 0, 1, -4))
        first, second = EvenLattice(gram), EvenLattice(gram)
        before = _signature_cached.cache_info()
        assert signature(first) == signature(second) == _signature_cached.__wrapped__(gram) == (1, 3)
        after = _signature_cached.cache_info()
        assert after.hits + after.misses - before.hits - before.misses == 2
        assert after.misses - before.misses <= 1
