import itertools
import random

import pytest
from conftest import U, det_oracle, diag, random_unimodular, sums
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cuspcount import intmat, isotropic
from cuspcount.cli import parse_lattice_spec
from cuspcount.discriminant import _prime_factors, natural_map
from cuspcount.errors import (
    DivisorNotOne,
    DoesNotFixL,
    NoneFoundInWindow,
    NotIsotropicPlane,
    VectorNotInComplement,
)
from cuspcount.genus import equivalent_rank2
from cuspcount.isotropic import (
    IsotropicPlane,
    check_div_square,
    classify_i1_orbits,
    enumerate_isotropic,
    _prefix_points,
    hyperbolic_completion,
    is_standard_plane,
    projection_isometry,
    quotient_lattice,
    section_vector,
    split_from_pair,
    stabilizer_compose,
    stabilizer_decompose,
    transvection,
)
from cuspcount.lattices import (
    Embedding,
    LatticeIsometry,
    divisor,
    is_indefinite,
    is_primitive,
    make_lattice,
)


class TestEnumerate:
    def test_hyperbolic_plane(self):
        found = enumerate_isotropic(U(1), 1)
        assert [iv.vector for iv in found] == [(0, 1), (1, 0)]
        assert all(iv.divisor == 1 for iv in found)

    def test_twisted_plane(self):
        found = enumerate_isotropic(U(3), 2)
        assert [iv.vector for iv in found] == [(0, 1), (1, 0)]
        assert all(iv.divisor == 3 for iv in found)

    def test_split_diagonal(self):
        found = enumerate_isotropic(diag(2, -2), 1)
        assert [iv.vector for iv in found] == [(1, -1), (1, 1)]
        assert all(iv.divisor == 2 for iv in found)

    def test_definite_empty(self):
        assert enumerate_isotropic(diag(-2, -4), 3) == []

    def test_output_contract(self, corpus_lattices):
        for lattice in corpus_lattices:
            for iv in enumerate_isotropic(lattice, 2):
                assert lattice.norm(iv.vector) == 0
                assert is_primitive(lattice, iv.vector)
                assert divisor(lattice, iv.vector) == iv.divisor

    def test_square_free_dets_have_divisor_one(self, corpus_lattices):
        for lattice in corpus_lattices:
            det = abs(lattice.det())
            if any(det % (p * p) == 0 for p in _prime_factors(det)):
                continue
            for iv in enumerate_isotropic(lattice, 4):
                assert iv.divisor == 1


def reference_enumerate(lattice, height_bound):
    """The full (2h+1)^n box scan that the prefix scan replaced, as
    (vector, divisor) pairs."""
    n = lattice.rank
    if n == 0 or not is_indefinite(lattice):
        return []
    found = set()
    for coords in itertools.product(range(-height_bound, height_bound + 1), repeat=n):
        if all(x == 0 for x in coords):
            continue
        if intmat.vec_gcd(coords) != 1:
            continue
        lead = next(x for x in coords if x)
        v = coords if lead > 0 else tuple(-x for x in coords)
        if v in found:
            continue
        if lattice.norm(v) == 0:
            found.add(v)
    return [(v, divisor(lattice, v)) for v in sorted(found)]


def _small_block(draw):
    if draw(st.booleans()):
        return [[2 * draw(st.integers(-3, 3).filter(bool))]]
    a, b, c = draw(st.integers(-3, 3)), draw(st.integers(-3, 3)), draw(st.integers(-4, 4))
    return [[2 * a, c], [c, 2 * b]]


@st.composite
def indefinite_grams(draw):
    """U(r) or diag(2a, -2b), plus small blocks up to rank 5, with the
    coordinates shuffled and then put in a random unimodular basis."""
    r, s = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    blocks = [[[0, r], [r, 0]] if draw(st.booleans()) else [[2 * r, 0], [0, -2 * s]]]
    target = draw(st.integers(2, 5))
    while sum(len(b) for b in blocks) < target:
        block = _small_block(draw)
        if sum(len(b) for b in blocks) + len(block) <= 5:
            blocks.append(block)
    n = sum(len(b) for b in blocks)
    gram = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            gram[at + i][at : at + len(row)] = row
        at += len(block)
    assume(det_oracle(gram) != 0)
    perm = draw(st.permutations(range(n)))
    gram = [[gram[i][j] for j in perm] for i in perm]
    steps = draw(st.integers(0, 4))
    if steps:
        u = random_unimodular(n, random.Random(draw(st.integers(0, 2**16))), steps)
        gram = intmat.matmul(intmat.matmul(intmat.transpose(u), gram), u)
    return [list(row) for row in gram]


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(indefinite_grams(), st.integers(1, 4))
@example([[2, 0], [0, -2]], 3)  # a != 0, beta^2 - aQ a square
@example([[-2, 0, 0], [0, 0, 1], [0, 1, 0]], 3)  # U last: a = 0
@example([[0, 2, 0], [2, 0, 0], [0, 0, -2]], 3)  # U(2) first, a != 0
@example([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], 2)  # U+U: a = beta = Q = 0
@example([[2, 0, 0], [0, -2, 0], [0, 0, 2]], 2)  # beta^2 - aQ < 0 at x' = (1, 0)
@example([[8, 0], [0, -2]], 1)  # both roots t = +-2 outside the window
@example([[0, 3, 0, 0], [3, 0, 0, 0], [0, 0, -2, 1], [0, 0, 1, -2]], 4)  # U(3)+A(2)
@example([[0, 2], [2, 0]], 3)  # rank 2: empty head, zero prefix only
@example([[2, 1], [1, -4]], 3)  # rank 2 with a != 0 and e != 0
@example([[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, -2, 0, 0], [0, 0, 0, -2, 1], [0, 0, 0, 1, -2]], 3)  # A(2) last
@example([[-2, 1, 0, 0], [1, -2, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], 3)  # U last: a = d = 0, e != 0
@example([[2, 0, 0, 0, 0], [0, -2, 1, 0, 0], [0, 1, -2, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 1, 0]], 3)  # <2>+A(2)+U
@example([[-2, 1, 0], [1, -2, 2], [0, 2, -2]], 4)  # trailing block with e^2 = ad: D(z) linear in z
@example([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, -2]], 3)  # U+diag(2,-2): a < 0, e^2 - ad > 0
def test_prefix_scan_matches_box_scan(gram, h):
    """The vectors and divisors of the full box scan, in its order.  With
    TestPrefixPoints this catches four broken scans: the roots of an a < 0
    head not put in ascending order, a double root listed twice, G y
    carrying only its entries j >= k (wrong divisors), and gcd(y) dropped
    from the primitivity test (vectors with gcd(z, t) != 1 lost)."""
    lattice = make_lattice(gram)
    h = min(h, 3) if lattice.rank == 5 else h  # keeps the reference box at <= 7^5 points
    got = [(iv.vector, iv.divisor) for iv in enumerate_isotropic(lattice, h)]
    assert got == reference_enumerate(lattice, h)


def _head_norm(a, e, d, beta, m, q, z, t):
    """The norm of (y, z, t), from the state that the scan keeps for its head y."""
    return a * t * t + 2 * (beta + e * z) * t + q + 2 * m * z + d * z * z


def test_scan_rechecks_the_norm(monkeypatch):
    """A prefix solver that returns only non-roots must trip the norm re-check
    of every vector the scan yields, before section_vector can return one."""

    def non_roots(a, e, d, beta, m, q, h, zs):
        return [(z, t) for z in zs for t in range(-h, h + 1) if _head_norm(a, e, d, beta, m, q, z, t)]

    isotropic._window.cache_clear()  # a shared window read before would skip the scan
    monkeypatch.setattr(isotropic, "_prefix_points", non_roots)
    lattice = parse_lattice_spec("U+A(2)")
    assert lattice.gram[-1][-1] != 0  # no zero-prefix vector before the walk
    with pytest.raises(AssertionError, match="not isotropic"):
        enumerate_isotropic(lattice, 2)
    with pytest.raises(AssertionError, match="not isotropic"):
        section_vector(lattice, 2)


def _brute_points(a, e, d, beta, m, q, h, zs):
    return [(z, t) for z in zs for t in range(-h, h + 1) if _head_norm(a, e, d, beta, m, q, z, t) == 0]


class TestPrefixPoints:
    """Every (z, t) with |t| <= h and a t^2 + 2 (beta + e z) t + (q + 2 m z + d z^2) = 0,
    ascending in z, then t; one case per branch."""

    @pytest.mark.parametrize(
        "a, beta, q, h, want",
        [
            (2, 0, -2, 3, [-1, 1]),  # a > 0, both roots
            (-2, 0, 2, 3, [-1, 1]),  # a < 0, still ascending
            (2, 2, 0, 3, [-2, 0]),  # roots -2 and 0
            (2, -2, 2, 3, [1]),  # double root, beta^2 - aq = 0
            (4, 1, 0, 3, [0]),  # second root -1/2 is not an integer
            (2, 0, -4, 3, []),  # beta^2 - aq = 8 is not a square
            (2, 0, 2, 3, []),  # beta^2 - aq < 0
            (2, 0, -32, 3, []),  # roots +-4 outside the window
            (2, 0, -32, 4, [-4, 4]),
            (0, 1, -4, 3, [2]),  # a = 0: 2 t - 4 = 0
            (0, 2, 2, 3, []),  # a = 0: 4 t + 2 = 0 has no integer root
            (0, -1, 8, 3, []),  # a = 0: root 4 outside the window
            (0, 0, 0, 2, [-2, -1, 0, 1, 2]),  # every t
            (0, 0, 2, 2, []),  # a = beta = 0, q != 0
        ],
    )
    def test_z_zero(self, a, beta, q, h, want):
        assert _prefix_points(a, 0, 0, beta, 0, q, h, (0,)) == [(0, t) for t in want]

    @pytest.mark.parametrize(
        "a, e, d, beta, m, q, h, want",
        [
            # e^2 - ad = 4 > 0, a < 0: t = +-z, the double root t = 0 once
            (-2, 0, 2, 0, 0, 0, 2, [(-2, -2), (-2, 2), (-1, -1), (-1, 1), (0, 0), (1, -1), (1, 1), (2, -2), (2, 2)]),
            # e^2 - ad = -3 < 0: t^2 + z t + z^2 = 1, D(z) < 0 at z = +-2
            (2, 1, 2, 0, 0, -2, 2, [(-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)]),
            # e^2 = ad: -2 (t - z)^2 = 0, a double root per z, cut by the window at z = +-2
            (-2, 2, -2, 0, 0, 0, 1, [(-1, -1), (0, 0), (1, 1)]),
            # a = 0, e != 0: 2 (1 + z) t = 0, every t where beta + e z = 0
            (0, 1, 0, 1, 0, 0, 1, [(-2, 0), (-1, -1), (-1, 0), (-1, 1), (0, 0), (1, 0), (2, 0)]),
            # a = e = 0: 2 - 2 z^2 = 0 at z = +-1, with every t
            (0, 0, -2, 0, 0, 2, 1, [(-1, -1), (-1, 0), (-1, 1), (1, -1), (1, 0), (1, 1)]),
        ],
    )
    def test_branches(self, a, e, d, beta, m, q, h, want):
        zs = range(-2, 3)
        assert _prefix_points(a, e, d, beta, m, q, h, zs) == want == _brute_points(a, e, d, beta, m, q, h, zs)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(-4, 4), st.integers(-3, 3), st.integers(-4, 4),
        st.integers(-6, 6), st.integers(-6, 6), st.integers(-12, 12), st.integers(1, 3), st.booleans(),
    )
    def test_every_root_in_order(self, a, e, d, beta, m, q, h, positive):
        zs = range(1, h + 1) if positive else range(-h, h + 1)
        assert _prefix_points(a, e, d, beta, m, q, h, zs) == _brute_points(a, e, d, beta, m, q, h, zs)

    def test_every_last_coordinate(self):
        vectors = [iv.vector for iv in enumerate_isotropic(sums(U(1), U(1)), 2)]
        assert all((1, 0, 0, t) in vectors for t in range(-2, 3))

    def test_root_outside_window(self):
        assert enumerate_isotropic(diag(8, -2), 1) == []
        found = enumerate_isotropic(diag(8, -2), 2)
        assert [iv.vector for iv in found] == [(1, -2), (1, 2)]


ISO_WINDOW_TIERS = (
    ("U+diag(-2,-2)", 4),
    ("U+A(2)", 4),
    ("U(2)+diag(-2,-2)", 4),
    ("U+diag(-2,-4)", 4),
    ("U(2)+A(2)", 4),
    ("U+diag(-2,-6)", 4),
    ("U+diag(-2,-2,-2)", 3),
    ("U+A(3)", 3),
)


def _signed_permutation(lattice, rng):
    n = lattice.rank
    perm = rng.sample(range(n), n)
    mat = [[rng.choice((-1, 1)) if perm[j] == i else 0 for j in range(n)] for i in range(n)]
    return make_lattice(intmat.matmul(intmat.matmul(intmat.transpose(mat), lattice.gram), mat))


def test_section_vector_is_first_divisor_one(corpus_lattices, rng):
    cases = [(lattice, h) for lattice in corpus_lattices for h in (1, 2, 3)]
    for label, bound in ISO_WINDOW_TIERS:
        lattice = parse_lattice_spec(label)
        cases += [(lattice, bound)] + [(_signed_permutation(lattice, rng), bound) for _ in range(2)]
    nones = 0
    for lattice, h in cases:
        first = next((iv.vector for iv in enumerate_isotropic(lattice, h) if iv.divisor == 1), None)
        assert section_vector(lattice, h) == first
        nones += first is None
    assert 0 < nones < len(cases)


class TestHyperbolicCompletion:
    def test_u_itself(self):
        split = hyperbolic_completion(U(1), (0, 1))
        assert split.complement.rank == 0
        assert U(1).pair(split.f_image, split.e_image) == 1

    def test_block_split(self):
        ambient = sums(U(1), U(3))
        split = hyperbolic_completion(ambient, (0, 1, 0, 0))
        assert equivalent_rank2(split.complement, U(3)) is not None

    def test_u2_block(self):
        ambient = sums(U(2), U(1))
        split = hyperbolic_completion(ambient, (0, 0, 0, 1))
        assert equivalent_rank2(split.complement, U(2)) is not None

    def test_divisor_not_one(self):
        with pytest.raises(DivisorNotOne):
            hyperbolic_completion(U(2), (1, 0))

    def test_choice_independence_up_to_isometry(self):
        # varying the hyperbolic partner never changes the complement class
        ambient = sums(U(1), U(2))
        split = hyperbolic_completion(ambient, (0, 1, 0, 0))
        alt = split_from_pair(ambient, (0, 1, 0, 0), (1, -2, 1, 1))
        assert alt.e_image != split.e_image
        assert equivalent_rank2(split.complement, alt.complement) is not None


class TestQuotient:
    def test_rank_zero(self):
        assert quotient_lattice(U(1), (0, 1)).rank == 0

    def test_divisor_two_axis(self):
        ambient = sums(U(2), U(1))
        quot = quotient_lattice(ambient, (1, 0, 0, 0))
        assert quot.gram == U(1).gram
        assert check_div_square(ambient, (1, 0, 0, 0))

    def test_e8_block(self):
        from cuspcount.lattices import named_lattice, signature

        ambient = sums(U(1), named_lattice("E8"))
        quot = quotient_lattice(ambient, (0, 1) + (0,) * 8)
        assert abs(quot.det()) == 1
        assert signature(quot) == (0, 8)

    def test_div_square_on_corpus(self, corpus_lattices):
        for lattice in corpus_lattices:
            for iv in enumerate_isotropic(lattice, 4):
                assert check_div_square(lattice, iv.vector)


class TestTransvections:
    def _block_split(self):
        return split_from_pair(sums(U(1), U(1)), (0, 1, 0, 0), (1, 0, 0, 0))

    def test_zero_gives_identity(self):
        split = self._block_split()
        assert transvection(split, (0, 0, 0, 0)).matrix == intmat.identity(4)

    def test_example_shift(self):
        split = self._block_split()
        iso = transvection(split, (0, 0, 1, 1))
        # (v, v) = 2, so the partner moves by v - l
        assert iso.apply((1, 0, 0, 0)) == (1, -1, 1, 1)
        assert iso.apply((0, 1, 0, 0)) == (0, 1, 0, 0)

    def test_not_in_complement(self):
        split = self._block_split()
        with pytest.raises(VectorNotInComplement):
            transvection(split, (1, 0, 0, 0))

    def test_additivity_and_triviality(self, rng):
        ambient = sums(U(1), U(2))
        split = split_from_pair(ambient, (0, 1, 0, 0), (1, 0, 0, 0))
        for _ in range(25):
            v = split.to_ambient((rng.randint(-4, 4), rng.randint(-4, 4)))
            w = split.to_ambient((rng.randint(-4, 4), rng.randint(-4, 4)))
            tv, tw = transvection(split, v), transvection(split, w)
            tvw = transvection(split, tuple(a + b for a, b in zip(v, w)))
            assert tv.compose(tw).matrix == tvw.matrix
            assert natural_map(ambient, tv).is_identity()


class TestStabilizer:
    def test_identity(self):
        split = split_from_pair(sums(U(1), U(1)), (0, 1, 0, 0), (1, 0, 0, 0))
        h, v = stabilizer_decompose(split, LatticeIsometry.identity(split.lattice))
        assert h.matrix == intmat.identity(2)
        assert v == (0, 0, 0, 0)

    def test_transvection_kernel(self):
        split = split_from_pair(sums(U(1), U(1)), (0, 1, 0, 0), (1, 0, 0, 0))
        vec = (0, 0, 2, -1)
        h, v = stabilizer_decompose(split, transvection(split, vec))
        assert h.matrix == intmat.identity(2)
        assert v == vec

    def test_round_trip_random(self, rng):
        ambient = sums(U(1), U(2))
        split = split_from_pair(ambient, (0, 1, 0, 0), (1, 0, 0, 0))
        comp = split.complement
        comp_isos = [
            LatticeIsometry.identity(comp),
            LatticeIsometry.minus_identity(comp),
            LatticeIsometry(comp, ((0, 1), (1, 0))),
            LatticeIsometry(comp, ((0, -1), (-1, 0))),
        ]
        for _ in range(100):
            h = comp_isos[rng.randrange(len(comp_isos))]
            v = split.to_ambient((rng.randint(-5, 5), rng.randint(-5, 5)))
            g = stabilizer_compose(split, h, v)
            assert g.apply(split.f_image) == split.f_image
            h2, v2 = stabilizer_decompose(split, g)
            assert h2.matrix == h.matrix
            assert v2 == v

    def test_rejects_moving_l(self):
        split = split_from_pair(sums(U(1), U(1)), (0, 1, 0, 0), (1, 0, 0, 0))
        with pytest.raises(DoesNotFixL):
            stabilizer_decompose(split, LatticeIsometry.minus_identity(split.lattice))


class TestProjection:
    def test_same_embedding_identity(self):
        ambient = sums(U(1), U(3))
        split = hyperbolic_completion(ambient, (0, 1, 0, 0))
        emb = Embedding(ambient, intmat.from_columns([split.e_image, split.f_image]))
        iso = projection_isometry(ambient, emb, emb)
        assert iso.matrix == intmat.identity(2)

    def test_transvected_pairs(self, rng):
        # >= 50 random f-sharing pairs across two ambient lattices;
        # LatticeMap construction performs the exact Gram pullback check
        for ambient in (sums(U(1), U(2)), sums(U(1), diag(-2, -4))):
            split = split_from_pair(ambient, (0, 1, 0, 0), (1, 0, 0, 0))
            emb1 = Embedding(
                ambient, intmat.from_columns([split.e_image, split.f_image])
            )
            for _ in range(28):
                v = split.to_ambient((rng.randint(-4, 4), rng.randint(-4, 4)))
                t = transvection(split, v)
                emb2 = Embedding(ambient, intmat.matmul(t.matrix, emb1.matrix))
                iso = projection_isometry(ambient, emb1, emb2)
                assert abs(intmat.det(iso.matrix)) == 1

    def test_u3_e_completions(self):
        # two different e-completions of the same f inside U(3) + U
        ambient = sums(U(3), U(1))
        f = (0, 0, 0, 1)
        split = split_from_pair(ambient, f, (0, 0, 1, 0))
        emb1 = Embedding(ambient, intmat.from_columns([split.e_image, f]))
        t = transvection(split, (1, 0, 0, 0))
        emb2 = Embedding(ambient, intmat.matmul(t.matrix, emb1.matrix))
        assert intmat.columns(emb2.matrix)[0] != split.e_image
        iso = projection_isometry(ambient, emb1, emb2)
        assert equivalent_rank2(iso.source, U(3)) is not None


class TestClassifyOrbits:
    def test_uu_single_class(self):
        classes = classify_i1_orbits(sums(U(1), U(1)), 2)
        assert len(classes) == 1
        assert abs(classes[0].quotient.det()) == 1

    def test_u3_block(self):
        classes = classify_i1_orbits(sums(U(1), U(3)), 2)
        assert len(classes) == 1
        assert equivalent_rank2(classes[0].quotient, U(3)) is not None

    def test_u_rank_zero_quotient(self):
        classes = classify_i1_orbits(U(1), 1)
        assert len(classes) == 1
        assert classes[0].quotient.rank == 0

    def test_none_in_window(self):
        with pytest.raises(NoneFoundInWindow):
            classify_i1_orbits(U(2), 3)

    def test_one_quotient_per_window(self, monkeypatch):
        """U+D(4) at bound 3 has 578 divisor-1 vectors; only the first is quotiented."""
        lattice = parse_lattice_spec("U+D(4)")
        calls = []

        def spy(lat, l):
            calls.append(tuple(l))
            return quotient_lattice(lat, l)

        monkeypatch.setattr(isotropic, "quotient_lattice", spy)
        (cell,) = classify_i1_orbits(lattice, 3)
        div1 = tuple(iv for iv in enumerate_isotropic(lattice, 3) if iv.divisor == 1)
        assert len(div1) > 500
        assert cell.vectors == div1
        assert cell.representative == div1[0]
        assert calls == [div1[0].vector]


class TestStandardPlane:
    def test_twisted_block_plane(self):
        ambient = sums(U(3), U(1))
        plane = IsotropicPlane(ambient, ((0, 0, 0, 1), (1, 0, 0, 0)))
        ok, witness = is_standard_plane(ambient, plane)
        assert ok
        assert ambient.norm(witness) == 0
        pairings = (ambient.pair(witness, plane.basis[0]), ambient.pair(witness, plane.basis[1]))
        assert intmat.vec_gcd(pairings) == 1

    def test_two_twisted_blocks_fail(self):
        ambient = sums(sums(U(2), U(2)), U(1))
        plane = IsotropicPlane(ambient, ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)))
        ok, witness = is_standard_plane(ambient, plane)
        assert not ok and witness is None

    def test_unimodular_plane(self):
        ambient = sums(U(1), U(1))
        plane = IsotropicPlane(ambient, ((0, 1, 0, 0), (0, 0, 0, 1)))
        ok, _ = is_standard_plane(ambient, plane)
        assert ok

    def test_rejects_non_plane(self):
        with pytest.raises(NotIsotropicPlane):
            IsotropicPlane(sums(U(1), U(1)), ((0, 1, 0, 0), (1, 0, 0, 0)))
