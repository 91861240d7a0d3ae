import pytest
from conftest import random_even_lattice, saturation, signature_oracle, sums, U, diag

from cuspcount import intmat
from cuspcount.errors import (
    BadParams,
    Degenerate,
    DegenerateSublattice,
    NonIntegralRescale,
    NotIsometry,
    NotPrimitive,
    NotSymmetric,
    OddDiagonal,
    UnknownName,
    ZeroVector,
)
from cuspcount.lattices import (
    Embedding,
    EvenLattice,
    LatticeIsometry,
    direct_sum,
    divisor,
    is_primitive,
    make_lattice,
    named_lattice,
    orthogonal_complement,
    rescale,
    signature,
    smith_normal_form,
)


class TestMakeLattice:
    def test_hyperbolic_plane(self):
        assert make_lattice([[0, 1], [1, 0]]).gram == ((0, 1), (1, 0))

    def test_twisted_plane(self):
        assert make_lattice([[0, 3], [3, 0]]).gram == ((0, 3), (3, 0))

    def test_odd_diagonal_rejected(self):
        with pytest.raises(OddDiagonal):
            make_lattice([[2, 1], [1, 3]])

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            make_lattice([[0, 1], [2, 0]])

    def test_degenerate(self):
        with pytest.raises(Degenerate):
            make_lattice([[2, 2], [2, 2]])


class TestNamedLattice:
    def test_u(self):
        assert named_lattice("U").gram == ((0, 1), (1, 0))

    def test_u5(self):
        assert named_lattice("U", (5,)).gram == ((0, 5), (5, 0))

    def test_e8_unimodular_even(self):
        e8 = named_lattice("E8")
        assert abs(e8.det()) == 1
        assert all(x % 2 == 0 for i, x in enumerate(r[i] for i, r in enumerate(e8.gram)))
        assert signature(e8) == (0, 8)
        assert signature(named_lattice("E8", (), "pos")) == (8, 0)

    def test_root_lattices(self):
        assert named_lattice("A", (1,)).gram == ((-2,),)
        assert named_lattice("A", (2,), "pos").gram == ((2, -1), (-1, 2))
        assert abs(named_lattice("D", (4,)).det()) == 4
        assert signature(named_lattice("D", (4,))) == (0, 4)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            named_lattice("U", (0,))
        with pytest.raises(BadParams):
            named_lattice("A", (0,))
        with pytest.raises(UnknownName):
            named_lattice("Z", (2,))


class TestDirectSum:
    def test_block_structure(self):
        s = direct_sum(U(1), U(3))
        assert s.gram == ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 3), (0, 0, 3, 0))
        assert s.det() == U(1).det() * U(3).det()

    def test_empty_identity(self):
        empty = EvenLattice(())
        assert direct_sum(U(3), empty).gram == U(3).gram
        assert direct_sum(empty, U(3)).gram == U(3).gram

    def test_mukai_extension(self):
        s = direct_sum(U(2), U(1))
        assert s.gram == ((0, 2, 0, 0), (2, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))

    def test_det_and_signature_multiplicative(self, rng):
        for _ in range(20):
            a = random_even_lattice(rng, rng.randint(1, 2), 8)
            b = random_even_lattice(rng, rng.randint(1, 2), 8)
            s = direct_sum(a, b)
            assert s.det() == a.det() * b.det()
            pa, qa = signature(a)
            pb, qb = signature(b)
            assert signature(s) == (pa + pb, qa + qb)


class TestRescale:
    def test_u_to_u3(self):
        assert rescale(U(1), 3).gram == U(3).gram

    def test_identity(self):
        assert rescale(U(3), 1).gram == U(3).gram

    def test_rational_unscale(self):
        from fractions import Fraction

        assert rescale(U(4), Fraction(1, 4)).gram == U(1).gram

    def test_non_integral(self):
        from fractions import Fraction

        with pytest.raises(NonIntegralRescale):
            rescale(U(3), Fraction(1, 2))
        with pytest.raises(NonIntegralRescale):
            rescale(diag(2), Fraction(1, 2))


class TestSignature:
    def test_examples(self):
        assert signature(U(1)) == (1, 1)
        assert signature(sums(U(4), U(1))) == (2, 2)
        assert signature(named_lattice("E8")) == (0, 8)

    def test_against_sturm_oracle(self, corpus_lattices):
        for lattice in corpus_lattices:
            assert signature(lattice) == signature_oracle(lattice.gram)

    def test_random_against_oracle(self, rng):
        for _ in range(25):
            lattice = random_even_lattice(rng, rng.randint(1, 4), 10)
            assert signature(lattice) == signature_oracle(lattice.gram)


class TestDivisor:
    def test_examples(self):
        assert divisor(U(3), (1, 0)) == 3
        assert divisor(U(1), (0, 1)) == 1
        assert divisor(sums(U(2), U(1)), (1, 0, 0, 0)) == 2

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            divisor(U(1), (0, 0))

    def test_divides_all_pairings(self, corpus_lattices, rng):
        for lattice in corpus_lattices[:10]:
            v = tuple(rng.randint(-3, 3) for _ in range(lattice.rank))
            if all(x == 0 for x in v):
                continue
            d = divisor(lattice, v)
            for w in intmat.identity(lattice.rank):
                assert lattice.pair(v, w) % d == 0


class TestPrimitivity:
    def test_examples(self):
        assert not is_primitive(U(1), (2, 0))
        assert is_primitive(U(1), (1, 1))
        assert is_primitive(sums(U(3), U(1)), (1, 0, 2, 5))

    def test_unimodular_primitive_vector_has_divisor_one(self, rng):
        uu = sums(U(1), U(1))
        for _ in range(30):
            v = tuple(rng.randint(-4, 4) for _ in range(4))
            if all(x == 0 for x in v) or not is_primitive(uu, v):
                continue
            assert divisor(uu, v) == 1


class TestOrthogonalComplement:
    def test_block(self):
        ambient = sums(U(1), U(3))
        emb = Embedding(ambient, intmat.from_columns([(1, 0, 0, 0), (0, 1, 0, 0)]))
        comp, comp_emb = orthogonal_complement(ambient, emb)
        assert comp.gram == U(3).gram
        assert comp_emb.is_primitive()

    def test_isotropic_line_degenerate(self):
        emb = Embedding(U(1), intmat.from_columns([(1, 0)]))
        with pytest.raises(DegenerateSublattice):
            orthogonal_complement(U(1), emb)
        gram, basis = orthogonal_complement(U(1), emb, allow_degenerate=True)
        assert intmat.shape(basis) == (2, 1)
        assert intmat.columns(basis)[0] == (1, 0)  # e itself spans e^perp

    def test_rank3_complement_contains_line(self):
        ambient = sums(U(2), U(1))
        emb = Embedding(ambient, intmat.from_columns([(1, 0, 0, 0)]))
        gram, basis = orthogonal_complement(ambient, emb, allow_degenerate=True)
        assert intmat.shape(basis) == (4, 3)
        assert intmat.solve_integer(basis, (1, 0, 0, 0)) is not None

    def test_not_primitive(self):
        emb = Embedding(U(1), intmat.from_columns([(2, 0)]))
        with pytest.raises(NotPrimitive):
            orthogonal_complement(U(1), emb)

    def test_double_complement_is_saturation(self, rng):
        ambient = sums(U(1), diag(-2, -4))
        checked = 0
        while checked < 10:
            v = tuple(rng.randint(-3, 3) for _ in range(4))
            if all(x == 0 for x in v) or intmat.vec_gcd(v) != 1:
                continue
            if ambient.norm(v) == 0:
                continue
            emb = Embedding(ambient, intmat.from_columns([v]))
            _, comp_emb = orthogonal_complement(ambient, emb)
            _, double_emb = orthogonal_complement(ambient, comp_emb)
            span_dd = intmat.hnf_rows(intmat.transpose(double_emb.matrix))
            span_sat = intmat.hnf_rows(intmat.transpose(saturation(emb.matrix)))
            assert span_dd == span_sat
            checked += 1


class TestSmithNormalForm:
    def test_identity(self):
        left, d, right = smith_normal_form(intmat.identity(3))
        assert d == intmat.identity(3)

    def test_examples(self):
        left, d, right = smith_normal_form(((0, 3), (3, 0)))
        assert (d[0][0], d[1][1]) == (3, 3)
        assert intmat.matmul(intmat.matmul(left, d), right) == ((0, 3), (3, 0))
        _, d2, _ = smith_normal_form(((2, 0), (0, 4)))
        assert (d2[0][0], d2[1][1]) == (2, 4)


class TestIsometries:
    def test_composition_closes(self):
        uu = sums(U(1), U(1))
        swap = LatticeIsometry(
            uu, intmat.from_columns([(0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)])
        )
        minus = LatticeIsometry.minus_identity(uu)
        comp = swap.compose(minus)
        assert comp.matrix == tuple(tuple(-x for x in row) for row in swap.matrix)
        assert comp.compose(comp).matrix == intmat.identity(4)

    def test_rejects_non_isometry(self):
        with pytest.raises(NotIsometry):
            LatticeIsometry(U(1), ((1, 1), (0, 1)))

    def test_rejects_every_non_unimodular_matrix(self, corpus_lattices, rng):
        # the Gram check alone rejects these: M^T G M = G forces det(M)^2 = 1
        for _ in range(400):
            lattice = rng.choice(corpus_lattices + [random_even_lattice(rng, rng.randint(1, 4))])
            n = lattice.rank
            scale = rng.choice([0, 2, -2, 3])
            skewed = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                skewed[i][i] = rng.choice([0, 2, 3])
            candidates = [
                intmat.freeze([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]),
                tuple(tuple(scale * x for x in row) for row in intmat.identity(n)),
                intmat.matmul(LatticeIsometry.minus_identity(lattice).matrix, intmat.freeze(skewed)),
            ]
            for mat in candidates:
                if intmat.det(mat) in (1, -1):
                    continue
                with pytest.raises(NotIsometry):
                    LatticeIsometry(lattice, mat)

    def test_inverse(self):
        iso = LatticeIsometry(U(3), ((0, 1), (1, 0)))
        assert iso.inverse().matrix == iso.matrix
