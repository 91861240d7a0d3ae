import itertools
import operator
import random
from fractions import Fraction
from math import isqrt, lcm

import pytest

from cuspcount import genus, intmat
from cuspcount.discriminant import FiniteQuadraticForm, FqfIsometry, FqfSubgroup, _group_tables, _p_valuation
from cuspcount.errors import LatticeError, NotRank2
from cuspcount.lattices import direct_sum, make_lattice, named_lattice, signature


def U(r=1):
    return named_lattice("U", (r,))


def diag(*entries):
    return named_lattice("diag", entries)


def sums(*lattices):
    out = lattices[0]
    for latt in lattices[1:]:
        out = direct_sum(out, latt)
    return out


def corpus():
    """Deterministic test corpus: 24 lattices of rank <= 4."""
    a2_neg = named_lattice("A", (2,))
    return [
        U(1),
        U(2),
        U(3),
        U(4),
        U(5),
        U(6),
        sums(U(1), U(1)),
        sums(U(1), U(2)),
        sums(U(1), U(3)),
        sums(U(2), U(2)),
        sums(U(2), U(3)),
        sums(U(2), U(1)),
        sums(U(1), diag(-2)),
        sums(U(1), diag(-4)),
        sums(U(1), diag(-6)),
        sums(U(1), diag(2)),
        diag(2, -2),
        diag(2, -4),
        diag(4, -6),
        diag(2, -2, -2),
        sums(U(1), diag(-2, -2)),
        a2_neg,
        sums(a2_neg, U(1)),
        diag(6, -2),
    ]


@pytest.fixture(scope="session")
def corpus_lattices():
    return corpus()


@pytest.fixture()
def rng():
    return random.Random(20240817)


# --- test-only helpers ------------------------------------------------------


def random_unimodular(n: int, rng, steps: int = 12):
    """Random unimodular matrix from elementary ops (deterministic given rng)."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return intmat.freeze(m)


def negated(form) -> FiniteQuadraticForm:
    """The form (A, -q) on the same generators."""
    return FiniteQuadraticForm(
        form.orders,
        [(-q) % 2 for q in form.q_diag],
        [[(-b) % 1 for b in row] for row in form.b_mat],
    )


def smith_diagonal(mat) -> tuple:
    """The diagonal of the Smith form, read off snf_transforms."""
    _, d, _ = intmat.snf_transforms(mat)
    return tuple(d[i][i] for i in range(min(intmat.shape(d))))


def saturation(cols_mat):
    """Saturation of the column span inside Z^n (double annihilator)."""
    ann = intmat.kernel_basis(intmat.transpose(cols_mat))
    return intmat.kernel_basis(intmat.transpose(ann))


def classify(data, x) -> tuple:
    """Class in the discriminant group of a dual vector x (rational coords),
    for the _DiscData of its lattice."""
    d = lcm(*(Fraction(val).denominator for val in x))
    return data.class_of(tuple(int(Fraction(val) * d) for val in x), d)


# --- independent oracles ----------------------------------------------------


def det_oracle(gram) -> Fraction:
    """Determinant by plain fraction Gaussian elimination (not Bareiss)."""
    n = len(gram)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in gram]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def signature_oracle(gram):
    """Count positive/negative eigenvalues (with multiplicity) via Sturm
    root counting on the square-free layers of the characteristic polynomial."""
    import sympy

    n = len(gram)
    if n == 0:
        return (0, 0)
    lam = sympy.Symbol("lam")
    poly = sympy.Poly(sympy.Matrix(gram).charpoly(lam), lam)
    pos = neg = 0
    _, layers = sympy.sqf_list(poly)
    for factor, mult in layers:
        factor = sympy.Poly(factor, lam)
        pos += mult * factor.count_roots(0, sympy.oo)
        neg += mult * factor.count_roots(-sympy.oo, 0)
    return (int(pos), int(neg))


def random_even_lattice(rng, rank, entry_bound=20):
    """Random nondegenerate even lattice (deterministic given rng)."""
    while True:
        g = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            g[i][i] = 2 * rng.randint(-entry_bound // 2, entry_bound // 2)
            for j in range(i + 1, rank):
                g[i][j] = g[j][i] = rng.randint(-entry_bound, entry_bound)
        if det_oracle(g) != 0:
            return make_lattice(g)


# --- references for the O(A, q) search and the form constructor -------------


def reference_candidates(form, pool, gen_orders, gen_q) -> list:
    """Per generator, the (x, pairing row) of the pool elements x that match
    its element order and q numerator, in pool order: each element's full
    pairing row, element_order and _qn_paired, the scan _candidates made
    over a list of |A_p| elements before it walked coordinate ranges."""
    buckets = {(o, q): [] for o, q in zip(gen_orders, gen_q)}
    for x in pool:
        pairing = form._pairing(x)
        bucket = buckets.get((form.element_order(x), form._qn_paired(x, pairing)))
        if bucket is not None:
            bucket.append((x, pairing))
    return [buckets[o, q] for o, q in zip(gen_orders, gen_q)]


def unpacked(form, lists) -> list:
    """Candidate lists of (x, P(x), R(x)) read back field by field as (x,
    coordinates, pairing row): P holds x_t in field t and R holds row_t in
    field k-1-t, each w bits wide."""
    k, w = form.ngens, form._w
    mask = (1 << w) - 1

    def fields(value):
        return tuple(value >> w * t & mask for t in range(k))

    return [[(x, fields(p), fields(r)[::-1]) for x, p, r in pool] for pool in lists]


def reference_block_tables(form, block) -> tuple:
    """(gen_b, gen_q) of a block through _bn and _qn on its vectors h_i."""
    return [[form._bn(g, h) for h in block.hgens] for g in block.hgens], tuple(form._qn(h) for h in block.hgens)


def reference_narrow(n, later, row, wants):
    narrowed = []
    for pool, want in zip(later, wants):
        kept = [c for c in pool if sum(map(operator.mul, c[0], row)) % n == want]
        if not kept:
            return None
        narrowed.append(kept)
    return narrowed


def reference_forward_images(n, candidates, gen_b, images):
    """The forward-checking DFS on (x, pairing row) lists that narrows every
    later list, the last one too, before it places the next image."""
    if not candidates:
        yield tuple(images)
        return
    i = len(images)
    later = candidates[1:]
    wants = [gen_b[j][i] for j in range(i + 1, i + 1 + len(later))]
    for x, row in candidates[0]:
        narrowed = reference_narrow(n, later, row, wants)
        if narrowed is not None:
            images.append(x)
            yield from reference_forward_images(n, narrowed, gen_b, images)
            images.pop()


def reference_chain(form, block) -> tuple:
    """The stabilizer chain of a block (ident, levels) on (x, pairing row)
    lists from reference_candidates and tables from _bn and _qn, each
    candidate's later lists narrowed in full before its first completion is
    taken: the route _stabilizer_chain took before it packed its pairings."""
    k, n = form.ngens, form._n
    gen_b, gen_q = reference_block_tables(form, block)

    def contribution(sigma):
        cols = [form.zero()] * k
        for i, w, image in zip(block.idxs, block.weights, sigma):
            cols[i] = form.scale(w, image)
        return tuple(zip(*cols))

    candidates = reference_candidates(form, itertools.product(*block.axes), block.gen_orders, gen_q)
    levels = []
    for i, h in enumerate(block.hgens):
        first, later = candidates[0], candidates[1:]
        wants = [gen_b[j][i] for j in range(i + 1, len(block.hgens))]
        level = []
        for y, row in first:
            narrowed = reference_narrow(n, later, row, wants)
            if narrowed is not None:
                sigma = next(reference_forward_images(n, narrowed, gen_b, [*block.hgens[:i], y]), None)
                if sigma is not None:
                    level.append(contribution(sigma))
        row = next(row for x, row in first if x == h)
        candidates = reference_narrow(n, later, row, wants)
        levels.append(level)
    return contribution(block.hgens), levels


def reference_class_of(data, w, d: int) -> tuple:
    """The class of w / d through two products, G w and then U (G w / d),
    the route _DiscData.class_of took before it read U G."""
    y = intmat.matvec(data.lattice.gram, w)
    if any(val % d for val in y):
        raise LatticeError("vector is not in the dual lattice")
    c = intmat.matvec(data.u, tuple(val // d for val in y))
    return tuple(c[idx] % data.dvec[idx] for idx in data.keep)


def reference_image_assignments(form, pool, gen_orders, gen_q, gen_b):
    """The block search checked node by node: candidates bucketed by element
    order and form._qn, and each candidate tested at its node against the
    pairing row of every image placed before it.  Yields the image tuples."""
    buckets = {(o, q): [] for o, q in zip(gen_orders, gen_q)}
    for x in pool:
        bucket = buckets.get((form.element_order(x), form._qn(x)))
        if bucket is not None:
            bucket.append((x, form._pairing(x)))
    candidates = [buckets[o, q] for o, q in zip(gen_orders, gen_q)]
    yield from reference_place_images(form._n, candidates, gen_b, [], [])


def reference_place_images(n, candidates, gen_b, images, pairings):
    i = len(images)
    if i == len(candidates):
        yield tuple(images)
        return
    wants = gen_b[i]
    for x, row in candidates[i]:
        for pairing, want in zip(pairings, wants):
            if sum(map(operator.mul, x, pairing)) % n != want:
                break
        else:
            images.append(x)
            pairings.append(row)
            yield from reference_place_images(n, candidates, gen_b, images, pairings)
            images.pop()
            pairings.pop()


def reference_full_group(form) -> list:
    """The sorted reduced matrices of O(A, q) by the full enumeration of
    each p-primary block, stitched over every tuple of one solution per
    block: the route aut_group took before it kept a stabilizer chain."""
    k, exponent, orders = form.ngens, form.exponent(), form.orders
    blocks = []
    for p, idxs in _group_tables(orders)[1]:
        pe_n = p ** _p_valuation(exponent, p)
        m = exponent // pe_n
        idem = m * pow(m, -1, pe_n)
        pe = [p ** _p_valuation(orders[i], p) for i in idxs]
        hgens, weights, axes = [], [], [(0,)] * k
        for i, q in zip(idxs, pe):
            coords = [0] * k
            coords[i] = orders[i] // q
            hgens.append(tuple(coords))
            weights.append((idem % orders[i]) // (orders[i] // q))
            axes[i] = range(0, orders[i], orders[i] // q)
        pool = list(itertools.product(*axes))
        gen_b = [[form._bn(g, h) for h in hgens] for g in hgens]
        gen_q = [form._qn(h) for h in hgens]
        contributions = []
        for sigma in reference_image_assignments(form, pool, pe, gen_q, gen_b):
            cols = [form.zero()] * k
            for i, w, image in zip(idxs, weights, sigma):
                cols[i] = form.scale(w, image)
            contributions.append(tuple(zip(*cols)))
        blocks.append(contributions)
    return sorted(
        tuple(tuple(sum(entries) % d for entries in zip(*rows)) for d, *rows in zip(orders, *combo))
        for combo in itertools.product(*blocks)
    )


def reference_subgroup(form, generators) -> FqfSubgroup:
    """The closure of the generators under intmat.matmul, each new product
    built through the validating FqfIsometry constructor: the route
    fqf_subgroup took before it built its products certified."""
    gens = tuple(generators)
    ident = FqfIsometry(form, intmat.identity(form.ngens))
    seen = {ident}
    queue = [ident]
    while queue:
        x = queue.pop()
        for g in gens:
            y = FqfIsometry(form, intmat.matmul(g.matrix, x.matrix))
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return FqfSubgroup(form, tuple(sorted(seen, key=lambda iso: iso.matrix)))


def reference_form_tables(lattice) -> tuple:
    """(orders, q_diag, b_mat) of the discriminant form, in Fractions: g_a =
    v_a / d_a for the columns v_a of V with U G V = diag(d) and d_a > 1."""
    n = lattice.rank
    if not n:
        return (), (), ()
    _, d, v = intmat.snf_transforms(lattice.gram)
    keep = [i for i in range(n) if d[i][i] != 1]
    cols = intmat.columns(v)
    lifts = [cols[i] for i in keep]
    dkeep = [d[i][i] for i in keep]
    q_diag = tuple(Fraction(lattice.pair(va, va), da * da) % 2 for va, da in zip(lifts, dkeep))
    b_mat = tuple(
        tuple(Fraction(lattice.pair(va, vb), da * db) % 1 for vb, db in zip(lifts, dkeep))
        for va, da in zip(lifts, dkeep)
    )
    return tuple(dkeep), q_diag, b_mat


def reference_validate(orders, q_diag, b_mat) -> tuple:
    """The Fraction checks of a q/b table, in order, each raising its
    LatticeError; on success the numerators over the exponent N, N q(g_i)
    and N b(g_i, g_j)."""
    orders = tuple(orders)
    k = len(orders)
    for i in range(k - 1):
        if orders[i + 1] % orders[i] != 0:
            raise LatticeError("invariant factors must form a divisibility chain")
    if any(d < 2 for d in orders):
        raise LatticeError("invariant factors must be > 1")
    if len(q_diag) != k or len(b_mat) != k:
        raise LatticeError("q/b tables do not match the generator count")
    for i in range(k):
        qi = q_diag[i]
        if not (0 <= qi < 2):
            raise LatticeError("q values must be canonical residues in [0, 2)")
        if (qi * orders[i] ** 2) % 2 != 0:
            raise LatticeError("q value incompatible with the generator order")
        if len(b_mat[i]) != k:
            raise LatticeError("b matrix is not square")
        if b_mat[i][i] != qi % 1:
            raise LatticeError("b(g,g) must reduce q(g) mod 1")
        for j in range(k):
            bij = b_mat[i][j]
            if not (0 <= bij < 1) or bij != b_mat[j][i]:
                raise LatticeError("b must be symmetric with residues in [0, 1)")
            if (bij * orders[i]) % 1 != 0 or (bij * orders[j]) % 1 != 0:
                raise LatticeError("b value incompatible with the generator orders")
    n = orders[-1] if orders else 1
    q_num = tuple(int(q * n) for q in q_diag)
    b_num = tuple(tuple(int(b * n) for b in row) for row in b_mat)
    for p, idxs in _group_tables(orders)[1]:
        socle = tuple(tuple(orders[i] * b_num[i][j] // n for j in idxs) for i in idxs)
        if intmat.det(socle) % p == 0:
            raise LatticeError("b must be nondegenerate")
    return q_num, b_num


def reference_equivalent_rank2(left, right):
    """genus.equivalent_rank2 without the equal-Gram shortcut: every pair
    takes the reduction route, equal Grams included."""
    if left.rank != 2 or right.rank != 2:
        raise NotRank2("both lattices must have rank 2")
    if left.det() != right.det() or signature(left) != signature(right):
        return None
    det = left.det()
    tl, tr = genus._triple_of(left), genus._triple_of(right)
    if det > 0:
        sign = 1 if left.gram[0][0] > 0 else -1
        canon_l, basis_l = genus._reduce_definite(tuple(sign * x for x in tl))
        canon_r, basis_r = genus._reduce_definite(tuple(sign * x for x in tr))
        if canon_l != canon_r:
            return None
        return genus._witness(left, right, basis_l, basis_r)
    d = -det
    k = isqrt(d)
    if k * k == d:
        pairs_l = [genus._line_normal_form(left, line) for line in genus._isotropic_lines(tl)]
        pairs_r = [genus._line_normal_form(right, line) for line in genus._isotropic_lines(tr)]
        for a_l, _, basis_l in pairs_l:
            for a_r, _, basis_r in pairs_r:
                if a_l == a_r:
                    return genus._witness(left, right, basis_l, basis_r)
        return None
    red_l, basis_l = genus._reduce_indefinite(tl, d)
    for flip in (None, genus._FLIP):
        triple_r = tr if flip is None else genus._apply(tr, flip)
        pre = intmat.identity(2) if flip is None else flip
        red_r, basis_r = genus._reduce_indefinite(triple_r, d)
        for form, walk in genus._cycle_walk(red_r, d):
            if form == red_l:
                total_r = intmat.matmul(intmat.matmul(pre, basis_r), walk)
                return genus._witness(left, right, basis_l, total_r)
    return None
