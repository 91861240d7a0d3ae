"""Primitive isotropic vectors: enumeration, hyperbolic splittings,
quotients l^perp/Zl, transvections and the stabilizer structure of O(L)^l.

Isotropic enumeration is height-bounded and every result is labelled with
its window; the sets I^d(L) are infinite, so no output ever claims global
completeness.  The window scan walks the sign-normalised half of the
(2h+1)^(n-2) heads of the first n-2 coordinates, keeping the partial norm
and the Gram product G y as running sums.  For each head one solve finds
every isotropic pair of last coordinates (z, t): the norm is a quadratic in
t whose discriminant D(z) is a quadratic in z, and each z with D(z) a
square (math.isqrt) gives its integer roots in ascending t, a double root
once.  A vector found gets G v from G y and two columns of G in O(n)
additions, which re-checks its norm and gives its divisor.

A hyperbolic splitting through a divisor-1 vector l pairs it with the
partner read off the first row of the Hermite form of the rows (G l, e_i),
in time polynomial in the rank; transvect uses it when no m is given.

The queries on one lattice share their work.  enumerate_isotropic and
section_vector read one lazy window per (Gram, h), which advances the scan
only as far as its furthest reader has gone, and quotient_lattice keeps its
last results.  Both memos hold at most four entries, and threads may share
them.  A scan that raises is not kept: every reader that reaches the
failure raises it, and every later call scans again.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from typing import Optional

from . import intmat
from .discriminant import _check_budget
from .errors import (
    DivisorNotOne,
    DoesNotFixL,
    FImagesDiffer,
    NoneFoundInWindow,
    NotIsotropic,
    NotIsotropicPlane,
    VectorNotInComplement,
    ZeroVector,
)
from .intmat import Matrix
from .lattices import (
    Embedding,
    EvenLattice,
    LatticeIsometry,
    LatticeMap,
    _Frozen,
    divisor,
    is_indefinite,
    is_primitive,
    restricted_gram,
)


class IsotropicVector(_Frozen):
    _fields = ("vector", "divisor")

    def __init__(self, vector: tuple, divisor: int):
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "divisor", divisor)


class IsotropicPlane(_Frozen):
    """Primitive isotropic rank-2 sublattice spanned by two vectors, the
    pair of coordinate tuples `basis`."""

    _fields = ("lattice", "basis")

    def __init__(self, lattice: EvenLattice, basis: tuple):
        self._assign(lattice, basis)
        v1, v2 = self.basis
        L = self.lattice
        if L.norm(v1) != 0 or L.norm(v2) != 0 or L.pair(v1, v2) != 0:
            raise NotIsotropicPlane("basis vectors do not span an isotropic plane")
        if intmat.hnf_rows(intmat.from_columns([v1, v2])) != intmat.identity(2):
            raise NotIsotropicPlane("the span is not a primitive rank-2 sublattice")


class HyperbolicSplit(_Frozen):
    """L = U + complement, with (e, f) = 1 and f isotropic of divisor 1."""

    _fields = ("lattice", "e_image", "f_image", "complement", "complement_columns")

    def __init__(
        self, lattice: EvenLattice, e_image: tuple, f_image: tuple, complement: EvenLattice, complement_columns: Matrix
    ):
        self._assign(lattice, e_image, f_image, complement, complement_columns)

    def basis_matrix(self) -> Matrix:
        cols = [self.f_image, self.e_image] + intmat.columns(self.complement_columns)
        return intmat.from_columns(cols)

    def in_complement(self, v) -> Optional[tuple]:
        """Complement coordinates of an ambient vector, or None."""
        return intmat.solve_integer(self.complement_columns, v)

    def to_ambient(self, comp_coords) -> tuple:
        return intmat.matvec(self.complement_columns, comp_coords)


def _prefix_points(a: int, e: int, d: int, beta: int, m: int, q: int, h: int, zs) -> list:
    """Every (z, t) with z in zs, |t| <= h and a t^2 + 2 b t + c = 0, where
    b = beta + e z and c = q + 2 m z + d z^2, ascending in z, then t.

    With a != 0, a (a t^2 + 2 b t + c) = (a t + b)^2 - D(z), where
    D(z) = b^2 - a c = (e^2 - a d) z^2 + 2 (beta e - a m) z + (beta^2 - a q),
    so the roots are t = (-b -+ s) / a with s = isqrt(D(z)) when D(z) is a
    square.  They are taken in the order of s sign(a), which lists them
    ascending, and a double root (s = 0) once.
    """
    points = []
    if a:
        d2, d1, d0 = e * e - a * d, 2 * (beta * e - a * m), beta * beta - a * q
        for z in zs:
            disc = (d2 * z + d1) * z + d0
            if disc < 0:
                continue
            s = math.isqrt(disc)
            if s * s != disc:
                continue
            b = beta + e * z
            if a < 0:
                s = -s
            for r in (-b - s, -b + s) if s else (-b,):
                if r % a == 0 and -h <= r // a <= h:
                    points.append((z, r // a))
        return points
    for z in zs:
        b, c = beta + e * z, q + z * (2 * m + d * z)
        if b:
            if c % (2 * b) == 0 and -h <= -c // (2 * b) <= h:
                points.append((z, -c // (2 * b)))
        elif not c:
            points.extend((z, t) for t in range(-h, h + 1))
    return points


def _tagged(v: tuple, w) -> IsotropicVector:
    """v with its divisor gcd(w), where w = G v; v . w = 0 re-checks the norm."""
    if sum(map(operator.mul, v, w)) != 0:
        raise AssertionError(f"window scan produced {list(v)}, which is not isotropic")
    return IsotropicVector(v, math.gcd(*w))


def _check_height_bound(height_bound: int) -> None:
    if height_bound < 1:
        raise ZeroVector("height bound must be positive")


def _scan_isotropic(lattice: EvenLattice, height_bound: int):
    """Lazy enumerate_isotropic: the same vectors, tagged, in the same order.

    A vector is v = (y, z, t), with y its first n - 2 entries, the head.
    With a = G[n-1][n-1], d = G[n-2][n-2], e = G[n-1][n-2], Q = y^T G y,
    m = (G y)[n-2] and beta = (G y)[n-1], its norm is
    a t^2 + 2 (beta + e z) t + (Q + 2 m z + d z^2), so _prefix_points
    finds every isotropic (z, t) of a head in one call, from the
    discriminant D(z) in t, in ints.  Only prefixes (y, z) whose first
    nonzero entry is positive are walked (the zero prefix gives
    (0, ..., 0, 1) when a = 0), so each vector comes out once and
    sign-normalised.  Heads come in lexicographic order and the (z, t) of
    a head in ascending z, then t, so the vectors do too.

    The heads are walked depth first.  Setting entry k to c adds
    c (2 lin[k] + G[k][k] c) to y^T G y, where lin = G y over the entries
    set so far, adds c G[k][j] to each lin[j] and takes c into gcd(y), so
    a head costs O(n) additions.  A vector found has
    G v = lin + z G[n-2] + t G[n-1], from which v . G v = 0 re-checks its
    norm and gcd(G v) is its divisor.  gcd(y) = 0 marks the zero head, and
    gcd(gcd(y), z, t) = 1 is primitivity.
    """
    _check_height_bound(height_bound)
    n = lattice.rank
    if n == 0 or not is_indefinite(lattice):
        return
    h = height_bound
    g = lattice.gram
    head = n - 2
    a, d, e = g[-1][-1], g[-2][-2], g[-1][-2]
    g_z, g_t = g[-2], g[-1]  # columns n-2 and n-1 of the symmetric G
    window, positive = range(-h, h + 1), range(1, h + 1)
    if a == 0:
        yield _tagged((0,) * (n - 1) + (1,), g_t)

    def walk(y, q_y, lin, div):
        k = len(y)
        if k == head:
            for z, t in _prefix_points(a, e, d, lin[-1], lin[-2], q_y, h, window if div else positive):
                if math.gcd(div, z, t) == 1:
                    yield _tagged(y + (z, t), [l + z * r + t * s for l, r, s in zip(lin, g_z, g_t)])
            return
        g_kk, row, lin_k = g[k][k], g[k], lin[k]
        for c in window if div else range(h + 1):
            yield from walk(
                y + (c,),
                q_y + c * (2 * lin_k + g_kk * c),
                [l + c * r for l, r in zip(lin, row)],
                math.gcd(div, c),
            )

    yield from walk((), 0, [0] * n, 0)


class _Window:
    """A window scan and the vectors it has produced so far.

    Iterating replays those vectors, then advances the scan, one reader at
    a time, only as far as the reader goes.  A scan that raises keeps its
    exception, which every reader that reaches it raises again, and clears
    the window memo, so that a later call starts a new scan.
    """

    def __init__(self, scan):
        self._scan = scan
        self._found = []
        self._error = None
        self._lock = threading.Lock()

    def __iter__(self):
        found, i = self._found, 0
        while True:
            if i == len(found):
                with self._lock:
                    if i == len(found):
                        if self._error is not None:
                            raise self._error
                        try:
                            found.append(next(self._scan))
                        except StopIteration:
                            return
                        except BaseException as error:
                            self._error = error
                            _window.cache_clear()
                            raise
            yield found[i]
            i += 1


@functools.lru_cache(maxsize=4)
def _window(lattice: EvenLattice, height_bound: int) -> _Window:
    """The shared window of (lattice, h); a bad h raises and is not cached."""
    _check_height_bound(height_bound)
    return _Window(_scan_isotropic(lattice, height_bound))


def enumerate_isotropic(lattice: EvenLattice, height_bound: int) -> list:
    """Primitive isotropic vectors with max |coordinate| <= height_bound.

    Deduplicated up to sign (first nonzero coordinate positive), tagged with
    their divisors, in lexicographic order.  Definite lattices have none.
    The scan walks the sign-normalised half of the (2h+1)^(n-1) prefixes
    and solves for the last coordinate exactly (see _scan_isotropic); the
    norm of each vector found is checked again before it is returned.  The
    list is a fresh copy of the lattice's shared window.
    """
    return list(_window(lattice, height_bound))


def section_vector(lattice: EvenLattice, height_bound: int) -> Optional[tuple]:
    """The first divisor-1 vector of enumerate_isotropic, or None.

    The shared window is scanned only up to that vector; a later read of
    the same window resumes the scan there.
    """
    return next((iv.vector for iv in _window(lattice, height_bound) if iv.divisor == 1), None)


def _as_vector(lattice, l):
    v = l.vector if isinstance(l, IsotropicVector) else tuple(int(x) for x in l)
    if len(v) != lattice.rank or all(x == 0 for x in v):
        raise ZeroVector("need a nonzero vector of matching length")
    if lattice.norm(v) != 0:
        raise NotIsotropic(f"({list(v)}, same) != 0")
    if not is_primitive(lattice, v):
        raise NotIsotropic("vector is not primitive")
    return v


def _find_dual_partner(lattice: EvenLattice, l):
    """An m' with (l, m') = 1, for l of divisor 1: the first row of the
    Hermite form of the rows (w_i, e_i), w = G l, is (gcd(w), x) = (1, x),
    a combination of them, so (l, x) = w . x = 1."""
    w = intmat.matvec(lattice.gram, l)
    return intmat.hnf_rows([(wi, *unit) for wi, unit in zip(w, intmat.identity(len(w)))])[0][1:]


def hyperbolic_completion(lattice: EvenLattice, l) -> HyperbolicSplit:
    """Split off a hyperbolic plane through a divisor-1 isotropic vector l."""
    v = _as_vector(lattice, l)
    if divisor(lattice, v) != 1:
        raise DivisorNotOne(f"div({list(v)}) = {divisor(lattice, v)} != 1")
    m_prime = _find_dual_partner(lattice, v)
    half_norm = lattice.norm(m_prime) // 2
    m = tuple(a - half_norm * b for a, b in zip(m_prime, v))
    if lattice.norm(m) != 0 or lattice.pair(v, m) != 1:
        raise AssertionError("hyperbolic partner correction failed")
    return split_from_pair(lattice, v, m)


def split_from_pair(lattice: EvenLattice, l, m) -> HyperbolicSplit:
    """Hyperbolic split with a caller-chosen pair (l, m), (l, m) = 1."""
    v = _as_vector(lattice, l)
    m = tuple(int(x) for x in m)
    if len(m) != lattice.rank or lattice.norm(m) != 0 or lattice.pair(v, m) != 1:
        raise NotIsotropic("(l, m) is not a hyperbolic pair")
    rows = intmat.freeze([intmat.matvec(lattice.gram, v), intmat.matvec(lattice.gram, m)])
    comp_cols = intmat.kernel_basis(rows)
    split = HyperbolicSplit(lattice, m, v, EvenLattice(restricted_gram(lattice, comp_cols)), comp_cols)
    if abs(intmat.det(split.basis_matrix())) != 1:
        raise NotIsotropic("the pair does not split off a unimodular plane")
    return split


def quotient_lattice(lattice: EvenLattice, l) -> EvenLattice:
    """The even lattice l^perp / Zl, on a canonical integral basis."""
    return _quotient(lattice, _as_vector(lattice, l))


@functools.lru_cache(maxsize=4)
def _quotient(lattice: EvenLattice, v: tuple) -> EvenLattice:
    perp = intmat.kernel_basis((intmat.matvec(lattice.gram, v),))
    coords = intmat.solve_integer(perp, v)
    if coords is None:
        raise AssertionError("l must lie in its own orthogonal complement")
    k = intmat.shape(perp)[1]
    if k == 1:
        return EvenLattice(())
    # extend the (primitive) coordinate vector of l to a basis of Z^k
    col = intmat.from_columns([coords])
    u, d, _ = intmat.snf_transforms(col)
    if d[0][0] != 1:
        raise AssertionError("l is not primitive inside its complement")
    rest = intmat.columns(intmat.inv_unimodular(u))[1:]
    quotient_cols = [intmat.matvec(perp, c) for c in rest]
    cols = intmat.from_columns(quotient_cols)
    return EvenLattice(restricted_gram(lattice, cols))


def check_div_square(lattice: EvenLattice, l) -> bool:
    """d^2 * |A_{l^perp/Zl}| = |A_L| for primitive isotropic l."""
    v = _as_vector(lattice, l)
    d = divisor(lattice, v)
    quot = quotient_lattice(lattice, v)
    return d * d * abs(quot.det()) == abs(lattice.det())


def transvection(split: HyperbolicSplit, v) -> LatticeIsometry:
    """The isometry fixing f that shears e by a complement vector v."""
    lattice = split.lattice
    v = tuple(int(x) for x in v)
    if len(v) != lattice.rank or split.in_complement(v) is None:
        raise VectorNotInComplement(f"{list(v)} is not in the complement")
    l, m = split.f_image, split.e_image
    half_norm = lattice.norm(v) // 2
    images = [l, tuple(a + b - half_norm * c for a, b, c in zip(m, v, l))]
    for col in intmat.columns(split.complement_columns):
        pairing = lattice.pair(col, v)
        images.append(tuple(a - pairing * b for a, b in zip(col, l)))
    basis = split.basis_matrix()
    mat = intmat.matmul(intmat.from_columns(images), intmat.inv_unimodular(basis))
    return LatticeIsometry(lattice, mat)


def stabilizer_decompose(split: HyperbolicSplit, g: LatticeIsometry):
    """Write g in O(L)^f uniquely as (id + h on the split) after a transvection.

    Returns (h, v): h an isometry of the complement, v an ambient vector in
    the complement, with g = extend(h) . T_v.
    """
    lattice = split.lattice
    if g.lattice != lattice:
        raise DoesNotFixL("isometry acts on a different lattice")
    if g.apply(split.f_image) != split.f_image:
        raise DoesNotFixL("isometry does not fix the distinguished isotropic vector")
    basis = split.basis_matrix()
    conj = intmat.matmul(
        intmat.matmul(intmat.inv_unimodular(basis), g.matrix), basis
    )
    k = split.complement.rank
    if conj[1][1] != 1 or any(conj[1][2 + j] != 0 for j in range(k)):
        raise AssertionError("stabilizer block structure violated")
    w = tuple(conj[2 + i][1] for i in range(k))
    h_mat = tuple(tuple(conj[2 + i][2 + j] for j in range(k)) for i in range(k))
    h = LatticeIsometry(split.complement, h_mat)
    return h, split.to_ambient(intmat.matvec(intmat.inv_unimodular(h_mat), w))


def stabilizer_compose(split: HyperbolicSplit, h: LatticeIsometry, v) -> LatticeIsometry:
    """Rebuild the stabilizer element (id on U + h) . T_v."""
    lattice = split.lattice
    k = split.complement.rank
    images = [split.f_image, split.e_image]
    for j in range(k):
        col_h = tuple(h.matrix[i][j] for i in range(k))
        images.append(split.to_ambient(col_h))
    basis = split.basis_matrix()
    block = LatticeIsometry(
        lattice,
        intmat.matmul(intmat.from_columns(images), intmat.inv_unimodular(basis)),
    )
    return block.compose(transvection(split, v))


def _hyperbolic_embedding_check(lattice: EvenLattice, emb: Embedding):
    if emb.target != lattice:
        raise FImagesDiffer("embedding targets a different lattice")
    if emb.source_gram() != ((0, 1), (1, 0)):
        raise FImagesDiffer("embedding does not pull back to the hyperbolic plane")


def projection_isometry(lattice: EvenLattice, phi1: Embedding, phi2: Embedding) -> LatticeMap:
    """Projection between the complements of two U-embeddings sharing f.

    Columns of each embedding are the images of (e, f).  The projection of
    phi1's complement onto phi2's complement along phi2(U) is an isometry,
    returned with its exact matrix.
    """
    _hyperbolic_embedding_check(lattice, phi1)
    _hyperbolic_embedding_check(lattice, phi2)
    cols1 = intmat.columns(phi1.matrix)
    cols2 = intmat.columns(phi2.matrix)
    if cols1[1] != cols2[1]:
        raise FImagesDiffer("the two embeddings send f to different vectors")
    comps = []
    for emb in (phi1, phi2):
        rows = intmat.matmul(intmat.transpose(emb.matrix), lattice.gram)
        cols = intmat.kernel_basis(rows)
        comps.append((EvenLattice(restricted_gram(lattice, cols)), cols))
    (k1, cols_k1), (k2, cols_k2) = comps
    e2, f2 = cols2
    out_cols = []
    for x in intmat.columns(cols_k1):
        a = lattice.pair(x, f2)
        b = lattice.pair(x, e2)
        y = tuple(xi - a * ei - b * fi for xi, ei, fi in zip(x, e2, f2))
        coords = intmat.solve_integer(cols_k2, y)
        if coords is None:
            raise AssertionError("projected vector left the second complement")
        out_cols.append(coords)
    return LatticeMap(k1, k2, intmat.from_columns(out_cols))


class IsotropicOrbitClass(_Frozen):
    """Window classification cell: vectors sharing the genus of l^perp/Zl."""

    _fields = ("representative", "vectors", "quotient")

    def __init__(self, representative: IsotropicVector, vectors: tuple, quotient: EvenLattice):
        self._assign(representative, vectors, quotient)


def classify_i1_orbits(
    lattice: EvenLattice, height_bound: int, budget: Optional[int] = None
) -> list:
    """The divisor-1 isotropic vectors in the window, as one quotient-genus cell.

    For divisor-1 l some m has (l, m) = 1, and m - ((m, m)/2) l is
    isotropic, so l and m span a unimodular hyperbolic plane U and
    L = U + U^perp.  Then l^perp = Zl + U^perp and l^perp/Zl is isometric
    to U^perp, whose signature is (p-1, q-1) and whose discriminant form is
    A_L.  All quotients therefore lie in one genus, and the single cell
    holds every vector of the window in order, with the quotient of the
    first as representative.  The cell is one O(L)-orbit when that genus
    has one class; otherwise it may merge several orbits.  The budget on
    |A| = |det L| is checked when the window holds more than one vector.
    """
    vectors = tuple(iv for iv in enumerate_isotropic(lattice, height_bound) if iv.divisor == 1)
    if not vectors:
        raise NoneFoundInWindow(
            f"no divisor-1 isotropic vector with |coords| <= {height_bound}"
        )
    if len(vectors) > 1:
        _check_budget(abs(lattice.det()), budget)
    return [IsotropicOrbitClass(vectors[0], vectors, quotient_lattice(lattice, vectors[0].vector))]


def is_standard_plane(lattice: EvenLattice, plane: IsotropicPlane):
    """Decide whether some e in L pairs onto Z with the plane; witness included.

    The witness is adjusted inside e + E to be isotropic, which is always
    possible once the pairing ideal is all of Z.
    """
    if plane.lattice != lattice:
        raise NotIsotropicPlane("plane lives in a different lattice")
    v1, v2 = plane.basis
    rows = intmat.freeze(
        [intmat.matvec(lattice.gram, v1), intmat.matvec(lattice.gram, v2)]
    )
    _, d, v = intmat.snf_transforms(rows)
    if d[0][0] != 1:
        return False, None
    e = tuple(row[0] for row in v)
    a = lattice.pair(e, v1)
    b = lattice.pair(e, v2)
    g, x, y = intmat.xgcd(a, b)
    if g != 1:
        raise AssertionError("SNF said the pairing ideal is Z but gcd disagrees")
    # e' = e + alpha v1 + beta v2 with (e', e') = 0
    target = -(lattice.norm(e) // 2)
    alpha, beta = x * target, y * target
    e_iso = tuple(ei + alpha * a1 + beta * a2 for ei, a1, a2 in zip(e, v1, v2))
    if lattice.norm(e_iso) != 0:
        raise AssertionError("isotropic correction of the witness failed")
    if intmat.vec_gcd((lattice.pair(e_iso, v1), lattice.pair(e_iso, v2))) != 1:
        raise AssertionError("witness lost the unit pairing ideal")
    return True, e_iso
