"""Discriminant groups, finite quadratic forms and their automorphisms.

The discriminant group of an even lattice L is carried on the invariant
factors of its Gram matrix: generators g_i of order d_i (d_1 | d_2 | ...),
q(g_i) in Q/2Z and b(g_i, g_j) in Q/Z.  A form is read, and built by hand,
through exact Fractions in canonical residues (q in [0,2), b in [0,1));
inside it holds integer numerators over the exponent N, q * N mod 2N and
b * N mod N.  The discriminant form of a lattice is computed in those
integers, and every validation, enumeration and search loop works on them;
overlattice lifts a class as N times its dual vector, an integer row.
O(A, q) has one route, aut_group's stabilizer chain of each p-primary block.

The O(A, q) search tests b with one integer product.  A candidate x
carries P(x), its coordinates x_t in w-bit fields t, and R(x), its pairing
row x^T B in fields k-1-t.  Field k-1 of P(c) R(x) is N b(c, x) before the
reduction mod N.  A field of the product sums at most k terms, each a
coordinate below N times a row entry below k N^2, so it stays below
k^2 N^3 < 2^w for w = bit_length(k^2 N^3) + 1: no field carries.

An element of O(A, q) that comes from outside a closure is checked for q
and b once: a user or natural_map generator, a search leaf, a stitched
generator and a transported element.  Elements made inside one form from
checked ones are built with FqfIsometry._certified and not checked again:
products (_matmul_mod), compose and inverse, the identity and -1.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, NamedTuple, Optional

from . import intmat
from .errors import (
    BadParams,
    BudgetExceeded,
    LatticeError,
    NotIsometry,
    NotIsotropic,
    SubgroupNotContained,
)
from .intmat import Matrix
from .lattices import EvenLattice, LatticeIsometry, _Frozen, restricted_gram, signature

DEFAULT_BUDGET = 10_000
# the default window |coords| <= h of the isotropic searches; kept here, not
# in counting, so that the CLI parser can read it without importing counting
DEFAULT_HEIGHT_BOUND = 4
BUDGET_ENV_VAR = "CUSPCOUNT_BUDGET"
MAX_SUBGROUP_ORDER = 1_000_000  # cap on the elements fqf_subgroup and _FullGroup build


def resolve_budget(budget: Optional[int] = None) -> int:
    """The given budget, else CUSPCOUNT_BUDGET, else DEFAULT_BUDGET; one
    below 1 is a bad argument, not an overrun."""
    name, value = "the budget", budget
    if budget is None:
        name, value = BUDGET_ENV_VAR, os.environ.get(BUDGET_ENV_VAR)
        if not value:
            return DEFAULT_BUDGET
    try:
        limit = int(value)
    except ValueError:
        raise BadParams(f"{name} must be an integer, got {value!r}") from None
    if limit < 1:
        raise BadParams(f"{name} must be at least 1, got {limit}")
    return limit


def _check_budget(order: int, budget: Optional[int]) -> None:
    """Raise BudgetExceeded when an enumeration over a group of this order
    exceeds the resolved budget."""
    limit = resolve_budget(budget)
    if order > limit:
        raise BudgetExceeded(f"|A| = {order} exceeds the budget {limit}")


def _prime_factors(n: int) -> tuple:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def _p_valuation(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


@functools.lru_cache(maxsize=1024)
def _group_tables(orders: tuple) -> tuple:
    """What form and isometry validation need of the invariant factors alone.

    need[i][j] = d_i / gcd(d_i, d_j) must divide entry (i, j) of an
    endomorphism; blocks lists (p, indices i with p | d_i) per prime p.
    Forms share these, so the cache is keyed on the orders.
    """
    need = tuple(tuple(di // gcd(di, dj) for dj in orders) for di in orders)
    blocks = tuple(
        (p, tuple(i for i, di in enumerate(orders) if di % p == 0))
        for p in _prime_factors(orders[-1] if orders else 1)
    )
    return need, blocks


class FiniteQuadraticForm(_Frozen):
    """Finite abelian group with q: A -> Q/2Z and b: A x A -> Q/Z.

    It is built from exact Fractions in canonical residues (q_diag, b_mat),
    or from integer numerators (_from_numerators), read back as Fractions,
    and stored as integer numerators over the exponent N: _q[i] = N q(g_i)
    mod 2N and _b[i][j] = N b(g_i, g_j) mod N.  They are exact, because
    d_i q(g_i) and d_i b(g_i, g_j) are integers and d_i | N.  b is
    nondegenerate: b(x, y) = 0 for every y only when x = 0.

    orders are the invariant factors > 1, an ascending divisibility chain;
    _q[i] lies in [0, 2N), _b[i][j] in [0, N), and _b[i][i] == _q[i] mod N.
    """

    _fields = ("orders", "_q", "_b")

    def __init__(self, orders, q_diag, b_mat):
        """q_diag: q(g_i) in [0, 2); b_mat: b(g_i, g_j) in [0, 1); both exact.

        They are validated as numerators over L = lcm(exponent, every
        denominator), over which each value is an exact integer."""
        orders = tuple(orders)
        values = [*q_diag, *(b for row in b_mat for b in row)]
        denom = lcm(orders[-1] if orders else 1, *(Fraction(v).denominator for v in values))
        q_num = tuple(int(Fraction(q) * denom) for q in q_diag)
        b_num = tuple(tuple(int(Fraction(b) * denom) for b in row) for row in b_mat)
        self._validate(orders, q_num, b_num, denom)

    @classmethod
    def _from_numerators(cls, orders, q_num, b_num, denom) -> "FiniteQuadraticForm":
        """The form with q(g_i) = q_num[i] / denom and b(g_i, g_j) =
        b_num[i][j] / denom, through the same validation as the constructor."""
        form = object.__new__(cls)
        form._validate(tuple(orders), q_num, b_num, denom)
        return form

    def _validate(self, orders, q_num, b_num, denom) -> None:
        """Check the numerator tables over denom and store them over the
        exponent N, which divides denom: each check is the Fraction check
        q in [0, 2), d_i^2 q in 2Z, b in [0, 1), ... multiplied by denom."""
        k = len(orders)
        for i in range(k - 1):
            if orders[i + 1] % orders[i] != 0:
                raise LatticeError("invariant factors must form a divisibility chain")
        if any(d < 2 for d in orders):
            raise LatticeError("invariant factors must be > 1")
        if len(q_num) != k or len(b_num) != k:
            raise LatticeError("q/b tables do not match the generator count")
        for i in range(k):
            qi = q_num[i]
            if not (0 <= qi < 2 * denom):
                raise LatticeError("q values must be canonical residues in [0, 2)")
            if (qi * orders[i] ** 2) % (2 * denom) != 0:
                raise LatticeError("q value incompatible with the generator order")
            if len(b_num[i]) != k:
                raise LatticeError("b matrix is not square")
            if b_num[i][i] != qi % denom:
                raise LatticeError("b(g,g) must reduce q(g) mod 1")
            for j in range(k):
                bij = b_num[i][j]
                if not (0 <= bij < denom) or bij != b_num[j][i]:
                    raise LatticeError("b must be symmetric with residues in [0, 1)")
                if (bij * orders[i]) % denom != 0 or (bij * orders[j]) % denom != 0:
                    raise LatticeError("b value incompatible with the generator orders")
        n = orders[-1] if orders else 1
        # exact: d_i q(g_i) and d_i b(g_i, g_j) are integers and d_i | N
        q_num = tuple(q * n // denom for q in q_num)
        b_num = tuple(tuple(b * n // denom for b in row) for row in b_num)
        # A radical would hold an element of some prime order p.  Row i is
        # p b((d_i/p) g_i, g_j) mod p, the pairing of the F_p-basis of the
        # p-torsion with the generators (b(x, g_j) = 0 when p does not
        # divide d_j), so b is nondegenerate iff no such matrix is singular.
        for p, idxs in _group_tables(orders)[1]:
            socle = tuple(tuple(orders[i] * b_num[i][j] // n for j in idxs) for i in idxs)
            if intmat.det(socle) % p == 0:
                raise LatticeError("b must be nondegenerate")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "_q", q_num)
        object.__setattr__(self, "_b", b_num)
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_q_high", tuple(i for i in range(k) if q_num[i] >= n))
        # isometries hash their form on every set insertion
        object.__setattr__(self, "_hash", hash((orders, q_num, b_num)))

    def __hash__(self):
        return self._hash

    # The packed pairings of the O(A, q) search (see the module docstring),
    # built on the first search of the form: most forms are never searched.

    @functools.cached_property
    def _w(self) -> int:
        k = len(self.orders)
        return (k * k * self._n**3).bit_length() + 1

    @functools.cached_property
    def _pack(self) -> tuple:
        return (self._n, self._w * max(len(self.orders) - 1, 0), (1 << self._w) - 1)

    @functools.cached_property
    def _b_packed(self) -> tuple:
        w, shift = self._w, self._pack[1]
        return tuple(sum(v << shift - w * j for j, v in enumerate(row)) for row in self._b)

    @property
    def q_diag(self) -> tuple:
        """q(g_i) as a Fraction in [0, 2), per generator."""
        return tuple(Fraction(v, self._n) for v in self._q)

    @property
    def b_mat(self) -> tuple:
        """b(g_i, g_j) as a Fraction in [0, 1), per generator pair."""
        return tuple(tuple(Fraction(v, self._n) for v in row) for row in self._b)

    @property
    def ngens(self) -> int:
        return len(self.orders)

    def order(self) -> int:
        return prod(self.orders) if self.orders else 1

    def exponent(self) -> int:
        return self._n

    def is_trivial(self) -> bool:
        return not self.orders

    def zero(self) -> tuple:
        return (0,) * self.ngens

    def reduce(self, coords) -> tuple:
        return tuple(int(c) % d for c, d in zip(coords, self.orders))

    def elements(self):
        return (tuple(c) for c in itertools.product(*(range(d) for d in self.orders)))

    def add(self, x, y) -> tuple:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def scale(self, c, x) -> tuple:
        return tuple((c * a) % d for a, d in zip(x, self.orders))

    def element_order(self, x) -> int:
        o = 1
        for a, d in zip(x, self.orders):
            o = lcm(o, d // gcd(d, a))
        return o

    def q(self, x) -> Fraction:
        return Fraction(self._qn(x), self._n)

    def b(self, x, y) -> Fraction:
        return Fraction(self._bn(x, y), self._n)

    def _qn(self, x) -> int:
        """N * q(x) mod 2N."""
        return self._qn_paired(x, self._pairing(x))

    def _pairing(self, x) -> tuple:
        """The integer row x^T B, so that N * b(x, y) = x^T B y mod N."""
        return tuple(sum(map(operator.mul, x, row)) for row in self._b)

    def _qn_paired(self, x, pairing) -> int:
        """N * q(x) mod 2N from x and its pairing row, which is x^T B x +
        N * sum of x_i over the i with _q[i] >= N: _q[i] is _b[i][i] or
        _b[i][i] + N, and N x_i^2 = N x_i mod 2N."""
        total = sum(map(operator.mul, x, pairing))
        for i in self._q_high:
            total += self._n * x[i]
        return total % (2 * self._n)

    def _bn(self, x, y) -> int:
        """N * b(x, y) mod N."""
        return sum(map(operator.mul, self._pairing(x), y)) % self._n

    @staticmethod
    def trivial() -> "FiniteQuadraticForm":
        return FiniteQuadraticForm((), (), ())


class _DiscData(_Frozen):
    """dvec holds all invariant factors of the Gram matrix G, keep the
    indices with d_i > 1, and U G V = diag(dvec) for u = U and v = V."""

    _fields = ("lattice", "form", "dvec", "keep", "u", "v")

    def __init__(
        self, lattice: EvenLattice, form: FiniteQuadraticForm, dvec: tuple, keep: tuple, u: Matrix, v: Matrix
    ):
        self._assign(lattice, form, dvec, keep, u, v)

    @functools.cached_property
    def ug(self) -> Matrix:
        return intmat.matmul(self.u, self.lattice.gram)

    def class_of(self, w, d: int) -> tuple:
        """Class in the discriminant group of the dual vector w / d, for an
        integer vector w: the entries of U G w / d.  U is unimodular, so G w
        is 0 mod d, w / d in the dual lattice, exactly when U G w is."""
        c = intmat.matvec(self.ug, w)
        if any(val % d for val in c):
            raise LatticeError("vector is not in the dual lattice")
        return tuple(c[idx] // d % self.dvec[idx] for idx in self.keep)


@functools.lru_cache(maxsize=256)
def _disc_data(lattice: EvenLattice) -> _DiscData:
    """The generators are g_a = v_a / d_a, for the columns v_a of V with
    U G V = diag(d).  With w_a = G v_a, N q(g_a) = N (w_a . v_a) / d_a^2 mod
    2N and N b(g_a, g_b) = N (w_a . v_b) / (d_a d_b) mod N, all in integers."""
    n = lattice.rank
    u, d, v = intmat.snf_transforms(lattice.gram)
    dvec = tuple(d[i][i] for i in range(n))
    keep = tuple(i for i in range(n) if dvec[i] != 1)
    cols = intmat.columns(v)
    lifts = [cols[i] for i in keep]
    dkeep = tuple(dvec[i] for i in keep)
    exponent = dkeep[-1] if dkeep else 1
    images = [intmat.matvec(lattice.gram, va) for va in lifts]
    b_rows = []
    for wa, da in zip(images, dkeep):
        row = []
        for vb, db in zip(lifts, dkeep):
            num, rest = divmod(exponent * sum(map(operator.mul, wa, vb)), da * db)
            if rest:
                raise AssertionError("a discriminant-form numerator is not an integer")
            row.append(num)
        b_rows.append(row)
    q_num = tuple(row[a] % (2 * exponent) for a, row in enumerate(b_rows))
    b_num = tuple(tuple(val % exponent for val in row) for row in b_rows)
    form = FiniteQuadraticForm._from_numerators(dkeep, q_num, b_num, exponent)
    if form.order() != abs(lattice.det()):
        raise AssertionError("discriminant group order must equal |det|")
    return _DiscData(lattice, form, dvec, keep, u, v)


def discriminant_form(lattice: EvenLattice) -> FiniteQuadraticForm:
    """The finite quadratic form on L^dual / L."""
    return _disc_data(lattice).form


def _matmul_mod(a: Matrix, b_cols: tuple, orders: tuple) -> Matrix:
    """a b for reduced isometry matrices a and b, b given by its columns,
    with row i reduced mod d_i.

    It equals the reduced matrix of their composition, because entry (i, j)
    of an endomorphism is a multiple of d_i / gcd(d_i, d_j).
    """
    return tuple(
        tuple(sum(map(operator.mul, row, col)) % d for col in b_cols)
        for row, d in zip(a, orders)
    )


def _inverse_mod(mat: Matrix, orders: tuple) -> Matrix:
    """The reduced inverse of a reduced automorphism mat of sum_i Z/d_i.

    It is mat^(n-1), where n is the order of mat: the automorphism group
    of a finite group is finite.
    """
    ident = intmat.identity(len(orders))
    cols = tuple(zip(*mat))
    prev, power = ident, mat
    while power != ident:
        prev, power = power, _matmul_mod(power, cols, orders)
    if _matmul_mod(mat, tuple(zip(*prev)), orders) != ident:
        raise AssertionError("g * g^-1 is not the identity")
    return prev


class FqfIsometry(_Frozen):
    """Automorphism of a finite quadratic form, as a matrix on generators.

    Column j holds the image of generator g_j; row i is reduced mod d_i.
    A well-defined endomorphism that keeps b is injective, because b is
    nondegenerate, so it is an automorphism.
    """

    _fields = ("form", "matrix")

    def __init__(self, form: FiniteQuadraticForm, matrix: Matrix):
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "matrix", matrix)
        k = form.ngens
        if k and intmat.shape(self.matrix) != (k, k):
            raise NotIsometry("automorphism matrix has wrong shape")
        d = form.orders
        reduced = tuple(
            tuple(self.matrix[i][j] % d[i] for j in range(k)) for i in range(k)
        )
        object.__setattr__(self, "matrix", reduced)
        need = _group_tables(d)[0]
        for row, need_row in zip(reduced, need):
            if any(entry % m for entry, m in zip(row, need_row)):
                raise NotIsometry("matrix is not a well-defined endomorphism")
        defect = _form_defect(form, form, reduced)
        if defect:
            raise NotIsometry(f"matrix does not preserve {defect}")

    def apply(self, x) -> tuple:
        d = self.form.orders
        k = self.form.ngens
        return tuple(sum(self.matrix[i][j] * x[j] for j in range(k)) % d[i] for i in range(k))

    def compose(self, other: "FqfIsometry") -> "FqfIsometry":
        # self after other
        if other.form != self.form:
            raise NotIsometry("cannot compose automorphisms of different forms")
        cols = tuple(zip(*other.matrix))
        return FqfIsometry._certified(self.form, _matmul_mod(self.matrix, cols, self.form.orders))

    def inverse(self) -> "FqfIsometry":
        """g^(n-1), where n is the order of g (see _inverse_mod)."""
        return FqfIsometry._certified(self.form, _inverse_mod(self.matrix, self.form.orders))

    def is_identity(self) -> bool:
        return self == FqfIsometry.identity(self.form)

    @staticmethod
    def identity(form: FiniteQuadraticForm) -> "FqfIsometry":
        return FqfIsometry._certified(form, intmat.identity(form.ngens))

    @staticmethod
    def minus_identity(form: FiniteQuadraticForm) -> "FqfIsometry":
        """-1, reduced row by row: it is 1 on a 2-elementary form."""
        k = form.ngens
        minus = tuple(tuple(d - 1 if i == j else 0 for j in range(k)) for i, d in enumerate(form.orders))
        return FqfIsometry._certified(form, minus)

    @classmethod
    def _certified(cls, form: FiniteQuadraticForm, matrix: Matrix) -> "FqfIsometry":
        """An element of O(A, q) from its reduced matrix, without the
        checks of __init__: for an element made inside one form from
        checked ones (see the module docstring)."""
        iso = object.__new__(cls)
        object.__setattr__(iso, "form", form)
        object.__setattr__(iso, "matrix", matrix)
        return iso

    @staticmethod
    def from_images(form: FiniteQuadraticForm, images) -> "FqfIsometry":
        k = form.ngens
        return FqfIsometry(
            form, tuple(tuple(images[j][i] for j in range(k)) for i in range(k))
        )


class FqfSubgroup(_Frozen):
    """Subgroup of O(A, q), held as its elements, the closure sorted by
    matrix.  Two subgroups are equal when they act on one form with the
    same elements."""

    _fields = ("form", "elements")

    def __init__(self, form: FiniteQuadraticForm, elements: tuple):
        self._assign(form, elements)

    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        # on orders and membership, so that a lazy _FullGroup builds no element
        if not isinstance(other, FqfSubgroup):
            return NotImplemented
        return self.order() == other.order() and self.is_subgroup_of(other)

    def __hash__(self):
        return hash((self.form, self.order()))

    def _generator_matrices(self):
        """The reduced matrices of a generating set: here, of every element."""
        return [iso.matrix for iso in self.elements]

    @functools.cached_property
    def _members(self) -> frozenset:
        """The reduced matrices of the elements, which share self.form."""
        return frozenset(iso.matrix for iso in self.elements)

    def __contains__(self, iso: FqfIsometry) -> bool:
        return iso.form == self.form and iso.matrix in self._members

    def is_subgroup_of(self, other: "FqfSubgroup") -> bool:
        return self.form == other.form and all(iso in other for iso in self.elements)


def fqf_subgroup(form: FiniteQuadraticForm, generators: Iterable[FqfIsometry]) -> FqfSubgroup:
    """Close a generator list under composition (finite, so inverses come free).

    The closure multiplies reduced matrices.  The generators were checked
    when they were built, so each product is built certified.
    """
    gens = tuple(generators)
    for g in gens:
        if g.form != form:
            raise NotIsometry("generator acts on a different form")
    orders = form.orders
    gen_mats = [g.matrix for g in gens]
    ident = intmat.identity(form.ngens)
    found = {ident}
    queue = [ident]
    while queue:
        x_cols = tuple(zip(*queue.pop()))
        for g in gen_mats:
            y = _matmul_mod(g, x_cols, orders)
            if y not in found:
                if len(found) >= MAX_SUBGROUP_ORDER:
                    raise BudgetExceeded("subgroup closure exceeded the cap")
                found.add(y)
                queue.append(y)
    return FqfSubgroup(form, tuple(FqfIsometry._certified(form, m) for m in sorted(found)))


def trivial_subgroup(form: FiniteQuadraticForm) -> FqfSubgroup:
    return FqfSubgroup(form, (FqfIsometry.identity(form),))


def plus_minus_subgroup(form: FiniteQuadraticForm) -> FqfSubgroup:
    """{1, -1}, or {1} when -1 = 1."""
    pm = {iso.matrix: iso for iso in (FqfIsometry.identity(form), FqfIsometry.minus_identity(form))}
    return FqfSubgroup(form, tuple(pm[m] for m in sorted(pm)))


def _span_elements(form: FiniteQuadraticForm, gens) -> set:
    span = {form.zero()}
    for g in gens:
        o = form.element_order(g)
        span = {form.add(x, form.scale(c, g)) for x in span for c in range(o)}
    return span


def _candidates(form, axes, gen_orders, gen_q) -> list:
    """Per generator, the (x, P(x), R(x)) of the x in the product of the
    ranges `axes` that match its element order and N q mod 2N, in
    itertools.product order (_walk); P and R, the packed coordinates and
    pairing row (see the module docstring), serve _place_images' b checks."""
    buckets = {(o, q): [] for o, q in zip(gen_orders, gen_q)}
    if axes:
        steps = [[(a, d // gcd(d, a)) for a in axis] for axis, d in zip(axes, form.orders)]
        _walk(form, steps, 0, (), 0, 0, 0, 1, buckets)
    elif (1, 0) in buckets:
        buckets[1, 0].append(((), 0, 0))
    return [buckets[o, q] for o, q in zip(gen_orders, gen_q)]


def _walk(form, steps, t, x, p, r, qn, order, buckets):
    """Buckets the elements x + y, y over the axes t.., by (order, N q mod
    2N); steps[t] lists (a, order of a e_t).  p, r, qn and order belong to
    the prefix x: P(x), R(x), its unreduced _qn_paired sum and its order.
    Adding a e_t adds a 2^(w t) to P, a R(B_t) to R, a (2 row_t + a b_tt +
    [t in _q_high] N) to qn, with row_t read out of R, and the order of a e_t
    to the lcm.  Not a closure, like _place_images: no reference cycle."""
    (n, shift, mask), w = form._pack, form._w
    btt, mod, pt, rt = form._b[t][t], 2 * n, 1 << w * t, form._b_packed[t]
    lin = 2 * (r >> shift - w * t & mask) + (n if t in form._q_high else 0)
    if t + 1 < len(steps):
        for a, da in steps[t]:
            qa, oa = qn + a * (lin + a * btt), lcm(order, da)
            _walk(form, steps, t + 1, x + (a,), p + a * pt, r + a * rt, qa, oa, buckets)
        return
    for a, da in steps[t]:
        bucket = buckets.get((lcm(order, da), (qn + a * (lin + a * btt)) % mod))
        if bucket is not None:
            bucket.append((x + (a,), p + a * pt, r + a * rt))


def _narrow(pack, later, rx, wants) -> Optional[list]:
    """Each candidate list of `later` filtered, in order, by b(c, x) = want
    through R(x) of the image x just placed: one product P(c) R(x) per
    candidate; None when one comes out empty."""
    n, shift, mask = pack
    narrowed = []
    for pool, want in zip(later, wants):
        kept = [c for c in pool if (c[1] * rx >> shift & mask) % n == want]
        if not kept:
            return None
        narrowed.append(kept)
    return narrowed


def _place_images(pack, candidates, gen_b, images):
    """DFS over assignments of images to generators, by forward checking.

    images holds the images of generators 0..i-1; candidates[0] lists the
    images left for generator i, each already paired correctly with them,
    and candidates[1:] those of the later generators.  Placing x narrows
    every later list (_narrow) and cuts the branch when one comes out empty.
    So a candidate is tried exactly when it pairs correctly with every
    earlier image, and the image tuples come out in the lexicographic order
    of the lists.  Matched element orders (_candidates) make a tuple a
    well-defined map on sum_i Z/e_i, and matched b makes it keep b.  The
    generators span a nondegenerate form or one of its p-parts, where b is
    nondegenerate too, so the map is injective; callers pass as many
    generators as make up the group their candidates span, so it is bijective
    onto it.

    When one later list is left, it is tested lazily, in the same order:
    each match is yielded as it is found, so next() stops at the first.
    """
    # A module-level generator, not a closure: a closure that calls itself
    # is a reference cycle, and it would keep `candidates` alive until the
    # cyclic collector runs.
    if not candidates:
        yield tuple(images)
        return
    i = len(images)
    later = candidates[1:]
    wants = [gen_b[j][i] for j in range(i + 1, i + 1 + len(later))]
    if len(later) == 1:
        n, shift, mask = pack
        last, want = later[0], wants[0]
        for x, _, rx in candidates[0]:
            for c in last:
                if (c[1] * rx >> shift & mask) % n == want:
                    yield (*images, x, c[0])
        return
    for x, _, rx in candidates[0]:
        narrowed = _narrow(pack, later, rx, wants)
        if narrowed is not None:
            images.append(x)
            yield from _place_images(pack, narrowed, gen_b, images)
            images.pop()


class _Block(NamedTuple):
    """The search set-up of one p-primary block (see _primary_blocks)."""

    idxs: tuple  # the generators g_i with p | d_i
    hgens: tuple  # h_i = (d_i / p^v) g_i, p^v || d_i, which span A_p
    weights: tuple  # w_i with e_p g_i = w_i h_i
    axes: tuple  # coordinate ranges whose product is the span of the h_i
    gen_orders: tuple  # p^v, the order of h_i
    gen_q: tuple  # N q(h_i) mod 2N, s_i^2 N q(g_i) for s_i = d_i / p^v
    gen_b: list  # N b(h_i, h_j) mod N, s_i s_j N b(g_i, g_j)
    candidates: list  # _candidates of the axes for the h_i


def _primary_blocks(source: FiniteQuadraticForm, target: FiniteQuadraticForm):
    """The search set-up (_Block) of each p-primary block, for isometries
    source -> target.  The forms have equal orders, hence one exponent, so
    the source numerators apply, to b and q of the h_i = s_i g_i too.

    A is the orthogonal sum of its p-parts A_p, spanned by the h_i =
    (d_i / p^v) g_i with p^v || d_i.  Each block walks the |A_p| target
    elements on their coordinate ranges (_candidates).  The CRT idempotent
    e_p of the exponent gives e_p g_i = w_i h_i, so a block isometry sigma contributes w_i sigma(h_i)
    to column i of every element it is part of: its contribution matrix
    (_contribution), with row i reduced mod d_i.  For one prime the h_i are
    the g_i, each w_i is 1 and a contribution matrix is the element's
    reduced matrix.
    """
    k = source.ngens
    exponent = source.exponent()
    orders = source.orders
    for p, idxs in _group_tables(orders)[1]:
        pe_n = p ** _p_valuation(exponent, p)
        m = exponent // pe_n
        idem = m * pow(m, -1, pe_n)
        pe = tuple(p ** _p_valuation(orders[i], p) for i in idxs)
        scales = tuple(orders[i] // q for i, q in zip(idxs, pe))  # s_i = d_i / p^v
        hgens = []
        weights = []
        axes = [(0,)] * k  # the span of the h_i: the multiples of s_i in coordinate i
        for i, s in zip(idxs, scales):
            coords = [0] * k
            coords[i] = s
            hgens.append(tuple(coords))
            weights.append((idem % orders[i]) // s)
            axes[i] = range(0, orders[i], s)
        gen_b = [[s * t * source._b[i][j] % exponent for j, t in zip(idxs, scales)] for i, s in zip(idxs, scales)]
        gen_q = tuple(s * s * source._q[i] % (2 * exponent) for i, s in zip(idxs, scales))
        candidates = _candidates(target, axes, pe, gen_q)
        yield _Block(idxs, tuple(hgens), tuple(weights), tuple(axes), pe, gen_q, gen_b, candidates)


def _contribution(block: _Block, sigma, target: FiniteQuadraticForm) -> Matrix:
    """The contribution matrix of the block isometry with images sigma of
    the h_i: column i is w_i sigma(h_i) for i in the block, and 0 elsewhere."""
    cols = [target.zero()] * target.ngens
    for i, w, image in zip(block.idxs, block.weights, sigma):
        cols[i] = image if w == 1 else target.scale(w, image)
    return tuple(zip(*cols))


def _stabilizer_chain(form: FiniteQuadraticForm, block: _Block) -> tuple:
    """(e, levels): the contribution matrix e of the identity of A_p, and a
    stabilizer chain of O(A_p, q_p) on h_1..h_k.  levels[i] holds one
    contribution matrix per point of the orbit of h_{i+1} under the
    stabilizer of h_1..h_i: a transversal of the next stabilizer in it.

    Level i keeps h_1..h_{i-1} at themselves, which the search may do
    because source and target are one form.  Each candidate y for h_i is
    placed first, and only the first completion of the rest is kept: y
    completes exactly when it is in the orbit, and that completion is an
    element of the stabilizer that moves h_i to y.  Then h_i is placed at
    itself, and the search goes on to level i + 1.
    """
    pack = form._pack
    k = len(block.hgens)
    levels = []
    candidates = block.candidates
    for i, h in enumerate(block.hgens):
        first, later = candidates[0], candidates[1:]
        level = []
        for y in first:
            # a fresh prefix list each time: an abandoned search keeps its appends
            sigma = next(_place_images(pack, [(y,), *later], block.gen_b, [*block.hgens[:i]]), None)
            if sigma is not None:
                level.append(_contribution(block, sigma, form))
        rh = next((r for x, _, r in first if x == h), None)
        if rh is None:
            raise AssertionError("a generator of the block is not among its own candidates")
        candidates = _narrow(pack, later, rh, [block.gen_b[j][i] for j in range(i + 1, k)])
        levels.append(level)
    return _contribution(block, block.hgens, form), levels


def _combine(combo, orders: tuple) -> Matrix:
    """The reduced matrix of the element made of one contribution matrix
    per block (see _primary_blocks): their sum, with row i reduced mod d_i."""
    return tuple(
        tuple(sum(entries) % d for entries in zip(*rows)) for d, *rows in zip(orders, *combo)
    )


def _stitch(blocks: list, orders: tuple):
    """The reduced matrix of each tuple of one contribution matrix per
    block, in the order of itertools.product."""
    return (_combine(combo, orders) for combo in itertools.product(*blocks))


def _products(ident: Matrix, levels: list, orders: tuple) -> list:
    """The contribution matrix of each product u_1 u_2 ... u_k with u_i in
    levels[i-1], by C(sigma) C(tau) = C(sigma tau) (_matmul_mod): a block
    isometry maps A_p into A_p, so the projection e_p in between does
    nothing.  Where a column of C(tau) is that of the identity
    contribution e_p, the column of C(sigma) C(tau) is that of
    C(sigma) e_p = C(sigma), so only the other columns are multiplied; an
    element of level i fixes h_1..h_{i-1}."""
    ident_cols = tuple(zip(*ident))
    products = levels[0]
    for level in levels[1:]:
        moves = []
        for u in level:
            where = [c for c, (col, e) in enumerate(zip(zip(*u), ident_cols)) if col != e]
            moves.append((where, tuple(tuple(row[c] for row in u) for c in where)))
        out = []
        for a in products:
            for where, cols in moves:
                if not where:  # u is e_p
                    out.append(a)
                    continue
                rows = []
                for row, moved in zip(a, _matmul_mod(a, cols, orders)):
                    row = list(row)
                    for c, value in zip(where, moved):
                        row[c] = value
                    rows.append(tuple(row))
                out.append(tuple(rows))
        products = out
    return products


def _form_defect(source: FiniteQuadraticForm, target: FiniteQuadraticForm, matrix: Matrix) -> Optional[str]:
    """The first value, "q" or "b", that the columns of matrix, the images
    of the source generators in target, fail to keep; None when they keep
    both.  Each column's pairing row is computed once, and gives its q too
    (_qn_paired).  b(x, x) is q(x) mod 1 and b is symmetric, so the pairs
    i < j and the q values are all of the b table."""
    n = target._n
    cols = tuple(zip(*matrix))
    for j, col in enumerate(cols):
        pairing = target._pairing(col)
        if target._qn_paired(col, pairing) != source._q[j]:
            return "q"
        wants = source._b[j]
        for i in range(j):
            if sum(map(operator.mul, pairing, cols[i])) % n != wants[i]:
                return "b"
    return None


def _assert_keeps_form(source: FiniteQuadraticForm, target: FiniteQuadraticForm, matrices):
    """Stitched, transported and transversal maps keep q and b, by
    construction; that is still asserted, map by map."""
    if any(_form_defect(source, target, m) for m in matrices):
        raise AssertionError("the images of the generators do not preserve q and b")


class _FullGroup(FqfSubgroup):
    """O(A, q), held as a stabilizer chain of each p-primary block
    (_stabilizer_chain): O(A, q) is the product of the O(A_p, q_p).

    Order.  Let G_i be the stabilizer of h_1..h_i in G_0 = O(A_p, q_p).  The
    elements of G_{i-1} that move h_i to one point y are one left coset of
    G_i, so |G_{i-1}| = |T_i| |G_i| for the transversal T_i (orbit and
    stabilizer), and G_k = 1 because the h_i span A_p.  So |O(A_p, q_p)| is
    the product of the |T_i|, and order() is that product over every p and
    i, read with no element built.  Every FqfIsometry of the form was
    validated or certified when it was built, so each one is a member, and
    a subgroup with as many elements is all of O(A, q).

    Generators.  Each element of O(A_p, q_p) is uniquely u_1 u_2 ... u_k
    with u_i in T_i, so the T_i generate it.  Each transversal element,
    stitched with the identity contribution e_q of every other block,
    gives a generating set of O(A, q) (_generator_matrices).

    Elements are built on first read, certified: the products (_products,
    stitched across blocks when there are several) are asserted to be
    distinct and to number order(), then sorted.  A group with more than
    MAX_SUBGROUP_ORDER elements raises BudgetExceeded before it builds any.

    The elements of each level are asserted distinct when it is built, and
    each generator to keep q and b once: then if it has several blocks,
    else on the first read of its elements.
    """

    def __init__(self, form: FiniteQuadraticForm, chains: list):
        for _, levels in chains:
            for level in levels:
                if len(set(level)) != len(level):
                    raise AssertionError("two transversal elements gave one element")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "_chains", chains)
        if len(chains) > 1:
            _assert_keeps_form(form, form, self._generator_matrices())

    def order(self) -> int:
        return prod(len(level) for _, levels in self._chains for level in levels)

    def __repr__(self):
        return f"_FullGroup(orders={self.form.orders}, order={self.order()})"

    @functools.cached_property
    def elements(self) -> tuple:
        order = self.order()
        if order > MAX_SUBGROUP_ORDER:
            raise BudgetExceeded(f"|O(A, q)| = {order} exceeds the cap {MAX_SUBGROUP_ORDER} on built elements")
        form = self.form
        if len(self._chains) == 1:  # else checked in __init__
            _assert_keeps_form(form, form, self._generator_matrices())
        blocks = [_products(ident, levels, form.orders) for ident, levels in self._chains]
        matrices = sorted(blocks[0] if len(blocks) == 1 else _stitch(blocks, form.orders))
        if len(matrices) != order or any(a == b for a, b in zip(matrices, matrices[1:])):
            raise AssertionError("two products of transversal elements gave one element")
        return tuple(FqfIsometry._certified(form, matrix) for matrix in matrices)

    def _generator_matrices(self):
        """Each transversal element other than the identity, stitched with
        the identity contribution of every other block: elements that
        generate O(A, q)."""
        idents = [ident for ident, _ in self._chains]
        return [
            _combine(idents[:p] + [u] + idents[p + 1 :], self.form.orders)
            for p, (ident, levels) in enumerate(self._chains)
            for level in levels
            for u in level
            if u != ident
        ]

    def __contains__(self, iso: FqfIsometry) -> bool:
        return iso.form == self.form

    def is_subgroup_of(self, other: FqfSubgroup) -> bool:
        return self.form == other.form and other.order() == self.order()


def aut_group(form: FiniteQuadraticForm, budget: Optional[int] = None) -> FqfSubgroup:
    """Full O(A, q), as a stabilizer chain of each p-primary block
    (_FullGroup): its order is the product of the transversal sizes, by
    orbit and stabilizer, and its membership needs no element; the elements
    are built as products of transversal elements when they are read.

    The elements are built with FqfIsometry._certified.  A transversal
    element is a search leaf: it matched element orders, q and every
    pairwise b, so it is a well-defined map on A_p that keeps b; b is
    nondegenerate, so it is injective and an automorphism of A_p.  Direct
    sums and products of such maps are automorphisms of A; each generator
    is still asserted to keep q and b, and no two elements to be equal.
    """
    _check_budget(form.order(), budget)
    return _FullGroup(form, [_stabilizer_chain(form, block) for block in _primary_blocks(form, form)])


def natural_map(lattice: EvenLattice, isometry) -> FqfIsometry:
    """Induced action of an isometry of L on the discriminant form."""
    if isinstance(isometry, LatticeIsometry):
        if isometry.lattice != lattice:
            raise NotIsometry("isometry belongs to a different lattice")
        mat = isometry.matrix
    else:
        mat = intmat.freeze(isometry)
        LatticeIsometry(lattice, mat)  # validates
    data = _disc_data(lattice)
    cols = [
        data.class_of(intmat.matvec(mat, tuple(row[idx] for row in data.v)), data.dvec[idx])
        for idx in data.keep
    ]
    return FqfIsometry.from_images(data.form, cols)


def isotropic_elements(form: FiniteQuadraticForm, d: int, budget: Optional[int] = None) -> list:
    """All x with q(x) = 0 in Q/2Z and exact order d, in canonical order,
    which is the itertools.product order of the walk."""
    if d < 1:
        raise BadParams(f"the order d must be at least 1, got {d}")
    _check_budget(form.order(), budget)
    if form.exponent() % d != 0:
        return []
    return [x for x, _, _ in _candidates(form, [range(c) for c in form.orders], (d,), (0,))[0]]


def isotropic_subgroups(form: FiniteQuadraticForm, order: int, budget: Optional[int] = None) -> list:
    """All subgroups of the given order on which q vanishes identically."""
    _check_budget(form.order(), budget)
    zero = form.zero()
    if order == 1:
        return [(zero,)]
    if form.order() % order != 0:
        return []
    candidates = [
        x
        for x in sorted(form.elements())
        if x != zero and form._qn(x) == 0 and order % form.element_order(x) == 0
    ]
    seen = {frozenset({zero})}
    frontier = [frozenset({zero})]
    hits = set()
    while frontier:
        grown = []
        for sub in frontier:
            for x in candidates:
                if x in sub:
                    continue
                span = _span_elements(form, set(sub) | {x})
                size = len(span)
                if size > order or order % size != 0:
                    continue
                if any(form._qn(y) for y in span):
                    continue
                fs = frozenset(span)
                if fs in seen:
                    continue
                seen.add(fs)
                if size == order:
                    hits.add(fs)
                else:
                    grown.append(fs)
        frontier = grown
    return sorted(tuple(sorted(h)) for h in hits)


def overlattice(lattice: EvenLattice, subgroup) -> EvenLattice:
    """Even overlattice of L defined by an isotropic subgroup of A_L.

    With N the exponent, N L' is spanned by the rows N e_i and, per class x
    of the subgroup, the integer row N sum_a x_a g_a = sum_a x_a (N / d_a)
    v_a; its Hermite basis, divided by N, is a basis of L'."""
    data = _disc_data(lattice)
    form = data.form
    elems = _span_elements(form, [form.reduce(x) for x in subgroup])
    for x in elems:
        if form._qn(x):
            raise NotIsotropic(f"q({x}) != 0; the subgroup is not isotropic")
    n, big = lattice.rank, form.exponent()
    # row r of V on the kept columns a, each entry times N / d_a
    v_rows = [tuple(big // data.dvec[idx] * row[idx] for idx in data.keep) for row in data.v]
    rows = [tuple(big * e for e in unit) for unit in intmat.identity(n)]
    rows += [tuple(sum(map(operator.mul, x, vr)) for vr in v_rows) for x in elems]
    basis = intmat.hnf_rows(rows)
    if len(basis) != n:
        raise AssertionError("overlattice basis lost rank")
    scaled = restricted_gram(lattice, intmat.transpose(basis))
    if any(val % (big * big) for row in scaled for val in row):
        raise NotIsotropic("overlattice pairing is not integral")
    result = EvenLattice(tuple(tuple(val // (big * big) for val in row) for row in scaled))
    if abs(lattice.det()) != len(elems) ** 2 * abs(result.det()):
        raise AssertionError("overlattice index law violated")
    return result


def fqf_isomorphism(source: FiniteQuadraticForm, target: FiniteQuadraticForm) -> Optional[Matrix]:
    """Matrix of an isomorphism (A_src, q) -> (A_tgt, q), or None.

    Column j holds the target coordinates of the image of source generator j.
    The search runs per p-primary block (_primary_blocks) and keeps the
    first isometry of each, so for a group of one prime it is the
    whole-group search and its first witness.
    """
    if source.orders != target.orders:
        return None
    contributions = []
    for block in _primary_blocks(source, target):
        sigma = next(_place_images(target._pack, block.candidates, block.gen_b, []), None)
        if sigma is None:
            return None
        contributions.append(_contribution(block, sigma, target))
    witness = _combine(contributions, target.orders)
    if len(contributions) > 1:
        _assert_keeps_form(source, target, [witness])
    return witness


class IsogenyResult(_Frozen):
    _fields = ("isogenus", "witness")

    def __init__(self, isogenus: bool, witness: Optional[Matrix]):
        self._assign(isogenus, witness)

    def __bool__(self) -> bool:
        return self.isogenus


def is_isogenus(left: EvenLattice, right: EvenLattice, budget: Optional[int] = None) -> IsogenyResult:
    """Same signature plus an explicit isomorphism of discriminant forms."""
    if signature(left) != signature(right):
        return IsogenyResult(False, None)
    if abs(left.det()) != abs(right.det()):
        return IsogenyResult(False, None)
    _check_budget(abs(left.det()), budget)
    witness = fqf_isomorphism(discriminant_form(left), discriminant_form(right))
    return IsogenyResult(witness is not None, witness)


def _is_central(sub: FqfSubgroup) -> bool:
    """Whether every element of sub is a scalar c * id, read on a
    generating set: the scalars are closed under products.

    Scalars commute with every endomorphism of sum_i Z/d_i, so such a
    subgroup is central in O(A, q); {1} and {+-1} are two.  The orders form
    a divisibility chain, so c mod the exponent is the last diagonal entry.
    """
    orders = sub.form.orders
    k = len(orders)
    for matrix in sub._generator_matrices():
        c = matrix[-1][-1] if k else 0
        scalar = tuple(tuple(c % d if i == j else 0 for j in range(k)) for i, d in enumerate(orders))
        if matrix != scalar:
            return False
    return True


def double_coset_count(left: FqfSubgroup, ambient: FqfSubgroup, right: FqfSubgroup) -> int:
    """Number of double cosets left \\ ambient / right.

    When either factor is central (_is_central), H g K = g H K, so the
    double cosets are the cosets of the subgroup HK and the count is
    |G| / |HK|, where |HK| = |H| |K| / |H intersect K| and the intersection
    is found by membership.  An |HK| that does not divide |G| (Lagrange)
    raises AssertionError.  Every other pair runs the orbit sweep
    _double_coset_sweep.
    """
    if not left.is_subgroup_of(ambient):
        raise SubgroupNotContained("left factor is not contained in the ambient group")
    if not right.is_subgroup_of(ambient):
        raise SubgroupNotContained("right factor is not contained in the ambient group")
    for central, other in ((left, right), (right, left)):
        if _is_central(central):
            meet = sum(iso in other for iso in central.elements)
            hk, rest = divmod(central.order() * other.order(), meet)
            if rest or ambient.order() % hk:
                raise AssertionError("|HK| does not divide the ambient order")
            return ambient.order() // hk
    return _double_coset_sweep(left, ambient, right)


def _double_coset_sweep(left: FqfSubgroup, ambient: FqfSubgroup, right: FqfSubgroup) -> int:
    """Number of double cosets left \\ ambient / right by orbit sweeping.

    The reference for the order route of double_coset_count, and the route
    for a pair with no central factor.  The sweep multiplies reduced
    matrices.  Every product l x r must be the matrix of an element of the
    ambient group, whose elements were all validated when it was built; a
    product outside it (an ambient element set that is not closed) raises
    AssertionError.
    """
    orders = ambient.form.orders
    members = ambient._members
    lefts = [l.matrix for l in left.elements]
    rights = [tuple(zip(*r.matrix)) for r in right.elements]
    visited = set()
    count = 0
    for x in ambient.elements:
        if x.matrix in visited:
            continue
        count += 1
        x_cols = tuple(zip(*x.matrix))
        for l in lefts:
            lx = _matmul_mod(l, x_cols, orders)
            for r in rights:
                lxr = _matmul_mod(lx, r, orders)
                if lxr not in members:
                    raise AssertionError("a double-coset product left the ambient group")
                visited.add(lxr)
    return count


def transport_subgroup(sub: FqfSubgroup, target: FiniteQuadraticForm) -> FqfSubgroup:
    """Carry a subgroup of O(A_src) onto an isomorphic form as {psi g psi^-1}.

    Any isomorphism psi works for counting: the double-coset count is
    invariant under conjugating one factor.  A subgroup of scalars, such as
    {1} or {+-id}, moves as itself (psi c psi^-1 = c) onto a form on the same
    group, without an isomorphism search.  psi is an automorphism of the
    group sum_i Z/d_i of both forms, so _inverse_mod inverts it and
    _matmul_mod composes with it.  psi O(A_src) psi^-1 is O(A_tgt): the
    full group moves as its conjugated transversal elements, checked as
    generators when its elements are read; any other moved element is
    checked as it is built.
    """
    source = sub.form
    if source == target:
        return sub
    if source.orders == target.orders and _is_central(sub):
        scalars = (FqfIsometry(target, matrix) for matrix in sub._generator_matrices())
        return fqf_subgroup(target, scalars)
    psi = fqf_isomorphism(source, target)
    if psi is None:
        raise NotIsometry("subgroup cannot be transported onto the target form")
    orders = target.orders
    psi_inv_cols = tuple(zip(*_inverse_mod(psi, orders)))

    def conjugate(matrix):
        psi_g = _matmul_mod(psi, tuple(zip(*matrix)), orders)
        return _matmul_mod(psi_g, psi_inv_cols, orders)

    if isinstance(sub, _FullGroup):
        # the identity contributions are scalars, which conjugation keeps
        chains = [(ident, [[conjugate(u) for u in level] for level in levels]) for ident, levels in sub._chains]
        return _FullGroup(target, chains)
    moved = sorted(conjugate(g.matrix) for g in sub.elements)
    return FqfSubgroup(target, tuple(FqfIsometry(target, matrix) for matrix in moved))
