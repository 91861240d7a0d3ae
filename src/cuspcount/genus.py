"""Genus (isogeny) classes: the indefinite singleton criterion and brute
enumeration of rank-2 classes by classical binary-form reduction.

A rank-2 even lattice [[2a, b], [b, 2c]] is handled through the integral
binary form (a, b, c).  Definite forms reduce by Gauss's algorithm,
indefinite ones split into the square-discriminant case (each class holds
a unique [[2a, k], [k, 0]] per isotropic line) and the non-square case
(cycles of reduced forms).
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Optional

from . import intmat
from .discriminant import (
    FiniteQuadraticForm,
    _check_budget,
    discriminant_form,
    fqf_isomorphism,
)
from .errors import BoundTooSmall, NotRank2
from .lattices import EvenLattice, LatticeMap, _Frozen, is_indefinite, restricted_gram, signature


def nikulin_unique(lattice: EvenLattice) -> bool:
    """Indefinite with rank >= l(A) + 2: singleton genus, surjective r_L."""
    if not is_indefinite(lattice):
        return False
    return lattice.rank >= discriminant_form(lattice).ngens + 2


class GenusQuery(_Frozen):
    _fields = ("signature", "target_form", "search_bound")

    def __init__(self, signature: tuple, target_form: FiniteQuadraticForm, search_bound: int):
        self._assign(signature, target_form, search_bound)


def _triple_of(lattice: EvenLattice):
    g = lattice.gram
    return g[0][0] // 2, g[0][1], g[1][1] // 2


def _lattice_of(a: int, b: int, c: int) -> EvenLattice:
    return EvenLattice(((2 * a, b), (b, 2 * c)))


def _invariant_factors(triple) -> tuple:
    """Invariant factors > 1 of the Gram [[2a, b], [b, 2c]] of (a, b, c):
    g = gcd of the entries, then |det| / g.  They are the orders of its
    discriminant form."""
    a, b, c = triple
    g = gcd(2 * a, b, 2 * c)
    return tuple(d for d in (g, abs(4 * a * c - b * b) // g) if d > 1)


def _apply(triple, t):
    # form coefficients after the basis change with columns of t
    a, b, c = triple
    p, r = t[0][0], t[1][0]
    q, s = t[0][1], t[1][1]
    a2 = a * p * p + b * p * r + c * r * r
    b2 = 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s
    c2 = a * q * q + b * q * s + c * s * s
    return (a2, b2, c2)


_SWAP = ((0, -1), (1, 0))
_FLIP = ((1, 0), (0, -1))


def _shear(s):
    return ((1, s), (0, 1))


def _reduce_definite(triple):
    """Gauss reduction of a positive definite (a, b, c); returns (triple, basis)."""
    basis = intmat.identity(2)
    a, b, c = triple
    for _ in range(10_000):
        if c < a:
            basis = intmat.matmul(basis, _SWAP)
            a, b, c = _apply((a, b, c), _SWAP)
            continue
        if not (-a < b <= a):
            shift = ((b + a - 1) % (2 * a)) - a + 1
            t = _shear((shift - b) // (2 * a))
            basis = intmat.matmul(basis, t)
            a, b, c = _apply((a, b, c), t)
            continue
        break
    else:
        raise AssertionError("definite reduction failed to terminate")
    if a == c and b < 0:
        basis = intmat.matmul(basis, _SWAP)
        a, b, c = _apply((a, b, c), _SWAP)
    if b < 0:
        # improper flip; allowed since classes are taken under the full O(L)
        basis = intmat.matmul(basis, _FLIP)
        a, b, c = _apply((a, b, c), _FLIP)
    return (a, b, c), basis


def _isotropic_lines(triple):
    """The two primitive isotropic lines of a square-discriminant form."""
    a, b, c = triple
    d = b * b - 4 * a * c
    k = isqrt(d)
    lines = []
    if a == 0:
        lines.append((1, 0))
        g = gcd(abs(b), abs(c))
        lines.append(_sign_normal((c // g, -b // g)))
    else:
        for root in (-b + k, -b - k):
            g = gcd(abs(root), abs(2 * a))
            lines.append(_sign_normal((root // g, (2 * a) // g)))
    return lines


def _sign_normal(v):
    for x in v:
        if x > 0:
            return v
        if x < 0:
            return tuple(-y for y in v)
    return v


def _line_normal_form(lattice: EvenLattice, line):
    """Basis (w, v) along an isotropic line v with Gram [[2a*, k], [k, 0]]."""
    p, q = line
    g, t, s_neg = intmat.xgcd(p, q)
    if g != 1:
        raise AssertionError("isotropic line is not primitive")
    # p*t + q*s_neg = 1, so w = (-s_neg, t) gives det [[p, -s_neg], [q, t]] = 1
    w = (-s_neg, t)
    v = (p, q)
    pairing = lattice.pair(v, w)
    if pairing < 0:
        w = tuple(-x for x in w)
        pairing = -pairing
    shift = -((lattice.norm(w) // 2) // pairing)
    w = tuple(wi + shift * vi for wi, vi in zip(w, v))
    a_star = lattice.norm(w) // 2
    if not 0 <= a_star < pairing:
        raise AssertionError("line normal form reduction failed")
    basis = intmat.from_columns([w, v])
    expect = ((2 * a_star, pairing), (pairing, 0))
    if restricted_gram(lattice, basis) != expect:
        raise AssertionError("line normal form Gram check failed")
    return a_star, pairing, basis


def _indef_reduced(a, b, c, d):
    if b <= 0 or b * b >= d:
        return False
    t = 2 * abs(a)
    if (t + b) ** 2 <= d:
        return False
    if t > b and (t - b) ** 2 >= d:
        return False
    return True


def _rho(triple, d):
    """One reduction/cycle step; returns (next_triple, transform)."""
    a, b, c = triple
    if c == 0:
        raise AssertionError("rho needs c != 0 (non-square discriminant)")
    sq = isqrt(d)
    two_c = 2 * abs(c)
    if abs(c) > sq:
        b_next = ((-b + abs(c) - 1) % two_c) - abs(c) + 1
    else:
        b_next = sq - ((sq + b) % two_c)
    s = (b + b_next) // (2 * c)
    t = ((0, -1), (1, s))
    nxt = _apply(triple, t)
    if nxt[0] != c or nxt[1] != b_next:
        raise AssertionError("rho bookkeeping failed")
    return nxt, t


def _reduce_indefinite(triple, d):
    basis = intmat.identity(2)
    cur = triple
    for _ in range(10_000):
        if _indef_reduced(*cur, d):
            return cur, basis
        cur, t = _rho(cur, d)
        basis = intmat.matmul(basis, t)
    raise AssertionError("indefinite reduction failed to terminate")


def _cycle_walk(start, d):
    """Yield (form, basis-from-start) around the cycle of a reduced form."""
    basis = intmat.identity(2)
    cur = start
    while True:
        yield cur, basis
        cur, t = _rho(cur, d)
        basis = intmat.matmul(basis, t)
        if cur == start:
            return


def _witness(left: EvenLattice, right: EvenLattice, basis_l, basis_r) -> LatticeMap:
    mat = intmat.matmul(basis_r, intmat.inv_unimodular(basis_l))
    return LatticeMap(left, right, mat)


def equivalent_rank2(left: EvenLattice, right: EvenLattice) -> Optional[LatticeMap]:
    """Explicit isometry between rank-2 even lattices, or None.

    Equal Gram matrices give the identity map, validated like any other
    witness; unequal ones are reduced to a canonical form and compared.
    """
    if left.rank != 2 or right.rank != 2:
        raise NotRank2("both lattices must have rank 2")
    if left.gram == right.gram:
        return LatticeMap(left, right, intmat.identity(2))
    if left.det() != right.det() or signature(left) != signature(right):
        return None
    det = left.det()
    if det > 0:
        # definite: reduce |Q| to the Gauss-canonical triple
        sign = 1 if left.gram[0][0] > 0 else -1
        tl = _triple_of(left)
        tr = _triple_of(right)
        canon_l, basis_l = _reduce_definite(tuple(sign * x for x in tl))
        canon_r, basis_r = _reduce_definite(tuple(sign * x for x in tr))
        if canon_l != canon_r:
            return None
        return _witness(left, right, basis_l, basis_r)
    d = -det
    k = isqrt(d)
    if k * k == d:
        pairs_l = [_line_normal_form(left, line) for line in _isotropic_lines(_triple_of(left))]
        pairs_r = [_line_normal_form(right, line) for line in _isotropic_lines(_triple_of(right))]
        for a_l, _, basis_l in pairs_l:
            for a_r, _, basis_r in pairs_r:
                if a_l == a_r:
                    return _witness(left, right, basis_l, basis_r)
        return None
    red_l, basis_l = _reduce_indefinite(_triple_of(left), d)
    for flip in (None, _FLIP):
        triple_r = _triple_of(right)
        pre = intmat.identity(2)
        if flip is not None:
            triple_r = _apply(triple_r, flip)
            pre = flip
        red_r, basis_r = _reduce_indefinite(triple_r, d)
        for form, walk in _cycle_walk(red_r, d):
            if form == red_l:
                # right . pre . basis_r . walk carries red_l's basis on the right side
                total_r = intmat.matmul(intmat.matmul(pre, basis_r), walk)
                return _witness(left, right, basis_l, total_r)
    return None


def _definite_candidates(n: int, negative: bool):
    """The Gauss-reduced (a, b, c) with 4ac - b^2 = n, negated if asked."""
    out = []
    for a in range(1, isqrt(n // 3) + 2):
        for b in range(0, a + 1):
            if (n + b * b) % (4 * a) != 0:
                continue
            c = (n + b * b) // (4 * a)
            if c < a:
                continue
            out.append((-a, -b, -c) if negative else (a, b, c))
    return out


def _indefinite_candidates(n: int):
    """The reduced (a, b, c) with b^2 - 4ac = n: (a, k, 0), 0 <= a < k, for
    n = k^2, else the reduced forms of the cycles."""
    d = n
    if d % 4 not in (0, 1):
        return []
    k = isqrt(d)
    if k * k == d:
        return [(a, k, 0) for a in range(k)]
    out = []
    for b in range(1, k + 1):
        if (d - b * b) % 4 != 0:
            continue
        m = (d - b * b) // 4  # a*c = -m
        for a_abs in range(1, m + 1):
            if m % a_abs != 0:
                continue
            for a in (a_abs, -a_abs):
                c = -m // a
                if _indef_reduced(a, b, c, d):
                    out.append((a, b, c))
    return out


def genus_representatives_rank2(query: GenusQuery, budget: Optional[int] = None) -> list:
    """All rank-2 even classes with the given signature and discriminant form.

    Complete relative to classical reduction theory; raises BoundTooSmall if
    the requested sweep bound cannot cover the reduced representatives, and
    BudgetExceeded when |A| exceeds the budget, since the candidate list and
    the isomorphism tests grow with |A|.
    """
    p, q = query.signature
    if p + q != 2:
        raise NotRank2("genus sweep is implemented for rank 2 only")
    target = query.target_form
    n = target.order()
    definite = p == 0 or q == 0
    required = isqrt(n // 3) + 1 if definite else isqrt(n) + 1
    required = max(required, target.exponent())
    if query.search_bound < required:
        raise BoundTooSmall(
            f"search bound {query.search_bound} is below the reduction bound {required}"
        )
    _check_budget(n, budget)
    if definite:
        candidates = _definite_candidates(n, negative=q == 2)
    else:
        candidates = _indefinite_candidates(n)
    reps = []
    for triple in candidates:
        # fqf_isomorphism's first test, made before the lattice is built
        if _invariant_factors(triple) != target.orders:
            continue
        cand = _lattice_of(*triple)
        if signature(cand) != query.signature:
            continue
        form = discriminant_form(cand)
        if form != target and fqf_isomorphism(form, target) is None:
            continue
        if any(equivalent_rank2(seen, cand) is not None for seen in reps):
            continue
        reps.append(cand)
    return sorted(reps, key=lambda L: L.gram)
