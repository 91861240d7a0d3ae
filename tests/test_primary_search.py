"""The p-primary isomorphism search and the pre-filtered rank-2 genus sweep
against the whole-group search and the unfiltered sweep they replaced.

The references below are the earlier implementations, kept here only as
oracles: fqf_isomorphism searched one pool of all |A| elements of the
target, and genus_representatives_rank2 built the discriminant form of
every candidate and tested it with that search, deduplicating with the
reduction route of equivalent_rank2 (conftest.reference_equivalent_rank2,
which has no equal-Gram shortcut).  The sweep generates its candidates as
(a, b, c) triples; the catalogue is every one of them for |disc| <= 200,
definite and indefinite, as lattices.
The reference search is memoised, so the sweep comparison reuses the pairs
the search comparison has already decided.
"""

import collections
import functools
import random
from math import isqrt

import pytest

from conftest import U, corpus, negated, reference_equivalent_rank2, reference_image_assignments
from cuspcount import counting, genus
from cuspcount.cli import parse_lattice_spec
from cuspcount.counting import ur_example
from cuspcount.discriminant import (
    _check_budget,
    _prime_factors,
    discriminant_form,
    fqf_isomorphism,
)
from cuspcount.errors import BoundTooSmall, NotRank2
from cuspcount.genus import (
    GenusQuery,
    _definite_candidates,
    _indefinite_candidates,
    _invariant_factors,
    _lattice_of,
    equivalent_rank2,
    genus_representatives_rank2,
)
from cuspcount.lattices import EvenLattice, make_lattice, signature

# --- references ---------------------------------------------------------------


@functools.cache
def reference_fqf_isomorphism(source, target):
    if source.orders != target.orders:
        return None
    if source.is_trivial():
        return ()
    pool = sorted(target.elements())
    # equal orders give equal exponents, so the source numerators apply
    for images in reference_image_assignments(target, pool, source.orders, source._q, source._b):
        k = len(images)
        return tuple(tuple(images[j][i] for j in range(k)) for i in range(k))
    return None


def reference_genus_representatives_rank2(query, budget=None):
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
        triples = _definite_candidates(n, negative=q == 2)
    else:
        triples = _indefinite_candidates(n)
    reps = []
    for cand in (_lattice_of(*triple) for triple in triples):
        if signature(cand) != query.signature:
            continue
        if reference_fqf_isomorphism(discriminant_form(cand), target) is None:
            continue
        if any(reference_equivalent_rank2(seen, cand) is not None for seen in reps):
            continue
        reps.append(cand)
    return sorted(reps, key=lambda L: L.gram)


# --- inputs -------------------------------------------------------------------

MAX_DISC = 200
SIGNATURES = ((2, 0), (0, 2), (1, 1))


@functools.cache
def candidate_triples():
    """(|disc|, (a, b, c)) for every rank-2 sweep candidate with |disc| <= 200."""
    out = []
    for n in range(1, MAX_DISC + 1):
        triples = (
            _definite_candidates(n, negative=False)
            + _definite_candidates(n, negative=True)
            + _indefinite_candidates(n)
        )
        out.extend((n, triple) for triple in triples)
    return tuple(out)


@functools.cache
def catalogue():
    """(|disc|, lattice) for every rank-2 sweep candidate with |disc| <= 200."""
    return tuple((n, _lattice_of(*triple)) for n, triple in candidate_triples())


@functools.cache
def candidate_classes():
    """Per (|disc|, invariant factors): the distinct candidate forms, and one
    representative per isomorphism class."""
    forms = collections.defaultdict(dict)
    for n, lattice in catalogue():
        form = discriminant_form(lattice)
        forms[n, form.orders].setdefault(form, None)
    out = {}
    for key, found in forms.items():
        reps = []
        for form in found:
            if all(fqf_isomorphism(form, rep) is None for rep in reps):
                reps.append(form)
        out[key] = (tuple(found), tuple(reps))
    return out


def _random_basis(lattice, rng, steps=6):
    n = lattice.rank
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
    gram = lattice.gram
    gm = [[sum(gram[i][k] * mat[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return make_lattice([[sum(mat[k][i] * gm[k][j] for k in range(n)) for j in range(n)] for i in range(n)])


@functools.cache
def corpus_forms():
    """The corpus, three multi-prime lattices, a random basis of each and the
    negated forms."""
    rng = random.Random(20081)
    lattices = corpus() + [parse_lattice_spec(s) for s in ("U(12)", "diag(6,-10)", "U(2)+U(6)")]
    forms = []
    for lattice in lattices:
        if lattice.rank >= 2:
            lattice_b = _random_basis(lattice, rng)
        else:
            lattice_b = lattice
        for form in (discriminant_form(lattice), discriminant_form(lattice_b)):
            forms += [form, negated(form)]
    return tuple(dict.fromkeys(forms))


# --- checks -------------------------------------------------------------------


def assert_isomorphism(source, target, matrix):
    """matrix (column j = image of source generator j) is a well-defined
    bijection A_src -> A_tgt preserving q and b."""
    k = source.ngens
    assert source.orders == target.orders
    cols = [tuple(matrix[i][j] for i in range(k)) for j in range(k)]
    for d, col in zip(source.orders, cols):
        assert target.scale(d, col) == target.zero()

    def image(x):
        return tuple(
            sum(matrix[i][j] * x[j] for j in range(k)) % target.orders[i] for i in range(k)
        )

    images = {x: image(x) for x in source.elements()}
    assert len(set(images.values())) == source.order()
    # equal orders give equal exponents, so the numerators compare directly
    for x, y in images.items():
        assert target._qn(y) == source._qn(x)
    units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    for a in units:
        for b in units:
            assert target._bn(images[a], images[b]) == source._bn(a, b)


def _single_prime(form):
    return len(_prime_factors(form.exponent())) <= 1


def _compare(source, target, tally):
    expect = reference_fqf_isomorphism(source, target)
    got = fqf_isomorphism(source, target)
    assert (got is None) == (expect is None)
    if got is None:
        tally["none"] += 1
        return
    assert_isomorphism(source, target, got)
    if _single_prime(source):
        assert got == expect
        tally["single"] += 1
    else:
        tally["multi"] += 1


# --- the isomorphism search ---------------------------------------------------


def test_invariant_factors_are_the_form_orders():
    for _, triple in candidate_triples():
        assert _invariant_factors(triple) == discriminant_form(_lattice_of(*triple)).orders


def test_invariant_factors_read_the_even_gram():
    """The factors are those of [[2a, b], [b, 2c]], not of the binary form
    (a, b, c): the two gcds differ when b is even."""
    cases = {
        (1, 0, 1): (2, 2),  # diag(2, 2)
        (1, 2, 3): (2, 4),  # [[2, 2], [2, 6]]
        (-1, 0, -3): (2, 6),  # diag(-2, -6)
        (2, 4, 0): (4, 4),  # 4 [[1, 1], [1, 0]]
        (1, 1, -3): (13,),  # gcd 1 either way
    }
    for triple, orders in cases.items():
        assert _invariant_factors(triple) == orders
        assert discriminant_form(_lattice_of(*triple)).orders == orders


def test_search_agrees_on_every_candidate_form():
    """Each distinct candidate form against every class representative of its
    |disc| and invariant factors, so each form meets its own class and all
    the others."""
    tally = collections.Counter()
    for forms, reps in candidate_classes().values():
        for form in forms:
            for rep in reps:
                _compare(form, rep, tally)
    assert tally["none"] and tally["single"] and tally["multi"]


def test_search_agrees_on_the_corpus():
    tally = collections.Counter()
    forms = corpus_forms()
    for source in forms:
        for target in forms:
            if source.orders == target.orders:
                _compare(source, target, tally)
    assert tally["none"] and tally["single"] and tally["multi"]


def test_different_invariant_factors_give_none():
    assert fqf_isomorphism(discriminant_form(U(6)), discriminant_form(parse_lattice_spec("diag(2,-18)"))) is None


# --- the genus sweep ----------------------------------------------------------


def test_sweep_equals_reference_sweep():
    """Every signature against one target per isomorphism class of every
    candidate form of each |disc| <= 200; most (signature, target) pairs
    have an empty genus, which the invariant factors alone decide."""
    by_disc = collections.defaultdict(list)
    for (n, _), (_, reps) in candidate_classes().items():
        by_disc[n].extend(reps)
    nonempty = 0
    for n, targets in by_disc.items():
        for target in targets:
            for sig in SIGNATURES:
                query = GenusQuery(sig, target, max(n, target.exponent()) + 1)
                got = genus_representatives_rank2(query)
                assert got == reference_genus_representatives_rank2(query)
                nonempty += bool(got)
    assert nonempty


def test_sweep_equals_reference_sweep_on_ur():
    for r in range(3, 61):
        form = discriminant_form(U(r))
        query = GenusQuery((1, 1), form, r * r + 1)
        assert genus_representatives_rank2(query) == reference_genus_representatives_rank2(query)


def test_sweep_equals_reference_sweep_on_the_hyperbolic_forms():
    """The 320 indefinite [[2a, b], [b, 2c]] with a = 1..12, b = 0..12,
    c = -13..-1 and |det| <= 80, each in the sweep of its own form."""
    lattices = [
        EvenLattice(((2 * a, b), (b, 2 * c)))
        for a in range(1, 13)
        for b in range(13)
        for c in range(-13, 0)
        if b * b - 4 * a * c <= 80
    ]
    assert len(lattices) == 320
    for lattice in lattices:
        form = discriminant_form(lattice)
        query = GenusQuery(signature(lattice), form, max(form.order(), form.exponent()) + 1)
        got = genus_representatives_rank2(query)
        assert got == reference_genus_representatives_rank2(query)
        assert any(equivalent_rank2(rep, lattice) is not None for rep in got)


# --- one O(A_M) per ur_example, no form for a filtered candidate ---------------


@pytest.mark.parametrize("r", [3, 12, 30, 60])
def test_ur_example_builds_one_aut_group_per_member(monkeypatch, r):
    aut_calls = []
    real_aut = counting.aut_group

    def aut_spy(form, *args, **kwargs):
        aut_calls.append(form)
        return real_aut(form, *args, **kwargs)

    built = []
    real_form = genus.discriminant_form

    def form_spy(lattice):
        built.append(lattice)
        return real_form(lattice)

    candidates = []
    real_candidates = genus._indefinite_candidates

    def candidates_spy(n):
        out = real_candidates(n)
        candidates.extend(out)
        return out

    lattices = []
    real_lattice_of = genus._lattice_of

    def lattice_spy(*triple):
        lattices.append(real_lattice_of(*triple))
        return lattices[-1]

    monkeypatch.setattr(counting, "aut_group", aut_spy)
    monkeypatch.setattr(genus, "discriminant_form", form_spy)
    monkeypatch.setattr(genus, "_indefinite_candidates", candidates_spy)
    monkeypatch.setattr(genus, "_lattice_of", lattice_spy)
    report = ur_example(r)
    assert report.passed
    members = [EvenLattice(gram) for gram in report.genus_classes]
    assert aut_calls == [discriminant_form(m) for m in members]
    target = discriminant_form(U(r)).orders
    assert built and candidates and lattices
    assert all(discriminant_form(lattice).orders == target for lattice in built)
    # only candidates with the target's orders become lattices
    assert all(discriminant_form(lattice).orders == target for lattice in lattices)
    assert any(discriminant_form(_lattice_of(*c)).orders != target for c in candidates)
