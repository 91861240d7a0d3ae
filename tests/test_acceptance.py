"""Acceptance gate: every criterion prints one PASS/FAIL line.

All tolerances are exact (integer equality); nothing here is calibrated.
"""

import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import sympy
from conftest import U, corpus, diag, reference_full_group, sums

from cuspcount import intmat
from cuspcount.counting import (
    K3Model,
    _genus_of,
    _r_image_of_om,
    _with_ambients,
    count_cusps_zero_dim,
    count_fm,
    derive_orbit_data,
    route_crosscheck,
    ur_example,
)
from cuspcount.discriminant import (
    _double_coset_sweep,
    _prime_factors,
    aut_group,
    discriminant_form,
    double_coset_count,
    isotropic_subgroups,
    natural_map,
    overlattice,
    plus_minus_subgroup,
    transport_subgroup,
)
from cuspcount.genus import GenusQuery, equivalent_rank2, genus_representatives_rank2, nikulin_unique
from cuspcount.isotropic import (
    check_div_square,
    enumerate_isotropic,
    projection_isometry,
    split_from_pair,
    stabilizer_compose,
    stabilizer_decompose,
    transvection,
)
from cuspcount.lattices import Embedding, LatticeIsometry

GOLDEN_R = [3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 18, 20, 24, 30]


def report(ok: bool, label: str, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag}  {label}" + (f"  [{detail}]" if detail else ""))
    assert ok, label


def closed_forms(r):
    # independent closed forms via sympy's totient / primefactors
    tau = len(sympy.primefactors(r))
    phi = int(sympy.totient(r))
    return {
        "fm": (2**tau * phi) // 4,
        "fm_ell": (2**tau * phi) // 2,
        "mu1": phi // 2,
        "cusps": 2**tau,
    }


def ur_terms_two_ways(r):
    """Each double-coset term of U(r)'s partner and elliptic-pair counts, by
    double_coset_count and by the brute-force sweep: {kind: [(count, sweep)]}."""
    terms = {"fm": [], "fm_ell": []}
    for member, form, ambient in _with_ambients(_genus_of(U(r))[0], None):
        pm = plus_minus_subgroup(form)
        rights = {
            "fm": [_r_image_of_om(member, None, ambient)],
            "fm_ell": [
                transport_subgroup(datum.stabilizer_image, form)
                for datum in derive_orbit_data(member, None)[0]
            ],
        }
        for kind, factors in rights.items():
            terms[kind] += [
                (double_coset_count(pm, ambient, f), _double_coset_sweep(pm, ambient, f))
                for f in factors
            ]
    return terms


def test_criterion_1_ur_golden_suite():
    start = time.time()
    mismatches = []
    for r in GOLDEN_R:
        got = ur_example(r)
        want = closed_forms(r)
        terms = ur_terms_two_ways(r)
        if not (
            all(count == sweep for pairs in terms.values() for count, sweep in pairs)
            and sum(count for count, _ in terms["fm"]) == got.fm.value
            and sum(count for count, _ in terms["fm_ell"]) == got.fm_ell.value
            and got.passed
            and got.fm.value == want["fm"]
            and got.fm_ell.value == want["fm_ell"]
            and got.mu1.value == want["mu1"]
            and got.cusps_one_dim == want["cusps"]
            and got.fm.route == "double_coset"
            and got.fm_ell.route == "double_coset"
            and got.fm.exact
            and got.fm_ell.exact
        ):
            mismatches.append(r)
    elapsed = time.time() - start
    report(
        not mismatches and elapsed < 60,
        "criterion-1 U(r) golden suite (brute-force orbit/double-coset sweep vs closed forms)",
        f"r in {GOLDEN_R}, {elapsed:.1f}s",
    )


def test_criterion_2_aut_order_two_ways():
    bad = []
    for r in GOLDEN_R:
        form = discriminant_form(U(r))
        primary = aut_group(form)
        reference = reference_full_group(form)
        expected = 2 ** len(sympy.primefactors(r)) * int(sympy.totient(r))
        if not (
            primary.order() == expected
            and len(reference) == expected
            and [iso.matrix for iso in primary.elements] == reference
        ):
            bad.append(r)
    report(not bad, "criterion-2 |O(A_U(r))| = 2^tau(r) phi(r), two enumeration routes")


def test_criterion_3_genus_singleton():
    ok = True
    for r in range(3, 13):
        form = discriminant_form(U(r))
        reps = genus_representatives_rank2(GenusQuery((1, 1), form, r * r + 1))
        ok = ok and len(reps) == 1 and equivalent_rank2(reps[0], U(r)) is not None
        ok = ok and nikulin_unique(sums(U(r), U(1)))
    report(ok, "criterion-3 genus sweep returns exactly [U(r)], r <= 12; uniqueness criterion on U(r)+U")


def test_criterion_4_proposition_suite(rng):
    lattices = corpus()
    assert len(lattices) >= 20 and all(L.rank <= 4 for L in lattices)

    # divisor-square identity on every windowed isotropic vector
    for lattice in lattices:
        for iv in enumerate_isotropic(lattice, 4):
            assert check_div_square(lattice, iv.vector)
    report(True, "criterion-4a d^2 |A_quotient| = |A| on all windowed isotropic vectors")

    # square-free determinant forces divisor one
    square_free = [
        L
        for L in lattices
        if all(abs(L.det()) % (p * p) for p in _prime_factors(abs(L.det())))
    ]
    assert square_free
    for lattice in square_free:
        for iv in enumerate_isotropic(lattice, 4):
            assert iv.divisor == 1
    report(True, "criterion-4b square-free |det| forces divisor 1", f"{len(square_free)} lattices")

    # transvections: isometries fixing l, additive, trivial on A
    ambient = sums(U(1), U(2))
    split = split_from_pair(ambient, (0, 1, 0, 0), (1, 0, 0, 0))
    for _ in range(30):
        v = split.to_ambient((rng.randint(-4, 4), rng.randint(-4, 4)))
        w = split.to_ambient((rng.randint(-4, 4), rng.randint(-4, 4)))
        tv, tw = transvection(split, v), transvection(split, w)
        assert tv.apply(split.f_image) == split.f_image
        assert tv.compose(tw).matrix == transvection(
            split, tuple(a + b for a, b in zip(v, w))
        ).matrix
        assert natural_map(ambient, tv).is_identity()
    # stabilizer round-trip on 100 random elements of O(L)^l
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
        h2, v2 = stabilizer_decompose(split, g)
        assert (h2.matrix, v2) == (h.matrix, v)
    report(True, "criterion-4c transvection laws and 100 stabilizer round-trips")

    # projections between f-sharing hyperbolic embeddings are isometries
    checked = 0
    for ambient in (sums(U(1), U(2)), sums(U(1), diag(-2, -4)), sums(U(1), U(3))):
        split = split_from_pair(ambient, (0, 1, 0, 0), (1, 0, 0, 0))
        emb1 = Embedding(ambient, intmat.from_columns([split.e_image, split.f_image]))
        for _ in range(20):
            v = split.to_ambient((rng.randint(-4, 4), rng.randint(-4, 4)))
            t = transvection(split, v)
            emb2 = Embedding(ambient, intmat.matmul(t.matrix, emb1.matrix))
            projection_isometry(ambient, emb1, emb2)  # Gram checked on build
            checked += 1
    report(checked >= 50, "criterion-4d projection isometries pass exact Gram checks", f"{checked} pairs")

    # overlattice index law across all isotropic subgroups of the corpus
    for lattice in lattices:
        form = discriminant_form(lattice)
        if form.order() > 400:
            continue
        for order in range(1, form.order() + 1):
            if form.order() % order:
                continue
            for sub in isotropic_subgroups(form, order):
                over = overlattice(lattice, sub)
                assert abs(lattice.det()) == order * order * abs(over.det())
    report(True, "criterion-4e overlattice law |A| = |H|^2 |A~| on all isotropic subgroups")


def _rank3_cusp_oracle(two_k, d):
    """Brute-force orbit count of I^d(A) under {+-id} for A = A_{U + <-2k>}.

    From first principles: A is cyclic of order 2k generated by the dual
    vector of the rank-1 summand, with q(c g) = -c^2/(2k) mod 2.
    """
    elements = [
        c
        for c in range(two_k)
        if two_k // gcd(c, two_k) == d and (Fraction(-c * c, two_k) % 2) == 0
    ]
    seen = set()
    orbits = 0
    for c in elements:
        if c in seen:
            continue
        seen.update({c, (-c) % two_k})
        orbits += 1
    return orbits


def test_criterion_5_route_crosscheck():
    ok = True
    details = []
    for k in (1, 2, 3):
        ns = sums(U(1), diag(-2 * k))
        model = K3Model.generic(ns)
        result = route_crosscheck(model)
        ok = ok and result.passed
        fm = count_fm(model)
        ok = ok and fm.value == 1 and fm.exact
        for d, value in result.cusp_counts:
            ok = ok and value == _rank3_cusp_oracle(2 * k, d)
        details.append(f"U+<-{2*k}>: {dict(result.cusp_counts)}")
    report(ok, "criterion-5 route crosscheck on U+<-2>, U+<-4>, U+<-6>", "; ".join(details))


def test_criterion_6_twisted_counts_u2():
    model = K3Model.generic(U(2))
    form = discriminant_form(U(2))
    # oracle: exhaustive scan of the whole group (here 4 elements) with a
    # hand-rolled q evaluation q(a l/2 + b m/2) = a b mod 2
    def oracle(d):
        found = []
        for a in range(2):
            for b in range(2):
                order = 2 if (a, b) != (0, 0) else 1
                if order == d and (a * b) % 2 == 0:
                    found.append((a, b))
        # -id fixes 2-torsion pointwise, so orbits = elements
        return len(found)

    got2 = count_cusps_zero_dim(model, 2).value
    got4 = count_cusps_zero_dim(model, 4).value
    ok = got2 == oracle(2) == 2 and got4 == oracle(4) == 0 and form.order() == 4
    report(ok, "criterion-6 twisted counts for U(2): d=2 gives 2, d=4 gives 0 (exhaustive oracle)")


def test_criterion_7_determinism():
    commands = [
        ["disc", "U(4)"],
        ["aut", "U(12)"],
        ["isotropic", "U(2)+U", "--bound", "2"],
        ["cusps", "U(2)", "--div", "2"],
        ["fm", "count", "U(6)"],
        ["fm", "elliptic", "U(6)"],
        ["genus", "--sign", "1,1", "--disc", "U(6)", "--bound", "37"],
        ["classify-i1", "U+U(3)", "--bound", "2"],
        ["verify-ur", "--r", "3", "--max-r", "8"],
    ]

    def run_all():
        outputs = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "cuspcount.cli", *argv],
                capture_output=True,
            )
            assert proc.returncode == 0, argv
            outputs.append(proc.stdout)
        return outputs

    first = run_all()
    second = run_all()
    report(first == second, "criterion-7 byte-identical JSON across consecutive runs")


def test_criterion_8_rank_one_closed_form():
    # Picard rank one: <2n> has 2^(tau(n)-1) FM partners (Oguiso 2002;
    # Hosono-Lian-Oguiso-Yau 2003)
    bad = []
    for n in range(2, 200):
        got = count_fm(K3Model.generic(diag(2 * n)))
        if not (got.exact and got.value == 2 ** (len(sympy.primefactors(n)) - 1)):
            bad.append(n)
    report(not bad, "criterion-8 count_fm(<2n>) = 2^(tau(n)-1), exact, n = 2..199", f"mismatches {bad}")
