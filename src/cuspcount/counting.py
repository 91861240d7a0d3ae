"""Partner and cusp counting as finite orbit / double-coset computations.

Everything here reduces to three finite gadgets on a discriminant form A:
orbits of isotropic elements under a subgroup of O(A), double cosets
H \\ O(A) / K, and the unit-group fiber count of the U(r) family.  Counts
carry a CountReport with their derivation route and an exactness flag;
window-limited inputs only ever drop terms, so inexact values are lower
bounds that grow monotonically with the search window.

Every partner count is one `_genus_sum`: double cosets hodge \\ O(A_M) / R
summed over a genus, each count supplying its right factors R (r_M(O(M)),
or one stabilizer image per isotropic orbit for elliptic pairs).
"""

from __future__ import annotations

from math import gcd
from typing import Optional

from . import intmat
from .discriminant import (
    DEFAULT_HEIGHT_BOUND,
    FqfIsometry,
    FqfSubgroup,
    _disc_data,
    _prime_factors,
    aut_group,
    discriminant_form,
    double_coset_count,
    fqf_subgroup,
    isotropic_elements,
    natural_map,
    plus_minus_subgroup,
    transport_subgroup,
    trivial_subgroup,
)
from .errors import BadParams, HypothesisFails, IncompleteInputs
from .genus import GenusQuery, equivalent_rank2, genus_representatives_rank2, nikulin_unique
from .isotropic import (
    _check_height_bound,
    hyperbolic_completion,
    quotient_lattice,
    section_vector,
)
from .lattices import (
    EvenLattice,
    LatticeIsometry,
    _Frozen,
    direct_sum,
    is_hyperbolic_shape,
    is_indefinite,
    named_lattice,
    signature,
)

ROUTE_DOUBLE_COSET = "double_coset"
ROUTE_ORBIT = "orbit_on_A"
ROUTE_UR = "ur_closed_form"


def euler_phi(n: int) -> int:
    out = n
    for p in _prime_factors(n):
        out -= out // p
    return out


def num_prime_factors(n: int) -> int:
    return len(_prime_factors(n))


class CountReport(_Frozen):
    _fields = ("value", "route", "exact", "window_note")

    def __init__(self, value: int, route: str, exact: bool, window_note: str):
        self._assign(value, route, exact, window_note)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "route": self.route,
            "exact": self.exact,
            "window_note": self.window_note,
        }


class OMGenerators(_Frozen):
    """Generators of (a subgroup of) O(M), LatticeIsometry entries, with a
    completeness attestation."""

    _fields = ("generators", "complete")

    def __init__(self, generators: tuple, complete: bool):
        self._assign(generators, complete)


class IsotropicOrbitDatum(_Frozen):
    """One O(M)-orbit on I(M): a representative and r_M(O(M)^k).

    stabilizer_image = None means the stabilizer is unknown; counting then
    scores the orbit with its certified minimum of one class.
    """

    _fields = ("vector", "stabilizer_image", "complete")

    def __init__(self, vector: tuple, stabilizer_image: Optional[FqfSubgroup], complete: bool):
        self._assign(vector, stabilizer_image, complete)


class K3Model(_Frozen):
    """Hyperbolic Picard lattice plus the allowed symmetries on its
    discriminant form (default: plus/minus identity, the generic case).
    hodge_image is also the image of the orientation-preserving half: an
    orientation flip acts trivially on A."""

    _fields = ("ns", "hodge_image")

    def __init__(self, ns: EvenLattice, hodge_image: FqfSubgroup):
        self._assign(ns, hodge_image)
        p, q = signature(self.ns)
        if p != 1 or q != self.ns.rank - 1:
            raise BadParams(f"Picard lattice must have signature (1, rank-1), got {(p, q)}")
        if self.hodge_image.form != discriminant_form(self.ns):
            raise BadParams("hodge image acts on the wrong discriminant form")

    @staticmethod
    def generic(ns: EvenLattice) -> "K3Model":
        return K3Model(ns, plus_minus_subgroup(discriminant_form(ns)))


def _orbit_count(elements, group: FqfSubgroup) -> int:
    visited = set()
    count = 0
    for x in sorted(elements):
        if x in visited:
            continue
        count += 1
        for iso in group.elements:
            visited.add(iso.apply(x))
    return count


def _genus_of(lattice: EvenLattice, given: Optional[list] = None, budget=None) -> tuple:
    """(representatives, certified_complete, note); a given list is certified
    by its caller.  The rank-2 sweep runs under the budget."""
    if given is not None:
        return given, True, "caller-certified genus list"
    if lattice.rank <= 1 or nikulin_unique(lattice):
        return [lattice], True, "singleton genus"
    if lattice.rank == 2:
        form = discriminant_form(lattice)
        bound = max(form.order(), form.exponent()) + 1
        reps = genus_representatives_rank2(GenusQuery(signature(lattice), form, bound), budget)
        return reps, True, "complete rank-2 reduction sweep"
    return [lattice], False, "genus not enumerable at this rank; using the given class only"


def _r_image_of_om(
    lattice: EvenLattice, gens: Optional[OMGenerators], ambient, budget=None
) -> Optional[FqfSubgroup]:
    """r_M(O(M)) as a subgroup of O(A_M), or None when it is not certified.

    Complete lists are built in only where a theorem provides them: the
    indefinite-surjectivity criterion, rank <= 1, and the U(r) shape.
    User generators are mapped (natural_map validates each one) and count
    only when attested complete.  ambient is O(A_M), or None to build it.
    """
    form = discriminant_form(lattice)
    if nikulin_unique(lattice):  # surjective (indefinite criterion)
        return ambient if ambient is not None else aut_group(form, budget=budget)
    if lattice.rank == 0:
        return trivial_subgroup(form)
    if lattice.rank == 1:
        return plus_minus_subgroup(form)  # O = {+-id} in rank 1
    if is_hyperbolic_shape(lattice) is not None:
        # O(U(r)) = {+-id, +-swap}
        swap = LatticeIsometry(lattice, ((0, 1), (1, 0)))
        gens_r = (
            natural_map(lattice, swap),
            FqfIsometry.minus_identity(form),
        )
        return fqf_subgroup(form, gens_r)
    if gens is None:
        return None
    mapped = tuple(natural_map(lattice, g) for g in gens.generators)
    return fqf_subgroup(form, mapped) if gens.complete else None


def _om_image(gens: Optional[dict]):
    """right_factors of a partner count: the one image r_M(O(M))."""
    return lambda m, ambient: ((_r_image_of_om(m, gens.get(m) if gens else None, ambient),), True)


def _with_ambients(members, budget) -> list:
    """(M, A_M, O(A_M)) per genus member M: what every genus sum reads."""
    out = []
    for member in members:
        form = discriminant_form(member)
        out.append((member, form, aut_group(form, budget=budget)))
    return out


def _genus_sum(hodge: FqfSubgroup, members, right_factors) -> tuple:
    """Sum of double cosets hodge \\ O(A_M) / R over the genus members M,
    given as (M, A_M, O(A_M)) by _with_ambients.

    right_factors(M, O(A_M)) gives (factors, complete?): subgroups R on
    forms isomorphic to A_M, or None for an unknown image, which scores its
    certified minimum of one class.  Returns (total, terms, minima, complete).
    """
    total = terms = minima = 0
    complete = True
    for member, form, ambient in members:
        moved = transport_subgroup(hodge, form)
        factors, factors_complete = right_factors(member, ambient)
        complete = complete and factors_complete
        for factor in factors:
            terms += 1
            if factor is None:
                total += 1
                minima += 1
            else:
                total += double_coset_count(moved, ambient, transport_subgroup(factor, form))
    return total, terms, minima, complete


def count_cusps_zero_dim(
    model: K3Model, d: int, budget: Optional[int] = None, height_bound: int = DEFAULT_HEIGHT_BOUND
) -> CountReport:
    """Orbits of the order-d isotropic elements of A under the model's group.

    Always the exact number of coarse order-d twisted classes; it is also
    the number of divisor-d boundary points exactly when a hyperbolic plane
    embeds in the Picard lattice.
    """
    _check_height_bound(height_bound)
    form = discriminant_form(model.ns)
    elements = isotropic_elements(form, d, budget=budget)
    value = _orbit_count(elements, model.hodge_image)
    if section_vector(model.ns, height_bound) is not None:
        note = "coarse class count; equals the divisor-%d cusp count (hyperbolic plane embeds)" % d
    else:
        note = (
            "coarse class count; no hyperbolic plane found within |coords| <= %d, "
            "cusp-count identification not certified" % height_bound
        )
    return CountReport(value, ROUTE_ORBIT, True, note)


def count_fm(
    model: K3Model,
    gens: Optional[dict] = None,
    genus_list: Optional[list] = None,
    budget: Optional[int] = None,
) -> CountReport:
    """Partner count: sum of double cosets hodge \\ O(A_M) / r_M(O(M)) over
    the genus of the Picard lattice."""
    genus = _genus_of(model.ns, genus_list, budget)
    return _count_fm(model, gens, genus, _with_ambients(genus[0], budget))


def _count_fm(model: K3Model, gens: Optional[dict], genus: tuple, members: list) -> CountReport:
    genus_list, genus_complete, genus_note = genus
    total, _, minima, _ = _genus_sum(model.hodge_image, members, _om_image(gens))
    exact = genus_complete and not minima
    note = f"{len(genus_list)} genus class(es); {genus_note}"
    if minima:
        note += f"; {minima} term(s) scored at the certified minimum 1"
    if not exact:
        note += "; lower bound (incomplete inputs)"
    return CountReport(total, ROUTE_DOUBLE_COSET, exact, note)


def derive_orbit_data(
    lattice: EvenLattice, budget, height_bound: int = DEFAULT_HEIGHT_BOUND
) -> tuple:
    """Window classification of O(M)\\I(M) with stabilizer images.

    Returns (orbit data list, complete?).  The hyperbolic-plane family is
    built in (single orbit, trivial pointwise stabilizer).  Otherwise only
    divisor-1 orbits are derived: the window's divisor-1 vectors form one
    quotient-genus cell, which is one orbit when the genus of l^perp/Zl has
    one class.  Its stabilizer image is the image of O(l^perp/Zl).
    Dropping the unclassifiable divisor > 1 orbits keeps inexact counts
    lower bounds.
    """
    r = is_hyperbolic_shape(lattice)
    form = discriminant_form(lattice)
    if r is not None:
        datum = IsotropicOrbitDatum((1, 0), trivial_subgroup(form), True)
        return (datum,), True
    if lattice.rank < 2 or not is_indefinite(lattice):
        return (), True  # nondegenerate definite lattices have no isotropic vectors
    section = section_vector(lattice, height_bound)
    if section is None:
        return (), False
    quotient = quotient_lattice(lattice, section)
    image = _r_image_of_om(quotient, None, None, budget)
    stab = None if image is None else transport_subgroup(image, form)
    datum = IsotropicOrbitDatum(section, stab, image is not None)
    # the cell is the whole divisor-1 orbit list iff its quotient genus has one class
    reps, certified, _ = _genus_of(quotient, budget=budget)
    det = abs(lattice.det())
    squarefree = all(det % (p * p) != 0 for p in _prime_factors(det))
    return (datum,), certified and len(reps) == 1 and squarefree and image is not None


def count_fm_elliptic(
    model: K3Model,
    genus_list: Optional[list] = None,
    orbit_data: Optional[dict] = None,
    budget: Optional[int] = None,
    height_bound: int = DEFAULT_HEIGHT_BOUND,
) -> CountReport:
    """Elliptic-pair count: double cosets hodge \\ O(A_M) / r_M(O(M)^k),
    summed over genus classes M and isotropic orbits [k] on M."""
    _check_height_bound(height_bound)
    genus = _genus_of(model.ns, genus_list, budget)
    if orbit_data is not None:
        for key in orbit_data:
            if all(key != member for member in genus[0]):
                raise IncompleteInputs("orbit data supplied for a lattice outside the genus list")
    members = _with_ambients(genus[0], budget)
    return _count_fm_elliptic(model, genus, members, orbit_data, budget, height_bound)


def _count_fm_elliptic(
    model: K3Model, genus: tuple, members: list, orbit_data, budget, height_bound: int
) -> CountReport:
    _, genus_complete, _ = genus

    def stabilizers(member: EvenLattice, _ambient) -> tuple:
        if orbit_data is not None and member in orbit_data:
            data, complete = tuple(orbit_data[member]), True
        else:
            data, complete = derive_orbit_data(member, budget, height_bound)
        return tuple(d.stabilizer_image if d.complete else None for d in data), complete

    total, terms, minima, complete = _genus_sum(model.hodge_image, members, stabilizers)
    exact = genus_complete and complete and not minima
    note = f"{terms} (class, orbit) term(s) within |coords| <= {height_bound}"
    if not exact:
        note += "; lower bound (window-limited orbit data)"
    return CountReport(total, ROUTE_DOUBLE_COSET, exact, note)


def count_fm_elliptic_sec(
    model: K3Model,
    gens: Optional[dict] = None,
    quotient_genus: Optional[list] = None,
    budget: Optional[int] = None,
    height_bound: int = DEFAULT_HEIGHT_BOUND,
) -> CountReport:
    """Sectioned elliptic count: double cosets over the genus of l^perp/Zl
    for a divisor-1 isotropic l in the Picard lattice."""
    section = section_vector(model.ns, height_bound)
    if section is None:
        return CountReport(
            0,
            ROUTE_DOUBLE_COSET,
            False,
            f"NoSectionClass: no divisor-1 isotropic vector with |coords| <= {height_bound}",
        )
    quot = quotient_lattice(model.ns, section)
    quotient_genus, genus_complete, _ = _genus_of(quot, quotient_genus, budget)
    total, _, minima, _ = _genus_sum(
        model.hodge_image, _with_ambients(quotient_genus, budget), _om_image(gens)
    )
    exact = genus_complete and not minima
    note = f"section at {list(section)}; {len(quotient_genus)} quotient genus class(es)"
    if not exact:
        note += "; lower bound (incomplete inputs)"
    return CountReport(total, ROUTE_DOUBLE_COSET, exact, note)


def _ur_unit_lift(r: int, beta: int) -> tuple:
    """The lift of mu1_fiber_ur for the unit beta of Z/r: the rows of its
    matrix on the basis l, m, e, f of U(r) + U, whose columns are the images
    of l, m, e, f, and the action (delta, beta) on (l/r, m/r) that it must
    induce."""
    alpha = 0 if beta == 1 else 1  # the least alpha >= 0 with gcd(beta, r*alpha) = 1
    _, delta, gamma = intmat.xgcd(beta, r * alpha)
    rows = (
        (delta, 0, 0, alpha),
        (0, beta, gamma, 0),
        (0, -r * alpha, delta, 0),
        (-r * gamma, 0, 0, beta),
    )
    return rows, (delta, beta)


def mu1_fiber_ur(r: int) -> CountReport:
    """Fiber size of the one-dimensional boundary map for the U(r) family:
    units of Z/r modulo negation, with an explicit isometry verification.

    For every unit beta of Z/r, with alpha = 0 for beta = 1 and alpha = 1
    otherwise (so gcd(beta, r*alpha) = 1), the basis map
    f -> alpha*l + beta*f, e -> gamma*m + delta*e, l -> delta*l - r*gamma*f,
    m -> beta*m - r*alpha*e (beta*delta + r*alpha*gamma = 1) is checked to
    be an isometry M of U(r) + U acting as diag(delta, beta) on (l/r, m/r).
    M is in O(L), so it induces an isometry of A_L, which sends the classes
    of l/r and m/r to those of M(l)/r and M(m)/r; those are checked.
    """
    if r <= 2:
        raise BadParams("the U(r) family needs r > 2")
    units = [u for u in range(1, r) if gcd(u, r) == 1]
    classes = {frozenset({u, (-u) % r}) for u in units}
    value = len(classes)
    ambient = direct_sum(named_lattice("U", (r,)), named_lattice("U"))
    data = _disc_data(ambient)
    class_l = data.class_of((1, 0, 0, 0), r)
    class_m = data.class_of((0, 1, 0, 0), r)
    form = data.form
    for beta in units:
        rows, (on_l, on_m) = _ur_unit_lift(r, beta)
        LatticeIsometry(ambient, rows)  # validates the lift
        image_l, image_m, _, _ = zip(*rows)
        if data.class_of(image_l, r) != form.scale(on_l, class_l):
            raise AssertionError("discriminant action on l/r is not diag(delta, .)")
        if data.class_of(image_m, r) != form.scale(on_m, class_m):
            raise AssertionError("discriminant action on m/r is not diag(., beta)")
    note = f"units of Z/{r} modulo negation; {len(units)} explicit isometry lifts verified"
    return CountReport(value, ROUTE_UR, True, note)


class RouteCrosscheck(_Frozen):
    """cusp_counts is ((d, count), ...) over the divisors d of the exponent."""

    _fields = ("passed", "fm", "cusp_counts")

    def __init__(self, passed: bool, fm: CountReport, cusp_counts: tuple):
        self._assign(passed, fm, cusp_counts)

    def __bool__(self) -> bool:
        return self.passed


def route_crosscheck(
    model: K3Model, budget: Optional[int] = None, height_bound: int = DEFAULT_HEIGHT_BOUND
) -> RouteCrosscheck:
    """When a hyperbolic plane embeds in the Picard lattice, the partner
    count must be 1 and per-divisor cusp counts are exact twisted counts."""
    section = section_vector(model.ns, height_bound)
    if section is None:
        raise HypothesisFails(
            f"no divisor-1 isotropic vector with |coords| <= {height_bound}"
        )
    hyperbolic_completion(model.ns, section)  # must succeed: U really embeds
    fm = count_fm(model, budget=budget)
    form = discriminant_form(model.ns)
    exponent = form.exponent()
    divisors = [d for d in range(1, exponent + 1) if exponent % d == 0]
    per_d = tuple(
        (d, _orbit_count(isotropic_elements(form, d, budget=budget), model.hodge_image))
        for d in divisors
    )
    passed = fm.value == 1 and fm.exact and per_d[0] == (1, 1)  # d = 1 comes first
    return RouteCrosscheck(passed, fm, per_d)


class UrExampleReport(_Frozen):
    _fields = (
        "r", "tau", "phi", "genus_classes", "genus_singleton", "fm", "fm_expected", "one_dim_distinct",
        "fm_ell", "fm_ell_expected", "mu1", "mu1_expected", "cusps_one_dim", "cusps_expected", "passed",
    )

    def __init__(
        self, r: int, tau: int, phi: int, genus_classes: tuple, genus_singleton: bool, fm: CountReport,
        fm_expected: int, one_dim_distinct: bool, fm_ell: CountReport, fm_ell_expected: int,
        mu1: CountReport, mu1_expected: int, cusps_one_dim: int, cusps_expected: int, passed: bool,
    ):
        self._assign(
            r, tau, phi, genus_classes, genus_singleton, fm, fm_expected, one_dim_distinct,
            fm_ell, fm_ell_expected, mu1, mu1_expected, cusps_one_dim, cusps_expected, passed,
        )

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "tau": self.tau,
            "phi": self.phi,
            "genus_classes": [[list(row) for row in g] for g in self.genus_classes],
            "genus_singleton": self.genus_singleton,
            "fm": self.fm.to_dict(),
            "fm_expected": self.fm_expected,
            "one_dim_distinct": self.one_dim_distinct,
            "fm_ell": self.fm_ell.to_dict(),
            "fm_ell_expected": self.fm_ell_expected,
            "mu1_fiber": self.mu1.to_dict(),
            "mu1_expected": self.mu1_expected,
            "cusps_one_dim": self.cusps_one_dim,
            "cusps_expected": self.cusps_expected,
            "passed": self.passed,
        }


def ur_example(r: int, budget: Optional[int] = None) -> UrExampleReport:
    """Brute-force verification of the whole U(r) family, r > 2.

    Every value is computed by orbit and double-coset counting over the
    enumerated O(A) and compared against its closed form: genus singleton;
    2^(tau-2) phi(r) partners; two inequivalent fibrations mapping to
    distinct boundary curves; 2^(tau-1) phi(r) elliptic pairs; fiber
    phi(r)/2; 2^tau boundary curves.
    """
    if r <= 2:
        raise BadParams("the U(r) family needs r > 2")
    ur = named_lattice("U", (r,))
    model = K3Model.generic(ur)
    tau = num_prime_factors(r)
    phi = euler_phi(r)

    form = discriminant_form(ur)
    genus = _genus_of(ur, budget=budget)
    reps = genus[0]
    genus_singleton = len(reps) == 1 and equivalent_rank2(reps[0], ur) is not None
    members = _with_ambients(reps, budget)  # one O(A_M) per member for both sums

    fm = _count_fm(model, None, genus, members)
    fm_expected = (2**tau * phi) // 4
    if (2**tau * phi) % 4 != 0:
        raise AssertionError("2^(tau-2) phi(r) must be an integer for r > 2")

    data = _disc_data(ur)
    class_l = data.class_of((1, 0), r)
    class_m = data.class_of((0, 1), r)
    # iso maps <l/r> onto <iso(l/r)>; both it and <m/r> have order r, so they
    # are equal exactly when iso(l/r) lies in <m/r>
    sub_m = frozenset(form.scale(c, class_m) for c in range(r))
    one_dim_distinct = all(iso.apply(class_l) not in sub_m for iso in model.hodge_image.elements)

    fm_ell = _count_fm_elliptic(model, genus, members, None, budget, DEFAULT_HEIGHT_BOUND)
    fm_ell_expected = (2**tau * phi) // 2

    mu1 = mu1_fiber_ur(r)
    mu1_expected = phi // 2

    if fm_ell.value % mu1.value != 0:
        raise AssertionError("elliptic count is not a multiple of the fiber size")
    cusps = fm_ell.value // mu1.value
    cusps_expected = 2**tau

    passed = (
        genus_singleton
        and fm.value == fm_expected
        and fm.exact
        and one_dim_distinct
        and fm_ell.value == fm_ell_expected
        and fm_ell.exact
        and mu1.value == mu1_expected
        and cusps == cusps_expected
    )
    return UrExampleReport(
        r,
        tau,
        phi,
        tuple(rep.gram for rep in reps),
        genus_singleton,
        fm,
        fm_expected,
        one_dim_distinct,
        fm_ell,
        fm_ell_expected,
        mu1,
        mu1_expected,
        cusps,
        cusps_expected,
        passed,
    )
