"""derive_orbit_data reads its datum off the first divisor-1 vector.

The reference below is the derivation it replaced: it classifies the whole
window with classify_i1_orbits and keeps the one cell's representative and
quotient.
"""

from conftest import corpus
from test_isotropic import ISO_WINDOW_TIERS

from cuspcount import isotropic
from cuspcount.cli import parse_lattice_spec
from cuspcount.counting import IsotropicOrbitDatum, _genus_of, _r_image_of_om, derive_orbit_data
from cuspcount.discriminant import (
    _prime_factors,
    discriminant_form,
    transport_subgroup,
    trivial_subgroup,
)
from cuspcount.errors import NoneFoundInWindow
from cuspcount.isotropic import classify_i1_orbits, enumerate_isotropic
from cuspcount.lattices import is_hyperbolic_shape, is_indefinite

BUDGET = 10_000


def reference_derive_orbit_data(lattice, budget, height_bound):
    form = discriminant_form(lattice)
    if is_hyperbolic_shape(lattice) is not None:
        return (IsotropicOrbitDatum((1, 0), trivial_subgroup(form), True),), True
    if lattice.rank < 2 or not is_indefinite(lattice):
        return (), True
    try:
        (cell,) = classify_i1_orbits(lattice, height_bound, budget=budget)
    except NoneFoundInWindow:
        return (), False
    image = _r_image_of_om(cell.quotient, None, None, budget)
    stab = None if image is None else transport_subgroup(image, form)
    datum = IsotropicOrbitDatum(cell.representative.vector, stab, image is not None)
    reps, certified, _ = _genus_of(cell.quotient, budget=budget)
    det = abs(lattice.det())
    squarefree = all(det % (p * p) != 0 for p in _prime_factors(det))
    return (datum,), certified and len(reps) == 1 and squarefree and image is not None


def _scan_length(lattice, height_bound):
    """How many window vectors a scan that stops at the first divisor-1
    vector reads: all of them when there is none."""
    if is_hyperbolic_shape(lattice) is not None or lattice.rank < 2 or not is_indefinite(lattice):
        return 0
    window = enumerate_isotropic(lattice, height_bound)
    return next((i + 1 for i, iv in enumerate(window) if iv.divisor == 1), len(window))


def test_matches_the_first_cell_and_stops_at_the_section(monkeypatch):
    lattices = [parse_lattice_spec(label) for label, _ in ISO_WINDOW_TIERS] + corpus()
    cases = [
        (lattice, h, reference_derive_orbit_data(lattice, BUDGET, h), _scan_length(lattice, h))
        for lattice in lattices
        for h in (3, 4)
    ]
    scanned = []
    scan = isotropic._scan_isotropic

    def counted_scan(lattice, height_bound):
        for iv in scan(lattice, height_bound):
            scanned.append(iv)
            yield iv

    def no_window(*args, **kwargs):
        raise AssertionError("derive_orbit_data built the full window")

    monkeypatch.setattr(isotropic, "_scan_isotropic", counted_scan)
    monkeypatch.setattr(isotropic, "enumerate_isotropic", no_window)
    found = 0
    for lattice, h, want, length in cases:
        isotropic._window.cache_clear()  # the spy counts only new scans
        scanned.clear()
        assert derive_orbit_data(lattice, BUDGET, h) == want
        assert len(scanned) == length
        found += bool(want[0]) and is_hyperbolic_shape(lattice) is None
    assert found >= len(ISO_WINDOW_TIERS)

