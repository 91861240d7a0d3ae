"""The package's immutable value types: equality, hashing, immutability and
repr over their fields, and a start-up that imports no dataclasses and loads
only the submodules a caller uses.

Each case builds an instance twice from equal fields, and once with one
field changed, and names the fields in order, as the repr shows them.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from cuspcount.counting import (
    CountReport,
    IsotropicOrbitDatum,
    K3Model,
    OMGenerators,
    RouteCrosscheck,
    UrExampleReport,
)
from cuspcount.discriminant import (
    FiniteQuadraticForm,
    FqfIsometry,
    FqfSubgroup,
    IsogenyResult,
    _disc_data,
    _DiscData,
    discriminant_form,
    plus_minus_subgroup,
    trivial_subgroup,
)
from cuspcount.genus import GenusQuery
from cuspcount.isotropic import HyperbolicSplit, IsotropicOrbitClass, IsotropicPlane, IsotropicVector
from cuspcount.lattices import Embedding, EvenLattice, LatticeIsometry, LatticeMap, named_lattice

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

U = EvenLattice(((0, 1), (1, 0)))
UU = EvenLattice(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
U3 = named_lattice("U", (3,))
A3 = discriminant_form(U3)  # (Z/3)^2 with q(x, y) = 2xy/3
ID2, SWAP = ((1, 0), (0, 1)), ((0, 1), (1, 0))
REPORT = CountReport(1, "orbit_on_A", True, "")
DISC = _disc_data(named_lattice("U", (2,)))
HALF = Fraction(1, 2)


def _ur_report(passed):
    return UrExampleReport(3, 1, 2, (U3.gram,), True, REPORT, 1, True, REPORT, 2, REPORT, 1, 2, 2, passed)


# (build, build with one field changed, field names in order)
CASES = {
    "EvenLattice": (lambda: EvenLattice(((0, 1), (1, 0))), lambda: EvenLattice(((0, 2), (2, 0))), ("gram",)),
    "LatticeMap": (lambda: LatticeMap(U, U, ID2), lambda: LatticeMap(U, U, SWAP), ("source", "target", "matrix")),
    "LatticeIsometry": (lambda: LatticeIsometry(U, ID2), lambda: LatticeIsometry(U, SWAP), ("lattice", "matrix")),
    "Embedding": (lambda: Embedding(U, ((1,), (0,))), lambda: Embedding(U, ((0,), (1,))), ("target", "matrix")),
    "FiniteQuadraticForm": (
        lambda: FiniteQuadraticForm((2,), (HALF,), ((HALF,),)),
        lambda: FiniteQuadraticForm((2,), (3 * HALF,), ((HALF,),)),
        ("orders", "_q", "_b"),
    ),
    "_DiscData": (
        lambda: _DiscData(DISC.lattice, DISC.form, DISC.dvec, DISC.keep, DISC.u, DISC.v),
        lambda: _DiscData(DISC.lattice, DISC.form, DISC.dvec, (), DISC.u, DISC.v),
        ("lattice", "form", "dvec", "keep", "u", "v"),
    ),
    "FqfIsometry": (
        lambda: FqfIsometry(A3, ID2),
        lambda: FqfIsometry(A3, ((2, 0), (0, 2))),
        ("form", "matrix"),
    ),
    "FqfSubgroup": (
        lambda: FqfSubgroup(A3, trivial_subgroup(A3).elements),
        lambda: FqfSubgroup(A3, plus_minus_subgroup(A3).elements),
        ("form", "elements"),
    ),
    "IsogenyResult": (lambda: IsogenyResult(True, ID2), lambda: IsogenyResult(True, SWAP), ("isogenus", "witness")),
    "IsotropicVector": (lambda: IsotropicVector((1, 0), 1), lambda: IsotropicVector((0, 1), 1), ("vector", "divisor")),
    "IsotropicPlane": (
        lambda: IsotropicPlane(UU, ((1, 0, 0, 0), (0, 0, 1, 0))),
        lambda: IsotropicPlane(UU, ((1, 0, 0, 0), (0, 0, 0, 1))),
        ("lattice", "basis"),
    ),
    "HyperbolicSplit": (
        lambda: HyperbolicSplit(UU, (0, 1, 0, 0), (1, 0, 0, 0), U, ((0, 0), (0, 0), (1, 0), (0, 1))),
        lambda: HyperbolicSplit(UU, (0, 1, 0, 0), (1, 0, 0, 0), U, ((0, 0), (0, 0), (0, 1), (1, 0))),
        ("lattice", "e_image", "f_image", "complement", "complement_columns"),
    ),
    "IsotropicOrbitClass": (
        lambda: IsotropicOrbitClass(IsotropicVector((1, 0), 1), ((1, 0),), EvenLattice(())),
        lambda: IsotropicOrbitClass(IsotropicVector((1, 0), 1), ((1, 0), (0, 1)), EvenLattice(())),
        ("representative", "vectors", "quotient"),
    ),
    "GenusQuery": (
        lambda: GenusQuery((1, 1), A3, 5),
        lambda: GenusQuery((1, 1), A3, 6),
        ("signature", "target_form", "search_bound"),
    ),
    "CountReport": (
        lambda: CountReport(1, "orbit_on_A", True, ""),
        lambda: CountReport(1, "orbit_on_A", False, ""),
        ("value", "route", "exact", "window_note"),
    ),
    "OMGenerators": (
        lambda: OMGenerators((LatticeIsometry(U, ID2),), True),
        lambda: OMGenerators((LatticeIsometry(U, ID2),), False),
        ("generators", "complete"),
    ),
    "IsotropicOrbitDatum": (
        lambda: IsotropicOrbitDatum((1, 0), None, True),
        lambda: IsotropicOrbitDatum((1, 0), trivial_subgroup(A3), True),
        ("vector", "stabilizer_image", "complete"),
    ),
    "K3Model": (
        lambda: K3Model(U3, plus_minus_subgroup(A3)),
        lambda: K3Model(U3, trivial_subgroup(A3)),
        ("ns", "hodge_image"),
    ),
    "RouteCrosscheck": (
        lambda: RouteCrosscheck(True, REPORT, ((1, 1),)),
        lambda: RouteCrosscheck(True, REPORT, ((1, 1), (3, 2))),
        ("passed", "fm", "cusp_counts"),
    ),
    "UrExampleReport": (
        lambda: _ur_report(True),
        lambda: _ur_report(False),
        (
            "r", "tau", "phi", "genus_classes", "genus_singleton", "fm", "fm_expected", "one_dim_distinct",
            "fm_ell", "fm_ell_expected", "mu1", "mu1_expected", "cusps_one_dim", "cusps_expected", "passed",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_fields_are_equal_values(name):
    build, _, _ = CASES[name]
    first, second = build(), build()
    assert type(first).__name__ == name
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_changed_field_is_unequal(name):
    build, changed, _ = CASES[name]
    assert build() != changed()
    assert not build() == changed()
    assert build() != object()


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_cannot_be_assigned_or_deleted(name):
    build, _, fields = CASES[name]
    value = build()
    before = getattr(value, fields[0])
    with pytest.raises(AttributeError):
        setattr(value, fields[0], None)
    with pytest.raises(AttributeError):
        delattr(value, fields[0])
    with pytest.raises(AttributeError):
        value.unlisted = 1
    assert getattr(value, fields[0]) is before
    assert value == build()


@pytest.mark.parametrize("name", sorted(set(CASES) - {"EvenLattice"}))
def test_generic_repr_lists_the_fields(name):
    build, _, fields = CASES[name]
    value = build()
    shown = ", ".join(f"{field}={getattr(value, field)!r}" for field in fields)
    assert repr(value) == f"{name}({shown})"


def test_custom_repr_is_kept():
    assert repr(U) == "EvenLattice([[0, 1], [1, 0]])"


def test_constructors_take_keywords():
    assert LatticeIsometry(matrix=ID2, lattice=U) == LatticeIsometry(U, ID2)
    assert IsotropicVector(divisor=1, vector=(1, 0)) == IsotropicVector((1, 0), 1)
    assert FqfIsometry(matrix=((4, 0), (0, 4)), form=A3) == FqfIsometry(A3, ID2)  # reduced mod 3


def test_an_equal_lattice_is_a_disc_data_cache_hit():
    gram = ((2, 1), (1, -4))
    first, second = EvenLattice(gram), EvenLattice(tuple(tuple(row) for row in gram))
    assert first is not second and first == second
    data = _disc_data(first)
    hits = _disc_data.cache_info().hits
    assert _disc_data(second) is data
    assert _disc_data.cache_info().hits == hits + 1


def _cold_start(statement, *args):
    """The modules a fresh interpreter (python -S, src on the path) has
    loaded after running statement; sys.argv[2:] holds args."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); " + statement + "; "
        "print(*sorted(sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, SRC, *args], capture_output=True, text=True, check=True)
    return set(out.stdout.splitlines()[-1].split())


def test_import_loads_no_dataclasses():
    """A cold start of the package and its CLI imports neither dataclasses
    nor inspect, which the dataclass machinery pulls in."""
    assert {"dataclasses", "inspect"} & _cold_start("import cuspcount, cuspcount.cli") == set()


CORE = {"cuspcount", "cuspcount.discriminant", "cuspcount.errors", "cuspcount.intmat", "cuspcount.lattices"}
CLI = CORE | {"cuspcount.cli"}
MAIN = "from cuspcount.cli import main; main(sys.argv[2:])"


@pytest.mark.parametrize(
    "statement, args, loaded",
    [
        ("import cuspcount", (), {"cuspcount"}),
        ("import cuspcount, cuspcount.cli", (), CLI),
        ("import cuspcount; cuspcount.aut_group, cuspcount.double_coset_count", (), CORE),
        ("from cuspcount import genus", (), CORE | {"cuspcount.genus"}),
        (MAIN, ("disc", "U(3)"), CLI),
        (MAIN, ("aut", "U(3)"), CLI),
        (MAIN, ("isogenus", "U(3)", "U(3)"), CLI),
        (MAIN, ("isotropic", "U+U", "--bound", "1"), CLI | {"cuspcount.isotropic"}),
        (MAIN, ("fm", "count", "U(6)"), CLI | {"cuspcount.counting", "cuspcount.genus", "cuspcount.isotropic"}),
    ],
    ids=["package", "cli", "aut-library", "genus-submodule", "disc", "aut", "isogenus", "isotropic", "fm-count"],
)
def test_cold_start_loads_only_what_it_uses(statement, args, loaded):
    """Importing the package loads no submodule; the CLI loads errors,
    lattices and discriminant, and a command adds only the modules it runs."""
    modules = _cold_start(statement, *args)
    assert {name for name in modules if name.partition(".")[0] == "cuspcount"} == loaded
