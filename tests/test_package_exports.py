"""The package's public names: the same 88 names as the eager re-exports
they replace, each the object its submodule defines, loaded on first use."""

import importlib

import pytest

import cuspcount

# submodule -> the public names the package takes from it
EXPORTS = {
    "counting": (
        "CountReport", "IsotropicOrbitDatum", "K3Model", "OMGenerators", "RouteCrosscheck",
        "count_cusps_zero_dim", "count_fm", "count_fm_elliptic", "count_fm_elliptic_sec",
        "derive_orbit_data", "euler_phi", "mu1_fiber_ur", "route_crosscheck", "ur_example",
    ),
    "discriminant": (
        "DEFAULT_BUDGET", "FiniteQuadraticForm", "FqfIsometry", "FqfSubgroup", "aut_group",
        "discriminant_form", "double_coset_count", "fqf_isomorphism", "fqf_subgroup", "is_isogenus",
        "isotropic_elements", "isotropic_subgroups", "natural_map", "overlattice",
        "plus_minus_subgroup", "resolve_budget", "trivial_subgroup",
    ),
    "errors": (
        "BadParams", "BoundTooSmall", "BudgetExceeded", "Degenerate", "DegenerateSublattice",
        "DivisorNotOne", "DoesNotFixL", "FImagesDiffer", "HypothesisFails", "IncompleteInputs",
        "LatticeError", "NonIntegralRescale", "NoneFoundInWindow", "NotIsometry", "NotIsotropic",
        "NotIsotropicPlane", "NotPrimitive", "NotRank2", "NotSymmetric", "OddDiagonal", "ParseError",
        "SubgroupNotContained", "UnknownName", "VectorNotInComplement", "ZeroVector",
    ),
    "genus": ("GenusQuery", "equivalent_rank2", "genus_representatives_rank2", "nikulin_unique"),
    "isotropic": (
        "HyperbolicSplit", "IsotropicOrbitClass", "IsotropicPlane", "IsotropicVector",
        "check_div_square", "classify_i1_orbits", "enumerate_isotropic", "hyperbolic_completion",
        "is_standard_plane", "projection_isometry", "quotient_lattice", "split_from_pair",
        "stabilizer_compose", "stabilizer_decompose", "transvection",
    ),
    "lattices": (
        "Embedding", "EvenLattice", "LatticeIsometry", "LatticeMap", "direct_sum", "divisor",
        "is_primitive", "make_lattice", "named_lattice", "orthogonal_complement", "rescale",
        "signature", "smith_normal_form",
    ),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_lists_the_88_names():
    assert len(NAMES) == 88
    assert sorted(cuspcount.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_is_its_submodule_object(module, name):
    submodule = importlib.import_module(f"cuspcount.{module}")
    value = getattr(cuspcount, name)
    assert value is getattr(submodule, name)
    assert vars(cuspcount)[name] is value  # kept after the first use
    assert getattr(value, "__module__", submodule.__name__) == submodule.__name__


def test_star_import_binds_every_name():
    namespace = {}
    exec("from cuspcount import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cuspcount.__all__)


def test_dir_lists_every_name():
    assert set(cuspcount.__all__) <= set(dir(cuspcount))
    assert "__version__" in dir(cuspcount)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cuspcount.no_such_name
    assert not hasattr(cuspcount, "no_such_name")
