"""The package namespace: each public name resolves to its home module's object."""

import importlib

import pytest

import gbcodex

# the names gbcodex exports, in order, with the module that defines each
HOMES = {
    "is_admissible": "arithmetic",
    "primitive_two_squares": "arithmetic",
    "sqrt_minus_one_all": "arithmetic",
    "analyze_length": "catalog",
    "sweep_catalog": "catalog",
    "verify_catalog": "catalog",
    "write_catalog": "catalog",
    "DistanceReport": "distance",
    "determine": "distance",
    "lattice_lower_bound": "distance",
    "parity_refined_lower": "distance",
    "upper_bound_certificate": "distance",
    "Lattice2D": "lattice",
    "enumerate_short": "lattice",
    "gauss_reduce": "lattice",
    "gb_lattice": "lattice",
    "min_l1": "lattice",
    "pair_lattice": "lattice",
    "TorusGraph": "torus_graph",
}


def test_all_is_pinned():
    assert gbcodex.__all__ == list(HOMES)


@pytest.mark.parametrize("name", HOMES)
def test_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"gbcodex.{HOMES[name]}")
    assert getattr(gbcodex, name) is vars(home)[name]


@pytest.mark.parametrize("module", sorted(set(HOMES.values())))
def test_lattice_path_modules_are_attributes(module):
    assert getattr(gbcodex, module) is importlib.import_module(f"gbcodex.{module}")


def test_dir_lists_every_exported_name():
    assert set(gbcodex.__all__) | set(HOMES.values()) <= set(dir(gbcodex))
    assert "__version__" in dir(gbcodex)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'gbcodex' has no attribute 'no_such_name'$"):
        gbcodex.no_such_name
    assert not hasattr(gbcodex, "no_such_name")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from gbcodex import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(HOMES)
    assert all(namespace[name] is getattr(gbcodex, name) for name in HOMES)
