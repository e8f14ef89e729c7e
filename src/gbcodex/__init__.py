"""Weight-4 generalized bicycle CSS codes, decided by a 2D integer lattice.

The package namespace is the lattice path: number theory (``arithmetic``),
lattice reduction and L1 enumeration (``lattice``), staircase certificates
on the torus graph (``torus_graph``), exact distance reports
(``distance``) and catalog sweeps (``catalog``, ``cli``).  None of these
modules imports the dense GF(2) layer at module level.  ``import gbcodex``
loads none of them: a name in ``__all__`` loads its module when first used
and is looked up there on every use, so a patch to the module shows here.

The dense layer is the checker and test oracle: ``gf2poly`` (polynomials),
``gf2matrix`` (bit matrices), ``css`` (rank, logical tests, exhaustive
distance) and ``gbcode`` (circulant construction).  Import its names from
those modules.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "arithmetic": ("is_admissible", "primitive_two_squares", "sqrt_minus_one_all"),
    "catalog": ("analyze_length", "sweep_catalog", "verify_catalog", "write_catalog"),
    "distance": ("DistanceReport", "determine", "lattice_lower_bound", "parity_refined_lower", "upper_bound_certificate"),
    "lattice": ("Lattice2D", "enumerate_short", "gauss_reduce", "gb_lattice", "min_l1", "pair_lattice"),
    "torus_graph": ("TorusGraph",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    home = import_module(f"{__name__}.{module}")
    return home if module == name else getattr(home, name)


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
