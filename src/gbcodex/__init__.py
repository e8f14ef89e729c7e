"""Weight-4 generalized bicycle CSS codes, decided by a 2D integer lattice.

The package namespace is the lattice path: number theory (``arithmetic``),
lattice reduction and L1 enumeration (``lattice``), staircase certificates
on the torus graph (``torus_graph``), exact distance reports
(``distance``) and catalog sweeps (``catalog``, ``cli``).  None of these
modules imports the dense GF(2) layer at module level.

The dense layer is the checker and test oracle: ``gf2poly`` (polynomials),
``gf2matrix`` (bit matrices), ``css`` (rank, logical tests, exhaustive
distance) and ``gbcode`` (circulant construction).  Import its names from
those modules.
"""

from .arithmetic import is_admissible, primitive_two_squares, sqrt_minus_one_all
from .catalog import analyze_length, sweep_catalog, verify_catalog, write_catalog
from .distance import (
    DistanceReport,
    determine,
    lattice_lower_bound,
    parity_refined_lower,
    upper_bound_certificate,
)
from .lattice import Lattice2D, enumerate_short, gauss_reduce, gb_lattice, min_l1, pair_lattice
from .torus_graph import TorusGraph

__version__ = "0.1.0"
