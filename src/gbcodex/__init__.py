"""Weight-4 generalized bicycle CSS codes.

Construction from circulant generator pairs, exact code parameters over
GF(2), exact minimum distances through an attached 2D integer lattice,
explicit logical-operator certificates, and catalog sweeps over all
admissible lengths.
"""

from .arithmetic import is_admissible, primitive_two_squares, sqrt_minus_one_all
from .catalog import analyze_length, sweep_catalog, verify_catalog, write_catalog
from .css import CssCode, dimension, exhaustive_distance, is_logical_x, min_weight_logical, new_css
from .distance import (
    DistanceReport,
    determine,
    lattice_lower_bound,
    parity_refined_lower,
    upper_bound_certificate,
)
from .gbcode import (GbSpec, build, canonical_spec, canonicalize_w2, dimension_formula, optimized_kitaev_spec,
                     shift_normalize)
from .gf2matrix import BitMatrix, circulant, hstack, kernel_basis, mat_mul, rank, row_space_contains, transpose
from .gf2poly import BinaryPolynomial, add, gcd, mul_mod, parse_poly, substitute_power, x_pow_minus_one
from .lattice import Lattice2D, enumerate_short, gauss_reduce, gb_lattice, min_l1
from .torus_graph import TorusGraph

__version__ = "0.1.0"
