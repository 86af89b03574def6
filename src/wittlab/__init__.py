"""Exact arithmetic for p-typical Witt vectors over normed rings.

The package computes with truncated Witt vectors, their ghost coordinates,
coherent Frobenius towers and their overconvergence norms, finite-precision
tilts, p-power root sequences in cyclotomic towers, and Frobenius-equation
solvers, all in exact rational arithmetic.  Norms are carried as rational
exponents of p, never floats.

Every name is imported from its own module: ``from wittlab.witt import
ghost``.  The package re-exports only the names the benchmark reads through
it, the rings and the Witt, arrow, perfectness and tilt operations it times,
and ``import wittlab`` loads the arithmetic only: not the suites, the ring
configs, the kernel norms or the Artin profiles.
"""

from .errors import NoRoot
from .norms import NormValue
from .rings import ZModPM
from .cyclotomic import CycloModPM, GaussianField, cyclotomic_field
from .perfpoly import PerfPolyRing
from .univ import structure_cap, structure_poly
from .witt import WittVec, frobenius, witt_add, witt_mul, witt_neg, witt_norm
from .arrow import arrow_from_integer, arrow_mul, arrow_norm, make_arrow
from .perfect import (
    build_root_sequence,
    solve_frobenius,
    solve_frobenius_normed,
    witt_perfect_test,
)
from .tilt import (
    TiltRing,
    charp_overconv_norm,
    make_tilt,
    tilt_add,
    tilt_from_top,
    tilt_mul,
    untilt_isometry,
)

__version__ = "0.1.0"
