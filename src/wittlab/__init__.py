"""Exact arithmetic for p-typical Witt vectors over normed rings.

The package computes with truncated Witt vectors, their ghost coordinates,
coherent Frobenius towers and their overconvergence norms, finite-precision
tilts, p-power root sequences in cyclotomic towers, and Frobenius-equation
solvers, all in exact rational arithmetic.  Norms are carried as rational
exponents of p, never floats.

``import wittlab`` loads the arithmetic only: the errors, norms, rings,
cyclotomic fields, perfected polynomials, structure polynomials, Witt
vectors, Frobenius towers, tilts and perfectness tests re-exported below
(and ``config``, which ``perfect`` reads).  The suite, ring-config,
kernel-norm and Artin APIs are imported from their own modules:
``wittlab.suites``, ``wittlab.config``, ``wittlab.kernelnorm`` and
``wittlab.artin``.
"""

from .errors import (
    BOutOfRange,
    CapabilityMissing,
    DepthExceeded,
    InsufficientDepth,
    IntegralityViolation,
    LengthMismatch,
    MalformedConfig,
    NoRoot,
    NotDivisible,
    NotEnumerable,
    PrecisionExhausted,
    RescaleInfeasible,
    RingMismatch,
    UnknownSuite,
    WittError,
)
from .norms import NormValue, norm_max
from .rings import Integers, Rationals, Ring, TruncatedRing, TruncVec, ZModPM
from .cyclotomic import (
    CycloModPM,
    CyclotomicField,
    CyclotomicTower,
    GaussianField,
    cyclotomic_field,
)
from .perfpoly import PerfPolyRing
from .univ import (
    UPoly,
    canonical_dump,
    component_labels,
    structure_cap,
    structure_poly,
    structure_poly_labels,
)
from .witt import (
    GhostVec,
    WittVec,
    frobenius,
    frobenius_iter,
    ghost,
    integer_witt_components,
    restrict,
    teich_mul,
    teichmuller,
    unghost,
    verschiebung,
    witt_add,
    witt_combination,
    witt_eq,
    witt_from_integer,
    witt_mul,
    witt_neg,
    witt_norm,
    witt_norm_profile,
    witt_one,
    witt_sub,
    witt_zero,
)
from .arrow import (
    ArrowElt,
    ArrowNorm,
    arrow_add,
    arrow_eq,
    arrow_from_integer,
    arrow_from_top,
    arrow_mul,
    arrow_norm,
    arrow_teichmuller,
    inverse_frobenius,
    inverse_frobenius_sandwich,
    lift_arrow_precision,
    make_arrow,
    rigidity_profile,
    sample_coherent,
    theta,
    theta_series,
)
from .perfect import (
    PerfectReport,
    RootSequence,
    build_root_sequence,
    solve_frobenius,
    solve_frobenius_normed,
    witt_perfect_test,
)
from .tilt import (
    TiltElt,
    TiltRing,
    charp_arrow_realization,
    charp_limit_norm,
    charp_overconv_norm,
    charp_overconv_profile,
    growth_family,
    growth_profile_report,
    make_tilt,
    tilt_add,
    tilt_from_top,
    tilt_mul,
    tilt_pth_root,
    untilt,
    untilt_isometry,
)

__version__ = "0.1.0"
