"""Invariant calculus for punctured pseudoholomorphic curves in
4-dimensional symplectic cobordisms.

Computes Fredholm indices, normal Chern numbers, Conley-Zehnder and winding
data (with a numerical spectral oracle for asymptotic operators), the
automatic-transversality criterion with kernel bounds, intersection numbers
with the adjunction formula, multiple-cover relations, and the
classification/degeneration screen for stable nicely embedded curves.
"""

from .curves import (
    ConstraintSet,
    CurveData,
    adjusted_c1_zero_budget,
    critical_bound_check,
    fredholm_index,
    index_normal_operator,
    k_bound,
    line_bundle_bounds,
    normal_chern,
    parity_partition,
    transversality_check,
)
from .errors import (
    ConsistencyError,
    DegeneracyError,
    MissingDataError,
    PCurvesError,
    SpectralError,
    ValidationError,
)
from .orbits import (
    AsymptoticOperator,
    DeclaredWindings,
    MorseBott,
    Nondegenerate,
    OperatorWinding,
    OrbitClass,
    Perturbation,
    alpha_pm,
    conley_zehnder,
    cov_extremal,
    cover_orbit,
    delta_mb,
    linked,
    nu_pm,
    omega_pair,
    omega_self,
    q_of_cover,
    q_tilde,
    scalar_orbit,
)
from .spectral import SpectralData, discretized_spectrum
from .surfaces import (
    BranchedCover,
    PuncturedSurface,
    aut_dim,
    cover_moduli_dim,
    euler_char,
    riemann_hurwitz_punctured,
    teichmuller_dim,
)

__version__ = "0.1.0"
