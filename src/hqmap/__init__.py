"""Numerical toolkit for harmonic quasiconformal mappings of the unit disk.

Covers the pointwise derivative calculus of maps f = h + conj(g), their
radial image lengths and growth gauge, hyperbolic geometry of the disk,
margin-reporting inequality checks, radial John-disk criteria, and the
Poisson-kernel boundary functional.
"""

from .maps import (
    AnalyticPart,
    CatalogPart,
    ComboPart,
    Config,
    DiskDomainError,
    HarmonicMap,
    HqmapError,
    ParameterError,
    SenseReversalError,
    SeriesPart,
    WirtingerPair,
    qc_constant,
)
from .corpus import default_corpus, load_corpus, map_from_json, map_to_json, save_corpus
from .geometry import (
    boundary_arc,
    boundary_box,
    boundary_distance,
    disk_grid,
    hyp_dist,
    stolz_contains,
    stolz_sample,
)
from .radial import (
    GrowthResult,
    RadialProfile,
    growth_gauge,
    growth_ratio,
    radial_profile,
)
from .transforms import (
    affine,
    preschwarzian_sup,
    rotate,
    shear_qc,
)
from .bounds import (
    CheckReport,
    check_arc_image_diameter,
    check_boundary_dist_lower,
    check_derivative_bounds,
    check_harnack_box,
    check_two_point_growth,
    check_weighted_deriv_growth,
    derivative_bound_constant,
    harnack_constant,
)
from .johndisk import (
    DecayFit,
    JohnEstimate,
    criterion_ii,
    criterion_iii,
    decay_fit,
    diam_ratio_check,
    holder_check,
    john_estimate,
)
from .poisson import (
    BoundaryProfile,
    boundary_profile,
    poisson_csv,
    poisson_functional,
    poisson_scan,
    poisson_sup,
    pommerenke_bracket,
)

__version__ = "0.1.0"
