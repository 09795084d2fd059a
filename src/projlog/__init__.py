"""Logarithmic kernels and potentials on complex projective space.

Numerical toolkit for the log-of-wedge-ratio kernel on P^n, the potentials
of atomic probability measures, their Monge-Ampere densities relative to the
Fubini-Study volume, and the radial quadrature identities that pin down the
normalization constants.  See README.md for conventions and the CLI.
"""

__version__ = "0.1.0"

from .coarea import (
    area_constant,
    mean_log_kernel,
    radial_quadrature,
    sobolev_bound,
    sphere_area,
)
from .errors import (
    GridTooCoarse,
    NegativeDensity,
    NonConvergent,
    NumericError,
    ProjlogError,
    SingularStencil,
    ValidationError,
)
from .geometry import (
    HomogeneousPoint,
    fs_ball_volume,
    fs_gradient,
    fs_hessian,
    fs_potential,
    geodesic_distance_batch,
    normalize,
    sample_fs_array,
)
from .kernels import affine_log_kernel_batch, projective_log_kernel_batch
from .measures import (
    AffineAtoms,
    AtomicMeasure,
    ChartDecomposition,
    build_measure,
    decompose,
    dirac,
    partition_of_unity,
    riesz_lp_scan,
    riesz_refinement_scan,
    uniform_on,
)
from .monge_ampere import (
    MassReport,
    ball_mass_profile,
    complex_hessian_fd,
    ma_density,
    ma_product_expansion_check,
    ma_total_mass,
    mixed_discriminant,
    smooth_wedge_density,
)
from .potentials import (
    PotentialField,
    affine_field,
    log_potential_batch,
    psh_lift,
    sobolev_doubling,
    sobolev_refinement_scan,
    sobolev_scan,
)
