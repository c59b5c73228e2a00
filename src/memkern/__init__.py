"""memkern: distributed-order memory-kernel calculus and certificate harness.

The package is organized around the measure mu on (0,1) that defines the
memory kernel k.  ``measure`` holds the measure algebra, ``kernels`` the
pointwise kernel family (k, k1, 1*k, l, r_theta), ``volterra`` the discrete
convolution calculus and Yosida layer, ``geometry`` the scaling function and
cylinders, ``solver`` the implicit memory stepper, ``harnack`` the empirical
regularity harness, and ``cli`` the experiment runner.  Importing the
package loads numpy only: scipy is imported inside the few functions that
compute with it (the step factorisations of grid solves, adaptive
quadrature).
"""

from .measure import (
    MeasureSpec,
    MeasureError,
    mu_integral,
    power_moment,
    gamma_bar,
    tail_mass,
)
from .kernels import (
    KernelKind,
    KernelGridError,
    k_eval,
    k1_eval,
    one_star_k_eval,
    h_laplace_eval,
    l_eval,
    r_theta_eval,
    resolvent_running_integral,
    sample_kernel,
    sample_kernels,
    bound_certificates,
)
from .volterra import (
    DiscreteKernel,
    conv,
    yosida_kernels,
    fundamental_identity_residual,
    sonine_partner,
)
from .geometry import (
    Cylinder,
    GeometryError,
    phi,
    phi_bar,
    build_cylinders,
    scaling_certificate,
    phi_lambda_check,
    phi_lower_bound_check,
)
from .solver import (
    BoundaryCondition,
    CoefficientField,
    SolutionField,
    SolverError,
    SpatialGrid,
    conv_weights,
    solve,
    mittag_leffler,
)
from .harnack import (
    HarnackError,
    critical_exponent,
    weak_harnack_ratio,
    harnack_ensemble,
    oscillation_profile,
    strong_max_check,
)
from .config import ExperimentConfig, ConfigError, parse_config, config_hash

__version__ = "0.1.0"
