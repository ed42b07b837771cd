"""Half-period cosine analysis on the unit cube: tent-transform
periodization, cosine and spline-wavelet transforms, dominating-mixed
Besov norms, hyperbolic-cross approximation, least-squares recovery, and
tent-transformed quasi-Monte Carlo cubature."""

__version__ = "0.1.0"

from .errors import (
    HalfcosError,
    AliasingError,
    ConditionError,
    ConfigError,
    DivergentTailError,
    DomainError,
    ResolutionMismatchError,
    TruncationError,
)
from .indexsets import IndexSet, hyperbolic_cross, plus_l1
from .grids import (
    UNIT,
    SYM,
    GridFunction,
    CoefficientMap,
    tent,
    rho,
    periodize,
    hpc_basis_1d,
    cos_basis,
    exp_basis,
    hpc_analyze_dense,
    hpc_synthesize,
    hpc_synthesize_dense,
    fourier_analyze_dense,
    fourier_synthesize_dense,
    coefficient_decay_report,
)
from .wavelets import (
    PiecewiseLinear,
    mother,
    father,
    psi_eval,
    psi_piecewise,
    dual_coefficients,
    dual_father_closed_form,
    cw_analyze,
    cw_synthesize,
    biorthogonality_residual_1d,
)
from .besov import (
    BesovParams,
    NormReport,
    hpc_besov_norm,
    seq_norm,
    seq_norm_report,
    holder_pairing_check,
    periodization_block_identity,
    difference_seminorm,
)
from .cubature import (
    CubatureRule,
    RateFit,
    fibonacci_number,
    fibonacci_rule,
    rank1_lattice,
    digital_net,
    tent_transform_rule,
    random_shift,
    integrate,
    convergence_experiment,
)
from .approx import (
    error_transfer_check,
    ls_recover,
    ls_error_experiment,
    exact_projection_error,
    projection_error_rate,
)
from .corpus import (
    TestFunction,
    get_member,
    band_family,
    h2_family,
    gibbs_demo,
    KINK_A,
)
from .suite import (
    identity_suite,
    random_cosine_polynomial,
    norm_comparison,
    ratio_table,
    route_ratios,
)
