"""Numerical laboratory for the discrete heat semigroup of Jacobi polynomials.

The package evaluates orthonormal Jacobi polynomials and their tridiagonal
difference operator, computes the heat kernel by Gauss quadrature and by a
spectral truncation oracle, applies variation, oscillation, jump, and windowed
difference-sum operators to heat paths, and empirically verifies the kernel
decay and weighted-norm boundedness estimates that make those operators behave.
"""

from .basis import (
    JacobiParams,
    TridiagonalGenerator,
    apply_generator,
    build_generator,
    coeff_a,
    coeff_b,
    generator_coefficients,
    jacobi_poly,
    normalization,
    ortho_poly,
    ortho_poly_at_one,
    ortho_table,
)
from .errors import ConfigError, ConvergenceFailure, NumericFailure
from .paths import (
    BandSequence,
    DifferenceWindow,
    LacunarySequence,
    SampledPath,
    TimeGrid,
    brute_jump_count,
    brute_variation,
    default_bands,
    default_time_grid,
    hardy_lower,
    hardy_upper,
    heat_path,
    hl_maximal,
    hl_maximal_all,
    hl_maximal_q,
    jump_count,
    jump_count_batch,
    jump_functional,
    oscillation,
    oscillation_batch,
    qn_kernel_matrix,
    rho_variation,
    s_star,
    variation_batch,
)
from .quadrature import QuadratureRule, auto_order, build_rule, integrate, moments, total_mass
from .semigroup import (
    HeatKernel,
    apply_heat,
    apply_heat_tilde,
    clear_caches,
    fourier_transform,
    kernel_dt_entry,
    kernel_dt_tensor,
    kernel_entry,
    kernel_matrix,
    kernel_tensor,
    markov_defect,
    parseval_defect,
    semigroup_defect,
    weight_at_one,
)
from .verify import (
    DEFAULT_LAMBDAS,
    DEFAULT_RHO,
    STABILITY_THRESHOLD,
    EstimateReport,
    majorant_batch,
    operator_images,
    verify_cotlar,
    verify_dt_sup,
    verify_kernel_decay,
    verify_kernel_smoothness,
    verify_lacunary_tail,
    verify_poly_bound,
    verify_qn_bounds,
    verify_theorem_norms,
)
from .weights import (
    ProbePolicy,
    WeightSpec,
    a1_constant,
    ap_constant,
    norm_ratio_max,
    operator_norm_estimate,
    probe_matrix,
    weak_quasinorm,
    weighted_norm,
)

__version__ = "0.1.0"
