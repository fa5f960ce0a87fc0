"""Numerical laboratory for the discrete heat semigroup of Jacobi polynomials.

The package evaluates orthonormal Jacobi polynomials and their tridiagonal
difference operator, computes the heat kernel by Gauss quadrature (the
Gauss-Jacobi rule from one eigensolve of the truncated operator, and
Gauss-Laguerre at large times) and by a spectral truncation oracle, applies
variation, oscillation, jump, and windowed difference-sum operators to heat
paths, and empirically verifies the kernel decay and weighted-norm
boundedness estimates that make those operators behave.
"""

from .basis import (
    JacobiParams,
    coeff_a,
    coeff_b,
    generator_coefficients,
    normalization,
    ortho_poly_at_one,
    ortho_table,
)
from .errors import ConfigError, ConvergenceFailure, NumericFailure
from .paths import (
    BandSequence,
    LacunarySequence,
    TimeGrid,
    default_bands,
    hl_maximal_all,
    jump_count_batch,
    oscillation_batch,
    variation_batch,
)
from .quadrature import auto_order
from .semigroup import (
    clear_caches,
    kernel_dt_tensor,
    kernel_matrix,
    kernel_tensor,
    markov_defect,
    semigroup_defect,
    weight_at_one,
)
from .verify import (
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
    WeightSpec,
    ap_constant,
    norm_ratio_max,
    probe_matrix,
    weak_quasinorm,
)

__version__ = "0.1.0"
