"""Images of integer polynomials modulo primes and square-free composites:
correlation functions, spacing statistics, and critical-value anomalies."""

__version__ = "0.1.0"

from .composite import (
    CompositeStats,
    SquareFreeModulus,
    composite_stats,
    enumerate_image,
    joint_count_composite,
    parse_modulus,
)
from .polyarith import (
    FpPoly,
    IntPoly,
    ObstructionSet,
    critical_diffs_infinity,
    critical_diffs_mod,
    critical_value_poly,
    parse_poly,
    poly_to_text,
)
from .primeimage import (
    Anomaly,
    ImageMask,
    anomaly_scan,
    compute_image,
    expected_joint_count,
    image_mask,
    joint_count,
    joint_count_error,
    max_pair_correlation,
    pair_counts,
    wan_ok,
)
from .stats import (
    CorrelationResult,
    CorrelationWindow,
    SpacingSeries,
    adjacent_gap_correlation,
    correlation,
    gap_frequency,
    ks_exponential,
    spacing_series,
)
