"""Exact difference-quotient calculus over p-adic fields.

Evaluates higher-order partial and full difference quotients exactly,
verifies their operator identities, classifies smoothness empirically,
and reproduces the gallery of counterexample constructions at desk
scale.
"""

from .errors import (
    BackendMismatch,
    ConfigError,
    DimensionMismatch,
    DivisionByZero,
    DomainError,
    IndeterminateRank,
    PrecisionExhausted,
    PrimeMismatch,
    UltracalcError,
    UnsupportedOrder,
    ZeroIncrement,
)
from .field import (
    Ball,
    DigitScalar,
    ExactScalar,
    FieldContext,
    PadicScalar,
    PadicVector,
    Prime,
)
from .functions import (
    AffinePrecompose,
    BallIndicator,
    Compose,
    Curve,
    FunctionExpr,
    GalleryFn,
    MultiPolynomial,
    Poly,
    Product,
    Scale,
    Shift,
    Sum,
    affine_curve,
    build_gallery,
    compose,
    expr_from_json,
    gallery_names,
    polynomial_curve,
)
from .engine import (
    CheckReport,
    PhiPoint,
    UpsilonPoint,
    chain_phi_low,
    differential,
    directional_span_rank,
    embed_phi_point,
    leibniz_phi,
    multilinearity_at_zero_check,
    phi,
    phi_poly_closed,
    rank_bound,
    scaling_identity_check,
    transposition_symmetry_check,
    upsilon,
    upsilon_poly_closed_low,
    upsilon_sup_bound_check,
)
from .probe import (
    LipschitzFit,
    ProbeConfig,
    SmoothnessReport,
    Verdict,
    boman_experiment,
    cn_norm_estimate,
    continuity_probe,
    directional_continuity_probe,
    lipschitz_fit,
    local_boundedness_probe,
    probe_smoothness,
    scaling_inequality_check,
)
from .gallery import (
    CounterexampleF,
    HFamily,
    PatchworkCurve,
    build_counterexample,
    curve_flatness_check,
    discontinuity_witness,
    patchwork_curve,
)

__version__ = "0.1.0"
