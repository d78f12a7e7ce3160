"""Curvature invariants and unitary equivalence of quotient Hilbert modules
over the unit disk, with a matrix-truncation oracle for every analytic claim."""

__version__ = "0.1.0"

from .errors import (
    CoronaFailure,
    DegeneratePoint,
    DepthExceeded,
    DiskModError,
    FunctionParseError,
    InvalidFunction,
    NoSpectralGap,
    PointOutsideDomain,
    SpecFileError,
    UncertifiedSpec,
)
from .holofun import (
    HoloFun,
    MultiplierPair,
    common_zeros_in_disk,
    derivative,
    format_function,
    parse_function,
    poly,
    polynomial_gcd,
    polynomial_roots,
    rational,
)
from .rkhs import (
    BERGMAN,
    HARDY,
    ModuleKind,
    base_curvature,
    format_module_kind,
    kernel_eval,
    parse_module_kind,
    shift_weights,
    weighted_bergman,
)
from .curvature import (
    CurvatureField,
    DiskGrid,
    QuotientSpec,
    curvature_field,
    laplacian_log_sumsq,
    quotient_curvature,
)
from .corona import (
    CoronaCertificate,
    certify,
    certify_spec,
    make_spec,
)
from .equivalence import (
    Outcome,
    Verdict,
    Witness,
    decide_equivalence,
)
from .oracle import (
    MultiplierBound,
    dim_ker_estimate,
    eigenvector_residual,
    multiplier_lower_bound,
    oracle_curvature,
)
