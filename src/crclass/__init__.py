"""Exact classification of low-dimensional CR-generic submanifolds.

Input: rational graphing functions phi_j(z, zb, u) for a manifold of
type (n, c) with 2n + c <= 5, over exact Gaussian-rational arithmetic.
Output: a verdict among the six classes, Levi-flat, or product-degenerate
cases, with machine-checkable rank witnesses and kernel certificates.
"""

from .classify import (
    ClassificationReport,
    HullResult,
    VERDICT_TEXT,
    classify,
    lie_hull_rank,
)
from .errors import (
    BasePointError,
    DependentFrameError,
    DimensionError,
    FrameSingularError,
    InternalAssertion,
    NotInSpanError,
    RankMismatchError,
    RealityError,
    ValidationError,
)
from .frames import (
    FrameData,
    OneForm,
    VectorField,
    change_frame,
    characteristic_field,
    cramer_frame,
    decompose_in_frame,
    generic_rank,
    lie_bracket,
    named_brackets,
    rank_at_point,
    rho0,
)
from .gaussian import GaussianRational, gr
from .levi import (
    KernelData,
    LeviData,
    freeman,
    is_cr_function,
    k_quotients,
    l1a1_closed_form,
    levi_det,
    levi_det_closed_form,
    levi_data,
    levi_entries,
    levi_matrix,
    slant_k,
)
from .linalg import (
    RankCertificate,
    det_expr,
    generic_rank_matrix,
    rank_at_point_matrix,
)
from .manifold import (
    ManifoldSpec,
    PointAssignment,
    ValidatedManifold,
    load_manifold,
    manifold_from_dict,
    validate_manifold,
)
from .parser import ParseError, expr_to_text, parse_constant, parse_expr
from .poly import MultiPoly, VarSpace
from .ratfunc import PoleError, RationalExpr

__version__ = "0.1.0"

__all__ = [
    "BasePointError",
    "ClassificationReport",
    "DependentFrameError",
    "DimensionError",
    "FrameData",
    "FrameSingularError",
    "GaussianRational",
    "HullResult",
    "InternalAssertion",
    "KernelData",
    "LeviData",
    "ManifoldSpec",
    "MultiPoly",
    "NotInSpanError",
    "OneForm",
    "ParseError",
    "PointAssignment",
    "PoleError",
    "RankCertificate",
    "RankMismatchError",
    "RationalExpr",
    "RealityError",
    "ValidatedManifold",
    "ValidationError",
    "VarSpace",
    "VectorField",
    "VERDICT_TEXT",
    "change_frame",
    "characteristic_field",
    "classify",
    "cramer_frame",
    "decompose_in_frame",
    "det_expr",
    "expr_to_text",
    "freeman",
    "generic_rank",
    "generic_rank_matrix",
    "gr",
    "is_cr_function",
    "k_quotients",
    "l1a1_closed_form",
    "levi_det",
    "levi_det_closed_form",
    "levi_data",
    "levi_entries",
    "levi_matrix",
    "lie_bracket",
    "lie_hull_rank",
    "load_manifold",
    "manifold_from_dict",
    "named_brackets",
    "parse_constant",
    "parse_expr",
    "rank_at_point",
    "rank_at_point_matrix",
    "rho0",
    "slant_k",
    "validate_manifold",
]
