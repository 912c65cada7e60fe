"""Moment-based subnormality certification for weighted shifts on directed
trees: tree combinatorics, shift power calculus, a halfline moment engine,
consistent measure systems, bounded truncations, and closed-form certifiers
for the classical and one-branching-vertex families.
"""

from .consistency import (
    Certificate,
    ConsistencyReport,
    ConsistencySumError,
    MeasureSystem,
    MomentsMatchReport,
    build_system_from_sequences,
    certify_subnormal,
    check_consistency_at,
    child_from_parent_single,
    measure_discrepancy,
    moments_match,
    parent_from_children,
    propagate_check,
    system_from_json,
)
from .models import (
    BranchData,
    BranchExtraction,
    ModelCertificate,
    TwoSidedSequence,
    branch_data_from_json,
    certify_bilateral,
    certify_t_eta_kappa,
    certify_unilateral,
    extract_branch_data,
    product_moments,
    root_inequality,
    root_measure_equivalence_check,
    trunk_conditions,
    two_sided_from_weights,
)
from .moments import (
    AtomicMeasure,
    DeterminacyDiagnostic,
    MomentSequence,
    NoBackwardExtensionError,
    QuadratureResult,
    RefutedSequenceError,
    StieltjesVerdict,
    backward_extend,
    carleman_diagnostic,
    cauchy_schwarz_bound,
    check_stieltjes,
    forward_map,
    measure_from_json,
    moments_of,
    quadrature_from_moments,
    scaled_inverse_integral,
    superpose,
)
from .report import CERTIFIED, CONDITIONAL, REFUTED
from .shift import NormBoundReport, StructuralReport, WeightedShift, weights_from_json
from .tree import (
    DirectedTree,
    HorizonError,
    UnknownVertexError,
    ValidationReport,
    explicit_tree,
    make_family,
    tree_from_json,
    truncated_tree,
    validate,
    vertex_sort_key,
)
from .truncation import (
    ConvergenceTable,
    TruncationEntry,
    TruncationReport,
    convergence_report,
    truncate,
    truncated_path_weight,
    verify_truncated_consistency,
)

__version__ = "0.1.0"
