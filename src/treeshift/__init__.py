"""Moment-based subnormality certification for weighted shifts on directed
trees: tree combinatorics, shift power calculus, a halfline moment engine,
consistent measure systems, bounded truncations, and closed-form certifiers
for the classical and one-branching-vertex families.

The names below are exported lazily (PEP 562): ``import treeshift`` loads no
submodule, and the first access to a name imports the submodule that
defines it, so a command that needs only the tree layer never compiles the
moment engine.
"""

from importlib import import_module

_EXPORTS = {
    "consistency": (
        "Certificate",
        "ConsistencyReport",
        "ConsistencySumError",
        "MeasureSystem",
        "MomentsMatchReport",
        "build_system_from_sequences",
        "certify_subnormal",
        "check_consistency_at",
        "child_from_parent_single",
        "measure_discrepancy",
        "moments_match",
        "parent_from_children",
        "propagate_check",
        "system_from_json",
    ),
    "models": (
        "BranchData",
        "ModelCertificate",
        "TwoSidedSequence",
        "branch_data_from_json",
        "certify_bilateral",
        "certify_t_eta_kappa",
        "certify_unilateral",
        "extract_branch_data",
        "product_moments",
        "root_inequality",
        "root_measure_equivalence_check",
        "trunk_conditions",
        "two_sided_from_weights",
    ),
    "moments": (
        "AtomicMeasure",
        "DeterminacyDiagnostic",
        "NoBackwardExtensionError",
        "QuadratureResult",
        "RefutedSequenceError",
        "StieltjesVerdict",
        "backward_extend",
        "carleman_diagnostic",
        "cauchy_schwarz_bound",
        "check_stieltjes",
        "forward_map",
        "measure_from_json",
        "quadrature_from_moments",
        "scaled_inverse_integral",
        "superpose",
    ),
    "report": ("CERTIFIED", "CONDITIONAL", "REFUTED"),
    "shift": ("NormBoundReport", "StructuralReport", "WeightedShift", "weights_from_json"),
    "tree": (
        "DirectedTree",
        "HorizonError",
        "UnknownVertexError",
        "ValidationReport",
        "explicit_tree",
        "make_family",
        "tree_from_json",
        "truncated_tree",
        "validate",
        "vertex_sort_key",
    ),
    "truncation": (
        "ConvergenceTable",
        "TruncationEntry",
        "TruncationReport",
        "convergence_report",
        "truncate",
        "truncated_path_weight",
        "verify_truncated_consistency",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
