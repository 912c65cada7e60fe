"""The package's lazy exports: every public name resolves to the object its
submodule defines, and a bare ``import treeshift`` loads no submodule."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import treeshift

EXPORTS = {
    "consistency": [
        "Certificate", "ConsistencyReport", "ConsistencySumError", "MeasureSystem",
        "MomentsMatchReport", "build_system_from_sequences", "certify_subnormal",
        "check_consistency_at", "child_from_parent_single", "measure_discrepancy",
        "moments_match", "parent_from_children", "propagate_check", "system_from_json",
    ],
    "models": [
        "BranchData", "ModelCertificate", "TwoSidedSequence",
        "branch_data_from_json", "certify_bilateral", "certify_t_eta_kappa",
        "certify_unilateral", "extract_branch_data", "product_moments", "root_inequality",
        "root_measure_equivalence_check", "trunk_conditions", "two_sided_from_weights",
    ],
    "moments": [
        "AtomicMeasure", "DeterminacyDiagnostic", "NoBackwardExtensionError",
        "QuadratureResult", "RefutedSequenceError", "StieltjesVerdict", "backward_extend",
        "carleman_diagnostic", "cauchy_schwarz_bound", "check_stieltjes", "forward_map",
        "measure_from_json", "quadrature_from_moments", "scaled_inverse_integral", "superpose",
    ],
    "report": ["CERTIFIED", "CONDITIONAL", "REFUTED"],
    "shift": ["NormBoundReport", "StructuralReport", "WeightedShift", "weights_from_json"],
    "tree": [
        "DirectedTree", "HorizonError", "UnknownVertexError", "ValidationReport",
        "explicit_tree", "make_family", "tree_from_json", "truncated_tree", "validate",
        "vertex_sort_key",
    ],
    "truncation": [
        "ConvergenceTable", "TruncationEntry", "TruncationReport", "convergence_report",
        "truncate", "truncated_path_weight", "verify_truncated_consistency",
    ],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_all_lists_the_exported_names():
    assert len(NAMES) == len(set(NAMES)) == 66
    assert sorted(treeshift.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_submodules_object(module):
    submodule = importlib.import_module(f"treeshift.{module}")
    for name in EXPORTS[module]:
        assert getattr(treeshift, name) is getattr(submodule, name), name


def test_dir_and_star_import_list_every_name():
    assert set(NAMES) <= set(dir(treeshift))
    namespace = {}
    exec("from treeshift import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(treeshift, name) for name in NAMES)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        treeshift.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from treeshift import no_such_name", {})


def test_bare_import_loads_no_submodule():
    code = (
        "import sys, treeshift; "
        "print(sorted(m for m in sys.modules if m.startswith('treeshift')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['treeshift']"


# standard modules the runtime does without: ``dataclasses`` generates code
# at import and brings in ``inspect``, which CLI processes would pay for
AVOIDED = ("dataclasses", "inspect")

# modules are listed from the directory: pkgutil.iter_modules loads inspect
STDLIB_ONLY = """
import os, sys
before = set(sys.modules)
import treeshift
for name in os.listdir(treeshift.__path__[0]):
    if name.endswith(".py") and name != "__init__.py":
        __import__("treeshift." + name.removesuffix(".py"))
# quadrature's polish and the exact Hankel witness import inside functions
treeshift.quadrature_from_moments([1.0, 2.0, 5.0, 14.0])
treeshift.check_stieltjes([1.0, 1.0, 0.0, 0.0])
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"treeshift"}))
print(sorted(set(sys.modules) & set(%r)))
""" % (AVOIDED,)


def test_the_runtime_loads_only_the_standard_library():
    # every module imported, and the functions that import more run: no
    # third-party module (numpy, scipy, jsonschema, mpmath are test oracles)
    # and none of the avoided standard modules
    out = subprocess.run(
        [sys.executable, "-c", STDLIB_ONLY], capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["[]", "[]"]


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    # the benchmark's tracer wraps its targets by attribute path, and its
    # install() raises KeyError or AttributeError for one that is gone
    targets = _bench_module("tracing").TARGETS
    for _, module_name, path, _ in targets:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            assert callable(getattr(module, owner_name).__dict__[attr]), path
        else:
            assert callable(getattr(module, attr)), path


@pytest.mark.parametrize("seed", [1, 6173])
def test_the_benchmark_cli_fixtures_pass_in_process(seed, tmp_path, monkeypatch, capsys):
    # the benchmark runs each fixture as a process and checks its exit code
    # and report; running them through main here catches a CLI change that
    # breaks one
    from treeshift.cli import main

    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its sibling gen
    monkeypatch.delenv("TREESHIFT_TOL", raising=False)
    workloads = _bench_module("workloads")
    for fixture in workloads.cli_fixtures(seed, tmp_path):
        code = main(fixture[1])
        workloads.check_cli(fixture, code, capsys.readouterr().out)


@pytest.mark.parametrize("seed", [1, 6173])
def test_the_benchmark_library_workloads_pass_in_process(seed, monkeypatch):
    # the library twin of the CLI fixtures: one cycle each of verify-wide and
    # verify-deep at their smoke sizes and of construct-from-moments, run and
    # checked against the benchmark's oracle, so a wrong verdict fails here
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its sibling gen
    workloads = _bench_module("workloads")
    program = workloads.load_program()
    ops = [
        *workloads.cycle_ops("verify-wide", seed, 0, smoke=True),
        *workloads.cycle_ops("verify-deep", seed, 0, smoke=True),
        *workloads.cycle_ops("construct-from-moments", seed, 0),
    ]
    for operation in ops:
        workloads.check_op(operation, workloads.run_op(program, operation).as_dict())
