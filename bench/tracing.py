"""Per-layer tracing from outside the package.

The tracer replaces the public functions and methods listed in ``TARGETS``
at every binding site inside ``treeshift`` (module attributes, names
re-bound by ``from .x import y``, class attributes) with timing wrappers,
and restores the originals on ``uninstall``.  Nothing in the package is
edited.

Each wrapped call pushes a frame; on return its duration is added to the
parent frame's child time, so a layer's self time is its duration minus the
time its wrapped callees cover.  Three kinds of target:

* ``SPAN``: coarse entry points; every call is also kept as a span record
  (id, name, start, end, parent span id, operation id) and written out when
  the run ends.
* ``FRAME``: per-vertex or per-power functions called thousands of times an
  operation; timed and counted like spans but not recorded one by one.
* ``LEAF``: hot accessors that call no other target (``available_depth``
  runs about 350k times per path certificate at H = 128); timed with a
  lighter wrapper that pushes no frame.  Their cost shows in
  ``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

SPAN, FRAME, LEAF = "span", "frame", "leaf"

# (layer metric prefix, module, attribute path, kind)
TARGETS = (
    ("tree.build", "treeshift.tree", "DirectedTree.__post_init__", FRAME),
    ("tree.available_depth", "treeshift.tree", "DirectedTree.available_depth", LEAF),
    ("tree.children_n", "treeshift.tree", "DirectedTree.children_n", FRAME),
    ("shift.build", "treeshift.shift", "WeightedShift.__post_init__", FRAME),
    ("shift.power_norm_sq", "treeshift.shift", "WeightedShift.power_norm_sq", FRAME),
    ("shift.power_coefficients", "treeshift.shift", "WeightedShift.power_coefficients", FRAME),
    ("shift.structural_checks", "treeshift.shift", "WeightedShift.structural_checks", SPAN),
    ("shift.norm_bound", "treeshift.shift", "WeightedShift.norm_bound", SPAN),
    ("moments.atomic_measure", "treeshift.moments", "AtomicMeasure.__post_init__", LEAF),
    ("moments.check_stieltjes", "treeshift.moments", "check_stieltjes", SPAN),
    ("moments.quadrature_from_moments", "treeshift.moments", "quadrature_from_moments", SPAN),
    ("moments.carleman_diagnostic", "treeshift.moments", "carleman_diagnostic", SPAN),
    ("consistency.propagate_check", "treeshift.consistency", "propagate_check", FRAME),
    ("consistency.measure_discrepancy", "treeshift.consistency", "measure_discrepancy", LEAF),
    ("consistency.moments_match", "treeshift.consistency", "moments_match", FRAME),
    ("consistency.parent_from_children", "treeshift.consistency", "parent_from_children", FRAME),
    ("consistency.build_system_from_sequences", "treeshift.consistency",
     "build_system_from_sequences", SPAN),
    ("consistency.certify_subnormal", "treeshift.consistency", "certify_subnormal", SPAN),
    ("truncation.truncate", "treeshift.truncation", "truncate", SPAN),
    ("truncation.verify_truncated_consistency", "treeshift.truncation",
     "verify_truncated_consistency", SPAN),
    ("truncation.convergence_report", "treeshift.truncation", "convergence_report", SPAN),
    ("models.certify_unilateral", "treeshift.models", "certify_unilateral", SPAN),
    ("models.certify_bilateral", "treeshift.models", "certify_bilateral", SPAN),
    ("models.certify_t_eta_kappa", "treeshift.models", "certify_t_eta_kappa", SPAN),
    ("models.branching_tree_system", "treeshift.models", "branching_tree_system", SPAN),
    ("models.extract_branch_data", "treeshift.models", "extract_branch_data", SPAN),
    ("report.canonical_json", "treeshift.report", "canonical_json", SPAN),
    ("cli.main", "treeshift.cli", "main", SPAN),
    ("cli.parse_document", "treeshift.cli", "parse_document", SPAN),
)


def _count_atoms(tracer, args, result):
    tracer.counters["moments.atomic_measure.atoms_in"] += len(args[0].atoms)


def _count_expanded(tracer, args, result):
    tracer.counters["shift.coefficients_expanded"] += len(result)


def _count_refuted(tracer, args, result):
    tracer.counters["moments.check_stieltjes.refuted"] += result.status == "refuted"


def _count_rank(tracer, args, result):
    tracer.counters["moments.quadrature.rank_sum"] += result.rank / result.requested


# Counts taken at the same boundaries.  The atom count is read before the
# constructor canonicalizes (merges) the atoms it was handed.
BEFORE = {"moments.atomic_measure": _count_atoms}
AFTER = {
    "shift.power_coefficients": _count_expanded,
    "moments.check_stieltjes": _count_refuted,
    "moments.quadrature_from_moments": _count_rank,
}


def clock() -> float:
    """Monotonic clock shared by every process on the machine, so a parent
    can compare its stamps with a child's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans and per-layer totals for one process."""

    def __init__(self):
        self.stack = []  # frames: [child_time, span context id]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.spans = []
        self.op_id = None
        self.op_time = 0.0
        self.op_self = 0.0
        self.ops = 0
        self._saved = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, kind):
        before, after = BEFORE.get(name), AFTER.get(name)
        stack, calls, total, self_time = self.stack, self.calls, self.total, self.self_time
        perf = time.perf_counter

        if kind == LEAF:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                if before:
                    before(self, args, None)
                start = perf()
                result = fn(*args, **kwargs)
                dur = perf() - start
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur
                if stack:
                    stack[-1][0] += dur
                return result

            return leaf

        record = kind == SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_ctx = stack[-1][1] if stack else None
            span_id = len(self.spans) if record else None
            if record:
                self.spans.append(None)
            frame = [0.0, span_id if record else parent_ctx]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if record:
                    self.spans[span_id] = (span_id, name, start, end, parent_ctx, self.op_id)
            if after:
                after(self, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target at every binding site inside treeshift."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "treeshift"]
        for name, module_name, path, kind in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, kind))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, kind)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- operations -----------------------------------------------------------

    def run_op(self, op_id, fn, *args):
        """Run one operation as the root frame; exceptions propagate after
        the frame is closed."""
        self.op_id = op_id
        frame = [0.0, None]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dur = time.perf_counter() - start
            self.stack.pop()
            self.op_time += dur
            self.op_self += dur - frame[0]
            self.ops += 1
            self.op_id = None

    def merge(self, doc: dict, op_id):
        """Add the totals and spans a child process wrote with ``dump``; the
        child's spans are renumbered and tagged with ``op_id``."""
        offset = len(self.spans)
        for span_id, name, start, end, parent, _ in doc["spans"]:
            self.spans.append((span_id + offset, name, start, end,
                               None if parent is None else parent + offset, op_id))
        for name, (n, tot, own) in doc["layers"].items():
            self.calls[name] += n
            self.total[name] += tot
            self.self_time[name] += own
        for name, value in doc["counters"].items():
            self.counters[name] += value
        self.op_time += doc["op_time"]
        self.op_self += doc["op_self"]
        self.ops += 1

    def dump(self) -> dict:
        return {
            "layers": {n: (self.calls[n], self.total[n], self.self_time[n]) for n in self.calls},
            "counters": dict(self.counters),
            "op_time": self.op_time,
            "op_self": self.op_self,
            "spans": [s for s in self.spans if s is not None],
        }

    def write_spans(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                if span is not None:
                    f.write(json.dumps(span) + "\n")

    def largest_self_time(self) -> str | None:
        return max(self.self_time, key=self.self_time.get, default=None)


def parse_importtime(stderr: str) -> dict:
    """Import seconds per top-level package from ``-X importtime`` output:
    the cumulative time of the package's outermost entries, that is its own
    modules plus whatever they were first to import."""
    stack = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        name = name[1:]
        depth = (len(name) - len(name.lstrip())) // 2
        node = (name.strip().split(".")[0], int(cumulative) / 1e6, [])
        # entries are printed after their children, one level deeper
        while stack and stack[-1][0] > depth:
            node[2].append(stack.pop()[1])
        stack.append((depth, node))
    out = defaultdict(float)

    def walk(nodes, inside):
        for package, seconds, children in nodes:
            if package not in inside:
                out[package] += seconds
            walk(children, inside | {package})

    walk([node for _, node in stack], frozenset())
    return dict(out)
