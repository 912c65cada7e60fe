"""Workloads: per-cycle instance lists, the timed operations, and the oracle.

An operation takes plain inputs and returns a verdict.  Its timed part
builds fresh ``DirectedTree``, ``WeightedShift``, ``MeasureSystem`` (or
``BranchData``) objects and makes the certifying call, so per-object caches
start cold and work moved into constructors still counts.  Program
functions are looked up through their modules at call time, so the tracer's
wrappers apply.

Each cycle of a workload is a fixed mix of instance kinds and sizes, built
fresh from (seed, cycle): no input repeats within a run, and a run always
ends on a whole cycle so the mix is the same at every run length.  Every
expected verdict follows from the construction; refutations must carry a
witness that re-checks from the report alone.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

import gen

TOL = 1e-9
CERTIFIED, REFUTED, CONDITIONAL = "certified-up-to-horizon", "refuted", "conditional"


class Mismatch(Exception):
    """The program's answer differs from the constructed expectation."""


def load_program():
    """Import the package modules the operations call."""
    from treeshift import consistency, models, moments, report, shift, tree, truncation

    return SimpleNamespace(
        tree=tree, shift=shift, moments=moments, consistency=consistency,
        truncation=truncation, models=models, report=report,
    )


def op(kind, size, expect, **inputs):
    return {"kind": kind, "size": size, "expect": expect, "inputs": inputs}


def _atoms(T, atoms):
    return T.moments.AtomicMeasure(tuple(atoms))


def _tuples(measures):
    return {v: tuple(a) for v, a in measures.items()}


# -- timed operations ---------------------------------------------------------------


def run_window(T, x):
    tree = T.tree.truncated_tree(x["vertices"], x["parent"])
    shift = T.shift.WeightedShift(tree, x["weights"])
    system = T.consistency.MeasureSystem(
        mu={v: _atoms(T, a) for v, a in x["atoms"].items()}, eps=x["eps"]
    )
    return T.consistency.certify_subnormal(shift, system, horizon=x["horizon"])


def run_path(T, x):
    tree = T.tree.make_family("unilateral", x["depth"])
    shift = T.shift.WeightedShift(tree, x["weights"])
    system = T.consistency.MeasureSystem(
        mu={v: _atoms(T, a) for v, a in x["atoms"].items()}, eps=dict.fromkeys(x["atoms"], 0.0)
    )
    return T.consistency.certify_subnormal(shift, system, horizon=x["depth"])


def run_branch(T, x):
    data = T.models.BranchData(
        eta=len(x["measures"]),
        kappa=x["kappa"],
        branch_measures=tuple(_atoms(T, m) for m in x["measures"]),
        entry_weights=tuple(x["entry"]),
        trunk_weights=tuple(x["trunk"]),
    )
    return T.models.certify_t_eta_kappa(data, depth=x["depth"])


def run_stieltjes(T, x):
    return T.moments.check_stieltjes(x["t"])


def run_unilateral(T, x):
    return T.models.certify_unilateral(x["weights"])


def run_bilateral(T, x):
    return T.models.certify_bilateral(x["weights"])


def run_branch_weights(T, x):
    data = T.models.branch_data_from_json(x["doc"])
    return T.models.certify_t_eta_kappa(data, depth=x["depth"], conditional=True)


def run_sequences(T, x):
    tree = T.tree.truncated_tree(x["vertices"], x["parent"])
    shift = T.shift.WeightedShift(tree, x["weights"])
    return T.consistency.certify_subnormal(shift, sequences=x["sequences"])


def run_parents(T, x):
    """Write side of the identity: close every interior vertex from its
    children, bottom-up, then certify the system that results."""
    tree = T.tree.truncated_tree(x["vertices"], x["parent"])
    shift = T.shift.WeightedShift(tree, x["weights"])
    mu, eps = {}, {}
    for u in reversed(tree.sorted_vertices):
        kids = tree.children(u)
        if kids:
            mu[u], eps[u] = T.consistency.parent_from_children(shift, u, {c: mu[c] for c in kids})
        else:
            mu[u], eps[u] = _atoms(T, x["leaves"][u]), 0.0
    system = T.consistency.MeasureSystem(mu=mu, eps=eps)
    return T.consistency.certify_subnormal(shift, system)


class _Composite:
    def __init__(self, parts):
        self.parts = parts

    def as_dict(self):
        return {k: v.as_dict() for k, v in self.parts.items()}


def run_truncation(T, x):
    tree = T.tree.truncated_tree(x["vertices"], x["parent"])
    shift = T.shift.WeightedShift(tree, x["weights"])
    system = T.consistency.MeasureSystem(
        mu={v: _atoms(T, a) for v, a in x["atoms"].items()}, eps=x["eps"]
    )
    parts = {}
    for i in x["windows"]:
        entry = T.truncation.truncate(system, shift, i)
        parts[f"window-{i}"] = T.truncation.verify_truncated_consistency(entry)
    parts["convergence"] = T.truncation.convergence_report(
        system, shift, 0, x["power"], x["windows"]
    )
    return _Composite(parts)


def run_extract(T, x):
    tree = T.tree.make_family("t-eta-kappa", x["depth"], eta=len(x["entry"]), kappa=0)
    shift = T.shift.WeightedShift(tree, x["weights"])
    return T.models.extract_branch_data(shift, x["sequences"])


# -- oracle -----------------------------------------------------------------------------


def _status(rep, expect):
    if rep["status"] != expect["status"]:
        raise Mismatch(f"status {rep['status']}, expected {expect['status']}")


def _vertex_ok(witness, expect):
    if witness["vertex"] not in expect["vertices"]:
        raise Mismatch(
            f"witness names vertex {witness['vertex']}, expected one of {expect['vertices']}"
        )


def check_certificate(x, expect, rep):
    """Certificate from certify_subnormal: a consistency witness must name
    the perturbed vertex or its parent, and that vertex's row must show the
    identity failing by more than the tolerance."""
    _status(rep, expect)
    if expect["status"] != REFUTED:
        return
    witness = rep["witness"]
    if witness["check"] != "consistency-identity":
        raise Mismatch(f"witness check {witness['check']}")
    _vertex_ok(witness, expect)
    row = next(r for r in rep["consistency"] if r["vertex"] == witness["vertex"])
    eps_gap = math.inf if row["eps_computed"] is None else abs(row["eps_stored"] - row["eps_computed"])
    if row["ok"] or not (row["max_discrepancy"] > TOL or eps_gap > TOL):
        raise Mismatch("consistency witness does not re-check")


def check_model(x, expect, rep):
    """Model certificate: branching refutations carry the failing condition
    and its value; Hankel refutations a vector with a negative form."""
    _status(rep, expect)
    if expect["status"] != REFUTED:
        return
    witness = rep["witness"]
    if witness["check"] == "hankel":
        _hankel_ok(x["hankel_values"], witness["block"], witness["vector"])
        return
    _vertex_ok(witness, expect)
    if witness["check"] == "entry-inverse-sum":
        if not witness["value"] > 1.0 + TOL:
            raise Mismatch("entry inverse sum witness does not exceed one")
    elif witness["check"] == "trunk-conditions":
        if not abs(witness["value"] - 1.0) > TOL:
            raise Mismatch("trunk condition witness sits at its target")
    else:
        raise Mismatch(f"witness check {witness['check']}")


def _hankel_ok(values, block, vector):
    form = gen.hankel_form(values, block, vector)
    if not form < 0.0:
        raise Mismatch(f"Hankel witness form {form} is not negative")


def check_stieltjes(x, expect, rep):
    status = REFUTED if rep["status"] == REFUTED else "consistent"
    if status != expect["status"]:
        raise Mismatch(f"status {rep['status']}, expected {expect['status']}")
    if status == REFUTED:
        _hankel_ok(x["t"], rep["witness"]["block"], rep["witness"]["vector"])


def check_truncation(x, expect, rep):
    """Every truncation satisfies the identity with supports inside its
    window, and the residual vanishes once the window holds every atom."""
    for key, value in rep.items():
        if key.startswith("window-") and not value["ok"]:
            raise Mismatch(f"{key} fails verification")
    rows = rep["convergence"]["rows"]
    scale = max(1.0, rep["convergence"]["original_norm_sq"])
    if abs(rows[-1]["residual_sq"]) > 1e-12 * scale:
        raise Mismatch(f"residual {rows[-1]['residual_sq']} past every support")


KINDS = {
    "window": (run_window, check_certificate),
    "path": (run_path, check_certificate),
    "branch": (run_branch, check_model),
    "stieltjes": (run_stieltjes, check_stieltjes),
    "unilateral": (run_unilateral, check_model),
    "bilateral": (run_bilateral, check_model),
    "branch-weights": (run_branch_weights, check_model),
    "sequences": (run_sequences, check_certificate),
    "parents": (run_parents, check_certificate),
    "truncation": (run_truncation, check_truncation),
    "extract": (run_extract, check_model),
}


def run_op(T, operation):
    return KINDS[operation["kind"]][0](T, operation["inputs"])


def check_op(operation, report_dict):
    KINDS[operation["kind"]][1](operation["inputs"], operation["expect"], report_dict)


# -- instance builders ---------------------------------------------------------------------


def _perturb_window(rng, x, parent):
    """Break the identity at one non-root vertex: scale its incoming weight
    or one atom mass of its measure.  The witness must name it or its
    parent."""
    v = rng.choice(sorted(parent))
    if rng.random() < 0.5:
        x["weights"][v] *= 1.05
    else:
        # the heaviest atom, so the change stays far above the tolerance
        atoms = list(x["atoms"][v])
        k = max(range(len(atoms)), key=lambda i: atoms[i][1])
        atoms[k] = (atoms[k][0], atoms[k][1] * 1.05)
        x["atoms"][v] = tuple(atoms)
    return {"status": REFUTED, "vertices": sorted({str(v), str(parent[v])})}


def window_op(rng, b, depth, perturbed):
    vertices, parent = gen.bary_window(b, depth)
    weights, measures, eps = gen.bottom_up_system(rng, vertices, parent)
    x = dict(vertices=vertices, parent=parent, weights=weights,
             atoms=_tuples(measures), eps=eps, horizon=16)
    expect = _perturb_window(rng, x, parent) if perturbed else {"status": CERTIFIED}
    return op("window", len(vertices), expect, **x)


def path_op(rng, depth, perturbed):
    base = gen.probability_measure(rng, 2, 3, 0.3, 3.0)
    weights, measures = gen.power_system(base, depth)
    x = dict(depth=depth, weights=weights, atoms=_tuples(measures))
    parent = {k: k - 1 for k in range(1, depth + 1)}
    expect = _perturb_window(rng, x, parent) if perturbed else {"status": CERTIFIED}
    return op("path", depth, expect, **x)


def branch_op(rng, eta, depth, perturbed):
    kappa = rng.randint(0, 2)
    measures, entry, trunk = gen.branch_data(rng, eta, kappa)
    expect = {"status": CERTIFIED}
    if perturbed:
        j = rng.randrange(eta)
        if kappa == 0:
            # lift the entry-weighted inverse sum to 1.05 through branch j
            now = math.fsum(e * e * gen.moment(m, -1) for e, m in zip(entry, measures))
            extra = (1.05 - now) / gen.moment(measures[j], -1)
            entry[j] = math.sqrt(entry[j] ** 2 + extra)
        else:
            entry[j] *= 1.05
        expect = {"status": REFUTED, "vertices": ["0"]}
    x = dict(measures=[tuple(m) for m in measures], kappa=kappa, entry=entry,
             trunk=trunk, depth=depth)
    return op("branch", depth, expect, **x)


def _moments_seq(atoms, count):
    return [gen.moment(atoms, n) for n in range(count)]


def stieltjes_op(rng, order, violated):
    if violated:
        base = gen.probability_measure(rng, 2, 3, 0.15, 10.0)
        return op("stieltjes", order, {"status": REFUTED}, t=gen.low_order_violation(base, order))
    base = gen.probability_measure(rng, 1, 6, 0.15, 10.0)
    return op("stieltjes", order, {"status": "consistent"}, t=_moments_seq(base, order + 1))


def unilateral_op(rng, length=None, violated=False):
    """Weights of the path whose product sequence is the moment sequence of
    an r-atom measure; by default exactly 2r - 1 weights, so the 2r product
    moments determine the measure."""
    base = gen.probability_measure(rng, 2, 3, 0.3, 3.0)
    length = length or 2 * len(base) - 1
    if violated:
        t = gen.low_order_violation(base, length)
        weights = [math.sqrt(t[n] / t[n - 1]) for n in range(1, length + 1)]
        return op("unilateral", length, {"status": REFUTED}, weights=weights, hankel_values=t)
    weights, _ = gen.power_system(base, length)
    return op("unilateral", length, {"status": CERTIFIED},
              weights=[weights[n] for n in range(1, length + 1)])


def bilateral_op(rng, window=None):
    """Weights over [lo, hi] from the two-sided moments of one measure; by
    default the window holds exactly the 2r moments that determine it."""
    base = gen.probability_measure(rng, 2, 3, 0.3, 3.0)
    lo, hi = window or ((-1, 2) if len(base) == 2 else (-2, 3))
    t = {n: gen.moment(base, n) for n in range(lo - 1, hi + 1)}
    weights = {n: math.sqrt(t[n] / t[n - 1]) for n in range(lo, hi + 1)}
    return op("bilateral", hi - lo + 1, {"status": CERTIFIED}, weights=weights)


def branch_weights_op(rng, kappa, count=None):
    """Branching data given by weights only, so the certifier rebuilds the
    branch measures by quadrature; by default 2r - 1 weights per branch."""
    measures, entry, trunk = gen.branch_data(rng, 2, kappa)
    branch = []
    for m in measures:
        n = count or 2 * len(m) - 1
        weights, _ = gen.power_system(m, n)
        branch.append([weights[k] for k in range(1, n + 1)])
    doc = {"eta": 2, "kappa": kappa, "entry_weights": entry, "trunk_weights": trunk,
           "branch_weights": branch}
    depth = min(len(ws) for ws in branch) + 1
    return op("branch-weights", depth, {"status": CONDITIONAL}, doc=doc, depth=depth)


def sequences_op(rng, vertices, parent, atoms):
    """Per-vertex moment sequences of a consistent system, 2r + 1 moments
    for an r-atom measure, so every measure is determined."""
    weights, measures, _ = gen.bottom_up_system(
        rng, vertices, parent, atoms=atoms, lo=0.3, hi=3.0, root_eps=0.0
    )
    sequences = {v: _moments_seq(a, 2 * len(a) + 1) for v, a in measures.items()}
    return op("sequences", len(vertices), {"status": CONDITIONAL},
              vertices=vertices, parent=parent, weights=weights, sequences=sequences)


def parents_op(rng, b, depth):
    vertices, parent = gen.bary_window(b, depth)
    weights, measures, _ = gen.bottom_up_system(rng, vertices, parent)
    kids = gen.children_map(vertices, parent)
    leaves = {v: tuple(measures[v]) for v in vertices if not kids[v]}
    return op("parents", len(vertices), {"status": CERTIFIED},
              vertices=vertices, parent=parent, weights=weights, leaves=leaves)


def truncation_op(rng, b, depth):
    vertices, parent = gen.bary_window(b, depth)
    weights, measures, eps = gen.bottom_up_system(rng, vertices, parent)
    return op("truncation", len(vertices), {"status": "ok"}, vertices=vertices,
              parent=parent, weights=weights, atoms=_tuples(measures), eps=eps,
              windows=[2, 4, 8, 16], power=2)


def extract_op(rng, depth=6):
    """Rooted branching vertex (kappa = 0): the sequences at the branching
    vertex and the branch heads are the moments of the measures the
    construction puts there, which equal the shift's power norms."""
    measures, entry, _ = gen.branch_data(rng, 2, 0)
    weights, sequences = {}, {}
    for i, m in enumerate(measures, start=1):
        weights[(i, 1)] = entry[i - 1]
        pw, _ = gen.power_system(m, depth)
        for j in range(2, depth + 1):
            weights[(i, j)] = pw[j - 1]
        sequences[(i, 1)] = _moments_seq(m, 2 * len(m))
    # moments of the branching vertex: t_0 = 1, t_n = sum |e_i|^2 m_i(n - 1)
    sequences[0] = [1.0] + [
        math.fsum(e * e * gen.moment(m, n - 1) for e, m in zip(entry, measures))
        for n in range(1, depth + 1)
    ]
    return op("extract", depth, {"status": CONDITIONAL}, weights=weights,
              sequences=sequences, entry=entry, depth=depth)


def _perturb_every(ops_spec, cycle, period=8):
    """Mark one instance in ``period`` as perturbed, rotating with the cycle
    so every size is perturbed in some cycles."""
    return [(spec, (i + cycle) % period == 0) for i, spec in enumerate(ops_spec)]


# Per-cycle mixes.  The repeats put the 50th and 90th percentiles of the
# pooled operation times in the middle of a block of equal-sized instances
# (127-vertex windows and 1023/1093-vertex windows on verify-wide, H = 48
# paths and H = 128 paths on verify-deep), not on a boundary between sizes.
# (b, depth, repeats): V = 121, 127, 255, 364, 511, 1023, 1093, 2047
WIDE = [(3, 4, 6), (2, 6, 10), (2, 7, 1), (3, 5, 1), (2, 8, 1), (2, 9, 1), (3, 6, 1), (2, 10, 1)]
# (H, repeats) for paths, then (eta, H) for branching windows
DEEP_PATHS = [(32, 12), (48, 8), (64, 3), (96, 2), (128, 3), (192, 1)]
DEEP_BRANCHES = [(2, 32), (3, 32), (2, 48), (3, 48), (2, 64), (3, 96)]


# small ladders for the benchmark's self-test
SMOKE = {"verify-wide": [(2, 3, 1), (3, 2, 1)], "verify-deep": ([(8, 1), (12, 1)], [(2, 8)])}


def cycle_ops(workload, seed, cycle, smoke=False):
    rng = gen.rng_for(seed, workload, cycle)
    sizes = SMOKE.get(workload) if smoke else None
    if workload == "verify-wide":
        specs = [(b, d) for b, d, n in (sizes or WIDE) for _ in range(n)]
        return [window_op(rng, b, d, p) for (b, d), p in _perturb_every(specs, cycle)]
    if workload == "verify-deep":
        paths, branches = sizes or (DEEP_PATHS, DEEP_BRANCHES)
        specs = [("path", h) for h, n in paths for _ in range(n)]
        specs += [("branch", eta, h) for eta, h in branches]
        out = []
        for spec, p in _perturb_every(specs, cycle):
            if spec[0] == "path":
                out.append(path_op(rng, spec[1], p))
            else:
                out.append(branch_op(rng, spec[1], spec[2], p))
        return out
    if workload == "construct-from-moments":
        path9 = gen.path_window(8)
        out = [stieltjes_op(rng, n, False) for n in (4, 8, 12, 16, 20, 24)]
        out += [stieltjes_op(rng, n, True) for n in (4, 8)]
        out += [unilateral_op(rng) for _ in range(3)] + [unilateral_op(rng, 4, violated=True)]
        out += [bilateral_op(rng) for _ in range(2)]
        out += [branch_weights_op(rng, kappa) for kappa in (0, 1, 2)]
        out += [sequences_op(rng, *path9, (1, 1)) for _ in range(2)]
        out += [truncation_op(rng, 2, 4), parents_op(rng, 2, 5), extract_op(rng)]
        return out
    if workload == "known-defects":
        path9 = gen.path_window(8)
        small_branching = gen.branching_window(2, 1, 3)
        out = [stieltjes_op(rng, n, True) for n in (4, 8, 12, 16, 20, 24)]
        out += [sequences_op(rng, *path9, (2, 3)) for _ in range(2)]
        out += [sequences_op(rng, *small_branching, (1, 2)) for _ in range(2)]
        out += [unilateral_op(rng, n) for n in (8, 12, 16)]
        out += [bilateral_op(rng, (-4, 8)), branch_weights_op(rng, 2, count=8)]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def warmup_op(workload, seed):
    """The untimed operation that ends set-up: the cheapest kind that still
    pays every lazy import the workload needs (mpmath for quadrature)."""
    rng = gen.rng_for(seed, workload, -1)
    if workload == "verify-wide":
        return window_op(rng, 2, 4, False)
    if workload == "verify-deep":
        return path_op(rng, 16, False)
    return unilateral_op(rng)


# -- CLI fixtures ------------------------------------------------------------------------------


def _write(directory: Path, name: str, doc) -> str:
    path = directory / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _measure_doc(atoms):
    return {"atoms": [{"x": x, "w": w} for x, w in atoms]}


def cli_fixtures(seed: int, directory: Path):
    """The acceptance-criterion-10 fixtures plus one small seeded document
    per remaining subcommand, written into ``directory``.  Each entry:
    (name, argv, expected exit code, check of the stdout report or None)."""
    rng = gen.rng_for(seed, "cli-fixtures", 0)
    d = directory
    sqrt_half = math.sqrt(0.5)
    branch = {"eta": 2, "kappa": 0,
              "branch_measures": [_measure_doc([(1.0, 1.0)]), _measure_doc([(2.0, 1.0)])],
              "entry_weights": [sqrt_half, sqrt_half]}
    doubled = dict(branch, entry_weights=[1.0, 1.0])
    fixtures = [
        ("certify-unilateral-ones", ["certify", "--family", "unilateral", "--weights",
                                     _write(d, "ones.json", {"weights": [1.0] * 8})], 0, None),
        ("check-stieltjes-refuted", ["check-stieltjes", "--t", "[1,1,0,0]"], 1,
         lambda r: _hankel_ok([1, 1, 0, 0], r["verdict"]["witness"]["block"],
                              r["verdict"]["witness"]["vector"])),
        ("certify-branch", ["certify", "--family", "t-eta-kappa", "--input",
                            _write(d, "branch.json", branch)], 0, None),
        ("certify-branch-doubled", ["certify", "--family", "t-eta-kappa", "--input",
                                    _write(d, "branch2.json", doubled)], 1,
         lambda r: abs(r["witness"]["value"] - 1.5) <= 1e-12 or _fail("witness value")),
        ("certify-sequences", ["certify", "--family", "general",
                               "--tree", _write(d, "tree3.json", {"family": "unilateral",
                                                                  "params": {"depth": 3}}),
                               "--weights", _write(d, "w3.json", {"weights": [1.0, 1.0, 1.0]}),
                               "--sequences", _write(d, "seqs.json", {"sequences": {
                                   str(k): [1.0] * 8 for k in range(4)}})], 2, None),
        ("broken-json", ["certify", "--family", "unilateral", "--weights",
                         _write(d, "broken.json", '{"weights": [1,')], 3, None),
    ]
    depth = 6
    base = gen.probability_measure(rng, 2, 2, 0.3, 3.0)
    weights, measures = gen.power_system(base, depth)
    tree = _write(d, "path.json", {"family": "unilateral", "params": {"depth": depth}})
    wdoc = _write(d, "path-weights.json", {"weights": [weights[n] for n in range(1, depth + 1)]})
    system = _write(d, "path-system.json", {
        "measures": {str(v): _measure_doc(a) for v, a in measures.items()},
        "eps": {str(v): 0.0 for v in measures}})
    vertices, parent = gen.bary_window(2, 3)
    explicit = _write(d, "window.json", {"vertices": vertices,
                                         "edges": [[p, c] for c, p in sorted(parent.items())]})
    mu = gen.probability_measure(rng, 2, 3, 0.3, 3.0)
    theta = 1.5 * gen.moment(mu, -1)
    first_norm = weights[1] ** 2
    fixtures += [
        ("validate-tree", ["validate-tree", "--tree", explicit], 0, None),
        ("moments", ["moments", "--tree", tree, "--weights", wdoc, "--vertex", "0"], 0,
         lambda r: abs(r["norms_sq"]["0"][1] - first_norm) <= TOL * first_norm
         or _fail("power norm")),
        ("backward-extend", ["backward-extend", "--measure",
                             _write(d, "measure.json", _measure_doc(mu)),
                             "--theta", repr(theta)], 0,
         lambda r: abs(r["moments"][0] - theta) <= TOL * theta or _fail("prepended moment")),
        ("check-consistency", ["check-consistency", "--tree", tree, "--weights", wdoc,
                               "--system", system], 0, None),
        ("truncate", ["truncate", "--tree", tree, "--weights", wdoc, "--system", system,
                      "--window", "2"], 0, None),
        ("converge", ["converge", "--tree", tree, "--weights", wdoc, "--system", system,
                      "--vertex", "0", "--power", "2"], 0,
         lambda r: abs(r["table"]["rows"][-1]["residual_sq"]) <= 1e-12
         * max(1.0, r["table"]["original_norm_sq"]) or _fail("residual")),
        ("certify-system", ["certify", "--family", "general", "--tree", tree, "--weights",
                            wdoc, "--system", system], 0, None),
    ]
    return fixtures


def _fail(what):
    raise Mismatch(f"{what} does not re-check")


def check_cli(fixture, code: int, stdout: str):
    name, _, expected, check = fixture
    if code != expected:
        raise Mismatch(f"{name}: exit {code}, expected {expected}")
    if check is not None:
        check(json.loads(stdout))
