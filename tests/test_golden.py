"""Pinned report digests.

Each case builds its inputs from fixed formulas and the standard library's
Mersenne Twister, runs a certifier, and pins the sha256 of the report's
``canonical_json`` (or of the CLI's stdout).  The whole runtime is pure
Python, the Hankel test and quadrature included, so the digests do not
depend on a linear-algebra build, and a refactor that is meant to keep
reports byte-identical must keep every one of them.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import json
import math
import random

import pytest

from treeshift import (
    AtomicMeasure,
    BranchData,
    MeasureSystem,
    WeightedShift,
    certify_bilateral,
    certify_subnormal,
    certify_t_eta_kappa,
    convergence_report,
    make_family,
    root_measure_equivalence_check,
    superpose,
    truncate,
    truncated_tree,
    verify_truncated_consistency,
)
from treeshift.cli import main
from treeshift.models import branching_tree_system, construct_root_measure
from treeshift.report import canonical_json
from treeshift.tree import vertex_to_json


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _measure(rng, k):
    positions = sorted(rng.uniform(0.15, 10.0) for _ in range(k))
    masses = [rng.uniform(0.2, 1.0) for _ in range(k)]
    total = math.fsum(masses)
    return AtomicMeasure(tuple((x, m / total) for x, m in zip(positions, masses)))


def bary_pair(b=2, depth=4, seed=7):
    """Full b-ary window with complex weights and a system closed bottom-up:
    random measures on the frontier, each parent the superposition of its
    children, a deficit of 0.3 at the root only."""
    rng = random.Random(seed)
    count = (b ** (depth + 1) - 1) // (b - 1)
    parent = {v: (v - 1) // b for v in range(1, count)}
    tree = truncated_tree(range(count), parent)
    mu, eps, weights = {}, {}, {}
    for u in reversed(range(count)):
        kids = tree.children(u)
        if not kids:
            mu[u] = _measure(rng, rng.randint(1, 3))
            eps[u] = 0.0
            continue
        budget = 0.7 if u == 0 else 1.0
        shares = [rng.uniform(0.5, 1.5) for _ in kids]
        total = math.fsum(shares)
        terms = []
        for v, share in zip(kids, shares):
            c = budget * share / total / mu[v].moment(-1)
            weights[v] = math.sqrt(c) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            terms.append((c, mu[v]))
        eps[u] = 1.0 - budget if u == 0 else 0.0
        mu[u] = superpose(terms, -1, eps[u])
    return WeightedShift(tree, weights), MeasureSystem(mu=mu, eps=eps)


def power_path(length=128, seed=11):
    """The path 0..length with the proof system of a three-atom measure: the
    measure at n is s^n times the base, normalized, and the weight into n is
    the square root of the n-th moment ratio turned by a random phase."""
    rng = random.Random(seed)
    base = _measure(rng, 3)
    mom = [base.moment(n) for n in range(length + 1)]
    weights = {
        n: math.sqrt(mom[n] / mom[n - 1]) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        for n in range(1, length + 1)
    }
    mu = {
        n: AtomicMeasure(tuple((x, w * x**n / mom[n]) for x, w in base.atoms))
        for n in range(length + 1)
    }
    shift = WeightedShift(make_family("unilateral", length), weights)
    return shift, MeasureSystem(mu=mu, eps={n: 0.0 for n in mu})


def bilateral_weights(lo=-3, hi=4, seed=13, moved=None):
    """Two-sided moment ratios of a three-atom measure over [lo, hi], each
    weight turned by a random phase; ``moved`` scales the weight into that
    vertex by 1.01."""
    rng = random.Random(seed)
    base = _measure(rng, 3)
    weights = {
        n: math.sqrt(base.moment(n) / base.moment(n - 1))
        * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        for n in range(lo, hi + 1)
    }
    if moved is not None:
        weights[moved] *= 1.01
    return weights


_MEASURES = (
    AtomicMeasure(((0.5, 0.4), (2.0, 0.6))),
    AtomicMeasure(((1.0, 0.7), (3.0, 0.3))),
    AtomicMeasure(((0.8, 0.25), (1.5, 0.5), (4.0, 0.25))),
)


def branch_data(eta, kappa, depth, entry_budget=1.0, terminal=0.8):
    """Branch data solved so that every trunk equality holds and the
    terminal level (finite trunk only) sits at ``terminal``; complex entry
    and trunk weights, branch weights read off the measures' moment ratios."""
    measures = _MEASURES[:eta]
    shares = [(i + 1) / math.fsum(range(1, eta + 1)) for i in range(eta)]
    entry = tuple(
        math.sqrt(entry_budget * s / m.moment(-1)) * cmath.exp(0.3j * (i + 1))
        for i, (s, m) in enumerate(zip(shares, measures))
    )
    branch = tuple(
        tuple(math.sqrt(m.moment(n) / m.moment(n - 1)) for n in range(1, depth))
        for m in measures
    )
    levels = depth if kappa == "inf" else kappa
    trunk = []
    prod = 1.0
    for level in range(1, levels + 1):
        inv_sum = math.fsum(
            abs(e) ** 2 * m.moment(-(level + 1)) for e, m in zip(entry, measures)
        )
        target = terminal if level == kappa else 1.0
        w_sq = target / (inv_sum * prod)
        trunk.append(math.sqrt(w_sq) * cmath.exp(-0.7j * level))
        prod *= w_sq
    return BranchData(
        eta=eta,
        kappa=kappa,
        branch_measures=measures,
        entry_weights=entry,
        branch_weights=branch,
        trunk_weights=tuple(trunk),
    )


def truncation_pair(seed=23):
    """A binary window of depth 2, closed bottom-up as in :func:`bary_pair`.
    Leaves 3 to 6 hold an atom exactly at the window heights 2, 1, 3 and 4
    and two random atoms in [1.5, 12]; leaf 3 also holds 1e-320 at 0.5, so
    the window [0, 1] carries a subnormal mass there and a normal one at its
    parent."""
    rng = random.Random(seed)
    count = 7
    tree = truncated_tree(range(count), {v: (v - 1) // 2 for v in range(1, count)})
    mu, eps, weights = {}, {}, {}
    for u in reversed(range(count)):
        kids = tree.children(u)
        if not kids:
            atoms = [(float((2, 1, 3, 4)[u - 3]), rng.uniform(0.2, 1.0))]
            atoms += [(rng.uniform(1.5, 12.0), rng.uniform(0.2, 1.0)) for _ in range(2)]
            if u == 3:
                atoms.append((0.5, 1e-320))
            total = math.fsum(w for _, w in atoms)
            mu[u] = AtomicMeasure(tuple((x, w / total) for x, w in atoms))
            eps[u] = 0.0
            continue
        budget = 0.7 if u == 0 else 1.0
        shares = [rng.uniform(0.5, 1.5) for _ in kids]
        total = math.fsum(shares)
        terms = []
        for v, share in zip(kids, shares):
            c = budget * share / total / mu[v].moment(-1)
            weights[v] = math.sqrt(c) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            terms.append((c, mu[v]))
        eps[u] = 1.0 - budget if u == 0 else 0.0
        mu[u] = superpose(terms, -1, eps[u])
    return WeightedShift(tree, weights), MeasureSystem(mu=mu, eps=eps)


TRUNCATION_WINDOWS = (1, 2, 3, 4, 8, 16)


def truncation_family():
    """Each window's entry and verification, then the convergence table of
    the root at power 2 over the same windows."""
    shift, system = truncation_pair()
    parts = {}
    for i in TRUNCATION_WINDOWS:
        entry = truncate(system, shift, i)
        parts[f"window-{i}"] = {
            "entry": entry, "verification": verify_truncated_consistency(entry),
        }
    parts["convergence"] = convergence_report(system, shift, 0, 2, TRUNCATION_WINDOWS)
    return parts


def _with_root_measure(data):
    nu, _ = construct_root_measure(data)
    return data.replace(nu=nu)


def _perturbed(shift, vertex, factor):
    weights = dict(shift.weights)
    weights[vertex] *= factor
    return WeightedShift(shift.tree, weights)


@functools.cache
def _library_reports():
    shift, system = bary_pair()
    return {
        "bary-clean": certify_subnormal(shift, system, horizon=6),
        "bary-perturbed": certify_subnormal(_perturbed(shift, 5, 1.001), system, horizon=6),
        "teta-kappa0": certify_t_eta_kappa(branch_data(2, 0, 5, entry_budget=0.8), depth=5),
        "teta-kappa0-refuted": certify_t_eta_kappa(
            branch_data(2, 0, 5, entry_budget=1.2), depth=5
        ),
        "teta-kappa2": certify_t_eta_kappa(branch_data(3, 2, 4), depth=4),
        "teta-kappa2-refuted": certify_t_eta_kappa(branch_data(3, 2, 4, terminal=1.3), depth=4),
        "teta-kappa-inf": certify_t_eta_kappa(branch_data(2, "inf", 4), depth=4),
        "teta-kappa2-nu": certify_t_eta_kappa(
            _with_root_measure(branch_data(2, 2, 5)), depth=5
        ),
        "equivalence-kappa3": root_measure_equivalence_check(branch_data(2, 3, 5)),
        "power-path-128": certify_subnormal(*power_path(), horizon=128),
        "teta-eta3-depth48": certify_t_eta_kappa(branch_data(3, 2, 48), depth=48),
        "bilateral": certify_bilateral(bilateral_weights()),
        "bilateral-refuted": certify_bilateral(bilateral_weights(moved=1)),
        "bilateral-zero-refuted": certify_bilateral({**bilateral_weights(), 1: 0.0}),
        "teta-weights-kappa1": certify_t_eta_kappa(
            branch_data(2, 1, 5).replace(branch_measures=None), depth=5
        ),
        "truncation-family": truncation_family(),
    }


GOLDEN = {
    "bary-clean": "6de12a093c3a7153c9c908dde178b7ddd1b632f5b24cec5b7e15228048c50c38",
    "bary-perturbed": "68408ebdba8ffd5fe9ffb0bbfa6d921f2f9e565a2603fccc9342f2af9b827b20",
    "teta-kappa0": "531ee8e3fda1923dfee7fa2eb7bedba5b88f24138982d109fbcaa99336b09d77",
    "teta-kappa0-refuted": "f2bc9df02b05ccab2e30d30f32c9b493a9bb49a9e80592453fd425d92d05d1c7",
    "teta-kappa2": "ef6292e0ad7c36d255af832d828c6d63aeec898474fb1acb12e27e8da3c8a5ff",
    "teta-kappa2-refuted": "f8bce6eca5a7c512d5414446973f86b50f425c58c8022727f25f04324004626a",
    "teta-kappa-inf": "81ed31dfdf47d45cd435df9e93bf99ef6328c65aa06189f9ac1ea51d67a9d483",
    "teta-kappa2-nu": "531b68c915a4266c99af1ca03d6a66dee04098389f404ef778f8f3eaacebd57e",
    "equivalence-kappa3": "4d83d0881dda73f324d7ee30986f9ca8a332a495de8e2b10dff97c5428f517f9",
    "power-path-128": "c9338294ebcf98459b9ea018774d7eb976cef1066c80e4672e0575a71c03ae34",
    "teta-eta3-depth48": "55fa7e0920703887faaab8da4891f666eb753884880e28fb75143144cb04a556",
    "bilateral": "058fd67650054f8ef75c4b4a96e16797940ab61dbfb29f3d69dfa37a45a099ef",
    "bilateral-refuted": "dcd40f029a073ade884516432164bd65bda0adfe78fb9f0de884b3e63e7c9390",
    "bilateral-zero-refuted": "91c85b306e4c513d583d67fb969729925d4a2039088d3e3b55eb2a5fddad5977",
    "teta-weights-kappa1": "c4298863bb04c7e2b769f82938e9e0d182386a14029492ed1511314063ab0ff3",
    "cli-check-consistency": "df081d50a4b7a002ab4ed3a5d1543cb3b3e6dd558925a015090bb1145862a2f4",
    "cli-check-consistency-text": "a0660e0839fdb8d90c2f0750e1b266e45f1f69e7ad462fc567585e577feaaa9f",
    "cli-check-consistency-depth-2": "d81a566dcd5ec3967060a871ce265c49af4cd0c4c1d8724bd2b9612518123ff8",
    "cli-certify-sequences": "27e3b16986512998736e3a89486e9468fd8146e839fd8d6ec029ef1391772ae7",
    "cli-truncate-path": "6b047b6c4599cf88a30374186a46a0b1d3f072649f7992b875c998c5742f0276",
    "truncation-family": "20a99e298e125bd7687d0d6a626213a8529c574c7f751c7f743dfb34976c1f38",
    "cli-converge": "4b332ac6d5a2182207795084caf1508792572132071f0990592e34ba689fc7fd",
    "cli-converge-text": "7da18608284bf98710acb3646259ea4df03a5f0f9881bec9c7bfd9afe50d4bea",
}


@pytest.mark.parametrize("name", sorted(name for name in GOLDEN if not name.startswith("cli-")))
def test_library_report_digests(name):
    assert _digest(canonical_json(_library_reports()[name])) == GOLDEN[name]


def _cli_digest(tmp_path, capsys, args, docs, exit_code=0):
    """Write each document to a file passed as ``--<name>``, run the CLI,
    check its exit code and return the digest of its stdout."""
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        args = args + [f"--{name}", str(path)]
    assert main(args) == exit_code
    return _digest(capsys.readouterr().out)


def _branching_documents():
    data = branch_data(2, 2, 5)
    system, shift = branching_tree_system(data, 5)
    return {
        "tree": {"family": "t-eta-kappa", "params": {"eta": 2, "kappa": 2, "depth": 5}},
        "weights": {
            "weights": [
                {"v": vertex_to_json(v), "re": w.real, "im": w.imag}
                for v, w in shift.weights.items()
            ]
        },
        "system": system.as_dict(),
    }


def test_check_consistency_report_digest(tmp_path, capsys):
    args = ["check-consistency", "--depth", "1"]
    digest = _cli_digest(tmp_path, capsys, args, _branching_documents())
    assert digest == GOLDEN["cli-check-consistency"]


def test_check_consistency_text_report_digest(tmp_path, capsys):
    """The depth-1 report under ``--format text``: the only pinned text output."""
    args = ["check-consistency", "--depth", "1", "--format", "text"]
    digest = _cli_digest(tmp_path, capsys, args, _branching_documents())
    assert digest == GOLDEN["cli-check-consistency-text"]


def test_check_consistency_depth_two_report_digest(tmp_path, capsys):
    args = ["check-consistency", "--depth", "2"]
    digest = _cli_digest(tmp_path, capsys, args, _branching_documents())
    assert digest == GOLDEN["cli-check-consistency-depth-2"]


def test_certify_sequences_report_digest(tmp_path, capsys):
    """The half line of depth 3 with unit weights and the constant sequence
    1 at every vertex: the conditional report built from sequences."""
    docs = {
        "tree": {"family": "unilateral", "params": {"depth": 3}},
        "weights": {"weights": [1.0, 1.0, 1.0]},
        "sequences": {"sequences": {str(k): [1.0] * 8 for k in range(4)}},
    }
    digest = _cli_digest(tmp_path, capsys, ["certify", "--family", "general"], docs, 2)
    assert digest == GOLDEN["cli-certify-sequences"]


def test_truncate_report_digest(tmp_path, capsys):
    """The window of height 6 over the H = 12 power path: two of its three
    atoms lie inside, the third (at 9.25) is cut away."""
    shift, system = power_path(length=12)
    docs = {
        "tree": {"family": "unilateral", "params": {"depth": 12}},
        "weights": {
            "weights": [{"v": v, "re": w.real, "im": w.imag} for v, w in shift.weights.items()]
        },
        "system": system.as_dict(),
    }
    digest = _cli_digest(tmp_path, capsys, ["truncate", "--window", "6"], docs)
    assert digest == GOLDEN["cli-truncate-path"]


def _truncation_documents():
    shift, system = truncation_pair()
    tree = shift.tree
    return {
        "tree": {
            "vertices": list(tree.sorted_vertices),
            "edges": [[tree.parent[v], v] for v in tree.non_root_vertices],
        },
        "weights": {
            "weights": [{"v": v, "re": w.real, "im": w.imag} for v, w in shift.weights.items()]
        },
        "system": system.as_dict(),
    }


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_converge_report_digest(tmp_path, capsys, fmt):
    """The root's power-2 table of :func:`truncation_pair` over the windows
    1, 2, 3, 4, 8 and 16."""
    windows = ",".join(map(str, TRUNCATION_WINDOWS))
    args = ["converge", "--vertex", "0", "--power", "2", "--i-list", windows, "--format", fmt]
    digest = _cli_digest(tmp_path, capsys, args, _truncation_documents())
    assert digest == GOLDEN["cli-converge" if fmt == "json" else "cli-converge-text"]


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_golden.py NAME prints the canonical JSON
    # of the named library case, so a moved digest can be reviewed line by line
    import sys

    names = sorted(_library_reports())
    if len(sys.argv) != 2 or sys.argv[1] not in names:
        sys.exit(f"usage: {sys.argv[0]} NAME, one of: {', '.join(names)}")
    print(canonical_json(_library_reports()[sys.argv[1]]))
