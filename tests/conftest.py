"""Shared random-instance builders for the test suite.

Random trees are finite windows of leafless trees (every childless vertex is
a frontier vertex), so consistency identities hold at every interior vertex
and verdicts are honestly "up to horizon".  Consistent systems are grown
bottom-up: frontier vertices get small random atomic probability measures,
and each interior vertex gets the unique closing measure via
parent_from_children.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from treeshift import (
    AtomicMeasure,
    MeasureSystem,
    WeightedShift,
    check_stieltjes,
    explicit_tree,
    make_family,
    parent_from_children,
    truncated_tree,
    vertex_sort_key,
)
from treeshift.shift import _fsum_complex


# Branch data whose branch weights come from 2- and 3-atom measures, eight
# per branch: every branch's power norms pass the Hankel test, but the
# quadrature that rebuilds branch 2's measure from them has a negative node.
NEGATIVE_NODE_BRANCH = {
    "eta": 2,
    "kappa": 2,
    "entry_weights": [0.7507685904119716, 0.860985255914542],
    "trunk_weights": [1.0484276572093254, 0.8872218837833458],
    "branch_weights": [
        [1.2149654669377687, 1.40011332074094, 1.5374487599335893, 1.6042670802022432,
         1.6299919666610576, 1.6389665654521408, 1.6419874466909388, 1.6429919277503289],
        [1.331869464247776, 1.4409718367345519, 1.5146651466683279, 1.555483697966726,
         1.5760185534385973, 1.5860887112963895, 1.5910916011126635, 1.593652426225504],
    ],
}


def random_truncated_tree(rng, max_vertices=40, max_depth=5):
    """Random window of a leafless tree: branching factor 1..3, ragged cuts."""
    vertices = [0]
    parent = {}
    frontier_queue = [(0, 0)]
    next_id = 1
    while frontier_queue and len(vertices) < max_vertices:
        u, depth = frontier_queue.pop(0)
        if depth >= max_depth:
            continue
        n_children = int(rng.integers(1, 4)) if depth == 0 else int(rng.integers(0, 4))
        for _ in range(n_children):
            if len(vertices) >= max_vertices:
                break
            v = next_id
            next_id += 1
            vertices.append(v)
            parent[v] = u
            frontier_queue.append((v, depth + 1))
    return truncated_tree(vertices, parent)


def random_chain_tree(rng, explicit=False, max_vertices=60):
    """Random tree, branching factor 0..3 below the root, in which about a
    third of the edges are chains of 9 to 14 vertices, longer than the
    truncation sweep's cap of 8.  ``explicit`` makes every childless vertex
    a true leaf (no frontier); otherwise it is a frontier vertex."""
    vertices, parent, queue = [0], {}, [(0, 0)]
    while queue and len(vertices) < max_vertices:
        u, depth = queue.pop(0)
        if depth >= 5:
            continue
        for _ in range(int(rng.integers(1, 4)) if depth == 0 else int(rng.integers(0, 4))):
            chain = int(rng.integers(9, 15)) if rng.random() < 0.3 else 1
            for _ in range(chain):
                parent[len(vertices)] = u
                u = len(vertices)
                vertices.append(u)
            queue.append((u, depth + 1))
    return (explicit_tree if explicit else truncated_tree)(vertices, parent)


def every_vertex_failures(shift, horizon, tol=1e-9):
    """The vertices whose power norms, up to the clamped horizon, fail the
    Hankel test: the Lambert test run at every vertex with three norms,
    each row read from one ``power_norms`` table."""
    norms = shift.power_norms(horizon)
    failures = []
    for u in shift.tree.sorted_vertices:
        if len(norms[u]) >= 3 and not check_stieltjes(norms[u], tol=tol).consistent:
            failures.append(u)
    return failures


def family_windows():
    """One or more windows of each tree family: an explicit tree with true
    leaves (no frontier), the half-line, two-sided windows and branching
    trees with root, finite and infinite trunks."""
    return [
        explicit_tree(range(8), {1: 0, 2: 0, 3: 1, 4: 1, 5: 3, 6: 2, 7: 6}),
        make_family("unilateral", 6),
        make_family("bilateral-window", 5),
        make_family("bilateral-window", 2, back=6),
        make_family("t-eta-kappa", 4, eta=2, kappa=0),
        make_family("t-eta-kappa", 3, eta=3, kappa=2),
        make_family("t-eta-kappa", 4, eta=2, kappa="inf"),
    ]


def random_probability_measure(rng, max_atoms=3, lo=0.15, hi=10.0):
    k = int(rng.integers(1, max_atoms + 1))
    positions = np.sort(rng.uniform(lo, hi, size=k))
    masses = rng.dirichlet(np.ones(k))
    return AtomicMeasure(tuple(zip(positions.tolist(), masses.tolist())))


def random_consistent_system(
    rng,
    tree=None,
    max_vertices=40,
    max_depth=5,
    max_atoms=3,
    support_hi=10.0,
    zero_weight_prob=0.05,
):
    """Bottom-up construction of a weight system and a consistent measure
    system on a random (or given) truncated tree."""
    if tree is None:
        tree = random_truncated_tree(rng, max_vertices, max_depth)
    depth = tree._depth_from_roots()
    order = sorted(tree.sorted_vertices, key=lambda v: -depth[v])
    root = tree.root
    measures = {}
    weights = {}
    for u in order:
        kids = tree.children(u)
        if not kids:
            measures[u] = random_probability_measure(rng, max_atoms, hi=support_hi)
            continue
        # zero weights are allowed, but only off the root may the deficit
        # vanish: interior vertices must close the identity with zero
        # point mass (a nonzero incoming weight forbids mass at zero)
        nonzero = [v for v in kids if rng.random() >= zero_weight_prob]
        if not nonzero:
            nonzero = [kids[int(rng.integers(len(kids)))]]
        budget = rng.uniform(0.55, 1.0) if u == root else 1.0
        shares = rng.dirichlet(np.ones(len(nonzero))) * budget
        acc = AtomicMeasure.zero()
        for v in kids:
            weights[v] = 0.0
        for v, share in zip(nonzero, shares):
            inv = measures[v].moment(-1)
            c = share / inv
            weights[v] = math.sqrt(c)
            acc = acc.plus(measures[v].times_power(-1).scaled(c))
        eps = max(0.0, 1.0 - acc.total_mass)
        if eps > 1e-12:
            acc = acc.plus(AtomicMeasure.delta(0.0, eps))
        measures[u] = acc
    shift = WeightedShift(tree, weights)
    mu = {}
    eps = {}
    for u in order:
        kids = tree.children(u)
        if not kids:
            mu[u] = measures[u]
            eps[u] = measures[u].mass_at_zero
            continue
        mu[u], eps[u] = parent_from_children(
            shift, u, {v: mu[v] for v in kids}
        )
    return shift, MeasureSystem(mu=mu, eps=eps)


def stratified_atoms(rng, k, lo=0.1, hi=10.0, margin=0.4, mass_lo=0.3):
    """Well-separated random atoms: one per equal-width bin of [lo, hi].

    Separation keeps the moment map's conditioning inside what float64
    moments can support; clustered atoms are *inherently* unrecoverable to
    high accuracy from rounded moments, no matter the algorithm.
    """
    edges = np.linspace(lo, hi, k + 1)
    positions = [
        rng.uniform(a + margin * (b - a), b - margin * (b - a))
        for a, b in zip(edges[:-1], edges[1:])
    ]
    masses = rng.uniform(mass_lo, 1.0, size=k)
    return AtomicMeasure(tuple(zip(positions, masses.tolist())))


def random_complex_weights(rng, tree, lo=0.3, hi=1.5):
    out = {}
    for v in tree.non_root_vertices:
        r = rng.uniform(lo, hi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        out[v] = complex(r * math.cos(phi), r * math.sin(phi))
    return WeightedShift(tree, out)


def exact_half_line_sequences(family, depth, count):
    """Weights of a classical half-line window of ``depth`` edges and the
    exact power norms t_v(0..count-1) of each vertex v: the Bergman shift,
    weights sqrt(k / (k + 1)) and t_v(n) = (v + 1) / (v + n + 1), or the
    weights sqrt(k), with t_v(n) = (v + n)! / v!."""
    vertices = range(depth + 1)
    if family == "bergman":
        weights = [math.sqrt(k / (k + 1)) for k in range(1, depth + 1)]
        return weights, {v: tuple((v + 1) / (v + n + 1) for n in range(count)) for v in vertices}
    weights = [math.sqrt(k) for k in range(1, depth + 1)]
    f = math.factorial
    return weights, {v: tuple(f(v + n) / f(v) for n in range(count)) for v in vertices}


def inner_product_brute(shift, u, m: int, v, n: int) -> complex:
    """Oracle for ``inner_product_powers``: the inner product of the m-th
    power at u with the n-th power at v, from both coefficient maps."""
    cu = shift.power_coefficients(u, m)
    cv = shift.power_coefficients(v, n)
    common = sorted(set(cu) & set(cv), key=vertex_sort_key)
    return _fsum_complex(cu[w] * cv[w].conjugate() for w in common)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
