"""Seeded input generators for the benchmark.

Everything here is plain Python over plain data (vertex lists, parent maps,
weight maps, atom lists, moment lists), so the program under test receives
only generated inputs and the expected verdict of every instance follows
from how it was built, never from what the program answers.

The constructions rest on the defining identity of a consistent system,

    mu_u = sum over children c of |w_c|^2 * s^-1 mu_c  +  eps_u * delta_0,

with eps_u = 0 off the root, which every generator below closes exactly
(up to rounding) by choosing the weights after the child measures.
"""

from __future__ import annotations

import math
import random


def rng_for(seed: int, workload: str, cycle: int) -> random.Random:
    """Independent stream per (seed, workload, cycle); string seeding is
    stable across Python versions and platforms."""
    return random.Random(f"{workload}/{seed}/{cycle}")


def moment(atoms, n: int) -> float:
    return math.fsum(w * x**n for x, w in atoms)


def probability_measure(rng, k_lo: int, k_hi: int, lo: float, hi: float):
    """k atoms in [lo, hi] (one per equal-width bin, so positions stay
    apart) with positive masses summing to one."""
    k = rng.randint(k_lo, k_hi)
    width = (hi - lo) / k
    xs = [lo + width * (i + rng.uniform(0.2, 0.8)) for i in range(k)]
    ms = [rng.uniform(0.2, 1.0) for _ in range(k)]
    total = math.fsum(ms)
    return [(x, m / total) for x, m in zip(xs, ms)]


# -- trees ---------------------------------------------------------------------


def bary_window(b: int, depth: int):
    """Full b-ary window of the given depth, vertices numbered breadth first
    (so every parent id is smaller than its children's)."""
    vertices = [0]
    parent = {}
    level = [0]
    for _ in range(depth):
        nxt = []
        for u in level:
            for _ in range(b):
                v = len(vertices)
                vertices.append(v)
                parent[v] = u
                nxt.append(v)
        level = nxt
    return vertices, parent


def path_window(length: int):
    """Vertices 0..length as a single path."""
    return list(range(length + 1)), {k: k - 1 for k in range(1, length + 1)}


def branching_window(eta: int, trunk: int, depth: int):
    """One branching vertex with eta branches of the given depth below a
    trunk of the given length, as a breadth-first numbered window."""
    vertices = list(range(trunk + 1))
    parent = {k: k - 1 for k in range(1, trunk + 1)}
    for _ in range(eta):
        prev = trunk
        for _ in range(depth):
            v = len(vertices)
            vertices.append(v)
            parent[v] = prev
            prev = v
    return vertices, parent


def children_map(vertices, parent):
    kids = {v: [] for v in vertices}
    for c, p in parent.items():
        kids[p].append(c)
    for v in kids:
        kids[v].sort()
    return kids


# -- consistent systems -----------------------------------------------------------


def bottom_up_system(rng, vertices, parent, atoms=(1, 3), lo=0.15, hi=10.0, root_eps=0.3):
    """Consistent system on a window: childless (frontier) vertices get
    random probability measures, every other vertex the closing measure of
    its children.  Returns (weights, atoms per vertex, eps per vertex)."""
    kids = children_map(vertices, parent)
    depth = {}
    for v in sorted(vertices):
        depth[v] = depth[parent[v]] + 1 if v in parent else 0
    measures, weights, eps = {}, {}, {}
    for u in sorted(vertices, key=lambda v: -depth[v]):
        if not kids[u]:
            measures[u] = probability_measure(rng, atoms[0], atoms[1], lo, hi)
            eps[u] = 0.0
            continue
        e = rng.uniform(0.0, root_eps) if u not in parent else 0.0
        raw = {c: rng.uniform(0.5, 2.0) for c in kids[u]}
        total = math.fsum(raw[c] * moment(measures[c], -1) for c in kids[u])
        acc = []
        for c in kids[u]:
            q = raw[c] * (1.0 - e) / total
            weights[c] = math.sqrt(q)
            acc.extend((x, (w * x**-1) * q) for x, w in measures[c])
        if e > 0.0:
            acc.append((0.0, e))
        measures[u] = acc
        eps[u] = e
    return weights, measures, eps


def power_system(base, length: int, first: int = 0):
    """Proof system on a path first..first+length: the measure at step n is
    s^n * base, normalized; weights are the square roots of consecutive
    moment ratios."""
    mom = [moment(base, n) for n in range(length + 1)]
    weights = {first + n: math.sqrt(mom[n] / mom[n - 1]) for n in range(1, length + 1)}
    measures = {
        first + n: [(x, w * x**n / mom[n]) for x, w in base] for n in range(length + 1)
    }
    return weights, measures


def branch_data(rng, eta: int, kappa: int, lo=0.3, hi=3.0, atoms=(2, 3)):
    """Branch measures, entry weights and trunk weights satisfying the
    one-branching-vertex conditions: the entry-weighted inverse sum is one
    (at most one, with a root deficit, when kappa = 0), the interior trunk
    equalities hold, and the terminal trunk level sits strictly below one."""
    measures = [probability_measure(rng, atoms[0], atoms[1], lo, hi) for _ in range(eta)]
    raw = [rng.uniform(0.5, 2.0) for _ in range(eta)]
    total = math.fsum(r * moment(m, -1) for r, m in zip(raw, measures))
    budget = 1.0 - rng.uniform(0.0, 0.3) if kappa == 0 else 1.0
    entry = [math.sqrt(r * budget / total) for r in raw]

    def inverse_sum(j):
        return math.fsum(e * e * moment(m, -j) for e, m in zip(entry, measures))

    trunk = []
    for level in range(1, kappa + 1):
        ratio = inverse_sum(level) / inverse_sum(level + 1)
        if level == kappa:
            ratio *= rng.uniform(0.5, 0.9)
        trunk.append(math.sqrt(ratio))
    return measures, entry, trunk


# -- moment sequences -----------------------------------------------------------------


def low_order_violation(base, order: int):
    """Moments t_0..t_order of a probability measure with t_2 lowered to
    0.9 * t_1^2, so the leading 2x2 Hankel minor is negative and no
    half-line measure represents the sequence."""
    t = [moment(base, n) for n in range(order + 1)]
    t[2] = 0.9 * t[1] ** 2
    return t


def hankel_form(values, block: str, vector) -> float:
    """Quadratic form of a coefficient vector against the named Hankel
    block of a sequence (the test's witness, re-checked independently)."""
    offset = 0 if block == "hankel" else 1
    n = len(vector)
    return math.fsum(
        vector[i] * vector[j] * values[i + j + offset] for i in range(n) for j in range(n)
    )
