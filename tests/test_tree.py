import math

import pytest

from treeshift import (
    DirectedTree,
    HorizonError,
    UnknownVertexError,
    explicit_tree,
    make_family,
    tree_from_json,
    truncated_tree,
    validate,
)
from treeshift.tree import vertex_from_key, vertex_to_key

from conftest import family_windows, random_truncated_tree


def test_validate_path_tree():
    t = explicit_tree([0, 1, 2], {1: 0, 2: 1})
    assert validate(t).ok
    assert t.root == 0


def test_validate_two_cycle():
    t = DirectedTree(vertices=frozenset({0, 1}), parent={0: 1, 1: 0})
    report = validate(t)
    assert not report.ok
    assert any("cycle" in v for v in report.violations)


def test_validate_two_roots():
    t = DirectedTree(vertices=frozenset({0, 1}), parent={})
    report = validate(t)
    assert any("more than one root" in v for v in report.violations)


def test_children_n_branching_vertex():
    t = make_family("t-eta-kappa", 4, eta=2, kappa=1)
    assert t.children_n(0, 1) == {(1, 1), (2, 1)}
    assert t.children_n(0, 0) == {0}
    assert t.root == -1


def test_children_n_unilateral():
    t = make_family("unilateral", 5)
    assert t.children_n(0, 3) == {3}
    with pytest.raises(HorizonError):
        t.children_n(0, 6)
    with pytest.raises(HorizonError):
        t.children_n(3, 3)
    with pytest.raises(UnknownVertexError):
        t.children_n(99, 1)


def test_clamp_order_cuts_to_the_window_and_refuses_an_unbounded_order():
    window = make_family("unilateral", 3)
    assert [window.clamp_order(0, n) for n in (1, 3, 5, math.inf)] == [1, 3, 3, 3]
    path = explicit_tree([0, 1, 2], {1: 0, 2: 1})
    assert path.clamp_order(2, 7) == 7
    with pytest.raises(ValueError, match="at 2"):
        path.clamp_order(2, math.inf)


def test_descendants():
    t = make_family("t-eta-kappa", 3, eta=2, kappa=1)
    branch = t.descendants((1, 1))
    assert branch == {(1, 1), (1, 2), (1, 3)}
    leafy = explicit_tree([0, 1], {1: 0})
    assert leafy.descendants(1) == {1}
    assert t.descendants(t.root) == t.vertices


def test_subtree():
    t = make_family("t-eta-kappa", 3, eta=2, kappa=1)
    s = t.subtree((1, 1))
    assert validate(s).ok
    assert s.root == (1, 1)
    assert s.leafless  # branch of a leafless family
    full = t.subtree(t.root)
    assert full.vertices == t.vertices
    b = make_family("bilateral-window", 4)
    assert b.subtree(0).vertices == frozenset(range(0, 5))


def test_make_family_counts():
    t = make_family("t-eta-kappa", 3, eta=2, kappa=0)
    assert len(t) == 7
    assert t.root == 0
    u = make_family("unilateral", 5)
    assert u.sorted_vertices == tuple(range(6))
    t2 = make_family("t-eta-kappa", 1, eta=3, kappa=2)
    assert t2.root == -2
    with pytest.raises(ValueError):
        make_family("t-eta-kappa", 3, eta=1, kappa=0)
    inf = make_family("t-eta-kappa", 3, eta=2, kappa="inf")
    assert inf.rootless_family
    assert inf.root == -3  # window root of the rootless family


def brute_available_depth(tree, u):
    """Distance from u down to its nearest frontier descendant (inf if none),
    by walking each frontier descendant's parent chain back up to u."""
    best = math.inf
    for w in tree.descendants(u) & tree.frontier:
        steps = 0
        while w != u:
            w = tree.parent[w]
            steps += 1
        best = min(best, steps)
    return best


def test_available_depth_matches_brute_force(rng):
    trees = family_windows() + [random_truncated_tree(rng) for _ in range(20)]
    for t in trees:
        for u in t.sorted_vertices:
            assert t.available_depth(u) == brute_available_depth(t, u)


def test_generation_composition_identity(rng):
    # Chi^m(Chi^n(u)) = Chi^(m+n)(u) wherever the window depth allows
    for _ in range(10):
        t = random_truncated_tree(rng)
        for u in t.sorted_vertices:
            avail = t.available_depth(u)
            for n in range(int(min(2, avail)) + 1):
                for m in range(int(min(2, avail - n)) + 1):
                    level_n = t.children_n(u, n)
                    combined = set()
                    for v in level_n:
                        combined |= t.children_n(v, m)
                    assert combined == t.children_n(u, m + n)


def test_generation_recursion_disjointness(rng):
    # next generation is the disjoint union over children, both groupings
    for _ in range(10):
        t = random_truncated_tree(rng)
        for u in t.sorted_vertices:
            avail = t.available_depth(u)
            for n in range(int(min(3, avail - 1)) + 1):
                if n + 1 > avail:
                    continue
                via_children = []
                for v in t.children(u):
                    via_children.extend(t.children_n(v, n))
                assert len(via_children) == len(set(via_children))
                assert set(via_children) == t.children_n(u, n + 1)
                via_level = []
                for v in t.children_n(u, n):
                    via_level.extend(t.children(v))
                assert len(via_level) == len(set(via_level))
                assert set(via_level) == t.children_n(u, n + 1)


def test_sibling_descendants_disjoint(rng):
    for _ in range(10):
        t = random_truncated_tree(rng)
        for u in t.sorted_vertices:
            kids = t.children(u)
            for i, a in enumerate(kids):
                for b in kids[i + 1 :]:
                    assert not (t.descendants(a) & t.descendants(b))


def test_root_generations_partition():
    t = make_family("t-eta-kappa", 4, eta=3, kappa=2)
    seen = set()
    total = 0
    n = 0
    while True:
        try:
            level = t.children_n(t.root, n)
        except HorizonError:
            break
        seen |= level
        total += len(level)
        n += 1
    assert total == len(seen)  # disjoint
    assert seen == t.vertices  # full cover of the window


def test_subtree_validates_everywhere(rng):
    for _ in range(5):
        t = random_truncated_tree(rng)
        for u in t.sorted_vertices:
            s = t.subtree(u)
            assert validate(s).ok
            assert s.root == u


def test_json_roundtrip_family():
    t = make_family("t-eta-kappa", 3, eta=2, kappa=1)
    doc = t.as_dict()
    t2 = tree_from_json(doc)
    assert t2.vertices == t.vertices
    assert t2.parent == t.parent
    assert t2.family == t.family


def test_json_explicit_and_duplicate_edges():
    doc = {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]]}
    t = tree_from_json(doc)
    assert validate(t).ok
    with pytest.raises(ValueError, match="duplicate edge"):
        tree_from_json({"edges": [[0, 1], [0, 1]]})
    with pytest.raises(ValueError, match="more than one parent"):
        tree_from_json({"edges": [[0, 2], [1, 2]]})


def test_vertex_key_roundtrip():
    for v in (0, -3, 17, (1, 1), (4, 12)):
        assert vertex_from_key(vertex_to_key(v)) == v
