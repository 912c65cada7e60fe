"""Finite directed trees, including windowed instances of the canonical
infinite families (half-line, two-sided line, one branching vertex).

An infinite family is represented by a finite truncation together with a
``frontier``: the set of vertices whose children exist in the infinite tree
but were cut off by the window.  Level queries that would have to look past
the frontier raise :class:`HorizonError`, so every answer derived from a
truncated tree is faithful to the infinite family it stands for.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .report import Record, set_field

VertexId = int | tuple

EXPLICIT = "explicit"
UNILATERAL = "unilateral"
BILATERAL_WINDOW = "bilateral-window"
T_ETA_KAPPA = "t-eta-kappa"

FAMILIES = (EXPLICIT, UNILATERAL, BILATERAL_WINDOW, T_ETA_KAPPA)


class UnknownVertexError(KeyError):
    """A vertex id that does not belong to the tree."""

    def __str__(self):
        return f"vertex {self.args[0]!r} is not in the tree"


class HorizonError(ValueError):
    """Query requires levels of a generated family beyond the window depth."""


def as_vertex(obj):
    """Normalize a vertex id: plain int, or a (branch, depth) pair; an
    integer-valued float counts as its int."""
    if isinstance(obj, bool):
        raise ValueError(f"invalid vertex id {obj!r}")
    vertex = int_if_integral(obj)
    if isinstance(vertex, int):
        return vertex
    if isinstance(vertex, (tuple, list)) and len(vertex) == 2:
        i, j = map(int_if_integral, vertex)
        if isinstance(i, int) and isinstance(j, int):
            return (i, j)
    raise ValueError(f"invalid vertex id {obj!r}")


def int_if_integral(value):
    """An integer-valued float as an int, any other value unchanged: JSON
    Schema's ``integer`` type admits 3.0, and the families count with it."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def vertex_sort_key(v):
    """Total order used for all deterministic output: integers first, then pairs."""
    if isinstance(v, int):
        return (0, v, 0)
    return (1, v[0], v[1])


def vertex_to_key(v) -> str:
    """Canonical string form, used for JSON object keys."""
    if isinstance(v, int):
        return str(v)
    return f"{v[0]},{v[1]}"


def vertex_from_key(key: str):
    if "," in key:
        i, j = key.split(",")
        return (int(i), int(j))
    return int(key)


def vertex_to_json(v):
    return v if isinstance(v, int) else [v[0], v[1]]


class ValidationReport(Record):
    """Catalog of structural violations; an empty catalog means a valid tree."""

    __slots__ = ("violations",)

    def __init__(self, violations: tuple[str, ...]):
        set_field(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self):
        return {"ok": self.ok, "violations": list(self.violations)}


class DirectedTree(Record, eq=False):
    """A finite directed tree given by a vertex set and a parent map.

    ``family`` records how the instance was generated; ``frontier`` marks
    vertices whose children were truncated away; ``leafless`` and
    ``rootless_family`` describe the underlying infinite family (they are
    answered from the construction, not from the truncated vertex set).
    """

    __slots__ = (
        "vertices", "parent", "family", "params", "leafless", "rootless_family", "frontier",
        "_children", "_roots", "_sorted", "_depth", "_frontier_distance",
    )

    def __init__(
        self, vertices: frozenset, parent: Mapping, family: str = EXPLICIT,
        params: Mapping | None = None, leafless: bool = False, rootless_family: bool = False,
        frontier: frozenset = frozenset(),
    ):
        set_field(self, "vertices", frozenset(vertices))
        set_field(self, "parent", dict(parent))
        set_field(self, "family", family)
        set_field(self, "params", {} if params is None else params)
        set_field(self, "leafless", leafless)
        set_field(self, "rootless_family", rootless_family)
        set_field(self, "frontier", frozenset(frontier))
        self.__post_init__()

    def __post_init__(self):
        children: dict = {v: [] for v in self.vertices}
        for child, par in self.parent.items():
            if par in children and child in self.vertices:
                children[par].append(child)
        for v in children:
            children[v].sort(key=vertex_sort_key)
            children[v] = tuple(children[v])
        set_field(self, "_children", children)
        roots = tuple(
            sorted((v for v in self.vertices if v not in self.parent), key=vertex_sort_key)
        )
        set_field(self, "_roots", roots)
        set_field(self, "_sorted", None)
        set_field(self, "_depth", None)
        set_field(self, "_frontier_distance", None)

    # -- basic structure ------------------------------------------------

    @property
    def root(self):
        """The unique parentless vertex, or None if the count is not one."""
        return self._roots[0] if len(self._roots) == 1 else None

    @property
    def non_root_vertices(self) -> frozenset:
        return frozenset(v for v in self.vertices if v in self.parent)

    @property
    def sorted_vertices(self) -> tuple:
        """The vertices in :func:`vertex_sort_key` order, sorted once per tree
        and then cached."""
        order = self._sorted
        if order is None:
            order = tuple(sorted(self.vertices, key=vertex_sort_key))
            set_field(self, "_sorted", order)
        return order

    def __contains__(self, v) -> bool:
        return v in self.vertices

    def __len__(self) -> int:
        return len(self.vertices)

    def _require(self, u):
        if u not in self.vertices:
            raise UnknownVertexError(u)

    def children(self, u) -> tuple:
        self._require(u)
        return self._children[u]

    def parent_of(self, u):
        self._require(u)
        return self.parent.get(u)

    def ancestor(self, u, k: int):
        """Walk the parent map k times; None if the walk leaves the tree."""
        self._require(u)
        for _ in range(k):
            u = self.parent.get(u)
            if u is None:
                return None
        return u

    # -- horizon bookkeeping ---------------------------------------------

    @property
    def bottom_up(self) -> tuple:
        """The vertices deepest level first, so each comes after all of its
        children; the levels are read from the cached depth table."""
        depth = self._depth_from_roots()
        return tuple(sorted(self.sorted_vertices, key=lambda v: -depth.get(v, 0)))

    def _distances_to_frontier(self) -> dict:
        cached = self._frontier_distance
        if cached is None:
            cached = {v: math.inf for v in self.vertices}
            for v in self.bottom_up:
                if v in self.frontier:
                    cached[v] = 0
                for c in self._children[v]:
                    cached[v] = min(cached[v], cached[c] + 1)
            set_field(self, "_frontier_distance", cached)
        return cached

    def _depth_from_roots(self) -> dict:
        """Distance from the roots of every vertex reachable from one,
        computed once per tree and then cached; callers must not mutate it."""
        depth = self._depth
        if depth is None:
            depth = {}
            stack = [(r, 0) for r in self._roots]
            while stack:
                v, d = stack.pop()
                if v in depth:
                    continue
                depth[v] = d
                for c in self._children[v]:
                    stack.append((c, d + 1))
            set_field(self, "_depth", depth)
        return depth

    def available_depth(self, u) -> float:
        """Number of complete levels below u (inf when no frontier interferes).

        The distances of all vertices are computed in one pass, the first
        time any vertex is asked for, and then cached on the tree."""
        self._require(u)
        return self._distances_to_frontier()[u]

    def clamp_order(self, u, n) -> int:
        """int(min(n, available_depth(u))); ``ValueError`` naming u if both
        are inf.  The one-vertex form of :meth:`clamp_orders`."""
        top = min(n, self.available_depth(u))
        if top == math.inf:
            raise ValueError(f"no finite order at {u!r}: no frontier lies below it")
        return int(top)

    def clamp_orders(self, n) -> dict:
        """:meth:`clamp_order` of every vertex at n, in vertex order, read
        from the cached distance table in one pass."""
        if not n < math.inf:  # a top may be inf: the first, in vertex order, raises
            return {u: self.clamp_order(u, n) for u in self.sorted_vertices}
        depth = self._distances_to_frontier()
        return {u: int(d if (d := depth[u]) < n else n) for u in self.sorted_vertices}

    # -- level combinatorics ----------------------------------------------

    def children_n(self, u, n: int) -> frozenset:
        """The n-th generation below u: exactly the set of w with par^n(w) = u."""
        return frozenset(self._generations(u, n)[-1])

    def _generations(self, u, n: int) -> list:
        """The generations 0 to n below u, as lists; an unknown vertex, a
        negative n or an n past the window (``HorizonError``) raises."""
        self._require(u)
        if n < 0:
            raise ValueError("generation index must be nonnegative")
        if n > self.available_depth(u):
            raise HorizonError(
                f"level {n} below {u} exceeds the window of the generated family"
            )
        levels = [[u]]
        for _ in range(n):
            levels.append([c for v in levels[-1] for c in self._children[v]])
        return levels

    def descendants(self, u) -> frozenset:
        """All vertices reachable downward from u, u included."""
        self._require(u)
        seen = {u}
        stack = [u]
        while stack:
            v = stack.pop()
            for c in self._children[v]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return frozenset(seen)

    def subtree(self, u) -> "DirectedTree":
        """The directed tree induced on the descendants of u, rooted at u."""
        keep = self.descendants(u)
        parent = {v: p for v, p in self.parent.items() if v in keep and p in keep}
        leafless = self.leafless if self.family != EXPLICIT else _computed_leafless(
            keep, self._children, self.frontier
        )
        return DirectedTree(
            vertices=keep,
            parent=parent,
            family=EXPLICIT,
            params={},
            leafless=leafless,
            rootless_family=False,
            frontier=self.frontier & keep,
        )

    # -- serialization ----------------------------------------------------

    def as_dict(self) -> dict:
        if self.family != EXPLICIT:
            params = dict(self.params)
            if params.get("kappa") == math.inf:
                params["kappa"] = "inf"
            return {"family": self.family, "params": params}
        edges = sorted(
            ([vertex_to_json(p), vertex_to_json(c)] for c, p in self.parent.items()),
            key=lambda e: (vertex_sort_key(as_vertex(e[0])), vertex_sort_key(as_vertex(e[1]))),
        )
        return {
            "vertices": [vertex_to_json(v) for v in self.sorted_vertices],
            "edges": edges,
        }


def _computed_leafless(vertices, children, frontier) -> bool:
    return all(children[v] or v in frontier for v in vertices)


def explicit_tree(vertices: Iterable, parent: Mapping) -> DirectedTree:
    """Build a fully specified finite tree (no truncation semantics)."""
    vs = frozenset(as_vertex(v) for v in vertices)
    pmap = {as_vertex(c): as_vertex(p) for c, p in parent.items()}
    return DirectedTree(vertices=vs, parent=pmap)


def truncated_tree(vertices: Iterable, parent: Mapping) -> DirectedTree:
    """A finite window of an unspecified leafless tree: every childless vertex
    is treated as a frontier vertex, not a true leaf."""
    vs = frozenset(as_vertex(v) for v in vertices)
    pmap = {as_vertex(c): as_vertex(p) for c, p in parent.items()}
    has_child = set(pmap.values())
    frontier = frozenset(v for v in vs if v not in has_child)
    return DirectedTree(
        vertices=vs, parent=pmap, leafless=True, frontier=frontier
    )


def make_family(
    family: str,
    depth: int,
    *,
    eta: int | None = None,
    kappa=None,
    back: int | None = None,
) -> DirectedTree:
    """Instantiate one of the canonical families, truncated at ``depth`` levels.

    ``unilateral`` is the half-line 0,1,2,...; ``bilateral-window`` is the
    window -back..depth of the two-sided line (back defaults to depth);
    ``t-eta-kappa`` is the leafless tree with one branching vertex 0,
    ``eta`` outgoing branches of length ``depth`` and a trunk of length
    ``kappa`` (root -kappa when kappa is finite; pass math.inf or "inf" for
    the rootless variant, whose trunk is windowed at ``depth``).
    """
    if family == UNILATERAL:
        if depth < 1:
            raise ValueError("depth must be at least 1")
        vertices = set(range(depth + 1))
        parent = {k: k - 1 for k in range(1, depth + 1)}
        return DirectedTree(
            vertices=frozenset(vertices),
            parent=parent,
            family=UNILATERAL,
            params={"depth": depth},
            leafless=True,
            frontier=frozenset({depth}),
        )
    if family == BILATERAL_WINDOW:
        if back is None:
            back = depth
        if back < 1 or depth < 0 or back + depth < 1:
            raise ValueError("bilateral window needs back >= 1 and depth >= 0")
        vertices = set(range(-back, depth + 1))
        parent = {k: k - 1 for k in range(-back + 1, depth + 1)}
        return DirectedTree(
            vertices=frozenset(vertices),
            parent=parent,
            family=BILATERAL_WINDOW,
            params={"depth": depth, "back": back},
            leafless=True,
            rootless_family=True,
            frontier=frozenset({depth}),
        )
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if family == T_ETA_KAPPA:
        if kappa == "inf":
            kappa = math.inf
        if eta is None or kappa is None:
            raise ValueError("t-eta-kappa needs eta and kappa")
        if eta < 2:
            raise ValueError("the branching family requires eta >= 2")
        if kappa != math.inf and (not isinstance(kappa, int) or kappa < 0):
            raise ValueError("kappa must be a nonnegative integer or infinity")
        trunk_len = depth if kappa == math.inf else kappa
        vertices = {-k for k in range(trunk_len + 1)}
        parent = {-k + 1: -k for k in range(1, trunk_len + 1)}
        frontier = set()
        for i in range(1, eta + 1):
            parent[(i, 1)] = 0
            vertices.add((i, 1))
            for j in range(2, depth + 1):
                vertices.add((i, j))
                parent[(i, j)] = (i, j - 1)
            frontier.add((i, depth))
        return DirectedTree(
            vertices=frozenset(vertices),
            parent=parent,
            family=T_ETA_KAPPA,
            params={"eta": eta, "kappa": kappa, "depth": depth},
            leafless=True,
            rootless_family=kappa == math.inf,
            frontier=frozenset(frontier),
        )
    raise ValueError(f"unknown family {family!r}")


def validate(tree: DirectedTree) -> ValidationReport:
    """Check the directed-tree axioms; violations are returned, never raised."""
    violations = []
    vertices = tree.vertices
    if not vertices:
        violations.append("empty vertex set")
        return ValidationReport(tuple(violations))
    for child, par in sorted(tree.parent.items(), key=lambda kv: vertex_sort_key(kv[0])):
        if child not in vertices:
            violations.append(f"parent map keyed by unknown vertex {child!r}")
        if par not in vertices:
            violations.append(f"vertex {child!r} has unknown parent {par!r}")
    roots = [v for v in tree.sorted_vertices if v not in tree.parent]
    if len(roots) > 1:
        violations.append(
            "more than one root: " + ", ".join(repr(r) for r in roots)
        )
    # cycle detection by walking the parent map with three-color marking
    state: dict = {}
    for start in tree.sorted_vertices:
        if state.get(start):
            continue
        path = []
        v = start
        while v is not None and v in vertices and state.get(v) is None:
            state[v] = "visiting"
            path.append(v)
            v = tree.parent.get(v)
        if v is not None and state.get(v) == "visiting":
            cycle_start = path.index(v)
            cycle = path[cycle_start:]
            violations.append(
                "cycle through " + ", ".join(repr(c) for c in cycle)
            )
        for w in path:
            state[w] = "done"
    if not roots and not any(s.startswith("cycle") for s in violations):
        violations.append("no parentless vertex")
    # connectivity of the underlying undirected graph
    first = min(vertices, key=vertex_sort_key)
    seen = {first}
    stack = [first]
    while stack:
        v = stack.pop()
        nbrs = list(tree._children.get(v, ()))
        p = tree.parent.get(v)
        if p is not None and p in vertices:
            nbrs.append(p)
        for w in nbrs:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if seen != vertices:
        missing = sorted(vertices - seen, key=vertex_sort_key)
        violations.append(
            "not connected; unreachable from "
            f"{first!r}: " + ", ".join(repr(m) for m in missing)
        )
    if not tree.frontier <= vertices:
        violations.append("frontier contains unknown vertices")
    return ValidationReport(tuple(sorted(violations)))


def tree_from_json(doc: dict) -> DirectedTree:
    """Parse a tree document: either a family descriptor or an explicit edge
    list."""
    if "family" in doc:
        params = {k: int_if_integral(v) for k, v in doc.get("params", {}).items()}
        family = doc["family"]
        depth = params.get("depth", params.get("N", 8))
        return make_family(
            family,
            depth,
            eta=params.get("eta"),
            kappa=params.get("kappa"),
            back=params.get("back"),
        )
    vertices = {as_vertex(v) for v in doc.get("vertices", [])}
    parent = {}
    seen_edges = set()
    for edge in doc.get("edges", []):
        if len(edge) != 2:
            raise ValueError(f"malformed edge {edge!r}")
        p, c = as_vertex(edge[0]), as_vertex(edge[1])
        if (p, c) in seen_edges:
            raise ValueError(f"duplicate edge {edge!r}")
        seen_edges.add((p, c))
        if c in parent and parent[c] != p:
            raise ValueError(f"vertex {c!r} has more than one parent")
        parent[c] = p
        vertices.add(p)
        vertices.add(c)
    return DirectedTree(vertices=frozenset(vertices), parent=parent)
