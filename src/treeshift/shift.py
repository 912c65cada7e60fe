"""Weighted shift acting on the basis vectors of a directed tree.

Everything here is a finite computation over the tree window: path products
of weights, coefficients and norms of powers applied to basis vectors, the
closed-form inner product between two such powers, and structural checks
(injectivity, the leaf obstruction to hyponormality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .tree import DirectedTree, UnknownVertexError, vertex_sort_key


def _fsum_complex(terms) -> complex:
    terms = list(terms)
    return complex(
        math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
    )


def _mod_sq(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


@dataclass(frozen=True)
class NormBoundReport:
    """Supremum over vertices of the outgoing squared-weight sums.

    When the window covers the whole tree this equals the squared operator
    norm; for a generated family it is only a lower bound, flagged by
    ``horizon_limited``.
    """

    value: float
    attained_at: object
    horizon_limited: bool
    per_level_max: tuple[float, ...]

    def as_dict(self):
        return {
            "value": self.value,
            "attained_at": repr(self.attained_at),
            "horizon_limited": self.horizon_limited,
            "per_level_max": list(self.per_level_max),
        }


@dataclass(frozen=True)
class StructuralReport:
    leafless: bool
    leafless_source: str  # "family" or "computed"
    nonzero_weights: bool
    injective: bool
    zero_sum_vertices: tuple
    not_hyponormal: bool
    verdict: str

    def as_dict(self):
        return {
            "leafless": self.leafless,
            "leafless_source": self.leafless_source,
            "nonzero_weights": self.nonzero_weights,
            "injective": self.injective,
            "zero_sum_vertices": [repr(v) for v in self.zero_sum_vertices],
            "not_hyponormal": self.not_hyponormal,
            "verdict": self.verdict,
        }


@dataclass(frozen=True, eq=False)
class WeightedShift:
    """A directed tree together with one complex weight per non-root vertex."""

    tree: DirectedTree
    weights: Mapping

    def __post_init__(self):
        weights = {v: complex(w) for v, w in self.weights.items()}
        expected = self.tree.non_root_vertices
        missing = expected - set(weights)
        extra = set(weights) - expected
        if missing:
            names = ", ".join(repr(v) for v in sorted(missing, key=vertex_sort_key))
            raise ValueError(f"missing weights for non-root vertices: {names}")
        if extra:
            names = ", ".join(repr(v) for v in sorted(extra, key=vertex_sort_key))
            raise ValueError(f"weights for vertices outside the tree: {names}")
        for v, w in weights.items():
            if not (math.isfinite(w.real) and math.isfinite(w.imag)):
                raise ValueError(f"weight {w} of vertex {v!r} is not finite")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_norm_cache", {})

    # -- weights ----------------------------------------------------------

    def weight(self, v) -> complex:
        if v not in self.weights:
            raise UnknownVertexError(v)
        return self.weights[v]

    def modulus_sq(self, v) -> float:
        return _mod_sq(self.weight(v))

    @property
    def has_nonzero_weights(self) -> bool:
        return all(w != 0 for w in self.weights.values())

    def path_weight(self, u, v) -> complex:
        """Product of the weights along the unique path from u down to v
        (1 when v equals u)."""
        self.tree._require(u)
        self.tree._require(v)
        product = complex(1.0)
        w = v
        while w != u:
            if w not in self.tree.parent:
                raise ValueError(f"{v!r} is not a descendant of {u!r}")
            product *= self.weights[w]
            w = self.tree.parent[w]
        return product

    # -- powers on basis vectors -------------------------------------------

    def _levels(self, u, n: int):
        """Coefficient maps of the k-th powers on the basis vector at u, for
        k = 0..n, from one walk down the tree.  The vertex, the order and
        the horizon are checked once, before the walk."""
        if not 0 <= n <= self.tree.available_depth(u):
            # delegate the precise error (negative order or horizon)
            self.tree.children_n(u, n)
        level = {u: complex(1.0)}
        yield level
        for _ in range(n):
            nxt = {}
            for v, coeff in level.items():
                for c in self.tree.children(v):
                    nxt[c] = coeff * self.weights[c]
            level = nxt
            yield level

    def power_coefficients(self, u, n: int) -> dict:
        """Coefficient map of the n-th power applied to the basis vector at u,
        keyed by the n-th generation below u."""
        *_, level = self._levels(u, n)
        return {v: level[v] for v in sorted(level, key=vertex_sort_key)}

    def power_norm_sq(self, u, n: int) -> float:
        """Squared norm of the n-th power on the basis vector at u.

        Computed by :meth:`moment_values`, together with every lower order,
        once per shift and then cached."""
        cached = self._norm_cache.get((u, n))
        if cached is None:
            cached = self.moment_values(u, n)[n]
        return cached

    def moment_values(self, u, n_max: int) -> tuple[float, ...]:
        """The sequence of squared power norms at u, orders 0..n_max.

        One walk down the tree computes every order up to n_max; each value
        is then cached on the shift, so later calls for the same vertex and
        a lower or equal order do no arithmetic."""
        cache = self._norm_cache
        if (u, n_max) not in cache:
            for k, level in enumerate(self._levels(u, n_max)):
                cache[(u, k)] = math.fsum(_mod_sq(c) for c in level.values())
        return tuple(cache[(u, k)] for k in range(n_max + 1))

    def inner_product_powers(self, u, m: int, v, n: int) -> complex:
        """Closed-form inner product of the m-th power at u with the n-th
        power at v.  Vanishes unless one vertex is the other's ancestor at
        the matching depth offset."""
        if m <= n:
            anc = self.tree.ancestor(u, n - m)
            if anc != v or not self.tree.children_n(u, m):
                return complex(0.0)
            return self.path_weight(v, u).conjugate() * self.power_norm_sq(u, m)
        anc = self.tree.ancestor(v, m - n)
        if anc != u or not self.tree.children_n(v, n):
            return complex(0.0)
        return self.path_weight(u, v) * self.power_norm_sq(v, n)

    def inner_product_brute(self, u, m: int, v, n: int) -> complex:
        """Same inner product evaluated by expanding both coefficient maps."""
        cu = self.power_coefficients(u, m)
        cv = self.power_coefficients(v, n)
        common = sorted(set(cu) & set(cv), key=vertex_sort_key)
        return _fsum_complex(cu[w] * cv[w].conjugate() for w in common)

    def adjoint_basis(self, u):
        """Adjoint applied to a basis vector: (parent, conjugate weight), or
        None for the root (the zero vector)."""
        self.tree._require(u)
        p = self.tree.parent.get(u)
        if p is None:
            return None
        return (p, self.weights[u].conjugate())

    # -- structure ----------------------------------------------------------

    def child_sum_sq(self, u) -> float:
        """Sum of squared child-weight moduli at u."""
        return math.fsum(self.modulus_sq(c) for c in self.tree.children(u))

    def norm_bound(self) -> NormBoundReport:
        """Supremum of the child sums over the window (squared-norm bound)."""
        depth = self.tree._depth_from_roots()
        by_level: dict[int, float] = {}
        best = 0.0
        best_at = None
        for u in self.tree.sorted_vertices:
            s = self.child_sum_sq(u)
            lvl = depth.get(u, 0)
            by_level[lvl] = max(by_level.get(lvl, 0.0), s)
            if s > best or best_at is None:
                best = s
                best_at = u
        levels = tuple(by_level[k] for k in sorted(by_level))
        return NormBoundReport(
            value=best,
            attained_at=best_at,
            horizon_limited=bool(self.tree.frontier),
            per_level_max=levels,
        )

    def structural_checks(self) -> StructuralReport:
        """Injectivity test and the leaf obstruction: with all weights nonzero,
        a tree that is not leafless admits no hyponormal (hence no subnormal)
        shift."""
        leafless = self.tree.leafless
        source = "family" if self.tree.family != "explicit" or self.tree.frontier else "computed"
        if source == "computed":
            leafless = all(
                self.tree.children(v) for v in self.tree.vertices
            )
        zero_sum = tuple(
            v
            for v in self.tree.sorted_vertices
            if v not in self.tree.frontier and self.child_sum_sq(v) == 0.0
        )
        injective = leafless and not zero_sum
        nonzero = self.has_nonzero_weights
        obstructed = (
            nonzero and not leafless and bool(self.tree.non_root_vertices)
        )
        if obstructed:
            verdict = "not hyponormal, hence not subnormal"
        elif not injective:
            verdict = "not injective"
        else:
            verdict = "no structural obstruction"
        return StructuralReport(
            leafless=leafless,
            leafless_source=source,
            nonzero_weights=nonzero,
            injective=injective,
            zero_sum_vertices=zero_sum,
            not_hyponormal=obstructed,
            verdict=verdict,
        )


def weights_from_json(doc: dict, tree: DirectedTree) -> WeightedShift:
    """Parse a weights document against a tree.

    Accepts either the vertex-keyed form
    ``{"weights": [{"v": ..., "re": ..., "im": ...}, ...]}`` or, for the
    classical path families, a bare list of numbers assigned to the non-root
    vertices in sorted order.
    """
    from .tree import as_vertex

    entries = doc["weights"]
    if entries and isinstance(entries[0], (int, float)):
        targets = sorted(tree.non_root_vertices, key=vertex_sort_key)
        if len(entries) != len(targets):
            raise ValueError(
                f"expected {len(targets)} weights, got {len(entries)}"
            )
        weights = {v: complex(x) for v, x in zip(targets, entries)}
        return WeightedShift(tree, weights)
    weights = {}
    for item in entries:
        v = as_vertex(item["v"])
        if v in weights:
            raise ValueError(f"duplicate weight for vertex {v!r}")
        weights[v] = complex(item.get("re", 0.0), item.get("im", 0.0))
    return WeightedShift(tree, weights)
