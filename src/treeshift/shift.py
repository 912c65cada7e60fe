"""Weighted shift acting on the basis vectors of a directed tree.

Everything here is a finite computation over the tree window: path products
of weights, coefficients and norms of powers applied to basis vectors, the
closed-form inner product between two such powers, and structural checks
(injectivity, the leaf obstruction to hyponormality).
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, islice, repeat
from typing import Mapping, Sequence

from .report import Record, set_field
from .tree import (
    DirectedTree,
    UnknownVertexError,
    _computed_leafless,
    as_vertex,
    vertex_sort_key,
    vertex_to_key,
)


def _fsum_complex(terms) -> complex:
    terms = list(terms)
    return complex(
        math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
    )


def _mod_sq(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _mod_sq_list(zs) -> list:
    """:func:`_mod_sq` of each of ``zs``, bit for bit: the real part of
    z * conj(z) is x * x - y * (-y), the same sum, and C forms it."""
    return [(z * z.conjugate()).real for z in zs]


def _scaled_row(c: float, row: tuple):
    """c * t for each t of a row of power norms, formed in C; a squared
    weight that overflowed to inf keeps an exact 0 at 0, not NaN."""
    if c < math.inf:
        return map(operator.mul, repeat(c), row)
    return (c * t if t else 0.0 for t in row)


def _norm_rows(order, tops: Mapping, children: Mapping, moduli_sq: Mapping) -> dict:
    """The rows t_u(0..tops[u]) of the vertices of ``order``, children first,
    from t_u(n + 1) = sum over children v of |w_v|^2 t_v(n) (orthogonal
    subtrees), each entry from the rows below it alone.  A top of 0 gives
    (1.0,) and reads no child; a zero squared weight adds nothing (not
    0 * inf), one child scales its row in C, several are summed by ``fsum``."""
    rows = {}
    for u in order:
        top = tops[u]
        if not top:
            rows[u] = (1.0,)
            continue
        terms = [_scaled_row(c, rows[v]) for v in children[u] if (c := moduli_sq[v]) != 0.0]
        if len(terms) == 1:
            tail = terms[0]
        else:
            tail = map(math.fsum, zip(*terms)) if terms else repeat(0.0)
        rows[u] = (1.0, *islice(tail, top))
    return rows


def product_moments(weights: Sequence[complex]) -> tuple:
    """Running squared products 1, |w1|^2, |w1 w2|^2, ... of a weight list,
    the products accumulated left to right in C."""
    products = accumulate(map(complex, weights), operator.mul, initial=complex(1.0))
    return tuple(_mod_sq_list(products))


class NormBoundReport(Record):
    """Supremum over vertices of the outgoing squared-weight sums.

    When the window covers the whole tree this equals the squared operator
    norm; for a generated family it is only a lower bound, flagged by
    ``horizon_limited``.
    """

    __slots__ = ("value", "attained_at", "horizon_limited", "per_level_max")

    def __init__(self, value: float, attained_at, horizon_limited: bool, per_level_max: tuple):
        set_field(self, "value", value)
        set_field(self, "attained_at", attained_at)
        set_field(self, "horizon_limited", horizon_limited)
        set_field(self, "per_level_max", per_level_max)

    def as_dict(self):
        return {
            "value": self.value,
            "attained_at": None if self.attained_at is None else vertex_to_key(self.attained_at),
            "horizon_limited": self.horizon_limited,
            "per_level_max": list(self.per_level_max),
        }


class StructuralReport(Record):
    __slots__ = (
        "leafless", "leafless_source", "nonzero_weights", "injective", "zero_sum_vertices",
        "not_hyponormal", "verdict",
    )

    def __init__(
        self, leafless: bool, leafless_source: str, nonzero_weights: bool, injective: bool,
        zero_sum_vertices: tuple, not_hyponormal: bool, verdict: str,
    ):
        set_field(self, "leafless", leafless)
        set_field(self, "leafless_source", leafless_source)  # "family" or "computed"
        set_field(self, "nonzero_weights", nonzero_weights)
        set_field(self, "injective", injective)
        set_field(self, "zero_sum_vertices", zero_sum_vertices)
        set_field(self, "not_hyponormal", not_hyponormal)
        set_field(self, "verdict", verdict)

    def as_dict(self):
        return {
            "leafless": self.leafless,
            "leafless_source": self.leafless_source,
            "nonzero_weights": self.nonzero_weights,
            "injective": self.injective,
            "zero_sum_vertices": [vertex_to_key(v) for v in self.zero_sum_vertices],
            "not_hyponormal": self.not_hyponormal,
            "verdict": self.verdict,
        }


class WeightedShift(Record, eq=False):
    """A directed tree together with one complex weight per non-root vertex."""

    __slots__ = ("tree", "weights", "_moduli_sq")

    def __init__(self, tree: DirectedTree, weights: Mapping):
        set_field(self, "tree", tree)
        set_field(self, "weights", weights)
        self.__post_init__()

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
        set_field(self, "weights", weights)
        set_field(self, "_moduli_sq", dict(zip(weights, _mod_sq_list(weights.values()))))

    # -- weights ----------------------------------------------------------

    def weight(self, v) -> complex:
        if v not in self.weights:
            raise UnknownVertexError(v)
        return self.weights[v]

    def modulus_sq(self, v) -> float:
        return _mod_sq(self.weight(v))

    @property
    def moduli_sq(self) -> dict:
        """|w_v|^2 of every weight by vertex, formed in C once per shift (bit
        for bit :func:`_mod_sq`); callers must not mutate it."""
        return self._moduli_sq

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

    def power_coefficients(self, u, n: int) -> dict:
        """Coefficient map of the n-th power applied to the basis vector at u,
        keyed by the n-th generation below u.

        The vertex, the order and the horizon are checked once, before the
        walk.  A run of single-child vertices from u is multiplied out left
        to right in C; below it each level is a list of (vertex, coefficient)
        pairs."""
        if not 0 <= n <= self.tree.available_depth(u):
            # delegate the precise error (negative order or horizon)
            self.tree.children_n(u, n)
        children = self.tree._children
        weights = self.weights
        run = []
        v = u
        below = children[u]
        for _ in range(n):
            if len(below) != 1:
                break
            v = below[0]
            run.append(weights[v])
            below = children[v]
        level = [(v, math.prod(run, start=complex(1.0)))]
        for _ in range(len(run), n):
            level = [(c, coeff * weights[c]) for p, coeff in level for c in children[p]]
        return dict(sorted(level, key=lambda pair: vertex_sort_key(pair[0])))

    def power_norm_sq(self, u, n: int) -> float:
        """Squared norm of the n-th power on the basis vector at u: the last
        entry of :meth:`moment_values`."""
        return self.moment_values(u, n)[n]

    def moment_values(self, u, n_max: int) -> tuple[float, ...]:
        """u's row of :meth:`power_norms` at horizon n_max, its recursion run
        over the n_max generations below u alone.  A negative order, an order
        past the window (``HorizonError``) or an unknown vertex raises."""
        levels = self.tree._generations(u, n_max)
        tops = {v: n_max - k for k, level in enumerate(levels) for v in level}
        return _norm_rows(reversed(tops), tops, self.tree._children, self.moduli_sq)[u]

    def power_norms(self, horizon) -> dict:
        """Every vertex's squared power norms t_u(0..top(u)), top(u) =
        ``tree.clamp_order(u, horizon)``, from one pass of :func:`_norm_rows`:
        every reader of t_u(n) reads these rows.  A negative horizon raises
        ``ValueError``."""
        tree = self.tree
        tops = tree.clamp_orders(horizon)
        if horizon < 0:
            raise ValueError("generation index must be nonnegative")
        return _norm_rows(tree.bottom_up, tops, tree._children, self.moduli_sq)

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

    # -- structure ----------------------------------------------------------

    def child_sum_sq(self, u) -> float:
        """Sum of squared child-weight moduli at u."""
        moduli = self.moduli_sq
        return math.fsum([moduli[c] for c in self.tree.children(u)])

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
            leafless = _computed_leafless(
                self.tree.vertices, self.tree._children, self.tree.frontier
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


def vertex_keyed(entries) -> bool:
    """Whether a weights list is in the vertex-keyed form (every entry an
    object) rather than the bare form (every entry a number).  The v1 schema
    admits either per entry, so a list mixing the two raises ``ValueError``
    naming the first entry whose form differs from the first entry's."""
    keyed = not entries or isinstance(entries[0], dict)
    forms = ("a bare number", "vertex-keyed")
    for i, item in enumerate(entries):
        if isinstance(item, dict) != keyed:
            raise ValueError(
                f"weights entry {i} ({item!r}) is {forms[not keyed]}, "
                f"but entry 0 is {forms[keyed]}"
            )
    return keyed


def weights_from_json(doc: dict, tree: DirectedTree) -> WeightedShift:
    """Parse a weights document against a tree.

    Accepts either the vertex-keyed form
    ``{"weights": [{"v": ..., "re": ..., "im": ...}, ...]}`` or, for the
    classical path families, a bare list of numbers assigned to the non-root
    vertices in sorted order.
    """
    entries = doc["weights"]
    if not vertex_keyed(entries):
        targets = sorted(tree.non_root_vertices, key=vertex_sort_key)
        if len(entries) != len(targets):
            raise ValueError(
                f"expected {len(targets)} weights, got {len(entries)}"
            )
        weights = {v: complex(x) for v, x in zip(targets, entries)}
        return WeightedShift(tree, weights)
    return WeightedShift(tree, keyed_weights(entries))


def complex_from_json(obj) -> complex:
    """A JSON weight: a bare number, or an object with optional ``re`` and
    ``im`` parts."""
    if isinstance(obj, (int, float)):
        return complex(obj)
    return complex(obj.get("re", 0.0), obj.get("im", 0.0))


def keyed_weights(entries) -> dict:
    """Vertex -> weight of a vertex-keyed weights list; a vertex listed
    twice raises ``ValueError``."""
    weights = {}
    for item in entries:
        v = as_vertex(item["v"])
        if v in weights:
            raise ValueError(f"duplicate weight for vertex {v!r}")
        weights[v] = complex_from_json(item)
    return weights
