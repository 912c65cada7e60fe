"""Bounded truncations of a consistent system.

For a window height i, every measure is conditioned on [0, i], every weight
is rescaled by the square root of the child/parent window-mass ratio (zero
when the parent window is empty), and the zero masses are renormalized.
Each truncation again satisfies the consistency identity, has supports
inside [0, i], and converges back to the original shift as i grows; the
convergence report tabulates that decay.
"""

from __future__ import annotations

import math

from .consistency import (
    MeasureSystem, hankel_witness, identity_reports, identity_witness, lambert_sweep,
)
from .moments import AtomicMeasure
from .report import Record, set_field
from .shift import WeightedShift, _fsum_complex, _mod_sq_list
from .tree import vertex_sort_key, vertex_to_key


class TruncationEntry(Record, eq=False):
    """One member of the truncation family.

    ``kappas`` holds, per vertex, the smallest window height with positive
    mass; formulas conditioned on the window (the closed-form path weights,
    the norm identity) require the index to be at least that height.
    """

    __slots__ = (
        "index", "shift", "system", "original_shift", "original_system", "kappas", "window_mass",
    )

    def __init__(
        self, index: int, shift: WeightedShift, system: MeasureSystem,
        original_shift: WeightedShift, original_system: MeasureSystem, kappas: dict,
        window_mass: dict,
    ):
        set_field(self, "index", index)
        set_field(self, "shift", shift)
        set_field(self, "system", system)
        set_field(self, "original_shift", original_shift)
        set_field(self, "original_system", original_system)
        set_field(self, "kappas", kappas)
        set_field(self, "window_mass", window_mass)

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "weights": {
                vertex_to_key(v): {"re": w.real, "im": w.imag}
                for v, w in sorted(
                    self.shift.weights.items(), key=lambda kv: vertex_sort_key(kv[0])
                )
            },
            "system": self.system.as_dict(),
            "kappas": {
                vertex_to_key(v): self.kappas[v]
                for v in sorted(self.kappas, key=vertex_sort_key)
            },
            "window_mass": {
                vertex_to_key(v): self.window_mass[v]
                for v in sorted(self.window_mass, key=vertex_sort_key)
            },
        }


def _kappa(mu: AtomicMeasure) -> int:
    """Smallest positive integer window [0, i] carrying positive mass."""
    if not mu.atoms:
        return 1
    first = mu.atoms[0][0]
    return max(1, math.ceil(first))


def _window_height(i):
    """``i`` when it is an integer >= 1 (an integral float included); any
    other height raises ``ValueError`` naming it."""
    try:
        ok = i >= 1 and i == int(i)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"window height {i!r} is not an integer >= 1")
    return i


def _window_weights(system: MeasureSystem, shift: WeightedShift, i: int) -> tuple:
    """The window masses m_v = mu_v([0, i]) by vertex and the truncated
    weights w_v * sqrt(m_v / m_parent(v)), zero where the parent window is
    empty; the weights are None when the window swallows every support, where
    the truncation is the identity.  The height ``i`` must be an integer
    >= 1."""
    _window_height(i)
    tree = shift.tree
    mass = {}
    swallowed = True
    for v in tree.sorted_vertices:
        mu = system.measure(v)
        mass[v] = mu.mass_upto(i)
        swallowed = swallowed and mu.max_position() <= i
    if swallowed:
        return mass, None
    weights = {}
    for v in sorted(tree.non_root_vertices, key=vertex_sort_key):
        parent_mass = mass[tree.parent[v]]
        if parent_mass > 0.0:
            weights[v] = shift.weight(v) * math.sqrt(mass[v] / parent_mass)
        else:
            weights[v] = complex(0.0)
    return mass, weights


def truncate(system: MeasureSystem, shift: WeightedShift, i: int) -> TruncationEntry:
    """Build the window-i member of the truncation family from
    :func:`_window_weights`; the height must be an integer >= 1."""
    mass, weights = _window_weights(system, shift, i)
    kappas, new_mu, new_eps = {}, {}, {}
    for v in shift.tree.sorted_vertices:
        mu = system.measure(v)
        kappas[v] = _kappa(mu)
        if weights is None:
            continue
        if mass[v] > 0.0:
            new_mu[v] = mu.restricted(i).divided(mass[v])
            new_eps[v] = system.eps_at(v) / mass[v]
        else:
            new_mu[v] = AtomicMeasure.delta(0.0)
            new_eps[v] = 1.0
    if weights is None:
        # the window swallows every support: the truncation is the identity
        truncated_shift, truncated_system = shift, system
    else:
        truncated_shift = WeightedShift(shift.tree, weights)
        truncated_system = MeasureSystem(mu=new_mu, eps=new_eps)
    return TruncationEntry(
        index=i,
        shift=truncated_shift,
        system=truncated_system,
        original_shift=shift,
        original_system=system,
        kappas=kappas,
        window_mass=mass,
    )


class TruncationReport(Record):
    """Verification record for one truncation entry; ``stieltjes`` maps each
    vertex the Lambert sweep tested to its Hankel verdict."""

    __slots__ = (
        "index", "ok", "consistency", "supports_ok", "max_support", "norm_bound", "norm_bound_ok",
        "stieltjes",
    )

    def __init__(
        self, index: int, ok: bool, consistency: tuple, supports_ok: bool, max_support: float,
        norm_bound: float, norm_bound_ok: bool, stieltjes: dict,
    ):
        set_field(self, "index", index)
        set_field(self, "ok", ok)
        set_field(self, "consistency", consistency)
        set_field(self, "supports_ok", supports_ok)
        set_field(self, "max_support", max_support)
        set_field(self, "norm_bound", norm_bound)
        set_field(self, "norm_bound_ok", norm_bound_ok)
        set_field(self, "stieltjes", stieltjes)

    @property
    def stieltjes_failures(self) -> tuple:
        return tuple(u for u, v in self.stieltjes.items() if not v.consistent)

    @property
    def stieltjes_ok(self) -> bool:
        return not self.stieltjes_failures

    @property
    def witness(self) -> dict | None:
        """Witness of the first failed check: the identity, then the Hankel
        test, then the support and norm bounds; None when ``ok``."""
        witness = identity_witness(self.consistency)
        if witness is None and self.stieltjes_failures:
            u = self.stieltjes_failures[0]
            witness = hankel_witness(self.stieltjes[u], vertex=vertex_to_key(u))
        if witness is None and not self.ok:
            reason = "max_support or norm_bound exceeds the window height"
            witness = {"vertex": None, "check": "truncation-bound", "reason": reason}
        return witness

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "ok": self.ok,
            "consistency": [r.as_dict() for r in self.consistency],
            "supports_ok": self.supports_ok,
            "max_support": self.max_support,
            "norm_bound": self.norm_bound,
            "norm_bound_ok": self.norm_bound_ok,
            "stieltjes_ok": self.stieltjes_ok,
            "stieltjes_failures": [vertex_to_key(v) for v in self.stieltjes_failures],
        }


def verify_truncated_consistency(entry: TruncationEntry, tol: float = 1e-9) -> TruncationReport:
    """Check the truncated identity at every vertex, confirm all supports sit
    inside the window (hence the truncated shift is bounded with squared norm
    at most the window height i; the norm bound is held to i * (1 + tol),
    relative, as its rounding is), and run the bounded-case Hankel test on
    the truncated power norms up to order 8 (a window may have no frontier
    below a vertex) through :func:`lambert_sweep`, so ``stieltjes_failures``
    lists the failing tested vertices only."""
    tree = entry.shift.tree
    reports = identity_reports(entry.system, entry.shift, tol=tol)
    ok = all(r.ok for r in reports)
    max_support = max(
        (entry.system.measure(v).max_position() for v in tree.sorted_vertices),
        default=0.0,
    )
    supports_ok = max_support <= entry.index
    bound = entry.shift.norm_bound().value
    norm_bound_ok = bound <= entry.index * (1.0 + tol)
    stieltjes, failed = lambert_sweep(entry.shift, tol, horizon=8)
    return TruncationReport(
        index=entry.index,
        ok=ok and supports_ok and norm_bound_ok and failed is None,
        consistency=reports,
        supports_ok=supports_ok,
        max_support=max_support,
        norm_bound=bound,
        norm_bound_ok=norm_bound_ok,
        stieltjes=stieltjes,
    )


def truncated_path_weight(entry: TruncationEntry, u, v) -> complex:
    """Closed form for a truncated path weight: the original path weight
    scaled by the square root of the endpoint/base window-mass ratio.
    Requires the window to already carry mass at the base vertex."""
    if entry.index < entry.kappas[u]:
        raise ValueError(
            f"window {entry.index} is below the first massive window "
            f"{entry.kappas[u]} at {u!r}"
        )
    base = entry.window_mass[u]
    return entry.original_shift.path_weight(u, v) * math.sqrt(
        entry.window_mass[v] / base
    )


class ConvergenceRow(Record):
    __slots__ = ("index", "truncated_norm_sq", "cross_inner", "residual_sq")

    def __init__(
        self, index: int, truncated_norm_sq: float, cross_inner: complex, residual_sq: float
    ):
        set_field(self, "index", index)
        set_field(self, "truncated_norm_sq", truncated_norm_sq)
        set_field(self, "cross_inner", cross_inner)
        set_field(self, "residual_sq", residual_sq)

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "truncated_norm_sq": self.truncated_norm_sq,
            "cross_re": self.cross_inner.real,
            "cross_im": self.cross_inner.imag,
            "residual_sq": self.residual_sq,
        }


class ConvergenceTable(Record):
    __slots__ = ("vertex", "power", "original_norm_sq", "rows")

    def __init__(self, vertex, power: int, original_norm_sq: float, rows: tuple):
        set_field(self, "vertex", vertex)
        set_field(self, "power", power)
        set_field(self, "original_norm_sq", original_norm_sq)
        set_field(self, "rows", rows)

    def as_dict(self) -> dict:
        return {
            "vertex": vertex_to_key(self.vertex),
            "power": self.power,
            "original_norm_sq": self.original_norm_sq,
            "rows": [r.as_dict() for r in self.rows],
        }

    def as_text(self) -> str:
        lines = [
            f"vertex {vertex_to_key(self.vertex)}  power {self.power}  "
            f"|S^n e_u|^2 = {self.original_norm_sq:.12g}",
            f"{'i':>6} {'trunc_norm_sq':>18} {'cross_re':>18} {'residual_sq':>18}",
        ]
        for r in self.rows:
            lines.append(
                f"{r.index:>6} {r.truncated_norm_sq:>18.12g} "
                f"{r.cross_inner.real:>18.12g} {r.residual_sq:>18.12g}"
            )
        return "\n".join(lines)


def convergence_report(
    system: MeasureSystem,
    shift: WeightedShift,
    u,
    n: int,
    i_list,
) -> ConvergenceTable:
    """Tabulate, for each window height, the truncated power norm, the cross
    inner product with the original power, and the squared residual of the
    difference (three-term expansion).  Both norms are the ``fsum`` of the
    squared moduli of the coefficients that the inner product reads, so
    the residual is exactly zero once the window swallows every support.
    Each row reads the truncated weights of :func:`_window_weights` alone;
    every height must be an integer >= 1."""
    heights = sorted(set(int(_window_height(i)) for i in i_list))
    coeffs = shift.power_coefficients(u, n)
    original = math.fsum(_mod_sq_list(coeffs.values()))
    rows = []
    for i in heights:
        _, weights = _window_weights(system, shift, i)
        tcoeffs = coeffs if weights is None else (
            WeightedShift(shift.tree, weights).power_coefficients(u, n)
        )
        trunc_norm = math.fsum(_mod_sq_list(tcoeffs.values()))
        cross = _fsum_complex(
            coeffs[w] * tcoeffs[w].conjugate()
            for w in sorted(coeffs, key=vertex_sort_key)
        )
        residual = original + trunc_norm - 2.0 * cross.real
        rows.append(
            ConvergenceRow(
                index=i,
                truncated_norm_sq=trunc_norm,
                cross_inner=cross,
                residual_sq=residual,
            )
        )
    return ConvergenceTable(
        vertex=u, power=n, original_norm_sq=original, rows=tuple(rows)
    )
