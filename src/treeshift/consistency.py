"""Consistent systems of probability measures attached to a weighted shift.

A system assigns to each vertex a probability measure and a nonnegative
scalar.  The defining identity at a vertex u equates the measure at u with
the superposition of its children's measures reweighted by 1/s and scaled by
the squared child weights, plus the scalar's point mass at zero.  A system
verified at every vertex of the window is a subnormality certificate for the
shift, up to the window horizon.
"""

from __future__ import annotations

import math
from typing import Mapping

from .moments import (
    AtomicMeasure,
    RefutedSequenceError,
    _merged,
    _moment_overflow,
    _moment_rows,
    _power_cache,
    _reweighted,
    as_values,
    carleman_diagnostic,
    check_stieltjes,
    measure_from_json,
    quadrature_from_moments,
)
from .report import CERTIFIED, CONDITIONAL, REFUTED, Record, set_field
from .shift import _mod_sq
from .tree import vertex_from_key, vertex_sort_key, vertex_to_key

POSITION_TOL = 1e-12


class ConsistencySumError(ValueError):
    """The weighted inverse-moment sum at a vertex exceeds one, so no
    probability measure at the parent can close the identity."""


class MissingMeasureError(KeyError):
    """A vertex for which a measure system stores no measure."""

    def __str__(self):
        return f"no measure stored for vertex {self.args[0]!r}"


class MeasureSystem(Record):
    """Per-vertex probability measures plus per-vertex point masses at zero."""

    __slots__ = ("mu", "eps", "determinacy")

    def __init__(self, mu: Mapping, eps: Mapping, determinacy: Mapping | None = None):
        eps = {v: float(e) for v, e in eps.items()}
        for v, e in eps.items():
            if not math.isfinite(e):
                raise ValueError(f"point mass {e} at zero of {v!r} is not finite")
        if any(e < 0 for e in eps.values()):
            raise ValueError("point masses at zero must be nonnegative")
        set_field(self, "mu", dict(mu))
        set_field(self, "eps", eps)
        set_field(self, "determinacy", determinacy)

    @property
    def conditional(self) -> bool:
        return self.determinacy is not None

    def measure(self, u) -> AtomicMeasure:
        if u not in self.mu:
            raise MissingMeasureError(u)
        return self.mu[u]

    def eps_at(self, u) -> float:
        return self.eps.get(u, 0.0)

    def restricted_to(self, vertices) -> "MeasureSystem":
        keep = set(vertices)
        det = None
        if self.determinacy is not None:
            det = {v: d for v, d in self.determinacy.items() if v in keep}
        return MeasureSystem(
            mu={v: m for v, m in self.mu.items() if v in keep},
            eps={v: e for v, e in self.eps.items() if v in keep},
            determinacy=det,
        )

    def as_dict(self) -> dict:
        out = {
            "measures": {
                vertex_to_key(v): self.mu[v].as_dict()
                for v in sorted(self.mu, key=vertex_sort_key)
            },
            "eps": {
                vertex_to_key(v): self.eps[v]
                for v in sorted(self.eps, key=vertex_sort_key)
            },
        }
        if self.determinacy is not None:
            out["determinacy"] = {
                vertex_to_key(v): self.determinacy[v].as_dict()
                for v in sorted(self.determinacy, key=vertex_sort_key)
            }
        return out


def system_from_json(doc: dict) -> MeasureSystem:
    mu = {
        vertex_from_key(k): measure_from_json(m)
        for k, m in doc["measures"].items()
    }
    eps = {vertex_from_key(k): float(e) for k, e in doc.get("eps", {}).items()}
    return MeasureSystem(mu=mu, eps=eps)


def measure_discrepancy(actual: AtomicMeasure, expected: AtomicMeasure):
    """Largest atom-mass difference after aligning positions x and y within
    ``POSITION_TOL * max(1, x, y)``, so rounding at large positions aligns.

    Returns (max difference, position where it occurs).
    """
    return _atom_discrepancy(actual.atoms, expected.atoms)


def _atom_discrepancy(a: tuple, e: tuple):
    ai, ei = 0, 0
    worst = 0.0
    worst_at = None
    while ai < len(a) and ei < len(e):
        (x, m), (y, n) = a[ai], e[ei]
        gap = x - y
        if -POSITION_TOL <= gap <= POSITION_TOL or abs(gap) <= POSITION_TOL * max(x, y):
            d, at = abs(m - n), x
            ai += 1
            ei += 1
        elif gap < 0:
            d, at = m, x
            ai += 1
        else:
            d, at = n, y
            ei += 1
        if d > worst:
            worst, worst_at = d, at
    for at, d in a[ai:] + e[ei:]:
        if d > worst:
            worst, worst_at = d, at
    return worst, worst_at


class ConsistencyReport(Record):
    """Outcome of checking the defining identity at one vertex."""

    __slots__ = (
        "vertex", "depth", "ok", "max_discrepancy", "discrepancy_position", "eps_stored",
        "eps_computed", "reason",
    )

    def __init__(
        self, vertex, depth: int, ok: bool, max_discrepancy: float,
        discrepancy_position: float | None, eps_stored: float, eps_computed: float | None,
        reason: str = "",
    ):
        set_field(self, "vertex", vertex)
        set_field(self, "depth", depth)
        set_field(self, "ok", ok)
        set_field(self, "max_discrepancy", max_discrepancy)
        set_field(self, "discrepancy_position", discrepancy_position)
        set_field(self, "eps_stored", eps_stored)
        set_field(self, "eps_computed", eps_computed)
        set_field(self, "reason", reason)

    def as_dict(self) -> dict:
        return {
            "vertex": vertex_to_key(self.vertex),
            "depth": self.depth,
            "ok": self.ok,
            "max_discrepancy": self.max_discrepancy,
            "discrepancy_position": self.discrepancy_position,
            "eps_stored": self.eps_stored,
            "eps_computed": self.eps_computed,
            "reason": self.reason,
        }


def _generation_terms(shift, u, n, measure_of) -> list:
    """The terms (v, c, measure_of(v)) of the depth-n identity at u, which has
    n complete levels below it: each v of the n-th generation below u whose
    squared path weight c (at n = 1, from ``shift.moduli_sq``) is not 0."""
    if n == 1:
        moduli = shift.moduli_sq
        return [(v, c, measure_of(v)) for v in shift.tree._children[u] if (c := moduli[v]) != 0.0]
    level = shift.power_coefficients(u, n).items()
    return [(v, c, measure_of(v)) for v, pw in level if (c := _mod_sq(pw)) != 0.0]


def _inverse_terms(terms, n: int) -> tuple:
    """The integrals c * (integral of s^-n dmu_v) of the terms (v, c, mu_v) and
    their atoms from one ``moments._reweighted`` step each: mass at zero gives
    inf, an overflow the ``ValueError`` of ``AtomicMeasure.moment(-n)``."""
    integrals, parts = [], []
    for _, c, mu in terms:
        if mu.mass_at_zero > 0.0:
            integrals.append(math.inf)
            parts.append(())
            continue
        try:
            term, products = _reweighted(c, mu.atoms, -n)
            integrals.append(
                c * math.fsum(products) if products is not None else math.fsum([m for _, m in term])
            )
        except OverflowError:
            raise _moment_overflow(mu.atoms, -n) from None
        parts.append(term)
    return integrals, parts


def _failed_identity(u, n: int, eps_stored: float, position, reason: str) -> ConsistencyReport:
    """An identity that fails before any comparison or deficit."""
    return ConsistencyReport(u, n, False, math.inf, position, eps_stored, None, reason)


def _identity(u, n: int, mu_u, eps_stored: float, terms: list, tol: float) -> ConsistencyReport:
    """The depth-n identity at u over its terms (see :func:`propagate_check`),
    reconstructed from the atoms its inverse-moment sum was formed with."""
    for v, _, mu in terms:
        if mu.mass_at_zero > 0.0:
            return _failed_identity(
                u, n, eps_stored, 0.0,
                f"child {v!r} carries mass {mu.mass_at_zero} at zero under a nonzero path weight",
            )
    try:
        integrals, parts = _inverse_terms(terms, n)
        inv_sum = math.fsum(integrals)
    except (ValueError, OverflowError) as exc:
        # an inverse moment, or their sum, past the largest float
        return _failed_identity(u, n, eps_stored, None, f"inverse-moment sum is not finite: {exc}")
    eps_computed = 1.0 - inv_sum
    mass = mu_u.total_mass
    try:
        expected = _merged(parts, eps_stored)
    except ValueError as exc:
        # the terms carry no mass at zero, so only a mass that is not finite
        disc, disc_at = math.inf, None
        problems = [f"reconstructed measure is not finite: {exc}"]
    else:
        disc, disc_at = _atom_discrepancy(mu_u.atoms, expected)
        problems = []
        if disc > tol * max(1.0, mass):
            problems.append("atom mismatch between stored and reconstructed measure")
    if abs(mass - 1.0) > tol:
        problems.append(f"measure at {u!r} has total mass {mass}")
    if abs(eps_stored - eps_computed) > tol:
        problems.append(f"stored zero-mass {eps_stored} differs from deficit {eps_computed}")
    return ConsistencyReport(
        u, n, not problems, disc, disc_at, eps_stored, eps_computed, "; ".join(problems)
    )


def propagate_check(system, shift, u, n: int, tol: float = 1e-9) -> ConsistencyReport:
    """Check the depth-n propagation identity at u: the measure at u must be
    the 1/s^n reweighted superposition over the n-th generation plus the
    stored point mass at zero.  A vertex of that generation with mass at
    zero under a nonzero path weight fails it outright (discrepancy inf at
    position 0), and so does an inverse-moment sum or a reconstructed measure
    that is not finite (discrepancy inf)."""
    if n < 1:
        raise ValueError("propagation depth starts at 1")
    mu_u, eps_stored = system.measure(u), system.eps_at(u)
    shift.tree.children_n(u, n)  # checks the vertex and the window
    return _identity(u, n, mu_u, eps_stored, _generation_terms(shift, u, n, system.measure), tol)


def check_consistency_at(system, shift, u, tol: float = 1e-9) -> ConsistencyReport:
    """Check the defining (depth-one) identity at u."""
    return propagate_check(system, shift, u, 1, tol=tol)


def identity_reports(system, shift, n: int = 1, tol: float = 1e-9) -> tuple:
    """:func:`propagate_check` at every vertex with n complete levels below it
    in the window (read from ``tree.clamp_orders(n)``), in vertex order."""
    if n < 1:
        raise ValueError("propagation depth starts at 1")
    measure, eps = system.measure, system.eps
    return tuple([
        _identity(u, n, measure(u), eps.get(u, 0.0), _generation_terms(shift, u, n, measure), tol)
        for u, top in shift.tree.clamp_orders(n).items()
        if top == n
    ])


def _witness(vertex, check: str, discrepancy, position, reason: str, **extra) -> dict:
    """A refutation witness: the failed check, the vertex it failed at (or
    None), by how much and at which position, why, and ``extra`` keys."""
    return {
        "vertex": None if vertex is None else vertex_to_key(vertex),
        "check": check,
        "discrepancy": discrepancy,
        "position": position,
        "reason": reason,
        **extra,
    }


def hankel_witness(verdict, **where) -> dict:
    """Witness of a failed Hankel test, located by ``where`` (a vertex or a
    shift).  A refuted two-moment prefix has no Hankel block, so its
    ``verdict`` is None and the block, vector and form are None too."""
    if verdict is None:
        return {"check": "hankel", **where, "block": None, "vector": None, "quadratic_form": None}
    return {
        "check": "hankel",
        **where,
        "block": verdict.witness_block,
        "vector": list(verdict.witness_vector),
        "quadratic_form": verdict.witness_value,
    }


def lambert_sweep(shift, tol: float = 1e-9, horizon=math.inf, known=None) -> tuple:
    """Lambert's test: Hankel verdicts, in vertex order, of the power norms
    t_u(0..top(u)), top(u) = ``tree.clamp_order(u, horizon)``, and the first
    that fails (or None); an infinite horizon raises ``ValueError`` where no
    frontier lies below.  It skips u when top(u) < 2, or when a nonzero
    weight enters u from a parent p with no other child and top(p) > top(u),
    as u's blocks are then scaled principal submatrices of p's.  ``known`` maps vertices
    to verdicts already run on their norms; the rows of the others are read
    from one :meth:`~treeshift.shift.WeightedShift.power_norms` table, built
    only when some tested vertex has no known verdict."""
    tree = shift.tree
    top = tree.clamp_orders(horizon)
    known = known or {}
    tested = [
        u for u, n in top.items()
        if n >= 2 and not (
            (p := tree.parent.get(u)) in top and len(tree._children[p]) == 1
            and shift.weights[u] != 0 and top[p] > n
        )
    ]
    norms = None if all(known.get(u) for u in tested) else shift.power_norms(horizon)
    verdicts = {u: known.get(u) or check_stieltjes(norms[u], tol=tol) for u in tested}
    return verdicts, next((u for u, v in verdicts.items() if not v.consistent), None)


def identity_witness(reports, **extra) -> dict | None:
    """Witness of the first failed identity check among ``reports``, with
    ``extra`` keys added, or None when every check holds."""
    bad = next((r for r in reports if not r.ok), None)
    if bad is None:
        return None
    return _witness(
        bad.vertex, "consistency-identity", bad.max_discrepancy,
        bad.discrepancy_position, bad.reason, **extra,
    )


class MomentsMatchReport(Record):
    """Measure moments against squared power norms at a vertex, orders 0 to
    ``top``: whether every row holds, the largest relative error, and the
    row that has it, (n, measure_moment, shift_norm_sq, rel_err)."""

    __slots__ = ("vertex", "top", "ok", "max_rel_err", "worst_row")

    def __init__(self, vertex, top: int, ok: bool, max_rel_err: float, worst_row: tuple):
        set_field(self, "vertex", vertex)
        set_field(self, "top", top)
        set_field(self, "ok", ok)
        set_field(self, "max_rel_err", max_rel_err)
        set_field(self, "worst_row", worst_row)

    def as_dict(self) -> dict:
        n, a, b, r = self.worst_row
        return {
            "vertex": vertex_to_key(self.vertex),
            "top": self.top,
            "ok": self.ok,
            "max_rel_err": self.max_rel_err,
            "worst_row": {"n": n, "measure_moment": a, "shift_norm_sq": b, "rel_err": r},
        }


def relative_errors(lhs, rhs) -> tuple:
    """Row by row |a - b| / max(1, |a|, |b|) of two value sequences, and the
    largest row.  The floor max(1, |a|, |b|) is taken by comparisons alone,
    and ``abs(a - b)`` is the one builtin call per row, so every row is
    bit-identical to the formula, the sign and payload of a NaN included: a
    NaN numerator passes through the division whatever the floor.  A
    non-finite value makes its row NaN; a finite row whose difference
    overflows reads inf, not NaN.  max() would drop a NaN row, so any NaN
    row makes the largest inf: the rows are nonnegative, inf or NaN, so
    their float sum is NaN exactly when one of them is."""
    rels = [
        abs(a - b) / (
            m if (
                m := p if (p := a if a > 0.0 else -a) > (q := b if b > 0.0 else -b) else q
            ) > 1.0 else 1.0
        )
        for a, b in zip(lhs, rhs)
    ]
    s = sum(rels)
    worst = math.inf if s != s else max(rels, default=0.0)
    return rels, worst


def first_failing_row(lhs, rhs, tol: float):
    """The first row n whose relative error (see :func:`relative_errors`)
    exceeds tol or is NaN, as (n, error), or None when every row holds."""
    rels, _ = relative_errors(lhs, rhs)
    return next(((n, rel) for n, rel in enumerate(rels) if not rel <= tol), None)


def _rows_report(u, lhs, rhs, tol: float) -> MomentsMatchReport:
    """The report of measure moments ``lhs`` against power norms ``rhs`` at
    u, orders 0 to len(lhs) - 1.  Every row is compared; the report keeps
    the first NaN row, or else the first row with the largest error."""
    rels, worst = relative_errors(lhs, rhs)
    n = next((n for n, r in enumerate(rels) if r != r), None) if worst == math.inf else None
    if n is None:
        n = rels.index(worst)
    return MomentsMatchReport(u, len(lhs) - 1, worst <= tol, worst, (n, lhs[n], rhs[n], rels[n]))


def moments_match(system, shift, u, n_max: int, tol: float = 1e-9) -> MomentsMatchReport:
    """Verify that the moments of the measure at u reproduce the squared
    power norms of the shift at u (its row of
    :meth:`~treeshift.shift.WeightedShift.power_norms`, as a certificate
    reads it), up to n_max or the window horizon."""
    top = shift.tree.clamp_order(u, n_max)
    lhs = system.measure(u).moments(top)
    return _rows_report(u, lhs, shift.moment_values(u, top), tol)


def parent_from_children(
    shift, u, child_measures: Mapping, tol: float = 1e-9
) -> tuple[AtomicMeasure, float]:
    """Construct the unique measure at u closing the identity over the given
    child measures, together with its deficit mass at zero, from the
    identity's own reweighting of the children (:func:`_inverse_terms`).

    Fails with :class:`ConsistencySumError` when the weighted inverse-moment
    sum exceeds one (no probability parent exists along this route).
    """
    if set(child_measures) != set(shift.tree.children(u)):
        raise ValueError(f"child measures must be keyed exactly by the children of {u!r}")
    shift.tree.children_n(u, 1)  # checks the window
    terms = _generation_terms(shift, u, 1, child_measures.__getitem__)
    integrals, parts = _inverse_terms(terms, 1)
    total = math.fsum(integrals)
    if total > 1.0 + tol:
        raise ConsistencySumError(f"weighted inverse-moment sum at {u!r} is {total} > 1")
    eps = max(0.0, 1.0 - total)
    # rounding dust at or below the verification tolerance would plant a
    # spurious atom at zero, which downstream identities treat as a hard
    # obstruction
    if eps <= tol:
        eps = 0.0
    return AtomicMeasure._of_canonical(_merged(parts, eps)), eps


def child_from_parent_single(shift, u0, mu_parent: AtomicMeasure) -> AtomicMeasure:
    """Invert the identity when u0 has a single child: reweight the parent
    measure by s and divide by the squared child weight."""
    children = shift.tree.children(u0)
    if len(children) != 1:
        raise ValueError(f"{u0!r} must have exactly one child")
    (u1,) = children
    c = shift.modulus_sq(u1)
    if c == 0.0:
        raise ValueError(f"the weight into {u1!r} vanishes")
    return mu_parent.times_power(1).divided(c)


def build_system_from_sequences(
    shift, sequences: Mapping, tol: float = 1e-9
) -> MeasureSystem:
    """Assemble a measure system from per-vertex moment sequences, bottom-up.

    A true leaf receives the point mass at zero with deficit one.  A
    frontier vertex receives the quadrature measure of its sequence and that
    sequence's Carleman diagnostic; the system is conditional on them.  Any
    other vertex receives the measure and deficit that close the identity
    over its children, or, where no probability measure does, the
    quadrature measure of its own sequence, which the identity then refutes.
    A sequence that quadrature refuses raises :class:`RefutedSequenceError`
    with its vertex.
    """
    tree = shift.tree
    mu: dict = {}
    eps: dict = {}
    diagnostics: dict = {}
    for v in tree.bottom_up:
        children = tree.children(v)
        if not children and v not in tree.frontier:
            mu[v], eps[v] = AtomicMeasure.delta(0.0), 1.0
            continue
        if v not in sequences:
            raise ValueError(f"no moment sequence supplied for vertex {v!r}")
        if v not in tree.frontier:
            try:
                mu[v], eps[v] = parent_from_children(
                    shift, v, {c: mu[c] for c in children}, tol=tol
                )
                continue
            except ConsistencySumError:
                pass
        values = as_values(sequences[v])
        try:
            mu[v] = quadrature_from_moments(values, tol=tol).measure
        except RefutedSequenceError as exc:
            exc.vertex = v
            raise
        eps[v] = mu[v].mass_at_zero
        if v in tree.frontier and len(values) >= 3:
            diagnostics[v] = carleman_diagnostic(values[1:])
    return MeasureSystem(mu=mu, eps=eps, determinacy=diagnostics)


def _sequence_witness(system, sequences: Mapping, tol: float) -> dict | None:
    """Witness of the first supplied moment, in vertex order, that the
    system's measure at its vertex does not reproduce within tol."""
    for v in sorted(system.mu.keys() & sequences.keys(), key=vertex_sort_key):
        supplied = as_values(sequences[v])
        rebuilt = system.measure(v).moments(len(supplied) - 1)
        row = first_failing_row(supplied, rebuilt, tol)
        if row is not None:
            n, rel = row
            return _witness(
                v, "sequence-moment", rel, None,
                "supplied moment differs from the system's measure",
                order=n, supplied=supplied[n], reconstructed=rebuilt[n],
            )
    return None


class Certificate(Record):
    """Aggregated verdict for a shift/system pair.

    ``certified-up-to-horizon`` means every reachable check passed;
    ``refuted`` names the first failing check (the supplied system is not a
    certificate; with determinate moment data this also refutes
    subnormality, otherwise another system may still exist); ``conditional``
    means every check passed but the system was built through quadrature
    choices that rest on determinacy diagnostics.
    """

    __slots__ = (
        "status", "consistency", "moments", "structural", "eps_violations", "witness", "notes",
        "horizon", "tol",
    )

    def __init__(
        self, status: str, consistency: tuple, moments: tuple, structural, eps_violations: tuple,
        witness: dict | None, notes: tuple, horizon: int, tol: float,
    ):
        set_field(self, "status", status)
        set_field(self, "consistency", consistency)
        set_field(self, "moments", moments)
        set_field(self, "structural", structural)
        set_field(self, "eps_violations", eps_violations)
        set_field(self, "witness", witness)
        set_field(self, "notes", notes)
        set_field(self, "horizon", horizon)
        set_field(self, "tol", tol)

    @property
    def ok(self) -> bool:
        return self.status != REFUTED

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "horizon": self.horizon,
            "tol": self.tol,
            "consistency": [r.as_dict() for r in self.consistency],
            "moments": [r.as_dict() for r in self.moments],
            "structural": self.structural.as_dict(),
            "eps_violations": [vertex_to_key(v) for v in self.eps_violations],
            "witness": self.witness,
            "notes": list(self.notes),
        }


def certify_subnormal(
    shift, system: MeasureSystem | None = None, sequences: Mapping | None = None,
    horizon: int = 16, tol: float = 1e-9,
) -> Certificate:
    """Run the full per-vertex verification of a measure system.

    Either a system or per-vertex moment sequences must be given; sequences
    are turned into a system first (conditionally, via quadrature at the
    frontier), and every supplied moment must be reproduced by the measure
    built at its vertex; a sequence that fails the Hankel test refutes with a
    ``hankel`` witness at its vertex, and no system is built.  The identity
    is checked at every vertex whose children are inside the window, measure
    moments are compared with power norms (the rows of
    :meth:`~treeshift.shift.WeightedShift.power_norms`, each atom position's
    powers formed once), structural obstructions are reported, and with
    nonzero weights the zero masses on non-root vertices must vanish.
    """
    if (system is None) == (sequences is None):
        raise ValueError("supply exactly one of system= or sequences=")
    notes: list[str] = []
    if system is None:
        try:
            system = build_system_from_sequences(shift, sequences, tol=tol)
        except RefutedSequenceError as exc:
            witness = hankel_witness(
                exc.verdict, vertex=vertex_to_key(exc.vertex), reason=str(exc)
            )
            return Certificate(
                REFUTED, (), (), shift.structural_checks(), (), witness,
                ("a supplied sequence fails the Hankel test; no system was built",), horizon, tol,
            )
        notes.append("system built from moment sequences via quadrature")
    tree = shift.tree
    mu, eps = system.mu, system.eps
    missing = [v for v in tree.sorted_vertices if v not in mu]
    if missing:
        raise ValueError("system lacks measures for: " + ", ".join(repr(v) for v in missing))
    if tree.rootless_family:
        notes.append("rootless family certified on the rooted window (subtree reduction)")
    notes.append(f"verdict holds up to horizon {horizon}")

    consistency_reports = identity_reports(system, shift, tol=tol)
    witness = identity_witness(consistency_reports)
    if sequences is not None and witness is None:
        witness = _sequence_witness(system, sequences, tol)
    norms = shift.power_norms(horizon)
    powers = _power_cache()
    moment_reports = tuple([
        _rows_report(u, _moment_rows(mu[u].atoms, len(norms[u]) - 1, powers), norms[u], tol)
        for u in tree.sorted_vertices
    ])
    bad = next((r for r in moment_reports if not r.ok), None)
    if bad is not None and witness is None:
        n, a, b, _ = bad.worst_row
        witness = _witness(
            bad.vertex, "moment-identity", bad.max_rel_err, None,
            "measure moments disagree with power norms",
            order=n, measure_moment=a, shift_norm_sq=b,
        )
    structural = shift.structural_checks()
    if structural.not_hyponormal and witness is None:
        witness = _witness(None, "structural", None, None, structural.verdict)
    eps_violations = ()
    if shift.has_nonzero_weights:
        eps_violations = tuple(
            [v for v in tree.sorted_vertices if v in tree.parent and eps.get(v, 0.0) > tol]
        )
        if eps_violations and witness is None:
            witness = _witness(
                eps_violations[0], "zero-mass-on-nonroot", eps[eps_violations[0]],
                0.0, "nonzero weights force vanishing zero masses off the root",
            )
    if witness is not None:
        status = REFUTED
    elif system.conditional:
        status = CONDITIONAL
        notes.append("conditional on determinacy of the supplied sequences")
    else:
        status = CERTIFIED
    return Certificate(
        status, consistency_reports, moment_reports, structural, eps_violations, witness,
        tuple(notes), horizon, tol,
    )
