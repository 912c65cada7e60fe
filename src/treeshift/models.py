"""Closed-form certifiers for the concrete families: classical unilateral and
bilateral shifts, and the leafless trees with a single branching vertex.

Given weights alone, only Lambert's test of the power norms of the window
the weights define refutes: with nonzero classical weights it is one Hankel
test at the root; quadrature fits are evidence, never the verdict.  With
branch measures, the branching certifier dispatches on the trunk length: a
single inequality when the branching vertex is the root, trunk-product
equalities plus one terminal inequality for a finite trunk, an equivalent
root-measure formulation, and the windowed variant of the equalities for an
infinite trunk.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Mapping, Sequence

from .consistency import (
    Certificate,
    MeasureSystem,
    _inverse_terms,
    certify_subnormal,
    first_failing_row,
    hankel_witness,
    lambert_sweep,
    measure_discrepancy,
    relative_errors,
)
from .moments import (
    AtomicMeasure,
    QuadratureError,
    RefutedSequenceError,
    _exact_mass,
    as_values,
    measure_from_json,
    quadrature_from_moments,
    superpose,
)
from .report import CERTIFIED, CONDITIONAL, REFUTED, Record, set_field
from .shift import WeightedShift, _mod_sq, complex_from_json, product_moments
from .tree import (
    BILATERAL_WINDOW,
    T_ETA_KAPPA,
    UNILATERAL,
    int_if_integral,
    make_family,
    truncated_tree,
    vertex_sort_key,
    vertex_to_key,
)


class ModelCertificate(Record):
    """Verdict of a closed-form certifier, with its Hankel or condition
    evidence; ``system_certificate`` is the cross-certification of the
    branching family's materialized system, and None for the classical
    families, whose verdict is the Hankel test alone."""

    __slots__ = ("status", "family", "stieltjes", "system_certificate", "detail", "witness")

    def __init__(
        self, status: str, family: str, stieltjes: dict, system_certificate: Certificate | None,
        detail: dict, witness: dict | None,
    ):
        set_field(self, "status", status)
        set_field(self, "family", family)
        set_field(self, "stieltjes", stieltjes)
        set_field(self, "system_certificate", system_certificate)
        set_field(self, "detail", detail)
        set_field(self, "witness", witness)

    @property
    def ok(self) -> bool:
        return self.status != REFUTED

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "family": self.family,
            "stieltjes": {k: v.as_dict() for k, v in sorted(self.stieltjes.items())},
            "system_certificate": (
                None if self.system_certificate is None else self.system_certificate.as_dict()
            ),
            "detail": self.detail,
            "witness": self.witness,
        }


def _evidence(values, tol: float):
    """The Hankel verdict of ``values``, read from their quadrature fit, with
    the fitted measure when its moments reproduce every value within ``tol``
    (see :func:`first_failing_row`), else None and a note saying why."""
    try:
        fit = quadrature_from_moments(values, tol=tol)
    except RefutedSequenceError as err:
        return err.verdict, None, None
    except QuadratureError as err:
        return err.verdict, None, f"no representing measure: {err}"
    try:
        row = first_failing_row(fit.measure.moments(len(values) - 1), values, tol)
    except ValueError as err:  # a fitted moment overflows
        return fit.verdict, None, f"no representing measure: {err}"
    if row is not None:
        return fit.verdict, None, f"no representing measure: the fit misses t_{row[0]} by {row[1]}"
    return fit.verdict, fit.measure, None


def _swept(shift, rows: dict, tol: float) -> tuple:
    """Lambert's test of ``shift`` (:func:`lambert_sweep`), where ``rows`` maps
    vertices to their power norms up to a positive factor, fitted first as
    evidence (:func:`_evidence`) for their verdicts.  Returns the verdicts,
    the fits, and the first failed vertex (branch before trunk) with its
    row."""
    evidence = {u: _evidence(values, tol) for u, values in rows.items()}
    known = {u: e[0] for u, e in evidence.items()}
    verdicts, _ = lambert_sweep(shift, tol, known=known)
    order = sorted(verdicts, key=lambda u: isinstance(u, int))
    failed = next((u for u in order if not verdicts[u].consistent), None)
    if failed is None:
        return verdicts, evidence, None, None
    row = rows.get(failed) or shift.power_norms(math.inf)[failed]
    return verdicts, evidence, failed, list(row)


def _classical(family: str, shift, rows: dict, detail: dict, tol: float) -> ModelCertificate:
    """The verdict of a classical window from :func:`_swept`: ``rows`` holds the
    root's norms, or nothing on a zero weight, where a pass stays conditional.
    The half line names a vertex u by itself, the line by its left shift -u."""
    verdicts, evidence, failed, row = _swept(shift, rows, tol)
    half_line = family == UNILATERAL
    stieltjes = {str(u if half_line else -u): v for u, v in verdicts.items()}
    if not rows:
        detail = {"note": "zero weight: per-vertex necessary conditions only"}
        if failed is not None:
            detail["sequence"] = row
    if failed is not None:
        where = {"vertex": str(failed)} if half_line else {"shift": -failed}
        witness = hankel_witness(verdicts[failed], **where)
        return ModelCertificate(REFUTED, family, stieltjes, None, detail, witness)
    if not rows:
        return ModelCertificate(CONDITIONAL, family, stieltjes, None, detail, None)
    _, base, missing = next(iter(evidence.values()))
    if base is None:
        detail["note"] = missing
    else:
        detail["representing_measure"] = base.as_dict()
        if half_line:
            detail["eps_root"] = base.mass_at_zero
    return ModelCertificate(CERTIFIED, family, stieltjes, None, detail, None)


def certify_unilateral(weights: Sequence[complex], tol: float = 1e-9) -> ModelCertificate:
    """Certify a unilateral classical shift from its weight list.

    The power norms are Hankel-tested at the root and past every zero weight
    (:func:`lambert_sweep`); a failure refutes.  With nonzero weights,
    subnormality is equivalent to the running product sequence being a
    halfline moment sequence, so a pass certifies every supplied weight; the
    quadrature fit of that sequence is reported as evidence when it
    reproduces every power norm.  A zero weight falls outside the product
    criterion, so a pass then stays conditional.
    """
    weights = [complex(w) for w in weights]
    if len(weights) < 3:
        raise ValueError("need at least three weights")
    shift = WeightedShift(make_family(UNILATERAL, len(weights)), dict(enumerate(weights, 1)))
    if 0 in weights:
        return _classical(UNILATERAL, shift, {}, {}, tol)
    values = product_moments(weights)
    return _classical(UNILATERAL, shift, {0: values}, {"sequence": list(values)}, tol)


class TwoSidedSequence(Record):
    """Real values t_n indexed over a window [k_min, k_max] containing 0."""

    __slots__ = ("values", "k_min")

    def __init__(self, values: tuple, k_min: int):
        values = tuple(float(t) for t in values)
        if not values:
            raise ValueError("empty two-sided sequence")
        if k_min > 0 or k_min + len(values) - 1 < 0:
            raise ValueError("the window must contain index zero")
        set_field(self, "values", values)
        set_field(self, "k_min", k_min)

    @property
    def k_max(self) -> int:
        return self.k_min + len(self.values) - 1

    def value(self, n: int) -> float:
        if not self.k_min <= n <= self.k_max:
            raise IndexError(f"index {n} outside window [{self.k_min}, {self.k_max}]")
        return self.values[n - self.k_min]

    def left_shift(self, k: int) -> tuple:
        """The one-sided prefix t_{-k}, t_{-k+1}, ..., t_{k_max}."""
        if k < 0 or -k < self.k_min:
            raise IndexError(f"shift {k} outside window")
        return self.values[-k - self.k_min :]

    def as_dict(self) -> dict:
        return {"k_min": self.k_min, "t": list(self.values)}


def _window_bounds(weights: Mapping) -> tuple:
    """The first and last index, lo <= 0 < hi, of a bilateral weight window."""
    keys = sorted(int(k) for k in weights)
    if not keys:
        raise ValueError("no weights")
    if keys != list(range(keys[0], keys[-1] + 1)):
        raise ValueError("bilateral weights must cover a contiguous index window")
    if keys[0] > 0 or keys[-1] < 1:
        raise ValueError("the window must contain the weights into 0 and 1")
    return keys[0], keys[-1]


def two_sided_from_weights(weights: Mapping[int, complex]) -> TwoSidedSequence:
    """Two-sided running products of squared weights: value 1 at index 0,
    forward products above, inverse backward products below."""
    lo, hi = _window_bounds(weights)
    forward = product_moments([weights[n] for n in range(1, hi + 1)])
    backward = product_moments([weights[n] for n in range(0, lo - 1, -1)])
    below = tuple(1.0 / b for b in reversed(backward[1:]))
    return TwoSidedSequence(values=below + forward, k_min=lo - 1)


def certify_bilateral(weights: Mapping[int, complex], tol: float = 1e-9) -> ModelCertificate:
    """Certify a bilateral classical shift over a contiguous weight window.

    The power norms of the window lo - 1 .. hi are Hankel-tested at its root
    and past every zero weight (:func:`_classical`).  With nonzero weights the
    root's norms are the deepest left shift of the two-sided product sequence
    up to a factor; each shallower shift is a suffix, whose Hankel blocks are
    principal submatrices of its blocks, so a pass certifies the whole window.
    """
    weights = {int(k): complex(w) for k, w in weights.items()}
    lo, hi = _window_bounds(weights)
    shift = WeightedShift(make_family(BILATERAL_WINDOW, hi, back=1 - lo), weights)
    if 0 in weights.values():
        return _classical(BILATERAL_WINDOW, shift, {}, {}, tol)
    seq = two_sided_from_weights(weights)
    detail = {"two_sided": seq.as_dict()}
    return _classical(BILATERAL_WINDOW, shift, {seq.k_min: seq.values}, detail, tol)


class BranchData(Record):
    """Hypotheses for the one-branching-vertex certifier.

    Branch i carries a probability measure whose moments must reproduce the
    running products of the branch weights past the entry edge (None when
    only the weights are given: the certifier rebuilds the measures); the
    entry weights scale the inverse-moment sums; the trunk weights are
    listed from the branching vertex upward (weights of vertices 0, -1,
    ...); ``nu`` is the optional root measure of the alternative formulation.
    """

    __slots__ = (
        "eta", "kappa", "branch_measures", "entry_weights", "branch_weights", "trunk_weights",
        "nu", "_trunk_products",
    )

    def __init__(
        self, eta: int, kappa, branch_measures: tuple | None, entry_weights: tuple,
        branch_weights: tuple = (), trunk_weights: tuple = (), nu: AtomicMeasure | None = None,
    ):
        eta = int_if_integral(eta)
        if eta < 2:
            raise ValueError("the branching family requires eta >= 2")
        given, kappa = kappa, math.inf
        if given not in ("inf", math.inf):
            try:
                kappa = operator.index(int_if_integral(given))
            except TypeError:
                raise ValueError(f"kappa must be an integer or infinite, got {given!r}") from None
            if kappa < 0:
                raise ValueError("kappa must be nonnegative or infinite")
        if branch_measures is None:
            if len(branch_weights) != eta or not all(branch_weights):
                raise ValueError("without branch measures every branch needs its weights")
        elif len(branch_measures) != eta:
            raise ValueError("one branch measure per branch required")
        if len(entry_weights) != eta:
            raise ValueError("one entry weight per branch required")
        set_field(self, "entry_weights", tuple(map(complex, entry_weights)))
        set_field(self, "branch_weights", tuple(tuple(map(complex, ws)) for ws in branch_weights))
        set_field(self, "trunk_weights", tuple(map(complex, trunk_weights)))
        set_field(self, "_trunk_products", product_moments(self.trunk_weights))
        if kappa != math.inf and len(self.trunk_weights) != kappa:
            raise ValueError(f"finite trunk of length {kappa} needs exactly {kappa} trunk weights")
        set_field(self, "eta", eta)
        set_field(self, "kappa", kappa)  # a nonnegative int or math.inf
        set_field(self, "branch_measures", branch_measures)
        set_field(self, "nu", nu)

    def replace(self, **changes) -> "BranchData":
        """A copy with the named fields changed, validated again."""
        return BranchData(**{**{name: getattr(self, name) for name in self._fields}, **changes})

    @property
    def trunk_window(self) -> int:
        return len(self.trunk_weights)

    def entry_mod_sq(self, i: int) -> float:
        return _mod_sq(self.entry_weights[i])

    def trunk_product_sq(self, length: int) -> float:
        """Squared modulus of the product of the first ``length`` trunk
        weights (those of vertices 0, -1, ..., -(length-1)): entry ``length``
        of the running products of all of them, the same left fold."""
        return self._trunk_products[length]

    def trunk_suffix_sq(self, start: int) -> float:
        """Squared modulus of the product of the trunk weights from index
        ``start`` on (those of vertices -start, ..., down to the root)."""
        return product_moments(self.trunk_weights[start:])[-1]

    def as_dict(self) -> dict:
        def parts(ws):
            return [{"re": w.real, "im": w.imag} for w in ws]

        out = {
            "eta": self.eta,
            "kappa": "inf" if self.kappa == math.inf else self.kappa,
            "entry_weights": parts(self.entry_weights),
            "branch_weights": [parts(ws) for ws in self.branch_weights],
            "trunk_weights": parts(self.trunk_weights),
        }
        if self.branch_measures is not None:
            out["branch_measures"] = [m.as_dict() for m in self.branch_measures]
        if self.nu is not None:
            out["nu"] = self.nu.as_dict()
        return out


def branch_data_from_json(doc: dict) -> BranchData:
    """Parse a branch document.  Without branch measures the branch weights
    stand alone, and the certifier rebuilds the measures from them."""
    branch_weights = tuple(
        tuple(complex_from_json(w) for w in ws)
        for ws in doc.get("branch_weights", [])
    )
    return BranchData(
        eta=doc["eta"],
        kappa=doc["kappa"],
        branch_measures=(
            tuple(map(measure_from_json, doc["branch_measures"]))
            if "branch_measures" in doc
            else None
        ),
        entry_weights=tuple(complex_from_json(w) for w in doc["entry_weights"]),
        branch_weights=branch_weights,
        trunk_weights=tuple(
            complex_from_json(w) for w in doc.get("trunk_weights", [])
        ),
        nu=measure_from_json(doc["nu"]) if doc.get("nu") else None,
    )


def derive_branch_weights(data: BranchData, depth: int) -> tuple:
    """Branch weight moduli implied by the branch measures: consecutive
    moment ratios give the squared weights along each branch."""
    out = []
    for mu in data.branch_measures:
        mom = mu.moments(depth)
        if any(m <= 0.0 for m in mom[: depth - 1]):
            raise ValueError("branch measure moments vanish; cannot derive weights")
        out.append(tuple(math.sqrt(mom[n] / mom[n - 1]) for n in range(1, depth)))
    return tuple(out)


def verify_branch_moments(data: BranchData, tol: float = 1e-9) -> dict:
    """Check that each branch measure reproduces the running products of its
    branch weights (the hypothesis tying measures to weights)."""
    if not data.branch_weights:
        raise ValueError("no branch weights supplied to verify against")
    worst = 0.0
    rows = []
    for i, (mu, ws) in enumerate(zip(data.branch_measures, data.branch_weights)):
        mom = mu.moments(len(ws))[1:]
        prods = product_moments(ws)[1:]
        worst = max(worst, relative_errors(mom, prods)[1])
        rows.extend(
            {"branch": i + 1, "n": n, "moment": a, "product": b}
            for n, (a, b) in enumerate(zip(mom, prods), start=1)
        )
        if abs(mu.total_mass - 1.0) > tol:
            worst = max(worst, abs(mu.total_mass - 1.0))
    return {"ok": worst <= tol, "max_rel_err": worst, "rows": rows}


def _entry_terms(data: BranchData, factor: float = 1.0) -> list:
    """The terms (factor * |entry weight|^2, branch measure) of every branch
    entered by a nonzero weight, in branch order."""
    return [
        (c * factor, data.branch_measures[i])
        for i in range(data.eta)
        if (c := data.entry_mod_sq(i)) != 0.0
    ]


def _trunk_row(data: BranchData, level: int, target: str, tol: float) -> dict:
    """Trunk level ``level`` read against ``target``: "=1" within ``tol``, or
    "<=1" up to ``tol``.  Its value is the squared product P of the first
    ``level`` trunk weights times the ``fsum`` of the integrals c_i * (integral
    of s^-(level+1) dnu_i) over the entry terms, each formed by the identity's
    reweighting step (``consistency._inverse_terms``): inf on mass at zero,
    and exact where w * x^-(level+1) overflows but its scaled mass does not."""
    integrals, _ = _inverse_terms([(None, c, mu) for c, mu in _entry_terms(data)], level + 1)
    value = data.trunk_product_sq(level) * math.fsum(integrals)
    ok = abs(value - 1.0) <= tol if target == "=1" else value <= 1.0 + tol
    return {"level": level, "value": value, "target": target, "ok": ok}


def _level_measure(data: BranchData, level: int, floor: float):
    """The measure of trunk level ``level``, the superposition of the entry
    terms scaled by P and reweighted by s^-(level+1); its deficit 1 - mass;
    and the deficit placed at zero: all of it above ``floor``, else none.
    Where c * P underflows the normal range, the branch's masses c * P * w *
    x^-(level+1) are rounded once from their exact values, so the measure
    keeps the mass the level's value counts; mass at zero raises in
    ``superpose``."""
    prod, power = data.trunk_product_sq(level), -(level + 1)
    terms, exact = [], []
    for c, mu in _entry_terms(data):
        if c * prod >= sys.float_info.min or mu.mass_at_zero > 0.0:
            terms.append((c * prod, mu))
        else:
            exact += [(x, _exact_mass(c, w, x, power, prod)) for x, w in mu.atoms]
    measure = superpose(terms, power)
    if exact:
        measure = measure.plus(AtomicMeasure(exact))
    deficit = 1.0 - measure.total_mass
    placed = deficit if deficit > floor else 0.0
    if placed:
        measure = measure.plus(AtomicMeasure.delta(0.0, placed))
    return measure, deficit, placed


def root_inequality(data: BranchData, tol: float = 1e-9) -> dict:
    """Rooted-branching-vertex condition: the entry-weighted inverse moment
    sum must not exceed one by more than ``tol`` (the level-0 "<=1" row)."""
    row = _trunk_row(data, 0, "<=1", tol)
    return {"sum": row["value"], "ok": row["ok"], "equation": "entry-inverse-sum<=1"}


def trunk_conditions(data: BranchData, tol: float = 1e-9) -> dict:
    """The paper's trunk rows: level ell equals one at each interior level
    (each level of the window for an infinite trunk), and, for a finite
    trunk, the terminal level kappa is at most one, so a rooted branching
    vertex (kappa = 0) has the one row of :func:`root_inequality`."""
    kappa = data.kappa
    if kappa == math.inf:
        rows = [(level, "=1") for level in range(max(data.trunk_window, 1))]
    else:
        rows = [(level, "=1") for level in range(kappa)] + [(kappa, "<=1")]
    checks = [_trunk_row(data, level, target, tol) for level, target in rows]
    ok = all(c["ok"] for c in checks)
    label = "windowed" if kappa == math.inf else "finite"
    return {"ok": ok, "checks": checks, "trunk": label}


def construct_root_measure(data: BranchData, tol: float = 1e-9):
    """Root measure implied by the finite-trunk conditions: the measure of
    trunk level kappa, with its deficit 1 - mass at zero when it exceeds
    ``tol``, which is the root measure of :func:`branching_tree_system`.
    Returns (measure, deficit), or (None, reason) when branch mass at zero
    or a trunk product past the largest float makes it infinite."""
    kappa = data.kappa
    if kappa == math.inf or kappa < 1:
        raise ValueError("root measure construction needs a finite trunk >= 1")
    if any(mu.mass_at_zero > 0.0 for _, mu in _entry_terms(data)):
        return None, "branch measure carries mass at zero"
    if not data.trunk_product_sq(kappa) < math.inf:
        return None, "trunk product is not finite"
    return _level_measure(data, kappa, tol)[:2]


def root_measure_conditions(data: BranchData, nu: AtomicMeasure, tol: float = 1e-9) -> dict:
    """Root-measure form of the finite-trunk conditions: nu is a probability
    measure whose first kappa moments match the trunk products measured from
    the root, and whose kappa-th power reweighting equals the trunk-product
    scaled inverse superposition of the branch measures (as measures)."""
    kappa = data.kappa
    if kappa == math.inf:
        raise ValueError("root-measure form needs a finite trunk")
    mass = nu.total_mass
    checks = [{"item": "nu-probability", "value": mass, "ok": abs(mass - 1.0) <= tol}]
    row = nu.moments(kappa)
    for n in range(1, kappa + 1):
        # the first n trunk weights below the root
        target = data.trunk_suffix_sq(kappa - n)
        value = row[n]
        checks.append(
            {
                "item": f"nu-moment-{n}",
                "value": value,
                "target": target,
                "ok": abs(value - target) <= tol * max(1.0, abs(target)),
            }
        )
    lhs = nu.times_power(kappa)
    terms = _entry_terms(data, data.trunk_product_sq(kappa))
    if any(m.mass_at_zero > 0.0 for _, m in terms):
        checks.append({"item": "measure-identity", "value": math.inf, "ok": False})
    else:
        rhs = superpose(terms, -1)
        disc, at = measure_discrepancy(lhs, rhs)
        checks.append(
            {
                "item": "measure-identity",
                "value": disc,
                "position": at,
                "ok": disc <= tol * max(1.0, lhs.total_mass, rhs.total_mass),
            }
        )
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def root_measure_equivalence_check(data: BranchData, tol: float = 1e-9) -> dict:
    """Verify that the trunk-equality form and the root-measure form of the
    finite-trunk conditions return the same verdict.

    The forward direction constructs the canonical root measure from the
    branch data and evaluates the root-measure form on it; the reverse
    direction recovers the trunk-equality quantities from that measure's
    moments and compares them with the directly computed ones.
    """
    kappa = data.kappa
    if kappa == math.inf or kappa < 1:
        raise ValueError("equivalence check needs a finite trunk >= 1")
    direct = trunk_conditions(data, tol=tol)
    nu = data.nu
    constructed = False
    reason = ""
    if nu is None:
        nu, deficit = construct_root_measure(data, tol=tol)
        constructed = True
        if nu is None:
            reason = str(deficit)
    if nu is None:
        via_measure = {"ok": False, "checks": [], "reason": reason}
    else:
        via_measure = root_measure_conditions(data, nu, tol=tol)
    recovered = []
    if nu is not None:
        row = nu.moments(kappa)
        for level in range(0, kappa):
            # moments of nu recover the interior equalities level by level
            denom_sq = data.trunk_suffix_sq(level)
            value = row[kappa - level] / denom_sq if denom_sq > 0 else math.inf
            recovered.append({"level": level, "value": value})
    return {
        "trunk_form": direct,
        "measure_form": via_measure,
        "nu_constructed": constructed,
        "nu": nu.as_dict() if nu is not None else None,
        "recovered_from_nu": recovered,
        "agree": direct["ok"] == via_measure["ok"],
    }


def branching_tree_system(data: BranchData, depth: int, tol: float = 1e-9):
    """Materialize the certificate system on the branching tree window.

    Branch vertices get powers of their branch measure; the branching vertex
    and the trunk get the inverse-reweighted superpositions; the deficit, if
    any, sits at the root (or at the branching vertex when it is the root).
    """
    kappa = data.kappa
    window = data.trunk_window
    tree = make_family(
        T_ETA_KAPPA,
        depth,
        eta=data.eta,
        kappa="inf" if kappa == math.inf else kappa,
    )
    if kappa == math.inf and window != depth:
        raise ValueError(
            "infinite-trunk window must match the tree depth "
            f"({window} trunk weights vs depth {depth})"
        )
    if data.branch_weights:
        branch_weights = data.branch_weights
        if any(len(ws) < depth - 1 for ws in branch_weights):
            raise ValueError(
                f"need at least {depth - 1} branch weights per branch for depth {depth}"
            )
    else:
        branch_weights = derive_branch_weights(data, depth)
    weights = {}
    for i in range(1, data.eta + 1):
        weights[(i, 1)] = data.entry_weights[i - 1]
        for j in range(2, depth + 1):
            weights[(i, j)] = branch_weights[i - 1][j - 2]
    for ell in range(window):
        weights[-ell] = data.trunk_weights[ell]
    shift = WeightedShift(tree, weights)
    mu = {}  # branch i: its measure reweighted by s^(j-1) and normalized at (i, j)
    for i, base in enumerate(data.branch_measures, start=1):
        for j in range(1, depth + 1):
            if j > 1:
                base = base.times_power(1)
            mu[(i, j)] = base.divided(base.total_mass)
    eps = {v: 0.0 for v in mu}
    for level in range(window + 1):
        # the deficit stays at the root only: any positive one at a rooted
        # branching vertex, one above tol at the root of a finite trunk
        floor = math.inf if level != kappa else 0.0 if kappa == 0 else tol
        mu[-level], _, eps[-level] = _level_measure(data, level, floor)
    if kappa != math.inf and kappa >= 1 and data.nu is not None:
        mu[-kappa] = data.nu
        eps[-kappa] = data.nu.mass_at_zero
    return MeasureSystem(mu=mu, eps=eps), shift


def certify_t_eta_kappa(
    data: BranchData,
    depth: int = 8,
    tol: float = 1e-9,
    conditional: bool = False,
) -> ModelCertificate:
    """Certify a shift on the one-branching-vertex tree from branch data.

    Without branch measures, only Lambert's test of the window the weights
    define (trunk, branching vertex, each branch to its last weight) refutes
    (:func:`_swept`).  The branch measures fitted to the head norms, and the
    conditions and system judged on them (to depth at most the shortest
    branch plus one), are evidence: the verdict is ``conditional``, with no
    system and a note naming a failed condition or a branch with no
    representing measure (:func:`_evidence`).  Given measures, the branch
    hypothesis is verified first (or the weights are derived from the
    measures), and a failed condition refutes.  The condition set depends
    on the trunk: the root inequality for a rooted branching vertex, the
    trunk equalities (or, when a root measure is supplied, the root-measure
    form) for a finite trunk, and the windowed equalities for an infinite
    trunk.  On a pass the explicit certificate system is built and
    cross-certified.
    """
    kappa = data.kappa
    fitted = data.branch_measures is None
    stieltjes, detail = {}, {}
    if kappa == math.inf:
        depth = data.trunk_window
    if fitted:
        weights, parent = {}, {}
        for ell, w in enumerate(data.trunk_weights):
            weights[-ell], parent[-ell] = w, -ell - 1
        for i, ws in enumerate(data.branch_weights, start=1):
            for j, w in enumerate((data.entry_weights[i - 1], *ws), start=1):
                weights[(i, j)], parent[(i, j)] = w, (i, j - 1) if j > 1 else 0
        window = WeightedShift(truncated_tree({*parent, *parent.values()}, parent), weights)
        heads = {(i, 1): product_moments(ws) for i, ws in enumerate(data.branch_weights, start=1)}
        verdicts, evidence, failed, row = _swept(window, heads, tol)
        if failed is not None:
            key, verdict = vertex_to_key(failed), verdicts[failed]
            witness, detail = hankel_witness(verdict, vertex=key), {"sequence": row}
            return ModelCertificate(REFUTED, T_ETA_KAPPA, {key: verdict}, None, detail, witness)
        stieltjes = {vertex_to_key(u): v for u, v in verdicts.items()}
        for (i, _), (_, base, missing) in evidence.items():
            if base is None:
                detail = {"note": f"branch {i}: {missing}"}
                return ModelCertificate(CONDITIONAL, T_ETA_KAPPA, stieltjes, None, detail, None)
        data = data.replace(branch_measures=tuple(e[1] for e in evidence.values()))
        conditional = True
        shortest = min(map(len, data.branch_weights))
        if depth > shortest + 1:
            depth = shortest + 1
            detail["window_note"] = f"system checked to depth {depth}, the shortest branch plus one"
    elif 0 in data.entry_weights + data.trunk_weights:
        raise ValueError("the branching certifier requires nonzero weights")
    if data.branch_weights:
        hypothesis = verify_branch_moments(data, tol=tol)
        detail["branch_moment_check"] = hypothesis
        if not hypothesis["ok"]:
            raise ValueError(
                "branch measures do not represent branch weights "
                f"(max relative error {hypothesis['max_rel_err']})"
            )
    if kappa == 0:
        cond = root_inequality(data, tol=tol)
    elif kappa != math.inf and data.nu is not None:
        cond = root_measure_conditions(data, data.nu, tol=tol)
    else:
        cond = trunk_conditions(data, tol=tol)
    detail["condition"] = cond
    if not cond["ok"]:
        bad = next((c for c in cond.get("checks", ()) if not c["ok"]), {})
        if kappa == 0:
            value = cond["sum"]
            witness = {"check": "entry-inverse-sum", "vertex": "0", "value": value,
                       "reason": f"entry-weighted inverse moment sum {value} > 1"}
        elif "item" in bad:
            witness = {"check": "root-measure-form", "vertex": vertex_to_key(-kappa),
                       "item": bad["item"], "value": bad.get("value"),
                       "reason": f"root-measure condition {bad['item']} fails"}
        else:
            level, value = bad["level"], bad["value"]
            witness = {"check": "trunk-conditions", "vertex": vertex_to_key(-level),
                       "level": level, "value": value,
                       "reason": f"trunk condition at level {level} gives {value} "
                       f"(target {bad['target']})"}
        if fitted:
            detail["note"] = f"{witness['reason']} on the fitted branch measures: evidence only"
            return ModelCertificate(CONDITIONAL, T_ETA_KAPPA, stieltjes, None, detail, None)
        return ModelCertificate(REFUTED, T_ETA_KAPPA, {}, None, detail, witness)
    if kappa == math.inf:
        detail.setdefault(
            "window_note", f"infinite trunk checked on a window of {data.trunk_window} levels"
        )
        if depth < data.trunk_window:  # the system's trunk window is its depth
            data = data.replace(trunk_weights=data.trunk_weights[:depth])
    system, shift = branching_tree_system(data, depth, tol=tol)
    certificate = certify_subnormal(shift, system, horizon=depth, tol=tol)
    status, witness = certificate.status, certificate.witness
    if fitted and witness is not None:
        where = f"{witness['check']} at {witness['vertex']}"
        detail["note"] = f"the system of the fitted branch measures fails {where}: evidence only"
        status, witness = CONDITIONAL, None
    elif status == CERTIFIED and conditional:
        status = CONDITIONAL
    detail["eps"] = {
        vertex_to_key(v): system.eps_at(v)
        for v in sorted(system.eps, key=vertex_sort_key)
        if system.eps_at(v) > 0.0
    }
    return ModelCertificate(
        status=status,
        family=T_ETA_KAPPA,
        stieltjes=stieltjes,
        system_certificate=certificate,
        detail=detail,
        witness=witness,
    )


def extract_branch_data(
    shift: WeightedShift, sequences: Mapping, tol: float = 1e-9
) -> ModelCertificate:
    """The weights-only :func:`certify_t_eta_kappa` of a shift on a
    one-branching-vertex window, to its depth, once every supplied sequence
    names a vertex of the window, agrees with its power norms within ``tol``
    on their common orders, and has no value past them: the sequences add
    nothing the weights do not decide.
    """
    tree = shift.tree
    if tree.family != T_ETA_KAPPA:
        raise ValueError("extraction works on the one-branching-vertex family")
    table = shift.power_norms(math.inf)
    for v, seq in sequences.items():
        if v not in table:
            raise ValueError(f"vertex {v!r} is not in the window")
        values, norms = as_values(seq), table[v]
        row = first_failing_row(values, norms, tol)
        if row is not None:
            n = row[0]
            raise ValueError(
                f"sequence at {v!r} disagrees with the shift at order {n}: "
                f"{values[n]} vs {norms[n]}"
            )
        if len(values) > len(norms):
            raise ValueError(
                f"sequence at {v!r} runs past the window's {len(norms)} power norms"
            )
    eta, kappa, depth = tree.params["eta"], tree.params["kappa"], tree.params["depth"]
    branches = range(1, eta + 1)
    data = BranchData(
        eta=eta,
        kappa=kappa,
        branch_measures=None,
        entry_weights=tuple(shift.weight((i, 1)) for i in branches),
        branch_weights=tuple(
            tuple(shift.weight((i, j)) for j in range(2, depth + 1)) for i in branches
        ),
        trunk_weights=tuple(
            shift.weight(-ell) for ell in range(depth if kappa == math.inf else kappa)
        ),
    )
    return certify_t_eta_kappa(data, depth=depth, tol=tol)
