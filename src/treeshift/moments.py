"""Moment engine on the nonnegative half-line.

Finitely atomic measures are the computational stand-in for Borel measures:
they are closed under every transform used by the certifiers (reweighting by
powers of the variable, window restriction, adding a point mass at zero) and
admit exact atom-level arithmetic.  On top of them sit the Hankel positivity
test for moment sequences, the backward-extension bijection, the Carleman
determinacy diagnostic, and Gauss quadrature reconstruction of a measure
from its moments.

Conventions: 1/0 = inf, and 0 * inf = 0 wherever a squared weight multiplies
an inverse-power integral (see :func:`scaled_inverse_integral`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

MERGE_TOL = 1e-12

MEASURE_DERIVED = "measure-derived"
WEIGHT_DERIVED = "weight-derived"
USER = "user"


class RefutedSequenceError(ValueError):
    """A sequence failed the Hankel positivity test where one was required."""

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class NoBackwardExtensionError(ValueError):
    """The requested prepended value is below the inverse-moment threshold,
    so no nonnegative-halfline extension exists."""

    def __init__(self, message, required=None, given=None):
        super().__init__(message)
        self.required = required
        self.given = given


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many point masses on [0, inf).

    Atoms are kept in canonical form: positions strictly increasing, masses
    positive; positions closer than ``MERGE_TOL`` are merged with masses
    added.  Construction from any iterable of (position, mass) pairs
    canonicalizes automatically.
    """

    atoms: tuple = ()

    def __post_init__(self):
        pairs = []
        for x, w in self.atoms:
            x = float(x)
            w = float(w)
            if not -MERGE_TOL <= x < math.inf:
                kind = "negative" if math.isfinite(x) else "not finite"
                raise ValueError(f"atom position {x} is {kind}")
            if not 0.0 <= w < math.inf:
                kind = "negative" if math.isfinite(w) else "not finite"
                raise ValueError(f"atom mass {w} is {kind}")
            if w == 0.0:
                continue
            pairs.append((max(x, 0.0), w))
        object.__setattr__(self, "atoms", _canonical(pairs))

    @classmethod
    def _of_canonical(cls, atoms: tuple) -> "AtomicMeasure":
        """Wrap an atom tuple that is already canonical and checked."""
        measure = object.__new__(cls)
        object.__setattr__(measure, "atoms", atoms)
        return measure

    @classmethod
    def delta(cls, x: float, mass: float = 1.0) -> "AtomicMeasure":
        return cls(((x, mass),))

    @classmethod
    def zero(cls) -> "AtomicMeasure":
        return cls(())

    # -- basic queries ------------------------------------------------------

    def positions(self) -> tuple:
        return tuple(x for x, _ in self.atoms)

    def masses(self) -> tuple:
        return tuple(w for _, w in self.atoms)

    @property
    def total_mass(self) -> float:
        return math.fsum(w for _, w in self.atoms)

    @property
    def mass_at_zero(self) -> float:
        if self.atoms and self.atoms[0][0] == 0.0:
            return self.atoms[0][1]
        return 0.0

    def mass_upto(self, cutoff: float) -> float:
        """Mass of the closed window [0, cutoff]."""
        return math.fsum(w for x, w in self.atoms if x <= cutoff)

    def max_position(self) -> float:
        return self.atoms[-1][0] if self.atoms else 0.0

    # -- moments -------------------------------------------------------------

    def moment(self, n: int) -> float:
        """Integral of s^n; for negative n the value is inf as soon as a
        positive mass sits at zero (1/0 = inf convention).  Raises
        ``ValueError`` when the moment overflows."""
        if n < 0 and self.mass_at_zero > 0.0:
            return math.inf
        try:
            if n == 0:
                return self.total_mass
            return math.fsum(w * x**n for x, w in self.atoms if x > 0.0 or n > 0)
        except OverflowError:
            raise _moment_overflow(self.atoms, n) from None

    def moments(self, n_max: int) -> tuple:
        """Moments of orders 0..n_max, computed together and each summed
        exactly as :meth:`moment` sums it."""
        atoms = self.atoms
        out = []
        for n in range(n_max + 1):
            try:
                out.append(
                    math.fsum([w * x**n for x, w in atoms] if n else [w for _, w in atoms])
                )
            except OverflowError:
                raise _moment_overflow(atoms, n) from None
        return tuple(out)

    # -- transforms -----------------------------------------------------------

    def scaled(self, factor: float) -> "AtomicMeasure":
        return superpose(((factor, self),), 0)

    def plus(self, other: "AtomicMeasure") -> "AtomicMeasure":
        return AtomicMeasure._of_canonical(_canonical([*self.atoms, *other.atoms]))

    def times_power(self, p: int) -> "AtomicMeasure":
        """Reweight by s^p.  Positive p annihilates any atom at zero; negative
        p requires no atom at zero."""
        return superpose(((1.0, self),), p)

    def restricted(self, cutoff: float) -> "AtomicMeasure":
        """Restriction to the closed window [0, cutoff] (not renormalized)."""
        return AtomicMeasure(tuple((x, w) for x, w in self.atoms if x <= cutoff))

    def as_dict(self) -> dict:
        return {"atoms": [{"x": x, "w": w} for x, w in self.atoms]}


def _moment_overflow(atoms: tuple, n: int) -> ValueError:
    """The error for a moment of order n that overflows, naming the first
    atom whose power overflows (or the sum, when no single power does)."""
    for x, w in atoms:
        if x > 0.0:
            try:
                x**n
            except OverflowError:
                return ValueError(
                    f"moment of order {n} overflows: x**{n} at the atom x = {x}, w = {w}"
                )
    return ValueError(f"moment of order {n} overflows")


def _canonical(pairs: list) -> tuple:
    """Sort (position, mass) pairs with nonzero masses and merge positions
    closer than ``MERGE_TOL``; a merged atom keeps the smallest position, and
    its masses are added in sorted order."""
    pairs.sort()
    merged = []
    start = None
    for x, w in pairs:
        if start is not None and x - start <= MERGE_TOL:
            mass += w
            continue
        if start is not None:
            merged.append((start, mass))
        start, mass = x, w
    if start is not None:
        merged.append((start, mass))
    return tuple(merged)


def superpose(terms, power: int, deficit: float = 0.0) -> AtomicMeasure:
    """The measure sum of c * s^power * mu over (c, mu) in ``terms``, plus
    ``deficit`` at zero.

    This is the right-hand side of the consistency identity.  Each term is
    merged into the running sum in turn and the deficit comes last, so the
    masses are added in the same order as a left fold of
    ``plus(mu.times_power(power).scaled(c))`` followed by
    ``plus(delta(0.0, deficit))``, with the same bits.  Positive powers
    annihilate atoms at zero; a negative power on a measure with mass at zero
    raises ``ValueError``.  The measures were checked when they were built, so
    the terms are not checked again; a resulting mass that overflows (or is
    NaN) raises ``ValueError``.
    """
    if not deficit >= 0.0:
        raise ValueError(f"deficit mass must be nonnegative, got {deficit}")
    power = operator.index(power)
    atoms = ()
    for c, mu in terms:
        c = float(c)
        if c < 0.0:
            raise ValueError("mass scale must be nonnegative")
        if power < 0 and mu.mass_at_zero > 0.0:
            raise ValueError("cannot divide by s: positive mass at zero")
        term = []
        for x, w in mu.atoms:
            if power > 0 and x == 0.0:
                continue
            try:
                w = w * x**power
            except OverflowError:
                raise ValueError(f"superposed mass overflows: x**{power} at x = {x}") from None
            if w != 0.0:
                w = w * c
                if w != 0.0:
                    term.append((x, w))
        atoms = _canonical([*atoms, *term]) if atoms else tuple(term)
    if deficit > 0.0:
        atoms = _canonical([*atoms, (0.0, float(deficit))])
    for x, w in atoms:
        if not w < math.inf:
            raise ValueError(f"superposed mass at x = {x} is not finite: {w}")
    return AtomicMeasure._of_canonical(atoms)


def measure_from_json(doc: dict) -> AtomicMeasure:
    return AtomicMeasure(tuple((a["x"], a["w"]) for a in doc["atoms"]))


def scaled_inverse_integral(weight_sq: float, mu: AtomicMeasure, power: int = 1) -> float:
    """weight_sq * integral of s^-power, with the 0 * inf = 0 convention."""
    if weight_sq == 0.0:
        return 0.0
    return weight_sq * mu.moment(-power)


@dataclass(frozen=True)
class MomentSequence:
    """A finite prefix t_0..t_N of a real sequence, with its origin recorded."""

    values: tuple
    origin: str = USER

    def __post_init__(self):
        values = tuple(float(t) for t in self.values)
        for n, t in enumerate(values):
            if not math.isfinite(t):
                raise ValueError(f"moment t_{n} = {t} is not finite")
        if len(values) < 2:
            raise ValueError("a moment sequence needs at least t_0 and t_1")
        if self.origin == WEIGHT_DERIVED and abs(values[0] - 1.0) > 1e-9:
            raise ValueError("weight-derived sequences start at 1")
        object.__setattr__(self, "values", values)

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n):
        return self.values[n]

    def shifted(self) -> "MomentSequence":
        return MomentSequence(self.values[1:], origin=USER)

    def prepended(self, theta: float) -> "MomentSequence":
        return MomentSequence((float(theta),) + self.values, origin=USER)

    def as_dict(self) -> dict:
        return {"t": list(self.values), "origin": self.origin}


def as_values(seq) -> tuple:
    if isinstance(seq, MomentSequence):
        return seq.values
    return tuple(float(t) for t in seq)


def moments_of(mu: AtomicMeasure, n_max: int) -> MomentSequence:
    """Moment sequence of an atomic measure up to order n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return MomentSequence(mu.moments(n_max), origin=MEASURE_DERIVED)


@dataclass(frozen=True)
class StieltjesVerdict:
    """Outcome of the two-Hankel positivity test.

    ``consistent-up-to-order-N`` is the strongest claim finite data allows;
    refutation is definitive and carries a coefficient vector whose quadratic
    form against the failing Hankel block is negative.
    """

    status: str
    order: int
    min_eig_hankel: float
    min_eig_shifted: float
    witness_block: str | None = None
    witness_vector: tuple = ()
    witness_value: float = 0.0

    @property
    def consistent(self) -> bool:
        return self.status != "refuted"

    def as_dict(self) -> dict:
        out = {
            "status": self.status,
            "order": self.order,
            "min_eig_hankel": self.min_eig_hankel,
            "min_eig_shifted": self.min_eig_shifted,
        }
        if self.witness_block is not None:
            out["witness"] = {
                "block": self.witness_block,
                "vector": list(self.witness_vector),
                "quadratic_form": self.witness_value,
            }
        return out


def _hankel(values, size: int, offset: int):
    """The size x size Hankel block of a numpy vector, starting at ``offset``."""
    return values[[[i + j + offset for j in range(size)] for i in range(size)]]


def check_stieltjes(seq, tol: float = 1e-9) -> StieltjesVerdict:
    """Test a finite prefix for consistency with a halfline moment problem.

    Builds the Hankel matrix of the sequence and its one-step shift at the
    largest sizes the prefix supports and requires both to be positive
    semidefinite up to a relative eigenvalue tolerance.
    """
    import numpy as np

    values = np.asarray(as_values(seq), dtype=float)
    order = len(values) - 1
    if order < 2:
        raise ValueError("the Hankel test needs t_0..t_N with N >= 2")
    blocks = {}
    blocks["hankel"] = _hankel(values, order // 2 + 1, 0)
    blocks["shifted-hankel"] = _hankel(values, (order - 1) // 2 + 1, 1)
    min_eigs = {}
    worst = None
    for name, H in blocks.items():
        eigvals, eigvecs = np.linalg.eigh(H)
        scale = max(1.0, float(np.abs(eigvals).max()))
        min_eigs[name] = float(eigvals[0])
        margin = eigvals[0] / scale
        if eigvals[0] < -tol * scale and (worst is None or margin < worst[0]):
            worst = (margin, name, eigvecs[:, 0], H)
    if worst is None:
        return StieltjesVerdict(
            status="consistent-up-to-order-N",
            order=order,
            min_eig_hankel=min_eigs["hankel"],
            min_eig_shifted=min_eigs["shifted-hankel"],
        )
    _, name, vector, H = worst
    quad = float(vector @ H @ vector)
    return StieltjesVerdict(
        status="refuted",
        order=order,
        min_eig_hankel=min_eigs["hankel"],
        min_eig_shifted=min_eigs["shifted-hankel"],
        witness_block=name,
        witness_vector=tuple(float(a) for a in vector),
        witness_value=quad,
    )


def backward_extend(mu: AtomicMeasure, theta: float, tol: float = 0.0) -> AtomicMeasure:
    """Extend a measure one moment backwards.

    Returns the measure whose moments are theta followed by the moments of
    ``mu``: each atom (x, w) with x > 0 becomes (x, w/x), and the deficit
    theta - integral(1/s) is deposited at zero.  Raises
    :class:`NoBackwardExtensionError` when the deficit would be negative,
    which includes any input carrying mass at zero.
    """
    if not math.isfinite(theta):
        raise ValueError(f"the prepended value must be finite, got {theta}")
    if theta <= 0:
        raise ValueError("the prepended value must be positive")
    inv = mu.moment(-1)
    if inv > theta + tol:
        raise NoBackwardExtensionError(
            f"no backward extension: integral of 1/s is {inv}, exceeds {theta}",
            required=inv,
            given=theta,
        )
    atoms = [(x, w / x) for x, w in mu.atoms if x > 0.0]
    deficit = theta - math.fsum(w for _, w in atoms)
    # deposit the deficit at zero; rounding dust below the relative noise
    # floor would create a spurious atom and is dropped instead
    if deficit > 1e-12 * theta:
        atoms.append((0.0, deficit))
    return AtomicMeasure(tuple(atoms))


def forward_map(nu: AtomicMeasure) -> AtomicMeasure:
    """Inverse of :func:`backward_extend`: reweight by s, which annihilates
    the atom at zero and drops the prepended moment."""
    return nu.times_power(1)


def cauchy_schwarz_bound(seq) -> float:
    """Largest of the ratios t_n^2 / t_{2n+1}; a lower bound for the inverse
    moment of every representing measure, hence for every admissible
    backward-extension value."""
    values = as_values(seq)
    if any(t <= 0 for t in values):
        raise ValueError("requires strictly positive entries")
    best = 0.0
    n = 0
    while 2 * n + 1 < len(values):
        best = max(best, values[n] ** 2 / values[2 * n + 1])
        n += 1
    return best


@dataclass(frozen=True)
class DeterminacyDiagnostic:
    """Finite-data Carleman diagnostic.

    ``partial_sums`` are the partial sums of t_n^(-1/(2n)); the label is a
    trend read off a log-log fit of t_n^(1/(2n)) and never a theorem, so any
    certificate leaning on it must stay conditional.
    """

    label: str
    growth_exponent: float | None
    partial_sums: tuple
    terms: tuple

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "growth_exponent": self.growth_exponent,
            "partial_sums": list(self.partial_sums),
            "terms": list(self.terms),
        }


DIVERGENCE = "divergence-trend"
CONVERGENCE = "convergence-trend"
INCONCLUSIVE = "inconclusive"


def carleman_diagnostic(
    seq,
    divergence_threshold: float = 1.05,
    convergence_threshold: float = 1.3,
) -> DeterminacyDiagnostic:
    """Evaluate the Carleman partial sums for a positive sequence.

    A zero entry makes a term infinite and settles divergence outright.  The
    growth exponent is the least-squares slope of log t_n^(1/(2n)) against
    log n over the tail half of the data: slopes at or below one mean the
    terms decay no faster than harmonically.
    """
    values = as_values(seq)
    if any(t < 0 for t in values):
        raise ValueError("Carleman diagnostic requires nonnegative entries")
    tail = values[1:]
    if not tail:
        raise ValueError("need at least t_1")
    terms = []
    for n, t in enumerate(tail, start=1):
        terms.append(math.inf if t == 0.0 else t ** (-1.0 / (2 * n)))
    sums = []
    acc = 0.0
    for term in terms:
        acc = acc + term
        sums.append(acc)
    if any(math.isinf(term) for term in terms):
        return DeterminacyDiagnostic(
            label=DIVERGENCE,
            growth_exponent=None,
            partial_sums=tuple(sums),
            terms=tuple(terms),
        )
    n_max = len(tail)
    start = max(2, n_max // 2)
    xs = []
    ys = []
    for n in range(start, n_max + 1):
        xs.append(math.log(n))
        ys.append(math.log(tail[n - 1]) / (2 * n))
    if len(xs) < 3:
        return DeterminacyDiagnostic(
            label=INCONCLUSIVE,
            growth_exponent=None,
            partial_sums=tuple(sums),
            terms=tuple(terms),
        )
    import numpy as np

    slope = float(np.polyfit(xs, ys, 1)[0])
    if slope <= divergence_threshold:
        label = DIVERGENCE
    elif slope >= convergence_threshold:
        label = CONVERGENCE
    else:
        label = INCONCLUSIVE
    return DeterminacyDiagnostic(
        label=label,
        growth_exponent=slope,
        partial_sums=tuple(sums),
        terms=tuple(terms),
    )


@dataclass(frozen=True)
class QuadratureResult:
    """Measure reconstructed from moments, with the numerical rank that was
    actually used (fewer atoms than requested when the Hankel data is
    singular)."""

    measure: AtomicMeasure
    requested: int
    rank: int

    def as_dict(self) -> dict:
        return {
            "measure": self.measure.as_dict(),
            "requested_atoms": self.requested,
            "rank": self.rank,
        }


def _recurrence_from_moments(m: tuple, k: int, rank_tol: float):
    """Three-term recurrence coefficients of the orthogonal polynomials of a
    moment sequence (classical moment-to-recurrence elimination), truncated
    at the numerical rank."""
    sigma_prev = [0.0] * (2 * k)
    sigma_curr = list(m[: 2 * k])
    alphas = [m[1] / m[0]]
    betas = [m[0]]
    for j in range(1, k):
        sigma_next = [0.0] * (2 * k)
        for ell in range(j, 2 * k - j):
            sigma_next[ell] = (
                sigma_curr[ell + 1]
                - alphas[j - 1] * sigma_curr[ell]
                - betas[j - 1] * sigma_prev[ell]
            )
        b = sigma_next[j] / sigma_curr[j - 1]
        if b <= rank_tol * (1.0 + alphas[j - 1] ** 2):
            return alphas[:j], betas[1:j]
        a = sigma_next[j + 1] / sigma_next[j] - sigma_curr[j] / sigma_curr[j - 1]
        alphas.append(a)
        betas.append(b)
        sigma_prev = sigma_curr
        sigma_curr = sigma_next
    return alphas, betas[1:]


def _solve(rows):
    """Solve the augmented system ``rows`` (coefficients, then right-hand side)
    in place by Gaussian elimination with scaled partial pivoting; raise
    ZeroDivisionError at a partial row sum or pivot <= ||A||_1 * 2^-178."""
    size = len(rows)
    tol = max(sum(abs(row[c]) for row in rows) for c in range(size)) / 2**178
    for j in range(size):
        best, pivot = 0, j
        for k in range(j, size):
            s = sum(abs(a) for a in rows[k][j:size])
            if s <= tol:
                raise ZeroDivisionError("matrix is numerically singular")
            if abs(rows[k][j]) / s > best:
                best, pivot = abs(rows[k][j]) / s, k
        if abs(rows[pivot][j]) <= tol:
            raise ZeroDivisionError("matrix is numerically singular")
        rows[j], rows[pivot] = rows[pivot], rows[j]
        for row in rows[j + 1 :]:
            f = row[j] / rows[j][j]
            row[j:] = [a - f * b for a, b in zip(row[j:], rows[j][j:])]
    out = [0] * size
    for i in reversed(range(size)):
        tail = sum(rows[i][c] * out[c] for c in range(i + 1, size))
        out[i] = (rows[i][size] - tail) / rows[i][i]
    return out


def _newton_polish(nodes, masses, values, digits: int = 50, iterations: int = 10):
    """Solve the moment equations for the atoms in extended precision.

    The moment map is badly conditioned: in double precision a residual at
    machine level still leaves the atoms off by orders of magnitude more.
    A Newton iteration carried out with ``digits`` working digits, seeded by
    the eigen-decomposition estimate, recovers the atoms of the given
    moments essentially exactly; the only remaining error is the rounding
    of the moments themselves.  Iteration stops early at a step below
    10^(8 - digits), or at a Jacobian J singular to within ||J||_1 * 2^-178:
    the rule of the 179-bit ``lu_solve`` that the tests run as this
    polish's oracle.
    """
    from decimal import Decimal, localcontext

    r = len(nodes)
    with localcontext() as ctx:
        ctx.prec = digits + 3
        x = [Decimal(float(v)) for v in nodes]
        w = [Decimal(float(v)) for v in masses]
        m = [Decimal(float(v)) for v in values[: 2 * r]]
        try:  # a singular Jacobian, or a NaN or infinity met on the way, ends it
            for _ in range(iterations):
                rows = []
                low, high = [Decimal(0)] * r, [Decimal(1)] * r  # x^(n-1), x^n
                for n in range(2 * r):
                    residual = m[n] - sum(a * b for a, b in zip(w, high))
                    rows.append(high + [n * a * b for a, b in zip(w, low)] + [residual])
                    low, high = high, [a * b for a, b in zip(high, x)]
                step = _solve(rows)
                w = [a + b for a, b in zip(w, step)]
                x = [a + b for a, b in zip(x, step[r:])]
                if max(abs(v) for v in step) < Decimal(10) ** (8 - digits):
                    break
        except ArithmeticError:
            pass
        return [float(v) for v in x], [float(v) for v in w]


def quadrature_from_moments(seq, rank_tol: float = 1e-12, tol: float = 1e-9) -> QuadratureResult:
    """Reconstruct an atomic measure from the leading 2k moments.

    The recurrence coefficients feed a symmetric tridiagonal (Jacobi) matrix
    whose eigenvalues are the atom positions and whose first eigenvector
    components give the masses; a Newton pass against the moment equations
    then polishes both.  A k-atom measure matches the first 2k moments.
    Refuted input raises :class:`RefutedSequenceError`; a numerically
    singular Hankel yields fewer atoms, reported via ``rank``.
    """
    import numpy as np

    values = as_values(seq)
    if len(values) < 2:
        raise ValueError("need at least two moments")
    if len(values) >= 3:
        verdict = check_stieltjes(values, tol=tol)
        if not verdict.consistent:
            raise RefutedSequenceError(
                "cannot reconstruct a measure from a refuted sequence", verdict
            )
    elif values[0] <= 0.0 or values[1] < 0.0:
        raise RefutedSequenceError(
            f"two-moment prefix ({values[0]}, {values[1]}) admits no measure", None
        )
    k = len(values) // 2
    alphas, betas = _recurrence_from_moments(values, k, rank_tol)
    rank = len(alphas)
    if rank == 1:
        nodes = np.array([alphas[0]])
        first_components_sq = np.array([1.0])
    else:
        off = np.sqrt(np.array(betas))
        jacobi = np.diag(np.array(alphas)) + np.diag(off, 1) + np.diag(off, -1)
        nodes, vecs = np.linalg.eigh(jacobi)
        first_components_sq = vecs[0, :] ** 2
    masses = values[0] * first_components_sq
    nodes, masses = _newton_polish(nodes, masses, values[: 2 * rank])
    scale = max(1.0, float(np.abs(nodes).max()))
    atoms = []
    for x, w in zip(nodes, masses):
        if x < -1e-9 * scale:
            raise ValueError(f"negative quadrature node {x}")
        if w > 0.0:
            atoms.append((max(float(x), 0.0), float(w)))
    return QuadratureResult(
        measure=AtomicMeasure(tuple(atoms)), requested=k, rank=rank
    )
