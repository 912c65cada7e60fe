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
from bisect import bisect_right
from itertools import islice, repeat

from .report import CONSISTENT, REFUTED, Record, set_field

MERGE_TOL = 1e-12
RANK_TOL = 1e-12

_position = operator.itemgetter(0)


class RefutedSequenceError(ValueError):
    """A sequence failed the Hankel positivity test where one was required:
    ``verdict`` is the failed test (None for a two-moment prefix, which has
    no Hankel block) and ``vertex`` the vertex whose sequence it was, when
    the caller knows it."""

    def __init__(self, message, verdict=None, vertex=None):
        super().__init__(message)
        self.verdict = verdict
        self.vertex = vertex


class QuadratureError(ValueError):
    """Quadrature met a negative node on a sequence that passed its Hankel
    test, whose verdict is ``verdict``."""

    def __init__(self, message, verdict):
        super().__init__(message)
        self.verdict = verdict


class NoBackwardExtensionError(ValueError):
    """The requested prepended value is below the inverse-moment threshold,
    so no nonnegative-halfline extension exists."""

    def __init__(self, message, required=None, given=None):
        super().__init__(message)
        self.required = required
        self.given = given


class AtomicMeasure(Record):
    """Finitely many point masses on [0, inf).

    Atoms are kept in canonical form: positions strictly increasing, masses
    positive; a position from -MERGE_TOL to 0, -0.0 included, reads 0.0;
    positions within ``MERGE_TOL * max(1, x)`` of an atom at x
    are merged into it with masses added.  Construction from any iterable
    of (position, mass) pairs canonicalizes automatically.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: tuple = ()):
        set_field(self, "atoms", atoms)
        self.__post_init__()

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
            pairs.append((x if x > 0.0 else 0.0, w))
        set_field(self, "atoms", _canonical(pairs))

    @classmethod
    def _of_canonical(cls, atoms: tuple) -> "AtomicMeasure":
        """Wrap an atom tuple that is already canonical and checked."""
        measure = object.__new__(cls)
        set_field(measure, "atoms", atoms)
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
        return math.fsum([w for _, w in self.atoms])

    @property
    def mass_at_zero(self) -> float:
        if self.atoms and self.atoms[0][0] == 0.0:
            return self.atoms[0][1]
        return 0.0

    def _upto(self, cutoff: float) -> tuple:
        """The atoms at or below ``cutoff`` (none for a NaN): a prefix of the
        atoms, whose positions strictly increase."""
        if cutoff != cutoff:
            return ()
        return self.atoms[: bisect_right(self.atoms, cutoff, key=_position)]

    def mass_upto(self, cutoff: float) -> float:
        """Mass of the closed window [0, cutoff]."""
        return math.fsum([w for _, w in self._upto(cutoff)])

    def max_position(self) -> float:
        return self.atoms[-1][0] if self.atoms else 0.0

    # -- moments -------------------------------------------------------------

    def moment(self, n: int) -> float:
        """Integral of s^n; for negative n the value is inf as soon as a
        positive mass sits at zero (1/0 = inf convention), else the sum of the
        masses of the reweighting step (:func:`_reweighted`).  Raises
        ``ValueError`` when the moment overflows."""
        if n < 0 and self.mass_at_zero > 0.0:
            return math.inf
        try:
            if n < 0:
                return math.fsum([m for _, m in _reweighted(1.0, self.atoms, n)[0]])
            return self.total_mass if n == 0 else math.fsum(w * x**n for x, w in self.atoms)
        except OverflowError:
            raise _moment_overflow(self.atoms, n) from None

    def moments(self, n_max: int) -> tuple:
        """Moments of orders 0..n_max, each summed exactly as :meth:`moment`
        sums it (see :func:`_moment_rows`)."""
        return _moment_rows(self.atoms, n_max)

    # -- transforms -----------------------------------------------------------

    def scaled(self, factor: float) -> "AtomicMeasure":
        return superpose(((factor, self),), 0)

    def divided(self, d: float) -> "AtomicMeasure":
        """This measure divided by d > 0: scaled by 1/d, bit for bit, where
        1/d is finite, and with each mass divided by d where it overflows (a
        mass past the largest float raises as in :func:`superpose`)."""
        if (factor := 1.0 / d) < math.inf:
            return self.scaled(factor)
        return AtomicMeasure._of_canonical(_merged([[(x, w / d) for x, w in self.atoms]], 0.0))

    def plus(self, other: "AtomicMeasure") -> "AtomicMeasure":
        """The measure sum, merged as :func:`superpose` merges; a mass that is
        not finite raises ``ValueError``."""
        return AtomicMeasure._of_canonical(_merged([self.atoms, other.atoms], 0.0))

    def times_power(self, p: int) -> "AtomicMeasure":
        """Reweight by s^p.  Positive p annihilates any atom at zero; negative
        p requires no atom at zero."""
        return superpose(((1.0, self),), p)

    def restricted(self, cutoff: float) -> "AtomicMeasure":
        """Restriction to the closed window [0, cutoff] (not renormalized)."""
        return AtomicMeasure._of_canonical(self._upto(cutoff))

    def as_dict(self) -> dict:
        return {"atoms": [{"x": x, "w": w} for x, w in self.atoms]}


def _power_cache():
    """A ``powers`` argument for :func:`_moment_rows` that keeps the powers
    it forms in C: x**1, ..., x**n at each position x are formed once,
    extended when a higher order is asked for, and reused by every measure
    with an atom at x that is given the same cache."""
    cache: dict = {}

    def powers(x: float, n: int):
        row = cache.setdefault(x, [])
        if len(row) < n:
            row.extend(map(pow, repeat(x), range(len(row) + 1, n + 1)))
        return islice(row, n)

    return powers


def _moment_rows(atoms: tuple, n_max: int, powers=None) -> tuple:
    """Moments of orders 0..n_max of ``atoms``.  When the orders outnumber
    the atoms more than four to one, each atom's column (w, w x, ...,
    w x^n_max) is formed in C from the powers of x in ``powers`` (a
    :func:`_power_cache`, a fresh one when None) and the columns are summed
    row by row; otherwise, and after an overflow (whose error names the
    order and the atom), order by order.  ``fsum`` rounds the exact sum of
    the products w * x**n, so the order in which they are formed changes no
    bit.  The products are nonnegative, so one atom's column is its own sum,
    and two columns are added in C: IEEE addition rounds the exact sum of
    two floats once, as ``fsum`` does, and a row that reads inf (an inf
    product, or a sum that overflows) goes to ``fsum``, which keeps the inf
    or raises."""
    if atoms and n_max > 4 * len(atoms):
        if powers is None:
            powers = _power_cache()
        try:
            columns = [
                (w, *map(operator.mul, repeat(w), powers(x, n_max))) for x, w in atoms
            ]
            if len(columns) == 1:
                return columns[0]
            if len(columns) == 2:
                row = tuple(map(operator.add, *columns))
                if max(row) < math.inf:
                    return row
            return tuple(map(math.fsum, zip(*columns)))
        except OverflowError:
            pass
    out = []
    for n in range(n_max + 1):
        try:
            out.append(math.fsum([w * x**n for x, w in atoms] if n else [w for _, w in atoms]))
        except OverflowError:
            raise _moment_overflow(atoms, n) from None
    return tuple(out)


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
    """Sort (position, mass) pairs with nonzero masses and merge each position
    within ``MERGE_TOL * max(1, start)`` of the smallest position ``start`` of
    its atom, so rounding at large positions merges; a merged atom keeps
    ``start``, and its masses are added in sorted order."""
    pairs.sort()
    merged = []
    start = None
    for x, w in pairs:
        if start is not None and x - start <= limit:
            mass += w
            continue
        if start is not None:
            merged.append((start, mass))
        start, mass = x, w
        limit = MERGE_TOL * x if x > 1.0 else MERGE_TOL
    if start is not None:
        merged.append((start, mass))
    return tuple(merged)


def _exact_mass(c: float, w: float, x: float, power: int, scale: float = 1.0) -> float:
    """c * w * x**power * scale rounded once from its exact value (c * inf for
    a c that is inf or NaN), so it is inf only past the largest float."""
    if not c < math.inf:
        return c * math.inf
    from fractions import Fraction

    try:
        return float(Fraction(c) * Fraction(w) * Fraction(x) ** power * Fraction(scale))
    except OverflowError:
        return math.inf


def _reweighted(c: float, atoms: tuple, power: int) -> tuple:
    """The reweighting step of a superposition: the pairs (x, (w * x**power)
    * c) of c * s^power * mu, mu = ``atoms``, with nonzero masses (none at
    zero under a positive power), and the products w * x**power, whose
    ``fsum`` times c is c * (integral of s^power).  Where w * x**power
    overflows, the mass is :func:`_exact_mass` and the products are None;
    a power that overflows with a mass past the largest float raises
    ``OverflowError(x)``."""
    term, products = [], []
    for x, w in atoms:
        if power > 0 and x == 0.0:
            continue
        try:
            p = w * x**power
        except OverflowError:
            p = None
        if p is not None and p < math.inf:
            if products is not None:
                products.append(p)
            m = p * c if p else 0.0
        else:
            m, products = _exact_mass(c, w, x, power), None
            if p is None and not m < math.inf:
                raise OverflowError(x)
        if m != 0.0:
            term.append((x, m))
    return term, products


def _merged(terms, deficit: float) -> tuple:
    """The merging step of a superposition: the terms' pairs merged in turn,
    then ``deficit`` at zero; a mass that is not finite raises ``ValueError``."""
    atoms = ()
    for term in terms:
        atoms = _canonical([*atoms, *term]) if atoms else tuple(term)
    if deficit > 0.0:
        atoms = _canonical([*atoms, (0.0, float(deficit))])
    for x, w in atoms:
        if not w < math.inf:
            raise ValueError(f"superposed mass at x = {x} is not finite: {w}")
    return atoms


def superpose(terms, power: int, deficit: float = 0.0) -> AtomicMeasure:
    """The measure sum of c * s^power * mu over (c, mu) in ``terms``, plus
    ``deficit`` at zero: each term reweighted (:func:`_reweighted`) and
    merged in turn (:func:`_merged`), so where every w * x**power is finite
    the masses have the order and bits of a left fold of
    ``plus(mu.times_power(power).scaled(c))``, then ``plus(delta(0.0,
    deficit))``.  A negative power on mass at zero raises ``ValueError``, as
    does a mass that overflows (or is NaN); the measures are not checked."""
    if not deficit >= 0.0:
        raise ValueError(f"deficit mass must be nonnegative, got {deficit}")
    power = operator.index(power)
    parts = []
    for c, mu in terms:
        c = float(c)
        if c < 0.0:
            raise ValueError("mass scale must be nonnegative")
        if power < 0 and mu.mass_at_zero > 0.0:
            raise ValueError("cannot divide by s: positive mass at zero")
        try:
            parts.append(_reweighted(c, mu.atoms, power)[0])
        except OverflowError as exc:
            raise ValueError(f"superposed mass overflows: x**{power} at x = {exc}") from None
    return AtomicMeasure._of_canonical(_merged(parts, deficit))


def measure_from_json(doc: dict) -> AtomicMeasure:
    return AtomicMeasure(tuple((a["x"], a["w"]) for a in doc["atoms"]))


def scaled_inverse_integral(weight_sq: float, mu: AtomicMeasure, power: int = 1) -> float:
    """weight_sq * integral of s^-power, with the 0 * inf = 0 convention."""
    if weight_sq == 0.0:
        return 0.0
    return weight_sq * mu.moment(-power)


def as_values(seq) -> tuple:
    return tuple(float(t) for t in seq)


class StieltjesVerdict(Record):
    """Outcome of the two-Hankel positivity test.

    ``consistent-up-to-order-N`` is the strongest claim finite data allows;
    refutation is definitive and carries a coefficient vector whose quadratic
    form against H + tol * diag(H), for the failing Hankel block H, is
    negative in exact rational arithmetic.  ``min_pivot_hankel`` and
    ``min_pivot_shifted`` are the smallest pivots of the LDL^T factorization
    of each block scaled to unit diagonal, D^-1/2 H D^-1/2 + tol * I with
    D = diag(H); a factorization that fails stops at its first failing pivot.
    """

    __slots__ = (
        "status", "order", "min_pivot_hankel", "min_pivot_shifted", "witness_block",
        "witness_vector", "witness_value",
    )

    def __init__(
        self, status: str, order: int, min_pivot_hankel: float, min_pivot_shifted: float,
        witness_block: str | None = None, witness_vector: tuple = (), witness_value: float = 0.0,
    ):
        set_field(self, "status", status)
        set_field(self, "order", order)
        set_field(self, "min_pivot_hankel", min_pivot_hankel)
        set_field(self, "min_pivot_shifted", min_pivot_shifted)
        set_field(self, "witness_block", witness_block)
        set_field(self, "witness_vector", witness_vector)
        set_field(self, "witness_value", witness_value)

    @property
    def consistent(self) -> bool:
        return self.status != REFUTED

    def as_dict(self) -> dict:
        out = {
            "status": self.status,
            "order": self.order,
            "min_pivot_hankel": self.min_pivot_hankel,
            "min_pivot_shifted": self.min_pivot_shifted,
        }
        if self.witness_block is not None:
            out["witness"] = {
                "block": self.witness_block,
                "vector": list(self.witness_vector),
                "quadratic_form": self.witness_value,
            }
        return out


def _hankel(values, size: int, offset: int) -> list:
    """The size x size Hankel block of ``values``, starting at ``offset``, as rows."""
    return [list(values[i + offset : i + offset + size]) for i in range(size)]


def _ldl(a: list):
    """Factor the symmetric matrix ``a`` (rows of floats or of Fractions) as
    L diag(pivots) L^T, stopping where it shows that ``a`` is not positive
    semidefinite.

    Returns the pivots found and either None or a vector x meant to give
    x^T a x < 0: at a negative (or NaN) pivot d_k, x = L^-T e_k, whose form
    is d_k; at a zero pivot whose column does not vanish, a combination of
    e_k and the first index j with a nonzero entry c in that column, mapped
    back the same way, whose form is -(|S_jj| + |c|) for the Schur complement
    S.  In float arithmetic the vector is a candidate that the caller
    confirms; in rational arithmetic it is exact.
    """
    m = len(a)
    rows = [[] for _ in range(m)]  # row i of L, left of the diagonal
    pivots = []
    for k in range(m):
        scaled = list(map(operator.mul, rows[k], pivots))  # L_kj * d_j
        column = [a[i][k] - sum(map(operator.mul, rows[i], scaled)) for i in range(k, m)]
        pivot = column[0]
        pivots.append(pivot)
        if pivot > 0 or not any(column):  # a positive pivot, or a zero row
            for i in range(k + 1, m):
                rows[i].append(column[i - k] / pivot if pivot else 0)
            continue
        x = [0] * m
        x[k] = 1
        if pivot == 0:
            j = next(j for j in range(k + 1, m) if column[j - k])
            c = column[j - k]
            scaled = list(map(operator.mul, rows[j], pivots))
            s = a[j][j] - sum(map(operator.mul, rows[j], scaled))  # S_jj
            x[k], x[j] = -(s + abs(s) + abs(c)) / (2 * c), 1
        for i in reversed(range(k)):
            x[i] = 0 - sum(rows[r][i] * x[r] for r in range(i + 1, m) if x[r])  # no -0.0
        return pivots, x
    return pivots, None


def _confirmed_form(block: list, x, tol: float):
    """x^T H x for H = ``block``, as a float, if x^T (H + tol * diag(H)) x < 0
    holds in exact arithmetic over the floats of H, x and tol; else None.

    Every finite float is n / 2^k, so each sum is taken over integers on the
    largest power-of-two denominator and divided once.
    """
    from fractions import Fraction

    support = [(i, *v.as_integer_ratio()) for i, v in enumerate(x) if v]
    pairs, diagonal = [], []
    for i, a, c in support:
        row = block[i]
        for j, b, d in support:
            n, q = row[j].as_integer_ratio()
            pairs.append((a * b * n, c * d * q))
            if i == j:
                diagonal.append(pairs[-1])
    form = _dyadic_sum(pairs)
    if form + Fraction(tol) * _dyadic_sum(diagonal) < 0:
        return _as_float(form)
    return None


def _dyadic_sum(terms):
    """The exact sum of n / d over the pairs (n, d), every d a power of two."""
    from fractions import Fraction

    top = max(d for _, d in terms)
    return Fraction(sum(n * (top // d) for n, d in terms), top)


def _as_float(q) -> float:
    """The rational q as a float, or the infinity of its sign past the largest float."""
    try:
        return float(q)
    except OverflowError:  # copysign would convert q to a float again
        return math.inf if q > 0 else -math.inf


def _unit(x) -> list:
    """x scaled by the power of two that puts its largest entry in [1, 2)."""
    shift = 1 - math.frexp(max(map(abs, x)))[1]
    return [math.ldexp(v, shift) for v in x]


def _decide_block(block: list, tol: float):
    """Decide whether H + tol * diag(H) is positive semidefinite for the
    Hankel block H = ``block``.

    Returns the smallest scaled pivot and, when the block fails, a float
    witness x, scaled by a power of two to a largest entry in [1, 2), whose
    form against H + tol * diag(H) is negative in exact arithmetic, with
    x^T H x (else None, None).  A negative diagonal entry h_ii refutes with
    x = e_i.  Otherwise a float LDL^T of D^-1/2 H D^-1/2 + tol * I decides
    (D = diag(H), with unit scale on zero diagonal entries): positive pivots
    pass, and at the first failing pivot the witness D^-1/2 L^-T e_k is
    confirmed exactly.  A zero pivot, or a witness that is not finite or not
    confirmed, hands the block to an exact LDL^T of H + tol * diag(H) in
    Fractions, which decides it.
    """
    m = len(block)
    diag = [block[i][i] for i in range(m)]
    negative = next((i for i, h in enumerate(diag) if h < 0), None)
    if negative is not None:
        x = [float(i == negative) for i in range(m)]
        return -(1.0 + tol), x, _confirmed_form(block, x, tol)
    scale = [1.0 / math.sqrt(h) if h > 0 else 1.0 for h in diag]
    a = []  # the lower triangle, which is all that _ldl reads
    for i, si in enumerate(scale):
        row = [si * h * sj for h, sj in zip(block[i][:i], scale)]
        row.append(1.0 + tol if diag[i] > 0 else 0.0)
        a.append(row)
    pivots, z = _ldl(a)
    if z is None and min(pivots) > 0:
        return min(pivots), None, None
    if z is not None:
        x = [si * zi for si, zi in zip(scale, z)]
        if all(map(math.isfinite, x)):
            x = _unit(x)
            form = _confirmed_form(block, x, tol)
            if form is not None:
                return min(pivots), x, form
    from fractions import Fraction

    exact = [[Fraction(h) for h in row] for row in block]
    for i in range(m):
        exact[i][i] *= 1 + Fraction(tol)
    pivots, z = _ldl(exact)
    low = _as_float(min(p / Fraction(h) if h > 0 else p for p, h in zip(pivots, diag)))
    if z is not None:
        top = max(map(abs, z))  # divide by a power of two near it, so no entry overflows
        unit = Fraction(2) ** (top.numerator.bit_length() - top.denominator.bit_length())
        x = _unit([float(v / unit) for v in z])
        form = _confirmed_form(block, x, tol)
        if form is not None:
            return low, x, form
    # passed, or failed by less than a float64 witness can exhibit
    return low, None, None


def check_stieltjes(seq, tol: float = 1e-9) -> StieltjesVerdict:
    """Test a finite prefix for consistency with a halfline moment problem.

    Builds the Hankel matrix H of the sequence and of its one-step shift at
    the largest sizes the prefix supports and requires H + tol * diag(H) to
    be positive semidefinite for both; equivalently, the smallest eigenvalue
    of the unit-diagonal scaling D^-1/2 H D^-1/2 is at least -tol.  A
    refutation is emitted only with a witness checked in exact arithmetic;
    when both blocks fail, the one with the more negative pivot supplies it.
    """
    values = as_values(seq)
    order = len(values) - 1
    if order < 2:
        raise ValueError("the Hankel test needs t_0..t_N with N >= 2")
    for n, t in enumerate(values):
        if not math.isfinite(t):
            raise ValueError(f"moment t_{n} = {t} is not finite")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"the Hankel tolerance must be nonnegative and finite, got {tol}")
    blocks = {}
    blocks["hankel"] = _hankel(values, order // 2 + 1, 0)
    blocks["shifted-hankel"] = _hankel(values, (order - 1) // 2 + 1, 1)
    pivots = {}
    worst = None
    for name, H in blocks.items():
        pivot, vector, form = _decide_block(H, tol)
        pivots[name] = pivot
        if vector is not None and (worst is None or pivot < worst[0]):
            worst = (pivot, name, vector, form)
    if worst is None:
        return StieltjesVerdict(
            status=CONSISTENT,
            order=order,
            min_pivot_hankel=pivots["hankel"],
            min_pivot_shifted=pivots["shifted-hankel"],
        )
    _, name, vector, form = worst
    return StieltjesVerdict(
        status=REFUTED,
        order=order,
        min_pivot_hankel=pivots["hankel"],
        min_pivot_shifted=pivots["shifted-hankel"],
        witness_block=name,
        witness_vector=tuple(vector),
        witness_value=form,
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


class DeterminacyDiagnostic(Record):
    """Finite-data Carleman diagnostic.

    ``partial_sums`` are the partial sums of t_n^(-1/(2n)); the label is a
    trend read off a log-log fit of t_n^(1/(2n)) and never a theorem, so any
    certificate leaning on it must stay conditional.
    """

    __slots__ = ("label", "growth_exponent", "partial_sums", "terms")

    def __init__(
        self, label: str, growth_exponent: float | None, partial_sums: tuple, terms: tuple
    ):
        set_field(self, "label", label)
        set_field(self, "growth_exponent", growth_exponent)
        set_field(self, "partial_sums", partial_sums)
        set_field(self, "terms", terms)

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
DIVERGENCE_THRESHOLD = 1.05
CONVERGENCE_THRESHOLD = 1.3


def carleman_diagnostic(seq) -> DeterminacyDiagnostic:
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
    mean_x = math.fsum(xs) / len(xs)
    mean_y = math.fsum(ys) / len(ys)
    dx = [x - mean_x for x in xs]
    slope = math.fsum(a * (y - mean_y) for a, y in zip(dx, ys)) / math.fsum(a * a for a in dx)
    if slope <= DIVERGENCE_THRESHOLD:
        label = DIVERGENCE
    elif slope >= CONVERGENCE_THRESHOLD:
        label = CONVERGENCE
    else:
        label = INCONCLUSIVE
    return DeterminacyDiagnostic(
        label=label,
        growth_exponent=slope,
        partial_sums=tuple(sums),
        terms=tuple(terms),
    )


class QuadratureResult(Record):
    """Measure reconstructed from moments, with the numerical rank that was
    actually used (fewer atoms than requested when the Hankel data is
    singular) and the Hankel verdict of the input (None for a two-moment
    prefix)."""

    __slots__ = ("measure", "requested", "rank", "verdict")

    def __init__(
        self, measure: AtomicMeasure, requested: int, rank: int,
        verdict: StieltjesVerdict | None = None,
    ):
        set_field(self, "measure", measure)
        set_field(self, "requested", requested)
        set_field(self, "rank", rank)
        set_field(self, "verdict", verdict)

    def as_dict(self) -> dict:
        return {
            "measure": self.measure.as_dict(),
            "requested_atoms": self.requested,
            "rank": self.rank,
        }


def _recurrence_from_moments(m: tuple, k: int):
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
        if b <= RANK_TOL * (1.0 + alphas[j - 1] ** 2):
            return alphas[:j], betas[1:j]
        a = sigma_next[j + 1] / sigma_next[j] - sigma_curr[j] / sigma_curr[j - 1]
        alphas.append(a)
        betas.append(b)
        sigma_prev = sigma_curr
        sigma_curr = sigma_next
    return alphas, betas[1:]


def _jacobi_eigen(alphas, betas):
    """Eigenvalues of the Jacobi matrix with diagonal ``alphas`` and squared
    off-diagonal ``betas``, in ascending order, with the squared first
    components of their unit eigenvectors: the nodes and normalized weights
    of Gauss quadrature (Golub and Welsch).  Implicit QL with Wilkinson
    shifts (``tqli``), carrying only the first row of the eigenvector matrix
    through the plane rotations.
    """
    d = list(alphas)
    e = [math.sqrt(b) for b in betas] + [0.0]
    n = len(d)
    z = [1.0] + [0.0] * (n - 1)
    for low in range(n):
        for _ in range(60):
            m = low
            while m < n - 1 and abs(e[m]) > 2.0**-52 * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == low:
                break
            g = (d[low + 1] - d[low]) / (2.0 * e[low])
            g = d[m] - d[low] + e[low] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in reversed(range(low, m)):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # the rotation underflowed: split the matrix here
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                z[i], z[i + 1] = c * z[i] - s * z[i + 1], s * z[i] + c * z[i + 1]
            else:
                d[low] -= p
                e[low] = g
                e[m] = 0.0
        else:
            raise ValueError("the Jacobi eigenvalue iteration did not converge")
    order = sorted(range(n), key=d.__getitem__)
    return [d[i] for i in order], [z[i] ** 2 for i in order]


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


def _decimal_newton(nodes, masses, values, digits: int = 50, iterations: int = 10):
    """Solve the moment equations for the atoms by Newton's method in
    extended precision: the fallback of :func:`_newton_polish`.

    Each step forms the Jacobian and the residual with ``digits`` working
    digits and solves for the step by :func:`_solve`.  Iteration stops
    early at a step below 10^(8 - digits), or at a Jacobian J singular to
    within ||J||_1 * 2^-178: the rule of the 179-bit ``lu_solve`` that the
    tests run as this polish's oracle.
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


def _seed_lu(nodes, masses):
    """LU factors, by partial pivoting, of the Jacobian J of the moment map
    at the float seed (row n: x_i^n, then n w_i x_i^(n-1)), in float64: the
    rows with the multipliers below the diagonal, and the row order.  None
    where a column's largest entry is not finite, or a pivot falls below
    2^-26 of that entry or below ||J||_1 * 2^-150, well above the
    ||J||_1 * 2^-178 at which :func:`_solve` calls J singular."""
    r = len(nodes)
    size = 2 * r
    rows = []
    low, high = [0.0] * r, [1.0] * r  # x^(n-1), x^n
    for n in range(size):
        rows.append(high + [n * a * b for a, b in zip(masses, low)])
        low, high = high, list(map(operator.mul, high, nodes))
    columns = [list(map(abs, column)) for column in zip(*rows)]
    floor = max(map(sum, columns)) * 2.0**-150
    floors = [max(floor, max(column) * 2.0**-26) for column in columns]
    if not all(0.0 < f < math.inf for f in floors):
        return None
    order = list(range(size))
    for j in range(size):
        column = [abs(row[j]) for row in rows[j:]]
        largest = max(column)
        if not largest >= floors[j]:
            return None
        p = j + column.index(largest)
        rows[j], rows[p] = rows[p], rows[j]
        order[j], order[p] = order[p], order[j]
        top = rows[j]
        pivot, tail = top[j], top[j + 1 :]
        for row in rows[j + 1 :]:
            f = row[j] = row[j] / pivot
            row[j + 1 :] = [a - f * b for a, b in zip(row[j + 1 :], tail)]
    return rows, order


def _lu_solve(rows, order, rhs):
    """Solve with the factors of :func:`_seed_lu`, in float64."""
    y = [rhs[k] for k in order]
    for i, row in enumerate(rows):
        y[i] -= sum(map(operator.mul, row[:i], y[:i]))
    for i in reversed(range(len(rows))):
        row = rows[i]
        y[i] = (y[i] - sum(map(operator.mul, row[i + 1 :], y[i + 1 :]))) / row[i]
    return y


def _newton_polish(nodes, masses, values, digits: int = 50, iterations: int = 10):
    """Solve the moment equations for the atoms in extended precision.

    The moment map is badly conditioned: in double precision a residual at
    machine level still leaves the atoms off by orders of magnitude more.
    Seeded by the eigen-decomposition estimate, already accurate to about
    1e-13, a chord iteration recovers the atoms of the given moments
    essentially exactly; the only remaining error is the rounding of the
    moments themselves.  It is mixed-precision iterative refinement (Moler,
    J. ACM 14, 1967): the Jacobian is factored once, at the seed, in
    float64 (:func:`_seed_lu`); each step forms the residual
    m_n - sum_i w_i x_i^n with ``digits`` working digits, solves for the
    step with those factors, and adds it with ``digits`` digits.  Iteration
    stops at a step below 10^(8 - digits).

    The decimal Newton iteration (:func:`_decimal_newton`) runs from the
    seed instead wherever the chord cannot vouch for its result: a small
    pivot (see :func:`_seed_lu`), a step that is not finite or does not
    shrink by 2^-20 against the one before, no stop within ``iterations``
    steps, a stop at the first step on a nonzero residual (where
    10^(8 - digits) is not small against the atoms), or a ``decimal``
    signal.  Both iterations stop within about 10^(8 - digits) of the same
    root, so they return the same floats.
    """
    from decimal import Decimal, localcontext

    factors = _seed_lu(nodes, masses)
    if factors is None:
        return _decimal_newton(nodes, masses, values, digits, iterations)
    r = len(nodes)
    with localcontext() as ctx:
        ctx.prec = digits + 3
        x = [Decimal(float(v)) for v in nodes]
        w = [Decimal(float(v)) for v in masses]
        m = [Decimal(float(v)) for v in values[: 2 * r]]
        stop = Decimal(10) ** (8 - digits)
        bound = math.inf  # the largest step allowed next
        try:
            for k in range(iterations):
                residual, terms = [m[0] - sum(w)], w  # terms: w_i x_i^n
                for n in range(1, 2 * r):
                    terms = list(map(operator.mul, terms, x))
                    residual.append(m[n] - sum(terms))
                step = _lu_solve(*factors, list(map(float, residual)))
                size = max(map(abs, step))
                if not (all(map(math.isfinite, step)) and size <= bound):
                    break
                w = [a + Decimal(b) for a, b in zip(w, step)]
                x = [a + Decimal(b) for a, b in zip(x, step[r:])]
                if size < stop:
                    if k == 0 and any(residual):
                        break
                    return [float(v) for v in x], [float(v) for v in w]
                bound = size * 2.0**-20
        except ArithmeticError:
            pass
    return _decimal_newton(nodes, masses, values, digits, iterations)


def quadrature_from_moments(seq, tol: float = 1e-9) -> QuadratureResult:
    """Reconstruct an atomic measure from the leading 2k moments.

    The recurrence coefficients feed a symmetric tridiagonal (Jacobi) matrix
    whose eigenvalues are the atom positions and whose first eigenvector
    components give the masses; a chord iteration against the moment
    equations, on one float LU of their Jacobian with residuals in
    ``decimal`` (full Newton steps in ``decimal`` where the chord cannot
    vouch for its result, :func:`_newton_polish`), then polishes both.  A
    k-atom measure matches the first 2k moments.
    Refuted input raises :class:`RefutedSequenceError`, and a negative node
    :class:`QuadratureError`; a numerically singular Hankel yields fewer
    atoms, reported via ``rank``.
    """
    values = as_values(seq)
    if len(values) < 2:
        raise ValueError("need at least two moments")
    verdict = None
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
    alphas, betas = _recurrence_from_moments(values, k)
    rank = len(alphas)
    nodes, first_components_sq = _jacobi_eigen(alphas, betas)
    masses = [values[0] * w for w in first_components_sq]
    nodes, masses = _newton_polish(nodes, masses, values[: 2 * rank])
    scale = max(1.0, max(map(abs, nodes)))
    atoms = []
    for x, w in zip(nodes, masses):
        if x < -1e-9 * scale:
            raise QuadratureError(f"negative quadrature node {x}", verdict)
        if w > 0.0:
            atoms.append((max(x, 0.0), w))
    return QuadratureResult(
        measure=AtomicMeasure(tuple(atoms)), requested=k, rank=rank, verdict=verdict
    )
