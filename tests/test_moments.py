import functools
import math
import operator
import random
import struct
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from treeshift import (
    AtomicMeasure,
    NoBackwardExtensionError,
    RefutedSequenceError,
    backward_extend,
    carleman_diagnostic,
    cauchy_schwarz_bound,
    check_stieltjes,
    forward_map,
    quadrature_from_moments,
    superpose,
)
from treeshift import moments
from treeshift.moments import MERGE_TOL, measure_from_json

from conftest import random_probability_measure, stratified_atoms


# -- atomic measures -----------------------------------------------------------


def test_canonical_form_merges_and_sorts():
    m = AtomicMeasure(((2.0, 0.25), (1.0, 0.5), (2.0 + 1e-13, 0.25)))
    assert m.atoms == ((1.0, 0.5), (2.0, 0.5))
    assert m.total_mass == 1.0
    with pytest.raises(ValueError, match="negative"):
        AtomicMeasure(((-1.0, 0.5),))
    with pytest.raises(ValueError, match="negative"):
        AtomicMeasure(((1.0, -0.5),))
    assert AtomicMeasure(((1.0, 0.0),)).atoms == ()


def test_non_finite_atoms_are_rejected():
    for atoms, bad in (
        (((math.nan, 1.0),), "position nan"),
        (((math.inf, 1.0),), "position inf"),
        (((-math.inf, 1.0),), "position -inf"),
        (((1.0, math.nan),), "mass nan"),
        (((1.0, math.inf),), "mass inf"),
        (((math.nan, 1.0), (1.0, math.inf)), "position nan"),
    ):
        with pytest.raises(ValueError, match=f"atom {bad} is not finite"):
            AtomicMeasure(atoms)


def test_non_finite_moments_are_rejected():
    with pytest.raises(ValueError, match="t_1 = nan is not finite"):
        check_stieltjes((1.0, math.nan, 1.0))
    with pytest.raises(ValueError, match="t_2 = -inf is not finite"):
        check_stieltjes((1.0, 1.0, -math.inf))


# -- the superposition kernel --------------------------------------------------


def _seed_canonical(atoms) -> tuple:
    """The canonical form, kept here as an independent oracle for the
    kernel: each position merges into the atom it lies within
    ``MERGE_TOL * max(1, start)`` of."""
    pairs = sorted((max(x, 0.0), w) for x, w in atoms if w != 0.0)
    merged = []
    for x, w in pairs:
        if merged and x - merged[-1][0] <= MERGE_TOL * max(1.0, merged[-1][0]):
            merged[-1][1] += w
        else:
            merged.append([x, w])
    return tuple((x, w) for x, w in merged)


def _seed_fold(terms, power, deficit) -> tuple:
    """Left fold of plus(times_power(power).scaled(c)), then the deficit at
    zero, with every intermediate measure canonicalized as before the kernel."""
    acc = ()
    for c, mu in terms:
        reweighted = _seed_canonical(
            (x, w * x**power) for x, w in mu.atoms if x > 0.0 or power <= 0
        )
        acc = _seed_canonical(acc + _seed_canonical((x, w * c) for x, w in reweighted))
    if deficit > 0.0:
        acc = _seed_canonical(acc + ((0.0, deficit),))
    return acc


# positions on a grid, plus chains whose neighbours lie within MERGE_TOL * max(1, x)
_POSITIONS = [0.0, 3e-13, 0.25, 0.5, 1.0, 1.7, 2.0, 3.0, 10.0]
_POSITIONS += [1.0 + k * 0.6 * MERGE_TOL for k in range(1, 5)]
_POSITIONS += [2.0 - 0.9 * MERGE_TOL, 2.0 + 0.9 * MERGE_TOL]
_POSITIONS += [3e5 * (1.0 + k * 0.6 * MERGE_TOL) for k in range(4)]
_masses = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False)
_measures = st.lists(
    st.tuples(st.sampled_from(_POSITIONS), _masses), min_size=0, max_size=6
).map(lambda atoms: AtomicMeasure(tuple(atoms)))


@settings(max_examples=300, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=5.0), _measures), max_size=6
    ),
    power=st.integers(min_value=-3, max_value=3),
    deficit=st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=2.0)),
)
def test_superpose_equals_the_left_fold_exactly(terms, power, deficit):
    if power < 0:
        terms = [(c, mu) for c, mu in terms if mu.mass_at_zero == 0.0]
    got = superpose(terms, power, deficit)
    assert got.atoms == _seed_fold(terms, power, deficit)
    fold = AtomicMeasure.zero()
    for c, mu in terms:
        fold = fold.plus(mu.times_power(power).scaled(c))
    if deficit > 0.0:
        fold = fold.plus(AtomicMeasure.delta(0.0, deficit))
    assert got.atoms == fold.atoms
    assert AtomicMeasure(got.atoms).atoms == got.atoms  # canonical


def test_plus_refuses_a_mass_that_overflows():
    big = AtomicMeasure.delta(1.0, 1e308)
    with pytest.raises(ValueError, match="superposed mass at x = 1.0 is not finite: inf"):
        big.plus(big)
    # merged positions overflow too, whatever their order
    near = AtomicMeasure.delta(1.0 + 0.6 * MERGE_TOL, 1e308)
    with pytest.raises(ValueError, match="not finite"):
        near.plus(big)


# masses up to 1.4e307: twelve of them at one position still sum finitely
_wide_measures = st.lists(
    st.tuples(
        st.sampled_from(_POSITIONS),
        st.one_of(_masses, st.floats(min_value=1e-300, max_value=1.4e307)),
    ),
    max_size=6,
).map(lambda atoms: AtomicMeasure(tuple(atoms)))


@settings(max_examples=300, deadline=None)
@given(mu=_wide_measures, nu=_wide_measures)
def test_plus_keeps_the_bits_of_the_canonical_route(mu, nu):
    assert mu.plus(nu).atoms == moments._canonical([*mu.atoms, *nu.atoms])


@settings(max_examples=300, deadline=None)
@given(
    mu=_measures,
    d=st.one_of(
        st.floats(min_value=1e-300, max_value=1e300),
        st.floats(min_value=5e-324, max_value=5e-309),
    ),
)
def test_divided_scales_by_the_reciprocal_or_divides_each_mass(mu, d):
    # bit for bit the scaling by 1/d wherever 1/d is finite; where it
    # overflows (d below about 5.6e-309), each mass divided by d, and a
    # quotient past the largest float raises
    if 1.0 / d < math.inf:
        assert mu.divided(d).atoms == mu.scaled(1.0 / d).atoms
        return
    expected = tuple((x, w / d) for x, w in mu.atoms)
    if all(w < math.inf for _, w in expected):
        assert mu.divided(d).atoms == expected
    else:
        with pytest.raises(ValueError, match="is not finite: inf"):
            mu.divided(d)


def test_divided_normalizes_a_measure_whose_mass_is_subnormal():
    tiny = AtomicMeasure(((0.5, 1e-320), (2.0, 3e-320)))
    assert 1.0 / tiny.total_mass == math.inf
    assert tiny.divided(tiny.total_mass).atoms == ((0.5, 0.25), (2.0, 0.75))
    with pytest.raises(ValueError, match="superposed mass at x = 2.0 is not finite"):
        AtomicMeasure.delta(2.0, 1.0).divided(1e-320)


def test_superpose_refuses_inverse_powers_of_mass_at_zero():
    terms = [(1.0, AtomicMeasure.delta(1.0)), (2.0, AtomicMeasure.delta(0.0))]
    with pytest.raises(ValueError, match="positive mass at zero"):
        superpose(terms, -1)
    assert superpose(terms, 1).atoms == ((1.0, 1.0),)
    with pytest.raises(ValueError, match="nonnegative"):
        superpose([(-1.0, AtomicMeasure.delta(1.0))], 0)


@pytest.mark.parametrize("deficit", [math.nan, -1.0])
def test_superpose_refuses_a_deficit_that_is_not_nonnegative(deficit):
    # NaN compares false both ways, so it must not slip past the sign check
    with pytest.raises(ValueError, match=f"deficit mass must be nonnegative, got {deficit}"):
        superpose([(1.0, AtomicMeasure.delta(1.0))], 0, deficit=deficit)


def test_superpose_refuses_masses_that_overflow():
    huge = AtomicMeasure.delta(2.0, 1e300)
    with pytest.raises(ValueError, match=r"mass at x = 2.0 is not finite: inf"):
        huge.scaled(1e300)
    with pytest.raises(ValueError, match=r"overflows: x\*\*2 at x = 1e\+200"):
        AtomicMeasure.delta(1e200).times_power(2)
    with pytest.raises(ValueError, match=r"overflows: x\*\*-2 at x = 1e-300"):
        AtomicMeasure.delta(1e-300).times_power(-2)
    with pytest.raises(ValueError, match="mass at x = 1e-200 is not finite: inf"):
        AtomicMeasure.delta(1e-200, 1e300).times_power(-1)
    # two finite masses whose merged sum overflows
    terms = [(1.0, AtomicMeasure.delta(1.0, 1e308)), (1.0, AtomicMeasure.delta(1.0, 1e308))]
    with pytest.raises(ValueError, match="mass at x = 1.0 is not finite"):
        superpose(terms, 0)
    with pytest.raises(ValueError, match="not finite: nan"):
        superpose([(math.nan, AtomicMeasure.delta(1.0))], 0)
    with pytest.raises(ValueError, match="not finite: inf"):
        superpose([(1.0, AtomicMeasure.delta(1.0))], 0, deficit=math.inf)
    assert huge.scaled(1.0).atoms == ((2.0, 1e300),)


def test_moments_that_overflow_name_order_and_atom():
    mu = AtomicMeasure(((1.0, 0.5), (1e200, 0.5)))
    assert mu.moments(1) == (1.0, 0.5 + 0.5e200)
    # moments(3) takes the orders one by one, moments(20) forms columns first
    for call in (lambda: mu.moments(3), lambda: mu.moments(20), lambda: mu.moment(2)):
        with pytest.raises(ValueError, match=r"moment of order 2 overflows: .* x = 1e\+200, w = 0.5"):
            call()
    with pytest.raises(ValueError, match="moment of order -2 overflows"):
        AtomicMeasure.delta(1e-200).moment(-2)
    # no single power overflows, but the sum does
    for n_max in (0, 20):
        with pytest.raises(ValueError, match="moment of order 0 overflows$"):
            AtomicMeasure(((1.0, 1e308), (2.0, 1e308))).moments(n_max)


@settings(max_examples=200, deadline=None)
@given(measure=_measures, n=st.integers(min_value=0, max_value=12))
def test_moments_equal_moment_by_order_exactly(measure, n):
    with_zero = measure.plus(AtomicMeasure.delta(0.0, 0.5))
    for mu in (measure, with_zero):
        assert mu.moments(n) == tuple(mu.moment(k) for k in range(n + 1))


def _moments_one_by_one(mu, n_max):
    """mu.moment(k) for k = 0..n_max, or the message of the first that raises."""
    out = []
    for k in range(n_max + 1):
        try:
            out.append(mu.moment(k))
        except ValueError as err:
            return str(err)
    return tuple(out)


_atom_lists = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3)),
        st.floats(min_value=1e-300, max_value=1e3),
    ),
    min_size=1,
    max_size=4,
)
_orders = st.integers(min_value=0, max_value=200)


@settings(max_examples=400, deadline=None)
@given(atoms=_atom_lists, n_max=_orders)
def test_moments_equal_moment_by_order_on_both_orientations(atoms, n_max):
    # n_max up to 200 on one to four atoms takes both the per-order loop and
    # the per-atom columns, and positions up to 1e3 overflow on either
    mu = AtomicMeasure(tuple(atoms))
    expected = _moments_one_by_one(mu, n_max)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as raised:
            mu.moments(n_max)
        assert str(raised.value) == expected
    else:
        assert mu.moments(n_max) == expected


def _rows_or_error(call):
    """The reprs of the rows a call returns, or the message of its ValueError."""
    try:
        return [repr(x) for x in call()]
    except ValueError as err:
        return str(err)


@settings(max_examples=400, deadline=None)
@given(atoms=_atom_lists, n_max=_orders, earlier=st.lists(_orders, max_size=3))
def test_shared_powers_keep_the_bits_of_moment(atoms, n_max, earlier):
    # a certificate forms each position's powers once for all its measures:
    # other measures on the same positions ask first, at other orders, so
    # the powers are reused, cut short and extended; every row keeps the
    # bits of moment(k), and an overflow raises what moments() raises
    mu = AtomicMeasure(tuple(atoms))
    powers = moments._power_cache()
    for n in earlier:
        _rows_or_error(lambda: moments._moment_rows(mu.scaled(0.5).atoms, n, powers))
    expected = _moments_one_by_one(mu, n_max)
    got = _rows_or_error(lambda: moments._moment_rows(mu.atoms, n_max, powers))
    if isinstance(expected, str):
        assert got == expected == _rows_or_error(lambda: mu.moments(n_max))
    else:
        assert got == [repr(x) for x in expected]


def test_two_columns_whose_sum_overflows_raise_what_moment_raises():
    # each product is finite at every order, but the two masses near 0.6e308
    # add past the largest float at order 2
    mu = AtomicMeasure(((1.2, 0.6e308), (1.3, 0.6e308)))
    assert _moments_one_by_one(mu, 2) == "moment of order 2 overflows"
    for n_max in (9, 20, 200):
        assert _rows_or_error(lambda: mu.moments(n_max)) == "moment of order 2 overflows"
    assert mu.moments(1) == (1.2e308, 0.6e308 * 1.2 + 0.6e308 * 1.3)


def test_an_infinite_product_gives_the_row_fsum_gives():
    # w * x**n overflows to inf from order 2 on while x**n stays finite up to
    # order 61: one column and two columns alike read inf, as fsum does
    heavy = (1e5, 1e300)
    for atoms in ((heavy,), ((2.0, 0.5), heavy)):
        mu = AtomicMeasure(atoms)
        want = [repr(math.fsum(w * x**n for x, w in atoms)) for n in range(41)]
        assert want[2] == "inf" and want[1] != "inf"
        assert _rows_or_error(lambda: mu.moments(40)) == want
        assert want == [repr(x) for x in _moments_one_by_one(mu, 40)]
        assert _rows_or_error(lambda: mu.moments(70)) == _moments_one_by_one(mu, 70)
        assert _moments_one_by_one(mu, 70).startswith("moment of order 62 overflows")


def test_one_and_two_atoms_share_the_powers_of_a_certificate():
    # one cache for a one-atom and a two-atom measure on a common position,
    # asked in turn at growing orders so the shared powers are reused and
    # extended across both sums
    one = AtomicMeasure.delta(1.5)
    two = AtomicMeasure(((1.5, 0.25), (2.5, 0.75)))
    powers = moments._power_cache()
    for mu, n_max in ((one, 12), (two, 30), (one, 60), (two, 45), (two, 90)):
        got = [repr(x) for x in moments._moment_rows(mu.atoms, n_max, powers)]
        assert got == [repr(x) for x in _moments_one_by_one(mu, n_max)]


def test_a_negative_zero_position_reads_zero():
    # fsum of -0.0 is 0.0, so a one-atom column at -0.0 would keep -0.0 at
    # the odd orders where moment() reads 0.0; the canonical form reads 0.0
    for x in (-0.0, -0.5 * MERGE_TOL):
        mu = AtomicMeasure.delta(x)
        assert repr(mu.atoms) == "((0.0, 1.0),)"
        assert [repr(v) for v in mu.moments(20)] == [repr(v) for v in _moments_one_by_one(mu, 20)]


def _routed_measures(seed=3030):
    """Seeded measures from every route that builds one: the constructor
    (with an atom at zero), superpose (a deficit, a power and a scale),
    divided (by a reciprocal and, past the largest float, mass by mass),
    plus, parent_from_children and a quadrature fit."""
    from treeshift import WeightedShift, make_family, parent_from_children

    rng = random.Random(seed)

    def atoms(k, lo=0.15, hi=10.0):
        return tuple((rng.uniform(lo, hi), rng.uniform(0.05, 1.0)) for _ in range(k))

    out = []
    for _ in range(40):
        mu = AtomicMeasure(atoms(rng.randint(1, 5)))
        nu = AtomicMeasure(((0.0, rng.uniform(0.1, 1.0)), *atoms(rng.randint(1, 3))))
        c = rng.uniform(0.3, 1.0) / mu.moment(-1)
        shift = WeightedShift(make_family("unilateral", 1), {1: math.sqrt(c)})
        out += [
            mu,
            nu,
            superpose(((rng.uniform(0.1, 3.0), mu), (rng.uniform(0.1, 3.0), nu)), 1, 0.25),
            superpose(((rng.uniform(0.1, 3.0), mu),), -1),
            mu.scaled(rng.uniform(0.1, 3.0)),
            mu.divided(rng.uniform(0.1, 3.0)),
            mu.scaled(1e-4).divided(1e-310),
            mu.plus(nu),
            parent_from_children(shift, 0, {1: mu})[0],
            quadrature_from_moments(mu.moments(2 * len(mu.atoms) - 1)).measure,
        ]
    assert 1.0 / 1e-310 == math.inf
    return out


def _cutoffs(mu):
    """Each atom's position and its neighbours one ulp away, zero of both
    signs, a height below the first atom, inf and NaN."""
    cuts = [0.0, -0.0, -1.0, math.inf, math.nan]
    if mu.atoms:
        cuts.append(mu.atoms[0][0] / 2.0)
    for x, _ in mu.atoms:
        cuts += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
    return cuts


def test_window_prefix_equals_the_filtered_atoms_bit_for_bit():
    # restricted and mass_upto read the prefix of the canonical atoms at or
    # below the cutoff; the constructor over the filtered atoms and the fsum
    # of their masses must give the same bits at every cutoff
    checked = 0
    for mu in _routed_measures():
        for c in _cutoffs(mu):
            kept = tuple((x, w) for x, w in mu.atoms if x <= c)
            assert repr(mu.restricted(c).atoms) == repr(AtomicMeasure(kept).atoms), (mu, c)
            assert repr(mu.mass_upto(c)) == repr(math.fsum(w for _, w in kept)), (mu, c)
            checked += bool(kept) and len(kept) < len(mu.atoms)
    assert checked > 1000


def test_moments_of_examples():
    d0 = AtomicMeasure.delta(0.0)
    assert d0.moments(4) == (1.0, 0.0, 0.0, 0.0, 0.0)
    d1 = AtomicMeasure.delta(1.0)
    assert d1.moments(4) == (1.0, 1.0, 1.0, 1.0, 1.0)
    mix = AtomicMeasure(((1.0, 0.5), (2.0, 0.5)))
    assert mix.moments(3) == (1.0, 1.5, 2.5, 4.5)


def test_inverse_moments():
    assert AtomicMeasure.delta(1.0).moment(-1) == 1.0
    assert AtomicMeasure.delta(0.0).moment(-1) == math.inf
    mix = AtomicMeasure(((1.0, 0.5), (2.0, 0.5)))
    assert mix.moment(-1) == pytest.approx(0.75)
    assert mix.moment(-2) == pytest.approx(0.5 + 0.125)


def test_measure_json_roundtrip():
    m = AtomicMeasure(((0.0, 0.25), (1.5, 0.75)))
    assert measure_from_json(m.as_dict()).atoms == m.atoms


# -- Hankel test ----------------------------------------------------------------


def test_check_stieltjes_examples():
    assert check_stieltjes([1, 1, 1, 1, 1]).consistent
    v = check_stieltjes([1.0, 1.0, 0.0, 0.0])
    assert not v.consistent
    assert v.witness_value < 0
    assert check_stieltjes([1, 1.5, 2.5, 4.5]).consistent
    with pytest.raises(ValueError):
        check_stieltjes([1.0, 2.0])


def test_check_stieltjes_negative_t0():
    v = check_stieltjes([-1.0, 1.0, 1.0])
    assert not v.consistent


def test_check_stieltjes_shifted_block_refutes_halfline():
    # alternating moments come from a measure on the whole line, not the
    # half line: only the shifted block exposes it
    v = check_stieltjes([1.0, 0.0, 1.0, 0.0])
    assert not v.consistent
    assert v.witness_block == "shifted-hankel"
    assert v.min_pivot_hankel >= 0.0


def test_witness_quadratic_form_is_verifiable(rng):
    for _ in range(25):
        mu = random_probability_measure(rng)
        t = list(mu.moments(6))
        # force a negative two-by-two minor
        t[2] = t[1] ** 2 / t[0] * rng.uniform(0.1, 0.6)
        v = check_stieltjes(t)
        assert not v.consistent
        # recompute the quadratic form from the witness
        alpha = np.array(v.witness_vector)
        offset = 0 if v.witness_block == "hankel" else 1
        H = np.array(
            [[t[i + j + offset] for j in range(len(alpha))] for i in range(len(alpha))]
        )
        assert alpha @ H @ alpha == pytest.approx(v.witness_value)
        assert v.witness_value < -1e-9


def test_no_false_refutations(rng):
    for _ in range(100):
        mu = random_probability_measure(rng, max_atoms=4, lo=0.0, hi=10.0)
        assert check_stieltjes(mu.moments(10)).consistent


def test_shift_refutation_propagates_back(rng):
    # if the shifted-by-one sequence is refuted, so is the original
    hits = 0
    for _ in range(200):
        t = [float(x) for x in rng.uniform(0.1, 3.0, size=9)]
        t[0] = 1.0
        shifted = check_stieltjes(t[1:])
        if shifted.consistent:
            continue
        hits += 1
        assert not check_stieltjes(t).consistent
    assert hits > 20  # random sequences refute often enough to be meaningful


def _low_order_violation(order):
    # moments of (delta_1 + delta_10) / 2 with t_2 lowered to 0.9 t_1^2: the
    # leading 2x2 minor is negative, while the high moments dwarf it
    t = [0.5 + 0.5 * 10.0**n for n in range(order + 1)]
    t[2] = 0.9 * t[1] ** 2
    return t


@pytest.mark.parametrize("order", [4, 8, 12, 16, 24])
def test_large_moments_do_not_hide_a_low_order_violation(order):
    v = check_stieltjes(_low_order_violation(order))
    assert not v.consistent
    assert v.min_pivot_hankel < 0 and v.witness_value < 0


@st.composite
def perturbed_moments(draw, max_order=16):
    """Moments of 1 to 4 atoms, one of them scaled off its value."""
    k = draw(st.integers(1, 4))
    positions = draw(st.lists(st.floats(0.0, 20.0), min_size=k, max_size=k))
    masses = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    order = draw(st.integers(2, max_order))
    t = list(AtomicMeasure(tuple(zip(positions, masses))).moments(order))
    n = draw(st.integers(0, order))
    t[n] *= draw(st.floats(0.5, 1.5))
    return t


def _exact_forms(t, verdict, tol):
    """x^T H x and x^T (H + tol * diag(H)) x for the witness x, in Fractions."""
    from fractions import Fraction

    offset = 0 if verdict.witness_block == "hankel" else 1
    x = [Fraction(a) for a in verdict.witness_vector]
    form = sum(a * b * Fraction(t[i + j + offset]) for i, a in enumerate(x) for j, b in enumerate(x))
    diagonal = sum(a * a * Fraction(t[2 * i + offset]) for i, a in enumerate(x))
    return form, form + Fraction(tol) * diagonal


@settings(max_examples=300, deadline=None)
@given(t=perturbed_moments(), tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
# a subnormal diagonal entry: unscaled, the witness would overflow its form
@example(t=[1.75, 2.0, 2.0, 5e-324], tol=1e-9)
def test_every_witness_has_a_negative_exact_form(t, tol):
    v = check_stieltjes(t, tol=tol)
    if v.consistent:
        return
    form, shifted = _exact_forms(t, v, tol)
    assert shifted < 0 and form < 0
    assert v.witness_value == float(form)


@settings(max_examples=200, deadline=None)
@given(
    t=perturbed_moments(max_order=12),
    cut=st.integers(2, 12),
    extra=st.lists(st.floats(0.0, 1e6), max_size=6),
)
def test_a_refuted_prefix_stays_refuted_when_extended(t, cut, extra):
    prefix = t[: cut + 1]
    if check_stieltjes(prefix).consistent:
        return
    assert not check_stieltjes(t + extra).consistent
    assert not check_stieltjes(prefix + extra).consistent


def test_an_exact_pivot_past_the_largest_float_reads_as_minus_infinity():
    # an example of the property above: the exact fallback's smallest scaled
    # pivot is a Fraction below -max_float
    v = check_stieltjes([1.0, 5.69772716207243e-157, 3.24640948133e-313, 0.0, 1.0, 0.0, 0.0])
    assert not v.consistent
    assert v.min_pivot_hankel == -math.inf


def _scaled_min_eig(t, size, offset):
    H = np.array([[t[i + j + offset] for j in range(size)] for i in range(size)])
    scale = 1.0 / np.sqrt(np.diag(H))
    return np.linalg.eigvalsh(H * np.outer(scale, scale))[0]


def test_verdicts_agree_with_a_scaled_eigenvalue_oracle():
    rng = np.random.default_rng(4401)
    tol = 1e-9
    compared = refuted = 0
    for _ in range(600):
        k = int(rng.integers(1, 5))
        mu = AtomicMeasure(tuple(zip(rng.uniform(0.1, 10.0, k), rng.uniform(0.05, 1.0, k))))
        order = int(rng.integers(2, 17))
        t = list(mu.moments(order))
        t[int(rng.integers(0, order + 1))] *= 1.0 + rng.choice([-1, 1]) * 10 ** rng.uniform(-12, -1)
        lams = [_scaled_min_eig(t, order // 2 + 1, 0), _scaled_min_eig(t, (order - 1) // 2 + 1, 1)]
        if any(abs(lam + tol) <= 1e-6 for lam in lams):
            continue
        compared += 1
        refuted += not check_stieltjes(t, tol=tol).consistent
        assert check_stieltjes(t, tol=tol).consistent == all(lam >= -tol for lam in lams)
    assert compared > 200 and 50 < refuted < compared - 50


def _a_step_below(a):
    # t_2 one float below t_1^2: the 2x2 Hankel block has determinant below
    # zero by half an ulp, which only exact arithmetic sees
    return [1.0, a, math.nextafter(a * a, -math.inf)]


@pytest.mark.parametrize(
    "t, status, vector",
    [
        ([1.0, 3.0, 9.0, 27.0, 81.0], "consistent-up-to-order-N", ()),
        ([1.0, 0.0, 0.0, 0.0, 0.0], "consistent-up-to-order-N", ()),
        (_a_step_below(0.3), "refuted", (-0.3, 1.0)),
        (_a_step_below(1.1), "refuted", (-1.1, 1.0)),
    ],
    ids=["rank-one", "delta-zero", "below-0.3", "below-1.1"],
)
def test_boundary_blocks_are_decided_in_exact_arithmetic(monkeypatch, t, status, vector):
    from fractions import Fraction

    arithmetic = []
    factor = moments._ldl

    def spy(block, scale, diagonal):
        arithmetic.append(type(diagonal[0]))
        return factor(block, scale, diagonal)

    monkeypatch.setattr(moments, "_ldl", spy)
    v = check_stieltjes(t, tol=0.0)
    assert Fraction in arithmetic
    assert v.status == status and v.witness_vector == vector
    if vector:
        assert _exact_forms(t, v, 0.0)[0] < 0
        assert v.min_pivot_hankel < 0


def _verdict_bits(v):
    """Every field of a Hankel verdict, with each float as its bits."""
    bits = functools.partial(struct.pack, "<d")
    return (
        v.status, v.order, bits(v.min_pivot_hankel), bits(v.min_pivot_shifted),
        v.witness_block, tuple(map(bits, v.witness_vector)), bits(v.witness_value),
    )


def _oracle_ldl(a: list):
    """The LDL^T of a lower triangle ``a`` formed in advance (floats or
    Fractions), as the Hankel test ran it before _ldl formed its own entries."""
    m = len(a)
    rows = [[] for _ in range(m)]
    pivots = []
    for k in range(m):
        scaled = list(map(operator.mul, rows[k], pivots))
        column = [a[i][k] - sum(map(operator.mul, rows[i], scaled)) for i in range(k, m)]
        pivot = column[0]
        pivots.append(pivot)
        if pivot > 0 or not any(column):
            for i in range(k + 1, m):
                rows[i].append(column[i - k] / pivot if pivot else 0)
            continue
        x = [0] * m
        x[k] = 1
        if pivot == 0:
            j = next(j for j in range(k + 1, m) if column[j - k])
            c = column[j - k]
            scaled = list(map(operator.mul, rows[j], pivots))
            s = a[j][j] - sum(map(operator.mul, rows[j], scaled))
            x[k], x[j] = -(s + abs(s) + abs(c)) / (2 * c), 1
        for i in reversed(range(k)):
            x[i] = 0 - sum(rows[r][i] * x[r] for r in range(i + 1, m) if x[r])
        return pivots, x
    return pivots, None


def _oracle_positive_pivot(block, scale, tol):
    """The one-pass float factorization that passed positive blocks beside
    _oracle_ldl: the smallest pivot, or None at the first pivot that is not
    positive."""
    m = len(block)
    rows = [[] for _ in range(m)]
    pivots = []
    one = 1.0 + tol
    for k, sk in enumerate(scale):
        scaled = list(map(operator.mul, rows[k], pivots))
        pivot = one - sum(map(operator.mul, rows[k], scaled))
        if not pivot > 0:
            return None
        pivots.append(pivot)
        for i in range(k + 1, m):
            row = rows[i]
            row.append((scale[i] * block[i][k] * sk - sum(map(operator.mul, row, scaled))) / pivot)
    return min(pivots)


def _oracle_decide_block(block, tol):
    """moments._decide_block as it was with two factorizations: the one pass
    for positive blocks, then the formed triangle from its start for the rest.
    Kept as the oracle of the one _ldl."""
    m = len(block)
    diag = [block[i][i] for i in range(m)]
    scale = [1.0 / math.sqrt(h) if h > 0 else 1.0 for h in diag]
    if min(diag) > 0 and (low := _oracle_positive_pivot(block, scale, tol)) is not None:
        return low, None, None
    negative = next((i for i, h in enumerate(diag) if h < 0), None)
    if negative is not None:
        x = [float(i == negative) for i in range(m)]
        return -(1.0 + tol), x, moments._confirmed_form(block, x, tol)
    a = []
    for i, si in enumerate(scale):
        row = [si * h * sj for h, sj in zip(block[i][:i], scale)]
        row.append(1.0 + tol if diag[i] > 0 else 0.0)
        a.append(row)
    pivots, z = _oracle_ldl(a)
    if z is None and min(pivots) > 0:
        return min(pivots), None, None
    if z is not None:
        x = [si * zi for si, zi in zip(scale, z)]
        if all(map(math.isfinite, x)):
            x = moments._unit(x)
            form = moments._confirmed_form(block, x, tol)
            if form is not None:
                return min(pivots), x, form
    exact = [[Fraction(h) for h in row] for row in block]
    for i in range(m):
        exact[i][i] *= 1 + Fraction(tol)
    pivots, z = _oracle_ldl(exact)
    low = moments._as_float(min(p / Fraction(h) if h > 0 else p for p, h in zip(pivots, diag)))
    if z is not None:
        top = max(map(abs, z))
        unit = Fraction(2) ** (top.numerator.bit_length() - top.denominator.bit_length())
        x = moments._unit([float(v / unit) for v in z])
        form = moments._confirmed_form(block, x, tol)
        if form is not None:
            return low, x, form
    return low, None, None


def _oracle_verdict(t, tol):
    """check_stieltjes with every block decided by _oracle_decide_block."""
    with mock.patch.object(moments, "_decide_block", _oracle_decide_block):
        return check_stieltjes(t, tol=tol)


_EDGE_VALUES = [0.0, -0.0, 5e-324, 2.0**-1040, 2.0**-1022, 1.0, -1.0, 1e300, -1e300]


@st.composite
def hankel_inputs(draw):
    """t_0..t_N for N = 2..24: moments of 1 to 13 atoms, scaled into the
    subnormals or towards 1e300, with a few entries perhaps replaced by
    edge values (zero and negative diagonals among them)."""
    order = draw(st.integers(2, 24))
    k = draw(st.integers(1, 13))
    atoms = draw(
        st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.01, 1.0)), min_size=k, max_size=k)
    )
    scale = draw(st.sampled_from([1.0, 1.0, 1e-300, 1e-310, 1e250]))
    t = [v * scale for v in AtomicMeasure(tuple(atoms)).moments(order)]
    for _ in range(draw(st.integers(0, 2))):
        t[draw(st.integers(0, order))] = draw(st.sampled_from(_EDGE_VALUES))
    assume(all(map(math.isfinite, t)))
    return t


@settings(max_examples=400, deadline=None)
@given(t=hankel_inputs(), tol=st.sampled_from([0.0, 1e-9, 1e-3]))
@example(t=[1.0, 3.0, 9.0, 27.0, 81.0], tol=0.0)
@example(t=[1.0, 0.0, 0.0, 0.0, 0.0], tol=1e-9)
@example(t=[1e300, 1e300, 1e300, -1e300, 1e300], tol=1e-3)
@example(t=[5e-324, -0.0, 5e-324, 0.0, 5e-324, 0.0, 5e-324], tol=1e-9)
@example(t=[2.0, 1.0, -1.0, 1.0, 2.0], tol=0.0)
def test_the_one_pass_hankel_route_keeps_every_bit(t, tol):
    assert _verdict_bits(check_stieltjes(t, tol=tol)) == _verdict_bits(_oracle_verdict(t, tol))


def test_the_one_pass_route_decides_most_genuine_blocks():
    # genuine moments of 1 to 13 atoms, N = 2..24: every verdict is the
    # oracle's, and the float pass alone passes blocks of every size from 1 to 13
    rng = random.Random(3201)
    passed, sizes = 0, set()
    factor = moments._ldl

    def recorded(block, scale, diagonal):
        pivots, z = factor(block, scale, diagonal)
        if type(diagonal[0]) is float and z is None and min(pivots) > 0:
            sizes.add(len(block))
        return pivots, z

    for _ in range(600):
        k = rng.randint(1, 13)
        mu = AtomicMeasure(tuple((rng.uniform(0.1, 4.0), rng.uniform(0.05, 1.0)) for _ in range(k)))
        t = mu.moments(rng.randint(2, 24))
        tol = rng.choice([0.0, 1e-9, 1e-3])
        with mock.patch.object(moments, "_ldl", recorded):
            ours = check_stieltjes(t, tol=tol)
        assert _verdict_bits(ours) == _verdict_bits(_oracle_verdict(t, tol))
        passed += ours.consistent
    assert passed > 400 and sizes == set(range(1, 14))


@pytest.mark.parametrize(
    "block, exact_calls, refuted",
    [
        # the 3x3 Hankel block of delta_1 + delta_2 + delta_3: every pivot positive
        ([[3.0, 6.0, 14.0], [6.0, 14.0, 36.0], [14.0, 36.0, 98.0]], 0, False),
        # a negative pivot, whose float witness is confirmed
        ([[1.0, 2.0], [2.0, 1.0]], 0, True),
        # delta_0: zero diagonal entries, decided in Fractions
        ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 1, False),
    ],
    ids=["passing", "refuted", "zero-diagonal"],
)
def test_each_block_is_factored_once_per_arithmetic(monkeypatch, block, exact_calls, refuted):
    assert not hasattr(moments, "_positive_pivot")
    arithmetic = []
    factor = moments._ldl

    def spy(block, scale, diagonal):
        arithmetic.append(type(diagonal[0]))
        return factor(block, scale, diagonal)

    monkeypatch.setattr(moments, "_ldl", spy)
    low, x, form = moments._decide_block(block, 1e-9)
    assert arithmetic == [float] + [Fraction] * exact_calls
    assert (x is not None) == refuted and (low, x, form) == _oracle_decide_block(block, 1e-9)


def test_check_stieltjes_refuses_non_finite_moments_and_bad_tolerances():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            check_stieltjes([1.0, bad, 1.0])
    # a negative tolerance would refute genuine moments, such as these of
    # (delta_1 + delta_2) / 2
    for tol in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            check_stieltjes([1.0, 1.5, 2.5, 4.5], tol=tol)


# -- backward extension ----------------------------------------------------------


def test_inverse_moments_where_the_reciprocal_overflows():
    # 1 / 1e-310 overflows, w / x does not: the mass is rounded once from its
    # exact value; where every x**-n is finite the sum has the old bits
    mu = AtomicMeasure(((1e-310, 1e-320), (1.0, 1.0)))
    assert mu.moment(-1) == math.fsum([float(Fraction(1e-320) / Fraction(1e-310)), 1.0])
    assert backward_extend(mu, 2.0).total_mass == 2.0
    with pytest.raises(NoBackwardExtensionError):
        backward_extend(AtomicMeasure(((1e-310, 1e-10), (1.0, 1.0 - 1e-10))), 2.0)
    # a mass past the largest float still raises, naming the atom
    message = r"moment of order -1 overflows: x\*\*-1 at the atom x = 1e-310"
    with pytest.raises(ValueError, match=message):
        AtomicMeasure(((1e-310, 1.0),)).moment(-1)
    rng = random.Random(2801)
    for _ in range(200):
        atoms = tuple((rng.uniform(1e-3, 10.0), rng.uniform(0.1, 1.0)) for _ in range(3))
        mu = AtomicMeasure(atoms)
        for n in (1, 2, 5):
            assert mu.moment(-n) == math.fsum(w * x**-n for x, w in mu.atoms)


def test_backward_extend_examples():
    d1 = AtomicMeasure.delta(1.0)
    nu = backward_extend(d1, 2.0)
    assert nu.atoms == ((0.0, 1.0), (1.0, 1.0))
    assert nu.moments(3) == (2.0, 1.0, 1.0, 1.0)
    nu2 = backward_extend(d1, 1.0)
    assert nu2.atoms == ((1.0, 1.0),)
    with pytest.raises(NoBackwardExtensionError):
        backward_extend(AtomicMeasure.delta(0.0), 100.0)
    with pytest.raises(NoBackwardExtensionError):
        backward_extend(AtomicMeasure.delta(0.5), 1.0)  # inverse moment is 2
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            backward_extend(d1, theta)


def test_forward_map_examples():
    assert forward_map(AtomicMeasure(((0.0, 1.0), (1.0, 1.0)))).atoms == ((1.0, 1.0),)
    d1 = AtomicMeasure.delta(1.0)
    assert forward_map(d1).atoms == d1.atoms
    m = forward_map(AtomicMeasure(((1.0, 0.5), (2.0, 0.25))))
    assert m.atoms == ((1.0, 0.5), (2.0, 0.5))


@settings(max_examples=200, deadline=None)
@given(
    atoms=st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=50.0),
            st.floats(min_value=0.01, max_value=10.0),
        ),
        min_size=1,
        max_size=6,
    ),
    slack=st.floats(min_value=0.0, max_value=5.0),
)
def test_roundtrip_forward_of_backward(atoms, slack):
    mu = AtomicMeasure(tuple(atoms))
    theta = mu.moment(-1) + slack
    nu = backward_extend(mu, theta)
    back = forward_map(nu)
    assert len(back.atoms) == len(mu.atoms)
    for (x1, w1), (x2, w2) in zip(back.atoms, mu.atoms):
        assert abs(x1 - x2) <= 1e-12
        assert abs(w1 - w2) <= 1e-12 * max(1.0, w2)


@settings(max_examples=200, deadline=None)
@given(
    atoms=st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=50.0),
            st.floats(min_value=0.01, max_value=10.0),
        ),
        min_size=1,
        max_size=6,
    ),
    zero_mass=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=2.0)),
)
def test_roundtrip_backward_of_forward(atoms, zero_mass):
    pieces = tuple(atoms)
    if zero_mass > 0:
        pieces = pieces + ((0.0, zero_mass),)
    nu = AtomicMeasure(pieces)
    mu = forward_map(nu)
    back = backward_extend(mu, nu.total_mass, tol=1e-12)
    assert len(back.atoms) == len(nu.atoms)
    for (x1, w1), (x2, w2) in zip(back.atoms, nu.atoms):
        assert abs(x1 - x2) <= 1e-12
        assert abs(w1 - w2) <= 1e-12 * max(1.0, w2)


def test_backward_extension_prepends_moment(rng):
    for _ in range(50):
        mu = random_probability_measure(rng, max_atoms=4)
        theta = mu.moment(-1) * (1.0 + rng.uniform(0.0, 2.0))
        nu = backward_extend(mu, theta)
        got = nu.moments(7)
        want = (theta,) + mu.moments(6)
        for a, b in zip(got, want):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


# -- lower bound ------------------------------------------------------------------


def test_cauchy_schwarz_bound_examples():
    assert cauchy_schwarz_bound([1, 1, 1, 1]) == 1.0
    mix = AtomicMeasure(((1.0, 0.5), (2.0, 0.5)))
    bound = cauchy_schwarz_bound(mix.moments(5))
    assert bound <= mix.moment(-1) + 1e-15
    assert bound == pytest.approx(2.0 / 3.0)


def test_cauchy_schwarz_bound_below_inverse_moment(rng):
    for _ in range(50):
        mu = random_probability_measure(rng, max_atoms=4, lo=0.2)
        assert cauchy_schwarz_bound(mu.moments(9)) <= mu.moment(-1) + 1e-12


# -- quadrature --------------------------------------------------------------------


def test_quadrature_examples():
    q = quadrature_from_moments([1, 1, 1, 1])
    assert q.rank == 1 and q.requested == 2
    assert q.measure.atoms == ((1.0, 1.0),)
    q2 = quadrature_from_moments([1, 1.5, 2.5, 4.5])
    assert np.allclose(q2.measure.positions(), (1.0, 2.0))
    assert np.allclose(q2.measure.masses(), (0.5, 0.5))
    q3 = quadrature_from_moments([2, 1, 1, 1])
    assert np.allclose(q3.measure.positions(), (0.0, 1.0))
    assert np.allclose(q3.measure.masses(), (1.0, 1.0))
    with pytest.raises(RefutedSequenceError):
        quadrature_from_moments([1.0, 1.0, 0.0, 0.0])


def test_quadrature_roundtrip():
    # recovery from float64 moments is limited by the conditioning of the
    # moment map, so atoms are kept well separated (see conftest)
    rng = np.random.default_rng(29)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        mu = stratified_atoms(rng, k)
        rec = quadrature_from_moments(mu.moments(max(1, 2 * k - 1))).measure
        assert len(rec.atoms) == k
        for (x1, w1), (x2, w2) in zip(rec.atoms, mu.atoms):
            assert abs(x1 - x2) <= 1e-8 * max(1.0, x2)
            assert abs(w1 - w2) <= 1e-8 * max(1.0, w2)


def test_ql_seed_agrees_with_numpy_eigh():
    rng = np.random.default_rng(515)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        alphas = rng.uniform(0.0, 10.0, n).tolist()
        betas = rng.uniform(0.01, 5.0, n - 1).tolist()
        nodes, weights = moments._jacobi_eigen(alphas, betas)
        off = np.sqrt(betas)
        expected, vectors = np.linalg.eigh(np.diag(alphas) + np.diag(off, 1) + np.diag(off, -1))
        scale = max(1.0, float(np.abs(expected).max()))
        assert np.abs(np.array(nodes) - expected).max() <= 1e-12 * scale
        assert np.abs(np.array(weights) - vectors[0] ** 2).max() <= 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the polish's 10^-42 stop is absolute, so a node at zero comes back as "
    "rounding noise (ROADMAP item 1)",
)
def test_a_node_at_zero_is_fitted_at_zero():
    # the moments of delta_0 + 2 delta_0.5 + delta_1: the fit returns the atom
    # (8.7e-60, 1.0) in place of (0.0, 1.0)
    q = quadrature_from_moments((4, 2, 1.5, 1.25, 1.125, 1.0625))
    assert q.measure.mass_at_zero == 1.0


def test_odd_length_quadrature_equals_its_even_prefix_bit_for_bit():
    # quadrature fits the leading 2k moments of a sequence of length 2k or
    # 2k + 1, so a genuine sequence and its even prefix give the same atoms
    rng = np.random.default_rng(818)
    for _ in range(200):
        k = int(rng.integers(1, 4))
        mu = AtomicMeasure(tuple(zip(rng.uniform(0.3, 3.0, k), rng.uniform(0.05, 1.0, k))))
        values = mu.moments(2 * k)
        odd, even = quadrature_from_moments(values), quadrature_from_moments(values[: 2 * k])
        assert odd.measure.atoms == even.measure.atoms
        assert odd.requested == even.requested == k
        assert odd.rank == even.rank


def _numpy_jacobi_eigen(alphas, betas):
    """The quadrature seed as numpy.linalg.eigh gave it, kept as the oracle."""
    if len(alphas) == 1:
        return [alphas[0]], [1.0]
    off = np.sqrt(np.array(betas))
    nodes, vectors = np.linalg.eigh(np.diag(alphas) + np.diag(off, 1) + np.diag(off, -1))
    return nodes.tolist(), (vectors[0] ** 2).tolist()


def test_ql_seeded_quadrature_matches_the_numpy_seed_bit_for_bit(monkeypatch):
    # exactly determined input: the 2k moments of k atoms
    rng = np.random.default_rng(616)
    cases = []
    for _ in range(300):
        k = int(rng.integers(1, 4))
        mu = AtomicMeasure(tuple(zip(rng.uniform(0.3, 3.0, k), rng.uniform(0.05, 1.0, k))))
        cases.append(mu.moments(2 * k - 1))
    ours = [_quadrature_outcome(values) for values in cases]
    monkeypatch.setattr(moments, "_jacobi_eigen", _numpy_jacobi_eigen)
    assert [_quadrature_outcome(values) for values in cases] == ours


def _mpmath_polish(nodes, masses, values, digits=50, iterations=10, singular=None):
    """The Newton polish as it ran on mpmath's ``lu_solve``, kept as the
    oracle for the decimal one; records in ``singular`` each time
    ``lu_solve`` reports a singular Jacobian."""
    from mpmath import lu_solve, matrix, mp, mpf

    r = len(nodes)
    m = [float(v) for v in values[: 2 * r]]
    with mp.workdps(digits):
        x = [mpf(float(v)) for v in nodes]
        w = [mpf(float(v)) for v in masses]
        mm = [mpf(v) for v in m]
        for _ in range(iterations):
            F = matrix(2 * r, 1)
            J = matrix(2 * r, 2 * r)
            for n in range(2 * r):
                total = mpf(0)
                for i in range(r):
                    xp = x[i] ** n
                    total += w[i] * xp
                    J[n, i] = xp
                    J[n, r + i] = n * w[i] * x[i] ** (n - 1) if n >= 1 else mpf(0)
                F[n] = total - mm[n]
            try:
                step = lu_solve(J, -F)
            except Exception as exc:
                singular.append(exc)
                break
            for i in range(r):
                w[i] += step[i]
                x[i] += step[r + i]
            if max(abs(v) for v in step) < mpf(10) ** (-digits + 8):
                break
        return [float(v) for v in x], [float(v) for v in w]


def _quadrature_outcome(values):
    try:
        q = quadrature_from_moments(values)
    except ValueError as exc:
        return type(exc), str(exc)
    return q.rank, q.measure.atoms


def test_decimal_polish_agrees_with_the_mpmath_oracle(monkeypatch):
    # 2k + 2 moments of k = 4..7 atoms ask for one atom more than the data
    # holds, which is where lu_solve meets singular Jacobians
    rng = np.random.default_rng(2026)
    singular = []
    oracle = functools.partial(_mpmath_polish, singular=singular)
    for i in range(20):
        k = int(rng.integers(4, 8))
        lo, hi = [(0.15, 10.0), (1e-3, 1e3), (0.0, 50.0)][i % 3]
        positions = rng.uniform(lo, hi, size=k).tolist()
        masses = rng.dirichlet(np.ones(k)).tolist()
        values = AtomicMeasure(tuple(zip(positions, masses))).moments(2 * k + 1)
        ours = _quadrature_outcome(values)
        with monkeypatch.context() as patch:
            patch.setattr(moments, "_newton_polish", oracle)
            assert _quadrature_outcome(values) == ours
    assert len(singular) == 3



@pytest.mark.parametrize(
    "values, bad",
    [
        ([math.nan, 1.0], "t_0 = nan"),
        ([1.0, math.nan], "t_1 = nan"),
        ([math.inf, 1.0], "t_0 = inf"),
        ([1.0, math.inf], "t_1 = inf"),
    ],
)
def test_a_two_moment_prefix_that_is_not_finite_is_refused(values, bad):
    # refused up front, as the Hankel test refuses longer prefixes: [nan, 1]
    # gave an empty measure of rank 1, and the others an atom that the
    # measure refused
    assert _quadrature_outcome(values) == (ValueError, f"moment {bad} is not finite")


# ||A||_1 * 2^-178 for A = [[1, 3], [a, -b]] with a, b far below 1
_TOL_1_3 = 3 * 2.0**-178


@pytest.mark.parametrize(
    "matrix_rows, singular",
    [
        # the second row sums to 0.9 tol, but its last pivot would be 1.26 tol
        ([[1.0, 3.0], [0.18 * _TOL_1_3, -0.72 * _TOL_1_3]], True),
        ([[1.0, 3.0], [0.22 * _TOL_1_3, -0.88 * _TOL_1_3]], False),
        # every row sum is about 1, but the second pivot is 2^-180 <= 2^-177
        ([[1.0, 0.0, 0.0], [0.0, 2.0**-180, 1.0], [0.0, 2.0**-180, -1.0]], True),
        ([[1.0, 0.0, 0.0], [0.0, 2.0**-170, 1.0], [0.0, 2.0**-170, -1.0]], False),
    ],
    ids=["row-sum", "row-sum-above", "pivot", "pivot-above"],
)
def test_solve_finds_singular_what_lu_solve_does(matrix_rows, singular):
    from decimal import Decimal, localcontext

    from mpmath import lu_solve, matrix, mp

    rhs = [1.0] * len(matrix_rows)
    with mp.workdps(50):
        try:
            expected = [float(v) for v in lu_solve(matrix(matrix_rows), matrix(rhs))]
        except ZeroDivisionError:
            expected = None
    assert (expected is None) == singular
    with localcontext() as ctx:
        ctx.prec = 53
        rows = [[Decimal(v) for v in row + [b]] for row, b in zip(matrix_rows, rhs)]
        try:
            got = [float(v) for v in moments._solve(rows)]
        except ZeroDivisionError:
            got = None
    assert got == (None if singular else pytest.approx(expected, rel=1e-15))


# Moments of 5 and of 7 atoms, each with one atom more than their numerical
# rank can hold: after ten Newton steps that atom still drifts outward with
# a mass near 1e-38, so its place is rounding noise times 1/mass, and the
# base-10 and base-2 polishes leave it one to three ulps apart
_PARTING = [
    [1.0, 2.2719398504998223, 13.964768430881502, 94.24083025241215,
     639.4202014985773, 4339.727990370673, 29454.10000031005, 199907.64146399515,
     1356791.3158787258, 9208665.89390032, 62500051.825112216],
    [1.0, 6.475744443157197, 90.91047203667314, 2220.7760133400116,
     75419.48841284984, 2906629.715393694, 116555431.52924258, 4731390358.800047,
     192829062218.89993, 7869667466514.522, 321337152090376.25,
     1.3123509578335028e+16, 5.360092208966715e+17, 2.1893127106219164e+19,
     8.942288707055215e+20],
]


@pytest.mark.parametrize("values", _PARTING, ids=["5-atoms", "7-atoms"])
def test_polishes_part_only_on_an_atom_of_negligible_mass(monkeypatch, values):
    ours = quadrature_from_moments(values)
    singular = []
    oracle = functools.partial(_mpmath_polish, singular=singular)
    monkeypatch.setattr(moments, "_newton_polish", oracle)
    theirs = quadrature_from_moments(values)
    assert singular == [] and ours.rank == theirs.rank
    assert len(ours.measure.atoms) == len(theirs.measure.atoms)
    for (x, w), (y, v) in zip(ours.measure.atoms, theirs.measure.atoms):
        if v > 1e-30:
            assert (x, w) == (y, v)
        else:
            assert x == pytest.approx(y, rel=1e-14) and w == pytest.approx(v, rel=1e-14)


def _polish_key(nodes, masses, values, *_):
    return tuple(nodes), tuple(masses), tuple(values)


def test_chord_polish_gives_the_decimal_newton_outcome(monkeypatch):
    # 1-8 atoms, 2r to 2r + 8 moments: the surplus makes rank-deficient fits,
    # on which the float LU is singular or the chord stalls and falls back
    rng = np.random.default_rng(29)
    cases = []
    for i in range(5000):
        r = int(rng.integers(1, 9))
        lo, hi = [(0.15, 10.0), (1e-3, 1e3), (0.0, 50.0)][i % 3]
        atoms = zip(rng.uniform(lo, hi, size=r).tolist(), rng.dirichlet(np.ones(r)).tolist())
        cases.append(AtomicMeasure(tuple(atoms)).moments(2 * r - 1 + int(rng.integers(0, 9))))
    newton, fell_back = moments._decimal_newton, {}

    def recorded(*args):
        fell_back[_polish_key(*args)] = result = newton(*args)
        return result

    monkeypatch.setattr(moments, "_decimal_newton", recorded)
    ours = [_quadrature_outcome(values) for values in cases]
    chord = []

    def oracle(*args):
        # where the chord fell back, the polish returned the decimal Newton's
        # result for these very arguments: reuse it rather than run it twice
        if (key := _polish_key(*args)) in fell_back:
            return fell_back[key]
        chord.append(key)
        return newton(*args)

    monkeypatch.setattr(moments, "_newton_polish", oracle)
    assert [_quadrature_outcome(values) for values in cases] == ours
    assert len(fell_back) > 1000 and len(chord) > 1000


def test_chord_polish_falls_back_where_floats_run_out(monkeypatch):
    # measures scaled by 1e-320 to 1e300, on positions scaled by 1e-60 to
    # 1e60: where the masses are tiny, the Jacobian's columns differ so much
    # in scale that the decimal Newton calls it singular and keeps the seed,
    # and the chord must fall back rather than polish
    rng = np.random.default_rng(1029)
    cases = []
    for _ in range(1200):
        r = int(rng.integers(1, 5))
        positions = rng.uniform(0.15, 10.0, r) * 10.0 ** rng.uniform(-60, 60)
        masses = rng.dirichlet(np.ones(r)) * 10.0 ** rng.uniform(-320, 300)
        atoms = tuple(zip(positions.tolist(), masses.tolist()))
        try:
            cases.append(AtomicMeasure(atoms).moments(2 * r - 1 + int(rng.integers(0, 3))))
        except ValueError:  # a moment overflows
            pass
    ours = [_quadrature_outcome(values) for values in cases]
    monkeypatch.setattr(moments, "_newton_polish", moments._decimal_newton)
    assert [_quadrature_outcome(values) for values in cases] == ours


@pytest.mark.parametrize(
    "atoms, falls_back",
    [
        # two atoms 2^-16 apart: the Jacobian is singular to about 2^-32, below
        # the float LU's pivot floor
        (((1.0, 0.5), (1.0 + 2.0**-16, 0.5)), True),
        (((1.0, 0.5), (2.0, 0.5)), False),
    ],
    ids=["close-atoms", "apart"],
)
def test_the_polish_returns_what_the_decimal_newton_does(monkeypatch, atoms, falls_back):
    values = AtomicMeasure(atoms).moments(3)
    seed_lu, newton, factors, calls = moments._seed_lu, moments._decimal_newton, [], []

    def recorded_lu(*args):
        factors.append(seed_lu(*args))
        return factors[-1]

    def recorded_newton(*args):
        calls.append(args)
        return newton(*args)

    monkeypatch.setattr(moments, "_seed_lu", recorded_lu)
    monkeypatch.setattr(moments, "_decimal_newton", recorded_newton)
    ours = quadrature_from_moments(values)
    assert (factors == [None]) == falls_back and len(calls) == falls_back
    monkeypatch.setattr(moments, "_newton_polish", newton)
    theirs = quadrature_from_moments(values)
    assert (ours.rank, ours.measure.atoms) == (theirs.rank, theirs.measure.atoms) == (2, atoms)


def test_the_chord_stops_within_two_steps_once_its_floats_settle(monkeypatch):
    # exactly determined fits of 1 to 4 well-separated atoms: the seed is good
    # to about 1e-13 and each exact-residual step gains as much again, so the
    # second step already leaves every float where the chord would end
    rng = np.random.default_rng(3202)
    solve, newton, steps, fell_back = moments._lu_solve, moments._decimal_newton, [], []

    def counted(*args):
        steps[-1] += 1
        return solve(*args)

    def recorded(*args):
        fell_back.append(args)
        return newton(*args)

    monkeypatch.setattr(moments, "_lu_solve", counted)
    monkeypatch.setattr(moments, "_decimal_newton", recorded)
    for _ in range(300):
        mu = stratified_atoms(rng, int(rng.integers(1, 5)))
        steps.append(0)
        quadrature_from_moments(mu.moments(2 * len(mu.atoms) - 1))
    assert fell_back == [] and min(steps) == 2
    assert sum(n <= 2 for n in steps) >= 0.95 * len(steps)


# -- determinacy diagnostic ----------------------------------------------------------


def test_carleman_factorial_style_diverges():
    t = [math.factorial(n) ** 2 for n in range(65)]
    d = carleman_diagnostic(t)
    assert d.label == "divergence-trend"
    # partial sums grow logarithmically at rate close to e
    s64 = d.partial_sums[63]
    s32 = d.partial_sums[31]
    rate = (s64 - s32) / (math.log(64) - math.log(32))
    assert rate == pytest.approx(math.e, rel=0.15)


def test_carleman_fast_growth_converges():
    t = [float(math.factorial(2 * n)) ** 2 for n in range(33)]
    d = carleman_diagnostic(t)
    assert d.label == "convergence-trend"
    # terms behave like e^2/(4 n^2)
    assert d.terms[30] == pytest.approx(math.e**2 / (4 * 31**2), rel=0.2)


def test_carleman_zero_entry_diverges():
    d = carleman_diagnostic([1.0, 1.0, 0.0, 1.0])
    assert d.label == "divergence-trend"
    assert math.isinf(d.partial_sums[-1])
    with pytest.raises(ValueError):
        carleman_diagnostic([1.0, -1.0, 1.0])


def test_carleman_bounded_sequence_diverges():
    d = carleman_diagnostic([1.0] * 33)
    assert d.label == "divergence-trend"
