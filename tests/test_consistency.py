import json
import math
import random
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    AtomicMeasure,
    CERTIFIED,
    CONDITIONAL,
    ConsistencySumError,
    MeasureSystem,
    REFUTED,
    RefutedSequenceError,
    WeightedShift,
    build_system_from_sequences,
    certify_subnormal,
    check_consistency_at,
    check_stieltjes,
    child_from_parent_single,
    explicit_tree,
    make_family,
    moments_match,
    parent_from_children,
    propagate_check,
    system_from_json,
    truncated_tree,
)
from treeshift.consistency import (
    ConsistencyReport,
    _generation_terms,
    _rows_report,
    identity_reports,
    lambert_sweep,
    measure_discrepancy,
    relative_errors,
)
from treeshift.moments import scaled_inverse_integral, superpose
from treeshift.report import canonical_json
from treeshift.shift import _mod_sq
from treeshift.tree import HorizonError, vertex_sort_key

from conftest import (
    every_vertex_failures,
    exact_half_line_sequences,
    family_windows,
    random_chain_tree,
    random_complex_weights,
    random_consistent_system,
    random_probability_measure,
)


def delta_one_system(depth=4):
    """Unit weights on the half line with unit point masses: the fixed point
    of every reweighting."""
    tree = make_family("unilateral", depth)
    shift = WeightedShift(tree, {k: 1.0 for k in range(1, depth + 1)})
    mu = {v: AtomicMeasure.delta(1.0) for v in tree.sorted_vertices}
    eps = {v: 0.0 for v in tree.sorted_vertices}
    return shift, MeasureSystem(mu=mu, eps=eps)


def mixed_pair_system():
    """The two-atom worked example on the half line."""
    depth = 4
    tree = make_family("unilateral", depth)
    base = AtomicMeasure(((1.0, 0.5), (2.0, 0.5)))
    t = base.moments(depth + 1)
    shift = WeightedShift(
        tree, {n + 1: math.sqrt(t[n + 1] / t[n]) for n in range(depth)}
    )
    mu = {}
    current = base
    for n in range(depth + 1):
        mu[n] = current.scaled(1.0 / current.total_mass)
        current = current.times_power(1)
    eps = {v: 0.0 for v in tree.sorted_vertices}
    return shift, MeasureSystem(mu=mu, eps=eps)


def test_delta_one_fixed_point():
    shift, system = delta_one_system()
    rep = check_consistency_at(system, shift, 0)
    assert rep.ok and rep.max_discrepancy <= 1e-15
    assert rep.eps_computed == pytest.approx(0.0, abs=1e-12)


def test_mixed_pair_consistency_and_eps_mismatch():
    shift, system = mixed_pair_system()
    assert check_consistency_at(system, shift, 0).ok
    assert system.mu[1].atoms == (
        (1.0, pytest.approx(1 / 3)),
        (2.0, pytest.approx(2 / 3)),
    )
    # claiming extra mass at zero is an inconsistency with discrepancy there
    wrong = MeasureSystem(mu=system.mu, eps={**system.eps, 0: 0.1})
    rep = check_consistency_at(wrong, shift, 0)
    assert not rep.ok
    assert rep.max_discrepancy == pytest.approx(0.1)
    assert rep.discrepancy_position == 0.0


def test_zero_atom_child_under_nonzero_weight():
    tree = make_family("unilateral", 2)
    shift = WeightedShift(tree, {1: 1.0, 2: 1.0})
    mu = {
        0: AtomicMeasure.delta(1.0),
        1: AtomicMeasure(((0.0, 0.5), (1.0, 0.5))),
        2: AtomicMeasure.delta(1.0),
    }
    system = MeasureSystem(mu=mu, eps={0: 0.0, 1: 0.5, 2: 0.0})
    rep = check_consistency_at(system, shift, 0)
    assert not rep.ok
    assert "mass" in rep.reason and math.isinf(rep.max_discrepancy)


def test_propagation_depths(rng):
    shift, system = mixed_pair_system()
    assert propagate_check(system, shift, 0, 1).ok
    for n in (2, 3):
        assert propagate_check(system, shift, 0, n).ok
    # random consistent systems propagate to every reachable depth
    for _ in range(10):
        s, sys_ = random_consistent_system(rng, max_vertices=25)
        tree = s.tree
        for u in tree.sorted_vertices:
            for n in range(1, int(min(3, tree.available_depth(u))) + 1):
                assert propagate_check(sys_, s, u, n).ok


def test_moments_match_identity(rng):
    shift, system = mixed_pair_system()
    rep = moments_match(system, shift, 0, 3)
    assert rep.ok and rep.top == 3
    _assert_same_report(rep, system, shift, 0, 3)
    rows, _, _ = _reference_moments_match(system, shift, 0, 3)
    assert rows[1][1] == pytest.approx(1.5)
    for _ in range(10):
        s, sys_ = random_consistent_system(rng, max_vertices=30)
        for u in s.tree.sorted_vertices:
            assert moments_match(sys_, s, u, 6).ok


def test_moments_match_fails_rows_that_are_not_finite():
    # |w_1|^2 = 1e320 overflows, so the norms are inf and the relative
    # errors NaN; such a row must fail, not vanish from the maximum
    tree = make_family("unilateral", 2)
    shift = WeightedShift(tree, {1: 1e160, 2: 1.0})
    mu = {v: AtomicMeasure.delta(1.0) for v in tree.sorted_vertices}
    system = MeasureSystem(mu=mu, eps={v: 0.0 for v in tree.sorted_vertices})
    rep = moments_match(system, shift, 0, 2)
    assert not rep.ok
    assert rep.max_rel_err == math.inf and rep.top == 2
    # the first NaN row is the worst, though order 2 is NaN too
    assert rep.worst_row[:3] == (1, 1.0, math.inf) and math.isnan(rep.worst_row[3])
    _assert_same_report(rep, system, shift, 0, 2)


def _reference_moments_match(system, shift, u, n_max, tol=1e-9):
    """The row loop that ``moments_match`` replaced: one relative error per
    order, folded into the maximum, with a NaN row making it inf."""
    mu_u = system.measure(u)
    avail = shift.tree.available_depth(u)
    top = int(min(n_max, avail)) if avail != math.inf else n_max
    rows = []
    worst = 0.0
    lhs_values = mu_u.moments(top)
    for n, rhs in enumerate(shift.moment_values(u, top)):
        lhs = lhs_values[n]
        rel = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, rel) if rel == rel else math.inf
        rows.append((n, lhs, rhs, rel))
    return tuple(rows), worst <= tol, worst


def _bits(values):
    return [struct.pack("<d", float(x)) for x in values]


def _first_argmax(rels) -> int:
    """The first NaN row, or else the first row with the largest error."""
    best = 0
    for n, rel in enumerate(rels):
        if math.isnan(rel):
            return n
        if rel > rels[best]:
            best = n
    return best


def _assert_same_report(rep, system, shift, u, n_max):
    rows, ok, worst = _reference_moments_match(system, shift, u, n_max)
    assert rep.top == rows[-1][0]
    want = rows[_first_argmax([r[3] for r in rows])]
    assert rep.worst_row[0] == want[0]
    assert _bits(rep.worst_row[1:]) == _bits(want[1:])
    assert rep.ok is ok
    assert _bits([rep.max_rel_err]) == _bits([worst])


class _FixedMoments:
    """A stand-in measure whose moments are given outright, so rows can hold
    values no atomic measure produces."""

    def __init__(self, values):
        self.values = tuple(values)

    def moments(self, n_max):
        return self.values[: n_max + 1]


def test_moments_match_rows_equal_the_row_loop_bit_for_bit(rng):
    for _ in range(10):
        shift, system = random_consistent_system(rng, max_vertices=30)
        for u in shift.tree.sorted_vertices:
            _assert_same_report(moments_match(system, shift, u, 6), system, shift, u, 6)
    # overflowing norms: inf and NaN rows
    tree = make_family("unilateral", 3)
    shift = WeightedShift(tree, {1: 1e160, 2: 1.0, 3: 1e-10})
    system = MeasureSystem(
        mu={v: AtomicMeasure.delta(1.0) for v in tree.sorted_vertices},
        eps={v: 0.0 for v in tree.sorted_vertices},
    )
    for u in tree.sorted_vertices:
        _assert_same_report(moments_match(system, shift, u, 3), system, shift, u, 3)
    # moments that no measure has: infinite, NaN, negative and huge, where
    # the relative error can itself be inf, NaN or exactly zero
    shift = WeightedShift(tree, {1: 1.3e154, 2: 0.5 - 0.5j, 3: 0.0})
    norms = shift.moment_values(0, 3)
    assert math.isfinite(norms[2]) and norms[1] > 1e308
    for values in (
        norms,
        (1.0, math.inf, 1.0, 0.0),
        (1.0, norms[1], math.nan, 0.0),
        (1.0, -1.7e308, norms[2], 0.0),
        (1.0, norms[1] * (1 + 1e-9), norms[2], 1e-300),
    ):
        stub = SimpleNamespace(measure=lambda v, m=_FixedMoments(values): m)
        for n_max in (0, 1, 3):
            _assert_same_report(moments_match(stub, shift, 0, n_max), stub, shift, 0, n_max)


_row_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 0.0, 1.0]),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_row_values, _row_values), min_size=1, max_size=12))
def test_the_worst_row_is_the_first_argmax_of_the_relative_errors(rows):
    # NaN, infinite and overflowing rows, on a stand-in system and shift
    lhs, rhs = (tuple(col) for col in zip(*rows))
    top = len(rows) - 1
    system = SimpleNamespace(measure=lambda v: _FixedMoments(lhs))
    shift = SimpleNamespace(
        tree=SimpleNamespace(clamp_order=lambda u, n: n), moment_values=lambda u, n: rhs[: n + 1]
    )
    rep = moments_match(system, shift, 0, top)
    rels, worst = relative_errors(lhs, rhs)
    n = _first_argmax(rels)
    assert rep.top == top and rep.ok is (worst <= 1e-9)
    assert rep.worst_row[0] == n
    assert _bits(rep.worst_row[1:]) == _bits((lhs[n], rhs[n], rels[n]))
    assert _bits([rep.max_rel_err]) == _bits([worst])


@pytest.mark.parametrize("excess", [1e-6, -1e-6, 1e-3])
@pytest.mark.parametrize("x", [0.5, 2.0, 3e5])
def test_a_moment_identity_witness_rechecks_from_the_report_alone(x, excess):
    # 0 -> 1 closed by the identity, but the frontier measure at 1 has mass
    # 1 + excess, so the moment rows disagree and no other check fails
    mass = 1.0 + excess
    shift = WeightedShift(make_family("unilateral", 1), {1: math.sqrt(x / mass)})
    mu = {0: AtomicMeasure.delta(x), 1: AtomicMeasure.delta(x, mass)}
    cert = certify_subnormal(shift, MeasureSystem(mu=mu, eps={0: 0.0, 1: 0.0}), horizon=1)
    report = json.loads(canonical_json(cert))
    witness = report["witness"]
    assert report["status"] == REFUTED and witness["check"] == "moment-identity"
    a, b = float(witness["measure_moment"]), float(witness["shift_norm_sq"])
    rel = abs(a - b) / max(1.0, abs(a), abs(b))
    assert rel > report["tol"] and rel == witness["discrepancy"]
    entry = next(m for m in report["moments"] if m["vertex"] == witness["vertex"])
    assert entry["worst_row"]["n"] == witness["order"] <= entry["top"]


def _reference_relative_errors(lhs, rhs):
    """The row loop that ``relative_errors`` replaced in
    ``verify_branch_moments``: each row folded into the maximum in turn,
    a NaN row making it inf."""
    rels = []
    worst = 0.0
    for a, b in zip(lhs, rhs):
        rel = abs(a - b) / max(1.0, abs(a), abs(b))
        worst = max(worst, rel) if rel == rel else math.inf
        rels.append(rel)
    return rels, worst


def test_relative_errors_equal_the_row_loop_on_non_finite_rows():
    big = 1.7e308
    rows = [
        (1.0, 1.0),
        (1.0, math.inf),  # NaN row
        (math.inf, math.inf),  # NaN row
        (big, -big),  # inf row
        (math.nan, 1.0),
        (0.0, 0.0),
        (2.5, 2.5 * (1 + 1e-9)),
        (-3.0, 1e-300),
    ]
    for start in range(len(rows)):
        for stop in range(start, len(rows) + 1):
            lhs = [a for a, _ in rows[start:stop]]
            rhs = [b for _, b in rows[start:stop]]
            rels, worst = relative_errors(lhs, rhs)
            want_rels, want_worst = _reference_relative_errors(lhs, rhs)
            assert _bits(rels) == _bits(want_rels)
            assert _bits([worst]) == _bits([want_worst])
    assert relative_errors([1.0, big], [1.0, -big])[1] == math.inf
    assert relative_errors([1.0, 1.0], [1.0, math.inf])[1] == math.inf
    assert relative_errors([], []) == ([], 0.0)


_kernel_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-math.nan, 0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]),
    st.floats(max_value=-0.0),
)


def _assert_kernel_keeps_the_bits(lhs, rhs):
    rels, worst = relative_errors(lhs, rhs)
    want_rels, want_worst = _reference_relative_errors(lhs, rhs)
    assert _bits(rels) == _bits(want_rels)
    assert _bits([worst]) == _bits([want_worst])


@settings(max_examples=500, deadline=None)
@given(rows=st.lists(st.tuples(_kernel_values, _kernel_values), max_size=12))
def test_relative_errors_keep_the_bits_of_the_formula(rows):
    # signed zeros, subnormals, overflowing differences, infinities and NaNs
    # of either sign: every row and the largest keep the reference's bits
    _assert_kernel_keeps_the_bits([a for a, _ in rows], [b for _, b in rows])


def _random_double(rng):
    """A float from 64 random bits, with its exponent field forced to all
    ones (inf and NaNs of any sign and payload) or all zeros (signed zeros
    and subnormals) a quarter of the time each."""
    bits = rng.getrandbits(64)
    kind = rng.randrange(4)
    if kind == 0:
        bits |= 0x7FF << 52
    elif kind == 1:
        bits &= ~(0x7FF << 52)
        if rng.randrange(4) == 0:
            bits &= 1 << 63
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def test_relative_errors_keep_the_bits_on_random_patterns():
    # 23,749 seeded pairs of 64-bit patterns, NaN payloads included, in
    # blocks so that the largest row is compared on many mixes
    rng = random.Random(2301)
    for _ in range(1200):
        lhs, rhs = [], []
        for _ in range(rng.randrange(1, 40)):
            a = _random_double(rng)
            b = rng.choice((a, -a, _random_double(rng), _random_double(rng)))
            lhs.append(a)
            rhs.append(b)
        _assert_kernel_keeps_the_bits(lhs, rhs)


def _formulated_identity(system, shift, u, n, tol=1e-9):
    """The depth-n identity at u formulated from the public primitives
    alone, independently of the sweep's kernel: the terms from
    ``power_coefficients``, the inverse-moment sum from
    ``scaled_inverse_integral``, the reconstruction from ``superpose`` and
    the comparison from ``measure_discrepancy``."""
    mu_u, eps_stored = system.measure(u), system.eps_at(u)
    terms = {
        v: (c, system.measure(v))
        for v, pw in shift.power_coefficients(u, n).items()
        if (c := _mod_sq(pw)) != 0.0
    }

    def failed(position, reason):
        return ConsistencyReport(u, n, False, math.inf, position, eps_stored, None, reason)

    at_zero = next((v for v, (_, mu) in terms.items() if mu.mass_at_zero > 0.0), None)
    if at_zero is not None:
        return failed(
            0.0,
            f"child {at_zero!r} carries mass {terms[at_zero][1].mass_at_zero} at zero "
            "under a nonzero path weight",
        )
    try:
        inv_sum = math.fsum(scaled_inverse_integral(c, mu, n) for c, mu in terms.values())
    except (ValueError, OverflowError) as exc:
        return failed(None, f"inverse-moment sum is not finite: {exc}")
    eps_computed = 1.0 - inv_sum
    mass = mu_u.total_mass
    try:
        expected = superpose(terms.values(), -n, eps_stored)
    except ValueError as exc:
        disc, disc_at = math.inf, None
        problems = [f"reconstructed measure is not finite: {exc}"]
    else:
        disc, disc_at = measure_discrepancy(mu_u, expected)
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


def _reference_identity_reports(system, shift, n, check=propagate_check, tol=1e-9):
    """The per-vertex loop that ``identity_reports`` replaced, with the
    vertices chosen by whether the window holds their n-th generation."""
    reports = []
    for u in shift.tree.sorted_vertices:
        try:
            shift.tree.children_n(u, n)
        except HorizonError:
            continue
        reports.append(check(system, shift, u, n, tol=tol))
    return tuple(reports)


def _uniform_system(shift, measure, eps=None):
    mu = dict.fromkeys(shift.tree.sorted_vertices, measure)
    return shift, MeasureSystem(mu=mu, eps=eps or {})


def _identity_cases(rng):
    """(shift, system) pairs on which the identity holds, fails by a
    perturbation, meets zero weights or mass at zero, or under- and
    overflows."""
    for _ in range(6):
        shift, system = random_consistent_system(rng, zero_weight_prob=0.3)
        yield shift, system
        mu, eps = dict(system.mu), dict(system.eps)
        tree = shift.tree
        v = tree.sorted_vertices[int(rng.integers(len(tree)))]
        x, w = mu[v].atoms[-1]
        mu[v] = AtomicMeasure((*mu[v].atoms[:-1], (x * (1 + 1e-6), w)))
        yield shift, MeasureSystem(mu=mu, eps=eps)
        weights = dict(shift.weights)
        for v in list(weights)[::4]:
            weights[v] = 1.1 * weights[v]
        yield WeightedShift(tree, weights), system
        leaves = [v for v in tree.sorted_vertices if not tree.children(v)]
        mu = dict(system.mu)
        for v in leaves[::2]:
            mu[v] = AtomicMeasure(((0.0, 0.25), *((x, 0.75 * w) for x, w in mu[v].atoms)))
        yield shift, MeasureSystem(mu=mu, eps={**system.eps, **{v: 0.25 for v in leaves[::2]}})
    path = make_family("unilateral", 3)
    for weights, x in (((1e160, 1.0, 1.0), 1.0), ((1.0,) * 3, 5e-324), ((1e150,) * 3, 1e301)):
        shift = WeightedShift(path, dict(zip((1, 2, 3), weights)))
        yield _uniform_system(shift, AtomicMeasure.delta(x))
    under_over = WeightedShift(make_family("unilateral", 2), {1: 1e-200, 2: 1e200})
    yield _uniform_system(under_over, AtomicMeasure.delta(1.0))
    yield _uniform_system(under_over, AtomicMeasure(((1e-100, 0.5), (1e100, 0.5))))
    branching = make_family("t-eta-kappa", 3, eta=2, kappa=1)
    zero = WeightedShift(branching, dict.fromkeys(branching.non_root_vertices, 0.0))
    yield _uniform_system(zero, AtomicMeasure.delta(1.0), {-1: 1.0, 0: 1.0})


def test_identity_reports_equal_the_per_vertex_loop(rng):
    for tree in family_windows():
        shift, system = random_consistent_system(rng, tree=tree)
        for n in (1, 2, 3):
            reports = identity_reports(system, shift, n)
            assert reports == _reference_identity_reports(system, shift, n)
            assert all(r.depth == n for r in reports)
            assert repr(reports) == repr(
                _reference_identity_reports(system, shift, n, _formulated_identity)
            )
        assert certify_subnormal(shift, system).consistency == identity_reports(system, shift)
    failed = 0
    for shift, system in _identity_cases(rng):
        for n in (1, 2, 3):
            reports = identity_reports(system, shift, n)
            assert repr(reports) == repr(_reference_identity_reports(system, shift, n))
            assert repr(reports) == repr(
                _reference_identity_reports(system, shift, n, _formulated_identity)
            )
            failed += sum(not r.ok for r in reports)
        try:
            cert = certify_subnormal(shift, system)
        except ValueError as exc:  # moment rows past the largest float
            assert "overflows" in str(exc)
            continue
        assert repr(cert.consistency) == repr(identity_reports(system, shift))
    assert failed


def test_depth_one_terms_equal_the_first_power_bit_for_bit(rng):
    """At depth one the identity reads u's child tuple and the table of
    squared weights directly: the same vertices, in the same order, with
    squared weights bit-equal to those of ``power_coefficients(u, 1)``; at a
    vertex with no complete level below it the identity and the parent
    construction still raise HorizonError, before any term is formed."""
    for tree in family_windows():
        shift = random_complex_weights(rng, tree)
        weights = dict(shift.weights)
        for v in list(weights)[::3]:
            weights[v] = 0.0
        delta = AtomicMeasure.delta(1.0)
        system = MeasureSystem(mu=dict.fromkeys(tree.sorted_vertices, delta), eps={})
        for shift in (shift, WeightedShift(tree, weights)):
            for u in tree.sorted_vertices:
                if tree.available_depth(u) < 1:
                    with pytest.raises(HorizonError):
                        propagate_check(system, shift, u, 1)
                    with pytest.raises(HorizonError):
                        parent_from_children(shift, u, {})
                    continue
                terms = _generation_terms(shift, u, 1, lambda v: v)
                expected = [
                    (v, c)
                    for v, pw in shift.power_coefficients(u, 1).items()
                    if (c := _mod_sq(pw)) != 0.0
                ]
                assert [v for v, _ in expected] == [v for v, _, _ in terms]
                assert _bits(c for _, c in expected) == _bits(c for _, c, _ in terms)
                assert all(mu == v for v, _, mu in terms)


def test_parent_from_children_examples():
    tree = make_family("unilateral", 1)
    shift = WeightedShift(tree, {1: 1.0})
    mu, eps = parent_from_children(shift, 0, {1: AtomicMeasure.delta(1.0)})
    assert mu.atoms == ((1.0, 1.0),) and eps == 0.0

    t20 = make_family("t-eta-kappa", 1, eta=2, kappa=0)
    sh = WeightedShift(t20, {(1, 1): math.sqrt(0.5), (2, 1): math.sqrt(0.5)})
    mu0, eps0 = parent_from_children(
        sh, 0, {(1, 1): AtomicMeasure.delta(1.0), (2, 1): AtomicMeasure.delta(2.0)}
    )
    assert eps0 == pytest.approx(0.25)
    assert [w for _, w in mu0.atoms] == [
        pytest.approx(0.25),
        pytest.approx(0.5),
        pytest.approx(0.25),
    ]

    sh2 = WeightedShift(t20, {(1, 1): 1.0, (2, 1): 1.0})
    with pytest.raises(ConsistencySumError):
        parent_from_children(
            sh2, 0, {(1, 1): AtomicMeasure.delta(1.0), (2, 1): AtomicMeasure.delta(2.0)}
        )


def test_child_from_parent_single_examples():
    tree = make_family("unilateral", 1)
    shift = WeightedShift(tree, {1: 1.0})
    assert child_from_parent_single(shift, 0, AtomicMeasure.delta(1.0)).atoms == (
        (1.0, 1.0),
    )
    got = child_from_parent_single(
        shift, 0, AtomicMeasure(((0.0, 0.5), (2.0, 0.5)))
    )
    assert got.atoms == ((2.0, 1.0),)
    shift15 = WeightedShift(tree, {1: math.sqrt(1.5)})
    got2 = child_from_parent_single(
        shift15, 0, AtomicMeasure(((1.0, 0.5), (2.0, 0.5)))
    )
    assert got2.atoms[0][1] == pytest.approx(1 / 3)
    assert got2.atoms[1][1] == pytest.approx(2 / 3)
    with pytest.raises(ValueError, match="exactly one child"):
        t20 = make_family("t-eta-kappa", 1, eta=2, kappa=0)
        child_from_parent_single(
            WeightedShift(t20, {(1, 1): 1.0, (2, 1): 1.0}),
            0,
            AtomicMeasure.delta(1.0),
        )


def test_child_from_parent_single_inverts_parent_from_children_under_a_subnormal_weight():
    # |w|^2 = 5e-324, whose reciprocal overflows, over delta at 5e-324
    shift = WeightedShift(make_family("unilateral", 1), {1: math.sqrt(5e-324)})
    assert shift.modulus_sq(1) == 5e-324
    child = AtomicMeasure.delta(5e-324)
    parent, eps = parent_from_children(shift, 0, {1: child})
    assert parent == AtomicMeasure.delta(5e-324) and eps == 0.0
    assert child_from_parent_single(shift, 0, parent) == child


def test_child_from_parent_single_is_the_reweighting_scaled_by_the_reciprocal(rng):
    # where 1/|w|^2 is finite the inverse has the bits of the one-step
    # superposition (1/|w|^2) * s * mu_parent
    tree = make_family("unilateral", 1)
    for k in range(200):
        c = 10 ** rng.uniform(-300, 300) if k % 2 else rng.uniform(0.1, 3.0)
        shift = WeightedShift(tree, {1: math.sqrt(c) * complex(math.cos(k), math.sin(k))})
        mu = random_probability_measure(rng, lo=0.0 if k % 5 == 0 else 0.15)
        expected = superpose(((1.0 / shift.modulus_sq(1), mu),), 1)
        assert child_from_parent_single(shift, 0, mu).atoms == expected.atoms


def test_bottom_up_systems_are_consistent_everywhere(rng):
    for _ in range(20):
        shift, system = random_consistent_system(rng)
        tree = shift.tree
        for u in tree.sorted_vertices:
            if tree.available_depth(u) < 1:
                continue
            rep = check_consistency_at(system, shift, u)
            assert rep.ok, (u, rep.reason)


def test_certify_delta_one():
    shift, system = delta_one_system()
    cert = certify_subnormal(shift, system, horizon=4)
    assert cert.status == CERTIFIED
    assert not cert.eps_violations


def test_certify_mixed_pair_and_perturbation():
    shift, system = mixed_pair_system()
    cert = certify_subnormal(shift, system, horizon=4)
    assert cert.status == CERTIFIED
    bad_mu = dict(system.mu)
    atoms = list(bad_mu[2].atoms)
    atoms[0] = (atoms[0][0], atoms[0][1] + 0.05)
    bad_mu[2] = AtomicMeasure(tuple(atoms))
    cert2 = certify_subnormal(
        shift, MeasureSystem(mu=bad_mu, eps=system.eps), horizon=4
    )
    assert cert2.status == REFUTED
    assert cert2.witness["vertex"] in {"1", "2"}


def test_certify_flags_eps_on_nonroot_with_nonzero_weights():
    shift, system = delta_one_system()
    # manufacture a system claiming point mass at zero on a non-root vertex
    mu = dict(system.mu)
    mu[2] = AtomicMeasure(((0.0, 0.25), (1.0, 0.75)))
    eps = {**system.eps, 2: 0.25}
    cert = certify_subnormal(shift, MeasureSystem(mu=mu, eps=eps), horizon=4)
    assert cert.status == REFUTED


def test_certificate_rows_are_the_row_rule_on_the_power_norm_table(rng):
    # each entry is the shared row rule applied to the measure's moments and
    # the vertex's row of the recursion table; moments_match reads the same
    # row, so its report is the certificate's entry, bit for bit
    for tree in family_windows():
        shift, system = random_consistent_system(rng, tree=tree)
        for horizon in (0, 2, 7):
            cert = certify_subnormal(shift, system, horizon=horizon)
            table = shift.power_norms(horizon)
            want = tuple(
                _rows_report(u, system.measure(u).moments(len(row) - 1), row, 1e-9)
                for u, row in sorted(table.items(), key=lambda item: vertex_sort_key(item[0]))
            )
            assert cert.moments == want
            for rep in cert.moments:
                assert moments_match(system, shift, rep.vertex, horizon) == rep
                assert shift.moment_values(rep.vertex, rep.top) == table[rep.vertex]


def test_certify_subnormal_with_a_negative_horizon_raises():
    shift, system = delta_one_system()
    with pytest.raises(ValueError, match="^generation index must be nonnegative$"):
        certify_subnormal(shift, system, horizon=-1)


def _overflowing_window():
    """The depth-2 half line with weights 1e160 and 1 and delta_1 at every
    vertex: |1e160|^2 overflows, so the identity at 0 cannot hold."""
    tree = make_family("unilateral", 2)
    shift = WeightedShift(tree, {1: 1e160, 2: 1.0})
    delta = AtomicMeasure.delta(1.0)
    return shift, MeasureSystem(mu={v: delta for v in tree.sorted_vertices}, eps={})


def test_an_identity_whose_reconstruction_overflows_fails_at_its_vertex():
    shift, system = _overflowing_window()
    first, second = identity_reports(system, shift)
    assert not first.ok and first.vertex == 0 and first.max_discrepancy == math.inf
    assert first.reason.startswith(
        "reconstructed measure is not finite: superposed mass at x = 1.0 is not finite: inf"
    )
    assert second.ok
    cert = certify_subnormal(shift, system, horizon=2)
    assert cert.status == REFUTED
    assert cert.witness["check"] == "consistency-identity" and cert.witness["vertex"] == "0"
    assert cert.witness["discrepancy"] == math.inf


def test_an_identity_whose_inverse_moment_overflows_fails_at_its_vertex():
    # delta at the least subnormal everywhere: x**-1 overflows, so no deficit
    # can be formed and the identity fails, rather than raising
    tree = make_family("unilateral", 2)
    shift = WeightedShift(tree, {1: 1.0, 2: 1.0})
    delta = AtomicMeasure.delta(5e-324)
    system = MeasureSystem(mu={v: delta for v in tree.sorted_vertices}, eps={})
    reason = (
        "inverse-moment sum is not finite: "
        "moment of order -1 overflows: x**-1 at the atom x = 5e-324, w = 1.0"
    )
    reports = identity_reports(system, shift)
    assert [r.vertex for r in reports] == [0, 1]
    for r in reports:
        assert not r.ok and r.max_discrepancy == math.inf and r.reason == reason
        assert r.discrepancy_position is None and r.eps_computed is None
    cert = certify_subnormal(shift, system, horizon=2)
    assert cert.status == REFUTED
    assert cert.witness["check"] == "consistency-identity" and cert.witness["vertex"] == "0"
    assert cert.witness["discrepancy"] == math.inf and cert.witness["reason"] == reason
    # finite inverse moments whose weighted sum overflows fail the same way
    cherry = truncated_tree([0, 1, 2], {1: 0, 2: 0})
    shift = WeightedShift(cherry, {1: 1.0, 2: 1.0})
    delta = AtomicMeasure.delta(1e-308)
    system = MeasureSystem(mu={v: delta for v in cherry.sorted_vertices}, eps={})
    rep = propagate_check(system, shift, 0, 1)
    assert not rep.ok and rep.max_discrepancy == math.inf
    assert rep.reason == "inverse-moment sum is not finite: intermediate overflow in fsum"


def test_an_exact_identity_under_a_subnormal_squared_weight_holds():
    # |w|^2 = 5e-324 and delta at 5e-324 at both vertices: w * x**-1 overflows,
    # but |w|^2 * w * x**-1 is exactly 1, so mu_0 = |w|^2 s^-1 mu_1 holds
    tree = make_family("unilateral", 1)
    shift = WeightedShift(tree, {1: math.sqrt(5e-324)})
    assert shift.modulus_sq(1) == 5e-324
    delta = AtomicMeasure.delta(5e-324)
    system = MeasureSystem(mu={0: delta, 1: delta}, eps={})
    (report,) = identity_reports(system, shift)
    assert report.ok and report.max_discrepancy == 0.0 and report.eps_computed == 0.0
    assert propagate_check(system, shift, 0, 1) == report
    cert = certify_subnormal(shift, system, horizon=1)
    assert cert.status == CERTIFIED and cert.witness is None
    assert parent_from_children(shift, 0, {1: delta}) == (delta, 0.0)
    assert superpose([(5e-324, delta)], -1) == delta
    # where the scaled mass itself is past the largest float, the same
    # failed identity as before
    unit = WeightedShift(tree, {1: 1.0})
    (report,) = identity_reports(system, unit)
    assert not report.ok and report.max_discrepancy == math.inf and report.eps_computed is None
    assert report.reason == (
        "inverse-moment sum is not finite: "
        "moment of order -1 overflows: x**-1 at the atom x = 5e-324, w = 1.0"
    )
    with pytest.raises(ValueError, match=r"^moment of order -1 overflows: x\*\*-1 at the atom"):
        parent_from_children(unit, 0, {1: delta})


def test_build_system_from_sequences_unilateral():
    tree = make_family("unilateral", 5)
    shift = WeightedShift(tree, {k: 1.0 for k in range(1, 6)})
    seqs = {v: (1.0,) * 8 for v in tree.sorted_vertices}
    system = build_system_from_sequences(shift, seqs)
    assert system.conditional
    for v in tree.sorted_vertices:
        assert system.mu[v].atoms == ((1.0, 1.0),)
        assert system.eps_at(v) == pytest.approx(0.0)
    cert = certify_subnormal(shift, system, horizon=5)
    assert cert.status == CONDITIONAL


def test_build_system_leaves_get_zero_mass():
    tree = make_family("unilateral", 2).subtree(0)
    # subtree keeps frontier {2}; drop it to fake a true leaf situation
    from treeshift import explicit_tree

    leafy = explicit_tree([0, 1], {1: 0})
    shift = WeightedShift(leafy, {1: 0.0})
    system = build_system_from_sequences(shift, {0: (1.0, 0.0, 0.0)})
    assert system.mu[1].atoms == ((0.0, 1.0),)
    assert system.eps_at(1) == 1.0


# the 9-vertex path and a branching window: trunk 0 -> 1, two branches of
# depth 3 below vertex 1
SEQUENCE_WINDOWS = {
    "path": (range(9), {k: k - 1 for k in range(1, 9)}),
    "branching": (range(8), {1: 0, 2: 1, 3: 2, 4: 3, 5: 1, 6: 5, 7: 6}),
}


def genuine_sequences(rng, window):
    """Weights and per-vertex moment sequences of a consistent system with
    multi-atom measures: 2r + 1 moments for an r-atom measure, so every
    measure is determined by its sequence."""
    tree = truncated_tree(*SEQUENCE_WINDOWS[window])
    shift, system = random_consistent_system(
        rng, tree=tree, max_atoms=3, support_hi=3.0, zero_weight_prob=0.0
    )
    sequences = {
        v: list(m.moments(2 * len(m.atoms))) for v, m in system.mu.items()
    }
    return shift, sequences


@pytest.mark.parametrize("window", sorted(SEQUENCE_WINDOWS))
def test_genuine_sequences_are_conditional(rng, window):
    for _ in range(12):
        shift, sequences = genuine_sequences(rng, window)
        system = build_system_from_sequences(shift, sequences)
        assert set(system.determinacy) <= shift.tree.frontier
        cert = certify_subnormal(shift, sequences=sequences)
        assert cert.status == CONDITIONAL, cert.witness


@pytest.mark.parametrize("window", sorted(SEQUENCE_WINDOWS))
def test_perturbed_sequences_or_weights_are_refuted(rng, window):
    for _ in range(4):
        shift, sequences = genuine_sequences(rng, window)
        tree = shift.tree
        interior = min(v for v in tree.sorted_vertices if v in tree.parent and tree.children(v))
        frontier = min(tree.frontier)
        # an interior sequence, at its second moment
        bad = {**sequences, interior: list(sequences[interior])}
        bad[interior][2] *= 1.01
        cert = certify_subnormal(shift, sequences=bad)
        assert cert.status == REFUTED
        assert cert.witness["check"] == "sequence-moment"
        assert cert.witness["vertex"] == str(interior)
        assert cert.witness["order"] == 2
        assert cert.witness["supplied"] == bad[interior][2]
        assert abs(cert.witness["reconstructed"] - sequences[interior][2]) <= 1e-9 * bad[interior][2]
        # a frontier sequence, at the top moment the quadrature does not use
        bad = {**sequences, frontier: list(sequences[frontier])}
        bad[frontier][-1] *= 1.01
        cert = certify_subnormal(shift, sequences=bad)
        assert cert.status == REFUTED
        assert cert.witness["check"] == "sequence-moment"
        assert cert.witness["vertex"] == str(frontier)
        assert cert.witness["order"] == len(bad[frontier]) - 1
        # one weight, up or down
        for factor in (1.01, 0.99):
            weights = {**shift.weights, interior: shift.weight(interior) * factor}
            cert = certify_subnormal(WeightedShift(tree, weights), sequences=sequences)
            assert cert.status == REFUTED
            assert cert.witness["vertex"] in {str(v) for v in tree.sorted_vertices}


def test_true_leaf_under_a_nonzero_weight_is_refuted_at_its_parent():
    from treeshift import explicit_tree

    shift = WeightedShift(explicit_tree([0, 1], {1: 0}), {1: 1.0})
    cert = certify_subnormal(shift, sequences={0: (1.0, 1.0, 1.0)})
    assert cert.status == REFUTED
    assert cert.witness["check"] == "consistency-identity"
    assert cert.witness["vertex"] == "0"
    assert "carries mass 1.0 at zero" in cert.witness["reason"]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the Gauss fit at the frontier under-estimates the integral of 1/s, so the "
    "identity above it keeps a deficit at zero and refutes a genuine shift",
)
@pytest.mark.parametrize("family", ["bergman", "factorial"])
@pytest.mark.parametrize("depth", [2, 3])
def test_exact_power_norms_of_a_subnormal_shift_are_not_refuted(family, depth):
    weights, sequences = exact_half_line_sequences(family, depth, 6)
    shift = WeightedShift(make_family("unilateral", depth), dict(enumerate(weights, 1)))
    cert = certify_subnormal(shift, sequences=sequences)
    assert cert.status != REFUTED, cert.witness


@pytest.mark.parametrize("values", [[math.nan, 1.0], [1.0, math.nan], [math.inf, 1.0]])
def test_a_frontier_prefix_that_is_not_finite_is_an_input_error(values):
    # [nan, 1] at the frontier used to give an empty measure there, and a
    # false refutation (sequence-moment) at the root
    shift = WeightedShift(make_family("unilateral", 1), {1: 1.0})
    with pytest.raises(ValueError, match="moment t_[01] = (nan|inf) is not finite"):
        certify_subnormal(shift, sequences={0: [1, 1, 1], 1: values})


def test_a_sequence_that_fails_the_hankel_test_is_refuted_at_its_vertex():
    shift = WeightedShift(make_family("unilateral", 3), {k: 1.0 for k in range(1, 4)})
    sequences = {0: (1, 1, 1, 1), 1: (1, 1, 1, 1), 2: (1, 1, 1, 1), 3: (1, 2, 1, 5)}
    with pytest.raises(RefutedSequenceError) as caught:
        build_system_from_sequences(shift, sequences)
    assert caught.value.vertex == 3
    verdict = check_stieltjes((1, 2, 1, 5))
    cert = certify_subnormal(shift, sequences=sequences)
    assert cert.status == REFUTED
    assert cert.witness == {
        "vertex": "3",
        "check": "hankel",
        "block": verdict.witness_block,
        "vector": list(verdict.witness_vector),
        "quadratic_form": verdict.witness_value,
        "reason": "cannot reconstruct a measure from a refuted sequence",
    }
    assert cert.consistency == () and cert.moments == ()
    # a two-moment prefix has no Hankel block to show
    cert = certify_subnormal(shift, sequences={**sequences, 3: (1.0, -2.0)})
    assert cert.status == REFUTED
    assert cert.witness == {
        "vertex": "3",
        "check": "hankel",
        "block": None,
        "vector": None,
        "quadratic_form": None,
        "reason": "two-moment prefix (1.0, -2.0) admits no measure",
    }


def test_parent_from_children_drops_a_deficit_at_the_tolerance():
    tree = make_family("unilateral", 1)
    for deficit, kept in ((0.5e-9, 0.0), (2e-9, 2e-9)):
        shift = WeightedShift(tree, {1: math.sqrt(1.0 - deficit)})
        mu, eps = parent_from_children(shift, 0, {1: AtomicMeasure.delta(1.0)})
        assert eps == pytest.approx(kept, abs=1e-15)
        assert mu.mass_at_zero == eps


def test_certified_systems_restrict_to_subtrees(rng):
    for _ in range(10):
        shift, system = random_consistent_system(rng, max_vertices=25)
        cert = certify_subnormal(shift, system, horizon=6)
        assert cert.status == CERTIFIED
        tree = shift.tree
        for u in tree.sorted_vertices:
            sub = tree.subtree(u)
            sub_shift = WeightedShift(
                sub, {v: shift.weight(v) for v in sub.non_root_vertices}
            )
            sub_cert = certify_subnormal(
                sub_shift, system.restricted_to(sub.vertices), horizon=6
            )
            assert sub_cert.status == CERTIFIED, (u, sub_cert.witness)


def test_bounded_support_controls_norm_bound(rng):
    # supports inside [0, M] force the squared norm bound below M
    for _ in range(10):
        shift, system = random_consistent_system(rng, support_hi=7.5)
        M = max(system.mu[v].max_position() for v in shift.tree.sorted_vertices)
        assert shift.norm_bound().value <= M + 1e-9
        # bounded case: every vertex norm sequence passes the Hankel test
        for u in shift.tree.sorted_vertices:
            avail = int(min(6, shift.tree.available_depth(u)))
            if avail < 2:
                continue
            assert check_stieltjes(shift.moment_values(u, avail)).consistent


def test_unbounded_growth_escapes_every_support_bound():
    # factorial moments: quadrature measures spread beyond any fixed bound
    # as the window grows
    from treeshift import quadrature_from_moments

    tops = []
    for n_max in (5, 9, 13):
        values = tuple(float(math.factorial(n)) for n in range(n_max + 1))
        usable = 2 * ((n_max + 1) // 2)
        mu = quadrature_from_moments(values[:usable]).measure
        tops.append(mu.max_position())
    assert tops[0] < tops[1] < tops[2]
    assert tops[2] > 2.0 * tops[0]


def test_system_json_roundtrip():
    shift, system = mixed_pair_system()
    doc = system.as_dict()
    back = system_from_json(doc)
    for v in system.mu:
        assert back.mu[v].atoms == system.mu[v].atoms
        assert back.eps_at(v) == system.eps_at(v)


def test_measure_discrepancy_alignment():
    a = AtomicMeasure(((1.0, 0.5), (2.0, 0.5)))
    b = AtomicMeasure(((1.0, 0.5), (2.0, 0.4)))
    d, at = measure_discrepancy(a, b)
    assert d == pytest.approx(0.1) and at == 2.0
    c = AtomicMeasure(((1.0, 0.5), (2.0, 0.5), (3.0, 0.2)))
    d2, at2 = measure_discrepancy(a, c)
    assert d2 == pytest.approx(0.2) and at2 == 3.0


def _nudged(x, ulps):
    for _ in range(ulps):
        x = math.nextafter(x, math.inf)
    return x


@pytest.mark.parametrize("ulps", [1, 4])
@pytest.mark.parametrize("x", [3.0, 3e3, 3e5, 3e8, 3e12])
def test_an_atom_moved_by_a_few_ulps_still_certifies(x, ulps):
    # weights sqrt(x) and delta_x everywhere, the root's atom rounded up: the
    # positions align on the scale of x, not within an absolute 1e-12
    depth = 6
    tree = make_family("unilateral", depth)
    shift = WeightedShift(tree, {v: math.sqrt(x) for v in range(1, depth + 1)})
    mu = {v: AtomicMeasure.delta(_nudged(x, ulps) if v == 0 else x) for v in tree.sorted_vertices}
    system = MeasureSystem(mu=mu, eps={v: 0.0 for v in tree.sorted_vertices})
    cert = certify_subnormal(shift, system, horizon=depth)
    assert cert.status == CERTIFIED, cert.witness


@pytest.mark.parametrize("ulps", [1, 2, 3, 4])
@pytest.mark.parametrize("x", [1.0, 3.0, 3e3, 3e5, 3e8, 1e12, 3e12])
def test_sibling_atoms_a_few_ulps_apart_merge_and_certify(x, ulps):
    # 0 -> {1, 2}, weights sqrt(x/2), delta_x at 0 and 1 and delta_x rounded
    # up at 2: the superposition at 0 merges the two children's atoms on the
    # scale of x, not within an absolute 1e-12
    tree = truncated_tree([0, 1, 2], {1: 0, 2: 0})
    shift = WeightedShift(tree, {1: math.sqrt(x / 2), 2: math.sqrt(x / 2)})
    atoms = {0: x, 1: x, 2: _nudged(x, ulps)}
    mu = {v: AtomicMeasure.delta(a) for v, a in atoms.items()}
    system = MeasureSystem(mu=mu, eps={0: 0.0, 1: 0.0, 2: 0.0})
    cert = certify_subnormal(shift, system, horizon=1)
    assert cert.status == CERTIFIED, cert.witness


def test_atoms_merge_relative_to_their_position():
    x = 3e12
    assert AtomicMeasure(((x, 0.5), (_nudged(x, 4), 0.5))).atoms == ((x, 1.0),)
    assert len(AtomicMeasure(((x, 0.5), (x * (1 + 1e-9), 0.5))).atoms) == 2
    # below 1 the tolerance stays absolute, and a negative position within it is 0
    assert len(AtomicMeasure(((0.5, 0.5), (0.5 + 1e-11, 0.5))).atoms) == 2
    assert AtomicMeasure(((-1e-13, 1.0),)).atoms == ((0.0, 1.0),)
    with pytest.raises(ValueError, match="negative"):
        AtomicMeasure.delta(-1e-11)


def test_measure_discrepancy_aligns_positions_relative_to_their_scale():
    x = 3e12
    near, far = AtomicMeasure.delta(_nudged(x, 4)), AtomicMeasure.delta(x * (1 + 1e-9))
    assert measure_discrepancy(AtomicMeasure.delta(x), near) == (0.0, None)
    assert measure_discrepancy(AtomicMeasure.delta(x), far) == (1.0, x)
    # below 1 the tolerance stays absolute
    assert measure_discrepancy(AtomicMeasure.delta(0.5), AtomicMeasure.delta(0.5 + 1e-11))[0] == 1.0


def test_non_finite_zero_masses_are_rejected():
    mu = {0: AtomicMeasure.delta(1.0)}
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"point mass {bad} at zero of 0 is not finite"):
            MeasureSystem(mu=mu, eps={0: bad})
    with pytest.raises(ValueError, match="nonnegative"):
        MeasureSystem(mu=mu, eps={0: -0.5})


# -- the Lambert sweep ------------------------------------------------------------


def _sweep_sample(rng, i):
    """The i-th shift of the sweep sample: explicit and truncated chain
    trees, with consistent systems' weights (which pass), constant moduli or
    random complex weights, and about 5% zero weights."""
    tree = random_chain_tree(rng, explicit=i % 2 == 1)
    if i % 4 == 0:
        return random_consistent_system(rng, tree=tree)[0]
    scale = rng.uniform(0.5, 1.5)
    weights = {}
    for v in tree.non_root_vertices:
        phase = rng.uniform(0.0, 2.0 * math.pi) if i % 4 == 1 else 0.0
        r = scale if i % 4 == 2 else rng.uniform(0.5, 1.5)
        weights[v] = 0.0 if rng.random() < 0.05 else r * complex(math.cos(phase), math.sin(phase))
    return WeightedShift(tree, weights)


def test_lambert_sweep_agrees_with_testing_every_vertex():
    # a vertex is skipped only where its parent's blocks contain its own,
    # so refuting and passing trees come out alike, with fewer tests
    rng = np.random.default_rng(1616)
    outcomes, tested, eligible = set(), 0, 0
    for i in range(240):
        shift = _sweep_sample(rng, i)
        verdicts, failed = lambert_sweep(shift, horizon=8)
        every = every_vertex_failures(shift, 8)
        assert (failed is None) == (not every), i
        assert {u for u, v in verdicts.items() if not v.consistent} <= set(every)
        outcomes.add(failed is None)
        tested += len(verdicts)
        depths = map(shift.tree.available_depth, shift.tree.vertices)
        eligible += sum(min(8, d) >= 2 for d in depths)
    assert outcomes == {True, False}
    assert tested < 0.9 * eligible


def test_lambert_sweep_tests_below_a_parent_whose_prefix_the_cap_cuts():
    # four atoms make the order-8 Hankel block singular; lowering the last of
    # 12 weights by 2^-22 breaks the capped norms of vertex 4 alone, which
    # has 8 levels below it.  Its parent's capped prefix stops one weight
    # short, so vertex 4 must be tested although its parent has one child.
    mom = AtomicMeasure(tuple((x, 0.25) for x in (1.0, 2.0, 3.0, 3.5))).moments(12)
    weights = [math.sqrt(mom[n] / mom[n - 1]) for n in range(1, 13)]
    weights[-1] *= 1.0 - 2.0**-22
    shift = WeightedShift(make_family("unilateral", 12), dict(enumerate(weights, start=1)))
    assert every_vertex_failures(shift, 8) == [4]
    verdicts, failed = lambert_sweep(shift, horizon=8)
    assert sorted(verdicts) == [0, 1, 2, 3, 4] and failed == 4
    # uncapped, the root's norms reach the last weight and stand for the path
    verdicts, failed = lambert_sweep(shift)
    assert sorted(verdicts) == [0] and failed == 0


def test_an_unbounded_order_on_a_tree_without_frontier_is_refused_naming_the_vertex():
    # an explicit tree has no frontier, so an infinite horizon or order
    # leaves every vertex's power norms without a last order
    shift = WeightedShift(explicit_tree([0, 1, 2], {1: 0, 2: 1}), {1: 1.0, 2: 1.0})
    system = MeasureSystem(mu={v: AtomicMeasure.delta(1.0) for v in range(3)}, eps={})
    with pytest.raises(ValueError, match="no finite order at 0"):
        lambert_sweep(shift)
    with pytest.raises(ValueError, match="no finite order at 0"):
        moments_match(system, shift, 0, math.inf)
    assert sorted(lambert_sweep(shift, horizon=4)[0]) == [0, 1, 2]
    assert moments_match(system, shift, 0, 4).top == 4


def test_lambert_sweep_tests_each_child_of_a_branching_vertex():
    # two chains below the root: a genuine one of five atoms and, under a
    # light entry weight, one whose norms fail; their sum at the root passes
    parent = {1: 0, 7: 0, **{k: k - 1 for k in (*range(2, 7), *range(8, 13))}}
    mom = AtomicMeasure(tuple((x, 0.2) for x in (0.5, 1.0, 1.5, 2.0, 3.0))).moments(6)
    weights = {1: 0.1, 2: 1.0, 3: 0.5, 4: 1.0, 5: 1.0, 6: 1.0, 7: math.sqrt(0.99 * mom[1])}
    weights.update({k: math.sqrt(mom[k - 6] / mom[k - 7]) for k in range(8, 13)})
    shift = WeightedShift(truncated_tree(range(13), parent), weights)
    assert every_vertex_failures(shift, math.inf) == [1]
    verdicts, failed = lambert_sweep(shift)
    assert sorted(verdicts) == [0, 1, 7] and failed == 1


def test_lambert_sweep_tests_past_zero_weights_and_reuses_known_verdicts():
    weights = {1: 1.0, 2: 0.0, 3: 1.0, 4: 2.0, 5: 1.0, 6: 1.0}
    shift = WeightedShift(make_family("unilateral", 6), weights)
    verdicts, failed = lambert_sweep(shift)
    assert sorted(verdicts) == [0, 2] and failed == 0
    passing = check_stieltjes([1.0, 1.0, 1.0])
    verdicts, failed = lambert_sweep(shift, known={0: passing})
    assert verdicts[0] is passing and failed == 2


def test_lambert_sweep_tests_every_vertex_where_the_cap_binds_everywhere():
    # no frontier: every prefix is capped to the same length, so no parent's
    # prefix contains its child's
    shift = WeightedShift(explicit_tree(range(3), {1: 0, 2: 1}), {1: 1.0, 2: 1.0})
    verdicts, failed = lambert_sweep(shift, horizon=8)
    assert sorted(verdicts) == [0, 1, 2] and failed == 0
