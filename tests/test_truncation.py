import math
import random
import re

import numpy as np
import pytest

from treeshift import (
    AtomicMeasure,
    MeasureSystem,
    TruncationEntry,
    WeightedShift,
    check_stieltjes,
    convergence_report,
    make_family,
    parent_from_children,
    truncate,
    truncated_path_weight,
    verify_truncated_consistency,
)
from treeshift import truncation
from treeshift.shift import _fsum_complex, _mod_sq_list
from treeshift.tree import vertex_sort_key

from conftest import every_vertex_failures, random_chain_tree, random_consistent_system


def mixed_pair_system(positions=(1.0, 2.0), depth=4):
    tree = make_family("unilateral", depth)
    base = AtomicMeasure(((positions[0], 0.5), (positions[1], 0.5)))
    t = base.moments(depth + 1)
    shift = WeightedShift(
        tree, {n + 1: math.sqrt(t[n + 1] / t[n]) for n in range(depth)}
    )
    mu = {}
    current = base
    for n in range(depth + 1):
        mu[n] = current.scaled(1.0 / current.total_mass)
        current = current.times_power(1)
    return shift, MeasureSystem(mu=mu, eps={v: 0.0 for v in tree.sorted_vertices})


def test_truncation_identity_when_window_covers_support():
    shift, system = mixed_pair_system()
    entry = truncate(system, shift, 4)
    for v in shift.tree.non_root_vertices:
        assert entry.shift.weight(v) == shift.weight(v)
    for v in shift.tree.sorted_vertices:
        assert entry.system.mu[v].atoms == system.mu[v].atoms
        assert entry.system.eps_at(v) == system.eps_at(v)


def test_truncation_restricts_and_rescales():
    shift, system = mixed_pair_system(positions=(1.0, 3.0))
    entry = truncate(system, shift, 2)
    assert entry.system.mu[0].atoms == ((1.0, 1.0),)
    # weight rescaling by the window-mass ratio of endpoint over parent
    expected = shift.weight(1) * math.sqrt(
        system.mu[1].mass_upto(2) / system.mu[0].mass_upto(2)
    )
    assert entry.shift.weight(1) == pytest.approx(expected, rel=1e-15)
    report = verify_truncated_consistency(entry)
    assert report.ok
    assert report.max_support <= 2.0


def test_degenerate_window_branch():
    # all mass above the window: weight zero, unit point mass at zero
    tree = make_family("unilateral", 2)
    base = AtomicMeasure.delta(3.0)
    t = base.moments(3)
    shift = WeightedShift(tree, {1: math.sqrt(t[1]), 2: math.sqrt(t[2] / t[1])})
    mu = {0: base, 1: base, 2: base}
    system = MeasureSystem(mu=mu, eps={0: 0.0, 1: 0.0, 2: 0.0})
    entry = truncate(system, shift, 2)
    assert entry.shift.weight(1) == 0.0
    assert entry.system.mu[0].atoms == ((0.0, 1.0),)
    assert entry.system.eps_at(0) == 1.0
    assert verify_truncated_consistency(entry).ok


def test_truncation_survives_a_subnormal_window_mass():
    # mu_1 = 1e-320 d_0.5 + d_3 under a unit weight: the window [0, 1] holds
    # the mass 1e-320 at vertex 1, whose reciprocal overflows, so each mass
    # is divided by it
    shift = WeightedShift(make_family("unilateral", 1), {1: 1.0})
    mu1 = AtomicMeasure(((0.5, 1e-320), (3.0, 1.0)))
    mu0, eps0 = parent_from_children(shift, 0, {1: mu1})
    system = MeasureSystem(mu={0: mu0, 1: mu1}, eps={0: eps0, 1: 0.0})
    entry = truncate(system, shift, 1)
    assert entry.window_mass[1] == 1e-320 and 1.0 / entry.window_mass[1] == math.inf
    assert entry.system.mu[1].atoms == ((0.5, 1.0),)
    assert entry.system.mu[0].total_mass == 1.0
    assert verify_truncated_consistency(entry).ok


def test_truncated_path_weight_closed_form():
    shift, system = mixed_pair_system()
    entry = truncate(system, shift, 1)
    assert truncated_path_weight(entry, 0, 0) == 1.0
    got = truncated_path_weight(entry, 0, 1)
    want = shift.weight(1) * math.sqrt((1 / 3) / (1 / 2))
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(entry.shift.path_weight(0, 1), rel=1e-14)
    with pytest.raises(ValueError, match="below the first massive window"):
        shift5, system5 = mixed_pair_system(positions=(3.0, 5.0))
        entry5 = truncate(system5, shift5, 2)
        truncated_path_weight(entry5, 0, 1)


def test_truncated_path_weight_matches_direct_on_random_systems(rng):
    for _ in range(15):
        shift, system = random_consistent_system(rng, max_vertices=25)
        tree = shift.tree
        for i in (2, 5, 11):
            entry = truncate(system, shift, i)
            for u in tree.sorted_vertices:
                if entry.kappas[u] > i:
                    continue
                for v in sorted(tree.descendants(u), key=str)[:6]:
                    closed = truncated_path_weight(entry, u, v)
                    direct = entry.shift.path_weight(u, v)
                    assert abs(closed - direct) <= 1e-12 * max(
                        1.0, abs(closed), abs(direct)
                    )


def test_every_truncation_of_consistent_system_verifies(rng):
    for _ in range(15):
        shift, system = random_consistent_system(rng, max_vertices=25)
        for i in (2, 4, 8, 16):
            entry = truncate(system, shift, i)
            report = verify_truncated_consistency(entry)
            assert report.ok, (i, report.as_dict())
            assert report.max_support <= i
            assert report.norm_bound <= i + 1e-9


def test_truncated_norm_equals_windowed_moment(rng):
    # |S_trunc^n e_u|^2 = window moment of the original measure, normalized
    for _ in range(10):
        shift, system = random_consistent_system(rng, max_vertices=20)
        tree = shift.tree
        for i in (3, 7):
            entry = truncate(system, shift, i)
            for u in tree.sorted_vertices:
                mass = system.mu[u].mass_upto(i)
                if mass == 0.0:
                    continue
                avail = int(min(3, tree.available_depth(u)))
                for n in range(avail + 1):
                    windowed = (
                        math.fsum(
                            w * x**n for x, w in system.mu[u].atoms if x <= i
                        )
                        / mass
                    )
                    got = entry.shift.power_norm_sq(u, n)
                    assert got == pytest.approx(windowed, rel=1e-9, abs=1e-12)


def test_truncations_pass_bounded_hankel_everywhere(rng):
    for _ in range(8):
        shift, system = random_consistent_system(rng, max_vertices=20)
        entry = truncate(system, shift, 4)
        tree = shift.tree
        for u in tree.sorted_vertices:
            avail = int(min(6, tree.available_depth(u)))
            if avail < 2:
                continue
            assert check_stieltjes(entry.shift.moment_values(u, avail)).consistent


def test_hand_perturbed_entry_fails():
    shift, system = mixed_pair_system()
    entry = truncate(system, shift, 4)
    tampered_weights = dict(entry.shift.weights)
    tampered_weights[2] = tampered_weights[2] * 1.05
    from treeshift import TruncationEntry

    bad = TruncationEntry(
        index=entry.index,
        shift=WeightedShift(entry.shift.tree, tampered_weights),
        system=entry.system,
        original_shift=entry.original_shift,
        original_system=entry.original_system,
        kappas=entry.kappas,
        window_mass=entry.window_mass,
    )
    report = verify_truncated_consistency(bad)
    assert not report.ok
    failing = [r for r in report.consistency if not r.ok]
    assert failing and failing[0].vertex == 1


def test_weights_converge_to_originals(rng):
    for _ in range(10):
        shift, system = random_consistent_system(rng, max_vertices=20)
        residuals = []
        for i in (2, 4, 8, 16):
            entry = truncate(system, shift, i)
            residuals.append(
                max(
                    abs(entry.shift.weight(v) - shift.weight(v))
                    for v in shift.tree.non_root_vertices
                )
            )
        assert residuals[-1] <= 1e-12  # supports end below 10 < 16
        assert all(
            b <= a + 1e-12 for a, b in zip(residuals, residuals[1:])
        )


def test_convergence_report_mixed_support():
    shift, system = mixed_pair_system(positions=(1.0, 3.0))
    table = convergence_report(system, shift, 0, 2, [1, 2, 3])
    residuals = [r.residual_sq for r in table.rows]
    assert residuals[0] >= residuals[1] >= residuals[2]
    assert residuals[2] == 0.0
    assert table.original_norm_sq == pytest.approx(system.mu[0].moment(2))
    text = table.as_text()
    assert "residual_sq" in text and str(table.power) in text


def test_cross_inner_product_closed_form(rng):
    # <S^n e_u, S_trunc^n e_u> equals the window-mass weighted sum
    # (1/sqrt(m_u)) * sum |path weight|^2 sqrt(m_w) once the window has mass
    for _ in range(10):
        shift, system = random_consistent_system(rng, max_vertices=20)
        tree = shift.tree
        u = tree.root
        if tree.available_depth(u) < 2:
            continue
        for i in (3, 6):
            entry = truncate(system, shift, i)
            if entry.kappas[u] > i:
                continue
            table = convergence_report(system, shift, u, 2, [i])
            m_u = entry.window_mass[u]
            closed = math.fsum(
                abs(shift.path_weight(u, w)) ** 2
                * math.sqrt(entry.window_mass[w])
                for w in sorted(tree.children_n(u, 2), key=str)
            ) / math.sqrt(m_u)
            got = table.rows[0].cross_inner.real
            assert got == pytest.approx(closed, rel=1e-11, abs=1e-12)


def test_convergence_residuals_decay_on_spread_system(rng):
    tree = make_family("unilateral", 3)
    base = AtomicMeasure(tuple((float(x), 1 / 8) for x in range(1, 9)))
    t = base.moments(4)
    shift = WeightedShift(tree, {n + 1: math.sqrt(t[n + 1] / t[n]) for n in range(3)})
    mu = {}
    current = base
    for n in range(4):
        mu[n] = current.scaled(1.0 / current.total_mass)
        current = current.times_power(1)
    system = MeasureSystem(mu=mu, eps={v: 0.0 for v in tree.sorted_vertices})
    table = convergence_report(system, shift, 0, 2, [2, 4, 8])
    residuals = [r.residual_sq for r in table.rows]
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] == 0.0


def test_truncations_of_consistent_systems_pass_the_lambert_sweep():
    # chains longer than the order-8 cap and zero weights: every truncation
    # of a consistent system passes, as it does when every vertex is tested
    rng = np.random.default_rng(1617)
    tested = 0
    for _ in range(30):
        shift, system = random_consistent_system(rng, tree=random_chain_tree(rng))
        for i in (2, 4, 8):
            entry = truncate(system, shift, i)
            report = verify_truncated_consistency(entry)
            assert report.ok and report.stieltjes_ok and report.stieltjes_failures == ()
            assert every_vertex_failures(entry.shift, 8) == []
            tested += len(report.stieltjes)
    assert tested > 0


def half_line_at(x, depth=2):
    """The depth-``depth`` half line with weights sqrt(x) and the unit mass at
    x at every vertex: a consistent system whose norm bound is x up to
    rounding."""
    tree = make_family("unilateral", depth)
    shift = WeightedShift(tree, {n: math.sqrt(x) for n in range(1, depth + 1)})
    mu = {n: AtomicMeasure.delta(x) for n in range(depth + 1)}
    return shift, MeasureSystem(mu=mu, eps={n: 0.0 for n in mu})


def test_the_norm_bound_is_checked_relative_to_the_window_height():
    # at heights of 2**23 and up one ulp of the height exceeds 1e-9, so an
    # absolute tolerance refuted these identity windows on rounding alone
    shift, system = half_line_at(3e7)
    report = verify_truncated_consistency(truncate(system, shift, 30000000))
    assert report.norm_bound == 30000000.000000004
    assert report.norm_bound_ok and report.ok and report.witness is None
    rng = random.Random(30)
    for i in sorted(rng.randint(2**23, 124_000_000) for _ in range(100)):
        shift, system = half_line_at(float(i))
        report = verify_truncated_consistency(truncate(system, shift, i))
        assert report.ok, (i, report.norm_bound)


def test_a_norm_bound_past_the_relative_tolerance_stays_refuted():
    shift, system = half_line_at(4.0)
    entry = truncate(system, shift, 4)
    for factor, within in ((1.0 + 5e-10, True), (1.0 + 2e-9, False)):
        weights = {v: math.sqrt(4.0 * factor) for v in shift.weights}
        tampered = TruncationEntry(
            index=4,
            shift=WeightedShift(shift.tree, weights),
            system=entry.system,
            original_shift=shift,
            original_system=system,
            kappas=entry.kappas,
            window_mass=entry.window_mass,
        )
        report = verify_truncated_consistency(tampered)
        assert report.norm_bound_ok is within and report.supports_ok
        if not within:
            assert not report.ok and report.witness is not None


@pytest.mark.parametrize("height", [2.5, 0.5, 0, -1, 0.0, math.nan, math.inf, "3", None, 1j])
def test_window_heights_are_integers_from_one(height):
    shift, system = mixed_pair_system()
    message = re.escape(f"window height {height!r} is not an integer >= 1")
    with pytest.raises(ValueError, match=message):
        truncate(system, shift, height)
    with pytest.raises(ValueError, match="is not an integer >= 1"):
        convergence_report(system, shift, 0, 2, [2, height])


def test_integral_heights_behave_as_integers():
    shift, system = mixed_pair_system(positions=(1.0, 3.0))
    entry, floated = truncate(system, shift, 2), truncate(system, shift, 2.0)
    assert floated.index == 2.0 and floated.window_mass == entry.window_mass
    assert floated.shift.weights == entry.shift.weights
    assert convergence_report(system, shift, 0, 2, [2.0, 2, 3.0]) == convergence_report(
        system, shift, 0, 2, [2, 3]
    )


def test_window_weights_are_the_entry_weights(rng):
    for _ in range(10):
        shift, system = random_consistent_system(rng, max_vertices=25)
        for i in (1, 2, 4, 16):
            mass, weights = truncation._window_weights(system, shift, i)
            entry = truncate(system, shift, i)
            assert mass == entry.window_mass
            if weights is None:
                assert entry.shift is shift and entry.system is system
            else:
                assert list(weights.items()) == list(entry.shift.weights.items())
            # supports end below 10: the window of height 16 swallows them all
            assert weights is None or i < 16


def _rows_through_truncate(system, shift, u, n, heights):
    """The convergence rows as ``truncate`` builds them: each window's whole
    entry, then its shift's power coefficients."""
    coeffs = shift.power_coefficients(u, n)
    original = math.fsum(_mod_sq_list(coeffs.values()))
    rows = []
    for i in heights:
        tcoeffs = truncate(system, shift, i).shift.power_coefficients(u, n)
        trunc_norm = math.fsum(_mod_sq_list(tcoeffs.values()))
        cross = _fsum_complex(
            coeffs[w] * tcoeffs[w].conjugate() for w in sorted(coeffs, key=vertex_sort_key)
        )
        rows.append((i, trunc_norm, cross, original + trunc_norm - 2.0 * cross.real))
    return original, rows


def test_convergence_rows_equal_the_truncate_route(rng, monkeypatch):
    heights = (1, 2, 3, 5, 8, 16)
    cases = []
    for _ in range(12):
        shift, system = random_consistent_system(rng, max_vertices=30)
        tree = shift.tree
        for u in sorted(tree.sorted_vertices, key=vertex_sort_key)[:4]:
            for n in range(int(min(3, tree.available_depth(u))) + 1):
                cases.append((system, shift, u, n, _rows_through_truncate(
                    system, shift, u, n, heights
                )))
    # the report reads the window weights alone and never builds an entry
    monkeypatch.setattr(truncation, "truncate", None)
    for system, shift, u, n, (original, rows) in cases:
        table = convergence_report(system, shift, u, n, heights)
        got = [
            (r.index, r.truncated_norm_sq, r.cross_inner, r.residual_sq) for r in table.rows
        ]
        assert repr(table.original_norm_sq) == repr(original)
        assert repr(got) == repr(rows), (u, n)
    assert len(cases) > 50
