import cmath
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from treeshift import (
    AtomicMeasure,
    BranchData,
    CERTIFIED,
    CONDITIONAL,
    REFUTED,
    WeightedShift,
    branch_data_from_json,
    certify_bilateral,
    certify_t_eta_kappa,
    certify_unilateral,
    check_stieltjes,
    extract_branch_data,
    make_family,
    measure_from_json,
    product_moments,
    quadrature_from_moments,
    root_measure_equivalence_check,
    two_sided_from_weights,
)
from treeshift.consistency import hankel_witness
from treeshift.models import (
    branching_tree_system,
    construct_root_measure,
    root_inequality,
    trunk_conditions,
    verify_branch_moments,
)
from treeshift.moments import scaled_inverse_integral, superpose

from conftest import NEGATIVE_NODE_BRANCH, stratified_atoms
from test_classical_corpus import BRANCH_CASES, branching_document
from test_package import BENCH, _bench_module


# -- unilateral -----------------------------------------------------------------


def test_unilateral_isometry_certified():
    cert = certify_unilateral([1.0] * 10)
    assert cert.status == CERTIFIED
    assert cert.detail["representing_measure"]["atoms"][0]["x"] == pytest.approx(1.0)
    assert cert.detail["eps_root"] == 0.0


def reproduces_every_power_norm(detail, tol=1e-9):
    """The representing measure in a certificate's detail has the moments of
    its power-norm sequence, within ``tol``."""
    seq = detail["sequence"]
    moments = measure_from_json(detail["representing_measure"]).moments(len(seq) - 1)
    return moments == pytest.approx(seq, rel=tol, abs=tol)


def test_unilateral_sqrt_weights_certified():
    cert = certify_unilateral([math.sqrt(n) for n in range(1, 11)])
    assert cert.status == CERTIFIED and cert.system_certificate is None
    seq = cert.detail["sequence"]
    assert seq[:5] == pytest.approx([1.0, 1.0, 2.0, 6.0, 24.0], rel=1e-12)
    assert check_stieltjes(seq).consistent
    # five atoms fit t_0..t_9 of e^(-x) dx, not t_10, so the fit is no evidence
    assert "representing_measure" not in cert.detail
    assert cert.detail["note"].startswith("no representing measure: the fit misses t_10 ")
    cert = certify_unilateral([math.sqrt(n) for n in range(1, 10)])
    assert cert.status == CERTIFIED and reproduces_every_power_norm(cert.detail)


def test_unilateral_refuted_with_witness():
    cert = certify_unilateral([1.0, math.sqrt(0.5), 1.0, 1.0])
    assert cert.status == REFUTED
    assert cert.witness["check"] == "hankel"
    assert cert.witness["quadratic_form"] < 0


def test_unilateral_zero_weight_falls_back():
    # a zero first weight makes every later product vanish: the point-mass
    # sequences pass the necessary tests, so the verdict stays conditional
    cert = certify_unilateral([0.0, 1.0, 1.0, 1.0])
    assert cert.status == CONDITIONAL
    assert "necessary" in cert.detail["note"]
    # only the root and the vertex past the zero weight are tested: every
    # other vertex has its parent's norms shifted and rescaled
    assert sorted(cert.as_dict()["stieltjes"]) == ["0", "1"]
    # a zero in the middle refutes outright: {1, 1, 0, 0, ...} at the origin
    cert2 = certify_unilateral([1.0, 0.0, 1.0, 1.0])
    assert cert2.status == REFUTED
    assert sorted(cert2.as_dict()["stieltjes"]) == ["0", "2"]
    # the refutation reports the row its test ran on, so it re-checks alone
    assert cert2.detail["sequence"] == [1.0, 1.0, 0.0, 0.0, 0.0]
    form, with_tol = _exact_forms(cert2.detail["sequence"], cert2.witness)
    assert with_tol < 0 and float(form) == cert2.witness["quadratic_form"]


def _every_vertex_verdict(weights, tol=1e-9):
    """Status and witness of Hankel-testing the power norms at every vertex
    of a path, each its row of the path's ``power_norms`` table, the first
    failing vertex supplying the witness."""
    path = WeightedShift(make_family("unilateral", len(weights)), dict(enumerate(weights, 1)))
    norms = path.power_norms(math.inf)
    for k in range(len(weights) - 1):
        verdict = check_stieltjes(norms[k], tol=tol)
        if not verdict.consistent:
            return REFUTED, hankel_witness(verdict, vertex=str(k))
    return CONDITIONAL, None


def _moment_ratio_weights(rng, n):
    """n weights whose power norms are the moments of a measure with 1 to 3
    atoms, so the Hankel blocks past the atom count are singular."""
    atoms = AtomicMeasure(
        tuple(zip(rng.uniform(0.2, 3.0, size=int(rng.integers(1, 4))), rng.uniform(0.1, 1.0, size=3)))
    )
    mom = atoms.moments(n)
    return [math.sqrt(mom[j] / mom[j - 1]) for j in range(1, n + 1)]


def _zero_weight_path(rng):
    """Moment-ratio weights with one or two weights set to zero, and half
    the time one other weight perturbed by a relative 1e-12 to 1e-2."""
    n = int(rng.integers(3, 10))
    weights = _moment_ratio_weights(rng, n)
    zeros = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
    for k in zeros:
        weights[k] = 0.0
    if rng.random() < 0.5:
        k = int(rng.integers(n))
        if k not in zeros:
            weights[k] *= 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -2)
    return weights


def test_unilateral_zero_weight_paths_match_the_every_vertex_test():
    # Lambert's reduction tests only the root and the vertices past a zero
    # weight; the verdict and the witness must be those of testing all
    rng = np.random.default_rng(1414)
    statuses = set()
    for _ in range(5000):
        weights = _zero_weight_path(rng)
        cert = certify_unilateral(weights)
        assert (cert.status, cert.witness) == _every_vertex_verdict(weights), weights
        statuses.add(cert.status)
    assert statuses == {CONDITIONAL, REFUTED}


def test_unilateral_matches_general_certifier_on_random_weights(rng):
    # moment ratios of 1 to 3 atoms, half of them with one weight perturbed
    # by a relative 1e-12 to 1e-2: both verdicts occur
    statuses = set()
    for i in range(40):
        n = int(rng.integers(6, 12))
        weights = _moment_ratio_weights(rng, n)
        if i % 2:
            weights[int(rng.integers(n))] *= 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -2)
        cert = certify_unilateral(weights)
        verdict = check_stieltjes(product_moments(weights))
        expected = None if verdict.consistent else hankel_witness(verdict, vertex="0")
        assert (cert.status, cert.witness) == (
            CERTIFIED if verdict.consistent else REFUTED, expected
        ), weights
        assert cert.system_certificate is None
        statuses.add(cert.status)
    assert statuses == {CERTIFIED, REFUTED}


# -- bilateral -------------------------------------------------------------------


def test_two_sided_sequence_values():
    weights = {k: math.sqrt(2) for k in range(-3, 4)}
    seq = two_sided_from_weights(weights)
    for n in range(seq.k_min, seq.k_max + 1):
        assert seq.value(n) == pytest.approx(2.0**n)
    assert seq.left_shift(2)[0] == pytest.approx(0.25)


def test_bilateral_doubling_certified_across_shifts():
    weights = {k: math.sqrt(2) for k in range(-8, 9)}
    cert = certify_bilateral(weights)
    assert cert.status == CERTIFIED
    # only the deepest left shift, the window root's power norms, is tested
    assert set(cert.stieltjes) == {"9"}
    assert all(v.consistent for v in cert.stieltjes.values())
    measure = cert.detail["representing_measure"]["atoms"]
    assert measure[0]["x"] == pytest.approx(2.0, rel=1e-9)


def test_bilateral_refuted_names_shift():
    weights = {k: math.sqrt(2) for k in range(-4, 5)}
    weights[-2] = 5.0  # breaks positivity of a shifted block
    cert = certify_bilateral(weights)
    assert cert.status == REFUTED
    assert cert.witness["shift"] == 5 and set(cert.stieltjes) == {"5"}
    assert cert.witness["quadratic_form"] < 0


def _bilateral_window(rng, kind):
    """Weights over [lo, hi]: random complex ones, the two-sided moment
    ratios of a one- to three-atom measure, or those with one weight moved
    by a relative 1e-12 to 1e-1."""
    lo, hi = rng.randint(-5, 0), rng.randint(1, 6)
    if kind == "random":
        return {
            n: rng.uniform(0.3, 3.0) * cmath.exp(1j * rng.uniform(0.0, 6.3))
            for n in range(lo, hi + 1)
        }
    atoms = [(rng.uniform(0.3, 3.0), rng.uniform(0.1, 1.0)) for _ in range(rng.randint(1, 3))]
    t = {n: math.fsum(m * x**n for x, m in atoms) for n in range(lo - 1, hi + 1)}
    weights = {n: math.sqrt(t[n] / t[n - 1]) for n in range(lo, hi + 1)}
    if kind == "perturbed":
        weights[rng.randint(lo, hi)] *= 1.0 + rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-12, -1)
    return weights


def test_bilateral_deepest_shift_agrees_with_testing_every_shift():
    # every shallower left shift is a suffix of the deepest, so testing the
    # window root alone refutes exactly the windows that some shift refutes
    rng = random.Random(1601)
    outcomes = []
    for i in range(1500):
        weights = _bilateral_window(rng, ("random", "genuine", "perturbed")[i % 3])
        seq = two_sided_from_weights(weights)
        every = any(
            not check_stieltjes(seq.left_shift(k)).consistent
            for k in range(-seq.k_min + 1)
            if len(seq.left_shift(k)) >= 3
        )
        cert = certify_bilateral(weights)
        assert (cert.witness is not None and cert.witness["check"] == "hankel") == every, i
        outcomes.append(every)
    assert 500 < sum(outcomes) < len(outcomes) - 500


def test_bilateral_zero_weights_get_a_verdict():
    # weights 1, 0, 1, 1 over -1..2: the window root -2 has the norms 1, 1, 0,
    # 0, 0, which no measure has, so it refutes at the left shift 2; vertex 0,
    # past the zero weight, is tested too
    cert = certify_bilateral({-1: 1.0, 0: 0.0, 1: 1.0, 2: 1.0})
    assert cert.status == REFUTED and sorted(cert.stieltjes) == ["0", "2"]
    assert cert.witness["check"] == "hankel" and cert.witness["shift"] == 2
    assert cert.detail["sequence"] == [1.0, 1.0, 0.0, 0.0, 0.0]
    form, with_tol = _exact_forms(cert.detail["sequence"], cert.witness)
    assert with_tol < 0 and float(form) == cert.witness["quadratic_form"]
    # a zero first weight: the root's norms are those of the point mass at
    # zero, and past it the unit weights pass, which necessity cannot refute
    cert = certify_bilateral({-1: 0.0, 0: 1.0, 1: 1.0, 2: 1.0})
    assert cert.status == CONDITIONAL and cert.witness is None
    assert cert.detail == {"note": "zero weight: per-vertex necessary conditions only"}
    assert sorted(cert.stieltjes) == ["1", "2"]


def test_bilateral_pass_propagates_down_the_window(rng):
    # a representing measure at the window root walks down through the
    # single-child inversion and represents every later vertex's sequence
    from treeshift import child_from_parent_single

    weights = {k: math.sqrt(2) for k in range(-6, 7)}
    seq = two_sided_from_weights(weights)
    root = seq.k_min
    base_values = seq.left_shift(-root)
    usable = 2 * (len(base_values) // 2)
    rho = quadrature_from_moments(base_values[:usable]).measure
    rho = rho.scaled(1.0 / rho.total_mass)
    tree = make_family("bilateral-window", depth=6, back=-root)
    shift = WeightedShift(tree, {v: weights[v] for v in tree.non_root_vertices})
    current = rho
    for k in range(root, 4):
        n_max = min(4, 6 - k)
        expect = [shift.power_norm_sq(k, n) for n in range(n_max + 1)]
        got = current.moments(n_max)
        for a, b in zip(got, expect):
            assert a == pytest.approx(b, rel=1e-8)
        current = child_from_parent_single(shift, k, current)


# -- one branching vertex -----------------------------------------------------


def worked_branch_data(entry_sq=0.5):
    return BranchData(
        eta=2,
        kappa=0,
        branch_measures=(AtomicMeasure.delta(1.0), AtomicMeasure.delta(2.0)),
        entry_weights=(math.sqrt(entry_sq), math.sqrt(entry_sq)),
        branch_weights=((1.0,) * 7, (math.sqrt(2),) * 7),
    )


@pytest.mark.parametrize("kappa, expected", [(2, 2), (2.0, 2), ("inf", math.inf), (math.inf, math.inf)])
def test_branch_data_reads_integer_valued_kappa(kappa, expected):
    data = BranchData(
        eta=2,
        kappa=kappa,
        branch_measures=(AtomicMeasure.delta(1.0), AtomicMeasure.delta(2.0)),
        entry_weights=(0.5, 0.5),
        trunk_weights=(1.0, 1.0),
    )
    assert data.kappa == expected and type(data.kappa) is type(expected)


@pytest.mark.parametrize("kappa", [2.5, -1.0, "2", None])
def test_branch_data_refuses_kappa_that_is_no_count(kappa):
    with pytest.raises(ValueError, match="kappa must be"):
        BranchData(
            eta=2,
            kappa=kappa,
            branch_measures=(AtomicMeasure.delta(1.0), AtomicMeasure.delta(2.0)),
            entry_weights=(0.5, 0.5),
        )


def test_rooted_branching_vertex_worked_example():
    cert = certify_t_eta_kappa(worked_branch_data(), depth=8)
    assert cert.status == CERTIFIED
    assert cert.detail["eps"]["0"] == pytest.approx(0.25, abs=1e-12)
    assert cert.detail["condition"]["sum"] == pytest.approx(0.75)
    doubled = certify_t_eta_kappa(worked_branch_data(entry_sq=1.0), depth=8)
    assert doubled.status == REFUTED
    assert doubled.witness["value"] == pytest.approx(1.5)


def test_root_inequality_reads_the_certifier_tolerance():
    # the entry-weighted inverse sum is 1 + 5e-7: within tol 1e-6, not 1e-9
    data = worked_branch_data(entry_sq=(1 + 5e-7) / 1.5)
    assert certify_t_eta_kappa(data, depth=4, tol=1e-6).status == CERTIFIED
    assert certify_t_eta_kappa(data, depth=4).status == REFUTED


def test_branch_moment_hypothesis_is_enforced():
    bad = BranchData(
        eta=2,
        kappa=0,
        branch_measures=(AtomicMeasure.delta(1.0), AtomicMeasure.delta(2.0)),
        entry_weights=(0.5, 0.5),
        branch_weights=((1.0,) * 4, (1.0,) * 4),  # second branch lies
    )
    with pytest.raises(ValueError, match="do not represent"):
        certify_t_eta_kappa(bad, depth=5)
    report = verify_branch_moments(bad)
    assert not report["ok"]


def test_branch_moment_check_fails_rows_that_are_not_finite():
    # |1e160|^2 overflows, so the running products are inf and the relative
    # errors NaN; such a row must fail, not vanish from the maximum
    data = BranchData(
        eta=2,
        kappa=0,
        branch_measures=(AtomicMeasure.delta(1.0), AtomicMeasure.delta(1.0)),
        entry_weights=(0.5, 0.5),
        branch_weights=((1e160, 1.0), (1.0, 1.0)),
    )
    report = verify_branch_moments(data)
    assert not report["ok"]
    assert report["max_rel_err"] == math.inf
    assert report["rows"][0] == {"branch": 1, "n": 1, "moment": 1.0, "product": math.inf}
    with pytest.raises(ValueError, match="do not represent"):
        certify_t_eta_kappa(data, depth=3)


def random_branch_data(rng, eta, kappa, passing=True):
    """Random instance with two-atom branch measures; when ``passing``, the
    entry and trunk weights are solved so the trunk equalities hold and the
    terminal level sits at a random value at most one."""
    measures = tuple(stratified_atoms(rng, 2, lo=0.3, hi=6.0, mass_lo=0.2) for _ in range(eta))
    measures = tuple(m.scaled(1.0 / m.total_mass) for m in measures)
    if passing:
        shares = rng.dirichlet(np.ones(eta))
        entry = tuple(
            math.sqrt(share / m.moment(-1)) for share, m in zip(shares, measures)
        )
    else:
        entry = tuple(rng.uniform(0.4, 1.2) for _ in range(eta))
    data = BranchData(
        eta=eta,
        kappa=0,
        branch_measures=measures,
        entry_weights=entry,
    )
    trunk = []
    for level in range(1, kappa + 1):
        inv_sum = math.fsum(
            data.entry_mod_sq(i) * measures[i].moment(-(level + 1))
            for i in range(eta)
        )
        prod_so_far = math.fsum([0.0]) if not trunk else None
        prev = 1.0
        for w in trunk:
            prev *= abs(w) ** 2
        if level < kappa:
            target = 1.0
        else:
            target = rng.uniform(0.55, 1.0)
        if passing:
            w_sq = target / (inv_sum * prev)
        else:
            w_sq = rng.uniform(0.3, 1.5)
        trunk.append(math.sqrt(w_sq))
    return BranchData(
        eta=eta,
        kappa=kappa,
        branch_measures=measures,
        entry_weights=entry,
        trunk_weights=tuple(trunk),
    )


def test_finite_trunk_solved_instances_certify(rng):
    for kappa in (1, 2):
        for _ in range(5):
            data = random_branch_data(rng, eta=2, kappa=kappa, passing=True)
            cert = certify_t_eta_kappa(data, depth=5)
            assert cert.status == CERTIFIED, cert.witness
            eps = cert.detail["eps"]
            allowed = {str(-kappa)}
            assert set(eps) <= allowed


def _reference_trunk_suffix_sq(data, start):
    """The loop that ``trunk_suffix_sq`` replaced: the trunk weights from
    ``start`` on, multiplied in index order."""
    acc = 1.0 + 0.0j
    for j in range(start, len(data.trunk_weights)):
        acc *= data.trunk_weights[j]
    return acc.real * acc.real + acc.imag * acc.imag


def test_trunk_suffix_sq_equals_the_suffix_loop(rng):
    for kappa in range(6):
        for _ in range(20):
            trunk = tuple(
                complex(*rng.uniform(-3.0, 3.0, size=2)) * 10.0 ** rng.integers(-40, 40)
                for _ in range(kappa)
            )
            data = BranchData(
                eta=2,
                kappa=kappa,
                branch_measures=(AtomicMeasure.delta(1.0), AtomicMeasure.delta(2.0)),
                entry_weights=(0.5, 0.5),
                trunk_weights=trunk,
            )
            for start in range(kappa + 1):
                assert data.trunk_suffix_sq(start) == _reference_trunk_suffix_sq(data, start)


def test_trunk_root_equivalence_on_random_instances(rng):
    disagreements = 0
    for _ in range(100):
        eta = int(rng.integers(2, 4))
        kappa = int(rng.integers(1, 3))
        passing = rng.random() < 0.5
        data = random_branch_data(rng, eta=eta, kappa=kappa, passing=passing)
        report = root_measure_equivalence_check(data)
        if not report["agree"]:
            disagreements += 1
        if passing:
            assert report["trunk_form"]["ok"]
    assert disagreements == 0


def test_equivalence_check_exact_for_delta_branches():
    data = BranchData(
        eta=2,
        kappa=1,
        branch_measures=(AtomicMeasure.delta(1.0), AtomicMeasure.delta(4.0)),
        entry_weights=(math.sqrt(0.5), math.sqrt(2.0)),
        trunk_weights=(math.sqrt(1.0 / (0.5 * 1.0 + 2.0 * 0.0625)),),
    )
    report = root_measure_equivalence_check(data)
    assert report["agree"]
    assert report["trunk_form"]["ok"] == report["measure_form"]["ok"]


def test_infinite_trunk_windowed_conditions(rng):
    # build a passing windowed instance: every level equality solved
    eta = 2
    window = 4
    measures = tuple(stratified_atoms(rng, 2, lo=0.4, hi=5.0, mass_lo=0.3) for _ in range(eta))
    measures = tuple(m.scaled(1.0 / m.total_mass) for m in measures)
    shares = rng.dirichlet(np.ones(eta))
    entry = tuple(math.sqrt(s / m.moment(-1)) for s, m in zip(shares, measures))
    trunk = []
    prod = 1.0
    base = BranchData(
        eta=eta, kappa=0, branch_measures=measures, entry_weights=entry
    )
    for level in range(1, window + 1):
        inv_sum = math.fsum(
            base.entry_mod_sq(i) * measures[i].moment(-(level + 1))
            for i in range(eta)
        )
        w_sq = 1.0 / (inv_sum * prod)
        trunk.append(math.sqrt(w_sq))
        prod *= w_sq
    data = BranchData(
        eta=eta,
        kappa="inf",
        branch_measures=measures,
        entry_weights=entry,
        trunk_weights=tuple(trunk),
    )
    cond = trunk_conditions(data)
    assert cond["ok"] and cond["trunk"] == "windowed"
    cert = certify_t_eta_kappa(data, depth=window)
    assert cert.status == CERTIFIED
    assert all(v == 0.0 for v in cert.detail["eps"].values())


def test_certified_instances_cross_validate_at_every_vertex(rng):
    data = random_branch_data(rng, eta=3, kappa=2, passing=True)
    cert = certify_t_eta_kappa(data, depth=5)
    assert cert.status == CERTIFIED
    inner = cert.system_certificate
    assert inner.status == CERTIFIED
    assert all(r.ok for r in inner.consistency)
    assert all(r.ok for r in inner.moments)


def _level_rule_data(rng, eta, kappa, zero_entry=False, mass_at_zero=False, budget=None):
    """Branch data with complex entry and trunk weights, solved so that the
    trunk equalities hold up to rounding and the root level sits at
    ``budget`` (random in [0.6, 1.05] when None); optionally one entry weight
    is zero or one branch measure carries mass at zero (which leaves every
    level inf)."""
    measures = [stratified_atoms(rng, int(rng.integers(1, 4)), lo=0.3, hi=5.0) for _ in range(eta)]
    measures = [m.scaled(1.0 / m.total_mass) for m in measures]
    if budget is None:
        budget = rng.uniform(0.6, 1.05)
    shares = rng.dirichlet(np.ones(eta)) * (budget if kappa == 0 else 1.0)
    if zero_entry:
        shares[0] = 0.0
    entry = [
        math.sqrt(share / m.moment(-1)) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        for share, m in zip(shares, measures)
    ]
    if mass_at_zero:
        measures[-1] = measures[-1].scaled(0.7).plus(AtomicMeasure.delta(0.0, 0.3))
    levels = 4 if kappa == "inf" else kappa
    trunk = []
    prod = 1.0
    for level in range(1, levels + 1):
        inv_sum = math.fsum(
            abs(e) ** 2 * m.moment(-(level + 1)) for e, m in zip(entry, measures) if e
        )
        target = budget if level == kappa else 1.0
        w_sq = target / (inv_sum * prod) if 0.0 < inv_sum < math.inf else 1.0
        trunk.append(math.sqrt(w_sq) * cmath.exp(-1j * rng.uniform(0.0, 2.0 * math.pi)))
        prod *= w_sq
    return BranchData(
        eta=eta,
        kappa=kappa,
        branch_measures=tuple(measures),
        entry_weights=tuple(entry),
        trunk_weights=tuple(trunk),
    )


def _reference_level_value(data, level):
    """Trunk level ``level`` formulated from the public primitives: the trunk
    product times the ``fsum`` of ``scaled_inverse_integral`` over the
    branches; level 0 is the unscaled sum."""
    total = math.fsum(
        scaled_inverse_integral(data.entry_mod_sq(i), m, level + 1)
        for i, m in enumerate(data.branch_measures)
    )
    return total if level == 0 else data.trunk_product_sq(level) * total


def _reference_trunk_conditions(data, tol=1e-9):
    """The trunk conditions as two blocks: each interior level (each level of
    the window, at least level 0, for an infinite trunk) equals one, and
    (finite trunk only) level kappa is at most one."""
    kappa = data.kappa
    top = max(data.trunk_window, 1) if kappa == math.inf else kappa
    checks = []
    for level in range(top):
        value = _reference_level_value(data, level)
        checks.append({"level": level, "value": value, "target": "=1", "ok": abs(value - 1.0) <= tol})
    if kappa != math.inf:
        value = _reference_level_value(data, kappa)
        checks.append({"level": kappa, "value": value, "target": "<=1", "ok": value <= 1.0 + tol})
    label = "windowed" if kappa == math.inf else "finite"
    return {"ok": all(c["ok"] for c in checks), "checks": checks, "trunk": label}


def _reference_level_measures(data, tol=1e-9):
    """The branching vertex and trunk measures and deficits, each level the
    superposition of its entry terms: a rooted branching vertex keeps any
    positive deficit at zero, the root of a finite trunk one above ``tol``,
    and every other level none."""
    kappa = data.kappa
    mu, eps = {}, {}
    for level in range(data.trunk_window + 1):
        prod = data.trunk_product_sq(level)
        terms = [
            (c * prod, m) for i, m in enumerate(data.branch_measures) if (c := data.entry_mod_sq(i))
        ]
        acc = superpose(terms, -(level + 1))
        deficit = 1.0 - acc.total_mass
        kept = level == kappa and deficit > (0.0 if kappa == 0 else tol)
        mu[-level] = acc.plus(AtomicMeasure.delta(0.0, deficit)) if kept else acc
        eps[-level] = deficit if kept else 0.0
    return mu, eps


@pytest.mark.parametrize("kappa", [0, 1, 2, 3, "inf"])
def test_the_level_rule_equals_its_formulation_bit_for_bit(rng, kappa):
    # every trunk level's value and measure, as root_inequality,
    # trunk_conditions and branching_tree_system report them, has the bits of
    # the same level formulated from the public primitives; one input in ten
    # leaves a root deficit of about 1e-12, below tol
    for k in range(40):
        data = _level_rule_data(
            rng, eta=2 + k % 2, kappa=kappa, zero_entry=k % 10 == 3, mass_at_zero=k % 10 == 7,
            budget=1.0 - 1e-12 if k % 10 == 5 else None,
        )
        expected = _reference_level_value(data, 0)
        assert repr(root_inequality(data)) == repr(
            {"sum": expected, "ok": expected <= 1.0 + 1e-9, "equation": "entry-inverse-sum<=1"}
        )
        assert repr(trunk_conditions(data)) == repr(_reference_trunk_conditions(data))
        depth = 4
        if k % 10 == 7:  # mass at zero: every level reads inf, and the verdict refutes
            assert all(c["value"] == math.inf for c in trunk_conditions(data)["checks"])
            assert certify_t_eta_kappa(data, depth=depth).status == REFUTED
            with pytest.raises(ValueError, match="positive mass at zero"):
                branching_tree_system(data, depth)
            continue
        system, _ = branching_tree_system(data, depth)
        mu, eps = _reference_level_measures(data)
        for v in mu:
            assert repr(system.mu[v]) == repr(mu[v])
            assert repr(system.eps[v]) == repr(eps[v])


def test_the_root_measure_is_the_systems_root_measure(rng):
    # construct_root_measure returns the measure the certificate system puts
    # at the root of a finite trunk, deficit at zero included, to the bit
    for k in range(400):
        kappa = 1 + k % 3
        data = random_branch_data(rng, eta=2 + k % 2, kappa=kappa, passing=k % 4 != 0)
        nu, deficit = construct_root_measure(data)
        system, _ = branching_tree_system(data, 3)
        assert nu.atoms == system.mu[-kappa].atoms
        assert system.eps[-kappa] == (deficit if deficit > 1e-9 else 0.0)


def _subnormal_entry_data():
    """Two branches entered by weight sqrt(5e-324), each carrying delta at
    1e-323: every x**-1 overflows, yet each scaled mass is exactly 1/2."""
    delta = AtomicMeasure.delta(1e-323)
    return BranchData(
        eta=2, kappa=0, branch_measures=(delta, delta), entry_weights=(math.sqrt(5e-324),) * 2
    )


def test_subnormal_entry_weights_whose_sum_is_one_certify():
    data = _subnormal_entry_data()
    assert data.entry_mod_sq(0) == 5e-324
    assert root_inequality(data)["sum"] == 1.0
    cert = certify_t_eta_kappa(data, depth=2)
    assert cert.status == CERTIFIED and cert.witness is None
    # the branch measure s * delta has mass 1e-323, whose reciprocal overflows
    system, _ = branching_tree_system(data, 2)
    assert system.mu[(1, 2)] == AtomicMeasure.delta(1e-323)


def _underflowing_product_data():
    """A finite trunk of one weight sqrt(5e-101) over entry weights (1e-150, 1)
    and delta at 1e-200 and at 1: level 0 reads 1 and level 1 reads 1/2, but
    |lambda_1|^2 * P_1 = 5e-401 underflows to zero."""
    return BranchData(
        eta=2,
        kappa=1,
        branch_measures=(AtomicMeasure.delta(1e-200), AtomicMeasure.delta(1.0)),
        entry_weights=(1e-150, 1.0),
        trunk_weights=(math.sqrt(5e-101),),
    )


def test_a_branch_whose_scaled_entry_weight_underflows_keeps_its_level_mass():
    data = _underflowing_product_data()
    assert data.entry_mod_sq(0) * data.trunk_product_sq(1) == 0.0
    assert [c["value"] for c in trunk_conditions(data)["checks"]] == [1.0, 0.5]
    # the level-1 measure carries the 1/2 the value counts, so the root's
    # deficit is 1/2 and the identity at the root holds
    system, _ = branching_tree_system(data, 2)
    assert system.mu[-1].total_mass == 1.0 and system.eps[-1] == 0.5
    nu, deficit = construct_root_measure(data)
    assert nu == system.mu[-1] and deficit == 0.5
    cert = certify_t_eta_kappa(data, depth=2)
    assert cert.status == CERTIFIED and cert.witness is None


def test_the_root_measure_names_why_it_is_infinite():
    one = AtomicMeasure.delta(1.0)
    entry = (math.sqrt(0.5),) * 2
    huge = BranchData(eta=2, kappa=1, branch_measures=(one, one), entry_weights=entry, trunk_weights=(1e200,))
    assert construct_root_measure(huge) == (None, "trunk product is not finite")
    at_zero = one.scaled(0.5).plus(AtomicMeasure.delta(0.0, 0.5))
    data = BranchData(eta=2, kappa=1, branch_measures=(one, at_zero), entry_weights=entry, trunk_weights=(1.0,))
    assert construct_root_measure(data) == (None, "branch measure carries mass at zero")


def test_a_rooted_branching_vertex_has_one_trunk_row_the_root_inequality(rng):
    # at kappa = 0 the paper's conditions are the one terminal row, the sum
    # of |lambda_i|^2 * (integral of s^-1 dnu_i) at most one, which
    # root_inequality reads; an entry sum of 0.75 passes both
    one = AtomicMeasure.delta(1.0)
    slack = BranchData(
        eta=2, kappa=0, branch_measures=(one, one), entry_weights=(math.sqrt(0.375),) * 2
    )
    inputs = [slack] + [
        _level_rule_data(rng, eta=2 + k % 2, kappa=0, zero_entry=k % 10 == 3) for k in range(60)
    ]
    verdicts = set()
    for data in inputs:
        rooted = root_inequality(data)
        cond = trunk_conditions(data)
        assert cond["ok"] == rooted["ok"]
        assert cond["checks"] == [
            {"level": 0, "value": rooted["sum"], "target": "<=1", "ok": rooted["ok"]}
        ]
        verdicts.add(rooted["ok"])
    assert verdicts == {True, False}
    assert root_inequality(slack)["sum"] == pytest.approx(0.75) and trunk_conditions(slack)["ok"]


@pytest.mark.parametrize("kappa", [0, 1, 2, 3, 4, 5, "inf"])
def test_every_trunk_product_is_a_prefix_of_one_running_product(rng, kappa):
    # P_ell is entry ell of the running products of all trunk weights: the
    # same left fold as the products of the first ell weights alone
    one = AtomicMeasure.delta(1.0)
    length = 6 if kappa == "inf" else kappa
    for _ in range(20):
        trunk = tuple(
            10 ** rng.uniform(-40, 40) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(length)
        )
        data = BranchData(
            eta=2, kappa=kappa, branch_measures=(one, one), entry_weights=(1.0, 1.0),
            trunk_weights=trunk,
        )
        for ell in range(length + 1):
            assert repr(data.trunk_product_sq(ell)) == repr(product_moments(trunk[:ell])[-1])


def test_a_root_measure_that_fails_its_form_is_refuted_at_the_root():
    # kappa = 2 over delta at 1 and at 2: the constructed root measure
    # certifies, and with its atoms moved out by 10% its first moment misses
    # the trunk product below the root
    data = BranchData(
        eta=2, kappa=2, branch_measures=(AtomicMeasure.delta(1.0), AtomicMeasure.delta(2.0)),
        entry_weights=(math.sqrt(0.5), 1.0), trunk_weights=(math.sqrt(4 / 3), math.sqrt(0.9)),
    )
    nu, _ = construct_root_measure(data)
    assert certify_t_eta_kappa(data.replace(nu=nu)).status == CERTIFIED
    moved = AtomicMeasure(tuple((1.1 * x, w) for x, w in nu.atoms))
    cert = certify_t_eta_kappa(data.replace(nu=moved))
    assert cert.status == REFUTED and cert.system_certificate is None
    first = next(c for c in cert.detail["condition"]["checks"] if not c["ok"])
    assert first["item"] == "nu-moment-1"
    witness = cert.witness
    assert witness["check"] == "root-measure-form" and witness["vertex"] == "-2"
    assert (witness["item"], witness["value"]) == (first["item"], first["value"])


def test_branch_json_roundtrip_and_quadrature_route():
    data = worked_branch_data()
    doc = data.as_dict()
    back = branch_data_from_json(doc)
    assert back.eta == 2 and back.kappa == 0
    assert back.branch_measures[1].atoms == ((2.0, 1.0),)
    weights_only = {
        "eta": 2,
        "kappa": 0,
        "branch_weights": [[1.0] * 7, [math.sqrt(2)] * 7],
        "entry_weights": [math.sqrt(0.5), math.sqrt(0.5)],
    }
    # parsing solves nothing, and a weights-only document round-trips
    derived = branch_data_from_json(weights_only)
    assert derived.branch_measures is None
    assert "branch_measures" not in derived.as_dict()
    assert branch_data_from_json(derived.as_dict()) == derived
    # the certifier rebuilds the measures by quadrature, so it stays conditional
    cert = certify_t_eta_kappa(derived, depth=6)
    assert cert.status == CONDITIONAL
    rows = cert.detail["branch_moment_check"]["rows"]
    first = {r["branch"]: r["moment"] for r in rows if r["n"] == 1}
    assert first[1] == pytest.approx(1.0)
    assert first[2] == pytest.approx(2.0, rel=1e-9)


# -- extraction -------------------------------------------------------------------


def branching_shift(eta=2, kappa=0, depth=6):
    tree = make_family("t-eta-kappa", depth, eta=eta, kappa=kappa)
    weights = {}
    for i in range(1, eta + 1):
        weights[(i, 1)] = math.sqrt(0.5)
        for j in range(2, depth + 1):
            weights[(i, j)] = 1.0 if i == 1 else math.sqrt(2)
    trunk_len = depth if kappa == math.inf else kappa
    for ell in range(trunk_len):
        weights[-ell] = 1.0
    return WeightedShift(tree, weights)


def _first_branch_moments(cert):
    """The first moment of each fitted branch measure, by branch."""
    rows = cert.detail["branch_moment_check"]["rows"]
    return {r["branch"]: r["moment"] for r in rows if r["n"] == 1}


def test_extract_branch_data_recovers_measures():
    # the fits of the shift's own head norms are the point masses at 1 and 2
    shift = branching_shift()
    seqs = {
        0: shift.moment_values(0, 6),
        (1, 1): shift.moment_values((1, 1), 5),
        (2, 1): shift.moment_values((2, 1), 5),
    }
    cert = extract_branch_data(shift, seqs)
    assert cert.status == CONDITIONAL
    assert cert.detail["condition"]["ok"]
    first = _first_branch_moments(cert)
    assert first[1] == pytest.approx(1.0, rel=1e-9)
    assert first[2] == pytest.approx(2.0, rel=1e-9)


def test_extract_fast_growth_stays_conditional():
    # branch products growing like (2n)!^2
    depth = 8
    tree = make_family("t-eta-kappa", depth, eta=2, kappa=0)
    seq = [float(math.factorial(2 * n)) ** 2 for n in range(depth + 1)]
    weights = {}
    for i in (1, 2):
        weights[(i, 1)] = math.sqrt(0.5)
        for j in range(2, depth + 1):
            weights[(i, j)] = math.sqrt(seq[j - 1] / seq[j - 2])
    shift = WeightedShift(tree, weights)
    seqs = {
        0: shift.moment_values(0, depth),
        (1, 1): shift.moment_values((1, 1), depth - 1),
        (2, 1): shift.moment_values((2, 1), depth - 1),
    }
    assert extract_branch_data(shift, seqs).status == CONDITIONAL


def _weights_only(*branch_weights):
    return BranchData(
        eta=len(branch_weights),
        kappa=0,
        branch_measures=None,
        entry_weights=(0.5,) * len(branch_weights),
        branch_weights=branch_weights,
    )


def test_branch_weights_whose_products_fail_the_hankel_test_are_refuted():
    # products 1, 1, 0.01: the 2 x 2 Hankel block has determinant -0.99
    cert = certify_t_eta_kappa(_weights_only((1.0, 0.1), (1.0, 1.0)), depth=2)
    assert cert.status == REFUTED
    assert cert.witness["check"] == "hankel" and cert.witness["vertex"] == "1,1"
    assert list(cert.stieltjes) == ["1,1"]
    # one weight gives two products, checked as a two-moment prefix: the
    # branch measure is the point mass at 4
    cert = certify_t_eta_kappa(_weights_only((2.0,), (1.0,)), depth=2)
    assert cert.status == CONDITIONAL
    row = cert.detail["branch_moment_check"]["rows"][0]
    assert row == {"branch": 1, "n": 1, "moment": 4.0, "product": 4.0}


def _exact_forms(values, witness, tol=1e-9):
    """x^T H x and x^T (H + tol * diag(H)) x for the witness x and the
    Hankel block H it names, in Fractions."""
    offset = 0 if witness["block"] == "hankel" else 1
    t = [Fraction(v) for v in values]
    x = [Fraction(a) for a in witness["vector"]]
    form = sum(a * b * t[i + j + offset] for i, a in enumerate(x) for j, b in enumerate(x))
    diagonal = sum(a * a * t[2 * i + offset] for i, a in enumerate(x))
    return form, form + Fraction(tol) * diagonal


# The power norms at vertex "1,1" are 1, 1, 0.01, 0.25, 0.0025, 0.0625, which
# fail the Hankel test: by Lambert's necessity no subnormal shift has them.
REFUTED_BRANCH = {
    "eta": 2,
    "kappa": 0,
    "entry_weights": [0.5, 0.5],
    "branch_weights": [[1.0, 0.1, 5.0, 0.1, 5.0], [1.0, 1.0, 1.0]],
}
# The same norms one vertex down, past a zero weight: the head passes (its
# norms are those of a point mass at zero), vertex "1,2" fails.
REFUTED_PAST_ZERO = dict(
    REFUTED_BRANCH, branch_weights=[[0.0, 1.0, 0.1, 5.0, 0.1, 5.0], [1.0, 1.0, 1.0]]
)


@pytest.mark.parametrize(
    "doc, vertex, start",
    [(REFUTED_BRANCH, "1,1", 0), (REFUTED_PAST_ZERO, "1,2", 1)],
    ids=["head", "past-zero"],
)
def test_a_branch_whose_power_norms_fail_is_refuted(doc, vertex, start):
    cert = certify_t_eta_kappa(branch_data_from_json(doc))
    assert cert.status == REFUTED and cert.system_certificate is None
    witness = cert.witness
    assert witness["check"] == "hankel" and witness["vertex"] == vertex
    assert witness["vector"] == [-1.24999999875, 1.25, 0.0]
    assert witness["quadratic_form"] == -1.546875
    # the row the test ran on: the head's running products, or past the zero
    # weight the power norms of the branch as a path, read at vertex start
    ws = doc["branch_weights"][0]
    path = WeightedShift(make_family("unilateral", len(ws)), dict(enumerate(ws, 1)))
    values = product_moments(ws) if start == 0 else path.power_norms(math.inf)[start]
    assert cert.detail["sequence"] == list(values)
    form, with_tol = _exact_forms(cert.detail["sequence"], witness)
    assert with_tol < 0 and float(form) == witness["quadratic_form"]


@pytest.mark.parametrize("depth", [8, 9])
def test_a_branch_without_a_representing_measure_is_conditional(depth):
    # the power norms pass, so nothing is refuted; the branch measures the
    # branching conditions need cannot be built, so nothing is certified
    cert = certify_t_eta_kappa(branch_data_from_json(NEGATIVE_NODE_BRANCH), depth=depth)
    assert cert.status == CONDITIONAL
    assert cert.system_certificate is None and cert.witness is None
    assert cert.detail["note"].startswith(
        "branch 2: no representing measure: negative quadrature node -0.31"
    )
    # the window's tested vertices: the root -2 and the branch heads
    assert {k: v.consistent for k, v in cert.stieltjes.items()} == {
        "-2": True, "1,1": True, "2,1": True,
    }


def test_extract_is_refuted_by_the_power_norms_of_its_window_alone():
    # the supplied prefixes of four power norms pass, but past the zero weight
    # at (1, 2) the window's power norms fail the Hankel test: the one
    # refutation
    tree = make_family("t-eta-kappa", 7, eta=2, kappa=0)
    weights = {(1, 1): 0.5, (2, 1): 0.5}
    for j, w in enumerate([0.0, 1.0, 0.1, 5.0, 0.1, 5.0], start=2):
        weights[(1, j)], weights[(2, j)] = w, 1.0
    shift = WeightedShift(tree, weights)
    table = shift.power_norms(3)
    cert = extract_branch_data(shift, {v: table[v] for v in (0, (1, 1), (2, 1))})
    assert cert.status == REFUTED
    witness = cert.witness
    assert witness["check"] == "hankel" and witness["vertex"] == "1,2"
    assert cert.detail["sequence"] == list(shift.power_norms(math.inf)[(1, 2)])
    form, with_tol = _exact_forms(cert.detail["sequence"], witness)
    assert with_tol < 0 and float(form) == witness["quadratic_form"]


def test_a_condition_that_fails_on_the_fitted_measures_is_evidence_only():
    # branch measures x^3 e^-x / 6, eight weights sqrt(k + 3) per branch, entry
    # weights sqrt(1.5), kappa = 1 and trunk weight 1: the level-0 equality
    # holds for the true measures, but the 4-atom fit of the head norms
    # under-estimates the inverse moment, so it reads 0.9714 there
    doc = {
        "eta": 2,
        "kappa": 1,
        "entry_weights": [math.sqrt(1.5)] * 2,
        "trunk_weights": [1.0],
        "branch_weights": [[math.sqrt(k + 3) for k in range(1, 8)]] * 2,
    }
    cert = certify_t_eta_kappa(branch_data_from_json(doc))
    assert cert.status == CONDITIONAL
    assert cert.system_certificate is None and cert.witness is None
    assert cert.detail["note"].startswith("trunk condition at level 0 gives 0.97")
    assert cert.detail["note"].endswith("on the fitted branch measures: evidence only")
    assert not cert.detail["condition"]["ok"]
    assert sorted(cert.stieltjes) == ["-1", "1,1", "2,1"]


def test_weights_only_branching_with_a_zero_entry_weight_gets_a_verdict():
    # branch 1 is entered by a zero weight: the sweep tests the window, and
    # the fitted system certifies, which weights alone leave conditional
    doc = {
        "eta": 2,
        "kappa": 1,
        "entry_weights": [0.0, 1.0],
        "trunk_weights": [1.0],
        "branch_weights": [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
    }
    cert = certify_t_eta_kappa(branch_data_from_json(doc), depth=4)
    assert cert.status == CONDITIONAL and cert.witness is None
    assert cert.system_certificate.status == CERTIFIED
    # with branch measures the refusal stays: that route is unchanged
    data = branch_data_from_json(doc).replace(
        branch_measures=(AtomicMeasure.delta(1.0), AtomicMeasure.delta(1.0))
    )
    with pytest.raises(ValueError, match="requires nonzero weights"):
        certify_t_eta_kappa(data, depth=4)


def test_weights_only_infinite_trunk_with_short_branches_clamps_the_system():
    # three weights per branch under five trunk weights: the evidence system
    # is cut to depth 4, the shortest branch plus one, on the first four trunk
    # weights, as a finite trunk's is; the sweep tests the whole window
    doc = {
        "eta": 2,
        "kappa": "inf",
        "entry_weights": [math.sqrt(0.5)] * 2,
        "trunk_weights": [1.0] * 5,
        "branch_weights": [[1.0, 1.0, 1.0]] * 2,
    }
    cert = certify_t_eta_kappa(branch_data_from_json(doc))
    assert cert.status == CONDITIONAL and cert.witness is None
    assert cert.detail["window_note"] == "system checked to depth 4, the shortest branch plus one"
    assert cert.system_certificate.status == CERTIFIED
    assert cert.system_certificate.horizon == 4
    assert sorted(cert.stieltjes) == ["-5", "1,1", "2,1"]


def test_extract_rejects_refuted_sequences():
    # a sequence that fails the Hankel test is not the shift's power norms
    shift = branching_shift()
    seqs = {
        0: shift.moment_values(0, 6),
        (1, 1): (1.0, 1.0, 0.0, 0.0),
        (2, 1): shift.moment_values((2, 1), 5),
    }
    with pytest.raises(ValueError, match=re.escape("at (1, 1) disagrees with the shift at order 2")):
        extract_branch_data(shift, seqs)


def test_extract_rejects_values_past_the_window():
    # the head's row at depth 6 has six power norms; a seventh value, even
    # the right one, judges the supplied numbers and not the shift
    shift = branching_shift()
    head = branching_shift(depth=7).moment_values((1, 1), 6)
    assert head[:6] == shift.power_norms(math.inf)[(1, 1)]
    with pytest.raises(ValueError, match=re.escape("at (1, 1) runs past the window's 6 power norms")):
        extract_branch_data(shift, {(1, 1): head})


@pytest.mark.parametrize("vertex", [(3, 1), (1, 7), -1, 1])
def test_extract_rejects_a_vertex_outside_the_window(vertex):
    shift = branching_shift()
    with pytest.raises(ValueError, match=re.escape(f"vertex {vertex!r} is not in the window")):
        extract_branch_data(shift, {vertex: (1.0, 1.0, 1.0)})


def test_extract_finite_trunk_checks_the_trunk_rows():
    # entry weights solved against point masses at 1 and 4 so the
    # branching-vertex equality holds, with slack at the terminal level
    depth = 6
    tree = make_family("t-eta-kappa", depth, eta=2, kappa=1)
    weights = {(1, 1): math.sqrt(0.5), (2, 1): math.sqrt(2.0), 0: math.sqrt(1.28)}
    for j in range(2, depth + 1):
        weights[(1, j)] = 1.0
        weights[(2, j)] = 2.0
    shift = WeightedShift(tree, weights)
    seqs = {
        -1: shift.moment_values(-1, 6),
        0: shift.moment_values(0, 6),
        (1, 1): shift.moment_values((1, 1), 5),
        (2, 1): shift.moment_values((2, 1), 5),
    }
    cert = extract_branch_data(shift, seqs)
    assert cert.status == CONDITIONAL
    condition = cert.detail["condition"]
    assert condition["ok"] and condition["trunk"] == "finite"
    assert [c["level"] for c in condition["checks"]] == [0, 1]
    first = _first_branch_moments(cert)
    assert first[1] == pytest.approx(1.0, rel=1e-9)
    assert first[2] == pytest.approx(4.0, rel=1e-9)


def test_extract_infinite_trunk_checks_the_window():
    # unit trunk weights over delta_1 branches entered by sqrt(0.5): every
    # level of the window reads one
    depth = 3
    tree = make_family("t-eta-kappa", depth, eta=2, kappa="inf")
    weights = {v: 1.0 for v in tree.non_root_vertices}
    weights[(1, 1)] = weights[(2, 1)] = math.sqrt(0.5)
    shift = WeightedShift(tree, weights)
    table = shift.power_norms(4)
    cert = extract_branch_data(shift, {v: table[v] for v in tree.sorted_vertices})
    assert cert.status == CONDITIONAL
    condition = cert.detail["condition"]
    assert condition["ok"] and condition["trunk"] == "windowed"
    assert [c["level"] for c in condition["checks"]] == [0, 1, 2]
    assert cert.detail["window_note"] == "infinite trunk checked on a window of 3 levels"


def _subnormal_window_extraction(head_values):
    """Extraction on a T_(2,0) window of depth 8 whose branches carry 2s ds on
    [0, 1]: entry weights sqrt(0.2), branch weights sqrt(j / (j + 1)) at
    (i, j), so the branch norms are 2 / (n + 2) and the rooted sum is 0.8;
    ``head_values`` power norms at each branch head, all of them at 0."""
    tree = make_family("t-eta-kappa", 8, eta=2, kappa=0)
    weights = {}
    for i in (1, 2):
        weights[(i, 1)] = math.sqrt(0.2)
        for j in range(2, 9):
            weights[(i, j)] = math.sqrt(j / (j + 1))
    shift = WeightedShift(tree, weights)
    seqs = {head: tuple(2 / (n + 2) for n in range(head_values)) for head in ((1, 1), (2, 1))}
    seqs[0] = shift.power_norms(8)[0]
    return extract_branch_data(shift, seqs)


def test_extract_a_subnormal_window_from_eight_head_values_is_conditional():
    cert = _subnormal_window_extraction(8)
    assert cert.status == CONDITIONAL and cert.detail["condition"]["ok"]


@pytest.mark.parametrize("head_values", [6, 7])
def test_extract_a_subnormal_window_from_short_head_sequences_is_not_refuted(head_values):
    # only the window's weights are judged, so a shorter prefix of the head
    # norms gives the same certificate
    cert = _subnormal_window_extraction(head_values)
    assert cert.status == CONDITIONAL
    assert cert.as_dict() == _subnormal_window_extraction(8).as_dict()


def _count_hankel_tests(monkeypatch):
    """Record the sequence of every Hankel test, whether the sweep runs it or
    quadrature does."""
    from treeshift import consistency, moments

    seen = []
    test = moments.check_stieltjes

    def counted(seq, tol=1e-9):
        seen.append(tuple(seq))
        return test(seq, tol=tol)

    monkeypatch.setattr(moments, "check_stieltjes", counted)
    monkeypatch.setattr(consistency, "check_stieltjes", counted)
    return seen


def test_each_sequence_is_hankel_tested_once(monkeypatch):
    # quadrature's own test is the verdict of the sequence it fits: the
    # deepest left shift of a bilateral window (the only shift tested), and
    # the branch heads of an extraction, whose sweep tests only the root -kappa
    seen = _count_hankel_tests(monkeypatch)
    cert = certify_bilateral({k: math.sqrt(2) for k in range(-3, 5)})
    assert cert.status == CERTIFIED and sorted(cert.stieltjes) == ["4"]
    assert len(seen) == len(set(seen)) == 1
    seen.clear()
    tree = make_family("t-eta-kappa", 6, eta=2, kappa=1)
    weights = {(1, 1): math.sqrt(0.5), (2, 1): math.sqrt(2.0), 0: math.sqrt(1.28)}
    for j in range(2, 7):
        weights[(1, j)], weights[(2, j)] = 1.0, 2.0
    shift = WeightedShift(tree, weights)
    seqs = {v: shift.moment_values(v, 5) for v in (-1, 0, (1, 1), (2, 1))}
    assert extract_branch_data(shift, seqs).status == CONDITIONAL
    assert len(seen) == len(set(seen)) == 3


def test_extract_rejects_a_sequence_against_an_overflowing_norm():
    # |w_(1,1)|^2 = 1e320 overflows, so the norms at 0 are (1, inf, inf);
    # the supplied 1 at order 1 must be caught, not pass as a NaN row
    tree = make_family("t-eta-kappa", 2, eta=2, kappa=0)
    weights = {(1, 1): 1e160, (1, 2): 1.0, (2, 1): 1.0, (2, 2): 1.0}
    shift = WeightedShift(tree, weights)
    assert shift.moment_values(0, 2) == (1.0, math.inf, math.inf)
    seqs = {v: [1.0, 1.0, 1.0, 1.0] for v in (0, (1, 1), (2, 1))}
    with pytest.raises(ValueError, match="sequence at 0 disagrees with the shift at order 1"):
        extract_branch_data(shift, seqs)


def _document_shift(doc, depth):
    """The shift on the T_(eta,kappa) window of ``depth`` that a weights-only
    branch document describes."""
    tree = make_family("t-eta-kappa", depth, eta=doc["eta"], kappa=doc["kappa"])
    weights = {-ell: w for ell, w in enumerate(doc.get("trunk_weights", []))}
    for i, (entry, ws) in enumerate(zip(doc["entry_weights"], doc["branch_weights"]), start=1):
        for j, w in enumerate((entry, *ws), start=1):
            weights[(i, j)] = w
    return WeightedShift(tree, weights)


@pytest.mark.parametrize("lift", [1.0, 1.07], ids=["genuine", "partner"])
@pytest.mark.parametrize("kappa, count", BRANCH_CASES)
def test_extract_is_the_weights_only_certifier_on_the_corpus(kappa, count, lift):
    doc = branching_document(kappa, count, lift)
    shift = _document_shift(doc, count + 1)
    cert = extract_branch_data(shift, {0: shift.power_norms(math.inf)[0]})
    expected = certify_t_eta_kappa(branch_data_from_json(doc), depth=count + 1)
    assert cert.as_dict() == expected.as_dict()
    assert cert.status == (CONDITIONAL if lift == 1.0 else REFUTED)


@pytest.mark.parametrize("seed", [1, 6173])
def test_extract_is_the_weights_only_certifier_on_the_benchmark(seed, monkeypatch):
    # the first cycle's extract operation: a rooted branching vertex whose
    # sequences are the shift's own power norms
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its sibling gen
    workloads = _bench_module("workloads")
    (x,) = [o["inputs"] for o in workloads.cycle_ops("construct-from-moments", seed, 0)
            if o["kind"] == "extract"]
    depth = x["depth"]
    doc = {
        "eta": 2,
        "kappa": 0,
        "entry_weights": x["entry"],
        "branch_weights": [[x["weights"][(i, j)] for j in range(2, depth + 1)] for i in (1, 2)],
    }
    shift = _document_shift(doc, depth)
    assert shift.weights == WeightedShift(shift.tree, x["weights"]).weights
    cert = extract_branch_data(shift, x["sequences"])
    expected = certify_t_eta_kappa(branch_data_from_json(doc), depth=depth)
    assert cert.as_dict() == expected.as_dict()
    assert cert.status == CONDITIONAL


def test_extract_notes_a_branch_without_a_representing_measure():
    # the fit of branch 2's head norms has a negative node: evidence, so a
    # note on a conditional certificate, not an error
    shift = _document_shift(NEGATIVE_NODE_BRANCH, 9)
    cert = extract_branch_data(shift, {})
    assert cert.status == CONDITIONAL and cert.witness is None
    assert cert.detail["note"].startswith(
        "branch 2: no representing measure: negative quadrature node -0.31"
    )
