"""Classical shifts whose Berger measure is known in closed form.

Every weight list below comes from a formula, and each shift is subnormal
(its power norms t(n) are the moments of the measure named beside it), so
the certifier must certify it at every length.  Each family also has a
refuted partner: the second weight set to 0.999 times the first.  A
subnormal shift is hyponormal, so its weights cannot decrease, and the
order-2 Hankel block of the partner's power norms already fails; its
witness must re-check in exact arithmetic.

The branching cases are shifts on the one-branching-vertex trees given by
weights alone, whose branches carry a Gamma density; the paper's trunk
rows hold for them exactly, so no weights-only verdict may refute them,
and each partner, its entry weights raised by 7%, must be refuted by the
power norms of its window.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from treeshift import (
    CERTIFIED,
    CONDITIONAL,
    REFUTED,
    branch_data_from_json,
    certify_bilateral,
    certify_t_eta_kappa,
    certify_unilateral,
    product_moments,
    two_sided_from_weights,
)

UNILATERAL = {
    # Hardy shift: the point mass at 1 (Shields 1974)
    "hardy": lambda n: 1.0,
    # t(n) = n!: e^(-x) dx
    "sqrt-n+1": lambda n: math.sqrt(n + 1),
    # t(n) = (n + 1)!: x e^(-x) dx
    "sqrt-n+2": lambda n: math.sqrt(n + 2),
    # Bergman shift, t(n) = 1 / (n + 1): dx on [0, 1]
    "bergman": lambda n: math.sqrt((n + 1) / (n + 2)),
    # Agler shift, t(n) = 2 / ((n + 1)(n + 2)): 2 (1 - x) dx on [0, 1]
    "agler": lambda n: math.sqrt((n + 1) / (n + 3)),
    # t(n) = (n!)^2: 2 K_0(2 sqrt x) dx
    "n+1": lambda n: n + 1.0,
    # t(n) = e^(n^2 / 2): the log-normal moments, an indeterminate sequence
    "log-normal": lambda n: math.exp((2 * n + 1) / 4),
}
# t(n) overflows float64 at n = 99 for (n!)^2 and at n = 38 for e^(n^2 / 2)
LENGTHS = {"n+1": (16, 26, 40, 64), "log-normal": (16, 26, 37)}
UNILATERAL_CASES = [
    (family, length)
    for family in UNILATERAL
    for length in LENGTHS.get(family, (16, 26, 40, 64, 128))
]
BILATERAL_LENGTHS = (16, 26, 40, 64)


def unilateral_weights(family, length):
    return [UNILATERAL[family](n) for n in range(length)]


def bilateral_weights(length):
    """sqrt(k + 4) for k = -2, -1, ...: t(k) = (k + 4)! / 4!, the moments of
    x^4 e^(-x) dx / 4!, over a window of ``length`` weights."""
    return {k: math.sqrt(k + 4) for k in range(-2, length - 2)}


# x^a e^(-x) dx / Gamma(a + 1) on every branch: branch weights sqrt(k + a),
# t(n) = Gamma(a + 1 + n) / Gamma(a + 1), and the integral of s^-j is
# Gamma(a + 1 - j) / Gamma(a + 1), finite for j <= a
GAMMA_A = 3
BRANCH_CASES = [(kappa, count) for kappa in (0, 1, 2) for count in (7, 8, 15, 16)]


def _inverse_moment(j):
    return Fraction(math.factorial(GAMMA_A - j), math.factorial(GAMMA_A))


def branching_document(kappa, count, lift=1.0):
    """Two branches of ``count`` weights over the Gamma density; |entry
    weight|^2 solved from the level-0 row (Σ|λ|^2 ∫s^-1 = 1), each interior
    trunk weight from its row (P_ℓ Σ|λ|^2 ∫s^-(ℓ+1) = 1) and the last trunk
    weight 1, so the terminal row is at most one; ``lift`` then scales
    every |entry weight|^2."""
    entry_sq = 1 / (2 * _inverse_moment(1))
    trunk, product = [], 1
    for level in range(1, kappa):
        target = 1 / (2 * entry_sq * _inverse_moment(level + 1))
        trunk.append(math.sqrt(target / product))
        product = target
    branch = [math.sqrt(k + GAMMA_A) for k in range(1, count + 1)]
    return {
        "eta": 2,
        "kappa": kappa,
        "entry_weights": [math.sqrt(lift * float(entry_sq))] * 2,
        "trunk_weights": trunk + [1.0] * (kappa > 0),
        "branch_weights": [branch, branch],
    }


def certify_branching(kappa, count, lift=1.0):
    """The library form of ``certify --family t-eta-kappa`` at its default
    horizon: depth min(8, count + 1)."""
    data = branch_data_from_json(branching_document(kappa, count, lift))
    return certify_t_eta_kappa(data, depth=min(8, count + 1)).as_dict()


def exact_form(values, witness, tol=0.0):
    """x^T (H + tol * diag(H)) x in Fractions, for the witness vector x and
    the Hankel block H of ``values`` that the witness names."""
    offset = 0 if witness["block"] == "hankel" else 1
    t = [Fraction(v) for v in values]
    x = [Fraction(a) for a in witness["vector"]]
    form = sum(a * b * t[i + j + offset] for i, a in enumerate(x) for j, b in enumerate(x))
    return form + Fraction(tol) * sum(a * a * t[2 * i + offset] for i, a in enumerate(x))


@pytest.mark.parametrize("family, length", UNILATERAL_CASES)
def test_unilateral_corpus_is_certified(family, length):
    report = certify_unilateral(unilateral_weights(family, length)).as_dict()
    assert report["status"] == CERTIFIED, report["witness"]
    assert report["witness"] is None and report["system_certificate"] is None


@pytest.mark.parametrize("family, length", UNILATERAL_CASES)
def test_unilateral_corpus_partner_is_refuted_with_an_exact_witness(family, length):
    weights = unilateral_weights(family, length)
    weights[1] = 0.999 * weights[0]
    report = certify_unilateral(weights).as_dict()
    witness = report["witness"]
    assert report["status"] == REFUTED and witness["check"] == "hankel"
    assert witness["vertex"] == "0"
    assert exact_form(product_moments(weights), witness) < 0


@pytest.mark.parametrize("length", BILATERAL_LENGTHS)
def test_bilateral_corpus_is_certified(length):
    report = certify_bilateral(bilateral_weights(length)).as_dict()
    assert report["status"] == CERTIFIED, report["witness"]
    assert report["witness"] is None and report["system_certificate"] is None


@pytest.mark.parametrize("length", BILATERAL_LENGTHS)
def test_bilateral_corpus_partner_is_refuted_with_an_exact_witness(length):
    weights = bilateral_weights(length)
    weights[-1] = 0.999 * weights[-2]
    report = certify_bilateral(weights).as_dict()
    witness = report["witness"]
    assert report["status"] == REFUTED and witness["check"] == "hankel"
    assert witness["shift"] == 3  # the window root, vertex -3
    assert exact_form(two_sided_from_weights(weights).values, witness) < 0


def test_the_branching_documents_are_the_solved_rows():
    # with the inverse moments 1/3, 1/6 and 1/6: |entry weight|^2 = 1.5 sets
    # level 0 to 1; at kappa = 2 the trunk weight sqrt(2) sets level 1 to 1
    # and the last trunk weight 1 sets level 2 to 1; at kappa = 1 it sets
    # level 1 to 1/2
    for kappa in (0, 1, 2):
        doc = branching_document(kappa, 7)
        assert doc["entry_weights"] == [math.sqrt(1.5)] * 2
        assert doc["trunk_weights"] == [math.sqrt(2.0)] * (kappa == 2) + [1.0] * (kappa > 0)


@pytest.mark.parametrize("kappa, count", BRANCH_CASES)
def test_branching_corpus_is_not_refuted(kappa, count):
    # the fits of finitely many head norms under-estimate the inverse
    # moments, so the rows may fail on them: evidence, never a refutation
    report = certify_branching(kappa, count)
    assert report["status"] == CONDITIONAL and report["witness"] is None, report["witness"]
    assert sorted(report["stieltjes"]) == [str(-kappa), "1,1", "2,1"]
    assert {v["status"] for v in report["stieltjes"].values()} == {"consistent-up-to-order-N"}
    assert (report["system_certificate"] is None) == ("note" in report["detail"])


@pytest.mark.parametrize("kappa, count", BRANCH_CASES)
def test_branching_corpus_partner_is_refuted_at_the_root(kappa, count):
    report = certify_branching(kappa, count, lift=1.07)
    witness = report["witness"]
    assert report["status"] == REFUTED and witness["check"] == "hankel"
    assert witness["vertex"] == str(-kappa)


def _weights_only_refutations():
    """Every kind of weights-only Hankel refutation: the branching partners,
    a bilateral window with a zero weight, a half line past a zero weight,
    and a branch that fails at its head and one vertex past a zero weight."""
    cases = {
        f"branching-{kappa}-{count}": (lambda k=kappa, c=count: certify_branching(k, c, 1.07))
        for kappa, count in BRANCH_CASES
    }
    cases["bilateral-zero"] = lambda: certify_bilateral({-1: 1, 0: 0, 1: 1, 2: 1}).as_dict()
    cases["unilateral-zero"] = lambda: certify_unilateral([1, 0, 1, 1]).as_dict()
    for name, head in (("branch-head", []), ("branch-past-zero", [0.0])):
        doc = {
            "eta": 2,
            "kappa": 0,
            "entry_weights": [0.5, 0.5],
            "branch_weights": [head + [1.0, 0.1, 5.0, 0.1, 5.0], [1.0, 1.0, 1.0]],
        }
        cases[name] = lambda d=doc: certify_t_eta_kappa(branch_data_from_json(d)).as_dict()
    return cases


@pytest.mark.parametrize("case", sorted(_weights_only_refutations()))
def test_weights_only_witnesses_re_check_against_the_reported_row(case):
    # the report alone suffices: its witness vector makes the form of the
    # Hankel block of detail.sequence negative in exact arithmetic, with the
    # test's tolerance on the diagonal
    report = _weights_only_refutations()[case]()
    witness = report["witness"]
    assert report["status"] == REFUTED and witness["check"] == "hankel"
    assert exact_form(report["detail"]["sequence"], witness, tol=1e-9) < 0


@pytest.mark.parametrize("family, length", [("log-normal", 39), ("n+1", 99)])
def test_power_norms_past_float64_are_input_errors(tmp_path, family, length):
    weights = unilateral_weights(family, length)
    assert not math.isfinite(product_moments(weights)[-1])
    with pytest.raises(ValueError, match="is not finite"):
        certify_unilateral(weights)
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"weights": weights}))
    proc = subprocess.run(
        [sys.executable, "-m", "treeshift", "certify", "--family", "unilateral",
         "--weights", str(path)],
        capture_output=True, text=True, env=dict(os.environ),
    )
    assert proc.returncode == 3 and "is not finite" in proc.stderr
