"""Classical shifts whose Berger measure is known in closed form.

Every weight list below comes from a formula, and each shift is subnormal
(its power norms t(n) are the moments of the measure named beside it), so
the certifier must certify it at every length.  Each family also has a
refuted partner: the second weight set to 0.999 times the first.  A
subnormal shift is hyponormal, so its weights cannot decrease, and the
order-2 Hankel block of the partner's power norms already fails; its
witness must re-check in exact arithmetic.
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
    REFUTED,
    certify_bilateral,
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


def exact_form(values, witness):
    """x^T H x in Fractions, for the witness vector x and the Hankel block H
    of ``values`` that the witness names."""
    offset = 0 if witness["block"] == "hankel" else 1
    t = [Fraction(v) for v in values]
    x = [Fraction(a) for a in witness["vector"]]
    return sum(a * b * t[i + j + offset] for i, a in enumerate(x) for j, b in enumerate(x))


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
