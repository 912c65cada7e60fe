"""Closed-form certifiers for the classical and one-branching-vertex families.

Runs the product-sequence criterion for unilateral shifts, the shifted
two-sided test for bilateral shifts, and the branching-vertex conditions,
including the equivalence between the trunk-equality form and the
root-measure form.
"""

import math

from treeshift import (
    AtomicMeasure,
    BranchData,
    certify_bilateral,
    certify_t_eta_kappa,
    certify_unilateral,
    extract_branch_data,
    make_family,
    root_measure_equivalence_check,
    WeightedShift,
)

print("=== unilateral shifts ===")
for name, weights in [
    ("unit weights", [1.0] * 10),
    ("sqrt(2) weights", [math.sqrt(2)] * 10),
    ("sqrt(n) weights", [math.sqrt(n) for n in range(1, 11)]),
    ("broken products", [1.0, math.sqrt(0.5), 1.0, 1.0]),
]:
    cert = certify_unilateral(weights)
    print(f"{name}: {cert.status}")
print()

print("=== bilateral doubling shift ===")
cert = certify_bilateral({k: math.sqrt(2) for k in range(-8, 9)})
shifts = sorted(int(k) for k in cert.stieltjes)
print(f"{cert.status}; tested left-shifts k = {shifts[0]}..{shifts[-1]}")
print(f"representing measure: {cert.detail['representing_measure']['atoms']}")
print()

print("=== one branching vertex, rooted (trunk length 0) ===")
half = math.sqrt(0.5)
data = BranchData(
    eta=2,
    kappa=0,
    branch_measures=(AtomicMeasure.delta(1.0), AtomicMeasure.delta(2.0)),
    entry_weights=(half, half),
)
cert = certify_t_eta_kappa(data, depth=6)
print(f"point-mass branches with squared entries one half: {cert.status}")
print(f"  deficit at the branching vertex: {cert.detail['eps']}")
doubled = BranchData(
    eta=2,
    kappa=0,
    branch_measures=data.branch_measures,
    entry_weights=(1.0, 1.0),
)
cert2 = certify_t_eta_kappa(doubled, depth=6)
print(f"doubled squared entries: {cert2.status} ({cert2.witness['reason']})")
print()

print("=== finite trunk: two equivalent condition sets ===")
mu1 = AtomicMeasure(((1.0, 0.5), (2.0, 0.5)))
mu2 = AtomicMeasure.delta(2.0)
c1, c2 = 0.6 / mu1.moment(-1), 0.4 / mu2.moment(-1)
level2 = c1 * mu1.moment(-2) + c2 * mu2.moment(-2)
trunk = math.sqrt(0.9 / level2)
data = BranchData(
    eta=2,
    kappa=1,
    branch_measures=(mu1, mu2),
    entry_weights=(math.sqrt(c1), math.sqrt(c2)),
    trunk_weights=(trunk,),
)
report = root_measure_equivalence_check(data)
print(f"trunk-equality form holds: {report['trunk_form']['ok']}")
print(f"root-measure form holds:  {report['measure_form']['ok']}")
print(f"verdicts agree: {report['agree']}")
print(f"certifier: {certify_t_eta_kappa(data, depth=5).status}")
print()

print("=== extraction from moment sequences ===")
tree = make_family("t-eta-kappa", 6, eta=2, kappa=0)
weights = {}
for i in (1, 2):
    weights[(i, 1)] = half
    for j in range(2, 7):
        weights[(i, j)] = 1.0 if i == 1 else math.sqrt(2)
shift = WeightedShift(tree, weights)
sequences = {
    0: shift.moment_values(0, 6),
    (1, 1): shift.moment_values((1, 1), 5),
    (2, 1): shift.moment_values((2, 1), 5),
}
certificate = extract_branch_data(shift, sequences)
print(f"status: {certificate.status}")
print(f"condition holds on the fitted branch measures: {certificate.detail['condition']['ok']}")
