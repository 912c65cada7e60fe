"""Tour of the halfline moment engine.

Atomic measures and their moments, the Hankel positivity test with refutation
witnesses, the backward-extension bijection, quadrature reconstruction, and
the Carleman determinacy diagnostic.
"""

import math

from treeshift import (
    AtomicMeasure,
    backward_extend,
    carleman_diagnostic,
    cauchy_schwarz_bound,
    check_stieltjes,
    forward_map,
    quadrature_from_moments,
)

print("=== atomic measures and moments ===")
mix = AtomicMeasure(((1.0, 0.5), (2.0, 0.5)))
print(f"half-and-half at 1 and 2: moments {mix.moments(5)}")
print(f"inverse moment (integral of 1/s): {mix.moment(-1)}")

print()
print("=== Hankel positivity ===")
good = check_stieltjes(mix.moments(6))
print(f"moments of a measure: {good.status}")
bad = check_stieltjes([1.0, 1.0, 0.0, 0.0])
print(f"the sequence 1,1,0,0: {bad.status}")
print(f"  witness block {bad.witness_block}, quadratic form {bad.witness_value:.4f}")

print()
print("=== backward extension ===")
nu = backward_extend(AtomicMeasure.delta(1.0), theta=2.0)
print(f"point mass at 1 extended with theta=2: atoms {nu.atoms}")
print(f"  its moments prepend theta: {nu.moments(4)}")
print(f"  forward map recovers the original: {forward_map(nu).atoms}")
print(f"lower bound for admissible theta: {cauchy_schwarz_bound(mix.moments(5)):.4f}")
try:
    backward_extend(AtomicMeasure.delta(0.0), theta=100.0)
except Exception as exc:
    print(f"mass at zero admits no extension: {exc}")

print()
print("=== quadrature reconstruction ===")
target = AtomicMeasure(((0.8, 0.3), (3.5, 0.5), (7.0, 0.2)))
result = quadrature_from_moments(target.moments(5))
print(f"three atoms from six moments (rank {result.rank}):")
for (x, w), (x0, w0) in zip(result.measure.atoms, target.atoms):
    print(f"  recovered ({x:.12f}, {w:.12f})  true ({x0}, {w0})")

print()
print("=== Carleman diagnostic ===")
slow = carleman_diagnostic([math.factorial(n) ** 2 for n in range(65)])
fast = carleman_diagnostic([float(math.factorial(2 * n)) ** 2 for n in range(33)])
print(f"factorial-squared growth: {slow.label} (exponent {slow.growth_exponent:.3f})")
print(f"double-factorial growth:  {fast.label} (exponent {fast.growth_exponent:.3f})")
print("neither is a proof; certificates built on these stay conditional")
