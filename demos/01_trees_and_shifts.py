"""Tour of the tree model and the shift calculus.

Builds the canonical families, walks their level structure, and evaluates
powers of a weighted shift on basis vectors.
"""

import math

from treeshift import WeightedShift, make_family, validate

print("=== directed trees ===")
path = make_family("unilateral", 6)
print(f"half-line window 0..6: root {path.root}, vertices {path.sorted_vertices}")

branching = make_family("t-eta-kappa", 3, eta=2, kappa=1)
print(f"branching tree (eta=2, kappa=1, depth 3): root {branching.root}")
print(f"  first generation below 0: {sorted(branching.children_n(0, 1), key=str)}")
print(f"  second generation below 0: {sorted(branching.children_n(0, 2), key=str)}")
print(f"  validation: {validate(branching).ok}")

branch = branching.subtree((1, 1))
print(f"  subtree at (1,1) is a path: {branch.sorted_vertices}")

print()
print("=== a weighted shift on the half line ===")
weights = {n: math.sqrt(n) for n in range(1, 7)}
shift = WeightedShift(path, weights)
print("weights sqrt(1)..sqrt(6); squared power norms at the origin:")
for n in range(7):
    print(f"  |S^{n} e_0|^2 = {shift.power_norm_sq(0, n):g}   (n! = {math.factorial(n)})")

print()
print("coefficients of S^3 e_0:", shift.power_coefficients(0, 3))
# the adjoint sends e_v to conj(w_v) e_parent(v)
print("adjoint on e_3:", (path.parent_of(3), shift.weight(3).conjugate()))
print()
print("closed-form inner product <S^2 e_1, S^3 e_0>:")
closed = shift.inner_product_powers(1, 2, 0, 3)
left, right = shift.power_coefficients(1, 2), shift.power_coefficients(0, 3)
brute = sum(left[w] * right[w].conjugate() for w in left.keys() & right.keys())
print(f"  closed form {closed:.6f}, brute force {brute:.6f}")

report = shift.norm_bound()
print()
print(
    f"squared-norm bound over the window: {report.value:g} at vertex "
    f"{report.attained_at} (window-limited: {report.horizon_limited})"
)
print("structural checks:", shift.structural_checks().verdict)
