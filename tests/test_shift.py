import cmath
import copy
import math
import random
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    HorizonError,
    UnknownVertexError,
    WeightedShift,
    explicit_tree,
    make_family,
    product_moments,
    truncated_tree,
    weights_from_json,
)
from treeshift.shift import _mod_sq
from treeshift.tree import vertex_from_key, vertex_sort_key

from conftest import (
    family_windows,
    inner_product_brute,
    random_complex_weights,
    random_truncated_tree,
)


def unilateral_shift(weights):
    tree = make_family("unilateral", len(weights))
    return WeightedShift(tree, {k + 1: w for k, w in enumerate(weights)})


def test_path_weight_basics():
    s = unilateral_shift([1.0] * 5)
    assert s.path_weight(0, 0) == 1.0
    assert s.path_weight(0, 4) == 1.0
    s2 = unilateral_shift([math.sqrt(n) for n in range(1, 6)])
    assert abs(abs(s2.path_weight(0, 5)) ** 2 - 120.0) < 1e-9
    with pytest.raises(ValueError, match="not a descendant"):
        s.path_weight(3, 1)


def test_path_weight_child_recursions(rng):
    # extending a path by one child multiplies by that child's weight,
    # and prefixing by the parent multiplies by the base vertex weight
    for _ in range(20):
        tree = random_truncated_tree(rng, max_vertices=25)
        s = random_complex_weights(rng, tree)
        for u in tree.sorted_vertices:
            for v in tree.descendants(u):
                base = s.path_weight(u, v)
                for w in tree.children(v):
                    assert s.path_weight(u, w) == pytest.approx(
                        base * s.weight(w), rel=1e-12
                    )
                p = tree.parent_of(u)
                if p is not None:
                    assert s.path_weight(p, v) == pytest.approx(
                        s.weight(u) * base, rel=1e-12
                    )


def test_power_coefficients_examples():
    t20 = make_family("t-eta-kappa", 2, eta=2, kappa=0)
    a, b = 0.5 + 0.25j, -1.25j
    s = WeightedShift(
        t20, {(1, 1): a, (2, 1): b, (1, 2): 2.0, (2, 2): 3.0}
    )
    assert s.power_coefficients(0, 0) == {0: 1.0}
    assert s.power_coefficients(0, 1) == {(1, 1): a, (2, 1): b}
    second = s.power_coefficients(0, 2)
    assert second == {(1, 2): a * 2.0, (2, 2): b * 3.0}


def reference_coefficients(shift, u, n):
    """Reference expansion of the n-th power at u: a fresh level-by-level
    product for this (u, n) alone, checking the horizon before each level."""
    level = {u: complex(1.0)}
    for k in range(n):
        if k + 1 > shift.tree.available_depth(u):
            shift.tree.children_n(u, n)
        nxt = {}
        for v, coeff in level.items():
            for c in shift.tree.children(v):
                nxt[c] = coeff * shift.weights[c]
        level = nxt
    return {v: level[v] for v in sorted(level, key=vertex_sort_key)}


def reference_norm_sq(shift, u, n):
    return math.fsum(_mod_sq(c) for c in reference_coefficients(shift, u, n).values())


def _trees_for_reference(rng):
    return family_windows() + [random_truncated_tree(rng, max_vertices=30) for _ in range(15)]


def test_power_norms_equal_reference_in_any_call_order(rng):
    # exact equality: every single-vertex query reads its row of the
    # power_norms table, whichever (u, n) was asked first, and the
    # coefficients do the reference's arithmetic
    shuffler = random.Random(7)
    for tree in _trees_for_reference(rng):
        weights = random_complex_weights(rng, tree).weights
        reference = WeightedShift(tree, weights)
        pairs = [
            (u, n)
            for u in tree.sorted_vertices
            for n in range(int(min(5, tree.available_depth(u))) + 1)
        ]
        table = reference.power_norms(5)
        expect = {(u, n): table[u][n] for u, n in pairs}
        shuffled = list(pairs)
        shuffler.shuffle(shuffled)
        for order in (pairs, pairs[::-1], shuffled):
            norms = WeightedShift(tree, weights)
            values = WeightedShift(tree, weights)
            for u, n in order:
                assert norms.power_norm_sq(u, n) == expect[(u, n)]
                assert values.moment_values(u, n) == tuple(
                    expect[(u, k)] for k in range(n + 1)
                )
                assert values.power_norm_sq(u, n) == expect[(u, n)]
        for u, n in pairs:
            assert reference.power_coefficients(u, n) == reference_coefficients(
                reference, u, n
            )


def grafted_tree(rng, explicit=False):
    """A random window with chains of single-child vertices grafted above its
    root and into about half of its edges.  With ``explicit`` the childless
    vertices are true leaves rather than frontier vertices, so the levels
    below a branching can narrow to one vertex, or to none."""
    base = random_truncated_tree(rng, max_vertices=20, max_depth=4)
    vertices = list(base.vertices)
    parent = dict(base.parent)
    next_id = max(vertices) + 1

    def chain(top, length):
        nonlocal next_id
        for _ in range(length):
            vertices.append(next_id)
            parent[next_id] = top
            top = next_id
            next_id += 1
        return top

    for child in sorted(base.parent):
        if rng.random() < 0.5:
            parent[child] = chain(parent[child], int(rng.integers(1, 6)))
    root = next_id
    vertices.append(root)
    next_id += 1
    parent[0] = chain(root, int(rng.integers(0, 5)))
    return explicit_tree(vertices, parent) if explicit else truncated_tree(vertices, parent)


def mixed_weights(rng, tree):
    """Complex weights with nonzero imaginary parts, about one in six of them
    zero (either sign of zero)."""
    out = {}
    for v in tree.non_root_vertices:
        r = rng.random()
        if r < 0.08:
            out[v] = complex(0.0, 0.0)
        elif r < 0.16:
            out[v] = complex(-0.0, -0.0)
        else:
            out[v] = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.1, 1.5) * rng.choice([-1, 1]))
    return WeightedShift(tree, out)


def _run_and_branch_trees(rng):
    return [
        make_family("t-eta-kappa", 6, eta=3, kappa=4),
        make_family("t-eta-kappa", 5, eta=2, kappa=1),
        *(grafted_tree(rng) for _ in range(8)),
        *(grafted_tree(rng, explicit=True) for _ in range(8)),
    ]


def _orders(tree, u, cap=14):
    return range(int(min(cap, tree.available_depth(u))) + 1)


def test_walk_equals_reference_on_runs_and_branchings(rng):
    # exact equality on trees where single-child runs meet branchings, with
    # complex and zero weights: norms with the table's rows, coefficients
    # with the reference's
    for tree in _run_and_branch_trees(rng):
        s = mixed_weights(rng, tree)
        table = s.power_norms(14)
        for u in tree.sorted_vertices:
            orders = _orders(tree, u)
            expect = table[u]
            assert len(expect) == len(orders)
            assert s.moment_values(u, orders[-1]) == expect
            for n in orders:
                assert s.power_norm_sq(u, n) == expect[n]
                assert s.power_coefficients(u, n) == reference_coefficients(s, u, n)


def _product_moments_loop(weights):
    values = [1.0]
    acc = 1.0 + 0.0j
    for w in weights:
        acc = acc * complex(w)
        values.append(_mod_sq(acc))
    return tuple(values)


def test_product_moments_equals_the_running_loop(rng):
    assert product_moments([]) == (1.0,)
    for _ in range(200):
        n = int(rng.integers(0, 40))
        weights = [complex(rng.normal(), rng.normal()) for _ in range(n)]
        if n and rng.random() < 0.3:
            weights[int(rng.integers(n))] = 0.0
        assert product_moments(weights) == _product_moments_loop(weights)
        reals = [float(w.real) for w in weights]
        assert product_moments(reals) == _product_moments_loop(reals)
    # overflow gives the same inf and NaN products as the loop
    got = product_moments([1e160, 1e160, 1.0])
    want = _product_moments_loop([1e160, 1e160, 1.0])
    assert [repr(x) for x in got] == [repr(x) for x in want]


# weight parts: signed zeros, subnormals, ordinary values and values near
# 1e154, whose running products overflow after two or three steps
_PART = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=0.5e154, max_value=4e154).flatmap(lambda x: st.sampled_from([x, -x])),
)


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(st.builds(complex, _PART, _PART), min_size=1, max_size=30))
def test_walk_norms_equal_mod_sq_of_the_running_products(weights):
    # compared by repr: the same floats, with -0.0, inf and NaN spelled out
    want = [repr(x) for x in _product_moments_loop(weights)]
    assert [repr(x) for x in product_moments(weights)] == want
    # a branching vertex sums its children's squared moduli, or overflows alike
    tree = explicit_tree([0, 1, 2], {1: 0, 2: 0})
    star = WeightedShift(tree, {1: weights[0], 2: weights[-1]})
    assert _repr_or_error(lambda: star.power_norm_sq(0, 1)) == _repr_or_error(
        lambda: math.fsum([_mod_sq(weights[0]), _mod_sq(weights[-1])])
    )


def _repr_or_error(call):
    try:
        return repr(call())
    except OverflowError as err:
        return str(err)


def reference_power_norms(shift, horizon):
    """The recursion t_u(n + 1) = sum over children v of |w_v|^2 t_v(n) as
    plain loops, top-down with memoised rows: each order of a row is the
    ``fsum`` of its children's scaled entries, a child whose squared weight
    is 0 left out and an entry 0 kept 0 under a squared weight that
    overflowed."""
    tree = shift.tree
    rows = {}

    def row(u):
        if u not in rows:
            values = [1.0]
            for n in range(1, int(min(horizon, tree.available_depth(u))) + 1):
                terms = []
                for v in tree.children(u):
                    c, t = _mod_sq(shift.weights[v]), row(v)[n - 1]
                    if c != 0.0:
                        terms.append(c * t if t else 0.0)
                values.append(math.fsum(terms))
            rows[u] = tuple(values)
        return rows[u]

    return {u: row(u) for u in tree.sorted_vertices}


def _recursion_cases(rng):
    """(shift, horizon) pairs: every family window and grafted windows with
    frontier vertices or true leaves, under complex weights and under
    weights of which some are zero of either sign, at horizons that cut
    some rows or none."""
    for tree in [*family_windows(), *_run_and_branch_trees(rng)]:
        for make in (random_complex_weights, mixed_weights):
            for horizon in (0, 3, 40):
                yield make(rng, tree), horizon


def test_power_norms_equal_the_recursion_loop(rng):
    # exact equality: the table does the loop's arithmetic
    for shift, horizon in _recursion_cases(rng):
        table = shift.power_norms(horizon)
        assert table == reference_power_norms(shift, horizon)
        for u in shift.tree.sorted_vertices:
            assert len(table[u]) == shift.tree.clamp_order(u, horizon) + 1


def test_power_norms_do_not_depend_on_the_order_of_queries(rng):
    # on cold copies of the tree: the table alone, and the table after
    # single-vertex queries in a random order
    shuffler = random.Random(11)
    for shift, horizon in _recursion_cases(rng):
        want = reference_power_norms(shift, horizon)
        vertices = list(shift.tree.sorted_vertices)
        shuffler.shuffle(vertices)
        cold = WeightedShift(copy.copy(shift.tree), shift.weights)
        assert cold.power_norms(horizon) == want
        warmed = WeightedShift(copy.copy(shift.tree), shift.weights)
        for u in vertices:
            warmed.moment_values(u, warmed.tree.clamp_order(u, horizon))
        table = warmed.power_norms(horizon)
        assert [table[u] for u in vertices] == [want[u] for u in vertices]


def test_power_norms_of_frontier_vertices_and_true_leaves():
    window = WeightedShift(make_family("unilateral", 3), {1: 2.0, 2: 1j, 3: 0.5})
    assert window.power_norms(10) == {
        0: (1.0, 4.0, 4.0, 1.0), 1: (1.0, 1.0, 0.25), 2: (1.0, 0.25), 3: (1.0,)
    }
    leafy = WeightedShift(explicit_tree([0, 1, 2], {1: 0, 2: 0}), {1: 2.0, 2: 0.0})
    assert leafy.power_norms(3) == {
        0: (1.0, 4.0, 0.0, 0.0), 1: (1.0, 0.0, 0.0, 0.0), 2: (1.0, 0.0, 0.0, 0.0)
    }


def test_a_zero_weight_hides_an_overflowing_subtree():
    # |1e200|^2 overflows below the zero weight: the rows above it read 0,
    # as the exact norms do, and not 0 * inf = NaN; so does the row of
    # a true leaf under the overflowing weight
    for zero in (0.0, -0.0, complex(-0.0, 0.0)):
        shift = unilateral_shift([zero, 1e200, 1e200])
        assert shift.power_norms(3)[1] == (1.0, math.inf, math.inf)
        assert shift.power_norms(3)[0] == (1.0, 0.0, 0.0, 0.0)
        assert shift.moment_values(0, 3) == (1.0, 0.0, 0.0, 0.0)
        star = WeightedShift(
            explicit_tree([0, 1, 2, 3], {1: 0, 2: 0, 3: 1}), {1: zero, 2: 1.0, 3: 1e200}
        )
        assert star.power_norms(2)[0] == (1.0, 1.0, 0.0)
        assert star.power_norms(2)[1] == (1.0, math.inf, 0.0) == star.moment_values(1, 2)


def test_power_norms_raise_as_the_certificate_did():
    s = unilateral_shift([1.0, 2.0])
    with pytest.raises(ValueError, match="^generation index must be nonnegative$"):
        s.power_norms(-1)
    # no frontier below: the clamp names the first vertex in vertex order
    path = WeightedShift(explicit_tree([0, 1, 2], {1: 0, 2: 1}), {1: 1.0, 2: 1.0})
    with pytest.raises(ValueError, match="no finite order at 0"):
        path.power_norms(math.inf)


# |w| from 1e-3 to 1e3: no square, product or sum under- or overflows
_SCALE = st.floats(min_value=-3.0, max_value=3.0)
_PHASE = st.floats(min_value=0.0, max_value=2.0 * math.pi)


def _exact_norms(shift, u, top):
    """||S^n e_u||^2 for n = 0..top in exact rationals, from the coefficient
    expansion: each coefficient a product of weights, each weight's parts
    read as the rationals their floats are."""
    level = {u: (Fraction(1), Fraction(0))}
    out = [Fraction(1)]
    for _ in range(top):
        nxt = {}
        for v, (re, im) in level.items():
            for c in shift.tree.children(v):
                a, b = Fraction(shift.weights[c].real), Fraction(shift.weights[c].imag)
                nxt[c] = (re * a - im * b, re * b + im * a)
        level = nxt
        out.append(sum((re * re + im * im for re, im in level.values()), Fraction(0)))
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), explicit=st.booleans(),
       data=st.data())
def test_power_norms_and_generation_sums_are_within_rounding_of_exact(seed, explicit, data):
    """Both ways of computing t_u(n) = ||S^n e_u||^2 are within
    6 (n + 1) 2^-53 of the exact value, relative: the ``power_norms``
    table, and the generation sum of squared coefficient moduli that
    ``convergence_report`` forms from ``power_coefficients``.

    With u = 2^-53, each float operation rounds by a factor 1 + d, |d| <= u,
    and no value here under- or overflows.  Every term is nonnegative, so a
    sum of terms that are each off by a relative e is off by at most e, and
    errors multiply along a path:

    - the recursion forms |w|^2 = a^2 + b^2 off by at most (1 + u)^2 - 1
      (each square rounds once and their sum once more), multiplies it into
      a child's entry with one rounding and sums the children with one more
      (``fsum`` rounds once), so t_u(n) is off by at most (1 + u)^(4n) - 1,
      about 4n u;
    - the generation sum forms each coefficient by n - 1 rounded complex
      products after the exact 1 * w, each off by at most sqrt(2) gamma_2,
      gamma_2 = 2u / (1 - 2u), in modulus (Higham, *Accuracy and Stability
      of Numerical Algorithms*, 2nd ed., Lemma 3.5); squaring the modulus
      doubles that, and |c|^2 and ``fsum`` round three times more, so t_u(n)
      is off by at most (1 + sqrt(2) gamma_2)^(2(n - 1)) (1 + u)^3 - 1,
      about (4 sqrt(2) (n - 1) + 3) u.

    Both are below 6 (n + 1) u for the n <= 12 reached here."""
    rng = np.random.default_rng(seed)
    tree = grafted_tree(rng, explicit=explicit)
    weights = {
        v: cmath.rect(10.0 ** data.draw(_SCALE), data.draw(_PHASE))
        for v in sorted(tree.non_root_vertices, key=vertex_sort_key)
    }
    shift = WeightedShift(tree, weights)
    horizon = 12
    table = shift.power_norms(horizon)
    for u in tree.sorted_vertices:
        top = tree.clamp_order(u, horizon)
        exact = _exact_norms(shift, u, top)
        generation = [reference_norm_sq(shift, u, n) for n in range(top + 1)]
        for name, row in (("recursion", table[u]), ("generation", generation)):
            for n, (got, want) in enumerate(zip(row, exact)):
                assert abs(Fraction(got) - want) <= Fraction(6 * (n + 1), 2**53) * want, (
                    name, u, n
                )


def test_power_norm_horizon_error_unchanged(rng):
    for tree in _trees_for_reference(rng):
        s = random_complex_weights(rng, tree)
        for u in tree.sorted_vertices:
            avail = tree.available_depth(u)
            if avail == math.inf:
                continue
            n = int(avail) + 1
            with pytest.raises(HorizonError) as expected:
                reference_coefficients(s, u, n)
            for query in (s.power_norm_sq, s.moment_values, s.power_coefficients):
                with pytest.raises(HorizonError) as got:
                    query(u, n)
                assert str(got.value) == str(expected.value)


def test_power_queries_reject_unknown_vertex_and_negative_order():
    s = unilateral_shift([1.0, 2.0, 0.5, 1.5])
    for query in (s.power_norm_sq, s.moment_values, s.power_coefficients):
        for n in range(3):
            with pytest.raises(UnknownVertexError):
                query(99, n)
        with pytest.raises(ValueError, match="nonnegative"):
            query(0, -1)


def test_power_norm_examples():
    s = unilateral_shift([1.0, 1.0, 1.0])
    assert s.power_norm_sq(0, 0) == 1.0
    leafy = explicit_tree([0, 1], {1: 0})
    ls = WeightedShift(leafy, {1: 2.0})
    assert ls.power_norm_sq(1, 1) == 0.0  # empty child set sums to zero
    t20 = make_family("t-eta-kappa", 1, eta=2, kappa=0)
    hs = WeightedShift(t20, {(1, 1): 1 / math.sqrt(2), (2, 1): 1 / math.sqrt(2)})
    assert hs.power_norm_sq(0, 1) == pytest.approx(1.0, rel=1e-15)


def test_power_norm_child_recursion(rng):
    # |S^(n+1) e_u|^2 = sum over children of |w_v|^2 |S^n e_v|^2
    for _ in range(20):
        tree = random_truncated_tree(rng, max_vertices=30)
        s = random_complex_weights(rng, tree)
        for u in tree.sorted_vertices:
            avail = int(min(4, tree.available_depth(u)))
            for n in range(avail):
                lhs = s.power_norm_sq(u, n + 1)
                rhs = math.fsum(
                    s.modulus_sq(v) * s.power_norm_sq(v, n)
                    for v in tree.children(u)
                )
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_inner_product_closed_form_matches_brute(rng):
    cases = 0
    while cases < 200:
        tree = random_truncated_tree(rng, max_vertices=30)
        s = random_complex_weights(rng, tree)
        verts = tree.sorted_vertices
        for _ in range(10):
            u = verts[rng.integers(len(verts))]
            v = verts[rng.integers(len(verts))]
            m = int(rng.integers(0, int(min(4, tree.available_depth(u))) + 1))
            n = int(rng.integers(0, int(min(4, tree.available_depth(v))) + 1))
            closed = s.inner_product_powers(u, m, v, n)
            brute = inner_product_brute(s, u, m, v, n)
            scale = max(1.0, abs(closed), abs(brute))
            assert abs(closed - brute) <= 1e-12 * scale
            cases += 1


def test_inner_product_conjugate_symmetry(rng):
    for _ in range(30):
        tree = random_truncated_tree(rng, max_vertices=20)
        s = random_complex_weights(rng, tree)
        verts = tree.sorted_vertices
        u = verts[rng.integers(len(verts))]
        v = verts[rng.integers(len(verts))]
        m = int(rng.integers(0, int(min(3, tree.available_depth(u))) + 1))
        n = int(rng.integers(0, int(min(3, tree.available_depth(v))) + 1))
        a = s.inner_product_powers(u, m, v, n)
        b = s.inner_product_powers(v, n, u, m)
        assert a == pytest.approx(b.conjugate(), rel=1e-12, abs=1e-15)


def test_inner_product_disjoint_branches():
    t20 = make_family("t-eta-kappa", 4, eta=2, kappa=0)
    weights = {v: 1.0 for v in t20.non_root_vertices}
    s = WeightedShift(t20, weights)
    for m in range(3):
        for n in range(3):
            assert s.inner_product_powers((1, 1), m, (2, 1), n) == 0.0


def test_inner_product_diagonal_and_path():
    lam = [0.7 + 0.2j, 1.1 - 0.5j, 0.3 + 0.9j, 1.0, 0.6]
    s = unilateral_shift(lam)
    assert s.inner_product_powers(0, 2, 0, 2) == pytest.approx(
        s.power_norm_sq(0, 2)
    )
    # <S^2 e_0, S e_1> = lam1 |lam2|^2 by direct expansion
    got = s.inner_product_powers(0, 2, 1, 1)
    want = lam[0] * abs(lam[1]) ** 2
    assert got == pytest.approx(want, rel=1e-12)
    # ancestor side: <S^2 e_1, S^3 e_0> = conj(lam1) |lam2 lam3|^2
    got2 = s.inner_product_powers(1, 2, 0, 3)
    want2 = lam[0].conjugate() * abs(lam[1] * lam[2]) ** 2
    assert got2 == pytest.approx(want2, rel=1e-12)


def adjoint_basis(shift, u):
    """The adjoint on the basis vector at u, from <S* e_u, e_p> = conj <S e_p,
    e_u>: (parent p, conjugate coefficient), or None at a root (the zero
    vector)."""
    p = shift.tree.parent_of(u)
    if p is None:
        return None
    return (p, shift.power_coefficients(p, 1)[u].conjugate())


def test_adjoint_basis():
    s = unilateral_shift([1.0, 1.0, 2j, 1.0])
    assert adjoint_basis(s, 0) is None
    vertex, coeff = adjoint_basis(s, 3)
    assert vertex == 2 and coeff == -2j
    vertex, coeff = adjoint_basis(s, 1)
    assert vertex == 0 and coeff == 1.0


def test_norm_bound():
    s = unilateral_shift([1.0] * 6)
    rep = s.norm_bound()
    assert rep.value == 1.0
    assert rep.horizon_limited
    s2 = unilateral_shift([math.sqrt(n) for n in range(1, 11)])
    rep2 = s2.norm_bound()
    assert rep2.value == pytest.approx(10.0)
    assert rep2.attained_at == 9
    # per-level maxima expose growth towards the window edge
    assert rep2.per_level_max[-2] > rep2.per_level_max[0]


def test_structural_checks():
    t20 = make_family("t-eta-kappa", 3, eta=2, kappa=0)
    s = WeightedShift(t20, {v: 1.0 for v in t20.non_root_vertices})
    rep = s.structural_checks()
    assert rep.leafless and rep.injective and not rep.not_hyponormal

    leafy = explicit_tree([0, 1, 2], {1: 0, 2: 1})
    ls = WeightedShift(leafy, {1: 1.0, 2: 1.0})
    rep2 = ls.structural_checks()
    assert not rep2.leafless
    assert rep2.not_hyponormal
    assert "not subnormal" in rep2.verdict

    t2 = make_family("t-eta-kappa", 2, eta=2, kappa=0)
    zs = WeightedShift(
        t2, {(1, 1): 0.0, (2, 1): 0.0, (1, 2): 1.0, (2, 2): 1.0}
    )
    rep3 = zs.structural_checks()
    assert not rep3.injective
    assert 0 in rep3.zero_sum_vertices
    assert not rep3.not_hyponormal  # zero weights escape the leaf obstruction


def test_reports_spell_vertices_as_keys():
    tree = make_family("t-eta-kappa", 3, eta=2, kappa=0)
    weights = {v: 1.0 for v in tree.non_root_vertices}
    weights[(1, 2)] = 0.0
    weights[(2, 2)] = 3.0
    s = WeightedShift(tree, weights)
    zero_sum = s.structural_checks().as_dict()["zero_sum_vertices"]
    assert zero_sum == ["1,1"]
    assert [vertex_from_key(k) for k in zero_sum] == [(1, 1)]
    assert s.norm_bound().as_dict()["attained_at"] == "2,1"
    assert WeightedShift(explicit_tree([], {}), {}).norm_bound().as_dict()["attained_at"] is None


def test_weight_key_validation():
    tree = make_family("unilateral", 3)
    with pytest.raises(ValueError, match="missing weights"):
        WeightedShift(tree, {1: 1.0})
    with pytest.raises(ValueError, match="outside the tree"):
        WeightedShift(tree, {1: 1.0, 2: 1.0, 3: 1.0, 9: 1.0})


def test_weights_from_json_forms():
    tree = make_family("unilateral", 3)
    s = weights_from_json({"weights": [1, 2, 3]}, tree)
    assert s.weight(2) == 2.0
    s2 = weights_from_json(
        {"weights": [{"v": 1, "re": 1.0}, {"v": 2, "im": 1.0}, {"v": 3, "re": 0.5}]},
        tree,
    )
    assert s2.weight(2) == 1j
    with pytest.raises(ValueError, match="duplicate weight"):
        weights_from_json(
            {"weights": [{"v": 1, "re": 1.0}, {"v": 1, "re": 2.0}, {"v": 2}, {"v": 3}]},
            tree,
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, math.nan), complex(-math.inf, 0.0)])
def test_non_finite_weights_are_rejected(bad):
    tree = make_family("unilateral", 3)
    with pytest.raises(ValueError, match=r"weight .* of vertex 2 is not finite"):
        WeightedShift(tree, {1: 1.0, 2: bad, 3: 1.0})
