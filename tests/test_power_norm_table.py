"""Every reader of the power norms t_u(n) = ||S^n e_u||^2 reads the one
bottom-up table, ``WeightedShift.power_norms``: bit for bit, on every family
window and on random truncated trees, at several horizons."""

import json

import pytest

from treeshift import WeightedShift, cli, consistency, shift as shift_module, truncated_tree
from treeshift.consistency import certify_subnormal, lambert_sweep, moments_match
from treeshift.truncation import convergence_report
from treeshift.tree import vertex_to_key

from conftest import family_windows, random_consistent_system

HORIZONS = (1, 3, 9)


def _systems(rng):
    for tree in family_windows():
        yield random_consistent_system(rng, tree=tree)
    for _ in range(6):
        yield random_consistent_system(rng, max_vertices=25)


def test_every_power_norm_reader_reads_the_table(rng, monkeypatch, capsys):
    # the rows that the Hankel test and the row rule are handed
    tested_rows, compared_rows = [], []
    real_check, real_report = consistency.check_stieltjes, consistency._rows_report

    def recording_check(values, tol):
        tested_rows.append(values)
        return real_check(values, tol=tol)

    def recording_report(u, lhs, rhs, tol):
        compared_rows.append((u, rhs))
        return real_report(u, lhs, rhs, tol)

    monkeypatch.setattr(consistency, "check_stieltjes", recording_check)
    monkeypatch.setattr(consistency, "_rows_report", recording_report)
    swept = 0
    for shift, system in _systems(rng):
        tree = shift.tree
        monkeypatch.setattr(cli, "_load_shift", lambda args, shift=shift: shift)
        for horizon in HORIZONS:
            table = shift.power_norms(horizon)
            keyed = {vertex_to_key(u): list(row) for u, row in table.items()}
            for u, row in table.items():
                for n in range(len(row)):
                    assert shift.moment_values(u, n) == row[: n + 1]
                    assert shift.power_norm_sq(u, n) == row[n]
                compared_rows.clear()
                moments_match(system, shift, u, horizon)
                assert compared_rows == [(u, row)]
            argv = ["moments", "--tree", "-", "--weights", "-", "--horizon", str(horizon)]
            assert cli.main(argv) == 0
            assert json.loads(capsys.readouterr().out)["norms_sq"] == keyed
            for key in keyed:
                assert cli.main([*argv, "--vertex", key]) == 0
                assert json.loads(capsys.readouterr().out)["norms_sq"] == {key: keyed[key]}
            tested_rows.clear()
            verdicts, _ = lambert_sweep(shift, horizon=horizon)
            assert tested_rows == [table[u] for u in verdicts]
            swept += len(tested_rows)
            compared_rows.clear()
            cert = certify_subnormal(shift, system, horizon=horizon)
            assert compared_rows == [(u, table[u]) for u in tree.sorted_vertices]
            for rep in cert.moments:
                n, _, shift_norm_sq, _ = rep.worst_row
                assert shift_norm_sq == table[rep.vertex][n]
                assert rep.as_dict()["worst_row"]["shift_norm_sq"] == table[rep.vertex][n]
    assert swept


@pytest.mark.parametrize("power", [0, 1, 2, 3])
def test_the_convergence_residual_is_exactly_zero_once_the_window_holds_every_support(
    rng, power
):
    for shift, system in _systems(rng):
        tree = shift.tree
        top = max(m.max_position() for m in system.mu.values())
        for u in tree.sorted_vertices:
            if tree.available_depth(u) < power:
                continue
            report = convergence_report(system, shift, u, power, [int(top) + 1, int(top) + 5])
            assert [r.residual_sq for r in report.rows] == [0.0, 0.0]
            assert [r.truncated_norm_sq for r in report.rows] == [report.original_norm_sq] * 2


def _within(tree, u, n) -> int:
    """The number of vertices v with par^k(v) = u for some k <= n."""
    count = 0
    for v in tree.vertices:
        for _ in range(n + 1):
            if v == u:
                count += 1
                break
            v = tree.parent.get(v)
    return count


def test_a_single_vertex_query_forms_only_the_rows_below_it(rng, monkeypatch):
    # moment_values(u, n) runs the table's recursion over the n generations
    # below u alone: at most one row per vertex within n levels below u, and
    # u's row is the table's, bit for bit
    formed = []
    real = shift_module._norm_rows

    def counting(order, tops, children, moduli_sq):
        rows = real(order, tops, children, moduli_sq)
        formed.append(len(rows))
        return rows

    depth = 10
    parent = {v: (v - 1) // 2 for v in range(1, 2 ** (depth + 1) - 1)}
    window = truncated_tree(range(2 ** (depth + 1) - 1), parent)
    cases = [(WeightedShift(window, dict.fromkeys(parent, 0.9)), (0, 5, 511, 1022, 2046))]
    cases += [(shift, shift.tree.sorted_vertices) for shift, _ in _systems(rng)]
    for shift, vertices in cases:
        tree = shift.tree
        tables = {n: shift.power_norms(n) for n in range(depth + 1)}
        monkeypatch.setattr(shift_module, "_norm_rows", counting)
        for u in vertices:
            for n in range(min(tree.clamp_order(u, depth), 3) + 1):
                within = _within(tree, u, n)
                formed.clear()
                assert shift.moment_values(u, n) == tables[n][u]
                assert len(formed) == 1 and formed[0] <= within
                formed.clear()
                assert shift.power_norm_sq(u, n) == tables[n][u][n]
                assert len(formed) == 1 and formed[0] <= within
        monkeypatch.undo()
