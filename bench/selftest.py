"""Self-test of the benchmark at smoke size: ``python3 bench/selftest.py``.

Checks that
* every workload reports exactly the metrics BENCHMARK.json names, with
  their units, traced and untraced, and a well-formed result line;
* the same seed gives the same inputs, and another seed other inputs;
* the tracer's self times plus child coverage add up to the span totals,
  and spans nest inside their parents;
* every CLI fixture hits its expected exit code;
* the known-defect inputs are reported as failures.
Exits 0 when all hold.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402


def bench_run(workload, trace, seed=3):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr[-1000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def test_metrics_named_with_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.GATED:
            result, lines = bench_run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert any(line.strip().startswith("report_digest sha256:") for line in lines)


def test_same_seed_same_inputs():
    for workload in run.GATED[:3] + run.EXTRA:
        a = run.input_digest(W.cycle_ops(workload, 5, 0, smoke=True))
        b = run.input_digest(W.cycle_ops(workload, 5, 0, smoke=True))
        c = run.input_digest(W.cycle_ops(workload, 6, 0, smoke=True))
        assert a == b != c, workload
    digests = []
    for seed, name in ((5, "a"), (5, "b"), (6, "c")):
        workdir = run.WORK / f"selftest-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        digests.append(run.fixture_digest(W.cli_fixtures(seed, workdir), workdir))
    assert digests[0] == digests[1] != digests[2]


def test_self_times_add_up():
    T = W.load_program()
    tracer = Tracer()
    tracer.install()
    try:
        for workload in run.GATED[:3]:
            for i, o in enumerate(W.cycle_ops(workload, 7, 0, smoke=True)):
                tracer.run_op(i, W.run_op, T, o)
    finally:
        tracer.uninstall()
    # every traced second belongs to exactly one layer's self time or to
    # the operation's own (benchmark) code
    layers = sum(tracer.self_time.values())
    assert abs(layers + tracer.op_self - tracer.op_time) <= 1e-6 * tracer.op_time
    for name in tracer.calls:
        assert tracer.self_time[name] >= 0.0 and tracer.self_time[name] <= tracer.total[name] + 1e-9
    spans = {s[0]: s for s in tracer.spans}
    covered = {}
    for span_id, name, start, end, parent, _ in spans.values():
        if parent is not None:
            p = spans[parent]
            assert p[2] <= start and end <= p[3], (name, p[1])
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    for span_id, dur in covered.items():
        assert dur <= spans[span_id][3] - spans[span_id][2] + 1e-9


def test_fixture_exit_codes():
    workdir = run.WORK / "selftest-fixtures"
    workdir.mkdir(parents=True, exist_ok=True)
    for fixture in W.cli_fixtures(1, workdir):
        code, _, out, err, _, _ = run.run_cli(fixture[1], workdir)
        W.check_cli(fixture, code, out)


def test_known_defects_fail():
    result, _ = bench_run("known-defects", 0)
    assert result["failed"] > 0 and not result["correct"], result


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    try:
        for test in tests:
            try:
                test()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {test.__name__}: {exc}")
            else:
                print(f"ok   {test.__name__}")
    finally:
        import shutil

        for path in run.WORK.glob("selftest-*"):
            shutil.rmtree(path, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
