"""treeshift benchmark: verdict latency and throughput, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...      # every gated workload in turn

One closed-loop client in one process: the next operation starts when the
previous one has finished.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs each operation untraced and
then traced, and reports the per-layer metrics (see ``tracing.py``).  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
print every metric by name and unit, the failed ratio, the per-size medians
and size exponent of the two scaling ladders, and a sha256 digest of the
canonical JSON of every report in the first cycle.

Timing metrics are wall times rescaled to a reference machine speed: a
fixed pure-Python kernel is timed between operations (``Speed``), because
the machine's speed drifts by up to 30% over tens of seconds.

Set-up (``setup_s``) is timed in fresh interpreters: each probe runs this
script with ``--setup-probe``, which imports the program, builds the first
cycle's inputs from the seed and runs one untimed warm-up operation; the
reported value is the median over the probes, from spawn to ready.

The package is not installed: the benchmark puts ``src/`` on the path, for
itself and for its children, and pins BLAS/OpenMP thread pools to one
thread.  Without ``src/treeshift`` it exits with code 2 and prints no result.
"""

import time

START = time.clock_gettime(time.CLOCK_MONOTONIC)

import os  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads as W  # noqa: E402
from tracing import Tracer, clock, parse_importtime  # noqa: E402

GATED = ("verify-wide", "verify-deep", "construct-from-moments", "cli-fixtures")
# Inputs on which the program is known to answer wrongly; run on request,
# never gated (see README.md).
EXTRA = ("known-defects",)
PROBES = 3
CHILD_TIMEOUT = 60
WORK = ROOT / ".bench_work"

END_TO_END = (
    ("verdict_p50_s", "s"),
    ("verdict_p90_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("tree.available_depth.calls", "count"),
    ("tree.available_depth.self_s", "s"),
    ("tree.children_n.self_s", "s"),
    ("tree.build.self_s", "s"),
    ("shift.power_norm_sq.calls", "count"),
    ("shift.power_norm_sq.self_s", "s"),
    ("shift.power_coefficients.calls", "count"),
    ("shift.power_coefficients.self_s", "s"),
    ("shift.coefficients_expanded", "count"),
    ("shift.structural_checks.self_s", "s"),
    ("shift.norm_bound.self_s", "s"),
    ("shift.build.self_s", "s"),
    ("moments.atomic_measure.constructions", "count"),
    ("moments.atomic_measure.atoms_in", "count"),
    ("moments.atomic_measure.self_s", "s"),
    ("moments.check_stieltjes.calls", "count"),
    ("moments.check_stieltjes.self_s", "s"),
    ("moments.check_stieltjes.refuted", "count"),
    ("moments.quadrature_from_moments.calls", "count"),
    ("moments.quadrature_from_moments.self_s", "s"),
    ("moments.quadrature.rank_ratio", "ratio"),
    ("moments.carleman_diagnostic.self_s", "s"),
    ("consistency.propagate_check.calls", "count"),
    ("consistency.propagate_check.self_s", "s"),
    ("consistency.measure_discrepancy.self_s", "s"),
    ("consistency.moments_match.calls", "count"),
    ("consistency.moments_match.self_s", "s"),
    ("consistency.parent_from_children.calls", "count"),
    ("consistency.parent_from_children.self_s", "s"),
    ("consistency.build_system_from_sequences.self_s", "s"),
    ("consistency.certify_subnormal.self_s", "s"),
    ("truncation.truncate.calls", "count"),
    ("truncation.truncate.self_s", "s"),
    ("truncation.verify_truncated_consistency.self_s", "s"),
    ("truncation.convergence_report.self_s", "s"),
    ("models.certify_unilateral.self_s", "s"),
    ("models.certify_bilateral.self_s", "s"),
    ("models.certify_t_eta_kappa.self_s", "s"),
    ("models.branching_tree_system.self_s", "s"),
    ("models.extract_branch_data.self_s", "s"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.import.numpy_s", "s"),
    ("cli.import.scipy_s", "s"),
    ("cli.import.jsonschema_s", "s"),
    ("cli.import.mpmath_s", "s"),
    ("cli.parse_document.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("report.canonical_json.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.span_coverage", "ratio"),
)

PACKAGES = ("numpy", "scipy", "jsonschema", "mpmath")

# Reference time of the calibration kernel (min of 5), in seconds: the
# machine's usual speed when the baselines were taken.
C_REF = 2.2e-3
CALIBRATE_EVERY = 0.2

# Kind of operation whose per-size medians give the size exponent.
LADDERS = {"verify-wide": ("window", "V"), "verify-deep": ("path", "H")}


class SetupError(Exception):
    pass


def _kernel():
    table = {}
    for i in range(3000):
        key = (i, i * 0.5)
        table[key] = [key[1] * 2.0, i % 7]
    return sorted(table.items(), key=lambda kv: -kv[1][0])[:10]


class Speed:
    """Machine speed, sampled between operations with a fixed pure-Python
    kernel.  The machine runs up to about 30% faster for stretches of tens
    of seconds; an operation's wall time is rescaled by C_REF / c, where c
    is the mean kernel time just before and just after it, so every timing
    metric reads in seconds at the reference speed."""

    def __init__(self):
        self.samples = []
        self.at = 0.0
        self.sample()

    def sample(self):
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        self.at = clock()

    def epoch(self, every=CALIBRATE_EVERY) -> int:
        """Index of the sample taken before the next operation."""
        if clock() - self.at >= every:
            self.sample()
        return len(self.samples) - 1

    def scale(self, epoch: int) -> float:
        return C_REF / (0.5 * (self.samples[epoch] + self.samples[epoch + 1]))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TREESHIFT_TOL", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def digest_update(h, text: str):
    h.update(text.encode())
    h.update(b"\0")


def canonical_inputs(obj):
    if isinstance(obj, dict):
        return {repr(k): canonical_inputs(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical_inputs(v) for v in obj]
    return obj


def input_digest(ops) -> str:
    h = hashlib.sha256()
    for o in ops:
        digest_update(h, json.dumps(canonical_inputs(o), sort_keys=True))
    return h.hexdigest()


def fixture_digest(fixtures, workdir: Path) -> str:
    """Digest of the CLI fixtures: names, arguments with the work directory
    stripped, expected exit codes, and the documents' contents."""
    h = hashlib.sha256()
    for name, argv, code, _ in fixtures:
        digest_update(h, json.dumps([name, [a.replace(str(workdir), "") for a in argv], code]))
    for path in sorted(workdir.iterdir()):
        digest_update(h, path.name + "\n" + path.read_text())
    return h.hexdigest()


# -- set-up --------------------------------------------------------------------------


def run_cli(argv, workdir: Path, traced=False):
    """One ``treeshift`` process.  Returns (exit code, seconds, stdout,
    stderr, spawn stamp, trace path or None)."""
    trace_out = None
    if traced:
        trace_out = workdir / "child-trace.json"
        cmd = [sys.executable, "-X", "importtime", str(BENCH / "launcher.py"), str(trace_out)]
    else:
        cmd = [sys.executable, "-m", "treeshift"]
    t0 = clock()
    proc = subprocess.run(cmd + list(argv), capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT)
    return proc.returncode, clock() - t0, proc.stdout, proc.stderr, t0, trace_out


def setup(workload: str, seed: int, workdir: Path, smoke=False) -> dict:
    """Imports, the first cycle's inputs, and one untimed warm-up operation."""
    if workload == "cli-fixtures":
        workdir.mkdir(parents=True, exist_ok=True)
        fixtures = W.cli_fixtures(seed, workdir)
        digest = fixture_digest(fixtures, workdir)
        warm = next(f for f in fixtures if f[0] == "validate-tree")
        code, _, out, err, _, _ = run_cli(warm[1], workdir)
        try:
            W.check_cli(warm, code, out)
        except W.Mismatch as exc:
            raise SetupError(f"warm-up failed: {exc}: {err.strip()[-300:]}") from exc
        return {"ops": fixtures, "import_s": 0.0, "input_digest": digest}
    t0 = clock()
    try:
        T = W.load_program()
    except ImportError as exc:
        raise SetupError(f"cannot import the program: {exc}") from exc
    import_s = clock() - t0
    ops = W.cycle_ops(workload, seed, 0, smoke)
    warm = W.warmup_op(workload, seed)
    try:
        W.check_op(warm, W.run_op(T, warm).as_dict())
    except Exception as exc:
        raise SetupError(f"warm-up failed: {exc!r}") from exc
    return {"ops": ops, "program": T, "import_s": import_s, "input_digest": input_digest(ops)}


def probe_setups(args) -> list:
    """Set up in fresh interpreters; in a traced run under ``-X importtime``."""
    results = []
    speed = Speed()
    for _ in range(PROBES):
        epoch = speed.epoch(0)
        cmd = [sys.executable] + (["-X", "importtime"] if args.trace else [])
        cmd += [str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
        t0 = clock()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            message = [ln for ln in proc.stderr.splitlines() if not ln.startswith("import time:")]
            raise SetupError(f"set-up probe failed: {' | '.join(message)[-500:]}")
        doc = json.loads(proc.stdout.splitlines()[-1])
        speed.sample()
        results.append({
            "setup_s": (doc["ready"] - t0) * speed.scale(epoch),
            "interpreter_s": doc["start"] - t0,
            "import_s": doc["import_s"],
            "packages": parse_importtime(proc.stderr) if args.trace else {},
        })
    return results


# -- measurement ----------------------------------------------------------------------------


def another_cycle(start: float, cycles: int, seconds: float) -> bool:
    """Start another whole cycle only while at least half a cycle's time
    remains, so a run lasts ``seconds`` give or take half a cycle."""
    now = clock()
    return now + 0.5 * (now - start) / cycles < start + seconds


class Tally:
    """Untimed bookkeeping of one run: times, verdicts, failures, digests."""

    def __init__(self):
        self.speed = Speed()
        self.samples = []  # (wall seconds, speed epoch, ladder size or None)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = hashlib.sha256()
        self.traced_time = 0.0
        self.untraced_time = 0.0

    def record(self, name, error):
        self.attempted += 1
        if error is None:
            return True
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(f"{name}: {error}")
        return False


def _library_once(T, o, tracer=None, op_id=None):
    """One operation; returns (report or None, seconds, error or None)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rep = W.run_op(T, o)
        else:
            rep = tracer.run_op(op_id, W.run_op, T, o)
    except Exception as exc:  # any exception is a failed operation
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    try:
        W.check_op(o, rep.as_dict())
    except W.Mismatch as exc:
        return rep, seconds, str(exc)
    return rep, seconds, None


def measure_library(args, state, tally: Tally, tracer):
    T = state["program"]
    ladder = LADDERS.get(args.workload, (None,))[0]
    start = clock()
    ops, cycle = state["ops"], 0
    while True:
        for i, o in enumerate(ops):
            name = f"{o['kind']}[{o['size']}]"
            epoch = tally.speed.epoch()
            rep, seconds, error = _library_once(T, o)
            tally.untraced_time += seconds
            ok = tally.record(name, error)
            tally.samples.append((seconds, epoch, o["size"] if ok and o["kind"] == ladder else None))
            if cycle == 0:
                digest_update(tally.digest, T.report.canonical_json(rep) if rep else f"error: {error}")
            if tracer is not None:
                tracer.install()
                try:
                    rep, seconds, error = _library_once(T, o, tracer, (cycle, i))
                    if rep is not None:
                        T.report.canonical_json(rep)
                finally:
                    tracer.uninstall()
                tally.traced_time += seconds
                tally.record(name + " traced", error)
        cycle += 1
        if not another_cycle(start, cycle, args.seconds):
            return cycle
        ops = W.cycle_ops(args.workload, args.seed, cycle, args.smoke)


def measure_cli(args, state, tally: Tally, tracer, workdir: Path, cli_info):
    start = clock()
    cycle = 0
    while True:
        for fixture in state["ops"]:
            runs = [False, True] if tracer is not None else [False]
            for traced in runs:
                epoch = tally.speed.epoch(0)
                code, seconds, out, err, t0, trace_out = run_cli(fixture[1], workdir, traced)
                try:
                    W.check_cli(fixture, code, out)
                    error = None
                except (W.Mismatch, ValueError, KeyError, TypeError) as exc:
                    error = f"{exc}: {err.strip()[-200:]}"
                if traced and not trace_out.exists():
                    error = f"traced child wrote no trace: {err.strip()[-200:]}"
                tally.record(fixture[0] + (" traced" if traced else ""), error)
                if traced:
                    if not trace_out.exists():
                        continue
                    doc = json.loads(trace_out.read_text())
                    trace_out.unlink()
                    tracer.merge(doc, (cycle, fixture[0]))
                    tally.traced_time += seconds
                    packages = parse_importtime(err)
                    cli_info["interpreter_s"] += doc["start"] - t0
                    cli_info["import_s"] += doc["import_s"]
                    for pkg in PACKAGES:
                        cli_info[pkg] += packages.get(pkg, 0.0)
                    cli_info["covered"] += doc["start"] - t0 + doc["import_s"] + (
                        doc["op_time"] - doc["op_self"])
                    cli_info["wall"] += seconds
                    continue
                tally.samples.append((seconds, epoch, None))
                tally.untraced_time += seconds
                if cycle == 0:
                    digest_update(tally.digest, f"{code}\n{out}")
        cycle += 1
        if not another_cycle(start, cycle, args.seconds):
            return cycle


# -- metrics ----------------------------------------------------------------------------------


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def size_exponent(by_size):
    """Least-squares slope of log(median time) against log(size)."""
    points = [(math.log(s), math.log(statistics.median(t))) for s, t in sorted(by_size.items())]
    if len(points) < 2:
        return None
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    return math.fsum((x - mx) * (y - my) for x, y in points) / math.fsum(
        (x - mx) ** 2 for x, _ in points)


def scaled_times(tally: Tally):
    """Operation times at the reference speed, and per-size lists of them."""
    times, by_size = [], defaultdict(list)
    for seconds, epoch, size in tally.samples:
        t = seconds * tally.speed.scale(epoch)
        times.append(t)
        if size is not None:
            by_size[size].append(t)
    return times, by_size


def end_to_end_metrics(args, tally: Tally, probes):
    correct = tally.attempted - tally.failed
    times, _ = scaled_times(tally)
    if args.workload == "cli-fixtures":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "verdict_p50_s": statistics.median(times),
        "verdict_p90_s": percentile(times, 90),
        "verdicts_per_s": correct / math.fsum(times),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer_metrics(tracer: Tracer, tally: Tally, cli_info, probes):
    n = max(tracer.ops, 1)
    quad_calls = tracer.calls["moments.quadrature_from_moments"]
    if cli_info["wall"]:
        # cli-fixtures: means over the traced child processes
        cli = {k: v / n for k, v in cli_info.items()}
        coverage = cli_info["covered"] / cli_info["wall"]
    else:
        cli = {"interpreter_s": statistics.fmean(p["interpreter_s"] for p in probes),
               "import_s": statistics.fmean(p["import_s"] for p in probes)}
        for pkg in PACKAGES:
            cli[pkg] = statistics.fmean(p["packages"].get(pkg, 0.0) for p in probes)
        coverage = 1.0 - tracer.op_self / tracer.op_time if tracer.op_time else 0.0
    special = {
        "moments.atomic_measure.constructions": tracer.calls["moments.atomic_measure"] / n,
        "moments.quadrature.rank_ratio": (
            tracer.counters["moments.quadrature.rank_sum"] / quad_calls if quad_calls else 0.0),
        "cli.interpreter_s": cli["interpreter_s"],
        "cli.import_s": cli["import_s"],
        "trace.overhead_ratio": tally.traced_time / tally.untraced_time,
        "trace.span_coverage": coverage,
    }
    for pkg in PACKAGES:
        special[f"cli.import.{pkg}_s"] = cli[pkg]
    out = {}
    for name, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = tracer.calls[name[: -len(".calls")]] / n
        elif name.endswith(".self_s"):
            out[name] = tracer.self_time[name[: -len(".self_s")]] / n
        else:
            out[name] = tracer.counters[name] / n
    return out


# -- entry point --------------------------------------------------------------------------------


def run(args) -> int:
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            state = setup(args.workload, args.seed, workdir, args.smoke)
            print(json.dumps({"ready": clock(), "start": START, "import_s": state["import_s"]}))
            return 0
        probes = probe_setups(args)
        state = setup(args.workload, args.seed, workdir, args.smoke)
        tally = Tally()
        tracer = Tracer() if args.trace else None
        cli_info = defaultdict(float)
        if args.workload == "cli-fixtures":
            cycles = measure_cli(args, state, tally, tracer, workdir, cli_info)
        else:
            cycles = measure_library(args, state, tally, tracer)
        tally.speed.sample()
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer_metrics(tracer, tally, cli_info, probes)
        units = dict(PER_LAYER)
        WORK.mkdir(exist_ok=True)
        tracer.write_spans(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = end_to_end_metrics(args, tally, probes)
        units = dict(END_TO_END)

    print(f"workload {args.workload}  seed {args.seed}  cycles {cycles}  "
          f"attempted {tally.attempted}  failed {tally.failed}  "
          f"failed_ratio {tally.failed / tally.attempted:.4f}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:.6g} {units[name]}")
    if args.trace:
        print(f"  largest self time: {tracer.largest_self_time()}")
    else:
        wall = [seconds for seconds, _, _ in tally.samples]
        speeds = tally.speed.samples
        print(f"  unscaled wall time: p50 {statistics.median(wall):.6g} s  "
              f"p90 {percentile(wall, 90):.6g} s  "
              f"verdicts_per_s {(tally.attempted - tally.failed) / math.fsum(wall):.6g}  "
              f"(kernel {min(speeds) * 1e3:.3f} to {max(speeds) * 1e3:.3f} ms, "
              f"reference {C_REF * 1e3:.3f} ms)")
    ladder = LADDERS.get(args.workload)
    by_size = scaled_times(tally)[1]
    if ladder and by_size:
        medians = ", ".join(f"{s}: {statistics.median(t):.4g} s" for s, t in sorted(by_size.items()))
        print(f"  per-size median ({ladder[1]}): {medians}")
        print(f"  size_exponent {size_exponent(by_size):.3f}")
    for failure in tally.failures:
        print(f"  failure: {failure}")
    print(f"  input_digest sha256:{state['input_digest']}")
    print(f"  report_digest sha256:{tally.digest.hexdigest()}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    status = 0
    for workload in GATED:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=GATED + EXTRA + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    # small ladders, for the self-test only
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
