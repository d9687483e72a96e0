"""hdmac benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {frontier,scan,regions} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  Human-readable lines (environment, one row per solved direction,
every metric with its unit) come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 times the named workload with no instrumentation and reports the
end-to-end metrics.  --trace 1 runs one untraced round of the named
workload, then one traced round of every workload, and reports the
per-layer metrics; spans go to ``.perfbench_out/``.
"""

import os

# Pin BLAS and OpenMP pools before numpy is imported, so a small machine
# measures the program rather than thread scheduling.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIO_DIR = ROOT / "scenarios"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

# Fresh interpreter: import the package (and the scipy.optimize import the
# optimizer defers to its first polish) and parse every shipped scenario.
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hdmac, scipy.optimize
from hdmac.scenario import parse_scenario
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        parse_scenario(fh.read())
print(repr(time.perf_counter() - t0))
"""


def _scenario_paths():
    return sorted(SCENARIO_DIR.glob("*.yaml"))


def measure_setup() -> float:
    """Median wall time of SETUP_REPEATS fresh-interpreter set-ups, in s."""
    cmd = [sys.executable, "-c", _SETUP_CODE, str(SRC), *map(str, _scenario_paths())]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def parse_scenarios():
    """Parse the shipped scenarios; returns them by file name and the summed
    per-file median parse time in s."""
    from hdmac.scenario import parse_scenario
    scenarios, total = {}, 0.0
    for path in _scenario_paths():
        text = path.read_text(encoding="utf-8")
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            scenarios[path.name] = parse_scenario(text)
            times.append(time.perf_counter() - t0)
        total += statistics.median(times)
    return scenarios, total


def environment(seed: int, workload: str) -> dict:
    import numpy
    import scipy
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "git_commit": commit,
            "seed": seed, "workload": workload,
            "threads": {v: os.environ[v] for v in _THREAD_VARS}}


class Tally:
    """Attempted and failed operations, and time spent checking, of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {what}", file=sys.stderr)


def run_round(ops, tally: Tally, tracer=None):
    """Run every op once; returns (wall s, per-op s, outputs).  An op that
    raises counts as failed and yields None."""
    clock = time.perf_counter
    times, outs = [], []
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            if tracer is None:
                out = op.fn(*op.args)
            else:
                out = tracer.call(op.span, op.fn, *op.args)
        except Exception:  # keep measuring; the failure is reported and counted
            traceback.print_exc()
            tally.fail(op.span)
            out = None
        times.append(clock() - t0)
        outs.append(out)
    wall = clock() - start
    tally.attempted += len(ops)
    return wall, times, outs


def check_round(ops, outs, tally: Tally):
    """Judge one round's outputs; returns (objective total, rows)."""
    t0 = time.perf_counter()
    objective, rows = 0.0, []
    for op, out in zip(ops, outs):
        if out is None:
            continue
        try:
            result = op.check(out)
        except Exception:  # a check that cannot run is a failed check
            traceback.print_exc()
            tally.fail(f"check {op.span}")
            continue
        if not result.ok:
            tally.fail(f"check {op.span}")
        objective += result.value
        rows.extend(result.rows)
    tally.check_s += time.perf_counter() - t0
    return objective, rows


def compare_round(first, outs, ops, tally: Tally) -> None:
    """A repeated round must reproduce the first round's outputs."""
    for op, a, b in zip(ops, first, outs):
        if a is not None and b is not None and a != b:
            tally.fail(f"repeat {op.span}")


def print_rows(workload: str, rows) -> None:
    print("row workload channel scheme theta value evaluations")
    for channel, scheme, theta, value, evals in rows:
        print(f"row {workload} {channel} {scheme} {theta!r} {value!r} {evals}")


def witness(tally: Tally) -> float:
    from workloads import outer_witness_gap
    t0 = time.perf_counter()
    gap, result = outer_witness_gap()
    tally.check_s += time.perf_counter() - t0
    if not result.ok:
        tally.fail("check outer witness")
    print(f"outer witness: value {result.value!r} known {gap + result.value!r} "
          f"gap {gap!r} bits")
    return gap


def timed_run(workload, ops, seconds, tally: Tally) -> dict:
    """Repeat rounds while another one fits in ``seconds`` (at least one).

    Keeps only per-round figures, so memory does not grow with the number
    of rounds a faster program fits in.
    """
    walls, p50s, p99s = [], [], []
    first = None
    begin = time.perf_counter()
    while True:
        wall, op_times, outs = run_round(ops, tally)
        op_times.sort()
        walls.append(wall)
        p50s.append(_percentile(op_times, 0.50))
        p99s.append(_percentile(op_times, 0.99))
        if first is None:
            first = outs
        else:
            compare_round(first, outs, ops, tally)
        if time.perf_counter() - begin + statistics.median(walls) > seconds:
            break
    objective, rows = check_round(ops, first, tally)
    print_rows(workload, rows)
    return {"walls": walls, "p50s": p50s, "p99s": p99s, "objective": objective}


def _percentile(sorted_vals, q: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(sorted_vals) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def end_to_end(workload, seed, seconds, scenarios, cli_out, tally) -> dict:
    import workloads
    ops = workloads.build(workload, seed, scenarios, cli_out)
    res = timed_run(workload, ops, seconds, tally)
    if workload == "frontier":
        witness(tally)
    print(f"rounds {len(res['walls'])}, operations per round {len(ops)}")
    # With a dozen operations per round on frontier and scan the 99th
    # percentile is the single slowest call, too unsteady to gate on; it is
    # printed for every workload but reported as a metric by none.
    print(f"op_p99_ms {statistics.median(res['p99s']) * 1e3!r} ms")
    return {
        "wall_s": (statistics.median(res["walls"]), "s"),
        "op_p50_ms": (statistics.median(res["p50s"]) * 1e3, "ms"),
        "objective_total": (res["objective"], "bits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, seed, scenarios, cli_out, tally, run_id) -> dict:
    import workloads
    from hdmac.optimize import SCHEMES
    from tracing import LAYER_FUNCTIONS, Tracer

    ops = workloads.build(workload, seed, scenarios, cli_out)
    untraced_wall, _, outs = run_round(ops, tally)
    check_round(ops, outs, tally)

    tracer = Tracer(run_id)
    walls, evals = {}, {}
    for name in workloads.WORKLOADS:
        ops = workloads.build(name, seed, scenarios, cli_out)
        tracer.workload = name
        restore = tracer.install()
        try:
            walls[name], _, outs = run_round(ops, tally, tracer)
        finally:
            tracer.uninstall(restore)
        _, rows = check_round(ops, outs, tally)
        evals[name] = sum(row[4] for row in rows)
    gap = witness(tally)
    tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")

    spans = tracer.totals()

    def total(name):
        return spans[name]["total_s"] if name in spans else 0.0

    def self_s(name):
        return spans[name]["self_s"] if name in spans else 0.0

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    m = {}
    frontier_s = 0.0
    for scheme in SCHEMES:
        t = total(f"optimize.frontier.{scheme}")
        m[f"optimize.frontier.{scheme}_s"] = (t, "s")
        frontier_s += t
    m["optimize.frontier.evaluations"] = (evals["frontier"], "count")
    m["optimize.frontier.evals_per_s"] = (evals["frontier"] / frontier_s, "1/s")
    m["optimize.optimize_scheme_s"] = (total("optimize.optimize_scheme"), "s")
    m["optimize.scan.evals_per_s"] = (evals["scan"] / total("optimize.optimize_scheme"), "1/s")
    m["optimize.outer_witness_gap_bits"] = (gap, "bits")
    g_calls, g_self = 0, 0.0
    for fn in LAYER_FUNCTIONS["gaussian"]:
        name = f"gaussian.{fn}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
        g_calls += calls(name)
        g_self += self_s(name)
    m["gaussian.evals_per_s"] = (g_calls / g_self, "1/s")
    for name in ("core.polygon_from_constraints", "optimize.region_contains",
                 "optimize.weighted_best_vertex"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    for fn in LAYER_FUNCTIONS["dmc"]:
        m[f"dmc.{fn}.self_s"] = (self_s(f"dmc.{fn}"), "s")
    m["muser.constraints.self_s"] = (self_s("muser.muser_achievable_constraints")
                                     + self_s("muser.muser_outer_constraints"), "s")
    m["verify.joint_dominates_separate_s"] = (total("verify.verify_joint_dominates_separate"),
                                              "s")
    for cmd in workloads.CLI_SCENARIOS:
        m[f"cli.{cmd}_s"] = (total(f"cli.{cmd}"), "s")
    m["trace.overhead_s"] = (walls[workload] - untraced_wall, "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hdmac benchmark")
    parser.add_argument("--workload", required=True, choices=("frontier", "scan", "regions"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hdmac" / "__init__.py").is_file() or not _scenario_paths():
        print(f"error: no hdmac sources under {SRC} or no scenarios under {SCENARIO_DIR}; "
              "run from the root of an hdmac checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import hdmac
    if Path(hdmac.__file__).resolve().parent != SRC / "hdmac":
        print(f"error: imported hdmac from {hdmac.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args.seed, args.workload), sort_keys=True))
    scenarios, parse_s = parse_scenarios()
    import scipy.optimize  # noqa: F401  (the optimizer defers this import; keep it untimed)

    tally = Tally()
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    cli_out = OUT_DIR / f"cli-{os.getpid()}"
    try:
        if args.trace:
            metrics = per_layer(args.workload, args.seed, scenarios, cli_out, tally, run_id)
            metrics["scenario.parse_s"] = (parse_s, "s")
            metrics["check_s"] = (tally.check_s, "s")
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, scenarios,
                                 cli_out, tally)
            metrics["setup_s"] = (measure_setup(), "s")
    finally:
        shutil.rmtree(cli_out, ignore_errors=True)

    print(f"error_rate {tally.failed / tally.attempted!r} (failed {tally.failed} "
          f"of {tally.attempted} operations)")
    print(f"check_s {tally.check_s!r} s (not part of wall_s)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
