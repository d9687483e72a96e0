"""Fast smoke test of the benchmark (about 15 s).

    python3 -m pytest perfbench/test_smoke.py -q

It lives outside ``tests/`` so the library's own suite never collects it.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hdmac.gaussian  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hdmac.optimize import SCHEMES  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_panel_covers_every_channel_and_scheme():
    for pairs in (workloads.FRONTIER_PAIRS, workloads.SCAN_PAIRS):
        assert {c for c, _ in pairs} == set(workloads.PANEL)
        assert {s for _, s in pairs} == set(SCHEMES)
        for channel, scheme in pairs:
            if scheme == "DEGRADED":
                assert workloads.degraded_rho(workloads.PANEL[channel][0]) is not None


def test_regions_run_prints_every_end_to_end_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(ROOT, "--workload", "regions", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "regions", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_frontier_and_scan_results_pass_their_checks():
    ops = [op for op in workloads.frontier_ops(0) if op.args[2] == "PDF_SEPARATE"]
    ops += workloads.scan_ops(0)[:2]
    for op in ops:
        check = op.check(op.fn(*op.args))
        assert check.ok and check.value > 0 and check.rows


def test_regions_round_passes_checks_and_traces_layers(tmp_path):
    scenarios = {name: hdmac.scenario.parse_scenario((ROOT / "scenarios" / name).read_text())
                 for name in workloads.CLI_SCENARIOS.values()}
    ops = workloads.regions_ops(5, scenarios, tmp_path)
    tracer = tracing.Tracer("smoke")
    original = hdmac.gaussian.pdf_joint_region
    restore = tracer.install()
    try:
        outs = [tracer.call(op.span, op.fn, *op.args) for op in ops]
    finally:
        tracer.uninstall(restore)
    assert hdmac.verify.pdf_joint_region is original
    assert all(op.check(out).ok for op, out in zip(ops, outs))
    totals = tracer.totals()
    # verify and cli reach gaussian through the wrapped cross-module bindings
    nested = [s for s in tracer.spans if s[0].startswith("gaussian.") and s[3] >= 0]
    assert nested
    for rec in totals.values():
        assert rec["self_s"] <= rec["total_s"] + 1e-12
    for cmd in workloads.CLI_SCENARIOS:
        assert totals[f"cli.{cmd}"]["calls"] == 1


def test_outer_witness_gap_is_reported():
    gap, check = workloads.outer_witness_gap()
    assert check.ok
    assert math.isclose(gap + check.value, workloads.WITNESS_VALUE)
