"""Command-line surface: scenario in, CSV and plot data out.

Commands: region, frontier, sweep, muser, dmc, verify.  All outputs are
deterministic for a fixed scenario and seed (no timestamps, stable ordering,
12 significant digits).  Rates are bits per channel use (base-2 logs).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import dmc as dmc_mod
from .core import DfAllocation, PdfAllocation, ValidationError, polygon_from_constraints
from .muser import muser_achievable_constraints, muser_condition_check, muser_outer_constraints
from .optimize import FrontierResult, frontier, region_contains, scheme_region
from .scenario import Scenario, ScenarioError, parse_scenario, scenario_hash
from .verify import verify_claims

COMMANDS = ("region", "frontier", "sweep", "muser", "dmc", "verify")
DEFAULT_WEIGHTS = 17

_PDF_FIELDS = tuple(f.name for f in dataclasses.fields(PdfAllocation))
_DF_FIELDS = tuple(f.name for f in dataclasses.fields(DfAllocation))


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return format(v, ".12g")
    return str(v)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def export_plot_data(frontiers: Dict[str, Sequence[Tuple[float, float]]],
                     scenario_digest: str, seed: int) -> str:
    """Whitespace-delimited blocks (one per named series) for plotting tools.

    Rates are in bits; points keep their weight-sweep order.
    """
    if not frontiers:
        raise ValidationError("export_plot_data: no series given")
    blocks = []
    for name, points in frontiers.items():
        lines = [f"# series: {name}", f"# scenario: {scenario_digest}", f"# seed: {seed}",
                 "# r1_bits r2_bits"]
        for r1, r2 in points:
            lines.append(f"{_fmt(float(r1))} {_fmt(float(r2))}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioError(msg)


def _fixed_schemes(sc: Scenario) -> List[Tuple[str, object]]:
    out: List[Tuple[str, object]] = []
    if sc.pdf_allocation is not None:
        out += [("pdf_joint", sc.pdf_allocation), ("pdf_separate", sc.pdf_allocation),
                ("pdf_partial", sc.pdf_allocation)]
    if sc.df_allocation is not None:
        out += [("df", sc.df_allocation), ("outer", sc.df_allocation)]
        if sc.rho is not None:
            out.append(("degraded", sc.df_allocation))
    return out


def _cmd_region(sc: Scenario, out: Path, weights: int) -> int:
    _require(sc.slots is not None, "region command needs a 'slots' section")
    pairs = _fixed_schemes(sc)
    _require(bool(pairs), "region command needs a 'pdf_allocation' or 'df_allocation' section")
    for name, alloc in pairs:
        region = scheme_region(name.upper(), sc.gains, sc.slots, alloc, rho=sc.rho)
        rows = []
        for fam, vals in (("r1", region.r1_bounds), ("r2", region.r2_bounds),
                          ("sum", region.sum_bounds)):
            for i, v in enumerate(vals):
                rows.append((fam, i, v))
        _write_csv(out / f"bounds_{name}.csv", ("family", "index", "bits"), rows)
        poly = polygon_from_constraints(region)
        _write_csv(out / f"polygon_{name}.csv", ("index", "r1", "r2"),
                   [(i, x, y) for i, (x, y) in enumerate(poly.vertices)])
    return 0


def _frontier_rows(fr: FrontierResult, fields) -> List[Sequence]:
    rows = []
    for i, r in enumerate(fr.points):
        alloc_vals = [getattr(r.allocation, f) for f in fields]
        rows.append([i, r.mu[0], r.mu[1], r.vertex[0], r.vertex[1],
                     r.slots.a1, r.slots.a2, r.slots.a3, *alloc_vals,
                     r.value, r.evaluations])
    return rows


def _frontier_header(fields) -> List[str]:
    return ["theta_index", "mu1", "mu2", "r1", "r2", "a1", "a2", "a3",
            *fields, "objective", "evaluations"]


def _cmd_frontier(sc: Scenario, out: Path, weights: int) -> int:
    digest = scenario_hash(sc)
    series: Dict[str, List[Tuple[float, float]]] = {}
    for scheme in ("PDF_JOINT", "PDF_SEPARATE", "DF", "OUTER"):
        fr = frontier(sc.gains, sc.budget, scheme, weights, sc.search)
        fields = _PDF_FIELDS if scheme.startswith("PDF") else _DF_FIELDS
        name = scheme.lower()
        _write_csv(out / f"frontier_{name}.csv", _frontier_header(fields),
                   _frontier_rows(fr, fields))
        series[name] = [r.vertex for r in fr.points]
    (out / "frontier.dat").write_text(export_plot_data(series, digest, sc.search.seed),
                                      encoding="utf-8")
    return 0


def _cmd_sweep(sc: Scenario, out: Path, weights: int) -> int:
    _require(sc.sweep is not None, "sweep command needs a 'sweep' section")
    hulls = []
    for k in sc.sweep:
        gains = dataclasses.replace(sc.gains, k12=k, k21=k)
        fr = frontier(gains, sc.budget, "DF", weights, sc.search)
        label = _fmt(k)
        _write_csv(out / f"frontier_df_k{label}.csv", _frontier_header(_DF_FIELDS),
                   _frontier_rows(fr, _DF_FIELDS))
        hulls.append((k, fr.hull))
    rows = []
    for (k_lo, h_lo), (k_hi, h_hi) in zip(hulls, hulls[1:]):
        ok, slack = region_contains(h_hi, h_lo, 1e-6)
        rows.append((f"df_k{_fmt(k_lo)}", f"df_k{_fmt(k_hi)}", ok, slack))
    from .gaussian import baseline_region
    mac = baseline_region("MAC", sc.gains, sc.budget)
    for k, hull in hulls:
        ok, slack = region_contains(hull, mac, 1e-6)
        rows.append(("mac", f"df_k{_fmt(k)}", ok, slack))
    _write_csv(out / "sweep_report.csv", ("inner", "outer", "contained", "worst_slack"), rows)
    return 0


def _cmd_muser(sc: Scenario, out: Path, weights: int) -> int:
    _require(sc.m_user is not None, "muser command needs an 'm_user' section")
    mu = sc.m_user
    rows = []
    for side, constraints in (("achievable",
                               muser_achievable_constraints(mu.gains, mu.allocation, mu.budgets)),
                              ("outer",
                               muser_outer_constraints(mu.gains, mu.allocation, mu.budgets))):
        for (kind, subset), bound in constraints:
            rows.append((side, kind, "+".join(str(u) for u in subset) or "-", bound))
    _write_csv(out / "muser_constraints.csv", ("side", "kind", "users", "bits"), rows)
    ok, failing = muser_condition_check(mu.gains, mu.allocation)
    rows = [("all", ok, "")]
    for k, j in failing:
        rows.append((f"{k}->{j}", False, "inter-user link below direct link"))
    _write_csv(out / "muser_condition.csv", ("pair", "ok", "note"), rows)
    return 0


def _cmd_dmc(sc: Scenario, out: Path, weights: int) -> int:
    _require(sc.dmc is not None, "dmc command needs a 'dmc' section")
    _require(sc.slots is not None, "dmc command needs a 'slots' section")
    section = sc.dmc
    rows = []

    def emit(region_name: str, region) -> None:
        for fam, vals in (("r1", region.r1_bounds), ("r2", region.r2_bounds),
                          ("sum", region.sum_bounds)):
            for i, v in enumerate(vals):
                rows.append((region_name, fam, i, v))

    evaluated = False
    if section.pdf_input is not None:
        emit("pdf_joint", dmc_mod.pdf_joint_region(section.channels, section.pdf_input, sc.slots))
        emit("pdf_separate",
             dmc_mod.pdf_separate_region(section.channels, section.pdf_input, sc.slots))
        evaluated = True
    if section.df_input is not None:
        emit("df", dmc_mod.df_region(section.channels, section.df_input, sc.slots))
        evaluated = True
    if section.outer_input is not None:
        emit("outer_pdf", dmc_mod.outer_region("pdf", section.channels,
                                               section.outer_input, sc.slots))
        emit("outer_df", dmc_mod.outer_region("df", section.channels,
                                              section.outer_input, sc.slots))
        evaluated = True
    _require(evaluated, "dmc command needs at least one input distribution")
    _write_csv(out / "dmc_regions.csv", ("region", "family", "index", "bits"), rows)
    return 0


def _cmd_verify(sc: Scenario, out: Path, weights: int) -> int:
    rows = []
    failed = 0
    for v in verify_claims(sc.gains, sc.budget, weights, sc.search.seed):
        witness_path = ""
        if v.witness is not None:
            witness_path = f"witness_{v.claim}.json"
            payload = {"claim": v.claim, "passed": v.passed, "worst_slack": v.worst_slack,
                       "tolerance": v.tolerance, "applicable": v.applicable,
                       "witness": v.witness, "details": v.details}
            (out / witness_path).write_text(
                json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        status = "pass" if v.passed else "FAIL"
        if not v.applicable:
            status = "n/a"
        rows.append((v.claim, status, v.worst_slack, witness_path))
        if v.applicable and not v.passed:
            failed += 1
    _write_csv(out / "verdicts.csv", ("claim", "status", "worst_slack", "witness"), rows)
    for claim, status, slack, _ in rows:
        print(f"{claim}: {status} (worst_slack={_fmt(slack)})")
    return 1 if failed else 0


_HANDLERS = {
    "region": _cmd_region,
    "frontier": _cmd_frontier,
    "sweep": _cmd_sweep,
    "muser": _cmd_muser,
    "dmc": _cmd_dmc,
    "verify": _cmd_verify,
}


def run_command(cmd: str, sc: Scenario, out_dir=".", weights: int = DEFAULT_WEIGHTS) -> int:
    """Dispatch one command; returns the process exit status."""
    if cmd not in COMMANDS:
        raise ValidationError(f"unknown command {cmd!r}, expected one of {COMMANDS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _HANDLERS[cmd](sc, out, weights)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hdmac",
        description="Rate regions and outer bounds for the half-duplex cooperative MAC")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--scenario", required=True, help="scenario YAML file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--weights", type=int, default=DEFAULT_WEIGHTS,
                       help="weight directions for frontier-style commands")
    args = parser.parse_args(argv)

    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    try:
        sc = parse_scenario(text)
        if args.seed is not None:
            sc = dataclasses.replace(sc, search=dataclasses.replace(sc.search, seed=args.seed))
        return run_command(args.command, sc, args.out, args.weights)
    except (ScenarioError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
