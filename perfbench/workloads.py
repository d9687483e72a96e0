"""The benchmark's three workloads: seeded inputs, timed calls and checks.

Each workload is a fixed list of operations built from the seed before any
timing starts.  An operation is one call into a public hdmac function with
precomputed arguments, plus a check that judges its result afterwards, so
that check time never lands in the timed phase.

- frontier: cold ``optimize.frontier`` calls at the default SearchConfig.
  Nearly all of this time is local refinement and the Nelder-Mead polish,
  the mechanism a certified concave solver would replace.
- scan: single ``optimize_scheme`` calls on a fine grid with no refinement,
  so the phase-1 cap table (71k-88k closed-form evaluations per call)
  dominates.  This is where a vectorized formula kernel can show a gain.
- regions: fixed-allocation queries with no optimizer: every closed-form
  region one scalar at a time, polygon and containment queries, the discrete
  regions, m-user constraints, one verify claim and three CLI commands.  A
  kernel that helps batches but slows the scalar wrappers shows here; an
  optimizer change should leave it unchanged.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from hdmac import cli, dmc
from hdmac.core import (
    ChannelGains,
    PowerBudget,
    TimeSlots,
    polygon_from_constraints,
    power_feasible,
)
from hdmac.gaussian import (
    NoiseCorrelation,
    baseline_region,
    degraded_outer_region,
    df_region,
    gaussian_outer_region,
    pdf_joint_region,
    pdf_partial_user_region,
    pdf_separate_region,
)
from hdmac.muser import (
    MUserAllocation,
    MUserGains,
    muser_achievable_constraints,
    muser_outer_constraints,
)
from hdmac.optimize import (
    SearchConfig,
    frontier,
    optimize_scheme,
    region_contains,
    sample_allocation,
    scheme_region,
    weighted_best_vertex,
)
from hdmac.verify import verify_joint_dominates_separate

WORKLOADS = ("frontier", "scan", "regions")

# The channel panel.  symmetric_k2 is the shipped scenario; asym_witness is
# the channel on which OUTER at theta = 0.30 falls short of a known feasible
# point; skewed has unequal links and budgets; dead_coop has k12 < k10, so
# user 1's cooperation is useless.
PANEL: Dict[str, Tuple[ChannelGains, PowerBudget]] = {
    "symmetric_k2": (ChannelGains(2.0, 2.0, 1.0, 1.0, 1.0), PowerBudget(2.0, 2.0)),
    "asym_witness": (ChannelGains(0.5, 0.5, 1.0, 1.0, 1.0), PowerBudget(2.0, 3.0)),
    "skewed": (ChannelGains(3.0, 1.5, 1.0, 0.5, 1.0), PowerBudget(1.0, 4.0)),
    "dead_coop": (ChannelGains(0.5, 2.0, 1.0, 1.0, 1.0), PowerBudget(2.0, 2.0)),
}

# Channel x scheme pairs, thinned from the full cross product (about 50 s
# per 3-direction round) while keeping every channel and every scheme.
# Most pairs cost 1-2 s, so the median operation is a typical frontier call;
# DEGRADED appears only where k12 > k10 and k21 > k20.
FRONTIER_PAIRS = (
    ("symmetric_k2", "PDF_JOINT"), ("symmetric_k2", "DEGRADED"), ("symmetric_k2", "OUTER"),
    ("asym_witness", "PDF_JOINT"), ("asym_witness", "PDF_SEPARATE"),
    ("asym_witness", "PDF_PARTIAL"), ("asym_witness", "OUTER"),
    ("skewed", "DF"), ("skewed", "DEGRADED"), ("skewed", "OUTER"),
    ("dead_coop", "PDF_PARTIAL"), ("dead_coop", "DF"), ("dead_coop", "OUTER"),
)
FRONTIER_WEIGHTS = 3
# one PDF-family and one DF-family scheme per channel
SCAN_PAIRS = (
    ("symmetric_k2", "PDF_JOINT"), ("symmetric_k2", "DEGRADED"),
    ("asym_witness", "PDF_SEPARATE"), ("asym_witness", "OUTER"),
    ("skewed", "PDF_PARTIAL"), ("skewed", "DF"),
    ("dead_coop", "PDF_JOINT"), ("dead_coop", "OUTER"),
)
# each scan pair is solved once near each of these angles, jittered by the seed
SCAN_ANGLES = (math.pi / 8, 3 * math.pi / 8)
SCAN_JITTER = math.pi / 32

REGION_DRAWS = 60        # allocations per channel and scheme family
DMC_INSTANCES = 24
MUSER_SIZES = (2, 3, 4, 5, 6)

VALUE_TOL = 1e-9         # re-evaluated objective vs the reported one
CONTAIN_TOL = 1e-9
EXACT_TOL = 1e-12

# Optimizer shortfall witness: OUTER on asym_witness at theta = 0.30 with the
# default SearchConfig.  A feasible point with value WITNESS_VALUE is known,
# so the search's result should reach it.
WITNESS_CHANNEL = "asym_witness"
WITNESS_THETA = 0.30
WITNESS_VALUE = 0.919068754

# shipped scenario for each CLI command the regions workload runs
CLI_SCENARIOS = {"region": "symmetric_k2.yaml", "dmc": "dmc_binary.yaml",
                 "muser": "three_user.yaml"}


@dataclass
class Check:
    """What a check found about one operation's result."""

    ok: bool = True
    value: float = 0.0      # contribution to objective_total
    rows: Tuple = ()        # (channel, scheme, theta, value, evaluations)


@dataclass
class Op:
    """One timed call: ``fn(*args)`` inside a span named ``span``."""

    span: str
    fn: Callable
    args: Tuple
    check: Callable[[object], Check]


def degraded_rho(g: ChannelGains) -> Optional[NoiseCorrelation]:
    """rho = (K10/K12, K20/K21), defined where both inter-user links are stronger."""
    if g.k12 > g.k10 and g.k21 > g.k20:
        return NoiseCorrelation(g.k10 / g.k12, g.k20 / g.k21)
    return None


def _family(scheme: str) -> str:
    return "PDF" if scheme.startswith("PDF") else "DF"


def recheck_result(channel: str, r, rho) -> Check:
    """Re-evaluate an OptResult through the closed-form region: the value must
    match within VALUE_TOL and the allocation must meet the power budget."""
    g, budget = PANEL[channel]
    region = scheme_region(r.scheme, g, r.slots, r.allocation, rho=rho)
    _, best = weighted_best_vertex(polygon_from_constraints(region), r.mu)
    feasible = power_feasible(_family(r.scheme), r.slots, r.allocation, budget)[2]
    ok = feasible and abs(best - r.value) <= VALUE_TOL
    theta = math.atan2(r.mu[1], r.mu[0])
    return Check(ok, r.value, ((channel, r.scheme, theta, r.value, r.evaluations),))


# ---------------------------------------------------------------------------
# frontier and scan
# ---------------------------------------------------------------------------

def frontier_ops(seed: int) -> List[Op]:
    cfg = SearchConfig(seed=seed)
    ops = []
    for channel, scheme in FRONTIER_PAIRS:
        g, budget = PANEL[channel]
        rho = degraded_rho(g) if scheme == "DEGRADED" else None

        def check(fr, channel=channel, rho=rho) -> Check:
            parts = [recheck_result(channel, r, rho) for r in fr.points]
            return Check(all(c.ok for c in parts), sum(c.value for c in parts),
                         tuple(row for c in parts for row in c.rows))

        ops.append(Op(f"optimize.frontier.{scheme}", frontier,
                      (g, budget, scheme, FRONTIER_WEIGHTS, cfg, rho), check))
    return ops


def scan_ops(seed: int) -> List[Op]:
    cfg = SearchConfig(slot_grid=21, power_grid=15, refine_iters=0, seed=seed)
    rng = random.Random(seed)
    ops = []
    for channel, scheme in SCAN_PAIRS:
        g, budget = PANEL[channel]
        rho = degraded_rho(g) if scheme == "DEGRADED" else None
        for angle in SCAN_ANGLES:
            theta = angle + rng.uniform(-SCAN_JITTER, SCAN_JITTER)
            mu = (math.cos(theta), math.sin(theta))
            ops.append(Op("optimize.optimize_scheme", optimize_scheme,
                          (g, budget, scheme, mu, cfg, rho),
                          lambda r, channel=channel, rho=rho: recheck_result(channel, r, rho)))
    return ops


def outer_witness_gap() -> Tuple[float, Check]:
    """Solve the shortfall witness; returns (known value - solved value, check)."""
    g, budget = PANEL[WITNESS_CHANNEL]
    mu = (math.cos(WITNESS_THETA), math.sin(WITNESS_THETA))
    r = optimize_scheme(g, budget, "OUTER", mu, SearchConfig())
    return WITNESS_VALUE - r.value, recheck_result(WITNESS_CHANNEL, r, None)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def _ok(_out) -> Check:
    return Check()


def _contained(out) -> Check:
    return Check(ok=bool(out[0]))


def _best_vertex_check(poly, mu):
    def check(out) -> Check:
        vertex, value = out
        top = max(mu[0] * x + mu[1] * y for x, y in poly.vertices)
        return Check(ok=vertex in poly.vertices and value >= top - EXACT_TOL, value=value)
    return check


def _degraded_check(g, slots, alloc):
    """DEGRADED at rho = (K10/K12, K20/K21) equals DF bound by bound."""
    def check(out) -> Check:
        rd = df_region(g, slots, alloc)
        diff = max(abs(out.min_r1 - rd.min_r1), abs(out.min_r2 - rd.min_r2),
                   abs(out.sum_bounds[0] - rd.sum_bounds[0]),
                   abs(out.sum_bounds[1] - rd.sum_bounds[3]),
                   abs(out.min_sum - rd.min_sum))
        return Check(ok=diff <= EXACT_TOL)
    return check


def _direction(rng: random.Random) -> Tuple[float, float]:
    theta = rng.uniform(0.0, math.pi / 2)
    return (math.cos(theta), math.sin(theta))


def _gaussian_ops(rng: random.Random) -> List[Op]:
    ops = []
    for channel, (g, budget) in PANEL.items():
        rho = degraded_rho(g)
        # partial user decoding sits inside full decoding only when both
        # inter-user links are stronger, and the check uses interior draws
        partial_check = g.k12 > g.k10 and g.k21 > g.k20
        for i in range(REGION_DRAWS):
            interior = i % 2 == 1
            slots, a = sample_allocation("PDF_JOINT", g, budget, rng, interior=interior)
            mu = _direction(rng)
            rj = pdf_joint_region(g, slots, a)
            pj = polygon_from_constraints(rj)
            ps = polygon_from_constraints(pdf_separate_region(g, slots, a))
            ops += [
                Op("gaussian.pdf_joint_region", pdf_joint_region, (g, slots, a), _ok),
                Op("gaussian.pdf_separate_region", pdf_separate_region, (g, slots, a), _ok),
                Op("gaussian.pdf_partial_user_region", pdf_partial_user_region,
                   (g, slots, a), _ok),
                Op("core.polygon_from_constraints", polygon_from_constraints, (rj,), _ok),
                Op("optimize.region_contains", region_contains, (pj, ps, CONTAIN_TOL),
                   _contained),
                Op("optimize.weighted_best_vertex", weighted_best_vertex, (pj, mu),
                   _best_vertex_check(pj, mu)),
            ]
            if interior and partial_check:
                pp = polygon_from_constraints(pdf_partial_user_region(g, slots, a))
                ops.append(Op("optimize.region_contains", region_contains,
                              (pj, pp, CONTAIN_TOL), _contained))

            slots, a = sample_allocation("DF", g, budget, rng)
            mu = _direction(rng)
            rd = df_region(g, slots, a)
            pd = polygon_from_constraints(rd)
            po = polygon_from_constraints(gaussian_outer_region(g, slots, a))
            ops += [
                Op("gaussian.df_region", df_region, (g, slots, a), _ok),
                Op("gaussian.gaussian_outer_region", gaussian_outer_region, (g, slots, a), _ok),
                Op("core.polygon_from_constraints", polygon_from_constraints, (rd,), _ok),
                Op("optimize.region_contains", region_contains, (po, pd, CONTAIN_TOL),
                   _contained),
                Op("optimize.weighted_best_vertex", weighted_best_vertex, (pd, mu),
                   _best_vertex_check(pd, mu)),
            ]
            if rho is not None:
                ops.append(Op("gaussian.degraded_outer_region", degraded_outer_region,
                              (g, slots, a, rho), _degraded_check(g, slots, a)))
        for kind in ("MAC", "TDMA"):
            ops.append(Op("gaussian.baseline_region", baseline_region, (kind, g, budget), _ok))
    return ops


def _dirichlet(rng: np.random.Generator, shape, cond_axes: int) -> np.ndarray:
    """A table whose slices over the trailing axes are pmfs."""
    lead = int(np.prod(shape[:cond_axes], dtype=int))
    tail = int(np.prod(shape[cond_axes:], dtype=int))
    return rng.dirichlet(np.ones(tail), size=lead).reshape(shape)


def _random_slots(rng: np.random.Generator) -> TimeSlots:
    u, v = sorted(rng.uniform(0.05, 0.95, size=2))
    return TimeSlots.from_first_two(float(u), float(v - u))


def _dmc_ops(rng: np.random.Generator) -> List[Op]:
    ops = []
    for _ in range(DMC_INSTANCES):
        n = {k: int(v) for k, v in zip(
            ("x1", "y1", "y12", "x2", "y2", "y21", "x13", "x23", "y3", "u", "v", "s"),
            rng.integers(2, 5, size=12))}
        ch = dmc.SlotChannels(_dirichlet(rng, (n["x1"], n["y1"], n["y12"]), 1),
                              _dirichlet(rng, (n["x2"], n["y2"], n["y21"]), 1),
                              _dirichlet(rng, (n["x13"], n["x23"], n["y3"]), 2))
        pdf = dmc.PdfInputDistribution(_dirichlet(rng, (n["x1"], n["u"]), 0),
                                       _dirichlet(rng, (n["x2"], n["v"]), 0),
                                       _dirichlet(rng, (n["u"], n["v"], n["x13"]), 2),
                                       _dirichlet(rng, (n["u"], n["v"], n["x23"]), 2))
        df = dmc.DfInputDistribution(_dirichlet(rng, (n["x1"],), 0),
                                     _dirichlet(rng, (n["x2"],), 0),
                                     _dirichlet(rng, (n["s"],), 0),
                                     _dirichlet(rng, (n["s"], n["x13"]), 1),
                                     _dirichlet(rng, (n["s"], n["x23"]), 1))
        outer = dmc.extend_pdf_to_outer(pdf)
        slots = _random_slots(rng)
        joint = dmc.pdf_joint_region(ch, pdf, slots)
        outer_pdf = dmc.outer_region("pdf", ch, outer, slots)

        def separate_check(out, joint=joint) -> Check:
            same = all(abs(out_b - j_b) <= EXACT_TOL for out_b, j_b in (
                (out.min_r1, joint.min_r1), (out.min_r2, joint.min_r2),
                (out.sum_bounds[0], joint.sum_bounds[0])))
            below = all(s <= j + EXACT_TOL for s, j in zip(out.sum_bounds, joint.sum_bounds))
            return Check(ok=same and below)

        def outer_check(out, joint=joint) -> Check:
            caps_j = joint.r1_bounds + joint.r2_bounds + joint.sum_bounds
            caps_o = out.r1_bounds + out.r2_bounds + out.sum_bounds
            return Check(ok=all(j <= o + EXACT_TOL for j, o in zip(caps_j, caps_o)))

        def outer_df_check(out, full=outer_pdf) -> Check:
            return Check(ok=abs(out.sum_bounds[0] - full.sum_bounds[0]) <= EXACT_TOL
                         and abs(out.sum_bounds[1] - full.sum_bounds[3]) <= EXACT_TOL)

        shape = tuple(int(v) for v in rng.integers(2, 5, size=3))
        table = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
        cap = math.log2(min(shape[0], shape[1]))

        ops += [
            Op("dmc.pdf_joint_region", dmc.pdf_joint_region, (ch, pdf, slots), _ok),
            Op("dmc.pdf_separate_region", dmc.pdf_separate_region, (ch, pdf, slots),
               separate_check),
            Op("dmc.df_region", dmc.df_region, (ch, df, slots), _ok),
            Op("dmc.outer_region", dmc.outer_region, ("pdf", ch, outer, slots), outer_check),
            Op("dmc.outer_region", dmc.outer_region, ("df", ch, outer, slots), outer_df_check),
            Op("dmc.mutual_information", dmc.mutual_information, (table, (0,), (1,), (2,)),
               lambda out, cap=cap: Check(ok=-EXACT_TOL <= out <= cap + EXACT_TOL)),
        ]
    return ops


def _muser_instance(rng: np.random.Generator, m: int):
    k_user = rng.uniform(0.5, 3.0, size=(m, m))
    np.fill_diagonal(k_user, 0.0)
    budgets = rng.uniform(1.0, 4.0, size=m)
    slots = rng.dirichlet(np.ones(m + 1))
    slots[-1] = 1.0 - slots[:-1].sum()
    solo = rng.uniform(0.1, 0.9, size=m)      # share of energy in the user's own slot
    priv = rng.uniform(0.1, 0.9, size=m)      # private share of the last-slot energy
    last = budgets * (1.0 - solo) / slots[-1]
    gains = MUserGains(m, tuple(map(tuple, k_user)), tuple(rng.uniform(0.5, 1.5, size=m)), 1.0)
    alloc = MUserAllocation(tuple(slots), tuple(budgets * solo / slots[:-1]),
                            tuple(last * priv), tuple(last * (1.0 - priv)))
    return gains, alloc, tuple(budgets)


def _muser_ops(rng: np.random.Generator) -> List[Op]:
    ops = []
    for m in MUSER_SIZES:
        g, a, b = _muser_instance(rng, m)
        ach = muser_achievable_constraints(g, a, b)

        def outer_check(out, ach=ach, m=m) -> Check:
            # the joint-observation terms never fall below the weakest-listener ones
            return Check(ok=len(out) == 2 ** (m + 1) - 1
                         and all(o[1] >= c[1] - EXACT_TOL for o, c in zip(out, ach)))

        ops += [Op("muser.muser_achievable_constraints", muser_achievable_constraints,
                   (g, a, b), lambda out, m=m: Check(ok=len(out) == 2 ** (m + 1) - 1)),
                Op("muser.muser_outer_constraints", muser_outer_constraints, (g, a, b),
                   outer_check)]
    return ops


def regions_ops(seed: int, scenarios: Dict[str, object], cli_out: Path) -> List[Op]:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    ops = _gaussian_ops(rng) + _dmc_ops(nrng) + _muser_ops(nrng)
    for i, (g, budget) in enumerate(PANEL.values()):
        ops.append(Op("verify.verify_joint_dominates_separate", verify_joint_dominates_separate,
                      (g, budget, 20, seed + i), lambda out: Check(ok=out.passed)))
    for cmd, name in CLI_SCENARIOS.items():
        ops.append(Op(f"cli.{cmd}", cli.run_command, (cmd, scenarios[name], cli_out),
                      lambda out: Check(ok=out == 0)))
    return ops


def build(workload: str, seed: int, scenarios: Dict[str, object], cli_out: Path) -> List[Op]:
    """The operation list of one workload for one seed."""
    if workload == "frontier":
        return frontier_ops(seed)
    if workload == "scan":
        return scan_ops(seed)
    if workload == "regions":
        return regions_ops(seed, scenarios, cli_out)
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")

