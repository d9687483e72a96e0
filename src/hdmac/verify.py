"""Executable verdicts for the structural claims about the Gaussian regions.

Each verify_* operation checks one claim on a concrete scenario and returns
a Verdict with a quantified worst slack and a replayable witness.  Claims
about optimized regions check frontiers they are given, of the schemes
they name and over the same weight directions; ``verify_claims`` traces
each scheme's frontier once and checks every claim on them.  Hulls traced
from finitely many directions are inner approximations, so claims that
compare two regions' hulls also evaluate each region at the other scheme's
optima.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from typing import List, Optional

from .core import (
    ChannelGains,
    DfAllocation,
    PdfAllocation,
    PowerBudget,
    RatePolygon,
    TimeSlots,
    ValidationError,
    _check,
    polygon_from_constraints,
    power_used,
)
from .gaussian import (
    NoiseCorrelation,
    degraded_outer_region,
    df_region,
    gaussian_outer_region,
    pdf_joint_region,
    pdf_partial_user_region,
    pdf_separate_region,
)
from .optimize import (
    FrontierResult,
    SearchConfig,
    frontier,
    optimize_scheme,
    point_slack,
    region_contains,
    sample_allocation,
    swap_allocation,
    upper_hull,
    weighted_best_vertex,
)

FRONTIER_TOL = 1e-3      # bits per weight direction
CONTAIN_TOL = 1e-9
HULL_TOL = 1e-6
EXACT_TOL = 1e-12
STRICT_GAP = 1e-6
SAMPLES = 100            # random allocations per sampled claim
# frontier and optimize_scheme still take a SearchConfig that has no effect;
# this goes once perfbench stops passing one
_CFG = SearchConfig()


@dataclass(frozen=True)
class Verdict:
    """Outcome of one claim check.

    worst_slack is the claim's primary margin (negative means violation by
    that much); pass requires worst_slack >= -tolerance plus any secondary
    conditions recorded in details.  Inapplicable claims pass vacuously with
    applicable=False.
    """

    claim: str
    passed: bool
    worst_slack: float
    tolerance: float
    witness: Optional[dict]
    applicable: bool = True
    details: Optional[dict] = None


def _slots_dict(slots: TimeSlots) -> dict:
    return {"a1": slots.a1, "a2": slots.a2, "a3": slots.a3}


def _slots_from(d: dict) -> TimeSlots:
    return TimeSlots(d["a1"], d["a2"], d["a3"])


def pdf_to_df_allocation(a: PdfAllocation) -> DfAllocation:
    """Forward substitution between the two schemes' power accounts:
    P12 = P10 + PU, P21 = P20 + PV, PS1 = c2 PU + c3 PV, PS2 = d3 PU + d2 PV.
    Preserves both users' spent power identically."""
    return DfAllocation(p12=a.p10 + a.pu, p21=a.p20 + a.pv, p13=a.p13, p23=a.p23,
                        ps1=a.c2 * a.pu + a.c3 * a.pv, ps2=a.d3 * a.pu + a.d2 * a.pv)


def df_to_pdf_allocation(a: DfAllocation, empty: str) -> PdfAllocation:
    """Reverse embedding with one public symbol dropped.

    empty="v": user 2 sends no public part; the shared symbol's power rides
    entirely on U.  empty="u" is the mirror case, built with the users
    swapped.  Coherent power with no carrier left becomes private slot-3
    power.
    """
    if empty == "u":
        return swap_allocation(df_to_pdf_allocation(swap_allocation(a), "v"))
    _check(empty == "v", f"empty must be 'u' or 'v', got {empty!r}")
    pu = a.p12
    if pu > 0.0:
        return PdfAllocation(p10=0.0, p20=a.p21, pu=pu, pv=0.0, p13=a.p13, p23=a.p23,
                             c2=a.ps1 / pu, c3=0.0, d2=0.0, d3=a.ps2 / pu)
    return PdfAllocation(p10=0.0, p20=a.p21, pu=0.0, pv=0.0,
                         p13=a.p13 + a.ps1, p23=a.p23 + a.ps2,
                         c2=0.0, c3=0.0, d2=0.0, d3=0.0)


def _cross(region, points) -> list:
    """Best vertex of region(slots, allocation) at each optimum's direction."""
    return [weighted_best_vertex(polygon_from_constraints(region(r.slots, r.allocation)),
                                 r.mu)[0] for r in points]


def _containment_slack(outer, inner) -> float:
    """Slack of inner's polygon inside outer's (negative: it sticks out)."""
    return region_contains(polygon_from_constraints(outer), polygon_from_constraints(inner),
                           CONTAIN_TOL)[1]


def _degraded_gap(g: ChannelGains, slots: TimeSlots, alloc: DfAllocation,
                  rho: NoiseCorrelation) -> float:
    """Largest difference between a DEGRADED cap and the DF cap it equals
    under the degraded noise correlations."""
    rd = df_region(g, slots, alloc)
    ro = degraded_outer_region(g, slots, alloc, rho)
    return max(abs(ro.min_r1 - rd.min_r1), abs(ro.min_r2 - rd.min_r2),
               abs(ro.sum_bounds[0] - rd.sum_bounds[0]),
               abs(ro.sum_bounds[1] - rd.sum_bounds[3]))


def degraded_rho(g: ChannelGains) -> Optional[NoiseCorrelation]:
    """Noise correlations (K10/K12, K20/K21) under which the DEGRADED bound
    collapses onto DF, or None unless K12 > K10 and K21 > K20."""
    if g.k12 > g.k10 and g.k21 > g.k20:
        return NoiseCorrelation(g.k10 / g.k12, g.k20 / g.k21)
    return None


def _check_frontiers(claim: str, **given: FrontierResult) -> None:
    """Each frontier argument, named fr_<scheme>, is of the scheme the claim
    expects, and all were traced over the same weight directions."""
    want = {"fr_pdf": "PDF_JOINT", "fr_full": "PDF_JOINT", "fr_part": "PDF_PARTIAL",
            "fr_df": "DF", "fr_out": "OUTER", "fr_deg": "DEGRADED"}
    for name, fr in given.items():
        _check(isinstance(fr, FrontierResult) and fr.scheme == want[name],
               f"{claim}: {name} must be a frontier of scheme {want[name]}, got "
               f"{getattr(fr, 'scheme', fr)!r}")
    mus = [[r.mu for r in fr.points] for fr in given.values()]
    _check(all(m == mus[0] for m in mus),
           f"{claim}: {' and '.join(given)} were traced over different weight directions")


# the claims whose witness is one allocation, checked as full decoding's
# polygon containing the other scheme's
_INNER = {"joint_dominates_separate": pdf_separate_region,
          "full_vs_partial_user_decoding": pdf_partial_user_region}


def _region_vertex_slack(region, vertex) -> float:
    poly = polygon_from_constraints(region)
    return point_slack(poly.vertices, vertex)


def verify_pdf_df_equivalence(g: ChannelGains, fr_pdf: FrontierResult,
                              fr_df: FrontierResult) -> Verdict:
    """The PDF_JOINT and DF frontiers coincide, and the allocation
    substitutions carry each scheme's optima into the other without losing
    feasibility or objective."""
    _check_frontiers("pdf_df_equivalence", fr_pdf=fr_pdf, fr_df=fr_df)
    forward = [(r.slots, pdf_to_df_allocation(r.allocation)) for r in fr_pdf.points]

    max_gap = 0.0
    gap_witness = None
    for rp, rd in zip(fr_pdf.points, fr_df.points):
        gap = abs(rp.value - rd.value)
        if gap >= max_gap:
            max_gap = gap
            gap_witness = {
                "mu": list(rp.mu),
                "pdf_value": rp.value,
                "df_value": rd.value,
                "pdf_slots": _slots_dict(rp.slots),
                "pdf_allocation": asdict(rp.allocation),
                "df_slots": _slots_dict(rd.slots),
                "df_allocation": asdict(rd.allocation),
            }

    # forward map: exact power identity, no objective loss under DF
    feas_err = 0.0
    fwd_slack = math.inf
    for rp, (slots, dalloc) in zip(fr_pdf.points, forward):
        u1p, u2p = power_used("PDF", rp.slots, rp.allocation)
        u1d, u2d = power_used("DF", slots, dalloc)
        feas_err = max(feas_err, abs(u1p - u1d), abs(u2p - u2d))
        fwd_slack = min(fwd_slack, _region_vertex_slack(df_region(g, slots, dalloc),
                                                        rp.vertex))

    # reverse map, exercised when a middle sum cap attains the minimum and
    # the gain pattern makes the corresponding one-symbol embedding lossless
    # (dropping V cannot lower the third cap below the minimum when
    # K21 <= K20, and symmetrically for dropping U)
    rev_slack = math.inf
    rev_count = 0
    for rd in fr_df.points:
        sums = df_region(g, rd.slots, rd.allocation).sum_bounds
        smin = min(sums)
        empty = None
        if sums[1] <= smin + EXACT_TOL and g.k21 <= g.k20:
            empty = "v"
        elif sums[2] <= smin + EXACT_TOL and g.k12 <= g.k10:
            empty = "u"
        if empty is None:
            continue
        rev_count += 1
        palloc = df_to_pdf_allocation(rd.allocation, empty)
        rev_slack = min(rev_slack, _region_vertex_slack(
            pdf_joint_region(g, rd.slots, palloc), rd.vertex))

    passed = (max_gap <= FRONTIER_TOL and feas_err <= CONTAIN_TOL
              and fwd_slack >= -CONTAIN_TOL
              and (rev_count == 0 or rev_slack >= -CONTAIN_TOL))
    return Verdict(
        claim="pdf_df_equivalence",
        passed=passed,
        worst_slack=-max_gap,
        tolerance=FRONTIER_TOL,
        witness=gap_witness,
        details={
            "max_frontier_gap": max_gap,
            "mapping_feasibility_error": feas_err,
            "forward_map_slack": fwd_slack,
            "reverse_map_slack": None if rev_count == 0 else rev_slack,
            "reverse_map_exercised": rev_count,
        },
    )


def verify_joint_dominates_separate(g: ChannelGains, budget: PowerBudget,
                                    samples: int, seed: int) -> Verdict:
    """Separate decoding's polygon sits inside joint decoding's on every
    sampled feasible allocation, with a strictly positive gap somewhere when
    the inter-user links beat the direct links."""
    rng = random.Random(seed)
    worst = math.inf
    witness = None
    strict_gap = 0.0
    saw_public = False
    for _ in range(samples):
        slots, alloc = sample_allocation("PDF_JOINT", g, budget, rng)
        rj = pdf_joint_region(g, slots, alloc)
        rs = pdf_separate_region(g, slots, alloc)
        slack = _containment_slack(rj, rs)
        if slack < worst:
            worst = slack
            witness = {"slots": _slots_dict(slots), "allocation": asdict(alloc)}
        if alloc.pu > 1e-12 or alloc.pv > 1e-12:
            saw_public = True
        gap = max(j - s for j, s in zip(rj.sum_bounds, rs.sum_bounds))
        strict_gap = max(strict_gap, gap)

    strict_applicable = (g.k12 > g.k10 or g.k21 > g.k20) and saw_public
    passed = worst >= -CONTAIN_TOL and (not strict_applicable or strict_gap > STRICT_GAP)
    return Verdict(
        claim="joint_dominates_separate",
        passed=passed,
        worst_slack=worst,
        tolerance=CONTAIN_TOL,
        witness=witness,
        details={"samples": samples, "max_bound_gap": strict_gap,
                 "strictness_checked": strict_applicable},
    )


def verify_achievable_in_outer(g: ChannelGains, budget: PowerBudget, fr_df: FrontierResult,
                               fr_out: FrontierResult) -> Verdict:
    """The DF frontier's hull sits inside the OUTER frontier's; also reports
    the equal-weight sum-rate gap between the two schemes."""
    _check_frontiers("achievable_in_outer", fr_df=fr_df, fr_out=fr_out)
    # the outer region at each decode-forward optimum covers that optimum's
    # vertex; the sampled outer hull alone is an inner approximation that can
    # miss it
    cross = _cross(lambda s, a: gaussian_outer_region(g, s, a), fr_df.points)
    hull_out = upper_hull([r.vertex for r in fr_out.points] + cross)
    ok, worst = region_contains(hull_out, fr_df.hull, HULL_TOL)

    r_df = optimize_scheme(g, budget, "DF", (1.0, 1.0), _CFG)
    r_out = optimize_scheme(g, budget, "OUTER", (1.0, 1.0), _CFG)
    gap = r_out.value - r_df.value
    witness = {
        "df_hull": [list(v) for v in fr_df.hull.vertices],
        "outer_hull": [list(v) for v in hull_out.vertices],
    }
    return Verdict(
        claim="achievable_in_outer",
        passed=ok,
        worst_slack=worst,
        tolerance=HULL_TOL,
        witness=witness,
        details={"sum_rate_gap": gap},
    )


def verify_degraded_capacity(g: ChannelGains, budget: PowerBudget, fr_df: FrontierResult,
                             fr_deg: Optional[FrontierResult], seed: int) -> Verdict:
    """With the noise correlations of ``degraded_rho`` the correlated-noise
    outer bound collapses onto the decode-forward region, bound by bound on
    seeded random allocations and as the hulls of the DF and DEGRADED
    frontiers (the latter traced at ``degraded_rho(g)``).  Where
    ``degraded_rho`` is None the claim does not apply and neither frontier
    is read."""
    rho = degraded_rho(g)
    if rho is None:
        return Verdict(claim="degraded_capacity", passed=True, worst_slack=math.inf,
                       tolerance=EXACT_TOL, witness=None, applicable=False,
                       details={"reason": "requires k12 > k10 and k21 > k20"})
    _check_frontiers("degraded_capacity", fr_df=fr_df, fr_deg=fr_deg)
    rng = random.Random(seed)
    max_diff = 0.0
    witness = None
    for _ in range(SAMPLES):
        slots, alloc = sample_allocation("DF", g, budget, rng)
        diff = _degraded_gap(g, slots, alloc, rho)
        if diff >= max_diff:
            max_diff = diff
            witness = {"slots": _slots_dict(slots), "allocation": asdict(alloc),
                       "rho1": rho.rho1, "rho2": rho.rho2}

    # evaluate each frontier's optima under the other region so both hulls
    # cover the union of evaluated allocations; any pointwise difference
    # between the regions would surface here
    cross_df = _cross(lambda s, a: df_region(g, s, a), fr_deg.points)
    cross_deg = _cross(lambda s, a: degraded_outer_region(g, s, a, rho), fr_df.points)
    hull_df = upper_hull([r.vertex for r in fr_df.points] + cross_df)
    hull_deg = upper_hull([r.vertex for r in fr_deg.points] + cross_deg)
    ok1, s1 = region_contains(hull_df, hull_deg, HULL_TOL)
    ok2, s2 = region_contains(hull_deg, hull_df, HULL_TOL)

    passed = max_diff <= EXACT_TOL and ok1 and ok2
    return Verdict(
        claim="degraded_capacity",
        passed=passed,
        worst_slack=-max_diff,
        tolerance=EXACT_TOL,
        witness=witness,
        details={"samples": SAMPLES, "hull_slack": min(s1, s2),
                 "hull_tolerance": HULL_TOL},
    )


def verify_full_vs_partial_user_decoding(g: ChannelGains, budget: PowerBudget,
                                         fr_full: FrontierResult, fr_part: FrontierResult,
                                         seed: int) -> Verdict:
    """Full decoding at each user dominates partial decoding at seeded random
    allocations with slot-1/2 private power (when the inter-user links are
    stronger), while the PDF_JOINT and PDF_PARTIAL frontiers coincide."""
    _check_frontiers("full_vs_partial_user_decoding", fr_full=fr_full, fr_part=fr_part)
    rng = random.Random(seed)
    worst = math.inf
    witness = None
    containment_applicable = g.k12 > g.k10 and g.k21 > g.k20
    if containment_applicable:
        for _ in range(SAMPLES):
            slots, alloc = sample_allocation("PDF_JOINT", g, budget, rng, interior=True)
            slack = _containment_slack(pdf_joint_region(g, slots, alloc),
                                       pdf_partial_user_region(g, slots, alloc))
            if slack < worst:
                worst = slack
                witness = {"slots": _slots_dict(slots), "allocation": asdict(alloc)}

    max_gap = max(abs(a.value - b.value) for a, b in zip(fr_full.points, fr_part.points))

    passed = (not containment_applicable or worst >= -CONTAIN_TOL) and max_gap <= FRONTIER_TOL
    return Verdict(
        claim="full_vs_partial_user_decoding",
        passed=passed,
        worst_slack=worst if containment_applicable else math.inf,
        tolerance=CONTAIN_TOL,
        witness=witness,
        details={"max_frontier_gap": max_gap,
                 "containment_checked": containment_applicable},
    )


def verify_claims(g: ChannelGains, budget: PowerBudget, weight_count: int,
                  seed: int) -> List[Verdict]:
    """Every claim on one scenario, each scheme's frontier traced once over
    ``weight_count`` directions: pdf_df_equivalence, joint_dominates_separate,
    achievable_in_outer, degraded_capacity and full_vs_partial_user_decoding,
    in that order.  DEGRADED is traced only where ``degraded_rho`` applies."""
    fr = {scheme: frontier(g, budget, scheme, weight_count, _CFG)
          for scheme in ("PDF_JOINT", "DF", "OUTER", "PDF_PARTIAL")}
    rho = degraded_rho(g)
    fr_deg = None if rho is None else frontier(g, budget, "DEGRADED", weight_count, _CFG,
                                               rho=rho)
    return [
        verify_pdf_df_equivalence(g, fr["PDF_JOINT"], fr["DF"]),
        verify_joint_dominates_separate(g, budget, SAMPLES, seed),
        verify_achievable_in_outer(g, budget, fr["DF"], fr["OUTER"]),
        verify_degraded_capacity(g, budget, fr["DF"], fr_deg, seed),
        verify_full_vs_partial_user_decoding(g, budget, fr["PDF_JOINT"], fr["PDF_PARTIAL"], seed),
    ]


def replay_witness(verdict: Verdict, g: ChannelGains, budget: PowerBudget) -> float:
    """Recompute a verdict's worst slack from its witness."""
    w = verdict.witness
    if w is None:
        raise ValidationError(f"verdict {verdict.claim!r} carries no witness")
    if verdict.claim in _INNER:
        slots = _slots_from(w["slots"])
        alloc = PdfAllocation(**w["allocation"])
        return _containment_slack(pdf_joint_region(g, slots, alloc),
                                  _INNER[verdict.claim](g, slots, alloc))
    if verdict.claim == "degraded_capacity":
        return -_degraded_gap(g, _slots_from(w["slots"]), DfAllocation(**w["allocation"]),
                              NoiseCorrelation(w["rho1"], w["rho2"]))
    if verdict.claim == "achievable_in_outer":
        outer_hull = RatePolygon(tuple((x, y) for x, y in w["outer_hull"]))
        df_hull = RatePolygon(tuple((x, y) for x, y in w["df_hull"]))
        _, slack = region_contains(outer_hull, df_hull, HULL_TOL)
        return slack
    if verdict.claim == "pdf_df_equivalence":
        mu = tuple(w["mu"])
        _, pdf_value = weighted_best_vertex(polygon_from_constraints(pdf_joint_region(
            g, _slots_from(w["pdf_slots"]), PdfAllocation(**w["pdf_allocation"]))), mu)
        _, df_value = weighted_best_vertex(polygon_from_constraints(df_region(
            g, _slots_from(w["df_slots"]), DfAllocation(**w["df_allocation"]))), mu)
        return -abs(pdf_value - df_value)
    raise ValidationError(f"unknown claim {verdict.claim!r}")
