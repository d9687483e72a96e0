"""Executable verdicts for the structural claims about the Gaussian regions.

Each verify_* operation checks one claim on a concrete scenario and returns
a Verdict with a quantified worst slack and a witness for ``replay_witness``.
Four claims hold allocation by allocation: separate decoding inside joint
decoding, decode-forward inside the outer bound, partial user decoding
inside full decoding and the degraded outer bound equal to decode-forward.
Their containments are proven for every allocation at once on the schemes'
term tables (``optimize._dominates``); achievable_in_outer and
degraded_capacity pass or fail on those proofs alone.  The frontier
equalities stay optimizer checks on frontiers the claims are given, of the
schemes they name and over the same weight directions; ``verify_claims``
traces PDF_JOINT, DF and PDF_PARTIAL once each.
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
    TimeSlots,
    ValidationError,
    _check,
    polygon_from_constraints,
    power_used,
)
from .gaussian import (
    NoiseCorrelation,
    df_region,
    pdf_joint_region,
    pdf_separate_region,
)
from .optimize import (
    FrontierResult,
    SearchConfig,
    _dominates,
    _scheme_table,
    frontier,
    optimize_scheme,
    point_slack,
    sample_allocation,
    swap_allocation,
    weighted_best_vertex,
)

FRONTIER_TOL = 1e-3      # bits per weight direction
CONTAIN_TOL = 1e-9
EXACT_TOL = 1e-12
STRICT_GAP = 1e-6
SAMPLES = 100            # random allocations of joint_dominates_separate's strict-gap search
_K_TOL = EXACT_TOL / 4   # for DEGRADED's rounded gains; a cap's <= 4 terms stay within EXACT_TOL
# the containments each claim proves, as (outer, inner) scheme pairs
_PROVEN = {"joint_dominates_separate": (("PDF_JOINT", "PDF_SEPARATE"),),
           "achievable_in_outer": (("OUTER", "DF"),),
           "degraded_capacity": (("DEGRADED", "DF"), ("DF", "DEGRADED")),
           "full_vs_partial_user_decoding": (("PDF_JOINT", "PDF_PARTIAL"),)}
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

    A containment proven on the term tables has as worst_slack the least
    slack its proofs guarantee at any allocation (-inf if one is refused),
    and as witness, under "proofs", each proof's two schemes and matching.
    """

    claim: str
    passed: bool
    worst_slack: float
    tolerance: float
    witness: Optional[dict]
    applicable: bool = True
    details: Optional[dict] = None


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


def degraded_rho(g: ChannelGains) -> Optional[NoiseCorrelation]:
    """Noise correlations (K10/K12, K20/K21) under which the DEGRADED bound
    collapses onto DF, or None unless K12 > K10 and K21 > K20.  The rule is
    strict, unlike partial decoding's, because at K12 = K10 the correlation
    is 1, where DEGRADED's gains are singular."""
    if g.k12 > g.k10 and g.k21 > g.k20:
        return NoiseCorrelation(g.k10 / g.k12, g.k20 / g.k21)
    return None


def _prove(claim: str, g: ChannelGains):
    """The least slack the claim's containments guarantee at any allocation
    (-inf if a proof is refused) and the witness that holds the proofs."""
    rho = degraded_rho(g)       # read by DEGRADED only
    delta = _K_TOL if claim == "degraded_capacity" else 0.0
    proofs = [{"outer": outer, "inner": inner, "delta": delta,
               **_dominates(_scheme_table(outer, g, rho), _scheme_table(inner, g, rho), delta)}
              for outer, inner in _PROVEN[claim]]
    # 0.0 - bound: an exact proof's slack reads 0, not -0
    worst = min(-math.inf if p["refused"] is not None else 0.0 - p["bound"] for p in proofs)
    return worst, {"proofs": proofs}


def _check_frontiers(claim: str, **given: FrontierResult) -> None:
    """Each frontier argument, named fr_<scheme>, is of the scheme the claim
    expects, and all were traced over the same weight directions."""
    want = {"fr_pdf": "PDF_JOINT", "fr_full": "PDF_JOINT", "fr_part": "PDF_PARTIAL",
            "fr_df": "DF"}
    for name, fr in given.items():
        _check(isinstance(fr, FrontierResult) and fr.scheme == want[name],
               f"{claim}: {name} must be a frontier of scheme {want[name]}, got "
               f"{getattr(fr, 'scheme', fr)!r}")
    mus = [[r.mu for r in fr.points] for fr in given.values()]
    _check(all(m == mus[0] for m in mus),
           f"{claim}: {' and '.join(given)} were traced over different weight directions")


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
                "pdf_slots": asdict(rp.slots),
                "pdf_allocation": asdict(rp.allocation),
                "df_slots": asdict(rd.slots),
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
    """Separate decoding's region sits inside joint decoding's at every
    allocation, proven on the term tables.  Where an inter-user link beats
    its direct link, some of ``samples`` seeded random allocations must also
    show a strictly positive gap between the two schemes' sum caps."""
    worst, witness = _prove("joint_dominates_separate", g)
    strict_gap = 0.0
    saw_public = False
    if g.k12 > g.k10 or g.k21 > g.k20:
        rng = random.Random(seed)
        for _ in range(samples):
            slots, alloc = sample_allocation("PDF_JOINT", g, budget, rng)
            rj = pdf_joint_region(g, slots, alloc)
            rs = pdf_separate_region(g, slots, alloc)
            saw_public = saw_public or alloc.pu > 1e-12 or alloc.pv > 1e-12
            strict_gap = max(strict_gap, *(j - s for j, s in zip(rj.sum_bounds, rs.sum_bounds)))

    passed = worst >= -CONTAIN_TOL and (not saw_public or strict_gap > STRICT_GAP)
    return Verdict(
        claim="joint_dominates_separate",
        passed=passed,
        worst_slack=worst,
        tolerance=CONTAIN_TOL,
        witness=witness,
        details={"samples": samples, "max_bound_gap": strict_gap,
                 "strictness_checked": saw_public},
    )


def verify_achievable_in_outer(g: ChannelGains, budget: PowerBudget) -> Verdict:
    """The outer region contains the decode-forward region at every
    allocation, proven on the term tables; also reports the equal-weight
    sum-rate gap between the two schemes."""
    worst, witness = _prove("achievable_in_outer", g)
    r_df = optimize_scheme(g, budget, "DF", (1.0, 1.0), _CFG)
    r_out = optimize_scheme(g, budget, "OUTER", (1.0, 1.0), _CFG)
    return Verdict(
        claim="achievable_in_outer",
        passed=worst >= -CONTAIN_TOL,
        worst_slack=worst,
        tolerance=CONTAIN_TOL,
        witness=witness,
        details={"sum_rate_gap": r_out.value - r_df.value},
    )


def verify_degraded_capacity(g: ChannelGains) -> Verdict:
    """With the noise correlations of ``degraded_rho`` the correlated-noise
    outer bound equals the decode-forward region at every allocation, so
    their frontiers coincide: each contains the other, proven on the term
    tables with a K tolerance for df_gains' rounding of DEGRADED's gains.
    Where ``degraded_rho`` is None the claim does not apply."""
    if degraded_rho(g) is None:
        return Verdict(claim="degraded_capacity", passed=True, worst_slack=math.inf,
                       tolerance=EXACT_TOL, witness=None, applicable=False,
                       details={"reason": "requires k12 > k10 and k21 > k20"})
    worst, witness = _prove("degraded_capacity", g)
    return Verdict(
        claim="degraded_capacity",
        passed=worst >= -EXACT_TOL,
        worst_slack=worst,
        tolerance=EXACT_TOL,
        witness=witness,
    )


def verify_full_vs_partial_user_decoding(g: ChannelGains, fr_full: FrontierResult,
                                         fr_part: FrontierResult) -> Verdict:
    """Full decoding at each user contains partial decoding at every
    allocation where K12 >= K10 and K21 >= K20, proven on the term tables,
    while the PDF_JOINT and PDF_PARTIAL frontiers coincide.  The proof needs
    only >=: partial decoding credits the private power P10 with K10 in
    place of K12.  Elsewhere the containment is not checked."""
    _check_frontiers("full_vs_partial_user_decoding", fr_full=fr_full, fr_part=fr_part)
    containment_applicable = g.k12 >= g.k10 and g.k21 >= g.k20
    worst, witness = (_prove("full_vs_partial_user_decoding", g) if containment_applicable
                      else (math.inf, None))

    max_gap = max(abs(a.value - b.value) for a, b in zip(fr_full.points, fr_part.points))

    return Verdict(
        claim="full_vs_partial_user_decoding",
        passed=worst >= -CONTAIN_TOL and max_gap <= FRONTIER_TOL,
        worst_slack=worst,
        tolerance=CONTAIN_TOL,
        witness=witness,
        details={"max_frontier_gap": max_gap,
                 "containment_checked": containment_applicable},
    )


def verify_claims(g: ChannelGains, budget: PowerBudget, weight_count: int,
                  seed: int) -> List[Verdict]:
    """Every claim on one scenario, each of PDF_JOINT, DF and PDF_PARTIAL
    traced once over ``weight_count`` directions:
    pdf_df_equivalence, joint_dominates_separate, achievable_in_outer,
    degraded_capacity and full_vs_partial_user_decoding, in that order."""
    fr = {scheme: frontier(g, budget, scheme, weight_count, _CFG)
          for scheme in ("PDF_JOINT", "DF", "PDF_PARTIAL")}
    return [
        verify_pdf_df_equivalence(g, fr["PDF_JOINT"], fr["DF"]),
        verify_joint_dominates_separate(g, budget, SAMPLES, seed),
        verify_achievable_in_outer(g, budget),
        verify_degraded_capacity(g),
        verify_full_vs_partial_user_decoding(g, fr["PDF_JOINT"], fr["PDF_PARTIAL"]),
    ]


def replay_witness(verdict: Verdict, g: ChannelGains, budget: PowerBudget) -> float:
    """Recompute a verdict's worst slack: a proven containment by running
    its proofs again, the frontier equivalence from its witness."""
    w = verdict.witness
    if w is None:
        raise ValidationError(f"verdict {verdict.claim!r} carries no witness")
    if verdict.claim in _PROVEN:
        return _prove(verdict.claim, g)[0]
    if verdict.claim == "pdf_df_equivalence":
        mu = tuple(w["mu"])
        _, pdf_value = weighted_best_vertex(polygon_from_constraints(pdf_joint_region(
            g, TimeSlots(**w["pdf_slots"]), PdfAllocation(**w["pdf_allocation"]))), mu)
        _, df_value = weighted_best_vertex(polygon_from_constraints(df_region(
            g, TimeSlots(**w["df_slots"]), DfAllocation(**w["df_allocation"]))), mu)
        return -abs(pdf_value - df_value)
    raise ValidationError(f"unknown claim {verdict.claim!r}")
