import dataclasses
import functools
import random

import pytest

from hdmac.core import ChannelGains, PowerBudget, ValidationError, power_used
from hdmac.gaussian import NoiseCorrelation, df_region, pdf_joint_region
from hdmac.optimize import SearchConfig, frontier, sample_allocation
from hdmac.verify import (
    degraded_rho,
    df_to_pdf_allocation,
    pdf_to_df_allocation,
    replay_witness,
    verify_achievable_in_outer,
    verify_degraded_capacity,
    verify_full_vs_partial_user_decoding,
    verify_joint_dominates_separate,
    verify_pdf_df_equivalence,
)

SYM = ChannelGains(2.0, 2.0, 1.0, 1.0, 1.0)
SKEWED = ChannelGains(2.2, 1.0, 0.7, 1.3, 1.0)
DEAD = ChannelGains(0.0, 0.0, 1.0, 1.0, 1.0)
BUDGET = PowerBudget(2.0, 2.0)


@functools.lru_cache(maxsize=None)
def traced(g: ChannelGains, scheme: str):
    """Each channel's frontier of each scheme at 5 directions, traced once and
    shared by the tests."""
    rho = degraded_rho(g) if scheme == "DEGRADED" else None
    return frontier(g, BUDGET, scheme, 5, SearchConfig(), rho=rho)


def fewer(fr):
    """The frontier without its last direction."""
    return dataclasses.replace(fr, points=fr.points[:-1])


class TestAllocationMappings:
    def test_forward_map_preserves_power_exactly(self):
        rng = random.Random(1)
        for _ in range(100):
            slots, alloc = sample_allocation("PDF_JOINT", SYM, BUDGET, rng)
            mapped = pdf_to_df_allocation(alloc)
            u1p, u2p = power_used("PDF", slots, alloc)
            u1d, u2d = power_used("DF", slots, mapped)
            assert u1d == pytest.approx(u1p, abs=1e-12)
            assert u2d == pytest.approx(u2p, abs=1e-12)

    def test_forward_map_region_contains_source_bounds(self):
        rng = random.Random(2)
        for _ in range(50):
            slots, alloc = sample_allocation("PDF_JOINT", SYM, BUDGET, rng)
            rp = pdf_joint_region(SYM, slots, alloc)
            rd = df_region(SYM, slots, pdf_to_df_allocation(alloc))
            assert rd.r1_bounds[0] == pytest.approx(rp.r1_bounds[0], abs=1e-12)
            assert rd.r2_bounds[0] == pytest.approx(rp.r2_bounds[0], abs=1e-12)
            assert rd.sum_bounds[0] == pytest.approx(rp.sum_bounds[0], abs=1e-12)
            for k in (1, 2, 3):
                assert rd.sum_bounds[k] >= rp.sum_bounds[k] - 1e-12

    def test_reverse_map_keeps_middle_cap_exact(self):
        # with V empty the second sum cap must match the decode-forward one
        rng = random.Random(3)
        for _ in range(50):
            slots, alloc = sample_allocation("DF", SYM, BUDGET, rng)
            back = df_to_pdf_allocation(alloc, "v")
            rd = df_region(SYM, slots, alloc)
            rp = pdf_joint_region(SYM, slots, back)
            assert rp.r1_bounds[0] == pytest.approx(rd.r1_bounds[0], abs=1e-12)
            assert rp.r2_bounds[0] == pytest.approx(rd.r2_bounds[0], abs=1e-12)
            assert rp.sum_bounds[0] == pytest.approx(rd.sum_bounds[0], abs=1e-12)
            assert rp.sum_bounds[1] == pytest.approx(rd.sum_bounds[1], abs=1e-12)
            assert rp.sum_bounds[3] == pytest.approx(rd.sum_bounds[3], abs=1e-12)
        u1d, _ = power_used("DF", slots, alloc)
        u1p, _ = power_used("PDF", slots, back)
        assert u1p == pytest.approx(u1d, abs=1e-12)

    def test_reverse_map_u_variant_symmetry(self):
        rng = random.Random(4)
        slots, alloc = sample_allocation("DF", SYM, BUDGET, rng)
        back = df_to_pdf_allocation(alloc, "u")
        rd = df_region(SYM, slots, alloc)
        rp = pdf_joint_region(SYM, slots, back)
        assert rp.sum_bounds[2] == pytest.approx(rd.sum_bounds[2], abs=1e-12)


class TestVerdicts:
    def test_joint_dominates_separate_passes(self):
        v = verify_joint_dominates_separate(SYM, BUDGET, samples=100, seed=0)
        assert v.passed
        assert v.worst_slack >= -1e-9
        assert v.details["max_bound_gap"] > 1e-6

    def test_joint_dominates_separate_replayable(self):
        v = verify_joint_dominates_separate(SYM, BUDGET, samples=50, seed=5)
        slack = replay_witness(v, SYM, BUDGET)
        assert slack == pytest.approx(v.worst_slack, abs=1e-12)

    def test_dead_cooperation_trivial_pass(self):
        g = ChannelGains(0.0, 0.0, 1.0, 1.0, 1.0)
        v = verify_joint_dominates_separate(g, BUDGET, samples=50, seed=0)
        assert v.passed
        assert not v.details["strictness_checked"]

    def test_achievable_in_outer_passes(self):
        v = verify_achievable_in_outer(SYM, BUDGET, traced(SYM, "DF"), traced(SYM, "OUTER"))
        assert v.passed
        assert v.details["sum_rate_gap"] >= -1e-9
        slack = replay_witness(v, SYM, BUDGET)
        assert slack == pytest.approx(v.worst_slack, abs=1e-12)

    def test_degraded_capacity_passes_and_replays(self):
        v = verify_degraded_capacity(SYM, BUDGET, traced(SYM, "DF"), traced(SYM, "DEGRADED"),
                                     seed=0)
        assert v.applicable and v.passed
        assert v.worst_slack >= -1e-12
        slack = replay_witness(v, SYM, BUDGET)
        assert slack == pytest.approx(v.worst_slack, abs=1e-12)

    def test_degraded_not_applicable_when_links_equal(self):
        g = ChannelGains(1.0, 1.0, 1.0, 1.0, 1.0)
        assert degraded_rho(g) is None
        # where the claim does not apply no frontier is read
        v = verify_degraded_capacity(g, BUDGET, None, None, seed=0)
        assert not v.applicable
        assert v.passed

    def test_full_vs_partial_passes(self):
        v = verify_full_vs_partial_user_decoding(SYM, BUDGET, traced(SYM, "PDF_JOINT"),
                                                 traced(SYM, "PDF_PARTIAL"), seed=0)
        assert v.passed
        assert v.details["max_frontier_gap"] <= 1e-3
        slack = replay_witness(v, SYM, BUDGET)
        assert slack == pytest.approx(v.worst_slack, abs=1e-12)

    def test_equivalence_passes_fast_config(self):
        v = verify_pdf_df_equivalence(SYM, traced(SYM, "PDF_JOINT"), traced(SYM, "DF"))
        assert v.passed
        assert v.details["mapping_feasibility_error"] <= 1e-9
        assert v.details["forward_map_slack"] >= -1e-9
        slack = replay_witness(v, SYM, BUDGET)
        assert slack == pytest.approx(v.worst_slack, abs=1e-12)

    def test_equivalence_exercises_reverse_map_on_skewed_channel(self):
        # K12 > K10 while K21 < K20 makes a middle sum cap the strict
        # minimum at some optima, the regime where the reverse embedding
        # applies
        v = verify_pdf_df_equivalence(SKEWED, traced(SKEWED, "PDF_JOINT"), traced(SKEWED, "DF"))
        assert v.passed
        assert v.details["reverse_map_exercised"] > 0
        assert v.details["reverse_map_slack"] >= -1e-9

    def test_determinism(self):
        a = verify_joint_dominates_separate(SYM, BUDGET, samples=40, seed=9)
        b = verify_joint_dominates_separate(SYM, BUDGET, samples=40, seed=9)
        assert a == b

    def test_separate_approaches_joint_at_huge_interuser_gain(self):
        # the separate-decoding penalty vanishes as the inter-user links
        # dominate; at k = 1000 the optimized frontiers agree within 1e-2
        g = ChannelGains(1000.0, 1000.0, 1.0, 1.0, 1.0)
        fr_j = traced(g, "PDF_JOINT")
        fr_s = traced(g, "PDF_SEPARATE")
        assert max(abs(a.value - s.value)
                   for a, s in zip(fr_j.points, fr_s.points)) < 1e-2

    def test_outer_gap_reported_for_dead_cooperation(self):
        # diagnostic only: with no inter-user links the verdict still runs
        # and reports the equal-weight gap without asserting it away
        v = verify_achievable_in_outer(DEAD, BUDGET, traced(DEAD, "DF"), traced(DEAD, "OUTER"))
        assert v.passed
        assert "sum_rate_gap" in v.details


class TestDegradedRho:
    def test_ratios_where_both_links_are_stronger(self):
        assert degraded_rho(SYM) == NoiseCorrelation(0.5, 0.5)
        g = ChannelGains(3.0, 1.5, 1.0, 0.5, 1.0)
        assert degraded_rho(g) == NoiseCorrelation(1.0 / 3.0, 0.5 / 1.5)

    @pytest.mark.parametrize("g", [ChannelGains(1.0, 2.0, 1.0, 1.0, 1.0),
                                   ChannelGains(2.0, 1.0, 1.0, 1.0, 1.0),
                                   ChannelGains(0.5, 2.0, 1.0, 1.0, 1.0), DEAD],
                             ids=["k12_equal", "k21_equal", "k12_weaker", "dead"])
    def test_none_unless_both_links_are_stronger(self, g):
        assert degraded_rho(g) is None
        v = verify_degraded_capacity(g, BUDGET, None, None, seed=0)
        assert not v.applicable and v.passed


class TestFrontierArguments:
    @pytest.mark.parametrize("claim, args, name", [
        (verify_pdf_df_equivalence, lambda: (SYM, traced(SYM, "DF"), traced(SYM, "DF")),
         "fr_pdf must be a frontier of scheme PDF_JOINT, got 'DF'"),
        (verify_achievable_in_outer,
         lambda: (SYM, BUDGET, traced(SYM, "DF"), traced(SYM, "DEGRADED")),
         "fr_out must be a frontier of scheme OUTER, got 'DEGRADED'"),
        (verify_degraded_capacity, lambda: (SYM, BUDGET, traced(SYM, "DF"), None, 0),
         "fr_deg must be a frontier of scheme DEGRADED, got None"),
        (verify_full_vs_partial_user_decoding,
         lambda: (SYM, BUDGET, traced(SYM, "PDF_PARTIAL"), traced(SYM, "PDF_PARTIAL"), 0),
         "fr_full must be a frontier of scheme PDF_JOINT, got 'PDF_PARTIAL'"),
    ], ids=["equivalence", "outer", "degraded", "partial"])
    def test_wrong_scheme_rejected(self, claim, args, name):
        with pytest.raises(ValidationError, match=name):
            claim(*args())

    @pytest.mark.parametrize("claim, args", [
        (verify_pdf_df_equivalence,
         lambda: (SYM, traced(SYM, "PDF_JOINT"), fewer(traced(SYM, "DF")))),
        (verify_achievable_in_outer,
         lambda: (SYM, BUDGET, traced(SYM, "DF"), fewer(traced(SYM, "OUTER")))),
        (verify_degraded_capacity,
         lambda: (SYM, BUDGET, fewer(traced(SYM, "DF")), traced(SYM, "DEGRADED"), 0)),
        (verify_full_vs_partial_user_decoding,
         lambda: (SYM, BUDGET, traced(SYM, "PDF_JOINT"), fewer(traced(SYM, "PDF_PARTIAL")), 0)),
    ], ids=["equivalence", "outer", "degraded", "partial"])
    def test_different_directions_rejected(self, claim, args):
        with pytest.raises(ValidationError, match="different weight directions"):
            claim(*args())

    @pytest.mark.parametrize("rho", [NoiseCorrelation(0.0, 0.0), NoiseCorrelation(0.9, 0.9)],
                             ids=["uncorrelated", "strong"])
    def test_degraded_traced_at_other_rho_rejected(self, rho):
        # such a frontier lies outside DF; the claim names the mismatch
        # instead of reporting a verdict whose worst slack reads -0
        fr_df = frontier(SYM, BUDGET, "DF", 3, SearchConfig())
        fr_deg = frontier(SYM, BUDGET, "DEGRADED", 3, SearchConfig(), rho=rho)
        with pytest.raises(ValidationError, match="degraded_capacity: fr_deg was traced at"):
            verify_degraded_capacity(SYM, BUDGET, fr_df, fr_deg, seed=0)
