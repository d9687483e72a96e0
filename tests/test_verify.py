import dataclasses
import functools
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hdmac.core import (
    ChannelGains,
    PowerBudget,
    ValidationError,
    polygon_from_constraints,
    power_used,
)
from hdmac.gaussian import NoiseCorrelation, df_region, pdf_joint_region, scheme_caps_region
from hdmac.optimize import (
    SearchConfig,
    _dominates,
    _scheme_table,
    frontier,
    region_contains,
    sample_allocation,
)
from hdmac.verify import (
    EXACT_TOL,
    _K_TOL,
    _PROVEN,
    _prove,
    degraded_rho,
    df_to_pdf_allocation,
    pdf_to_df_allocation,
    replay_witness,
    verify_achievable_in_outer,
    verify_claims,
    verify_degraded_capacity,
    verify_full_vs_partial_user_decoding,
    verify_joint_dominates_separate,
    verify_pdf_df_equivalence,
)
from helpers import PANEL

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
        v = verify_achievable_in_outer(SYM, BUDGET)
        assert v.passed
        assert v.details["sum_rate_gap"] >= -1e-9
        slack = replay_witness(v, SYM, BUDGET)
        assert slack == pytest.approx(v.worst_slack, abs=1e-12)

    def test_achievable_in_outer_fails_on_a_refused_proof(self, monkeypatch):
        # the proof is the verdict's only gate: OUTER is not inside DF
        monkeypatch.setitem(_PROVEN, "achievable_in_outer", (("DF", "OUTER"),))
        v = verify_achievable_in_outer(SYM, BUDGET)
        assert not v.passed
        assert v.worst_slack == -math.inf
        assert v.witness["proofs"][0]["refused"] is not None

    def test_degraded_capacity_passes_and_replays(self):
        v = verify_degraded_capacity(SYM)
        assert v.applicable and v.passed
        assert v.worst_slack >= -1e-12
        slack = replay_witness(v, SYM, BUDGET)
        assert slack == pytest.approx(v.worst_slack, abs=1e-12)

    def test_degraded_not_applicable_when_links_equal(self):
        g = ChannelGains(1.0, 1.0, 1.0, 1.0, 1.0)
        assert degraded_rho(g) is None
        v = verify_degraded_capacity(g)
        assert not v.applicable
        assert v.passed

    def test_full_vs_partial_passes(self):
        v = verify_full_vs_partial_user_decoding(SYM, traced(SYM, "PDF_JOINT"),
                                                 traced(SYM, "PDF_PARTIAL"))
        assert v.passed
        assert v.details["max_frontier_gap"] <= 1e-3
        slack = replay_witness(v, SYM, BUDGET)
        assert slack == pytest.approx(v.worst_slack, abs=1e-12)

    def test_full_vs_partial_checks_equal_links(self):
        # the proof needs only k12 >= k10 and k21 >= k20
        g = ChannelGains(1.0, 1.0, 1.0, 1.0, 1.0)
        v = verify_full_vs_partial_user_decoding(g, traced(g, "PDF_JOINT"),
                                                 traced(g, "PDF_PARTIAL"))
        assert v.passed and v.details["containment_checked"]
        assert v.worst_slack == 0.0

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
        v = verify_achievable_in_outer(DEAD, BUDGET)
        assert v.passed
        assert "sum_rate_gap" in v.details


_gain = st.floats(1e-2, 1e2)


@st.composite
def _near_equal_links(draw):
    """Channels whose inter-user links beat their direct links by ratios in
    (1 + 1e-7, 1.01]."""
    k10, k20 = draw(_gain), draw(_gain)
    r1, r2 = (draw(st.floats(1.0 + 1e-7, 1.01, exclude_min=True)) for _ in range(2))
    return ChannelGains(k10 * r1, k20 * r2, k10, k20, draw(st.floats(0.1, 10.0)))


class TestDegradedRho:
    def test_ratios_where_both_links_are_stronger(self):
        assert degraded_rho(SYM) == NoiseCorrelation(0.5, 0.5)
        g = ChannelGains(3.0, 1.5, 1.0, 0.5, 1.0)
        assert degraded_rho(g) == NoiseCorrelation(1.0 / 3.0, 0.5 / 1.5)

    @settings(max_examples=100, deadline=None)
    @given(_near_equal_links())
    # E21 rounded 2.2e-12 away from K21^2 when df_gains cancelled near ratio 1
    @example(ChannelGains(82.14428268805602, 2.595161833965886, 35.20317498066455,
                          2.5950371846175924, noise=3.0370809464666575))
    def test_degraded_capacity_holds_near_equal_links(self, g):
        v = verify_degraded_capacity(g)
        assert v.applicable and v.passed, v.worst_slack

    @pytest.mark.parametrize("g", [ChannelGains(1.0, 2.0, 1.0, 1.0, 1.0),
                                   ChannelGains(2.0, 1.0, 1.0, 1.0, 1.0),
                                   ChannelGains(0.5, 2.0, 1.0, 1.0, 1.0), DEAD],
                             ids=["k12_equal", "k21_equal", "k12_weaker", "dead"])
    def test_none_unless_both_links_are_stronger(self, g):
        assert degraded_rho(g) is None
        v = verify_degraded_capacity(g)
        assert not v.applicable and v.passed


class TestFrontierArguments:
    @pytest.mark.parametrize("claim, args, name", [
        (verify_pdf_df_equivalence, lambda: (SYM, traced(SYM, "DF"), traced(SYM, "DF")),
         "fr_pdf must be a frontier of scheme PDF_JOINT, got 'DF'"),
        (verify_full_vs_partial_user_decoding,
         lambda: (SYM, traced(SYM, "PDF_PARTIAL"), traced(SYM, "PDF_PARTIAL")),
         "fr_full must be a frontier of scheme PDF_JOINT, got 'PDF_PARTIAL'"),
    ], ids=["equivalence", "partial"])
    def test_wrong_scheme_rejected(self, claim, args, name):
        with pytest.raises(ValidationError, match=name):
            claim(*args())

    @pytest.mark.parametrize("claim, args", [
        (verify_pdf_df_equivalence,
         lambda: (SYM, traced(SYM, "PDF_JOINT"), fewer(traced(SYM, "DF")))),
        (verify_full_vs_partial_user_decoding,
         lambda: (SYM, traced(SYM, "PDF_JOINT"), fewer(traced(SYM, "PDF_PARTIAL")))),
    ], ids=["equivalence", "partial"])
    def test_different_directions_rejected(self, claim, args):
        with pytest.raises(ValidationError, match="different weight directions"):
            claim(*args())


# the containments the term tables prove, as (outer, inner) scheme pairs;
# DEGRADED at degraded_rho
PAIRS = [("OUTER", "DF"), ("PDF_JOINT", "PDF_SEPARATE"), ("PDF_JOINT", "PDF_PARTIAL"),
         ("DF", "DEGRADED"), ("DEGRADED", "DF")]


def _slack(g, outer, inner, rho, slots, alloc):
    """Slack of inner's polygon inside outer's at one allocation."""
    polys = [polygon_from_constraints(scheme_caps_region(s, g, slots, alloc, rho))
             for s in (outer, inner)]
    return region_contains(*polys, 0.0)[1]


class TestCertificate:
    @pytest.mark.parametrize("outer, inner", PAIRS)
    @settings(max_examples=60, deadline=None)
    @given(st.tuples(_gain, _gain, _gain, _gain), st.floats(0.1, 10.0),
           st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)), st.integers(0, 2 ** 32 - 1))
    def test_no_sampled_allocation_breaks_a_proof(self, outer, inner, k, noise, p, seed):
        k12, k21, k10, k20 = k
        degraded = "DEGRADED" in (outer, inner)
        if degraded:
            # both inter-user links stronger, where degraded_rho applies
            (k10, k12), (k20, k21) = sorted((k10, k12)), sorted((k20, k21))
        g = ChannelGains(k12, k21, k10, k20, noise)
        rho = degraded_rho(g)
        assume(rho is not None or not degraded)
        proof = _dominates(_scheme_table(outer, g, rho), _scheme_table(inner, g, rho),
                           _K_TOL if degraded else 0.0)
        if inner == "PDF_PARTIAL":
            assert (proof["refused"] is None) == (k12 >= k10 and k21 >= k20)
        elif not degraded:
            assert proof["refused"] is None
        if proof["refused"] is not None:
            return
        assert proof["bound"] <= EXACT_TOL
        rng = random.Random(seed)
        for _ in range(20):
            slots, alloc = sample_allocation(inner, g, PowerBudget(*p), rng)
            assert _slack(g, outer, inner, rho, slots, alloc) >= -1e-12, (slots, alloc)

    def test_refuses_partial_decoding_where_a_link_is_weaker(self):
        # dead_coop has k12 < k10: partial decoding credits user 1's private
        # power with the stronger direct link, and sticks out of full decoding
        g, budget = PANEL["dead_coop"]
        worst, witness = _prove("full_vs_partial_user_decoding", g)
        assert worst == -math.inf and witness["proofs"][0]["refused"] is not None
        rng = random.Random(0)
        slack = min(_slack(g, "PDF_JOINT", "PDF_PARTIAL", None,
                           *sample_allocation("PDF_PARTIAL", g, budget, rng))
                    for _ in range(100))
        assert slack < -0.1

    @pytest.mark.parametrize("field, change", [("N", lambda n: 2.0 * n),
                                               ("S", lambda s: (s + 1) % 3)],
                             ids=["more_noise", "other_slot"])
    def test_refuses_terms_over_other_noise_or_slots(self, field, change):
        # such a term bounds nothing of its unchanged copy, so no cap is proven
        outer = _scheme_table("DF", SYM)
        setattr(outer, field, change(getattr(outer, field)))
        assert _dominates(outer, _scheme_table("DF", SYM))["refused"] == 0


class TestPanelStatuses:
    """verify_claims' statuses on the benchmark's channel panel at three
    weight directions, in verify_claims' order: pdf_df_equivalence,
    joint_dominates_separate, achievable_in_outer, degraded_capacity and
    full_vs_partial_user_decoding."""

    STATUSES = {
        "symmetric_k2": ("pass", "pass", "pass", "pass", "pass"),
        "asym_witness": ("pass", "pass", "pass", "n/a", "pass"),
        "skewed": ("pass", "pass", "pass", "pass", "pass"),
        "dead_coop": ("pass", "pass", "pass", "n/a", "pass"),
    }

    @pytest.mark.parametrize("channel", sorted(STATUSES))
    def test_statuses(self, channel):
        g, budget = PANEL[channel]
        got = tuple("n/a" if not v.applicable else "pass" if v.passed else "FAIL"
                    for v in verify_claims(g, budget, 3, 0))
        assert got == self.STATUSES[channel]
