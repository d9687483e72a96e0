import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gaussian_conditional_mi_bits

from hdmac.core import (
    ChannelGains,
    DfAllocation,
    PdfAllocation,
    PowerBudget,
    TimeSlots,
    ValidationError,
    c_gauss,
    convex_hull_ccw,
    polygon_from_constraints,
)
from hdmac.gaussian import (
    CHECKED_OPS,
    NoiseCorrelation,
    baseline_region,
    degraded_outer_region,
    df_caps,
    df_gains,
    df_region,
    gaussian_outer_region,
    pdf_caps,
    pdf_gains,
    pdf_joint_region,
    pdf_partial_user_region,
    pdf_separate_region,
)
from hdmac.optimize import region_contains, sample_allocation, scheme_region

C = c_gauss
SYM = ChannelGains(2.0, 2.0, 1.0, 1.0, 1.0)
SLOTS = TimeSlots(0.2, 0.2, 0.6)
BUDGET = PowerBudget(2.0, 2.0)

ZERO_PDF = PdfAllocation(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
ZERO_DF = DfAllocation(0, 0, 0, 0, 0, 0)


def all_bounds(region):
    return region.r1_bounds + region.r2_bounds + region.sum_bounds


class TestPdfJointRegion:
    def test_zero_power_all_zero(self):
        r = pdf_joint_region(SYM, SLOTS, ZERO_PDF)
        assert all(b == 0.0 for b in all_bounds(r))

    def test_classical_mac_special_case(self):
        # slot 3 only, all power private: this is the classical two-user MAC
        slots = TimeSlots(0.0, 0.0, 1.0)
        alloc = PdfAllocation(0, 0, 0, 0, 2.0, 2.0, 0, 0, 0, 0)
        r = pdf_joint_region(SYM, slots, alloc)
        assert r.min_r1 == pytest.approx(C(2.0), abs=1e-15)
        assert r.min_r2 == pytest.approx(C(2.0), abs=1e-15)
        for s in r.sum_bounds:
            assert s == pytest.approx(C(4.0), abs=1e-15)
        assert round(r.min_r1, 4) == 0.7925
        assert round(r.min_sum, 4) == 1.161

    def test_worked_cooperative_example(self):
        # oracle: direct evaluation of the region formula's r1 cap,
        # 0.2*C(16) + 0.6*C(4/3)
        alloc = PdfAllocation(p10=0, p20=0, pu=4.0, pv=4.0, p13=4.0 / 3.0,
                              p23=4.0 / 3.0, c2=1.0, c3=0.0, d2=1.0, d3=0.0)
        r = pdf_joint_region(SYM, SLOTS, alloc)
        expect = 0.2 * C(16.0) + 0.6 * C(4.0 / 3.0)
        assert r.min_r1 == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.7754640105259683, abs=1e-12)

    def test_coherent_sum_cap_formula(self):
        # last sum cap carries PU*(K10 sqrt(c2) + K20 sqrt(d3))^2 +
        # PV*(K10 sqrt(c3) + K20 sqrt(d2))^2 on top of the private powers
        g = ChannelGains(2.0, 2.0, 1.0, 1.5, 1.0)
        alloc = PdfAllocation(p10=0.5, p20=0.25, pu=1.0, pv=2.0, p13=0.5,
                              p23=0.75, c2=0.6, c3=0.2, d2=0.3, d3=0.4)
        r = pdf_joint_region(g, SLOTS, alloc)
        su1, su2 = 1.5, 2.25
        priv = 1.0 * 0.5 + 1.5 ** 2 * 0.75
        boost_u = 1.0 * (1.0 * math.sqrt(0.6) + 1.5 * math.sqrt(0.4)) ** 2
        boost_v = 2.0 * (1.0 * math.sqrt(0.2) + 1.5 * math.sqrt(0.3)) ** 2
        expect = (0.2 * C(1.0 * su1) + 0.2 * C(1.5 ** 2 * su2)
                  + 0.6 * C(priv + boost_u + boost_v))
        assert r.sum_bounds[3] == pytest.approx(expect, abs=1e-12)


class TestPdfSeparateRegion:
    def test_zero_power_all_zero(self):
        r = pdf_separate_region(SYM, SLOTS, ZERO_PDF)
        assert all(b == 0.0 for b in all_bounds(r))

    def test_equal_links_collapse_min(self):
        # k12 == k10 makes both min arguments equal; caps 4-6 then equal the
        # joint-decoding caps with the slot-1/2 terms conditioned (private
        # power only)
        g = ChannelGains(1.0, 1.0, 1.0, 1.0, 1.0)
        rng = random.Random(7)
        for _ in range(20):
            slots, alloc = sample_allocation("PDF_JOINT", g, BUDGET, rng)
            rs = pdf_separate_region(g, slots, alloc)
            rj = pdf_joint_region(g, slots, alloc)
            cond1 = slots.a1 * C(g.k10 ** 2 * alloc.p10 / g.noise) if slots.a1 else 0.0
            cond2 = slots.a2 * C(g.k20 ** 2 * alloc.p20 / g.noise) if slots.a2 else 0.0
            t12 = (slots.a1 * C(g.k12 ** 2 * (alloc.pu + alloc.p10) / g.noise)
                   if slots.a1 else 0.0)
            t21 = (slots.a2 * C(g.k21 ** 2 * (alloc.pv + alloc.p20) / g.noise)
                   if slots.a2 else 0.0)
            assert rs.sum_bounds[0] == pytest.approx(rj.sum_bounds[0], abs=1e-12)
            assert rs.sum_bounds[1] == pytest.approx(
                rj.sum_bounds[1] - t12 + cond1, abs=1e-12)
            assert rs.sum_bounds[2] == pytest.approx(
                rj.sum_bounds[2] - t21 + cond2, abs=1e-12)
            assert rs.sum_bounds[3] == pytest.approx(
                rj.sum_bounds[3] - (rj.sum_bounds[1] - rs.sum_bounds[1])
                - (rj.sum_bounds[2] - rs.sum_bounds[2]), abs=1e-12)

    def test_separate_below_joint_everywhere(self):
        g = ChannelGains(10.0, 10.0, 1.0, 1.0, 1.0)
        rng = random.Random(11)
        for _ in range(50):
            slots, alloc = sample_allocation("PDF_JOINT", g, BUDGET, rng)
            rs = pdf_separate_region(g, slots, alloc)
            rj = pdf_joint_region(g, slots, alloc)
            for bs, bj in zip(all_bounds(rs), all_bounds(rj)):
                assert bs <= bj + 1e-12


class TestPdfPartialUserRegion:
    def test_no_private_power_collapses_to_joint(self):
        alloc = PdfAllocation(p10=0, p20=0, pu=2.0, pv=2.0, p13=1.0,
                              p23=1.0, c2=0.5, c3=0.25, d2=0.5, d3=0.25)
        rp = pdf_partial_user_region(SYM, SLOTS, alloc)
        rj = pdf_joint_region(SYM, SLOTS, alloc)
        assert all_bounds(rp) == pytest.approx(all_bounds(rj), abs=1e-14)

    def test_zero_power_all_zero(self):
        r = pdf_partial_user_region(SYM, SLOTS, ZERO_PDF)
        assert all(b == 0.0 for b in all_bounds(r))

    def test_strictly_below_joint_with_private_power(self):
        # k12=2 > k10=1 and p10=1: the private part decodes better at the
        # partner than at the destination, so partial decoding loses rate
        alloc = PdfAllocation(p10=1.0, p20=0.0, pu=1.0, pv=1.0, p13=0.5,
                              p23=0.5, c2=0.0, c3=0.0, d2=0.0, d3=0.0)
        rp = pdf_partial_user_region(SYM, SLOTS, alloc)
        rj = pdf_joint_region(SYM, SLOTS, alloc)
        assert rp.min_r1 < rj.min_r1 - 1e-6
        # decomposition oracle: the chain split of the joint term
        full = 0.2 * C(4.0 * 2.0)
        part = 0.2 * (C(4.0 * 1.0 / (4.0 * 1.0 + 1.0)) + C(1.0))
        assert rj.min_r1 - rp.min_r1 == pytest.approx(full - part, abs=1e-12)


class TestDfRegion:
    def test_worked_example(self):
        # oracles: hand evaluation of each cap
        alloc = DfAllocation(4.0, 4.0, 1.0, 1.0, 1.0, 1.0)
        r = df_region(SYM, SLOTS, alloc)
        assert r.min_r1 == pytest.approx(0.2 * C(16.0) + 0.6 * C(1.0), abs=1e-12)
        assert r.min_r1 == pytest.approx(0.70875, abs=5e-6)
        assert r.sum_bounds[0] == pytest.approx(0.4 * C(16.0) + 0.6 * C(2.0), abs=1e-12)
        assert r.sum_bounds[0] == pytest.approx(1.2930, abs=5e-5)
        assert r.sum_bounds[3] == pytest.approx(0.4 * C(4.0) + 0.6 * C(6.0), abs=1e-12)
        assert r.sum_bounds[3] == pytest.approx(1.3066, abs=5e-5)
        assert r.min_sum == pytest.approx(1.2930, abs=5e-5)
        poly = polygon_from_constraints(r)
        assert len(poly.vertices) == 5

    def test_no_coherent_power_shares_private_term(self):
        alloc = DfAllocation(4.0, 4.0, 1.0, 1.0, 0.0, 0.0)
        r = df_region(SYM, SLOTS, alloc)
        tail = 0.6 * C(2.0)
        t12 = 0.2 * C(16.0)
        t10 = 0.2 * C(4.0)
        assert r.sum_bounds[1] == pytest.approx(t10 + t12 + tail, abs=1e-12)
        assert r.sum_bounds[2] == pytest.approx(t12 + t10 + tail, abs=1e-12)
        assert r.sum_bounds[3] == pytest.approx(2 * t10 + tail, abs=1e-12)

    def test_zero_power_all_zero(self):
        r = df_region(SYM, SLOTS, ZERO_DF)
        assert all(b == 0.0 for b in all_bounds(r))


class TestGaussianOuterRegion:
    def test_gain_substitution(self):
        alloc = DfAllocation(4.0, 4.0, 1.0, 1.0, 1.0, 1.0)
        r = gaussian_outer_region(SYM, SLOTS, alloc)
        assert r.min_r1 == pytest.approx(0.2 * C(20.0) + 0.6 * C(1.0), abs=1e-12)
        assert r.min_r1 == pytest.approx(0.7392, abs=5e-5)
        assert len(r.sum_bounds) == 2

    def test_dead_interuser_links_still_dominate(self):
        g = ChannelGains(0.0, 0.0, 1.0, 1.0, 1.0)
        alloc = DfAllocation(4.0, 4.0, 1.0, 1.0, 1.0, 1.0)
        ro = gaussian_outer_region(g, SLOTS, alloc)
        rd = df_region(g, SLOTS, alloc)
        assert ro.min_r1 == pytest.approx(0.2 * C(4.0) + 0.6 * C(1.0), abs=1e-12)
        assert ro.min_r1 >= rd.min_r1

    def test_zero_power_all_zero(self):
        r = gaussian_outer_region(SYM, SLOTS, ZERO_DF)
        assert all(b == 0.0 for b in all_bounds(r))

    def test_df_contained_in_outer_random(self):
        rng = random.Random(3)
        for _ in range(50):
            slots, alloc = sample_allocation("DF", SYM, BUDGET, rng)
            pd = polygon_from_constraints(df_region(SYM, slots, alloc))
            po = polygon_from_constraints(gaussian_outer_region(SYM, slots, alloc))
            ok, slack = region_contains(po, pd, 1e-9)
            assert ok, f"containment violated by {slack}"


class TestDegradedOuterRegion:
    def test_zero_correlation_equals_outer(self):
        alloc = DfAllocation(4.0, 4.0, 1.0, 1.0, 1.0, 1.0)
        rd = degraded_outer_region(SYM, SLOTS, alloc, NoiseCorrelation(0.0, 0.0))
        ro = gaussian_outer_region(SYM, SLOTS, alloc)
        assert all_bounds(rd) == pytest.approx(all_bounds(ro), abs=1e-15)

    def test_matched_correlation_recovers_df_term(self):
        # rho1 = K10/K12 turns the joint-observation term back into the
        # inter-user term: (K12^2+K10^2-2K10^2)/(1-K10^2/K12^2) = K12^2
        alloc = DfAllocation(4.0, 4.0, 1.0, 1.0, 1.0, 1.0)
        rho = NoiseCorrelation(0.5, 0.5)
        rdeg = degraded_outer_region(SYM, SLOTS, alloc, rho)
        rdf = df_region(SYM, SLOTS, alloc)
        assert rdeg.min_r1 == pytest.approx(rdf.min_r1, abs=1e-12)
        assert rdeg.min_r2 == pytest.approx(rdf.min_r2, abs=1e-12)

    def test_high_correlation_formula(self):
        g = ChannelGains(1.0, 1.0, 1.0, 1.0, 1.0)
        alloc = DfAllocation(4.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        r = degraded_outer_region(g, SLOTS, alloc, NoiseCorrelation(0.9, 0.0))
        # (1 + 1 - 1.8) / (1 - 0.81) = 0.2 / 0.19
        expect = 0.2 * C(0.2 * 4.0 / 0.19)
        assert r.min_r1 == pytest.approx(expect, abs=1e-12)

    def test_unit_correlation_rejected(self):
        with pytest.raises(ValidationError):
            degraded_outer_region(SYM, SLOTS, ZERO_DF, NoiseCorrelation(1.0, 0.0))


class TestBaselines:
    def test_mac_pentagon(self):
        poly = baseline_region("MAC", SYM, BUDGET)
        assert max(v[0] for v in poly.vertices) == pytest.approx(C(2.0), abs=1e-15)
        assert max(v[0] + v[1] for v in poly.vertices) == pytest.approx(C(4.0), abs=1e-15)

    def test_mac_degenerate_axis(self):
        g = ChannelGains(0, 0, 0, 1, 1)
        poly = baseline_region("MAC", g, BUDGET)
        assert all(v[0] == 0.0 for v in poly.vertices)

    def test_tdma_corner(self):
        poly = baseline_region("TDMA", SYM, BUDGET)
        corner = (0.5 * C(4.0), 0.5 * C(4.0))
        assert corner in poly.vertices
        assert round(corner[0], 4) == 0.5805

    @pytest.mark.parametrize("k10, k20, noise, p1, p2", [
        # rounding puts the half-slot corner's r1 (r2) one ulp past the
        # single-user rate, a subnormal number
        (3.44983169942676e-10, 1.1204963743328163e-06, 46.043004078624286,
         4.6260170409949625e-288, 1.0833699587697157e+189),
        (0.4414865677725715, 3.2373054076460123e-06, 75.08981093067608,
         1.2790053424783086e+58, 9.265676264434478e-299),
    ])
    def test_tdma_subnormal_corner_stays_inside(self, k10, k20, noise, p1, p2):
        poly = baseline_region("TDMA", ChannelGains(0.0, 0.0, k10, k20, noise), PowerBudget(p1, p2))
        assert max(x for x, _ in poly.vertices) == C(k10 ** 2 * p1 / noise)
        assert max(y for _, y in poly.vertices) == C(k20 ** 2 * p2 / noise)
        assert len(poly.vertices) == 4
        assert convex_hull_ccw(poly.vertices) == poly.vertices

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            baseline_region("FDMA", SYM, BUDGET)


class TestRoundOffGuards:
    """CHECKED_OPS = (_term, _gmean) read a negative numerator or product
    within the round-off clamp (-1e-12) as 0 and reject one below it."""

    def test_term_clamps_a_slightly_negative_numerator(self):
        term, _ = CHECKED_OPS
        assert term(0.5, -1e-13, 1.0) == 0.0
        assert term(0.5, -1e-12, 2.0) == 0.0

    def test_term_rejects_a_numerator_below_the_clamp(self):
        term, _ = CHECKED_OPS
        with pytest.raises(ValidationError, match="negative SNR numerator -2e-12"):
            term(0.5, -2e-12, 1.0)

    def test_gmean_clamps_a_slightly_negative_product(self):
        _, gmean = CHECKED_OPS
        assert gmean(-1e-13, 1.0) == 0.0
        assert gmean(2.0, -5e-13) == 0.0

    def test_gmean_rejects_a_product_below_the_clamp(self):
        _, gmean = CHECKED_OPS
        with pytest.raises(ValidationError, match="sqrt argument -2e-12 below round-off clamp"):
            gmean(-1e-12, 2.0)


class TestCrossRegionInvariants:
    def test_pdf_joint_reproduces_mac_baseline(self):
        slots = TimeSlots(0.0, 0.0, 1.0)
        alloc = PdfAllocation(0, 0, 0, 0, 2.0, 2.0, 0, 0, 0, 0)
        poly = polygon_from_constraints(pdf_joint_region(SYM, slots, alloc))
        base = baseline_region("MAC", SYM, BUDGET)
        assert len(poly.vertices) == len(base.vertices)
        for va, vb in zip(poly.vertices, base.vertices):
            assert va == pytest.approx(vb, abs=1e-15)

    def test_separate_polygon_inside_joint_polygon(self):
        rng = random.Random(5)
        for _ in range(50):
            slots, alloc = sample_allocation("PDF_JOINT", SYM, BUDGET, rng)
            pj = polygon_from_constraints(pdf_joint_region(SYM, slots, alloc))
            ps = polygon_from_constraints(pdf_separate_region(SYM, slots, alloc))
            ok, slack = region_contains(pj, ps, 1e-9)
            assert ok, f"violated by {slack}"

    @pytest.mark.parametrize("field", ["p12", "p21", "p13", "p23", "ps1", "ps2"])
    def test_df_bounds_monotone_in_powers(self, field):
        rng = random.Random(13)
        for _ in range(20):
            slots, alloc = sample_allocation("DF", SYM, BUDGET, rng)
            bumped = DfAllocation(**{**alloc.__dict__, field: getattr(alloc, field) + 0.5})
            r0 = df_region(SYM, slots, alloc)
            r1 = df_region(SYM, slots, bumped)
            for b0, b1 in zip(all_bounds(r0), all_bounds(r1)):
                assert b1 >= b0 - 1e-12

    def test_df_bounds_monotone_in_noise_reciprocal(self):
        rng = random.Random(17)
        slots, alloc = sample_allocation("DF", SYM, BUDGET, rng)
        quieter = ChannelGains(2.0, 2.0, 1.0, 1.0, 0.5)
        r0 = df_region(SYM, slots, alloc)
        r1 = df_region(quieter, slots, alloc)
        for b0, b1 in zip(all_bounds(r0), all_bounds(r1)):
            assert b1 >= b0 - 1e-12

    def test_df_bounds_match_covariance_mi_oracle(self):
        # independent oracle: build the slot signal covariances numerically
        # and evaluate every mutual-information term by determinants
        g = ChannelGains(2.0, 1.7, 0.9, 1.3, 0.8)
        slots = TimeSlots(0.25, 0.15, 0.6)
        a = DfAllocation(p12=3.1, p21=2.4, p13=0.7, p23=1.1, ps1=0.9, ps2=0.4)
        n = g.noise
        r = df_region(g, slots, a)

        # slot 1: (X12, Y1, Y12)
        cov1 = np.array([
            [a.p12, g.k10 * a.p12, g.k12 * a.p12],
            [g.k10 * a.p12, g.k10 ** 2 * a.p12 + n, g.k10 * g.k12 * a.p12],
            [g.k12 * a.p12, g.k10 * g.k12 * a.p12, g.k12 ** 2 * a.p12 + n],
        ])
        i_x12_y12 = gaussian_conditional_mi_bits(cov1, (0,), (2,))
        i_x12_y1 = gaussian_conditional_mi_bits(cov1, (0,), (1,))
        cov2 = np.array([
            [a.p21, g.k20 * a.p21, g.k21 * a.p21],
            [g.k20 * a.p21, g.k20 ** 2 * a.p21 + n, g.k20 * g.k21 * a.p21],
            [g.k21 * a.p21, g.k20 * g.k21 * a.p21, g.k21 ** 2 * a.p21 + n],
        ])
        i_x21_y21 = gaussian_conditional_mi_bits(cov2, (0,), (2,))
        i_x21_y2 = gaussian_conditional_mi_bits(cov2, (0,), (1,))

        # slot 3: (X13, X23, S, Y3) under the shared coherent symbol
        v13 = a.p13 + a.ps1
        v23 = a.p23 + a.ps2
        c_x = math.sqrt(a.ps1 * a.ps2)
        cov3 = np.zeros((4, 4))
        cov3[0, 0] = v13
        cov3[1, 1] = v23
        cov3[0, 1] = cov3[1, 0] = c_x
        cov3[2, 2] = 1.0
        cov3[0, 2] = cov3[2, 0] = math.sqrt(a.ps1)
        cov3[1, 2] = cov3[2, 1] = math.sqrt(a.ps2)
        h = (g.k10, g.k20)
        for i in range(3):
            cov3[i, 3] = cov3[3, i] = h[0] * cov3[i, 0] + h[1] * cov3[i, 1]
        cov3[3, 3] = (h[0] ** 2 * v13 + h[1] ** 2 * v23 + 2 * h[0] * h[1] * c_x + n)

        t_b1 = gaussian_conditional_mi_bits(cov3, (0,), (3,), (1, 2))
        t_b2 = gaussian_conditional_mi_bits(cov3, (1,), (3,), (0, 2))
        t_s = gaussian_conditional_mi_bits(cov3, (0, 1), (3,), (2,))
        t_all = gaussian_conditional_mi_bits(cov3, (0, 1), (3,))

        a1, a2, a3 = slots.a1, slots.a2, slots.a3
        assert r.r1_bounds[0] == pytest.approx(a1 * i_x12_y12 + a3 * t_b1, abs=1e-9)
        assert r.r2_bounds[0] == pytest.approx(a2 * i_x21_y21 + a3 * t_b2, abs=1e-9)
        assert r.sum_bounds[0] == pytest.approx(
            a1 * i_x12_y12 + a2 * i_x21_y21 + a3 * t_s, abs=1e-9)
        assert r.sum_bounds[1] == pytest.approx(
            a1 * i_x12_y1 + a2 * i_x21_y21 + a3 * t_all, abs=1e-9)
        assert r.sum_bounds[2] == pytest.approx(
            a1 * i_x12_y12 + a2 * i_x21_y2 + a3 * t_all, abs=1e-9)
        assert r.sum_bounds[3] == pytest.approx(
            a1 * i_x12_y1 + a2 * i_x21_y2 + a3 * t_all, abs=1e-9)

    def test_pdf_joint_bounds_match_covariance_mi_oracle(self):
        g = ChannelGains(1.9, 2.3, 1.1, 0.8, 1.2)
        slots = TimeSlots(0.2, 0.3, 0.5)
        a = PdfAllocation(p10=0.6, p20=0.4, pu=1.8, pv=2.2, p13=0.9, p23=0.5,
                          c2=0.7, c3=0.2, d2=0.5, d3=0.3)
        n = g.noise
        r = pdf_joint_region(g, slots, a)

        def slot_start_cov(p_priv, p_pub, k_cross, k_direct):
            # (X, U, Y_cross, Y_direct) for one user's transmit slot
            vx = p_priv + p_pub
            cov = np.zeros((4, 4))
            cov[0, 0] = vx
            cov[1, 1] = 1.0
            cov[0, 1] = cov[1, 0] = math.sqrt(p_pub)
            for i, k in ((2, k_cross), (3, k_direct)):
                cov[0, i] = cov[i, 0] = k * vx
                cov[1, i] = cov[i, 1] = k * math.sqrt(p_pub)
            cov[2, 2] = k_cross ** 2 * vx + n
            cov[3, 3] = k_direct ** 2 * vx + n
            cov[2, 3] = cov[3, 2] = k_cross * k_direct * vx
            return cov

        cov1 = slot_start_cov(a.p10, a.pu, g.k12, g.k10)
        cov2 = slot_start_cov(a.p20, a.pv, g.k21, g.k20)
        i_12 = gaussian_conditional_mi_bits(cov1, (0,), (2,))
        i_10 = gaussian_conditional_mi_bits(cov1, (0,), (3,))
        i_21 = gaussian_conditional_mi_bits(cov2, (0,), (2,))
        i_20 = gaussian_conditional_mi_bits(cov2, (0,), (3,))

        # slot 3: (X13, X23, U, V, Y3)
        ac2, ac3 = a.c2 * a.pu, a.c3 * a.pv
        ad2, ad3 = a.d2 * a.pv, a.d3 * a.pu
        v13 = a.p13 + ac2 + ac3
        v23 = a.p23 + ad2 + ad3
        cov3 = np.zeros((5, 5))
        cov3[0, 0] = v13
        cov3[1, 1] = v23
        cov3[0, 1] = cov3[1, 0] = math.sqrt(ac2 * ad3) + math.sqrt(ac3 * ad2)
        cov3[2, 2] = cov3[3, 3] = 1.0
        cov3[0, 2] = cov3[2, 0] = math.sqrt(ac2)
        cov3[0, 3] = cov3[3, 0] = math.sqrt(ac3)
        cov3[1, 2] = cov3[2, 1] = math.sqrt(ad3)
        cov3[1, 3] = cov3[3, 1] = math.sqrt(ad2)
        h = (g.k10, g.k20)
        for i in range(4):
            cov3[i, 4] = cov3[4, i] = h[0] * cov3[i, 0] + h[1] * cov3[i, 1]
        cov3[4, 4] = (h[0] ** 2 * v13 + h[1] ** 2 * v23
                      + 2 * h[0] * h[1] * cov3[0, 1] + n)

        t_b1 = gaussian_conditional_mi_bits(cov3, (0,), (4,), (1, 2, 3))
        t_uv = gaussian_conditional_mi_bits(cov3, (0, 1), (4,), (2, 3))
        t_v = gaussian_conditional_mi_bits(cov3, (0, 1), (4,), (3,))
        t_u = gaussian_conditional_mi_bits(cov3, (0, 1), (4,), (2,))
        t_all = gaussian_conditional_mi_bits(cov3, (0, 1), (4,))

        a1, a2, a3 = slots.a1, slots.a2, slots.a3
        assert r.r1_bounds[0] == pytest.approx(a1 * i_12 + a3 * t_b1, abs=1e-9)
        assert r.sum_bounds[0] == pytest.approx(a1 * i_12 + a2 * i_21 + a3 * t_uv,
                                                abs=1e-9)
        assert r.sum_bounds[1] == pytest.approx(a1 * i_10 + a2 * i_21 + a3 * t_v,
                                                abs=1e-9)
        assert r.sum_bounds[2] == pytest.approx(a1 * i_12 + a2 * i_20 + a3 * t_u,
                                                abs=1e-9)
        assert r.sum_bounds[3] == pytest.approx(a1 * i_10 + a2 * i_20 + a3 * t_all,
                                                abs=1e-9)

    @pytest.mark.parametrize("field", ["p10", "p20", "pu", "pv", "p13", "p23",
                                       "c2", "c3", "d2", "d3"])
    def test_pdf_bounds_monotone_in_every_field(self, field):
        rng = random.Random(19)
        for region_fn in (pdf_joint_region, pdf_separate_region,
                          pdf_partial_user_region):
            slots, alloc = sample_allocation("PDF_JOINT", SYM, BUDGET, rng,
                                             interior=True)
            bumped = PdfAllocation(**{**alloc.__dict__,
                                      field: getattr(alloc, field) + 0.4})
            r0 = region_fn(SYM, slots, alloc)
            r1 = region_fn(SYM, slots, bumped)
            for b0, b1 in zip(all_bounds(r0), all_bounds(r1)):
                assert b1 >= b0 - 1e-12, (region_fn.__name__, field)


# ---------------------------------------------------------------------------
# the formula kernels
# ---------------------------------------------------------------------------

G_ASYM = ChannelGains(2.0, 1.7, 0.9, 1.3, 0.8)
G_WEAK = ChannelGains(0.6, 1.7, 0.9, 1.3, 0.8)  # k12 < k10
SLOTS_ASYM = TimeSlots(0.25, 0.15, 0.6)
PDF_A = PdfAllocation(p10=0.4, p20=0.7, pu=1.1, pv=0.9, p13=0.5, p23=0.3,
                      c2=0.6, c3=0.2, d2=0.5, d3=0.3)
DF_A = DfAllocation(p12=3.1, p21=2.4, p13=0.7, p23=1.1, ps1=0.9, ps2=0.4)
RHO = NoiseCorrelation(0.3, -0.2)

# (r1_bounds, r2_bounds, sum_bounds) recorded from the hand-written
# per-scheme formulas that the kernels replaced
GOLDEN = {
    "pdf_joint": (
        lambda: pdf_joint_region(G_ASYM, SLOTS_ASYM, PDF_A),
        ((0.5632212275590722,), (0.419552566308334,),
         (0.9223124896463404, 1.0589009334086912, 1.1570036675603235, 1.1583406816576793))),
    "pdf_separate": (
        lambda: pdf_separate_region(G_ASYM, SLOTS_ASYM, PDF_A),
        ((0.5632212275590722,), (0.419552566308334,),
         (0.9223124896463404, 0.9536337080093907, 1.095404810257399, 0.9914745989554544))),
    "pdf_separate_weak_link": (
        lambda: pdf_separate_region(G_WEAK, SLOTS_ASYM, PDF_A),
        ((0.27030850934908107,), (0.419552566308334,),
         (0.6293997714363493, 0.9221607991520051, 0.8024920920474079, 0.9600016900980688))),
    "pdf_partial": (
        lambda: pdf_partial_user_region(G_ASYM, SLOTS_ASYM, PDF_A),
        ((0.4264221812747029,), (0.3813367324667706,),
         (0.7472976095204078, 1.0206850995671277, 1.0202046212759541, 1.1583406816576793))),
    "df": (
        lambda: df_region(G_ASYM, SLOTS_ASYM, DF_A),
        ((0.7374316662692072,), (0.7653572533525417,),
         (1.3545653166617408, 1.3762476396907408, 1.575261063416176, 1.3258611866991536))),
    "outer": (
        lambda: gaussian_outer_region(G_ASYM, SLOTS_ASYM, DF_A),
        ((0.7688363013988734,), (0.8109684080739088,), (1.4315811065127741, 1.3258611866991536))),
    "degraded": (
        lambda: degraded_outer_region(G_ASYM, SLOTS_ASYM, DF_A, RHO),
        ((0.7415724060997457,), (0.8330378422796645,), (1.4263866454194023, 1.3258611866991536))),
    "pdf_joint_a1_zero": (
        lambda: pdf_joint_region(G_ASYM, TimeSlots(0.0, 0.4, 0.6), PDF_A),
        ((0.17728837240277978,), (0.7647132254785365,),
         (0.8815402936602506, 1.237473100873818, 1.0374371711323374, 1.2581185486809099))),
    "pdf_separate_a3_zero": (
        lambda: pdf_separate_region(G_ASYM, TimeSlots(0.7, 0.3, 0.0), PDF_A),
        ((1.0806119944376187,), (0.41419279100424283,),
         (1.4948047854418616, 0.5858923366604134, 1.2770539103057372, 0.36814146152428895))),
    "pdf_partial_a2_zero": (
        lambda: pdf_partial_user_region(G_ASYM, TimeSlots(0.5, 0.0, 0.5), PDF_A),
        ((0.646007928079496,), (0.17704680900517714,),
         (0.7726703169004517, 0.9041903552447297, 1.0076434487163857, 1.0264539623398345))),
    "df_a3_zero": (
        lambda: df_region(G_ASYM, TimeSlots(0.6, 0.4, 0.0), DF_A),
        ((1.213318235807536,), (0.6547031779404233,),
         (1.8680214137479594, 1.2694617096271057, 1.7336575391037274, 1.135097834982874))),
    "outer_a1_zero": (
        lambda: gaussian_outer_region(G_ASYM, TimeSlots(0.0, 0.35, 0.65), DF_A),
        ((0.25120593479518394,), (1.2424551668080168,), (1.3330855317298589, 1.4027634967911566))),
    "degraded_a2_zero": (
        lambda: degraded_outer_region(G_ASYM, TimeSlots(0.45, 0.0, 0.55), DF_A, RHO),
        ((1.1300008764542386,), (0.4765232648228094,), (1.4706525052303738, 1.2627714118786182))),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_region_values(case):
    build, (r1, r2, sums) = GOLDEN[case]
    region = build()
    assert len(region.sum_bounds) == len(sums)
    for got, want in zip(all_bounds(region), r1 + r2 + sums):
        assert got == pytest.approx(want, abs=1e-13)


_SCHEMES = ("PDF_JOINT", "PDF_SEPARATE", "PDF_PARTIAL", "DF", "OUTER", "DEGRADED")
_unit = st.sampled_from((0.0, 1.0)) | st.floats(1e-3, 1.0)
_power = st.sampled_from((0.0,)) | st.floats(1e-3, 5.0)


@st.composite
def _kernel_cases(draw):
    """(scheme, gains, slots, allocation, rho) with some slots of zero length."""
    scheme = draw(st.sampled_from(_SCHEMES))
    g = ChannelGains(*(draw(st.floats(0.0, 3.0)) for _ in range(4)),
                     noise=draw(st.floats(0.1, 4.0)))
    a1 = draw(st.sampled_from((0.0, 1.0)) | st.floats(1e-3, 1.0))
    slots = TimeSlots.from_first_two(a1, (1.0 - a1) * draw(_unit))
    if scheme.startswith("PDF"):
        alloc = PdfAllocation(*(draw(_power) for _ in range(6)),
                              *(draw(_unit) for _ in range(4)))
    else:
        alloc = DfAllocation(*(draw(_power) for _ in range(6)))
    rho = NoiseCorrelation(draw(st.floats(-0.95, 0.95)), draw(st.floats(-0.95, 0.95)))
    return scheme, g, slots, alloc, rho


# Unchecked primitives on Python floats and on numpy arrays: the kernels
# must run on any number type that supports their arithmetic.
FLOAT_OPS = (lambda alpha, num, noise: C(num / noise) * alpha if alpha > 0.0 else 0.0,
             lambda x, y: math.sqrt(x * y))
ARRAY_OPS = (lambda alpha, num, noise: 0.5 * alpha * np.log1p(num / noise) / math.log(2.0),
             lambda x, y: np.sqrt(x * y))


def _kernel_run(scheme, g, slots, alloc, rho, ops, wrap):
    """Evaluate the scheme's kernel directly; wrap(v) turns each input into
    a float or an array."""
    a = [wrap(v) for v in (slots.a1, slots.a2, slots.a3)]
    if scheme.startswith("PDF"):
        powers = (alloc.pu, alloc.p10, alloc.pv, alloc.p20, alloc.p13, alloc.p23,
                  alloc.c2 * alloc.pu, alloc.c3 * alloc.pv, alloc.d2 * alloc.pv,
                  alloc.d3 * alloc.pu)
        return pdf_caps(scheme, pdf_gains(g), *a, [wrap(p) for p in powers], ops)
    powers = (alloc.p12, alloc.p21, alloc.p13, alloc.p23, alloc.ps1, alloc.ps2)
    return df_caps(scheme, df_gains(scheme, g, rho), *a, [wrap(p) for p in powers], ops)


@settings(max_examples=300, deadline=None)
@given(_kernel_cases())
def test_array_and_scalar_kernels_match_region_wrappers(case):
    scheme, g, slots, alloc, rho = case
    region = scheme_region(scheme, g, slots, alloc, rho=rho)
    want = all_bounds(region)
    r1, r2, sums = _kernel_run(scheme, g, slots, alloc, rho, FLOAT_OPS, float)
    assert len(sums) == len(region.sum_bounds)
    for got, ref in zip((r1, r2) + tuple(sums), want):
        assert isinstance(got, float)
        assert got == pytest.approx(ref, abs=1e-12)
    r1, r2, sums = _kernel_run(scheme, g, slots, alloc, rho, ARRAY_OPS,
                               lambda v: np.full(3, v))
    for got, ref in zip((r1, r2) + tuple(sums), want):
        assert got.shape == (3,)
        assert np.all(np.abs(got - ref) <= 1e-12)
