import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hdmac import dmc
from hdmac.core import TimeSlots, ValidationError
from hdmac.dmc import (
    DfInputDistribution,
    OuterInputDistribution,
    PdfInputDistribution,
    SlotChannels,
    df_region,
    extend_pdf_to_outer,
    mutual_information,
    outer_region,
    pdf_joint_region,
    pdf_separate_region,
)
from hdmac.scenario import parse_scenario
from helpers import (
    dmc_region_values,
    naive_conditional_mi,
    random_df_input,
    random_dmc_instance,
    random_outer_input,
    random_pdf_input,
    random_slot_channels,
)

THIRDS = TimeSlots(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def noiseless_channels():
    """Each slot output copies its input (binary everywhere)."""
    eye = np.eye(2)
    s1 = np.zeros((2, 2, 2))
    s2 = np.zeros((2, 2, 2))
    for x in range(2):
        s1[x, x, x] = 1.0
        s2[x, x, x] = 1.0
    s3 = np.zeros((2, 2, 2))
    for x13 in range(2):
        for x23 in range(2):
            s3[x13, x23, (x13 + x23) % 2] = 1.0
    return SlotChannels(s1, s2, s3)


def uniform_pdf_input():
    a = np.full((2, 2), 0.25)
    c = np.full((2, 2, 2), 0.5)
    return PdfInputDistribution(a, a.copy(), c, c.copy())


def point_mass_pdf_input():
    a = np.zeros((2, 2))
    a[0, 0] = 1.0
    c = np.zeros((2, 2, 2))
    c[:, :, 0] = 1.0
    return PdfInputDistribution(a, a.copy(), c, c.copy())


class TestMutualInformation:
    def test_independent_uniform_is_zero(self):
        joint = np.full((2, 2), 0.25)
        assert mutual_information(joint, 0, 1) == pytest.approx(0.0, abs=1e-15)

    def test_identity_channel_is_one_bit(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(joint, 0, 1) == pytest.approx(1.0, abs=1e-15)

    def test_binary_symmetric_channel(self):
        # oracle: 1 - H2(eps) with the binary entropy evaluated directly
        eps = 0.11
        joint = 0.5 * np.array([[1 - eps, eps], [eps, 1 - eps]])
        h2 = -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
        assert mutual_information(joint, 0, 1) == pytest.approx(1.0 - h2, abs=1e-12)
        assert 1.0 - h2 == pytest.approx(0.500084, abs=5e-7)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            mutual_information(np.full((2, 2), 0.3), 0, 1)

    def test_overlapping_axes_rejected(self):
        with pytest.raises(ValidationError):
            mutual_information(np.full((2, 2), 0.25), 0, 0)

    @pytest.mark.parametrize("a_axes, group", [((0.7,), "a_axes"), (0.7, "a_axes"),
                                                ((True,), "a_axes"), (True, "a_axes"),
                                                ("0", "a_axes"), (None, "a_axes")],
                             ids=["float_in_tuple", "bare_float", "bool_in_tuple", "bare_bool",
                                  "string", "none"])
    def test_non_integer_axis_rejected(self, a_axes, group):
        with pytest.raises(ValidationError, match=group):
            mutual_information(np.array([[0.5, 0.0], [0.0, 0.5]]), a_axes, (1,))

    def test_numpy_integer_axes_accepted(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(joint, np.int64(0), (np.int32(1),)) == mutual_information(
            joint, 0, 1)

    def test_matches_naive_oracle_on_random_joints(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            joint = rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2)
            for (a, b, c) in [((0,), (1,), ()), ((0,), (2,), (1,)),
                              ((0, 1), (3,), (2,)), ((0,), (1, 2), (3,))]:
                got = mutual_information(joint, a, b, c)
                want = naive_conditional_mi(joint, a, b, c)
                assert got == pytest.approx(want, abs=1e-12)

    def test_chain_rule(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            joint = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
            lhs = mutual_information(joint, 0, (1, 2))
            rhs = (mutual_information(joint, 0, 2)
                   + mutual_information(joint, 0, 1, (2,)))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            joint = rng.dirichlet(np.ones(6)).reshape(2, 3)
            i_ab = mutual_information(joint, 0, 1)
            i_ba = mutual_information(joint, 1, 0)
            assert i_ab == pytest.approx(i_ba, abs=1e-12)
            assert -1e-12 <= i_ab <= math.log2(2) + 1e-12


class TestSlotChannelTypes:
    def test_unnormalized_channel_rejected(self):
        s1 = np.full((2, 2, 2), 0.3)
        with pytest.raises(ValidationError):
            SlotChannels(s1, s1, np.full((2, 2, 2), 0.5))

    def test_alphabet_cap(self):
        big = np.full((5, 2, 2), 0.25)
        ok = np.full((2, 2, 2), 0.25)
        with pytest.raises(ValidationError):
            SlotChannels(big, ok, ok)

    def test_mismatched_input_dist_rejected(self):
        ch = noiseless_channels()
        bad = PdfInputDistribution(
            np.full((3, 2), 1.0 / 6.0), np.full((2, 2), 0.25),
            np.full((2, 2, 2), 0.5), np.full((2, 2, 2), 0.5))
        with pytest.raises(ValidationError):
            pdf_joint_region(ch, bad, THIRDS)

    @pytest.mark.parametrize("record, field, shape", [
        (random_pdf_input, "pmf_x13_given_uv", (3, 2, 2)),
        (random_df_input, "pmf_x23_given_s", (3, 2)),
        (random_outer_input, "pmf_x13_given_uvx10", (2, 2, 3, 2)),
    ])
    def test_shared_alphabet_mismatch_rejected(self, record, field, shape):
        base = record(np.random.default_rng(1))
        with pytest.raises(ValidationError):
            dataclasses.replace(base, **{field: np.full(shape, 1.0 / shape[-1])})

    @pytest.mark.parametrize("field, shape", [("pmf_x21", (3,)), ("pmf_x13_given_s", (2, 3))])
    def test_mismatched_df_input_rejected(self, field, shape):
        ch = noiseless_channels()
        base = DfInputDistribution(np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                                   np.array([0.5, 0.5]), np.full((2, 2), 0.5),
                                   np.full((2, 2), 0.5))
        bad = dataclasses.replace(base, **{field: np.full(shape, 1.0 / shape[-1])})
        with pytest.raises(ValidationError):
            df_region(ch, bad, THIRDS)


class TestPdfJointRegionDmc:
    def test_noiseless_uniform(self):
        ch = noiseless_channels()
        dist = uniform_pdf_input()
        r = pdf_joint_region(ch, dist, THIRDS)
        # slot-1 term is one full bit; slot-3 term from the naive oracle
        p_u = dist.pmf_x10_u.sum(axis=0)
        p_v = dist.pmf_x20_v.sum(axis=0)
        j3 = np.einsum("u,v,uvx,uvy,xyz->uvxyz", p_u, p_v,
                       dist.pmf_x13_given_uv, dist.pmf_x23_given_uv, ch.slot3)
        t = naive_conditional_mi(j3, (2,), (4,), (0, 1, 3))
        assert r.min_r1 == pytest.approx((1.0 + t) / 3.0, abs=1e-12)

    def test_dead_third_slot(self):
        ch = noiseless_channels()
        s3 = np.full((2, 2, 2), 0.5)  # output independent of both inputs
        ch = SlotChannels(ch.slot1, ch.slot2, s3)
        dist = uniform_pdf_input()
        r = pdf_joint_region(ch, dist, THIRDS)
        assert r.min_r1 == pytest.approx(1.0 / 3.0, abs=1e-12)
        # last sum cap reduces to the slot-1/2 direct terms
        j1 = np.einsum("xu,xab->xuab", dist.pmf_x10_u, ch.slot1)
        i1 = naive_conditional_mi(j1, (0,), (2,))
        assert r.sum_bounds[3] == pytest.approx(2.0 * i1 / 3.0, abs=1e-12)

    def test_point_mass_inputs_zero(self):
        ch = noiseless_channels()
        r = pdf_joint_region(ch, point_mass_pdf_input(), THIRDS)
        for b in r.r1_bounds + r.r2_bounds + r.sum_bounds:
            assert b == pytest.approx(0.0, abs=1e-12)


class TestPdfSeparateRegionDmc:
    def test_first_three_caps_match_joint(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ch = random_slot_channels(rng)
            dist = random_pdf_input(rng)
            rj = pdf_joint_region(ch, dist, THIRDS)
            rs = pdf_separate_region(ch, dist, THIRDS)
            assert rs.r1_bounds[0] == pytest.approx(rj.r1_bounds[0], abs=1e-12)
            assert rs.r2_bounds[0] == pytest.approx(rj.r2_bounds[0], abs=1e-12)
            assert rs.sum_bounds[0] == pytest.approx(rj.sum_bounds[0], abs=1e-12)

    def test_last_three_caps_never_exceed_joint(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            ch = random_slot_channels(rng)
            dist = random_pdf_input(rng)
            rj = pdf_joint_region(ch, dist, THIRDS)
            rs = pdf_separate_region(ch, dist, THIRDS)
            for k in (1, 2, 3):
                assert rs.sum_bounds[k] <= rj.sum_bounds[k] + 1e-12

    def test_point_mass_inputs_zero(self):
        ch = noiseless_channels()
        r = pdf_separate_region(ch, point_mass_pdf_input(), THIRDS)
        for b in r.r1_bounds + r.r2_bounds + r.sum_bounds:
            assert b == pytest.approx(0.0, abs=1e-12)


class TestDfRegionDmc:
    def test_constant_s_drops_conditioning(self):
        rng = np.random.default_rng(11)
        ch = random_slot_channels(rng)
        base = random_df_input(rng)
        dist = DfInputDistribution(base.pmf_x12, base.pmf_x21, np.array([1.0]),
                                   base.pmf_x13_given_s[:1], base.pmf_x23_given_s[:1])
        r = df_region(ch, dist, THIRDS)
        # with S a point mass the conditioned slot-3 sum term equals the
        # unconditioned one, so caps 3 and 6 differ only in slot-1/2 terms
        j1 = np.einsum("x,xab->xab", dist.pmf_x12, ch.slot1)
        j2 = np.einsum("x,xab->xab", dist.pmf_x21, ch.slot2)
        d1 = naive_conditional_mi(j1, (0,), (2,)) - naive_conditional_mi(j1, (0,), (1,))
        d2 = naive_conditional_mi(j2, (0,), (2,)) - naive_conditional_mi(j2, (0,), (1,))
        assert r.sum_bounds[0] - r.sum_bounds[3] == pytest.approx((d1 + d2) / 3.0, abs=1e-12)

    def test_noiseless_uniform_sum_cap(self):
        ch = noiseless_channels()
        dist = DfInputDistribution(np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                                   np.array([0.5, 0.5]), np.full((2, 2), 0.5),
                                   np.full((2, 2), 0.5))
        r = df_region(ch, dist, THIRDS)
        j3 = np.einsum("s,sx,sy,xyz->sxyz", dist.pmf_s, dist.pmf_x13_given_s,
                       dist.pmf_x23_given_s, ch.slot3)
        t = naive_conditional_mi(j3, (1, 2), (3,), (0,))
        assert r.sum_bounds[0] == pytest.approx((1.0 + 1.0 + t) / 3.0, abs=1e-12)

    def test_dead_interuser_link(self):
        ch = noiseless_channels()
        s1 = np.zeros((2, 2, 2))
        for x in range(2):
            s1[x, x, 0] = 0.5   # y12 independent of the input
            s1[x, x, 1] = 0.5
        ch = SlotChannels(s1, ch.slot2, ch.slot3)
        dist = DfInputDistribution(np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                                   np.array([0.5, 0.5]), np.full((2, 2), 0.5),
                                   np.full((2, 2), 0.5))
        r = df_region(ch, dist, THIRDS)
        j3 = np.einsum("s,sx,sy,xyz->sxyz", dist.pmf_s, dist.pmf_x13_given_s,
                       dist.pmf_x23_given_s, ch.slot3)
        t = naive_conditional_mi(j3, (1,), (3,), (0, 2))
        assert r.min_r1 == pytest.approx(t / 3.0, abs=1e-12)


class TestOuterRegionDmc:
    def test_constant_destination_output_collapses(self):
        # slot 1 with constant Y1: the joint-observation term equals the
        # inter-user term, so the outer r1 cap matches the achievable one
        rng = np.random.default_rng(13)
        s1 = np.zeros((2, 2, 2))
        row = rng.dirichlet(np.ones(2), size=2)
        for x in range(2):
            s1[x, 0, :] = row[x]
        ch0 = random_slot_channels(rng)
        ch = SlotChannels(s1, ch0.slot2, ch0.slot3)
        pdf = random_pdf_input(rng)
        outer = extend_pdf_to_outer(pdf)
        r_out = outer_region("pdf", ch, outer, THIRDS)
        r_ach = pdf_joint_region(ch, pdf, THIRDS)
        assert r_out.r1_bounds[0] == pytest.approx(r_ach.r1_bounds[0], abs=1e-12)

    def test_achievable_inside_outer_bound_by_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            ch = random_slot_channels(rng)
            pdf = random_pdf_input(rng)
            r_ach = pdf_joint_region(ch, pdf, THIRDS)
            r_out = outer_region("pdf", ch, extend_pdf_to_outer(pdf), THIRDS)
            for a, o in zip(r_ach.r1_bounds + r_ach.r2_bounds + r_ach.sum_bounds,
                            r_out.r1_bounds + r_out.r2_bounds + r_out.sum_bounds):
                assert a <= o + 1e-12

    def test_df_variant_keeps_four_caps(self):
        rng = np.random.default_rng(19)
        ch = random_slot_channels(rng)
        outer = random_outer_input(rng)
        r_pdf = outer_region("pdf", ch, outer, THIRDS)
        r_df = outer_region("df", ch, outer, THIRDS)
        assert len(r_pdf.sum_bounds) == 4
        assert len(r_df.sum_bounds) == 2
        assert r_df.sum_bounds[0] == pytest.approx(r_pdf.sum_bounds[0], abs=1e-15)
        assert r_df.sum_bounds[1] == pytest.approx(r_pdf.sum_bounds[3], abs=1e-15)

    def test_df_variant_skips_the_dropped_terms(self, monkeypatch):
        rng = np.random.default_rng(29)
        ch, outer = random_slot_channels(rng), random_outer_input(rng)
        calls = []
        real = dmc._mi
        monkeypatch.setattr(dmc, "_mi", lambda *args: calls.append(args) or real(*args))
        outer_region("df", ch, outer, THIRDS)
        # four slot-1/2 terms, then X13, X23, UV and the unconditioned sum
        assert len(calls) == 8

    def test_point_mass_inputs_zero(self):
        ch = noiseless_channels()
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        c = np.zeros((2, 2, 2, 2))
        c[:, :, :, 0] = 1.0
        dist = OuterInputDistribution(a, a.copy(), c, c.copy())
        r = outer_region("pdf", ch, dist, THIRDS)
        for b in r.r1_bounds + r.r2_bounds + r.sum_bounds:
            assert b == pytest.approx(0.0, abs=1e-12)


class TestMiTermsAgainstFullJointOracle:
    def test_every_region_term_matches_naive_summation(self):
        rng = np.random.default_rng(23)
        ch = random_slot_channels(rng)
        dist = random_pdf_input(rng)
        r = pdf_joint_region(ch, dist, THIRDS)
        j1 = np.einsum("xu,xab->xuab", dist.pmf_x10_u, ch.slot1)
        j2 = np.einsum("xv,xab->xvab", dist.pmf_x20_v, ch.slot2)
        p_u = dist.pmf_x10_u.sum(axis=0)
        p_v = dist.pmf_x20_v.sum(axis=0)
        j3 = np.einsum("u,v,uvx,uvy,xyz->uvxyz", p_u, p_v,
                       dist.pmf_x13_given_uv, dist.pmf_x23_given_uv, ch.slot3)
        third = 1.0 / 3.0
        r1 = third * (naive_conditional_mi(j1, (0,), (3,))
                      + naive_conditional_mi(j3, (2,), (4,), (0, 1, 3)))
        s4 = third * (naive_conditional_mi(j1, (0,), (2,))
                      + naive_conditional_mi(j2, (0,), (2,))
                      + naive_conditional_mi(j3, (2, 3), (4,)))
        assert r.r1_bounds[0] == pytest.approx(r1, abs=1e-12)
        assert r.sum_bounds[3] == pytest.approx(s4, abs=1e-12)


GOLDEN = json.loads((Path(__file__).parent / "data" / "dmc_golden.json").read_text())


def golden_instance(name):
    if name == "dmc_binary.yaml":
        text = (Path(__file__).parents[1] / "scenarios" / name).read_text(encoding="utf-8")
        sc = parse_scenario(text)
        d = sc.dmc
        return d.channels, d.pdf_input, d.df_input, d.outer_input, sc.slots
    return random_dmc_instance(np.random.default_rng(int(name.split()[1])))


class TestGoldenRegions:
    """tests/data/dmc_golden.json holds the five regions of the shipped
    binary scenario and of the instance random_dmc_instance draws from
    default_rng(seed) for each seed 0 ... 31 (alphabets of 1-4 symbols, some
    with slot 1, 2 or 3 empty), as the per-region compositions that preceded
    dmc._caps computed them."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_regions_match_recorded_bounds(self, name):
        got = dmc_region_values(*golden_instance(name))
        assert list(got) == list(GOLDEN[name])
        for region, caps in got.items():
            assert caps == pytest.approx(GOLDEN[name][region], rel=0, abs=1e-13), region
