import math
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdmac.core import (
    ChannelGains,
    PowerBudget,
    RatePolygon,
    TimeSlots,
    ValidationError,
    c_gauss,
    polygon_from_constraints,
    power_feasible,
    power_used,
)
from hdmac import optimize
from hdmac.gaussian import (
    ARRAY_OPS,
    SCALAR_OPS,
    NoiseCorrelation,
    baseline_region,
    df_caps,
    df_gains,
    df_region,
)
from hdmac.optimize import (
    SCHEMES,
    FrontierResult,
    OptResult,
    SearchConfig,
    frontier,
    optimize_scheme,
    region_contains,
    sample_allocation,
    scheme_region,
    upper_hull,
    weighted_best_vertex,
    _dual_caps,
    _evaluator,
    _phase1_xs,
    _search,
)

SYM = ChannelGains(2.0, 2.0, 1.0, 1.0, 1.0)
BUDGET = PowerBudget(2.0, 2.0)
FAST = SearchConfig(slot_grid=6, power_grid=5, refine_iters=20)


class TestWeightedBestVertex:
    SQUARE = RatePolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))

    def test_axis_weight_tie_breaks_to_larger_r2(self):
        vertex, value = weighted_best_vertex(self.SQUARE, (1.0, 0.0))
        assert vertex == (1.0, 1.0)
        assert value == pytest.approx(1.0)

    def test_equal_weights(self):
        vertex, value = weighted_best_vertex(self.SQUARE, (1.0, 1.0))
        assert vertex == (1.0, 1.0)
        assert value == pytest.approx(2.0)

    def test_df_pentagon_binding_sum(self):
        alloc_region = df_region(SYM, TimeSlots(0.2, 0.2, 0.6),
                                 __import__("hdmac").DfAllocation(4, 4, 1, 1, 1, 1))
        poly = polygon_from_constraints(alloc_region)
        _, value = weighted_best_vertex(poly, (1.0, 1.0))
        assert value == pytest.approx(1.2930, abs=5e-5)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValidationError):
            weighted_best_vertex(self.SQUARE, (0.0, 0.0))
        with pytest.raises(ValidationError):
            weighted_best_vertex(self.SQUARE, (-1.0, 1.0))


class TestUpperHull:
    def test_two_points_make_triangle(self):
        hull = upper_hull([(1.0, 0.0), (0.0, 1.0)])
        assert hull.vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))

    def test_dominated_point_removed(self):
        hull = upper_hull([(1.0, 0.0), (0.0, 1.0), (0.4, 0.4)])
        assert (0.4, 0.4) not in hull.vertices

    def test_pareto_point_kept(self):
        hull = upper_hull([(1.0, 0.0), (0.8, 0.8), (0.0, 1.0)])
        assert (0.8, 0.8) in hull.vertices
        # oracle: the cross product of the two boundary edges turns left
        cross = (0.8 - 1.0) * (1.0 - 0.8) - (0.8 - 0.0) * (0.0 - 0.8)
        assert cross > 0

    def test_single_origin(self):
        hull = upper_hull([(0.0, 0.0)])
        assert hull.vertices == ((0.0, 0.0),)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            upper_hull([])


class TestRegionContains:
    def test_polygon_contains_itself(self):
        poly = upper_hull([(1.0, 0.0), (0.7, 0.7), (0.0, 1.0)])
        ok, slack = region_contains(poly, poly, 0.0)
        assert ok
        assert slack == pytest.approx(0.0, abs=1e-12)

    def test_scaled_square_violates(self):
        unit = RatePolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
        big = RatePolygon(((0.0, 0.0), (1.01, 0.0), (1.01, 1.01), (0.0, 1.01)))
        ok, slack = region_contains(unit, big, 1e-9)
        assert not ok
        assert slack == pytest.approx(-0.01, abs=1e-12)

    def test_degenerate_outer_segment(self):
        seg = RatePolygon(((0.0, 0.0), (1.0, 0.0)))
        inner = RatePolygon(((0.5, 0.0),))
        ok, slack = region_contains(seg, inner, 1e-12)
        assert ok and slack == pytest.approx(0.0, abs=1e-15)
        ok, slack = region_contains(seg, RatePolygon(((0.5, 0.2),)), 1e-9)
        assert not ok
        assert slack == pytest.approx(-0.2, abs=1e-12)


class TestSearchConfig:
    @pytest.mark.parametrize("field, value", [("slot_grid", 3.5), ("power_grid", 2.5),
                                              ("refine_iters", 1.5)])
    def test_non_integer_grid_sizes_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            SearchConfig(**{field: value})


_unit = st.sampled_from((0.0, 1.0)) | st.floats(1e-3, 1.0)


@st.composite
def _search_points(draw):
    """(scheme, gains, budget, rho, x) with x in the search's unit cube and
    some slots of zero length."""
    scheme = draw(st.sampled_from(SCHEMES))
    g = ChannelGains(*(draw(st.floats(0.0, 3.0)) for _ in range(4)),
                     noise=draw(st.floats(0.1, 4.0)))
    budget = PowerBudget(draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0)))
    rho = NoiseCorrelation(draw(st.floats(-0.95, 0.95)), draw(st.floats(-0.95, 0.95)))
    a1 = draw(_unit)
    a2 = (1.0 - a1) * draw(_unit)
    dim = 4 if scheme in ("DF", "OUTER", "DEGRADED") else 8
    return scheme, g, budget, rho, (a1, a2, *(draw(_unit) for _ in range(dim)))


@settings(max_examples=300, deadline=None)
@given(_search_points())
def test_search_caps_match_scheme_region(case):
    scheme, g, budget, rho, x = case
    caps, alloc_of, _ = _evaluator(scheme, g, budget, rho)
    slots, alloc = alloc_of(x)
    region = scheme_region(scheme, g, slots, alloc, rho=rho)
    want = (region.min_r1, region.min_r2, region.min_sum)
    got = caps(x)
    for v, ref in zip(got, want):
        assert v == pytest.approx(ref, abs=1e-12)
    # the power identity: a user spends its whole budget unless neither its
    # own slot nor slot 3 has any length
    used = power_used("PDF" if scheme.startswith("PDF") else "DF", slots, alloc)
    for u, total, own in zip(used, (budget.p1, budget.p2), (slots.a1, slots.a2)):
        assert u == pytest.approx(total if own > 0.0 or slots.a3 > 0.0 else 0.0, rel=1e-9)
    # the same point as one column of the phase-1 array evaluation
    column = caps([np.full(2, v) for v in x], ARRAY_OPS)
    for v, ref in zip(column, got):
        assert np.all(np.abs(v - ref) <= 1e-12)


def _phase1_points_by_loop(scheme, dim, cfg):
    """Reference scan points, built one at a time in scan order."""
    steps = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)]
    base = [((cfg.seed + 1) * math.sqrt(41 + d)) % 1.0 for d in range(dim)]
    lattice = [tuple((base[d] + j * steps[d]) % 1.0 for d in range(dim))
               for j in range(1, cfg.power_grid ** 2 + 1)]
    levels = (0.0, 0.5, 1.0)
    if dim == 4:
        anchors = [(g1, h1, g2, h2) for g1 in levels for h1 in levels
                   for g2 in levels for h2 in levels]
    else:
        anchors = [(gv, 1.0, ta, tb1, gv, 1.0, ta, tb2)
                   for gv in (0.0, 0.25, 0.5, 0.75, 1.0) for ta in levels
                   for tb1 in levels for tb2 in levels]
        anchors += [(gv, sv, ta, 0.5, gv, sv, ta, 0.5)
                    for gv in levels for sv in (0.0, 0.5) for ta in levels]
    vals = [i / (cfg.slot_grid - 1) for i in range(cfg.slot_grid)]
    return [(a1, min(a2, 1.0 - a1)) + q for a1 in vals for a2 in vals
            if a1 + a2 <= 1.0 + 1e-12 for q in lattice + anchors]


@pytest.mark.parametrize("scheme, dim", [("DF", 4), ("PDF_JOINT", 8)])
@pytest.mark.parametrize("cfg", [SearchConfig(), FAST,
                                 SearchConfig(slot_grid=21, power_grid=15, seed=101)])
def test_phase1_points_match_loop_reference(scheme, dim, cfg):
    want = np.array(_phase1_points_by_loop(scheme, dim, cfg))
    assert np.array_equal(_phase1_xs(scheme, dim, cfg), want.T)


# (gains, budget, scheme, mu, seed, value, evaluations) recorded with the
# per-point Python phase-1 scan that the array scan replaced: the same scan
# points must start the local search.  refine_iters=0 leaves the scan and
# the polish, so any change in start selection shows in the value or count.
# DF is solved by the concave path, which runs no scan: its rows keep the
# searched value as a floor, and its result must not depend on the scan seed.
SKEWED = ChannelGains(3.0, 1.5, 1.0, 0.5, 1.0)
SKEWED_BUDGET = PowerBudget(1.0, 4.0)
PINNED_SCANS = [
    (SYM, BUDGET, "PDF_JOINT", (0.8, 0.6), 0, 0.9760415913246833, 88408),
    (SYM, BUDGET, "PDF_JOINT", (0.8, 0.6), 7, 0.9761422834505771, 88408),
    (SYM, BUDGET, "DF", (0.6, 0.8), 0, 0.9755309352333243, 71344),
    (SYM, BUDGET, "DF", (0.6, 0.8), 7, 0.9755606772178235, 71344),
    (SKEWED, SKEWED_BUDGET, "PDF_JOINT", (0.8, 0.6), 0, 0.7599821957038988, 88287),
    (SKEWED, SKEWED_BUDGET, "PDF_JOINT", (0.8, 0.6), 7, 0.7599821957038988, 88287),
    (SKEWED, SKEWED_BUDGET, "DF", (0.6, 0.8), 0, 0.7578441091491755, 71344),
    (SKEWED, SKEWED_BUDGET, "DF", (0.6, 0.8), 7, 0.7595146067617513, 71344),
]


@pytest.mark.parametrize("g, budget, scheme, mu, seed, value, evaluations", PINNED_SCANS)
def test_phase1_start_selection_is_pinned(g, budget, scheme, mu, seed, value, evaluations):
    cfg = SearchConfig(slot_grid=21, power_grid=15, refine_iters=0, seed=seed)
    res = optimize_scheme(g, budget, scheme, mu, cfg)
    if scheme == "DF":
        assert res.value >= value - 1e-12
        assert res == optimize_scheme(g, budget, scheme, mu, replace(cfg, seed=0))
    else:
        assert res.value == value
        assert res.evaluations == evaluations


class TestOptimizeScheme:
    def test_dead_interuser_links_recover_mac(self):
        g = ChannelGains(0.0, 0.0, 1.0, 1.0, 1.0)
        for scheme in ("PDF_JOINT", "DF"):
            res = optimize_scheme(g, BUDGET, scheme, (1.0, 1.0), FAST)
            assert res.value == pytest.approx(c_gauss(4.0), abs=1e-3)

    def test_single_user_weight_beats_mac_corner(self):
        g = ChannelGains(10.0, 10.0, 1.0, 1.0, 1.0)
        res = optimize_scheme(g, BUDGET, "DF", (1.0, 0.0), FAST)
        assert res.value >= c_gauss(2.0) - 1e-9

    def test_swap_symmetry_is_exact(self):
        res_a = optimize_scheme(SYM, BUDGET, "DF", (1.0, 0.0), FAST)
        res_b = optimize_scheme(SYM, BUDGET, "DF", (0.0, 1.0), FAST)
        assert res_b.vertex == (res_a.vertex[1], res_a.vertex[0])
        assert res_b.value == res_a.value
        assert res_b.slots.a1 == res_a.slots.a2
        assert res_b.allocation.p21 == res_a.allocation.p12

    def test_result_is_feasible_and_consistent(self):
        for scheme in ("PDF_JOINT", "PDF_SEPARATE", "PDF_PARTIAL", "DF", "OUTER"):
            res = optimize_scheme(SYM, BUDGET, scheme, (0.8, 0.6), FAST)
            kind = "PDF" if scheme.startswith("PDF") else "DF"
            _, _, ok = power_feasible(kind, res.slots, res.allocation, BUDGET)
            assert ok, scheme
            assert res.value == pytest.approx(
                0.8 * res.vertex[0] + 0.6 * res.vertex[1], abs=1e-9)
            # the reported vertex lies in the reported allocation's polygon
            region = scheme_region(scheme, SYM, res.slots, res.allocation)
            poly = polygon_from_constraints(region)
            _, best = weighted_best_vertex(poly, (0.8, 0.6))
            assert res.value == pytest.approx(best, abs=1e-9)

    def test_deterministic(self):
        a = optimize_scheme(SYM, BUDGET, "DF", (0.9, 0.4), FAST)
        b = optimize_scheme(SYM, BUDGET, "DF", (0.9, 0.4), FAST)
        assert a == b

    def test_budget_monotonicity(self):
        res1 = optimize_scheme(SYM, BUDGET, "DF", (1.0, 1.0), FAST)
        res2 = optimize_scheme(SYM, PowerBudget(4.0, 4.0), "DF", (1.0, 1.0), FAST)
        assert res2.value >= res1.value - 1e-6

    def test_degraded_requires_rho(self):
        with pytest.raises(ValidationError):
            optimize_scheme(SYM, BUDGET, "DEGRADED", (1.0, 1.0), FAST)

    def test_unknown_scheme(self):
        with pytest.raises(ValidationError):
            optimize_scheme(SYM, BUDGET, "CF", (1.0, 1.0), FAST)

    def test_extra_starts_never_hurt(self):
        rng = random.Random(0)
        starts = [sample_allocation("DF", SYM, BUDGET, rng) for _ in range(3)]
        base = optimize_scheme(SYM, BUDGET, "DF", (1.0, 1.0), FAST)
        seeded = optimize_scheme(SYM, BUDGET, "DF", (1.0, 1.0), FAST,
                                 extra_starts=starts)
        assert seeded.value >= base.value - 1e-12


SMALL = SearchConfig(slot_grid=5, power_grid=4, refine_iters=10)


@st.composite
def _concave_cases(draw):
    """(scheme, gains, budget, rho, mu); DEGRADED only where both inter-user
    links beat the direct ones, at rho = (K10/K12, K20/K21)."""
    scheme = draw(st.sampled_from(("DF", "OUTER", "DEGRADED")))
    k10, k20 = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))
    if scheme == "DEGRADED":
        k12 = k10 + draw(st.floats(0.05, 2.0))
        k21 = k20 + draw(st.floats(0.05, 2.0))
        rho = NoiseCorrelation(k10 / k12, k20 / k21)
    else:
        k12, k21 = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
        rho = None
    g = ChannelGains(k12, k21, k10, k20, noise=draw(st.floats(0.1, 4.0)))
    budget = PowerBudget(draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0)))
    theta = draw(st.sampled_from((0.0, 0.25 * math.pi, 0.5 * math.pi))
                 | st.floats(0.0, 0.5 * math.pi))
    return scheme, g, budget, rho, (math.cos(theta), math.sin(theta))


class TestConcavePath:
    @settings(max_examples=40, deadline=None)
    @given(_concave_cases())
    def test_solution_is_feasible_exact_and_beats_search(self, case):
        scheme, g, budget, rho, mu = case
        res = optimize_scheme(g, budget, scheme, mu, SMALL, rho=rho)
        assert power_feasible("DF", res.slots, res.allocation, budget)[2]
        region = scheme_region(scheme, g, res.slots, res.allocation, rho=rho)
        _, best = weighted_best_vertex(polygon_from_constraints(region), mu)
        assert res.value == pytest.approx(best, abs=1e-9)
        with mock.patch.object(optimize, "_solve_concave", lambda *args: None):
            searched = optimize_scheme(g, budget, scheme, mu, SMALL, rho=rho)
        # SLSQP can stop up to ~2e-7 (relative) short where R1 barely depends
        # on user 2's allocation, at axis directions of OUTER and DEGRADED
        assert res.value >= searched.value * (1.0 - 1e-6) - 1e-9

    @settings(max_examples=100, deadline=None)
    @given(_concave_cases(), st.lists(st.floats(0.05, 0.95), min_size=8, max_size=8))
    def test_dual_gradients_match_finite_differences(self, case, u):
        scheme, g, budget, rho, _ = case
        gains = df_gains(scheme, g, rho)
        z = np.array([0.45 * u[0], 0.45 * u[1],
                      *(v * p / 3 for v, p in zip(u[2:], (budget.p1, budget.p2) * 3))])

        def caps(z):
            a = (z[0], z[1], 1.0 - z[0] - z[1])
            powers = [e / a[min(i, 2)] for i, e in enumerate(z[2:])]
            m1, m2, sums = df_caps(scheme, gains, *a, powers, SCALAR_OPS)
            return np.array((m1, m2, *sums))

        m1, m2, sums = _dual_caps(scheme, gains, z)
        dual = np.array((m1, m2, *sums))
        assert np.allclose(dual[:, 0], caps(z), rtol=1e-12, atol=1e-14)
        h = 1e-6
        for i in range(8):
            step = np.zeros(8)
            step[i] = h
            fd = (caps(z + step) - caps(z - step)) / (2 * h)
            assert np.allclose(dual[:, 1 + i], fd, rtol=1e-6, atol=1e-7)

    def test_outer_witness_reaches_known_point(self):
        # a feasible point with value 0.919068754 is known for this direction
        mu = (math.cos(0.3), math.sin(0.3))
        res = optimize_scheme(ChannelGains(0.5, 0.5, 1.0, 1.0, 1.0), PowerBudget(2.0, 3.0),
                              "OUTER", mu, SearchConfig())
        assert res.value >= 0.919068754 - 1e-9

    def test_failed_solve_falls_back_to_search(self, monkeypatch):
        import scipy.optimize

        minimize = scipy.optimize.minimize

        def failing(*args, **kwargs):
            sol = minimize(*args, **kwargs)
            if kwargs.get("method") == "SLSQP":
                sol.success = False
            return sol

        monkeypatch.setattr(scipy.optimize, "minimize", failing)
        res = optimize_scheme(SYM, BUDGET, "OUTER", (0.8, 0.6), FAST)
        assert res == _search(SYM, BUDGET, "OUTER", 0.8, 0.6, FAST, None, (), {})


class TestFrontier:
    def test_mac_special_case_hull(self):
        g = ChannelGains(0.0, 0.0, 1.0, 1.0, 1.0)
        fr = frontier(g, BUDGET, "DF", 3, FAST)
        base = baseline_region("MAC", g, BUDGET)
        ok, slack = region_contains(fr.hull, base, 1e-3)
        assert ok, slack
        ok, slack = region_contains(base, fr.hull, 1e-3)
        assert ok, slack

    def test_outer_contains_df_at_every_direction(self):
        fr_df = frontier(SYM, BUDGET, "DF", 5, FAST)
        fr_out = frontier(SYM, BUDGET, "OUTER", 5, FAST,
                          extra_starts=[(r.slots, r.allocation) for r in fr_df.points])
        for a, b in zip(fr_df.points, fr_out.points):
            assert b.value >= a.value - 1e-9

    def test_dead_channel_hull_is_origin(self):
        g = ChannelGains(0.0, 0.0, 0.0, 0.0, 1.0)
        fr = frontier(g, BUDGET, "DF", 3, FAST)
        assert fr.hull.vertices == ((0.0, 0.0),)

    def test_weight_count_validated(self):
        with pytest.raises(ValidationError):
            frontier(SYM, BUDGET, "DF", 2, FAST)

    @pytest.mark.parametrize("count", [3.0, 3.5, True])
    def test_non_integer_weight_count_rejected(self, count):
        with pytest.raises(ValidationError, match="weight_count"):
            frontier(SYM, BUDGET, "DF", count, FAST)

    def test_points_ordered_by_theta(self):
        fr = frontier(SYM, BUDGET, "DF", 5, FAST)
        assert len(fr.points) == 5
        assert fr.points[0].mu[0] == pytest.approx(1.0)
        assert fr.points[-1].mu[1] == pytest.approx(1.0)
        mus = [r.mu[1] / (r.mu[0] + r.mu[1]) for r in fr.points]
        assert mus == sorted(mus)


class TestSampleAllocation:
    def test_samples_are_feasible(self):
        rng = random.Random(123)
        for scheme, kind in (("PDF_JOINT", "PDF"), ("DF", "DF")):
            for _ in range(100):
                slots, alloc = sample_allocation(scheme, SYM, BUDGET, rng)
                used1, used2, ok = power_feasible(kind, slots, alloc, BUDGET)
                assert ok
                assert used1 <= BUDGET.p1 + 1e-9
                assert used2 <= BUDGET.p2 + 1e-9

    def test_interior_samples_have_positive_parts(self):
        rng = random.Random(7)
        for _ in range(50):
            slots, alloc = sample_allocation("PDF_JOINT", SYM, BUDGET, rng,
                                             interior=True)
            assert alloc.p10 > 0 and alloc.p20 > 0
            assert alloc.pu > 0 and alloc.pv > 0
            assert slots.a1 > 0 and slots.a2 > 0 and slots.a3 > 0
