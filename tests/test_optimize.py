import math
import random
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import _slsqp_py, _slsqplib
from scipy.optimize._slsqplib import slsqp

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
    _LN2,
)
from hdmac.gaussian import (
    CHECKED_OPS,
    NoiseCorrelation,
    baseline_region,
    df_gains,
    df_region,
    gaussian_outer_region,
    pdf_gains,
)
from hdmac import optimize
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
    _COLD,
    _DF,
    _MISS,
    _PDF,
    _POLISH,
    _SLOT_FLOOR,
    _SNAP,
    _STALL,
    _TIE_EPS,
    _Candidate,
    _Solver,
    _Table,
    _cut,
    _energies,
    _interior,
    _layout,
    _rebuild,
    _scheme_table,
    _slsqp,
)
from hdmac.verify import degraded_rho
from helpers import PANEL

SYM = ChannelGains(2.0, 2.0, 1.0, 1.0, 1.0)
BUDGET = PowerBudget(2.0, 2.0)
FAST = SearchConfig(slot_grid=6, power_grid=5, refine_iters=20)
_slot_weight = st.just(0.0) | st.floats(1e-3, 1.0)
# slot lengths below, inside and above the rebuild cuts [_SLOT_FLOOR, _SNAP)
_cut_length = (st.just(0.0) | st.floats(0.0, _SLOT_FLOOR, exclude_max=True)
               | st.floats(_SLOT_FLOOR, _SNAP, exclude_max=True) | st.floats(_SNAP, 1.0))


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

    def test_ties_survive_rounding(self):
        # the two ends of the sum-rate face differ by one ulp in value at mu
        face = ((0.6726632036530478, 0.6477618368636007), (0.6469915245726868, 0.6734335159439616))
        poly = RatePolygon(((0.0, 0.0), (face[0][0], 0.0), *face, (0.0, face[1][1])))
        vertex, _ = weighted_best_vertex(poly, (math.cos(math.pi / 4), math.sin(math.pi / 4)))
        assert vertex == face[0]

    def test_rejects_bad_weights(self):
        with pytest.raises(ValidationError):
            weighted_best_vertex(self.SQUARE, (0.0, 0.0))
        with pytest.raises(ValidationError):
            weighted_best_vertex(self.SQUARE, (-1.0, 1.0))

    @pytest.mark.parametrize("mu", [(math.inf, 1.0), (1.0, -math.inf), (math.nan, 1.0),
                                    (1.0, math.nan)])
    def test_non_finite_weights_rejected(self, mu):
        with pytest.raises(ValidationError, match="finite"):
            weighted_best_vertex(self.SQUARE, mu)
        with pytest.raises(ValidationError, match="finite"):
            optimize_scheme(SYM, BUDGET, "DF", mu, FAST)


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

    def test_single_vertex_outer_is_a_dead_channel(self):
        # with every gain 0 a region is the origin alone
        dead = ChannelGains(0.0, 0.0, 0.0, 0.0, 1.0)
        outer = polygon_from_constraints(scheme_region("OUTER", dead, TimeSlots(0.2, 0.3, 0.5),
                                                       _interior(BUDGET)[1]))
        assert outer.vertices == ((0.0, 0.0),)
        assert optimize.point_slack(outer.vertices, (3.0, 4.0)) == -5.0
        assert region_contains(outer, outer, 0.0) == (True, 0.0)
        ok, slack = region_contains(outer, RatePolygon(((0.0, 0.0), (0.3, 0.0), (0.0, 0.4))), 1e-9)
        assert not ok and slack == -0.4

    def test_repeated_vertex_skips_its_zero_length_edge(self):
        square = RatePolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
        assert optimize.point_slack(square.vertices, (0.75, 0.5)) == 0.25
        assert optimize.point_slack(square.vertices, (1.5, 0.5)) == -0.5
        inner = RatePolygon(((0.0, 0.0), (0.5, 0.0), (0.5, 0.5)))
        assert region_contains(square, inner, 0.0) == (True, 0.0)


class TestSearchConfig:
    @pytest.mark.parametrize("field, value", [("slot_grid", 3.5), ("power_grid", 2.5),
                                              ("refine_iters", 1.5), ("seed", "abc"),
                                              ("seed", 1.5), ("seed", None), ("seed", True)])
    def test_non_integer_grid_sizes_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            SearchConfig(**{field: value})


_unit = st.sampled_from((0.0, 1.0)) | st.floats(1e-3, 1.0)


class _Draws:
    """A stand-in for random.Random that returns the given draws in order."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def random(self):
        return next(self.draws)


@st.composite
def _search_points(draw):
    """(scheme, budget, x) with x in sample_allocation's unit cube and some
    slots of zero length."""
    scheme = draw(st.sampled_from(SCHEMES))
    budget = PowerBudget(draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0)))
    a1 = draw(_unit)
    a2 = (1.0 - a1) * draw(_unit)
    dim = 4 if scheme in ("DF", "OUTER", "DEGRADED") else 8
    return scheme, budget, (a1, a2, *(draw(_unit) for _ in range(dim)))


@settings(max_examples=300, deadline=None)
@given(_search_points())
def test_search_caps_match_scheme_region(case):
    scheme, budget, (a1, a2, *shares) = case
    kind = "PDF" if scheme.startswith("PDF") else "DF"
    # sample_allocation draws the slot fractions as two sorted draws u <= v,
    # a1 = u and a2 = v - u, then the shares
    slots, alloc = sample_allocation(scheme, SYM, budget, _Draws((a1, a1 + a2, *shares)))
    # the power identity: a user spends its whole budget unless neither its
    # own slot nor slot 3 has any length
    used = power_used(kind, slots, alloc)
    for u, total, own in zip(used, (budget.p1, budget.p2), (slots.a1, slots.a2)):
        assert u == pytest.approx(total if own > 0.0 or slots.a3 > 0.0 else 0.0, rel=1e-9)


@given(st.lists(st.floats(0.0, 10.0), min_size=8, max_size=8))
@example([0.5, 0.25, 1.0, 1.0, 1.0, 1.0, 5e-324, 5e-324])     # halving rounds a subnormal
def test_layout_builds_the_df_starts_bit_for_bit(x):
    # PDF_JOINT's starts from a DF solution: own-slot power public, each
    # coherent energy split evenly between U and V, or all on one of them
    a1, a2, e12, e21, e13, e23, es1, es2 = x
    for u in (0.5, 1.0, 0.0):
        start = _layout(_PDF, a1, a2, ((e12, 1.0, e13, es1, u), (e21, 1.0, e23, es2, 1 - u)))
        literal = [a1, a2, e12, 0.0, e21, 0.0, e13, e23, u * es1, (1 - u) * es1,
                   (1 - u) * es2, u * es2]
        assert np.array(start).tobytes() == np.array(literal).tobytes()


# (gains, budget, scheme, mu, seed, value, evaluations) recorded with the
# derivative-free search that the concave solver replaced, at
# SearchConfig(21, 15, refine_iters=0).  The searched value is now a floor,
# and the result must not depend on the seed, which the optimizer ignores.
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
    assert res.value >= value - 1e-12
    assert res == optimize_scheme(g, budget, scheme, mu, replace(cfg, seed=0))


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

    @pytest.mark.parametrize("scheme", ["DF", "PDF_JOINT"])
    def test_budget_product_below_the_normal_range_rejected(self, scheme):
        # p1 * p2 underflows to 0, and the cone rows are divided by it
        with pytest.raises(ValidationError, match=r"power budget .*p1 \* p2 = 0\.0"):
            optimize_scheme(SYM, PowerBudget(1e-300, 1e-300), scheme, (1.0, 1.0), FAST)

    @pytest.mark.parametrize("scheme", ["DF", "PDF_JOINT"])
    def test_tiny_budget_with_a_normal_product_solves(self, scheme):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = optimize_scheme(SYM, PowerBudget(1e-100, 1e-100), scheme, (1.0, 1.0), FAST)
        # the sum rate is at least the MAC's, C(p1 + p2) in bits, about p / ln 2
        assert res.value >= c_gauss(2e-100) > 0.0


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


# optimize_scheme(..., SearchConfig()) values recorded with the
# derivative-free search that the concave solver replaced, on the channel
# panel of the benchmark at PANEL_THETAS; every value found now must reach
# them.  DEGRADED runs where both inter-user links beat the direct ones, at
# rho = (K10/K12, K20/K21).
PANEL_THETAS = (0.0, 0.3, math.pi / 8, math.pi / 4, 1.2, math.pi / 2)
SEARCH_FLOORS = {
    ("symmetric_k2", "PDF_JOINT"): (
        1.213569091249842, 1.1593652144174793, 1.1211962681203085,
        0.9336815001978369, 1.131056442608979, 1.213569091249842),
    ("symmetric_k2", "PDF_SEPARATE"): (
        1.2135420460356496, 1.1593568907003815, 1.12115988631841,
        0.9332335832767167, 1.1310859376393283, 1.2135420460356496),
    ("symmetric_k2", "PDF_PARTIAL"): (
        1.2135728883654409, 1.159297353166881, 1.1211598602512718,
        0.9335634204616612, 1.1308054131151473, 1.2135728883654409),
    ("symmetric_k2", "DF"): (
        1.2135840893752337, 1.1593811632025401, 1.1212055011551263,
        0.9336815001978436, 1.1311078054057908, 1.213584089375234),
    ("symmetric_k2", "OUTER"): (
        1.2438121500747308, 1.188259132584235, 1.1491325877428378,
        0.9438070204178974, 1.1592815394705183, 1.2438121500746644),
    ("symmetric_k2", "DEGRADED"): (
        1.2135840893752472, 1.1593811632024316, 1.1212055011552313,
        0.9336815001978439, 1.1311078054060535, 1.2135840893752339),
    ("asym_witness", "PDF_JOINT"): (
        0.792481250360578, 0.9048463587480148, 0.9234989232896358,
        0.9139222566864326, 1.038021935074415, 1.0),
    ("asym_witness", "PDF_SEPARATE"): (
        0.792481250360578, 0.9048463587480148, 0.9234989232896358,
        0.9139222566864326, 1.038021935074415, 1.0),
    ("asym_witness", "PDF_PARTIAL"): (
        0.792481250360578, 0.9048463587480148, 0.9234989232896358,
        0.9139222566864329, 1.038021935074415, 1.0),
    ("asym_witness", "DF"): (
        0.792481250360578, 0.9048463587480148, 0.9234989232896358,
        0.9139222566864326, 1.038021935074415, 1.0),
    ("asym_witness", "OUTER"): (
        0.8986658385546413, 0.9190688532358846, 0.9306652130358115,
        0.9454104357349089, 1.0693118708523055, 1.1147923225882308),
    ("skewed", "PDF_JOINT"): (
        0.9500275734615837, 0.9075905456221551, 0.8777100725611922,
        0.6996441981146904, 0.8854556919790515, 0.9500275734615837),
    ("skewed", "PDF_SEPARATE"): (
        0.9499112496419486, 0.9075958081898707, 0.8777097192833017,
        0.6993816676082932, 0.8854580785852443, 0.9499112496419486),
    ("skewed", "PDF_PARTIAL"): (
        0.9499977155436291, 0.9075458578697295, 0.8776490420786981,
        0.6996218710100057, 0.8851080346954519, 0.9499977155436291),
    ("skewed", "DF"): (
        0.9500275879091971, 0.9075960204055559, 0.8777110437902932,
        0.6996442057083746, 0.8854628446784536, 0.9500275879091097),
    ("skewed", "OUTER"): (
        0.9576732085233985, 0.9149001607603491, 0.8847746761891343,
        0.7030380299054131, 0.892588861927402, 0.9576732085233489),
    ("skewed", "DEGRADED"): (
        0.9500275879092015, 0.907596020405554, 0.877711043790411,
        0.6996442057083746, 0.8854628446786953, 0.9500275879091102),
    ("dead_coop", "PDF_JOINT"): (
        0.792481250360578, 0.865980367762492, 0.8731694686623417,
        0.9200652259606252, 1.131085179078218, 1.2135215435459368),
    ("dead_coop", "PDF_SEPARATE"): (
        0.792481250360578, 0.865980367762492, 0.8731694686623417,
        0.920012816312836, 1.1310859376393283, 1.2135655084679053),
    ("dead_coop", "PDF_PARTIAL"): (
        0.792481250360578, 0.865980367762492, 0.8731694686623417,
        0.9200638102523864, 1.1308054131151473, 1.2135728883654409),
    ("dead_coop", "DF"): (
        0.792481250360578, 0.8659803677624781, 0.8731694686623157,
        0.9200653289321991, 1.1311078054059618, 1.2135840893755554),
    ("dead_coop", "OUTER"): (
        0.8977034850122758, 0.892257513775193, 0.8904328036078137,
        0.9304068779463376, 1.159281539470519, 1.2438121500747137),
}


def _best_draw(scheme, g, budget, rho, mu, rng, draws=50):
    """Best weighted-sum value over random feasible allocations."""
    best = 0.0
    for _ in range(draws):
        slots, alloc = sample_allocation(scheme, g, budget, rng)
        region = scheme_region(scheme, g, slots, alloc, rho=rho)
        best = max(best, weighted_best_vertex(polygon_from_constraints(region), mu)[1])
    return best


def _loose(value):
    """A value less the solver's accuracy: where the objective is flat, near
    the axis directions, a solve can stop up to ~2e-7 (relative) short."""
    return value - 1e-9 - 1e-6 * value


def _checked(g, budget, scheme, mu, rho=None):
    """optimize_scheme, with its result checked against the region function
    and the power budget."""
    res = optimize_scheme(g, budget, scheme, mu, SearchConfig(), rho=rho)
    kind = "PDF" if scheme.startswith("PDF") else "DF"
    assert power_feasible(kind, res.slots, res.allocation, budget)[2]
    region = scheme_region(scheme, g, res.slots, res.allocation, rho=rho)
    _, best = weighted_best_vertex(polygon_from_constraints(region), mu)
    assert res.value == pytest.approx(best, abs=1e-9)
    return res.value


class TestConcavePath:
    @pytest.mark.parametrize("channel", sorted(PANEL))
    def test_panel_values_reach_the_search_floor(self, channel):
        g, budget = PANEL[channel]
        degraded = g.k12 > g.k10 and g.k21 > g.k20
        rho = NoiseCorrelation(g.k10 / g.k12, g.k20 / g.k21) if degraded else None
        for i, theta in enumerate(PANEL_THETAS):
            mu = (math.cos(theta), math.sin(theta))
            values = {scheme: _checked(g, budget, scheme, mu, rho)
                      for scheme in SCHEMES if (channel, scheme) in SEARCH_FLOORS}
            for scheme, value in values.items():
                assert value >= SEARCH_FLOORS[channel, scheme][i] - 1e-9, (scheme, theta)
            # the paper: joint decoding's superposition scheme has the DF region
            df = values["DF"]
            assert abs(values["PDF_JOINT"] - df) <= 1e-9 + 1e-6 * df, theta

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4), st.floats(0.1, 4.0),
           st.floats(0.1, 5.0), st.floats(0.1, 5.0),
           st.sampled_from((0.0, 0.25 * math.pi, 0.5 * math.pi)) | st.floats(0.0, 0.5 * math.pi),
           st.integers(0, 2 ** 32 - 1))
    def test_paper_identities_on_random_channels(self, k, noise, p1, p2, theta, seed):
        g = ChannelGains(*k, noise=noise)
        budget = PowerBudget(p1, p2)
        mu = (math.cos(theta), math.sin(theta))
        rng = random.Random(seed)
        values = {}
        for scheme in ("DF", "PDF_JOINT", "PDF_SEPARATE", "OUTER"):
            values[scheme] = _checked(g, budget, scheme, mu)
            assert values[scheme] >= _loose(_best_draw(scheme, g, budget, None, mu, rng))
        df, joint = values["DF"], values["PDF_JOINT"]
        assert abs(joint - df) <= 1e-9 + 1e-6 * df
        assert values["PDF_SEPARATE"] <= joint + 1e-9 + 1e-6 * joint
        assert values["OUTER"] >= _loose(df)

    @settings(max_examples=40, deadline=None)
    @given(_concave_cases())
    # SLSQP reaches the optimum, then leaves it for a far infeasible point
    # and fails there; the solve must keep its last feasible iterate
    @example(("DEGRADED",
              ChannelGains(2.4749936970254027, 1.757060444700367, 1.6835345631507788,
                           1.6967364595272634, noise=0.7588831395063408),
              PowerBudget(0.7588831395063408, 0.2717872923890179),
              NoiseCorrelation(0.6802177173922311, 0.9656676664965895),
              (0.7256049876542537, 0.6881114749016108)))
    def test_df_family_beats_random_draws(self, case):
        scheme, g, budget, rho, mu = case
        value = _checked(g, budget, scheme, mu, rho)
        assert value >= _loose(_best_draw(scheme, g, budget, rho, mu, random.Random(0)))

    @settings(max_examples=100, deadline=None)
    @given(_concave_cases(), st.lists(st.floats(0.05, 0.95), min_size=9, max_size=9))
    def test_dual_gradients_match_finite_differences(self, case, u):
        scheme, g, budget, rho, _ = case
        gains = df_gains(scheme, g, rho)
        energies = [v * p / 3 for v, p in zip(u[2:8], (budget.p1, budget.p2) * 3)]
        # the coherent energy at most sqrt(ES1 ES2)
        z = np.array([0.45 * u[0], 0.45 * u[1], *energies,
                      u[8] * math.sqrt(energies[4] * energies[5])])
        _assert_gradients(scheme, gains, _DF, z)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(("PDF_JOINT", "PDF_SEPARATE", "PDF_PARTIAL")),
           st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4),
           st.lists(st.floats(0.05, 0.95), min_size=14, max_size=14))
    def test_pdf_dual_gradients_match_finite_differences(self, scheme, k, u):
        gains = pdf_gains(ChannelGains(*k, noise=1.0))
        z = np.array([0.45 * u[0], 0.45 * u[1], *u[2:12],
                      u[12] * math.sqrt(u[8] * u[11]), u[13] * math.sqrt(u[9] * u[10])])
        _assert_gradients(scheme, gains, _PDF, z)

    @pytest.mark.parametrize("scheme, p", [("PDF_JOINT", 1e8), ("DF", 1e20), ("PDF_JOINT", 1e20)])
    def test_large_budgets_rebuild_within_the_power_slack(self, scheme, p):
        # these solves once raised "a rebuilt point misses the power budget":
        # the rounding of power_used exceeded an absolute slack of 1e-9
        _checked(SYM, PowerBudget(p, p), scheme, (0.8, 0.6))

    def test_outer_witness_reaches_known_point(self):
        # a feasible point with value 0.919068754 is known for this direction
        mu = (math.cos(0.3), math.sin(0.3))
        res = optimize_scheme(ChannelGains(0.5, 0.5, 1.0, 1.0, 1.0), PowerBudget(2.0, 3.0),
                              "OUTER", mu, SearchConfig())
        assert res.value >= 0.919068754 - 1e-9

    @pytest.mark.parametrize("scheme", ["OUTER", "PDF_PARTIAL"])
    def test_failed_solve_still_returns_a_feasible_exact_result(self, scheme, monkeypatch):
        failed = []

        def failing(*args):
            x, _, kept = _slsqp(*args)
            failed.append(x)
            return x, False, kept

        monkeypatch.setattr(optimize, "_slsqp", failing)
        _checked(SYM, BUDGET, scheme, (0.8, 0.6))
        assert failed

    @pytest.mark.parametrize("channel", sorted(PANEL))
    def test_polish_stops_once_it_stalls(self, channel, monkeypatch):
        polishes = []

        def recording(w, x0, lower, upper, rows, jacobian, ftol, maxiter, stall=None):
            # each polish solve's objective at its start and at every iterate
            if ftol != _POLISH[0] * _POLISH[1]:
                return _slsqp(w, x0, lower, upper, rows, jacobian, ftol, maxiter, stall)
            assert stall == _STALL
            objectives = [-float(w @ x0)]
            polishes.append(objectives)

            def kernel(state, fx, g, C, d, x, *rest):
                before = state["iter"]
                slsqp(state, fx, g, C, d, x, *rest)
                if state["iter"] > before:
                    objectives.append(-float(w @ x))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_slsqplib, "slsqp", kernel)
                return _slsqp(w, x0, lower, upper, rows, jacobian, ftol, maxiter, stall)

        monkeypatch.setattr(optimize, "_slsqp", recording)
        g, budget = PANEL[channel]
        for scheme in ("DF", "PDF_SEPARATE", "OUTER"):
            for mu in ((1.0, 0.0), (0.0, 1.0)):
                _checked(g, budget, scheme, mu)
        assert polishes
        for objectives in polishes:
            # iterations run past the first iterate with the lowest objective
            past = len(objectives) - 1 - int(np.argmin(objectives))
            assert past <= _STALL, (channel, len(objectives) - 1, past)

    @pytest.mark.parametrize("kind", [_COLD, _POLISH], ids=["cold", "polish"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_evaluations_count_distinct_solver_points(self, scheme, kind, monkeypatch):
        points = set()

        def recording(w, x0, lower, upper, rows, jacobian, *args):
            def seen(f):
                def wrapped(z):
                    points.add(z.tobytes())
                    return f(z)
                return wrapped
            return _slsqp(w, x0, lower, upper, seen(rows), seen(jacobian), *args)

        monkeypatch.setattr(optimize, "_slsqp", recording)
        g, budget = PANEL["skewed"]
        rho = NoiseCorrelation(g.k10 / g.k12, g.k20 / g.k21)
        solver = _Solver(scheme, g, budget, rho, 1.0, 0.5)
        family = solver.family
        start = solver.candidate(_energies(family, *sample_allocation(
            scheme, g, budget, random.Random(3), interior=True)))
        z = solver.point(start)
        model = solver.model(z)
        before = solver.evaluations
        solver.minimize(model, z, solver.mu, kind)
        assert len(points) > 1
        assert solver.evaluations - before == len(points)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(SCHEMES), st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4),
           st.floats(0.1, 3.0), st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)),
           st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)), st.floats(0.01, 10.0),
           st.lists(st.tuples(st.tuples(_slot_weight, _slot_weight, _slot_weight),
                              st.lists(st.floats(-1.0, 5.0), min_size=14, max_size=14)),
                    min_size=4, max_size=4))
    def test_callbacks_match_the_plain_reference(self, scheme, k, noise, rho, p, scale,
                                                 draws):
        g = ChannelGains(*k, noise=noise)
        solver = _Solver(scheme, g, PowerBudget(*p), NoiseCorrelation(*rho), 1.0, 0.5)
        solver.scale = scale
        width = solver.linear.shape[1]
        at, *points = (np.array([w[0] / (sum(w) or 1.0), w[1] / (sum(w) or 1.0),
                                 *e[:width - 2]]) for w, e in draws)
        model = solver.model(at)
        fun, jac = _callbacks(solver, model, at)
        want = _reference_callbacks(solver, at)
        # a point whose Jacobian is asked first, points whose values are asked
        # first, then earlier points again, which a stale record would get wrong
        calls = [(1, 0), (0, 0), (0, 1), (1, 1), (0, 2), (1, 0), (0, 0), (1, 2), (0, 1)]
        before, last, distinct = solver.evaluations, None, 0
        for which, i in calls:
            z = points[i]
            got = (fun, jac)[which](z.copy())
            assert got.tobytes() == want[which](z).tobytes(), (which, i)
            distinct += z.tobytes() != last
            last = z.tobytes()
        assert solver.evaluations - before == distinct

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_callbacks_never_serve_stale_terms(self, scheme):
        g, budget = PANEL["skewed"]
        solver = _Solver(scheme, g, budget, NoiseCorrelation(0.3, -0.2), 1.0, 0.5)
        solver.scale = 0.7
        rng = np.random.default_rng(11)

        def point():
            z = rng.uniform(-0.5, 3.0, solver.linear.shape[1])
            z[:2] = rng.dirichlet((1.0, 1.0, 1.0))[:2]
            return z
        at, other = point(), point()
        model = solver.model(at)
        want = _reference_callbacks(solver, at)
        # two solves set up back to back on one solver, their calls
        # interleaved at different points
        solves = [_callbacks(solver, model, at), _callbacks(solver, model, at)]
        points = [point(), point(), point(), at]
        returned = []
        for pair in zip(points, points[1:] + points[:1]):
            values = [fun(z.copy()) for (fun, _), z in zip(solves, pair)]
            # the plain terms and a tangent elsewhere, between the values and
            # the Jacobian at each point
            solver.table.terms(other)
            solver.model(other)
            jacobians = [jac(z.copy()) for (_, jac), z in zip(solves, pair)]
            for which, outputs in enumerate((values, jacobians)):
                for z, got in zip(pair, outputs):
                    assert got.tobytes() == want[which](z).tobytes(), (which, z)
                    returned.append((got, got.tobytes()))
        # an array a callback returned is the caller's: later calls leave it
        for got, kept in returned:
            assert got.tobytes() == kept

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_evaluations_skip_what_cannot_change_a_result(self, scheme):
        g, budget = PANEL["skewed"]
        rho = NoiseCorrelation(g.k10 / g.k12, g.k20 / g.k21)
        solver = _Solver(scheme, g, budget, rho, 1.0, 0.5)
        family = solver.family
        start = solver.candidate(_energies(family, *sample_allocation(
            scheme, g, budget, random.Random(3), interior=True)))
        z = solver.point(start)
        # only a table with negative-weight terms evaluates a tangent
        before = solver.evaluations
        solver.model(z)
        assert solver.evaluations - before == (scheme == "PDF_PARTIAL")
        # every slot of z is at least 0.1 long, so both rebuilds are one point
        short = z.copy()
        short[0] = 1e-9
        for point, cost in ((z, 1), (short, 2)):
            before = solver.evaluations
            assert solver.candidate(point) == _two_rebuilds(solver, point)
            assert solver.evaluations - before == cost

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SCHEMES), st.sampled_from((0, 1, 2)),
           st.tuples(_cut_length, _cut_length),
           st.lists(st.floats(0.0, 5.0), min_size=10, max_size=10))
    @example("DF", 2, (0.6, 0.6), [1.0] * 10)          # a1 + a2 > 1
    @example("PDF_JOINT", 0, (1e-9, 1e-9), [1.0] * 10)  # a2 and a3 inside the cut
    @example("PDF_JOINT", 1, (0.0, 7.5e-7), [0.0, 0.0, 0.0, 2.2e-313, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0])
    def test_candidate_rebuilds_once_where_the_cuts_agree(self, scheme, derived, lengths, e):
        # two slot lengths drawn below, inside and above [_SLOT_FLOOR, _SNAP),
        # the third the rest of 1 (below 0 where the two exceed 1)
        u, v = lengths
        a1, a2 = ((1.0 - u - v, u), (u, 1.0 - u - v), (u, v))[derived]
        g, budget = PANEL["skewed"]
        solver = _Solver(scheme, g, budget, NoiseCorrelation(0.3, -0.2), 1.0, 0.5)
        z = np.array([a1, a2, *e[:len(solver.family.slot_of)]])
        # every point rebuilds, the @example whose subnormal public-symbol
        # energy overflowed a coherent ratio included
        want = _two_rebuilds(solver, z)
        rebuilt = {_rebuild(solver.family, solver.scheme, z, solver.budget, _cut(z, shortest))
                   for shortest in (_SLOT_FLOOR, _SNAP)}
        before = solver.evaluations
        got = solver.candidate(z)
        assert solver.evaluations - before == len(rebuilt)
        assert astuple(got) == astuple(want)

    def test_faint_public_symbol_rebuilds_as_a_silent_one(self):
        # V's energy 2.2e-313 is subnormal, so its coherent ratios ac3 / pv and
        # ad2 / pv overflowed; V now carries the nominal power instead
        g, budget = ChannelGains(3.0, 1.5, 1.0, 0.5, 1.0), PowerBudget(1.0, 4.0)
        z = np.array([0.0, 1.0 - 7.5e-7, 0.0, 0.0, 0.0, 2.2e-313, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        slots, alloc = _rebuild(_PDF, "PDF_JOINT", z, budget, _cut(z, _SLOT_FLOOR))
        assert slots.a3 == pytest.approx(7.5e-7)
        assert alloc.pv == optimize._NOMINAL
        assert all(map(math.isfinite, astuple(alloc)))
        assert alloc.c3 == alloc.d2 > 0.0
        assert power_feasible("PDF", slots, alloc, budget)[2]
        # the same point with V silent rebuilds alike
        silent = z.copy()
        silent[5] = 0.0
        assert _rebuild(_PDF, "PDF_JOINT", silent, budget, _cut(z, _SLOT_FLOOR)) == (slots, alloc)

    @pytest.mark.parametrize("scheme", ["DF", "PDF_JOINT"])
    def test_weight_scale_does_not_change_the_result(self, scheme):
        ref = optimize_scheme(SYM, BUDGET, scheme, (0.8, 0.6), FAST)
        for c in (2.0 ** -1000, 2.0 ** -600, 1.0, 2.0 ** 600):
            res = optimize_scheme(SYM, BUDGET, scheme, (0.8 * c, 0.6 * c), FAST)
            assert (res.slots, res.allocation, res.vertex) == (ref.slots, ref.allocation,
                                                                ref.vertex)
            assert res.value == res.mu[0] * res.vertex[0] + res.mu[1] * res.vertex[1]


def _minimize_slsqp(w, x0, lower, upper, rows, jacobian, ftol, maxiter, stall=None):
    """``_slsqp``'s problem solved by the public ``scipy.optimize.minimize``,
    with the stall stop as a callback and the kept iterate chosen by logging
    every point where SLSQP asks for the Jacobian: a failed solve whose last
    point misses its rows by more than _MISS keeps the first logged point of
    lowest objective among those that miss them by at most _MISS."""
    import scipy.optimize

    values, iterates = {}, []

    def seen_rows(x):
        values[x.tobytes()] = out = rows(x)
        return out

    def seen_jacobian(x):
        iterates.append((-float(w @ x), x.copy()))
        return jacobian(x)

    def miss(x):
        # a point's rows as SLSQP saw them, evaluated only if it never asked
        key = x.tobytes()
        return -min((values[key] if key in values else rows(x)).min(), 0.0)

    best, stalled = -float(w @ np.clip(x0, lower, upper)), 0

    def callback(intermediate_result):
        nonlocal best, stalled
        if intermediate_result.fun < best:
            best, stalled = intermediate_result.fun, 0
        else:
            stalled += 1
        if stalled >= stall:
            raise StopIteration

    sol = scipy.optimize.minimize(
        lambda x: -float(w @ x), x0, jac=lambda x: -w, method="SLSQP",
        bounds=list(zip(lower, upper)), callback=None if stall is None else callback,
        options={"ftol": ftol, "maxiter": maxiter},
        constraints={"type": "ineq", "fun": seen_rows, "jac": seen_jacobian})
    kept = None
    if not sol.success and miss(sol.x) > _MISS:
        feasible = [(f, i) for i, (f, x) in enumerate(iterates) if miss(x) <= _MISS]
        if feasible:
            kept = iterates[min(feasible)[1]][1]
    return sol.x, sol.success, kept


def _logged(solve, log):
    """``solve`` (``_slsqp`` or ``_minimize_slsqp``) with every callback call
    appended to ``log`` with its point, and every call of the compiled SLSQP
    kernel with the iteration count and the mode it returns."""
    def run(w, x0, lower, upper, rows, jacobian, *rest):
        def seen(name, f):
            def wrapped(z):
                log.append((name, z.tobytes()))
                return f(z)
            return wrapped

        def kernel(state, *args):
            slsqp(state, *args)
            log.append(("kernel", state["iter"], state["mode"]))
        with pytest.MonkeyPatch.context() as mp:
            # _slsqp imports the kernel at each solve; scipy's SLSQP module
            # bound its own name to it at import
            mp.setattr(_slsqplib, "slsqp", kernel)
            mp.setattr(_slsqp_py, "slsqp", kernel)
            return solve(w, x0, lower, upper, seen("rows", rows), seen("jacobian", jacobian),
                         *rest)
    return run


def _stalled(log) -> bool:
    """Whether a logged solve ended before the kernel did, on the stall."""
    return [entry for entry in log if entry[0] == "kernel"][-1][2] in (1, -1)


# DEGRADED's cold solve from the interior start reaches the optimum, then
# leaves it for a far infeasible point and fails there (the @example of
# test_df_family_beats_random_draws)
FAILS_INFEASIBLY = (
    ChannelGains(2.4749936970254027, 1.757060444700367, 1.6835345631507788,
                 1.6967364595272634, noise=0.7588831395063408),
    PowerBudget(0.7588831395063408, 0.2717872923890179),
    NoiseCorrelation(0.6802177173922311, 0.9656676664965895),
    0.6881114749016108 / 0.7256049876542537)


class TestSlsqp:
    """``_slsqp`` drives scipy's compiled SLSQP kernel directly; the public
    ``scipy.optimize.minimize`` on the same problem is its reference."""

    @pytest.mark.parametrize("kind", [_COLD, _POLISH], ids=["cold", "polish"])
    def test_solves_match_scipy_minimize(self, kind):
        rho = NoiseCorrelation(0.3, -0.2)
        cases = [(scheme, *PANEL[channel], rho, 0.5)
                 for scheme in SCHEMES for channel in sorted(PANEL)]
        cases.append(("DEGRADED", *FAILS_INFEASIBLY))
        stops = kept = 0
        for scheme, g, budget, rho, mu2 in cases:
            family = _PDF if scheme.startswith("PDF") else _DF
            solver = _Solver(scheme, g, budget, rho, 1.0, mu2)
            x = _energies(_DF, *_interior(budget))
            if family is _PDF:
                # own-slot power public, coherent energy split evenly
                a1, a2, e12, e21, e13, e23, es1, es2 = x
                x = [a1, a2, e12, 0.0, e21, 0.0, e13, e23, es1 / 2, es1 / 2, es2 / 2, es2 / 2]
            start = solver.candidate(x)
            if kind is _POLISH:
                # a polish starts near a solution
                start = solver.run(start, _COLD)
            z = solver.point(start)
            model = solver.model(z)
            runs = []
            for solve in (_slsqp, _minimize_slsqp):
                log = []
                before = solver.evaluations
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(optimize, "_slsqp", _logged(solve, log))
                    x, success, point = solver.minimize(model, z, solver.mu, kind)
                runs.append((x.tobytes(), success, None if point is None else point.tobytes(),
                             log, solver.evaluations - before))
            assert runs[0] == runs[1], (scheme, g)
            assert len(runs[0][3]) > 2
            stops += _stalled(runs[0][3])
            kept += runs[0][2] is not None
        # the stall stop ends some polish solves, and the infeasible failure
        # keeps an iterate
        assert stops > 0 if kind is _POLISH else stops == 0
        assert kept > 0 or kind is _POLISH

    @pytest.mark.parametrize("stall", [None, 3])
    def test_infinite_bounds_and_a_start_outside_them(self, stall):
        w = np.array([1.0, 2.0, 0.5])
        lower = np.array([-np.inf, 0.0, -np.inf])
        upper = np.array([1.0, np.inf, np.inf])

        def rows(x):
            return np.array([1.0 - x @ x, x[0] + 0.5])

        def jacobian(x):
            return np.array([-2.0 * x, [1.0, 0.0, 0.0]])

        runs = []
        for solve in (_slsqp, _minimize_slsqp):
            log = []
            x, success, kept = _logged(solve, log)(w, np.array([2.0, -1.0, 0.5]), lower, upper,
                                                   rows, jacobian, 1e-12, 100, stall)
            runs.append((x.tobytes(), success, kept, log))
        assert runs[0] == runs[1]
        assert runs[0][1] == (stall is None) == (not _stalled(runs[0][3]))
        if stall is None:
            assert np.allclose(np.frombuffer(runs[0][0]), w / np.linalg.norm(w))

    @pytest.mark.parametrize("channel", sorted(PANEL))
    def test_kernel_values_are_current_at_each_jacobian_request(self, channel, monkeypatch):
        # _slsqp keeps feasible iterates by the kernel's objective and row
        # values where it asks for the Jacobian, so these must be the point's
        requests = []

        def checking(w, x0, lower, upper, rows, jacobian, *rest):
            def kernel(state, fx, g, C, d, x, *args):
                slsqp(state, fx, g, C, d, x, *args)
                if state["mode"] == -1:
                    requests.append((fx == -float(w @ x),
                                     d.tobytes() == rows(x).tobytes()))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_slsqplib, "slsqp", kernel)
                return _slsqp(w, x0, lower, upper, rows, jacobian, *rest)

        monkeypatch.setattr(optimize, "_slsqp", checking)
        g, budget = PANEL[channel]
        rho = degraded_rho(g)
        for scheme in SCHEMES:
            if scheme == "DEGRADED" and rho is None:
                continue
            for theta in PANEL_THETAS:
                optimize_scheme(g, budget, scheme, (math.cos(theta), math.sin(theta)),
                                SearchConfig(), rho if scheme == "DEGRADED" else None)
        assert len(requests) > 1000
        assert all(fx and d for fx, d in requests), sum(not all(r) for r in requests)


def _callbacks(solver, model, z):
    """The constraint values and Jacobian callbacks that a solve from z hands
    to SLSQP, without running it."""
    captured = []

    def capture(w, x0, lower, upper, rows, jacobian, *args):
        captured.extend((rows, jacobian))
        return x0, True, None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_slsqp", capture)
        solver.minimize(model, z, solver.mu, _COLD)
    fun, jac = captured
    return fun, jac


def _reference_callbacks(solver, at):
    """The constraint rows and their Jacobian, built from ``_Table.terms`` at
    every call, with the negative-weight terms' tangents at ``at``."""
    table, neg = solver.table, solver.table.negative
    v0, j0 = (x[neg] for x in table.terms(at))
    cx, cy, cw = solver.cones
    norm = solver.budget.p1 * solver.budget.p2
    n = len(solver.base)

    def rows(z):
        v = table.terms(z)[0]
        v[neg] = v0 + j0 @ (z[:-2] - at[:-2])
        out = solver.base + solver.linear @ z
        out[3:] += table.M @ v / solver.scale
        return np.concatenate((out, (z[cx] * z[cy] - z[cw] ** 2) / norm))

    def jacobian(z):
        j = table.terms(z)[1]
        j[neg] = j0
        jac = np.zeros((n + len(cw), len(z)))
        jac[:n] = solver.linear
        jac[3:n, :-2] = table.M @ j / solver.scale
        for r, (x, y, w) in enumerate(zip(cx, cy, cw)):
            jac[n + r, x], jac[n + r, y], jac[n + r, w] = z[y] / norm, z[x] / norm, -2 * z[w] / norm
        return jac
    return rows, jacobian


def _two_rebuilds(solver, z):
    """The better of z's two rebuilt points, each evaluated."""
    mu, best = tuple(solver.mu), None
    for shortest in (_SLOT_FLOOR, _SNAP):
        slots, alloc = _rebuild(solver.family, solver.scheme, z, solver.budget,
                                _cut(z, shortest))
        region = scheme_region(solver.scheme, solver.g, slots, alloc, solver.rho)
        vertex, value = weighted_best_vertex(polygon_from_constraints(region), mu)
        score = value + _TIE_EPS * (mu[1] * vertex[0] + mu[0] * vertex[1])
        if best is None or score > best.score:
            best = _Candidate(score, slots, alloc, vertex, value)
    return best


def _kernel_caps(scheme, gains, family, z, ops=CHECKED_OPS):
    """The family kernel's float caps at z = (a1, a2, energies, coherent
    energies); an empty slot's powers are 0."""
    n = len(family.slot_of)
    a = (z[0], z[1], 1.0 - z[0] - z[1])
    powers = [e / a[s] if a[s] > 0.0 else 0.0 for e, s in zip(z[2:2 + n], family.slot_of)]
    m1, m2, sums = family.kernel(scheme, gains, *a, powers, ops)
    return np.array((m1, m2, *sums))


def _assert_gradients(scheme, gains, family, z, h=1e-6):
    """The table's values at z = (a1, a2, energies, coherent energies) equal
    the kernel's float values, and its Jacobian the kernel's central
    differences."""
    n = len(family.slot_of)

    def caps(z):
        coherent = iter(w / (1.0 - z[0] - z[1]) for w in z[2 + n:])
        return _kernel_caps(scheme, gains, family, z, (CHECKED_OPS[0], lambda x, y: next(coherent)))

    table = _Table(family, scheme, gains)
    values, jac = table.terms(z)
    assert np.allclose(table.M @ values, caps(z), rtol=1e-12, atol=1e-14)
    jac = table.M @ jac
    for i in range(len(z)):
        step = np.zeros(len(z))
        step[i] = h
        fd = (caps(z + step) - caps(z - step)) / (2 * h)
        assert np.allclose(jac[:, i], fd, rtol=1e-6, atol=1e-7)


def _table_case(scheme, k, noise, rho):
    return _scheme_table(scheme, ChannelGains(*k, noise=noise), NoiseCorrelation(*rho))


class TestTable:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SCHEMES), st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4),
           st.floats(0.1, 3.0), st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)),
           st.tuples(_slot_weight, _slot_weight, _slot_weight),
           st.lists(st.floats(0.0, 5.0), min_size=12, max_size=12))
    def test_table_matches_the_checked_kernel(self, scheme, k, noise, rho, w, e):
        table = _table_case(scheme, k, noise, rho)
        family = table.family
        total = sum(w) or 1.0
        a1, a2 = w[0] / total, w[1] / total
        # an empty slot holds no energy; each coherent energy sits on its cone
        energies = [v if w[s] > 0.0 else 0.0 for v, s in zip(e, family.slot_of)]
        coherent = [math.sqrt(energies[i] * energies[j]) for i, j, _ in family.pairs]
        z = np.array([a1, a2, *energies, *coherent])
        values, _ = table.terms(z)
        want = _kernel_caps(scheme, table.gains, family, z)
        assert np.allclose(table.M @ values, want, rtol=1e-12, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SCHEMES), st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4),
           st.floats(0.1, 3.0), st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)),
           st.tuples(_slot_weight, _slot_weight, _slot_weight),
           st.lists(st.floats(-1.0, 5.0), min_size=14, max_size=14))
    def test_values_are_the_terms_bit_for_bit(self, scheme, k, noise, rho, w, e):
        # any point SLSQP may pass: empty slots, energies below 0 or off the cone
        table = _table_case(scheme, k, noise, rho)
        family = table.family
        total = sum(w) or 1.0
        z = np.array([w[0] / total, w[1] / total, *e[:len(family.slot_of) + len(family.pairs)]])
        values = table.evaluate(z).values
        assert values.tobytes() == table.terms(z)[0].tobytes()
        # and the operations, in their order, of the formula a_S C(K E / (a_S N))
        a = np.maximum((z[0], z[1], 1.0 - z[0] - z[1]), _SLOT_FLOOR)[table.S]
        x = table.K @ np.maximum(z[2:], 0.0) / (a * table.N)
        c = 0.5 * np.log1p(x) / _LN2
        assert values.tobytes() == (a * c).tobytes()
        # the Jacobian too, from C'(x) = 0.5 / (ln 2 (1 + x))
        dc = 0.5 / (_LN2 * (1.0 + x))
        jac = np.hstack((table.slot_rows * (c - x * dc)[:, None],
                         table.K * (dc / table.N)[:, None]))
        assert table.terms(z)[1].tobytes() == jac.tobytes()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_only_partial_decoding_subtracts(self, scheme):
        k, noise = (0.7, 1.9, 1.3, 0.4), 1.1
        table = _table_case(scheme, k, noise, (0.3, -0.2))
        family = table.family
        slot_of = np.array(family.slot_of + (2,) * len(family.pairs))
        # every term's numerator lies in the term's own slot
        for s, row in zip(table.S, table.K):
            assert set(slot_of[row != 0.0]) <= {s}
        negative = table.negative
        if scheme != "PDF_PARTIAL":
            assert negative.size == 0
            return
        # the partner decoding only the public part: K12^2 P10 in slot 1
        # and K21^2 P20 in slot 2, subtracted once from each cap that holds them
        rows = np.zeros((2, len(slot_of)))
        rows[0, 1], rows[1, 3] = k[0] ** 2, k[1] ** 2
        assert list(table.S[negative]) == [0, 1]
        assert np.array_equal(table.K[negative], rows)
        assert set(table.M[:, negative].ravel()) <= {0.0, -1.0}


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
        cases = [
            (SYM, BUDGET, 5),
            # OUTER beats DF by >= 2e-2 in every direction, yet the hull of the
            # three OUTER optima misses a DF vertex by 1.8e-2: only widened by
            # the outer region at DF's optima does it hold DF's hull
            (ChannelGains(0.971, 0.453, 1.953, 0.217, 1.0), PowerBudget(2.819, 2.019), 3),
        ]
        for g, budget, count in cases:
            fr_df = frontier(g, budget, "DF", count, FAST)
            fr_out = frontier(g, budget, "OUTER", count, FAST)
            for a, b in zip(fr_df.points, fr_out.points):
                assert b.value >= a.value - 1e-9
            cross = [weighted_best_vertex(polygon_from_constraints(
                gaussian_outer_region(g, r.slots, r.allocation)), r.mu)[0] for r in fr_df.points]
            hull_out = upper_hull([r.vertex for r in fr_out.points] + cross)
            ok, slack = region_contains(hull_out, fr_df.hull, 1e-6)
            assert ok, slack

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

    @pytest.mark.parametrize("p", [1e8, 1e20])
    def test_samples_at_large_budgets_are_feasible(self, p):
        rng, budget = random.Random(1), PowerBudget(p, p)
        for scheme, kind in (("PDF_JOINT", "PDF"), ("DF", "DF")):
            for _ in range(2000):
                slots, alloc = sample_allocation(scheme, SYM, budget, rng)
                assert power_feasible(kind, slots, alloc, budget)[2]

    def test_interior_samples_have_positive_parts(self):
        rng = random.Random(7)
        for _ in range(50):
            slots, alloc = sample_allocation("PDF_JOINT", SYM, BUDGET, rng,
                                             interior=True)
            assert alloc.p10 > 0 and alloc.p20 > 0
            assert alloc.pu > 0 and alloc.pv > 0
            assert slots.a1 > 0 and slots.a2 > 0 and slots.a3 > 0
