import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdmac.core import (
    POWER_TOL,
    ChannelGains,
    DfAllocation,
    LinearRegion,
    PdfAllocation,
    PowerBudget,
    RatePolygon,
    TimeSlots,
    ValidationError,
    c_gauss,
    convex_hull_ccw,
    polygon_from_constraints,
    power_feasible,
)
from hdmac.gaussian import NoiseCorrelation, df_region


class TestCGauss:
    def test_zero_snr(self):
        assert c_gauss(0.0) == 0.0

    def test_snr_three_is_one_bit(self):
        assert c_gauss(3.0) == pytest.approx(1.0, abs=1e-15)

    def test_snr_four(self):
        # oracle: 0.5 * log2(5) evaluated directly
        assert c_gauss(4.0) == pytest.approx(0.5 * math.log2(5.0), abs=1e-15)
        assert round(c_gauss(4.0), 5) == 1.16096

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            c_gauss(-1e-6)

    @given(st.floats(min_value=0.0, max_value=1e6),
           st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_concave(self, x, y):
        lo, hi = sorted((x, y))
        assert c_gauss(lo) <= c_gauss(hi) + 1e-12
        if hi > lo:
            mid = c_gauss(0.5 * (lo + hi))
            assert mid >= 0.5 * (c_gauss(lo) + c_gauss(hi)) - 1e-12


class TestTypes:
    def test_gains_reject_negative(self):
        with pytest.raises(ValidationError):
            ChannelGains(-0.1, 1, 1, 1, 1)
        with pytest.raises(ValidationError):
            ChannelGains(1, 1, 1, 1, 0.0)

    def test_slots_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            TimeSlots(0.5, 0.5, 0.5)
        s = TimeSlots.from_first_two(0.25, 0.25)
        assert s.a3 == pytest.approx(0.5, abs=1e-15)

    def test_from_first_two_snaps_round_off_below_zero(self):
        # 1 - 0.5 - (0.5 + 1e-13) lies in (-1e-12, 0): slot 3 is empty
        assert TimeSlots.from_first_two(0.5, 0.5 + 1e-13) == TimeSlots(0.5, 0.5 + 1e-13, 0.0)
        with pytest.raises(ValidationError, match="TimeSlots.a3 must be finite and >= 0"):
            TimeSlots.from_first_two(0.5, 0.5 + 1e-11)

    def test_allocations_reject_negative(self):
        with pytest.raises(ValidationError):
            DfAllocation(-1, 0, 0, 0, 0, 0)
        with pytest.raises(ValidationError):
            PdfAllocation(0, 0, 0, 0, 0, 0, -0.5, 0, 0, 0)

    def test_budget_positive(self):
        with pytest.raises(ValidationError):
            PowerBudget(0.0, 1.0)

    @pytest.mark.parametrize("value, accepted", [
        (2.0, True), (2, True), (np.float64(2.0), True), (np.float32(2.0), True),
        (np.int64(2), True), (True, False), (np.bool_(True), False), ("2.0", False),
        (None, False), (math.nan, False), (np.float64(math.inf), False),
    ], ids=repr)
    def test_real_numbers_accepted_bool_rejected(self, value, accepted):
        if accepted:
            assert ChannelGains(value, 2.0, 1.0, 1.0, 1.0).k12 == 2.0
            assert PowerBudget(1.0, value).p2 == 2.0
        else:
            with pytest.raises(ValidationError, match="ChannelGains.k12"):
                ChannelGains(value, 2.0, 1.0, 1.0, 1.0)
            with pytest.raises(ValidationError, match="PowerBudget.p2"):
                PowerBudget(1.0, value)

    def test_int_too_large_for_a_float_is_rejected(self):
        with pytest.raises(ValidationError, match="ChannelGains.k12"):
            ChannelGains(10 ** 400, 1, 1, 1, 1)

    def test_numpy_scalars_are_stored_as_floats(self):
        g32 = ChannelGains(np.float32(2.1), np.float32(1.3), 1, 1, 1)
        g = ChannelGains(float(np.float32(2.1)), float(np.float32(1.3)), 1.0, 1.0, 1.0)
        assert all(type(v) is float for v in astuple(g32))
        slots = TimeSlots(np.float32(0.25), np.float64(0.25), 0.5)
        alloc = DfAllocation(*(np.float32(p) for p in (4.0, 4.0, 1.0, 1.0, 1.0, 1.0)))
        for obj in (slots, alloc, PowerBudget(np.int64(2), np.float32(2.0)),
                    PdfAllocation(*(np.float32(0.5) for _ in range(10)))):
            assert all(type(v) is float for v in astuple(obj))
        assert df_region(g32, slots, alloc) == df_region(g, slots, alloc)

    def test_linear_region_nonempty_finite(self):
        with pytest.raises(ValidationError):
            LinearRegion((), (1.0,), (1.0,))
        with pytest.raises(ValidationError):
            LinearRegion((math.inf,), (1.0,), (1.0,))
        with pytest.raises(ValidationError):
            LinearRegion((-0.1,), (1.0,), (1.0,))

    def test_noise_correlation_takes_real_numbers_only(self):
        with pytest.raises(ValidationError, match="NoiseCorrelation.rho1"):
            NoiseCorrelation(True, 0.5)
        rho = NoiseCorrelation(np.float32(0.5), np.int64(0))
        assert (rho.rho1, rho.rho2) == (0.5, 0.0)
        assert type(rho.rho1) is float and type(rho.rho2) is float

    def test_rate_polygon_nonneg(self):
        with pytest.raises(ValidationError):
            RatePolygon(((0.0, -0.1),))


class TestPowerFeasible:
    def test_zero_pdf_allocation(self):
        slots = TimeSlots(0.2, 0.2, 0.6)
        alloc = PdfAllocation(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
        used1, used2, ok = power_feasible("PDF", slots, alloc, PowerBudget(2, 2))
        assert (used1, used2, ok) == (0.0, 0.0, True)

    def test_df_boundary_case(self):
        # hand arithmetic: 0.2*4 + 0.6*(1+1) = 2.0
        slots = TimeSlots(0.2, 0.2, 0.6)
        alloc = DfAllocation(4, 4, 1, 1, 1, 1)
        used1, used2, ok = power_feasible("DF", slots, alloc, PowerBudget(2, 2))
        assert used1 == pytest.approx(2.0, abs=1e-15)
        assert used2 == pytest.approx(2.0, abs=1e-15)
        assert ok

    def test_df_over_budget(self):
        # 0.2*5 + 0.6*2 = 2.2 > 2
        slots = TimeSlots(0.2, 0.2, 0.6)
        alloc = DfAllocation(5, 4, 1, 1, 1, 1)
        used1, used2, ok = power_feasible("DF", slots, alloc, PowerBudget(2, 2))
        assert used1 == pytest.approx(2.2, abs=1e-12)
        assert not ok

    def test_scheme_allocation_mismatch(self):
        slots = TimeSlots(0.2, 0.2, 0.6)
        with pytest.raises(ValidationError):
            power_feasible("PDF", slots, DfAllocation(0, 0, 0, 0, 0, 0), PowerBudget(1, 1))

    @pytest.mark.parametrize("p", [1e-3, 1.0, 1e8, 1e20])
    def test_slack_is_relative_to_budgets_above_one(self, p):
        # above a budget of about 1e7 the rounding of power_used exceeds an
        # absolute 1e-9; with slot 1 whole, user 1 spends exactly p12
        slots = TimeSlots(1.0, 0.0, 0.0)
        slack = POWER_TOL * max(1.0, p)
        for over, ok in ((0.5 * slack, True), (10.0 * slack, False)):
            alloc = DfAllocation(p + over, 0.0, 0.0, 0.0, 0.0, 0.0)
            assert power_feasible("DF", slots, alloc, PowerBudget(p, p))[2] is ok

    @given(st.integers(min_value=0, max_value=5),
           st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_any_power_field(self, field_idx, bump):
        slots = TimeSlots(0.3, 0.3, 0.4)
        fields = [1.0, 2.0, 0.5, 0.25, 1.5, 0.75]
        budget = PowerBudget(1.2, 1.2)
        base = DfAllocation(*fields)
        fields[field_idx] += bump
        bumped = DfAllocation(*fields)
        _, _, ok_base = power_feasible("DF", slots, base, budget)
        _, _, ok_bumped = power_feasible("DF", slots, bumped, budget)
        # increasing a power never turns infeasible into feasible
        assert ok_base or not ok_bumped


def _grid_hull_oracle(m1, m2, ms, n=400):
    """Brute force: feasible points of an n x n grid, hulled by scipy."""
    from scipy.spatial import ConvexHull

    xs = np.linspace(0.0, m1, n) if m1 > 0 else np.zeros(1)
    ys = np.linspace(0.0, m2, n) if m2 > 0 else np.zeros(1)
    pts = [(x, y) for x in xs for y in ys if x + y <= ms + 1e-15]
    pts = np.array(pts)
    if len(np.unique(pts, axis=0)) < 3:
        return np.unique(pts, axis=0)
    try:
        hull = ConvexHull(pts)
    except Exception:
        return np.unique(pts, axis=0)
    return pts[hull.vertices]


def _point_to_poly_dist(p, verts):
    verts = np.asarray(verts, dtype=float)
    if len(verts) == 1:
        return float(np.hypot(*(p - verts[0])))
    best = math.inf
    m = len(verts)
    for i in range(m):
        a = verts[i]
        b = verts[(i + 1) % m] if m > 2 else verts[1]
        e = b - a
        denom = float(e @ e)
        t = 0.0 if denom == 0 else max(0.0, min(1.0, float((p - a) @ e) / denom))
        c = a + t * e
        best = min(best, float(np.hypot(*(p - c))))
        if m == 2:
            break
    return best


class TestConvexHull:
    def test_square_with_interior_and_edge_points(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.5, 0.0)]
        assert convex_hull_ccw(pts) == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))

    @pytest.mark.parametrize("side", [1e-200, 5e-324])
    def test_tiny_square_keeps_its_vertices(self, side):
        # the float cross products underflow to 0 here
        square = ((0.0, 0.0), (side, 0.0), (side, side), (0.0, side))
        assert convex_hull_ccw(square + ((0.0, 0.0),)) == square

    @pytest.mark.parametrize("p, q, ccw", [
        # the float cross product of p and q is 0; exactly it is 9.0e-19 > 0
        ((0.23796462709189137, 0.08804691202399981), (0.4969792363920115, 0.18388231746504427),
         True),
        # and here -1.0e-17 < 0
        ((0.36995516654807925, 0.13688341162278933), (0.8168018434692345, 0.30221668208361674),
         False),
    ])
    def test_nearly_collinear_points_keep_their_exact_turn(self, p, q, ccw):
        origin = (0.0, 0.0)
        assert convex_hull_ccw([origin, p, q]) == ((origin, p, q) if ccw else (origin, q, p))


class TestPolygonFromConstraints:
    def test_inactive_sum_is_rectangle(self):
        region = LinearRegion((1.0,), (1.0,), (2.0,))
        poly = polygon_from_constraints(region)
        assert poly.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))

    def test_clipped_pentagon(self):
        # oracle: corner heights from the sum line by hand arithmetic
        region = LinearRegion((0.709,), (0.709,), (1.293,))
        poly = polygon_from_constraints(region)
        y = 1.293 - 0.709
        assert poly.vertices == ((0.0, 0.0), (0.709, 0.0), (0.709, y), (y, 0.709),
                                 (0.0, 0.709))

    def test_degenerate_segment(self):
        region = LinearRegion((0.0,), (1.0,), (1.0,))
        poly = polygon_from_constraints(region)
        assert poly.vertices == ((0.0, 0.0), (0.0, 1.0))

    def test_all_zero_is_origin(self):
        region = LinearRegion((0.0,), (0.0,), (0.0,))
        poly = polygon_from_constraints(region)
        assert poly.vertices == ((0.0, 0.0),)

    def test_min_of_lists_is_used(self):
        region = LinearRegion((1.0, 0.4), (2.0, 0.7, 0.9), (5.0, 1.0))
        poly = polygon_from_constraints(region)
        assert max(v[0] for v in poly.vertices) == pytest.approx(0.4)
        assert max(v[1] for v in poly.vertices) == pytest.approx(0.7)

    @given(st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=60, deadline=None)
    def test_vertices_satisfy_bounds(self, m1, m2, ms):
        poly = polygon_from_constraints(LinearRegion((m1,), (m2,), (ms,)))
        for x, y in poly.vertices:
            assert x <= m1 + 1e-9
            assert y <= m2 + 1e-9
            assert x + y <= ms + 1e-9
            assert x >= -1e-9 and y >= -1e-9

    @pytest.mark.parametrize("m1,m2,ms", [
        (1.0, 1.0, 1.293), (0.5, 2.0, 1.0), (2.0, 2.0, 1.0), (1.0, 1.0, 3.0),
        (0.709, 0.709, 1.293), (1.3, 0.2, 0.9),
    ])
    def test_against_grid_hull_oracle(self, m1, m2, ms):
        poly = polygon_from_constraints(LinearRegion((m1,), (m2,), (ms,)))
        oracle = _grid_hull_oracle(m1, m2, ms)
        # one-sided: every brute-force feasible hull point lies inside the
        # returned polygon to 1e-9
        for p in oracle:
            assert p[0] <= min(m1, ms) + 1e-9
            d_inside = (p[0] - min(m1, ms),
                        p[1] - min(m2, ms),
                        p[0] + p[1] - ms)
            assert max(d_inside) <= 1e-9
        # two-sided Hausdorff at the grid resolution: polygon vertices sit
        # within 1.5 grid diagonals of the brute-force hull
        cell = math.hypot(m1 / 399 if m1 > 0 else 0.0, m2 / 399 if m2 > 0 else 0.0)
        for v in poly.vertices:
            assert _point_to_poly_dist(np.array(v), oracle) <= 1.5 * cell + 1e-12
