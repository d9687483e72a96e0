"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL line with its runtime; tolerances are
the criterion's stated ones.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion report.
"""

import math
import random
import time

import numpy as np
import pytest

from hdmac.cli import run_command
from hdmac.core import (
    ChannelGains,
    DfAllocation,
    PdfAllocation,
    PowerBudget,
    TimeSlots,
    c_gauss,
    polygon_from_constraints,
    power_used,
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
)
from hdmac.scenario import parse_scenario
from hdmac.verify import pdf_to_df_allocation, verify_degraded_capacity
from hdmac import dmc as dmc_mod
from helpers import (
    gaussian_conditional_mi_bits,
    random_pdf_input,
    random_slot_channels,
)

BUDGET = PowerBudget(2.0, 2.0)
CFG = SearchConfig()


def gains(k: float) -> ChannelGains:
    return ChannelGains(k, k, 1.0, 1.0, 1.0)


class _Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        return False


def _report(num: int, label: str, passed: bool, elapsed: float, limit: float):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {num}: {label} ({elapsed:.1f}s < {limit:.0f}s)")


def test_criterion_1_mac_special_case():
    limit = 1.0
    with _Timer() as t:
        g = gains(2.0)
        slots = TimeSlots(0.0, 0.0, 1.0)
        pdf = PdfAllocation(0, 0, 0, 0, 2.0, 2.0, 0, 0, 0, 0)
        dfa = DfAllocation(0, 0, 2.0, 2.0, 0, 0)
        mac = baseline_region("MAC", g, BUDGET)
        ok = True
        for region in (pdf_joint_region(g, slots, pdf), df_region(g, slots, dfa)):
            ok &= abs(region.min_r1 - c_gauss(2.0)) <= 1e-12
            ok &= abs(region.min_r2 - c_gauss(2.0)) <= 1e-12
            ok &= all(abs(s - c_gauss(4.0)) <= 1e-12 for s in region.sum_bounds)
            poly = polygon_from_constraints(region)
            ok &= len(poly.vertices) == len(mac.vertices)
            ok &= all(abs(a - b) <= 1e-12
                      for va, vb in zip(poly.vertices, mac.vertices)
                      for a, b in zip(va, vb))
        ok &= abs(c_gauss(2.0) - 0.79248) <= 5e-6
        ok &= abs(c_gauss(4.0) - 1.16096) <= 5e-6
    _report(1, "slot-3-only regions reproduce the classical MAC pentagon",
            ok and t.elapsed < limit, t.elapsed, limit)
    assert ok
    assert t.elapsed < limit


def test_criterion_2_containment_suite():
    limit = 30.0
    violations = []
    with _Timer() as t:
        for k in (1.5, 2.0, 4.0):
            g = gains(k)
            rng = random.Random(1000 + int(10 * k))
            for _ in range(200):
                slots, alloc = sample_allocation("PDF_JOINT", g, BUDGET, rng)
                pj = polygon_from_constraints(pdf_joint_region(g, slots, alloc))
                ps = polygon_from_constraints(pdf_separate_region(g, slots, alloc))
                ok, slack = region_contains(pj, ps, 1e-9)
                if not ok:
                    violations.append(("separate", k, slack))
                pp = polygon_from_constraints(pdf_partial_user_region(g, slots, alloc))
                ok, slack = region_contains(pj, pp, 1e-9)
                if not ok:
                    violations.append(("partial", k, slack))
                dslots, dalloc = sample_allocation("DF", g, BUDGET, rng)
                pd = polygon_from_constraints(df_region(g, dslots, dalloc))
                po = polygon_from_constraints(gaussian_outer_region(g, dslots, dalloc))
                ok, slack = region_contains(po, pd, 1e-9)
                if not ok:
                    violations.append(("outer", k, slack))
    ok = not violations
    _report(2, "separate/partial/DF regions sit inside joint/full/outer "
               "(3 x 200 seeded allocations)", ok and t.elapsed < limit,
            t.elapsed, limit)
    assert ok, violations[:5]
    assert t.elapsed < limit


def test_criterion_3_pdf_df_equivalence():
    limit = 60.0
    with _Timer() as t:
        g = gains(2.0)
        fr_pdf = frontier(g, BUDGET, "PDF_JOINT", 17, CFG)
        forward = [(r.slots, pdf_to_df_allocation(r.allocation)) for r in fr_pdf.points]
        fr_df = frontier(g, BUDGET, "DF", 17, CFG)
        max_gap = max(abs(a.value - b.value)
                      for a, b in zip(fr_pdf.points, fr_df.points))
        feas_err = 0.0
        worst_obj_slack = math.inf
        for rp, (slots, dalloc) in zip(fr_pdf.points, forward):
            u1p, u2p = power_used("PDF", rp.slots, rp.allocation)
            u1d, u2d = power_used("DF", slots, dalloc)
            feas_err = max(feas_err, abs(u1p - u1d), abs(u2p - u2d))
            # the mapped allocation must support the source objective
            poly = polygon_from_constraints(df_region(g, slots, dalloc))
            mapped_val = max(rp.mu[0] * v[0] + rp.mu[1] * v[1] for v in poly.vertices)
            worst_obj_slack = min(worst_obj_slack, mapped_val - rp.value)
        ok = max_gap <= 1e-3 and feas_err <= 1e-9 and worst_obj_slack >= -1e-9
    _report(3, f"optimized frontiers agree (max gap {max_gap:.2e} <= 1e-3), "
               "mapping preserves feasibility and objective",
            ok and t.elapsed < limit, t.elapsed, limit)
    assert max_gap <= 1e-3
    assert feas_err <= 1e-9
    assert worst_obj_slack >= -1e-9
    assert t.elapsed < limit


def test_criterion_4_nesting():
    limit = 90.0
    with _Timer() as t:
        hulls = []
        for k in (1.5, 2.0, 4.0):
            hulls.append((k, frontier(gains(k), BUDGET, "DF", 17, CFG).hull))
        mac = baseline_region("MAC", gains(1.5), BUDGET)
        ok = True
        details = []
        for (klo, hlo), (khi, hhi) in zip(hulls, hulls[1:]):
            inner_ok, slack = region_contains(hhi, hlo, 1e-6)
            rev_ok, rev_slack = region_contains(hlo, hhi, 1e-6)
            strict = (not rev_ok) and rev_slack < -1e-3
            ok &= inner_ok and strict
            details.append((klo, khi, slack, rev_slack))
        for k, hull in hulls:
            base_ok, slack = region_contains(hull, mac, 1e-6)
            rev_ok, rev_slack = region_contains(mac, hull, 1e-6)
            ok &= base_ok and (not rev_ok) and rev_slack < -1e-3
    _report(4, "DF hulls strictly nested over k12 in {1.5, 2, 4} and above MAC",
            ok and t.elapsed < limit, t.elapsed, limit)
    assert ok, details
    assert t.elapsed < limit


def test_criterion_5_tightness_trend():
    limit = 120.0
    with _Timer() as t:
        gap = []
        for k in (2.0, 4.0, 8.0, 16.0):
            g = gains(k)
            r_df = optimize_scheme(g, BUDGET, "DF", (1.0, 1.0), CFG)
            r_out = optimize_scheme(g, BUDGET, "OUTER", (1.0, 1.0), CFG)
            gap.append(r_out.value - r_df.value)
        ok = all(a > b for a, b in zip(gap, gap[1:])) and all(v >= -1e-9 for v in gap)
    _report(5, "outer-vs-DF sum-rate gap strictly decreasing over "
               f"k in {{2,4,8,16}}: {['%.2e' % v for v in gap]}",
            ok and t.elapsed < limit, t.elapsed, limit)
    assert ok, gap
    assert t.elapsed < limit


def test_criterion_6_degraded_capacity():
    limit = 120.0
    with _Timer() as t:
        g = gains(2.0)
        rho = NoiseCorrelation(g.k10 / g.k12, g.k20 / g.k21)
        rng = random.Random(77)
        max_diff = 0.0
        for _ in range(100):
            slots, alloc = sample_allocation("DF", g, BUDGET, rng)
            rd = df_region(g, slots, alloc)
            ro = degraded_outer_region(g, slots, alloc, rho)
            max_diff = max(max_diff,
                           abs(ro.min_r1 - rd.min_r1), abs(ro.min_r2 - rd.min_r2),
                           abs(ro.sum_bounds[0] - rd.sum_bounds[0]),
                           abs(ro.sum_bounds[1] - rd.sum_bounds[3]))
        fr_df = frontier(g, BUDGET, "DF", 9, CFG)
        fr_deg = frontier(g, BUDGET, "DEGRADED", 9, CFG, rho=rho)
        # each hull inside the other
        hull_slack = min(region_contains(a.hull, b.hull, 1e-6)[1]
                         for a, b in ((fr_df, fr_deg), (fr_deg, fr_df)))
        verdict = verify_degraded_capacity(g)
        ok = (max_diff <= 1e-12 and hull_slack >= -1e-6
              and verdict.passed and verdict.applicable)
    _report(6, f"matched noise correlation collapses the outer bound onto DF "
               f"(max bound diff {max_diff:.1e}, hull slack {hull_slack:.1e})",
            ok and t.elapsed < limit, t.elapsed, limit)
    assert max_diff <= 1e-12
    assert hull_slack >= -1e-6
    assert verdict.passed
    assert t.elapsed < limit


def test_criterion_7_dmc_oracle_suite():
    limit = 20.0
    with _Timer() as t:
        rng = np.random.default_rng(2024)
        slots = TimeSlots(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
        ok = True
        for _ in range(50):
            ch = random_slot_channels(rng)
            dist = random_pdf_input(rng)
            # chain rule on the slot-1 joint
            j1 = np.einsum("xu,xab->xuab", dist.pmf_x10_u, ch.slot1)
            lhs = dmc_mod.mutual_information(j1, 0, (2, 3))
            rhs = (dmc_mod.mutual_information(j1, 0, 2)
                   + dmc_mod.mutual_information(j1, 0, 3, (2,)))
            ok &= abs(lhs - rhs) <= 1e-10
            rj = dmc_mod.pdf_joint_region(ch, dist, slots)
            rs = dmc_mod.pdf_separate_region(ch, dist, slots)
            ok &= abs(rs.r1_bounds[0] - rj.r1_bounds[0]) <= 1e-12
            ok &= abs(rs.r2_bounds[0] - rj.r2_bounds[0]) <= 1e-12
            ok &= abs(rs.sum_bounds[0] - rj.sum_bounds[0]) <= 1e-12
            for i in (1, 2, 3):
                ok &= rs.sum_bounds[i] <= rj.sum_bounds[i] + 1e-12
            outer = dmc_mod.outer_region("pdf", ch, dmc_mod.extend_pdf_to_outer(dist),
                                         slots)
            pj = polygon_from_constraints(rj)
            po = polygon_from_constraints(outer)
            contained, _ = region_contains(po, pj, 1e-9)
            ok &= contained
    _report(7, "50 random binary DMC instances: chain rule, separate-vs-joint "
               "caps, achievable inside outer", ok and t.elapsed < limit,
            t.elapsed, limit)
    assert ok
    assert t.elapsed < limit


def test_criterion_8_muser_consistency():
    limit = 60.0
    with _Timer() as t:
        ok = True
        # m = 2 identification with the two-user closed forms
        g2 = MUserGains(m=2, k_user=((0.0, 2.0), (2.0, 0.0)), k_dest=(1.0, 1.0),
                        noise=1.0)
        alloc2 = MUserAllocation((0.2, 0.2, 0.6), (4.0, 4.0), (1.0, 1.0), (1.0, 1.0))
        ach = dict(muser_achievable_constraints(g2, alloc2, (2.0, 2.0)))
        out = dict(muser_outer_constraints(g2, alloc2, (2.0, 2.0)))
        ref = df_region(gains(2.0), TimeSlots(0.2, 0.2, 0.6),
                        DfAllocation(4, 4, 1, 1, 1, 1))
        refo = gaussian_outer_region(gains(2.0), TimeSlots(0.2, 0.2, 0.6),
                                     DfAllocation(4, 4, 1, 1, 1, 1))
        pairs = [
            (ach[("subset", (1,))], ref.r1_bounds[0]),
            (ach[("subset", (2,))], ref.r2_bounds[0]),
            (ach[("subset", (1, 2))], ref.sum_bounds[0]),
            (ach[("total", (2,))], ref.sum_bounds[1]),
            (ach[("total", (1,))], ref.sum_bounds[2]),
            (ach[("total", ())], ref.sum_bounds[3]),
            (out[("subset", (1,))], refo.r1_bounds[0]),
            (out[("subset", (2,))], refo.r2_bounds[0]),
            (out[("subset", (1, 2))], refo.sum_bounds[0]),
            (out[("total", ())], refo.sum_bounds[1]),
        ]
        ok &= all(abs(a - b) <= 1e-12 for a, b in pairs)

        # m = 3: closed-form last-slot terms against the Gaussian MI oracle
        m = 3
        k_user = tuple(tuple(0.0 if i == j else 2.0 for j in range(m)) for i in range(m))
        g3 = MUserGains(m=m, k_user=k_user, k_dest=(1.0, 1.2, 0.8), noise=1.0)
        slots3 = (0.15, 0.15, 0.15, 0.55)
        alloc3 = MUserAllocation(
            slots3, (4.0, 4.0, 4.0),
            (0.8 * 1.4 / 0.55, 0.5 * 1.4 / 0.55, 0.3 * 1.4 / 0.55),
            (0.2 * 1.4 / 0.55, 0.5 * 1.4 / 0.55, 0.7 * 1.4 / 0.55))
        budgets3 = (2.0, 2.0, 2.0)
        ach3 = dict(muser_achievable_constraints(g3, alloc3, budgets3))
        y = m + 1
        cov = np.zeros((m + 2, m + 2))
        for k in range(m):
            cov[k, k] = alloc3.p_priv[k] + alloc3.p_coop[k]
            cov[k, m] = cov[m, k] = math.sqrt(alloc3.p_coop[k])
        cov[m, m] = 1.0
        for i in range(m):
            for j in range(m):
                if i != j:
                    cov[i, j] = math.sqrt(alloc3.p_coop[i] * alloc3.p_coop[j])
        h = np.array(g3.k_dest)
        for k in range(m):
            cov[k, y] = cov[y, k] = sum(h[j] * cov[k, j] for j in range(m))
        cov[m, y] = cov[y, m] = sum(h[j] * cov[m, j] for j in range(m))
        cov[y, y] = (sum(h[i] * h[j] * cov[i, j] for i in range(m) for j in range(m))
                     + g3.noise)
        for subset_mask in range(1, 1 << m):
            subset = tuple(k for k in range(m) if subset_mask & (1 << k))
            comp = tuple(k for k in range(m) if k not in subset)
            oracle = gaussian_conditional_mi_bits(cov, subset, (y,), comp + (m,))
            key = ("subset", tuple(k + 1 for k in subset))
            solo = sum(alloc3.slots[k]
                       * c_gauss(min(g3.k_user[k][j] for j in range(m) if j != k) ** 2
                                 * alloc3.p_solo[k] / g3.noise) for k in subset)
            ok &= abs((ach3[key] - solo) - alloc3.slots[m] * oracle) <= 1e-9
        oracle_total = gaussian_conditional_mi_bits(cov, tuple(range(m)), (y,))
        direct = sum(alloc3.slots[k] * c_gauss(g3.k_dest[k] ** 2 * alloc3.p_solo[k])
                     for k in range(m))
        ok &= abs((ach3[("total", ())] - direct)
                  - alloc3.slots[m] * oracle_total) <= 1e-9

        # m = 3 achievable below outer on 50 random instances
        rng = random.Random(99)
        for _ in range(50):
            k_user = tuple(tuple(0.0 if i == j else 0.5 + 3.0 * rng.random()
                                 for j in range(m)) for i in range(m))
            gr = MUserGains(m=m, k_user=k_user,
                            k_dest=tuple(0.2 + rng.random() for _ in range(m)),
                            noise=0.5 + rng.random())
            raw = sorted(rng.random() for _ in range(m))
            slots_r = (raw[0] / 2, (raw[1] - raw[0]) / 2, (raw[2] - raw[1]) / 2,
                       1.0 - raw[2] / 2)
            budgets_r = tuple(0.5 + 2.0 * rng.random() for _ in range(m))
            p_solo, p_priv, p_coop = [], [], []
            for k in range(m):
                sf, pf = rng.random(), rng.random()
                solo = sf * budgets_r[k] / slots_r[k] if slots_r[k] > 0 else 0.0
                rest = (budgets_r[k] - slots_r[k] * solo) / slots_r[m]
                p_solo.append(solo)
                p_priv.append(pf * rest)
                p_coop.append(rest - p_priv[-1])
            alloc_r = MUserAllocation(slots_r, p_solo, p_priv, p_coop)
            ach_r = dict(muser_achievable_constraints(gr, alloc_r, budgets_r))
            out_r = dict(muser_outer_constraints(gr, alloc_r, budgets_r))
            ok &= all(ach_r[key] <= out_r[key] + 1e-12 for key in ach_r)
    _report(8, "m-user constraints: m=2 identification, m=3 Gaussian MI oracle, "
               "achievable inside outer", ok and t.elapsed < limit, t.elapsed, limit)
    assert ok
    assert t.elapsed < limit


DETERMINISM_DOC = """
name: determinism
gains: {k12: 2.0, k21: 2.0, k10: 1.0, k20: 1.0, noise: 1.0}
budget: {p1: 2.0, p2: 2.0}
search: {slot_grid: 6, power_grid: 5, refine_iters: 15, seed: 4}
"""


def test_criterion_9_determinism(tmp_path):
    limit = 120.0
    with _Timer() as t:
        sc = parse_scenario(DETERMINISM_DOC)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        run_command("frontier", sc, out1, weights=5)
        run_command("frontier", sc, out2, weights=5)
        names = sorted(p.name for p in out1.iterdir())
        ok = names == sorted(p.name for p in out2.iterdir())
        for name in names:
            ok &= (out1 / name).read_bytes() == (out2 / name).read_bytes()
    _report(9, "repeated frontier runs are byte-identical",
            ok and t.elapsed < limit, t.elapsed, limit)
    assert ok
    assert t.elapsed < limit
