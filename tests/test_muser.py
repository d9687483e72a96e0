import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from hdmac.core import ChannelGains, DfAllocation, TimeSlots, ValidationError, c_gauss
from hdmac.gaussian import df_region, gaussian_outer_region
from hdmac.muser import (
    MUserAllocation,
    MUserGains,
    muser_achievable_constraints,
    muser_condition_check,
    muser_outer_constraints,
    power_used,
)
from hdmac.scenario import parse_scenario
from helpers import gaussian_conditional_mi_bits, random_muser_instance

C = c_gauss


def two_user_instance():
    gains = MUserGains(m=2, k_user=((0.0, 2.0), (2.0, 0.0)), k_dest=(1.0, 1.0), noise=1.0)
    slots = (0.2, 0.2, 0.6)
    alloc = MUserAllocation(slots, p_solo=(4.0, 4.0), p_priv=(1.0, 1.0), p_coop=(1.0, 1.0))
    return gains, alloc, (2.0, 2.0)


def three_user_instance(k_inter=2.0):
    m = 3
    k_user = tuple(tuple(0.0 if i == j else k_inter for j in range(m)) for i in range(m))
    gains = MUserGains(m=m, k_user=k_user, k_dest=(1.0, 1.0, 1.0), noise=1.0)
    slots = (0.15, 0.15, 0.15, 0.55)
    solo = tuple(0.3 * 2.0 / 0.15 for _ in range(m))
    rest = tuple(0.7 * 2.0 / 0.55 for _ in range(m))
    alloc = MUserAllocation(slots, p_solo=solo,
                            p_priv=tuple(0.5 * r for r in rest),
                            p_coop=tuple(0.5 * r for r in rest))
    return gains, alloc, (2.0, 2.0, 2.0)


def bounds_by_key(constraints):
    return {key: bound for key, bound in constraints}


class TestTypes:
    def test_gains_shape_checked(self):
        with pytest.raises(ValidationError):
            MUserGains(m=3, k_user=((0, 1), (1, 0)), k_dest=(1, 1, 1), noise=1.0)
        with pytest.raises(ValidationError):
            MUserGains(m=7, k_user=tuple(tuple(0.0 for _ in range(7)) for _ in range(7)),
                       k_dest=tuple(1.0 for _ in range(7)), noise=1.0)

    def test_allocation_shape_and_sign(self):
        with pytest.raises(ValidationError):
            MUserAllocation((0.5, 0.5), (1.0,), (1.0,), (1.0,))
        with pytest.raises(ValidationError):
            MUserAllocation((0.25, 0.25, 0.5), (1.0, -0.1), (1.0, 1.0), (0.0, 0.0))

    @pytest.mark.parametrize("bad", ["abc", ("abc", 1.0), 3, None, (True, 1.0), ("2.0", 1.0)])
    def test_malformed_entries_raise_validation_error(self, bad):
        with pytest.raises(ValidationError, match="MUserGains.k_dest"):
            MUserGains(m=2, k_user=((0.0, 2.0), (2.0, 0.0)), k_dest=bad, noise=1.0)
        with pytest.raises(ValidationError, match="MUserGains.k_user"):
            MUserGains(m=2, k_user=(bad, (2.0, 0.0)), k_dest=(1.0, 1.0), noise=1.0)
        with pytest.raises(ValidationError, match="MUserAllocation.p_solo"):
            MUserAllocation((0.2, 0.2, 0.6), bad, (1.0, 1.0), (1.0, 1.0))

    def test_numpy_entries_accepted(self):
        g = MUserGains(m=2, k_user=np.array([[0.0, 2.0], [2.0, 0.0]]),
                       k_dest=(np.float64(1.0), np.float32(1.0)), noise=1.0)
        assert g.k_user == ((0.0, 2.0), (2.0, 0.0)) and g.k_dest == (1.0, 1.0)
        assert all(type(v) is float for v in g.k_dest)

    def test_power_identity_enforced(self):
        gains, alloc, budgets = two_user_instance()
        muser_achievable_constraints(gains, alloc, budgets)  # exact identity
        with pytest.raises(ValidationError):
            muser_achievable_constraints(gains, alloc, (1.0, 2.0))

    def test_power_used(self):
        gains, alloc, budgets = two_user_instance()
        assert power_used(gains, alloc) == pytest.approx(budgets, abs=1e-12)


# slots left empty in the random two-user cases; each user keeps its own
# slot or the last one
EMPTY = ((), (0,), (1,), (2,), (0, 1))


def two_user_cases():
    """The fixed instance, then random channels and allocations."""
    yield two_user_instance()
    rng = random.Random(2)
    for i in range(300):
        yield random_muser_instance(rng, 2, EMPTY[i % len(EMPTY)])


def two_user_region(region, gains, alloc):
    """A two-user region at the m = 2 instance's channel and allocation."""
    g2 = ChannelGains(gains.k_user[0][1], gains.k_user[1][0], *gains.k_dest, gains.noise)
    a2 = DfAllocation(alloc.p_solo[0], alloc.p_solo[1], alloc.p_priv[0], alloc.p_priv[1],
                      alloc.p_coop[0], alloc.p_coop[1])
    ref = region(g2, TimeSlots(*alloc.slots), a2)
    return [*ref.r1_bounds, *ref.r2_bounds, *ref.sum_bounds]


class TestTwoUserSpecialization:
    # df_caps is muser_caps at m = 2, and _credited writes the gains as
    # df_gains does, so the bounds are equal, not just close

    def test_matches_df_region_bound_for_bound(self):
        for gains, alloc, budgets in two_user_cases():
            got = bounds_by_key(muser_achievable_constraints(gains, alloc, budgets))
            keys = (("subset", (1,)), ("subset", (2,)), ("subset", (1, 2)),
                    ("total", (2,)), ("total", (1,)), ("total", ()))
            assert [got[k] for k in keys] == two_user_region(df_region, gains, alloc)

    def test_outer_matches_gain_substitution(self):
        for gains, alloc, budgets in two_user_cases():
            got = bounds_by_key(muser_outer_constraints(gains, alloc, budgets))
            keys = (("subset", (1,)), ("subset", (2,)), ("subset", (1, 2)), ("total", ()))
            assert ([got[k] for k in keys]
                    == two_user_region(gaussian_outer_region, gains, alloc))


GOLDEN = json.loads((Path(__file__).parent / "data" / "muser_golden.json").read_text())


def golden_instance(name):
    if name == "three_user.yaml":
        text = (Path(__file__).parents[1] / "scenarios" / name).read_text(encoding="utf-8")
        mu = parse_scenario(text).m_user
        return mu.gains, mu.allocation, mu.budgets
    m = int(name.split()[1])
    return random_muser_instance(random.Random(m), m)


class TestGoldenListing:
    """tests/data/muser_golden.json holds the listings of the shipped
    three-user scenario and of the instance random_muser_instance draws
    from random.Random(m) for each m = 2 ... 6, as the per-term formulas
    that preceded gaussian.muser_caps computed them."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_listing_matches_recorded_bounds(self, name):
        g, a, b = golden_instance(name)
        masks = range(1 << g.m)
        users = [tuple(k + 1 for k in range(g.m) if mask >> k & 1) for mask in masks]
        keys = [("subset", u) for u in users[1:]] + [("total", u) for u in users]
        for side, listing in (("achievable", muser_achievable_constraints(g, a, b)),
                              ("outer", muser_outer_constraints(g, a, b))):
            assert [key for key, _ in listing] == keys
            assert [bound for _, bound in listing] == pytest.approx(GOLDEN[name][side],
                                                                    rel=0, abs=1e-13)


class TestThreeUsers:
    def test_condition_collapses_total_sums(self):
        gains, alloc, budgets = three_user_instance(k_inter=2.0)
        ok, failing = muser_condition_check(gains, alloc)
        assert ok and failing == ()
        got = muser_achievable_constraints(gains, alloc, budgets)
        totals = {key[1]: bound for key, bound in got if key[0] == "total"}
        base = totals[()]
        for lam, bound in totals.items():
            assert bound >= base - 1e-12
        # the empty-set total matches the direct-link formula
        expect = (sum(0.15 * C(1.0 * alloc.p_solo[k]) for k in range(3))
                  + 0.55 * C(sum(alloc.p_priv)
                             + (sum(math.sqrt(p) for p in alloc.p_coop)) ** 2))
        assert base == pytest.approx(expect, abs=1e-12)

    def test_zero_powers_zero_bounds(self):
        gains, _, _ = three_user_instance()
        slots = (0.15, 0.15, 0.15, 0.55)
        alloc = MUserAllocation(slots, (0.0,) * 3, (0.0,) * 3, (0.0,) * 3)
        # zero budgets are rejected, so validate bounds directly with the
        # identity check bypassed through tiny budgets
        with pytest.raises(ValidationError):
            muser_achievable_constraints(gains, alloc, (0.0, 0.0, 0.0))

    def test_subset_monotonicity(self):
        gains, alloc, budgets = three_user_instance(k_inter=1.5)
        got = bounds_by_key(muser_achievable_constraints(gains, alloc, budgets))
        subsets = [key[1] for key in got if key[0] == "subset"]
        for t1 in subsets:
            for t2 in subsets:
                if set(t1) <= set(t2):
                    assert got[("subset", t1)] <= got[("subset", t2)] + 1e-12

    def test_achievable_below_outer_random_instances(self):
        rng = random.Random(42)
        for _ in range(50):
            m = 3
            k_user = tuple(tuple(0.0 if i == j else 0.5 + 3.0 * rng.random()
                                 for j in range(m)) for i in range(m))
            gains = MUserGains(m=m, k_user=k_user,
                               k_dest=tuple(0.2 + rng.random() for _ in range(m)),
                               noise=0.5 + rng.random())
            raw = sorted(rng.random() for _ in range(m))
            slots = (raw[0] / 2, (raw[1] - raw[0]) / 2, (raw[2] - raw[1]) / 2,
                     1.0 - raw[2] / 2)
            budgets = tuple(0.5 + 2.0 * rng.random() for _ in range(m))
            solo_frac = [rng.random() for _ in range(m)]
            priv_frac = [rng.random() for _ in range(m)]
            a_last = slots[m]
            p_solo, p_priv, p_coop = [], [], []
            for k in range(m):
                solo = solo_frac[k] * budgets[k] / slots[k] if slots[k] > 0 else 0.0
                rest = ((budgets[k] - slots[k] * solo) / a_last) if a_last > 0 else 0.0
                p_solo.append(solo)
                p_priv.append(priv_frac[k] * rest)
                p_coop.append(rest - p_priv[-1])
            alloc = MUserAllocation(slots, p_solo, p_priv, p_coop)
            ach = bounds_by_key(muser_achievable_constraints(gains, alloc, budgets))
            out = bounds_by_key(muser_outer_constraints(gains, alloc, budgets))
            for key, bound in ach.items():
                assert bound <= out[key] + 1e-12

    def test_dead_interuser_links(self):
        m = 3
        k_user = tuple(tuple(0.0 for _ in range(m)) for _ in range(m))
        gains = MUserGains(m=m, k_user=k_user, k_dest=(1.0, 1.0, 1.0), noise=1.0)
        slots = (0.15, 0.15, 0.15, 0.55)
        alloc = MUserAllocation(slots, (2.0,) * 3, (1.0,) * 3,
                                tuple((2.0 - 0.15 * 2.0 - 0.55 * 1.0) / 0.55 for _ in range(3)))
        budgets = tuple(power_used(gains, alloc))
        ach = bounds_by_key(muser_achievable_constraints(gains, alloc, budgets))
        out = bounds_by_key(muser_outer_constraints(gains, alloc, budgets))
        # achievable weakest-listener terms vanish; the outer solo terms
        # reduce to the direct-link terms
        assert ach[("subset", (1,))] == pytest.approx(
            0.55 * C(1.0 * alloc.p_priv[0]), abs=1e-12)
        direct = 0.15 * C(1.0 * alloc.p_solo[0])
        assert out[("subset", (1,))] == pytest.approx(
            direct + 0.55 * C(1.0 * alloc.p_priv[0]), abs=1e-12)


class TestConditionCheck:
    def test_all_strong(self):
        gains, alloc, _ = three_user_instance(k_inter=2.0)
        ok, failing = muser_condition_check(gains, alloc)
        assert ok and failing == ()

    def test_single_weak_pair_reported(self):
        m = 2
        gains = MUserGains(m=m, k_user=((0.0, 0.5), (2.0, 0.0)),
                           k_dest=(1.0, 1.0), noise=1.0)
        alloc = MUserAllocation((0.2, 0.2, 0.6), (4.0, 4.0), (1.0, 1.0), (1.0, 1.0))
        ok, failing = muser_condition_check(gains, alloc)
        assert not ok
        assert failing == ((1, 2),)

    def test_equality_passes(self):
        gains = MUserGains(m=2, k_user=((0.0, 1.0), (1.0, 0.0)),
                           k_dest=(1.0, 1.0), noise=1.0)
        alloc = MUserAllocation((0.2, 0.2, 0.6), (4.0, 4.0), (1.0, 1.0), (1.0, 1.0))
        ok, failing = muser_condition_check(gains, alloc)
        assert ok


class TestGaussianMiOracle:
    def test_last_slot_terms_match_covariance_determinants(self):
        gains, alloc, budgets = three_user_instance(k_inter=2.0)
        m = gains.m
        # covariance of (X_1, X_2, X_3, S, Y) in the last slot under the
        # construction X_k = sqrt(p_priv) X'_k + sqrt(p_coop) S
        n = m + 2
        cov = np.zeros((n, n))
        y = m + 1
        for k in range(m):
            cov[k, k] = alloc.p_priv[k] + alloc.p_coop[k]
            cov[k, m] = cov[m, k] = math.sqrt(alloc.p_coop[k])
        cov[m, m] = 1.0
        for k in range(m):
            for j in range(m):
                if j != k:
                    cov[k, j] = math.sqrt(alloc.p_coop[k] * alloc.p_coop[j])
        h = np.array(gains.k_dest)
        for k in range(m):
            cov[k, y] = cov[y, k] = sum(h[j] * cov[k, j] for j in range(m))
        cov[m, y] = cov[y, m] = sum(h[j] * cov[m, j] for j in range(m))
        cov[y, y] = sum(h[i] * h[j] * cov[i, j] for i in range(m) for j in range(m)) + gains.noise

        got = bounds_by_key(muser_achievable_constraints(gains, alloc, budgets))
        a_last = alloc.slots[m]
        for subset in [(0,), (1,), (0, 1), (0, 1, 2)]:
            comp = tuple(k for k in range(m) if k not in subset)
            want = gaussian_conditional_mi_bits(cov, subset, (y,), comp + (m,))
            key = ("subset", tuple(k + 1 for k in subset))
            solo = sum(alloc.slots[k] * C(4.0 * alloc.p_solo[k]) for k in subset)
            assert got[key] - solo == pytest.approx(a_last * want, abs=1e-9)
        # unconditioned total term
        want_total = gaussian_conditional_mi_bits(cov, tuple(range(m)), (y,))
        base = got[("total", ())]
        direct = sum(alloc.slots[k] * C(1.0 * alloc.p_solo[k]) for k in range(m))
        assert base - direct == pytest.approx(a_last * want_total, abs=1e-9)
