"""Shared oracles and random-instance builders for the test suite.

The oracles here are deliberately independent of the library code paths
they check: mutual information by explicit nested loops over atoms, convex
hulls via scipy, Gaussian mutual information via covariance determinants.
"""

import math

import numpy as np

from hdmac.core import TimeSlots
from hdmac.dmc import (
    DfInputDistribution,
    OuterInputDistribution,
    PdfInputDistribution,
    SlotChannels,
    df_region,
    outer_region,
    pdf_joint_region,
    pdf_separate_region,
)
from hdmac.muser import MUserAllocation, MUserGains
from hdmac.muser import power_used as muser_power_used


def naive_conditional_mi(joint, a_axes, b_axes, c_axes=()):
    """I(A;B|C) in bits by direct summation over every atom of the joint."""
    joint = np.asarray(joint, dtype=float)
    axes = list(range(joint.ndim))
    a_axes, b_axes, c_axes = tuple(a_axes), tuple(b_axes), tuple(c_axes)

    def marg(keep):
        drop = tuple(ax for ax in axes if ax not in keep)
        return joint.sum(axis=drop) if drop else joint

    p_abc = marg(tuple(sorted(a_axes + b_axes + c_axes)))
    p_ac = marg(tuple(sorted(a_axes + c_axes)))
    p_bc = marg(tuple(sorted(b_axes + c_axes)))
    p_c = marg(tuple(sorted(c_axes)))

    order = tuple(sorted(a_axes + b_axes + c_axes))
    pos = {ax: i for i, ax in enumerate(order)}
    a_pos = [pos[ax] for ax in sorted(a_axes)]
    b_pos = [pos[ax] for ax in sorted(b_axes)]
    c_pos = [pos[ax] for ax in sorted(c_axes)]
    ac_order = tuple(sorted(a_axes + c_axes))
    bc_order = tuple(sorted(b_axes + c_axes))
    c_order = tuple(sorted(c_axes))

    total = 0.0
    for idx in np.ndindex(p_abc.shape):
        p = p_abc[idx]
        if p <= 0.0:
            continue
        full = {order[i]: idx[i] for i in range(len(order))}
        pac = p_ac[tuple(full[ax] for ax in ac_order)]
        pbc = p_bc[tuple(full[ax] for ax in bc_order)]
        pc = p_c[tuple(full[ax] for ax in c_order)] if c_axes else 1.0
        total += p * math.log2(p * pc / (pac * pbc))
    return total


def hull_area(points):
    """Polygon area via the shoelace formula (points in order)."""
    pts = list(points)
    s = 0.0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        s += x1 * y2 - x2 * y1
    return 0.5 * s


def random_slot_channels(rng, nx1=2, ny1=2, ny12=2, nx2=2, ny2=2, ny21=2,
                         nx13=2, nx23=2, ny3=2) -> SlotChannels:
    """Channels drawn from a flat Dirichlet per conditional row."""
    s1 = rng.dirichlet(np.ones(ny1 * ny12), size=nx1).reshape(nx1, ny1, ny12)
    s2 = rng.dirichlet(np.ones(ny2 * ny21), size=nx2).reshape(nx2, ny2, ny21)
    s3 = rng.dirichlet(np.ones(ny3), size=nx13 * nx23).reshape(nx13, nx23, ny3)
    return SlotChannels(s1, s2, s3)


def random_pdf_input(rng, nx10=2, nu=2, nx20=2, nv=2, nx13=2, nx23=2) -> PdfInputDistribution:
    a = rng.dirichlet(np.ones(nx10 * nu)).reshape(nx10, nu)
    b = rng.dirichlet(np.ones(nx20 * nv)).reshape(nx20, nv)
    c = rng.dirichlet(np.ones(nx13), size=nu * nv).reshape(nu, nv, nx13)
    d = rng.dirichlet(np.ones(nx23), size=nu * nv).reshape(nu, nv, nx23)
    return PdfInputDistribution(a, b, c, d)


def random_df_input(rng, nx12=2, nx21=2, ns=2, nx13=2, nx23=2) -> DfInputDistribution:
    return DfInputDistribution(
        rng.dirichlet(np.ones(nx12)),
        rng.dirichlet(np.ones(nx21)),
        rng.dirichlet(np.ones(ns)),
        rng.dirichlet(np.ones(nx13), size=ns).reshape(ns, nx13),
        rng.dirichlet(np.ones(nx23), size=ns).reshape(ns, nx23),
    )


def random_outer_input(rng, nx10=2, nu=2, nx20=2, nv=2, nx13=2, nx23=2) -> OuterInputDistribution:
    a = rng.dirichlet(np.ones(nx10 * nu)).reshape(nx10, nu)
    b = rng.dirichlet(np.ones(nx20 * nv)).reshape(nx20, nv)
    c = rng.dirichlet(np.ones(nx13), size=nu * nv * nx10).reshape(nu, nv, nx10, nx13)
    d = rng.dirichlet(np.ones(nx23), size=nu * nv * nx20).reshape(nu, nv, nx20, nx23)
    return OuterInputDistribution(a, b, c, d)


def random_dmc_instance(rng):
    """(channels, pdf input, df input, outer input, slots) of one random
    instance: every alphabet has 1-4 symbols, and one draw in four each
    leaves slot 1, 2 or 3 empty."""
    (nx1, ny1, ny12, nx2, ny2, ny21, nx13, nx23, ny3,
     nu, nv, ns) = (int(n) for n in rng.integers(1, 5, size=12))
    ch = random_slot_channels(rng, nx1, ny1, ny12, nx2, ny2, ny21, nx13, nx23, ny3)
    pdf = random_pdf_input(rng, nx1, nu, nx2, nv, nx13, nx23)
    df = random_df_input(rng, nx1, nx2, ns, nx13, nx23)
    outer = random_outer_input(rng, nx1, nu, nx2, nv, nx13, nx23)
    fractions = rng.dirichlet(np.ones(3))
    empty = int(rng.integers(0, 4))
    if empty:
        fractions[empty - 1] = 0.0
        fractions /= fractions.sum()
    return ch, pdf, df, outer, TimeSlots(*(float(f) for f in fractions))


def dmc_region_values(ch, pdf, df, outer, slots):
    """Every cap of the five DMC regions of one instance, by region name."""
    regions = {
        "pdf_joint": pdf_joint_region(ch, pdf, slots),
        "pdf_separate": pdf_separate_region(ch, pdf, slots),
        "df": df_region(ch, df, slots),
        "outer_pdf": outer_region("pdf", ch, outer, slots),
        "outer_df": outer_region("df", ch, outer, slots),
    }
    return {name: [*r.r1_bounds, *r.r2_bounds, *r.sum_bounds] for name, r in regions.items()}


def gaussian_conditional_mi_bits(cov, a_idx, b_idx, c_idx=()):
    """I(A;B|C) for jointly Gaussian variables from their covariance matrix,
    via the determinant identity I = 0.5 log2( |S_AC| |S_BC| / (|S_C| |S_ABC|) )."""
    cov = np.asarray(cov, dtype=float)

    def logdet(idx):
        idx = tuple(idx)
        if not idx:
            return 0.0
        sub = cov[np.ix_(idx, idx)]
        sign, val = np.linalg.slogdet(sub)
        assert sign > 0, "covariance must be positive definite"
        return val

    a_idx, b_idx, c_idx = tuple(a_idx), tuple(b_idx), tuple(c_idx)
    val = (logdet(a_idx + c_idx) + logdet(b_idx + c_idx)
           - logdet(c_idx) - logdet(a_idx + b_idx + c_idx))
    return 0.5 * val / math.log(2.0)


def random_muser_instance(rng, m, empty=()):
    """A random m-user (gains, allocation, budgets) that meets every power
    identity exactly.  Slots listed in ``empty`` (0-based, m is the last
    slot) have length 0 and carry no power; each user needs its own slot or
    the last one."""
    k_user = tuple(tuple(0.0 if i == j else rng.uniform(0.2, 3.0) for j in range(m))
                   for i in range(m))
    gains = MUserGains(m, k_user, tuple(rng.uniform(0.2, 2.0) for _ in range(m)),
                       rng.uniform(0.5, 2.0))
    raw = [0.0 if s in empty else rng.uniform(0.1, 1.0) for s in range(m + 1)]
    slots = [r / sum(raw) for r in raw]

    def power(slot):
        return rng.uniform(0.0, 4.0) if slots[slot] > 0.0 else 0.0

    alloc = MUserAllocation(slots, [power(k) for k in range(m)], [power(m) for _ in range(m)],
                            [power(m) for _ in range(m)])
    return gains, alloc, muser_power_used(gains, alloc)
