"""Closed-form Gaussian rate regions and outer bounds.

This module is the single source of every region formula, held in two
kernels: ``pdf_caps`` for the superposition schemes (PDF_JOINT,
PDF_SEPARATE, PDF_PARTIAL) and ``muser_caps`` for m-user decode-forward.
``df_caps`` is ``muser_caps`` at m = 2 and only selects caps: DF and its
outer bounds OUTER and DEGRADED differ only in the effective inter-user
gains built by ``df_gains`` and in whether the two middle sum caps are
dropped.  A kernel maps slot fractions and per-slot powers to caps.  It
uses only addition, subtraction, scaling by constants and two primitives
passed in as ``ops = (term, gmean)``, where ``term(alpha, num, noise)`` is
alpha * C(num / noise) and ``gmean(x, y)`` is sqrt(x * y), so the same
source runs on Python floats, numpy arrays and linear forms:

- ``CHECKED_OPS`` validate their arguments; ``scheme_caps_region`` runs the
  named scheme's kernel on them and returns a LinearRegion (one R1 cap, one
  R2 cap, the sum caps in the scheme's order), as do the ``*_region``
  functions, one scheme each;
- the optimizer records a kernel once on linear-form ops as a table of
  signed sums of terms a_s * C(K E / (a_s N)); only PDF_PARTIAL's caps
  subtract terms.

A slot of zero length contributes exactly zero regardless of the allocation,
so boundary slot splits are safe.

The decode-forward coherent term is, with Kk the destination gains,
    sum_k Kk^2 (p_priv[k] + p_coop[k]) + 2 sum_{i<j} Ki Kj sqrt(p_coop[i] p_coop[j]),
and the superposition scheme's fully coherent sum cap uses
    PU (K10 sqrt(c2) + K20 sqrt(d3))^2 + PV (K10 sqrt(c3) + K20 sqrt(d2))^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    ChannelGains,
    DfAllocation,
    LinearRegion,
    PdfAllocation,
    PowerBudget,
    RatePolygon,
    TimeSlots,
    ValidationError,
    _finite,
    c_gauss,
    convex_hull_ccw,
    polygon_from_constraints,
)

_SQRT_CLAMP = -1e-12  # round-off guard for sqrt arguments near zero


@dataclass(frozen=True)
class NoiseCorrelation:
    """Correlation factors between each inter-user noise and the destination noise."""

    rho1: float
    rho2: float

    def __post_init__(self) -> None:
        for name in ("rho1", "rho2"):
            v = getattr(self, name)
            if not (_finite(v) and abs(v) <= 1.0):
                raise ValidationError(f"NoiseCorrelation.{name} must lie in [-1, 1], got {v!r}")
            object.__setattr__(self, name, float(v))


def _gmean(x: float, y: float) -> float:
    """sqrt(x * y), validating the product against the round-off clamp."""
    p = x * y
    if p < 0.0:
        if p < _SQRT_CLAMP:
            raise ValidationError(f"sqrt argument {p!r} below round-off clamp")
        return 0.0
    return math.sqrt(p)


def _term(alpha: float, power_term: float, noise: float) -> float:
    """alpha * C(power/noise), defined as exactly 0 for a zero-length slot."""
    if alpha <= 0.0:
        return 0.0
    if power_term < 0.0:
        if power_term < _SQRT_CLAMP:
            raise ValidationError(f"negative SNR numerator {power_term!r}")
        power_term = 0.0
    return alpha * c_gauss(power_term / noise)


CHECKED_OPS = (_term, _gmean)

# the schemes each kernel evaluates: pdf_caps and df_caps
PDF_SCHEMES = ("PDF_JOINT", "PDF_SEPARATE", "PDF_PARTIAL")
DF_SCHEMES = ("DF", "OUTER", "DEGRADED")


# ---------------------------------------------------------------------------
# superposition / partial-decode-forward scheme
# ---------------------------------------------------------------------------

def pdf_gains(g: ChannelGains):
    """Kernel gains (K12^2, K21^2, K10, K20, N) of the superposition schemes."""
    return g.k12 ** 2, g.k21 ** 2, g.k10, g.k20, g.noise


def pdf_caps(scheme: str, gains, a1, a2, a3, powers, ops):
    """Caps (r1, r2, (s1, s2, s3, s4)) of a superposition scheme.

    ``gains`` come from pdf_gains.  ``powers`` are
    (pu, p10, pv, p20, p13, p23, ac2, ac3, ad2, ad3), where the four atoms
    are the slot-3 powers re-spent on the public symbols: user 1 on its own
    (ac2) and on the partner's (ac3), user 2 on its own (ad2) and on the
    partner's (ad3).
    """
    term, gmean = ops
    k12s, k21s, k10, k20, n = gains
    pu, p10, pv, p20, p13, p23, ac2, ac3, ad2, ad3 = powers
    k10s = k10 * k10
    k20s = k20 * k20
    su1 = pu + p10
    su2 = pv + p20
    t12 = term(a1, k12s * su1, n)
    t21 = term(a2, k21s * su2, n)
    if scheme == "PDF_PARTIAL":
        # the partner decodes only the public part (pdf_partial_user_region)
        t12 = t12 - term(a1, k12s * p10, n) + term(a1, k10s * p10, n)
        t21 = t21 - term(a2, k21s * p20, n) + term(a2, k20s * p20, n)
    if scheme == "PDF_SEPARATE":
        # slot-by-slot decoding (pdf_separate_region)
        u1 = term(a1, min(k12s, k10s) * p10, n)
        u2 = term(a2, min(k21s, k20s) * p20, n)
    else:
        u1 = term(a1, k10s * su1, n)
        u2 = term(a2, k20s * su2, n)
    priv = k10s * p13 + k20s * p23
    coh_u = k10s * ac2 + k20s * ad3 + 2.0 * k10 * k20 * gmean(ac2, ad3)
    coh_v = k10s * ac3 + k20s * ad2 + 2.0 * k10 * k20 * gmean(ac3, ad2)
    r1 = t12 + term(a3, k10s * p13, n)
    r2 = t21 + term(a3, k20s * p23, n)
    s1 = t12 + t21 + term(a3, priv, n)
    s2 = u1 + t21 + term(a3, priv + coh_u, n)
    s3 = t12 + u2 + term(a3, priv + coh_v, n)
    s4 = u1 + u2 + term(a3, priv + coh_u + coh_v, n)
    return r1, r2, (s1, s2, s3, s4)


def pdf_powers(a: PdfAllocation):
    """pdf_caps powers (pu, p10, pv, p20, p13, p23, ac2, ac3, ad2, ad3) of an allocation."""
    return (a.pu, a.p10, a.pv, a.p20, a.p13, a.p23,
            a.c2 * a.pu, a.c3 * a.pv, a.d2 * a.pv, a.d3 * a.pu)


def pdf_joint_region(g: ChannelGains, slots: TimeSlots, a: PdfAllocation) -> LinearRegion:
    """Superposition scheme, full decoding at each user, joint decoding at the destination."""
    return scheme_caps_region("PDF_JOINT", g, slots, a)


def pdf_separate_region(g: ChannelGains, slots: TimeSlots, a: PdfAllocation) -> LinearRegion:
    """Superposition scheme with slot-by-slot decoding at the destination.

    The conditioned slot-1/2 terms of the sum caps, the last one's included,
    keep only the private power p10 (p20) over the weaker of its two links.
    """
    return scheme_caps_region("PDF_SEPARATE", g, slots, a)


def pdf_partial_user_region(g: ChannelGains, slots: TimeSlots, a: PdfAllocation) -> LinearRegion:
    """Superposition scheme where each user decodes only the partner's public part.

    The inter-user terms decompose into the public part decoded against the
    private interference plus the private part decoded by the destination:
        C(K12^2 (PU+P10)/N) -> C(K12^2 PU / (K12^2 P10 + N)) + C(K10^2 P10 / N)
    and symmetrically for user 2.  The first term is evaluated as
    C(K12^2 (PU+P10)/N) - C(K12^2 P10/N), its equal in exact arithmetic.
    """
    return scheme_caps_region("PDF_PARTIAL", g, slots, a)


# ---------------------------------------------------------------------------
# decode-forward scheme and its outer bounds
# ---------------------------------------------------------------------------

def df_gains(scheme: str, g: ChannelGains, rho: NoiseCorrelation | None = None):
    """Kernel gains (E12, E21, K10, K20, N) of DF, OUTER or DEGRADED.

    E12 is K12^2 for DF, K12^2 + K10^2 for the cut-set bound OUTER and
    (K12^2 + K10^2 - 2 K10 K12 rho1) / (1 - rho1^2) for DEGRADED, whose
    inter-user noise is correlated with the destination noise; E21 likewise.
    """
    k10s = g.k10 * g.k10
    k20s = g.k20 * g.k20
    if scheme == "DF":
        e12, e21 = g.k12 ** 2, g.k21 ** 2
    elif scheme == "OUTER":
        e12, e21 = g.k12 ** 2 + k10s, g.k21 ** 2 + k20s
    else:
        if rho is None:
            raise ValidationError("DEGRADED needs a NoiseCorrelation")
        if abs(rho.rho1) >= 1.0 or abs(rho.rho2) >= 1.0:
            raise ValidationError("DEGRADED: |rho| = 1 is singular")
        e12 = (g.k12 ** 2 + k10s - 2.0 * g.k10 * g.k12 * rho.rho1) / (1.0 - rho.rho1 ** 2)
        e21 = (g.k21 ** 2 + k20s - 2.0 * g.k20 * g.k21 * rho.rho2) / (1.0 - rho.rho2 ** 2)
        e12, e21 = max(0.0, e12), max(0.0, e21)
    return e12, e21, g.k10, g.k20, g.noise


def muser_caps(gains, slots, powers, ops):
    """Caps (subset caps, total caps) of m-user decode-forward.

    ``gains`` are (credited, dest, noise): each user's credited squared gain
    in its own slot, the destination amplitudes and the noise; ``slots`` are
    (a_1, ..., a_m, a_last) and ``powers`` (p_solo, p_priv, p_coop).  Subset
    cap s (masks 1 ... 2^m - 1) bounds the sum rate of the users in s; total
    cap s (masks 0 ... 2^m - 1) the total sum rate, the users in s credited
    their gain and the rest their direct link."""
    term, gmean = ops
    credited, dest, n = gains
    p_solo, p_priv, p_coop = powers
    a_last = slots[-1]
    # Entry i of solo and priv sums over the users in mask i + 1, and entry
    # s of choice over all users, credited if in mask s and direct if not.
    # User k extends each list by the masks that hold k, adding in ascending
    # user order: the order of the two-user sums, whose every bit m = 2 keeps.
    solo, priv, choice = [], [], []
    for a, e, k, p, q in zip(slots, credited, dest, p_solo, p_priv):
        t = term(a, e * p, n)
        d = term(a, k * k * p, n)
        r = k * k * q
        size = len(solo)
        solo.append(t)
        priv.append(r)
        for i in range(size):
            solo.append(solo[i] + t)
            priv.append(priv[i] + r)
        choice = [x + d for x in choice] + [x + t for x in choice] if choice else [d, t]
    coherent = priv[-1]
    for k, c in zip(dest, p_coop):
        coherent = coherent + k * k * c
    for i in range(len(dest)):
        for j in range(i + 1, len(dest)):
            coherent = coherent + 2.0 * dest[i] * dest[j] * gmean(p_coop[i], p_coop[j])
    last = term(a_last, coherent, n)
    return [x + term(a_last, q, n) for x, q in zip(solo, priv)], [x + last for x in choice]


def df_caps(scheme: str, gains, a1, a2, a3, powers, ops):
    """Caps (r1, r2, sums) of DF, OUTER or DEGRADED: muser_caps at m = 2.

    ``gains`` come from df_gains; ``powers`` are (p12, p21, p13, p23, ps1, ps2).
    The sums are (s1, s2, s3, s4) for DF; the outer bounds drop the two
    middle sum caps, which are redundant there, and return (s1, s4).
    """
    e12, e21, k10, k20, n = gains
    p12, p21, p13, p23, ps1, ps2 = powers
    subset, total = muser_caps(((e12, e21), (k10, k20), n), (a1, a2, a3),
                               ((p12, p21), (p13, p23), (ps1, ps2)), ops)
    if scheme != "DF":
        return subset[0], subset[1], (subset[2], total[0])
    return subset[0], subset[1], (subset[2], total[2], total[1], total[0])


def df_powers(a: DfAllocation):
    """df_caps powers (p12, p21, p13, p23, ps1, ps2) of an allocation."""
    return a.p12, a.p21, a.p13, a.p23, a.ps1, a.ps2


def scheme_caps_region(scheme: str, g: ChannelGains, slots: TimeSlots,
                       a: PdfAllocation | DfAllocation,
                       rho: NoiseCorrelation | None = None) -> LinearRegion:
    """Region of the named scheme at a fixed slot split and allocation: its
    family's kernel on CHECKED_OPS.  ``rho`` is read by DEGRADED only."""
    if scheme in PDF_SCHEMES:
        kernel, gains, powers = pdf_caps, pdf_gains(g), pdf_powers(a)
    elif scheme in DF_SCHEMES:
        kernel, gains, powers = df_caps, df_gains(scheme, g, rho), df_powers(a)
    else:
        raise ValidationError(f"unknown scheme {scheme!r}")
    r1, r2, sums = kernel(scheme, gains, slots.a1, slots.a2, slots.a3, powers, CHECKED_OPS)
    return LinearRegion((r1,), (r2,), sums)


def df_region(g: ChannelGains, slots: TimeSlots, a: DfAllocation) -> LinearRegion:
    """Decode-forward scheme with joint decoding at the destination."""
    return scheme_caps_region("DF", g, slots, a)


def gaussian_outer_region(g: ChannelGains, slots: TimeSlots, a: DfAllocation) -> LinearRegion:
    """Cut-set style outer bound: the DF region with K12^2 -> K12^2 + K10^2 and
    K21^2 -> K21^2 + K20^2; the two middle sum caps become redundant and are
    dropped from the returned set."""
    return scheme_caps_region("OUTER", g, slots, a)


def degraded_outer_region(g: ChannelGains, slots: TimeSlots, a: DfAllocation,
                          rho: NoiseCorrelation) -> LinearRegion:
    """Outer bound when each inter-user noise is correlated with the
    destination noise.  Requires |rho| < 1 for both factors."""
    return scheme_caps_region("DEGRADED", g, slots, a, rho)


# ---------------------------------------------------------------------------
# non-cooperative baselines
# ---------------------------------------------------------------------------

def baseline_region(kind: str, g: ChannelGains, budget: PowerBudget) -> RatePolygon:
    """Classical baselines as polygons.

    MAC: both users transmit the whole block, joint decoding.
    TDMA: each user transmits alone in a half slot at doubled power; the
    polygon is the hull of that corner with the full-time single-user rates.
    """
    n = g.noise
    e1, e2 = g.k10 ** 2 * budget.p1, g.k20 ** 2 * budget.p2
    r1, r2 = c_gauss(e1 / n), c_gauss(e2 / n)
    if kind == "MAC":
        return polygon_from_constraints(LinearRegion((r1,), (r2,), (c_gauss((e1 + e2) / n),)))
    if kind == "TDMA":
        # 0.5 C(2x) <= C(x) exactly; the clamp undoes rounding past it
        cx = min(0.5 * c_gauss(2.0 * g.k10 ** 2 * budget.p1 / n), r1)
        cy = min(0.5 * c_gauss(2.0 * g.k20 ** 2 * budget.p2 / n), r2)
        return RatePolygon(convex_hull_ccw(((0.0, 0.0), (r1, 0.0), (cx, cy), (0.0, r2))))
    raise ValidationError(f"unknown baseline kind {kind!r}, expected 'MAC' or 'TDMA'")
