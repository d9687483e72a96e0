"""Shared domain types for half-duplex cooperative multiple-access rate regions.

Every rate region handled by this package reduces to one cap on R1, one cap
on R2 and a family of caps on R1+R2.  LinearRegion keeps the full cap
families (not just their minima) so diagnostics can still see which cap is
active; RatePolygon is the corresponding vertex list used for comparison,
hulling and plot export.

All rates are bits per channel use: logs are base 2 and the Gaussian
capacity function is 0.5*log2(1+x).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Tuple, Union

_LN2 = math.log(2.0)

POWER_TOL = 1e-9      # slack allowed on the power identities, relative to budgets above 1
SLOT_SUM_TOL = 1e-12  # |a1 + a2 + a3 - 1| tolerance


class ValidationError(ValueError):
    """Raised when a domain object or an argument violates an invariant."""


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _finite(x: float) -> bool:
    """True for a finite real number, numpy scalars included, bool excluded;
    False for an integer too large for a float."""
    if not isinstance(x, float) and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _real_fields(obj, names, positive: bool = False) -> None:
    """Check that each field is finite and >= 0 (> 0 if positive), and store
    it as a Python float, so numpy scalars compute in double precision."""
    for name in names:
        v = getattr(obj, name)
        if not (_finite(v) and (v > 0.0 if positive else v >= 0.0)):
            rule = "> 0" if positive else "finite and >= 0"
            raise ValidationError(f"{type(obj).__name__}.{name} must be {rule}, got {v!r}")
        object.__setattr__(obj, name, float(v))


@dataclass(frozen=True)
class ChannelGains:
    """Amplitude gains of the Gaussian links plus the common noise power.

    k12: user 1 -> user 2 inter-user link
    k21: user 2 -> user 1 inter-user link
    k10, k20: user -> destination links
    noise: receiver noise power (same at every receiver)
    """

    k12: float
    k21: float
    k10: float
    k20: float
    noise: float

    def __post_init__(self) -> None:
        _real_fields(self, ("k12", "k21", "k10", "k20"))
        _real_fields(self, ("noise",), positive=True)


@dataclass(frozen=True)
class TimeSlots:
    """Fractions of one block spent in each of the three time slots."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self) -> None:
        _real_fields(self, ("a1", "a2", "a3"))
        total = self.a1 + self.a2 + self.a3
        _check(abs(total - 1.0) <= SLOT_SUM_TOL,
               f"TimeSlots: a1 + a2 + a3 must equal 1 within {SLOT_SUM_TOL}, got {total!r}")

    @classmethod
    def from_first_two(cls, a1: float, a2: float) -> "TimeSlots":
        """Build slots from (a1, a2) with a3 = 1 - a1 - a2."""
        a3 = 1.0 - a1 - a2
        if -SLOT_SUM_TOL < a3 < 0.0:
            a3 = 0.0
        return cls(a1, a2, a3)


@dataclass(frozen=True)
class PdfAllocation:
    """Power split for the superposition (partial decode-forward) scheme.

    p10/p20 are slot-1/2 private powers, pu/pv the public (cooperative)
    powers, p13/p23 the slot-3 private powers.  c2, c3 (d2, d3) scale how
    much slot-3 power user 1 (user 2) re-spends on the public symbols.
    """

    p10: float
    p20: float
    pu: float
    pv: float
    p13: float
    p23: float
    c2: float
    c3: float
    d2: float
    d3: float

    def __post_init__(self) -> None:
        _real_fields(self, ("p10", "p20", "pu", "pv", "p13", "p23", "c2", "c3", "d2", "d3"))


@dataclass(frozen=True)
class DfAllocation:
    """Power split for the simplified decode-forward scheme.

    p12/p21 are the slot-1/2 powers, p13/p23 the slot-3 private powers and
    ps1/ps2 the slot-3 powers both users spend on the shared cooperative
    symbol.
    """

    p12: float
    p21: float
    p13: float
    p23: float
    ps1: float
    ps2: float

    def __post_init__(self) -> None:
        _real_fields(self, ("p12", "p21", "p13", "p23", "ps1", "ps2"))


@dataclass(frozen=True)
class PowerBudget:
    """Average per-user transmit power over one block."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        _real_fields(self, ("p1", "p2"), positive=True)


@dataclass(frozen=True)
class LinearRegion:
    """Rate caps of the form R1 <= a, R2 <= b, R1+R2 <= s (lists kept whole)."""

    r1_bounds: Tuple[float, ...]
    r2_bounds: Tuple[float, ...]
    sum_bounds: Tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("r1_bounds", "r2_bounds", "sum_bounds"):
            vals = tuple(getattr(self, name))
            object.__setattr__(self, name, vals)
            _check(len(vals) > 0, f"LinearRegion.{name} must be non-empty")
            for v in vals:
                if not (_finite(v) and v >= 0.0):  # the message is built only on failure
                    raise ValidationError(
                        f"LinearRegion.{name} entries must be finite and >= 0, got {v!r}")

    @property
    def min_r1(self) -> float:
        return min(self.r1_bounds)

    @property
    def min_r2(self) -> float:
        return min(self.r2_bounds)

    @property
    def min_sum(self) -> float:
        return min(self.sum_bounds)


@dataclass(frozen=True)
class RatePolygon:
    """Vertices of a convex rate region, counter-clockwise, origin first."""

    vertices: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        _check(len(verts) > 0, "RatePolygon needs at least one vertex")
        for x, y in verts:
            if not (_finite(x) and x >= 0.0 and _finite(y) and y >= 0.0):
                raise ValidationError(
                    f"RatePolygon vertices must be finite and >= 0, got {(x, y)!r}")


def c_gauss(x: float) -> float:
    """Gaussian capacity 0.5*log2(1+x) in bits, for SNR x >= 0."""
    if not _finite(x) or x < 0.0:
        raise ValidationError(f"c_gauss: SNR must be finite and >= 0, got {x!r}")
    return 0.5 * math.log1p(x) / _LN2


AnyAllocation = Union[PdfAllocation, DfAllocation]


def power_used(scheme: str, slots: TimeSlots, alloc: AnyAllocation) -> Tuple[float, float]:
    """Average power each user spends under the given scheme and slot split."""
    if scheme == "PDF":
        _check(isinstance(alloc, PdfAllocation), "PDF power accounting needs a PdfAllocation")
        used1 = slots.a1 * (alloc.p10 + alloc.pu) + slots.a3 * (
            alloc.p13 + alloc.c2 * alloc.pu + alloc.c3 * alloc.pv)
        used2 = slots.a2 * (alloc.p20 + alloc.pv) + slots.a3 * (
            alloc.p23 + alloc.d3 * alloc.pu + alloc.d2 * alloc.pv)
    elif scheme == "DF":
        _check(isinstance(alloc, DfAllocation), "DF power accounting needs a DfAllocation")
        used1 = slots.a1 * alloc.p12 + slots.a3 * (alloc.p13 + alloc.ps1)
        used2 = slots.a2 * alloc.p21 + slots.a3 * (alloc.p23 + alloc.ps2)
    else:
        raise ValidationError(f"unknown scheme {scheme!r}, expected 'PDF' or 'DF'")
    return used1, used2


def power_feasible(scheme: str, slots: TimeSlots, alloc: AnyAllocation,
                   budget: PowerBudget) -> Tuple[float, float, bool]:
    """Check the per-user average-power identity against the budget.

    Returns (used1, used2, feasible) where feasibility allows a slack of
    POWER_TOL * max(1, p) on a budget p, so optimizer outputs sitting on the
    budget boundary pass whatever the rounding of ``power_used`` at p.
    """
    used1, used2 = power_used(scheme, slots, alloc)
    p1, p2 = budget.p1, budget.p2
    ok = used1 <= p1 + POWER_TOL * max(1.0, p1) and used2 <= p2 + POWER_TOL * max(1.0, p2)
    return used1, used2, ok


def polygon_from_constraints(region: LinearRegion) -> RatePolygon:
    """Vertices of {(R1,R2) >= 0 : R1 <= min r1, R2 <= min r2, R1+R2 <= min sum}.

    Counter-clockwise starting from the origin.  Degenerate regions collapse
    to a segment or the single point (0, 0).
    """
    m1 = region.min_r1
    m2 = region.min_r2
    ms = region.min_sum

    pts = [(0.0, 0.0)]
    if ms >= m1 + m2:
        # sum cap inactive: the rectangle
        pts += [(m1, 0.0), (m1, m2), (0.0, m2)]
    else:
        pts.append((min(m1, ms), 0.0))
        if ms > m1:
            pts.append((m1, ms - m1))
        if ms > m2:
            pts.append((ms - m2, m2))
        pts.append((0.0, min(m2, ms)))

    out = []
    for p in pts:
        if not out or p != out[-1]:
            out.append(p)
    if len(out) > 1 and out[-1] == out[0]:
        out.pop()
    return RatePolygon(tuple(out))


def convex_hull_ccw(points) -> Tuple[Tuple[float, float], ...]:
    """Convex hull of a point set, counter-clockwise, collinear points dropped.

    Starts at the lexicographically smallest point, so any hull containing
    the origin starts there.
    """
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return tuple(pts)

    def cross(o, a, b):
        p, q = (a[0] - o[0]) * (b[1] - o[1]), (a[1] - o[1]) * (b[0] - o[0])
        if abs(p - q) > 1e-15 * (abs(p) + abs(q)) and abs(p) + abs(q) >= 1e-290:
            return p - q
        from fractions import Fraction   # rounding or underflow may have set the sign
        (ox, oy), (ax, ay), (bx, by) = ((Fraction(x), Fraction(y)) for x, y in (o, a, b))
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])
