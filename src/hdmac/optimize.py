"""Weighted sum-rate maximization over slot splits and power allocations.

There are two paths, chosen by the scheme.

DF, OUTER and DEGRADED are concave programs in slot-energy variables (slot
fractions and energy = fraction x power), so each weight direction is
solved by SLSQP on the epigraph form, with gradients carried through the
``df_caps`` kernel of gaussian.py on dual numbers.  The solution is rebuilt
as TimeSlots and a DfAllocation that spend both budgets, re-evaluated
through ``scheme_region`` and ``weighted_best_vertex``, and checked with
``power_feasible``.  A second solve restarts from that point with a tighter
tolerance, turned toward R2 where the weight on R2 is too small for SLSQP to
find the tie rule's corner, and is kept if it scores higher.  The search
below runs instead when the first solve reports failure, a rebuilt point
misses the budget, or a warm start beats the solution by more than 1e-9.
``OptResult.evaluations`` then counts kernel evaluations: the gradient
evaluations of the solves, the re-evaluations of their points and one per
warm start.

The superposition schemes (PDF_JOINT, PDF_SEPARATE, PDF_PARTIAL) use a
deterministic derivative-free search, whose ``evaluations`` counts cap
evaluations.  Phase 1 scans a slot grid crossed with a rank-1 lattice sample
and structured anchor points of each scheme's allocation simplex (every
scanned point satisfies the per-user power identity by construction).  The
whole scan is one array: the unit-cube parameterization and the scheme
family's cap kernel from gaussian.py run on numpy arrays, and the LP value
of every point is taken at once; ``frontier`` reuses the table across its
directions.  The best points of distinct slot cells then get cyclic pattern
refinement with multiplicative step shrink, finished by a simplex polish
that can walk the ridges where several sum caps tie; both run the same
kernel on Python floats.

Directions with mu2 > mu1 are solved on the user-swapped problem and
mirrored back, so symmetric scenarios give exactly symmetric results.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import astuple, dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    ChannelGains,
    DfAllocation,
    LinearRegion,
    PdfAllocation,
    PowerBudget,
    RatePolygon,
    TimeSlots,
    ValidationError,
    _check,
    convex_hull_ccw,
    polygon_from_constraints,
    power_feasible,
)
from .gaussian import (
    ARRAY_OPS,
    DUAL_OPS,
    SCALAR_OPS,
    NoiseCorrelation,
    df_caps,
    df_gains,
    df_region,
    degraded_outer_region,
    gaussian_outer_region,
    pdf_joint_region,
    pdf_partial_user_region,
    pdf_caps,
    pdf_gains,
    pdf_separate_region,
)

SCHEMES = ("PDF_JOINT", "PDF_SEPARATE", "PDF_PARTIAL", "DF", "OUTER", "DEGRADED")
_PDF_SCHEMES = ("PDF_JOINT", "PDF_SEPARATE", "PDF_PARTIAL")
_DF_SCHEMES = ("DF", "OUTER", "DEGRADED")

_N_STARTS = 3          # grid points fed into local refinement
_STEP0 = 0.25          # initial refinement step on every unit coordinate
_MIN_STEP = 1e-10


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the two-phase search; defaults are desk-scale.

    They drive only the search: the superposition schemes, and the
    decode-forward family when its concave solve falls back to the search.
    """

    slot_grid: int = 11
    power_grid: int = 9
    refine_iters: int = 60
    refine_shrink: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("slot_grid", "power_grid", "refine_iters"):
            v = getattr(self, name)
            _check(isinstance(v, numbers.Integral) and not isinstance(v, bool),
                   f"SearchConfig.{name} must be an integer, got {v!r}")
        _check(self.slot_grid >= 2, "SearchConfig.slot_grid must be >= 2")
        _check(self.power_grid >= 2, "SearchConfig.power_grid must be >= 2")
        _check(self.refine_iters >= 0, "SearchConfig.refine_iters must be >= 0")
        _check(0.0 < self.refine_shrink < 1.0, "SearchConfig.refine_shrink must be in (0, 1)")


@dataclass(frozen=True)
class OptResult:
    """Best point found for one weight direction."""

    scheme: str
    mu: Tuple[float, float]
    slots: TimeSlots
    allocation: Union[PdfAllocation, DfAllocation]
    vertex: Tuple[float, float]
    value: float
    evaluations: int


@dataclass(frozen=True)
class FrontierResult:
    scheme: str
    points: Tuple[OptResult, ...]
    hull: RatePolygon


# ---------------------------------------------------------------------------
# polygon utilities
# ---------------------------------------------------------------------------

def weighted_best_vertex(poly: RatePolygon, mu: Tuple[float, float]):
    """Polygon vertex maximizing mu1*r1 + mu2*r2; ties go to larger r1, then r2."""
    mu1, mu2 = float(mu[0]), float(mu[1])
    _check(mu1 >= 0.0 and mu2 >= 0.0 and (mu1 > 0.0 or mu2 > 0.0),
           "weights must be >= 0 and not both zero")
    _check(len(poly.vertices) > 0, "empty polygon")
    best = max(poly.vertices, key=lambda v: (mu1 * v[0] + mu2 * v[1], v[0], v[1]))
    return best, mu1 * best[0] + mu2 * best[1]


def upper_hull(points: Sequence[Tuple[float, float]]) -> RatePolygon:
    """Convex hull of nonnegative points, closed to the axes through the origin."""
    pts = [(float(x), float(y)) for x, y in points]
    _check(len(pts) > 0, "upper_hull needs at least one point")
    for x, y in pts:
        _check(x >= 0.0 and y >= 0.0, f"upper_hull points must be >= 0, got {(x, y)!r}")
    max_x = max(x for x, _ in pts)
    max_y = max(y for _, y in pts)
    closure = pts + [(0.0, 0.0), (max_x, 0.0), (0.0, max_y)]
    return RatePolygon(convex_hull_ccw(closure))


def _point_slack(vertices, p) -> float:
    """Signed distance of p to the polygon boundary; positive means inside."""
    px, py = p
    if len(vertices) == 1:
        vx, vy = vertices[0]
        return -math.hypot(px - vx, py - vy)
    slack = math.inf
    m = len(vertices)
    degenerate = m == 2
    for i in range(m if not degenerate else 1):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % m]
        ex, ey = bx - ax, by - ay
        norm = math.hypot(ex, ey)
        if norm == 0.0:
            continue
        d = (ex * (py - ay) - ey * (px - ax)) / norm
        if degenerate:
            # distance to the segment, clipped to its endpoints
            t = ((px - ax) * ex + (py - ay) * ey) / (norm * norm)
            t = min(1.0, max(0.0, t))
            cx, cy = ax + t * ex, ay + t * ey
            return -math.hypot(px - cx, py - cy)
        slack = min(slack, d)
    return slack


def region_contains(outer: RatePolygon, inner: RatePolygon, tol: float):
    """True when every inner vertex lies in the outer polygon with slack >= -tol.

    Also returns the worst signed slack (negative means a violation of that
    magnitude).
    """
    worst = math.inf
    for p in inner.vertices:
        worst = min(worst, _point_slack(outer.vertices, p))
    return worst >= -tol, worst


def scheme_region(scheme: str, g: ChannelGains, slots: TimeSlots,
                  alloc: Union[PdfAllocation, DfAllocation],
                  rho: Optional[NoiseCorrelation] = None,
                  literal_p1: Optional[float] = None) -> LinearRegion:
    """Evaluate the named scheme's region at a fixed slot split and allocation."""
    if scheme == "PDF_JOINT":
        return pdf_joint_region(g, slots, alloc)
    if scheme == "PDF_SEPARATE":
        return pdf_separate_region(g, slots, alloc, literal_p1=literal_p1)
    if scheme == "PDF_PARTIAL":
        return pdf_partial_user_region(g, slots, alloc)
    if scheme == "DF":
        return df_region(g, slots, alloc)
    if scheme == "OUTER":
        return gaussian_outer_region(g, slots, alloc)
    if scheme == "DEGRADED":
        return degraded_outer_region(g, slots, alloc, rho)
    raise ValidationError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# feasible parameterizations (unit cube -> slot fractions and powers)
#
# Written without branches so that they run on floats and on numpy arrays
# alike: a comparison acts as a 0/1 mask, and the denominator of an empty
# slot is replaced by 1 before the mask zeroes the quotient.
# ---------------------------------------------------------------------------

def _shares(a1, a2, g1, g2, p_1: float, p_2: float):
    """Slot-3 fraction and each user's powers (own slot, slot 3) for own-slot
    budget shares g1 and g2.  An empty own slot gets no power; an empty
    slot 3 leaves the whole budget to the own slot."""
    a3 = 1.0 - a1 - a2
    on1, on2, on3 = a1 > 0.0, a2 > 0.0, a3 > 0.0
    off3 = a3 <= 0.0
    g1 = g1 * on1 * on3 + off3
    g2 = g2 * on2 * on3 + off3
    d3 = a3 + off3
    return (a3 * on3,
            g1 * p_1 / (a1 + (a1 <= 0.0)) * on1, (1.0 - g1) * p_1 / d3 * on3,
            g2 * p_2 / (a2 + (a2 <= 0.0)) * on2, (1.0 - g2) * p_2 / d3 * on3)


def _df_split(x, p_1: float, p_2: float):
    """x = (a1, a2, g1, h1, g2, h2) -> (a3, df_caps powers).

    gk is user k's own-slot budget share and hk the private share of its
    slot-3 power; the rest of the slot-3 power goes to the coherent symbol.
    """
    a3, p12, b1, p21, b2 = _shares(x[0], x[1], x[2], x[4], p_1, p_2)
    p13 = x[3] * b1
    p23 = x[5] * b2
    return a3, (p12, p21, p13, p23, b1 - p13, b2 - p23)


def _pdf_split(x, p_1: float, p_2: float):
    """x = (a1, a2, g1, s1, ta1, tb1, g2, s2, ta2, tb2) -> (a3, pdf_caps powers).

    gk is user k's own-slot budget share, sk the public share of its slot
    power, tak the private share of its slot-3 power and tbk the share of
    the remaining slot-3 power re-spent on its own public symbol (the rest
    goes to the partner's).
    """
    a3, slot1, b1, slot2, b2 = _shares(x[0], x[1], x[2], x[6], p_1, p_2)
    pu = x[3] * slot1
    pv = x[7] * slot2
    p13 = x[4] * b1
    p23 = x[8] * b2
    rest1 = b1 - p13
    rest2 = b2 - p23
    ac2 = x[5] * rest1
    ad2 = x[9] * rest2
    ac3 = rest1 - ac2
    ad3 = rest2 - ad2
    # atoms riding on a public symbol that carries no power become private
    u_on, v_on = pu > 0.0, pv > 0.0
    u_off, v_off = pu <= 0.0, pv <= 0.0
    return a3, (pu, slot1 - pu, pv, slot2 - pv,
                p13 + ac2 * u_off + ac3 * v_off, p23 + ad3 * u_off + ad2 * v_off,
                ac2 * u_on, ac3 * v_on, ad2 * v_on, ad3 * u_on)


def _evaluator(scheme: str, g: ChannelGains, budget: PowerBudget,
               rho: Optional[NoiseCorrelation]):
    """Build (caps, alloc_of, dim) for a scheme.

    caps(x) maps a parameter vector x = (a1, a2, params...) in the unit cube
    to the region caps (m1, m2, min_sum) through the scheme's kernel in
    gaussian.py; caps(x, ARRAY_OPS) does the same for a sequence of
    coordinate arrays, one point per element.  Every x meets the per-user
    power identity by construction.  alloc_of(x) rebuilds the domain objects.
    """
    p_1, p_2 = budget.p1, budget.p2
    if scheme in _DF_SCHEMES:
        split, kernel, gains, dim = _df_split, df_caps, df_gains(scheme, g, rho), 4
    elif scheme in _PDF_SCHEMES:
        split, kernel, gains, dim = _pdf_split, pdf_caps, pdf_gains(g), 8
    else:
        raise ValidationError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")

    def caps(x, ops=SCALAR_OPS):
        a3, powers = split(x, p_1, p_2)
        m1, m2, sums = kernel(scheme, gains, x[0], x[1], a3, powers, ops)
        mn = ops[2]
        least = mn(sums[0], sums[1])
        if len(sums) == 4:
            least = mn(least, mn(sums[2], sums[3]))
        return m1, m2, least

    def alloc_of(x):
        powers = split(x, p_1, p_2)[1]
        slots = TimeSlots.from_first_two(x[0], x[1])
        if split is _df_split:
            return slots, DfAllocation(*powers)
        pu, p10, pv, p20, p13, p23, ac2, ac3, ad2, ad3 = powers
        c2 = ac2 / pu if pu > 0.0 else 0.0
        c3 = ac3 / pv if pv > 0.0 else 0.0
        d2 = ad2 / pv if pv > 0.0 else 0.0
        d3 = ad3 / pu if pu > 0.0 else 0.0
        return slots, PdfAllocation(p10, p20, pu, pv, p13, p23, c2, c3, d2, d3)

    return caps, alloc_of, dim


# ---------------------------------------------------------------------------
# search machinery
# ---------------------------------------------------------------------------

_IRRATIONALS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))


def _lattice(count: int, dim: int, seed: int):
    """Deterministic low-discrepancy points in the unit cube, one per row."""
    base = np.array([((seed + 1) * math.sqrt(41 + d)) % 1.0 for d in range(dim)])
    steps = np.array([_IRRATIONALS[d % len(_IRRATIONALS)] for d in range(dim)])
    return (base + np.arange(1, count + 1)[:, None] * steps) % 1.0


def _anchors(scheme: str):
    """Structured allocation corners worth probing in every slot cell, one per row."""
    levels = (0.0, 0.5, 1.0)
    if scheme in _DF_SCHEMES:
        return np.array(list(itertools.product(levels, repeat=4)))
    # superposition family: favor the no-slot-1-private face (s = 1) with
    # symmetric slot shares and a few coherent-split patterns
    out = [(gv, 1.0, ta, tb1, gv, 1.0, ta, tb2) for gv, ta, tb1, tb2
           in itertools.product((0.0, 0.25, 0.5, 0.75, 1.0), levels, levels, levels)]
    out += [(gv, sv, ta, 0.5, gv, sv, ta, 0.5) for gv, sv, ta
            in itertools.product(levels, (0.0, 0.5), levels)]
    return np.array(out)


def _value(caps, mu1: float, mu2: float, ops=SCALAR_OPS):
    """Exact LP maximum of mu1*r1 + mu2*r2 over the capped region (greedy
    fill); with ARRAY_OPS it applies elementwise to arrays of caps."""
    mn = ops[2]
    m1, m2, ms = caps
    if mu1 >= mu2:
        r1 = mn(m1, ms)
        r2 = mn(m2, ms - r1)
    else:
        r2 = mn(m2, ms)
        r1 = mn(m1, ms - r2)
    return mu1 * r1 + mu2 * r2, r1, r2


_TIE_EPS = 1e-9


def _score(caps, mu1: float, mu2: float, ops=SCALAR_OPS):
    """Search score: the objective plus an epsilon preference for the
    complementary-weighted vertex, so axis directions still pick allocations
    whose polygon reaches the full corner instead of an equal-value axis
    point."""
    v, r1, r2 = _value(caps, mu1, mu2, ops)
    return v + _TIE_EPS * (mu2 * r1 + mu1 * r2)


def _phase1_xs(scheme: str, dim: int, cfg: SearchConfig):
    """Phase-1 scan points as a (2 + dim, n) array, one point per column:
    every cell of the slot grid crossed with the lattice, then the anchors."""
    vals = np.arange(cfg.slot_grid) / (cfg.slot_grid - 1)
    a1, a2 = (v.ravel() for v in np.meshgrid(vals, vals, indexing="ij"))
    keep = a1 + a2 <= 1.0 + 1e-12
    a1 = a1[keep]
    a2 = np.minimum(a2[keep], 1.0 - a1)
    q = np.vstack((_lattice(cfg.power_grid ** 2, dim, cfg.seed), _anchors(scheme)))
    return np.vstack((np.repeat(a1, len(q)), np.repeat(a2, len(q)), np.tile(q.T, len(a1))))


def _clamp_move(x, moves):
    """Apply (coordinate, delta) moves with box and slot-simplex clamping."""
    y = list(x)
    for d, delta in moves:
        if d == 0:
            lo, hi = 0.0, 1.0 - y[1]
        elif d == 1:
            lo, hi = 0.0, 1.0 - y[0]
        else:
            lo, hi = 0.0, 1.0
        y[d] = min(hi, max(lo, y[d] + delta))
    return y


def _move_set(ndim: int):
    """Single-coordinate probes plus paired probes along the slot pair and the
    same-role coordinates of the two users (min-type sum caps form ridges that
    single-coordinate moves cannot follow)."""
    singles = [((d, +1),) for d in range(ndim)] + [((d, -1),) for d in range(ndim)]
    pairs = [(0, 1)]
    half = (ndim - 2) // 2
    pairs += [(2 + k, 2 + half + k) for k in range(half)]
    paired = []
    for a, b in pairs:
        for sa in (+1, -1):
            for sb in (+1, -1):
                paired.append(((a, sa), (b, sb)))
    return singles + paired


def _refine(caps_fn, x0, v0, mu1, mu2, cfg: SearchConfig):
    x = list(x0)
    best = v0
    step = _STEP0
    evals = 0
    moves = _move_set(len(x))
    for _ in range(cfg.refine_iters):
        improved = False
        for mv in moves:
            cand = _clamp_move(x, [(d, s * step) for d, s in mv])
            if cand == x:
                continue
            v = _score(caps_fn(tuple(cand)), mu1, mu2)
            evals += 1
            if v > best + 1e-15:
                best = v
                x = cand
                improved = True
        if not improved:
            step *= cfg.refine_shrink
            if step < _MIN_STEP:
                break
    return tuple(x), best, evals


def _project(x) -> list:
    """Clamp to the unit box and the slot simplex; returns the feasible point."""
    y = [min(1.0, max(0.0, v)) for v in x]
    s = y[0] + y[1]
    if s > 1.0:
        y[0] /= s
        y[1] /= s
    return y


def _nm_polish(caps_fn, x0, v0, mu1, mu2, cfg: SearchConfig):
    """Simplex (Nelder-Mead) polish with restarts.

    The step-based pattern phase stalls on the ridges where several sum caps
    are simultaneously active; the adaptive simplex walks them.  Points
    outside the feasible box are projected with a linear penalty.  The
    evaluation budget scales with cfg.refine_iters.
    """
    from scipy.optimize import minimize as _scipy_minimize

    counter = [0]

    def neg(raw):
        counter[0] += 1
        raw = raw.tolist()  # float math is much cheaper than numpy-scalar math
        pen = 0.0
        for v in raw:
            if v < 0.0:
                pen += -v
            elif v > 1.0:
                pen += v - 1.0
        s = raw[0] + raw[1]
        if s > 1.0:
            pen += s - 1.0
        return -_score(caps_fn(tuple(_project(raw))), mu1, mu2) + pen

    x = list(x0)
    best = v0
    maxfev = 12 * len(x) * (cfg.refine_iters + 1)
    for _ in range(3):
        res = _scipy_minimize(neg, x, method="Nelder-Mead",
                              options={"xatol": 1e-10, "fatol": 1e-12,
                                       "maxfev": maxfev})
        cand = [float(v) for v in _project(res.x)]
        v = _score(caps_fn(tuple(cand)), mu1, mu2)
        counter[0] += 1
        if v > best + 1e-11:
            best = v
            x = cand
        else:
            if v > best:
                best, x = v, cand
            break
    return tuple(x), best, counter[0]


def _x_from_alloc(scheme: str, slots: TimeSlots, alloc, budget: PowerBudget):
    """Inverse of the feasible parameterization (clamped), for warm starts."""
    a1, a2 = slots.a1, slots.a2

    def clamp(v):
        return min(1.0, max(0.0, v))

    if scheme in _DF_SCHEMES:
        g1 = clamp(a1 * alloc.p12 / budget.p1)
        g2 = clamp(a2 * alloc.p21 / budget.p2)
        t1 = alloc.p13 + alloc.ps1
        t2 = alloc.p23 + alloc.ps2
        h1 = clamp(alloc.p13 / t1) if t1 > 0.0 else 1.0
        h2 = clamp(alloc.p23 / t2) if t2 > 0.0 else 1.0
        return (a1, a2, g1, h1, g2, h2)
    g1 = clamp(a1 * (alloc.p10 + alloc.pu) / budget.p1)
    g2 = clamp(a2 * (alloc.p20 + alloc.pv) / budget.p2)
    su1 = alloc.pu + alloc.p10
    su2 = alloc.pv + alloc.p20
    s1 = clamp(alloc.pu / su1) if su1 > 0.0 else 1.0
    s2 = clamp(alloc.pv / su2) if su2 > 0.0 else 1.0
    ac2, ac3 = alloc.c2 * alloc.pu, alloc.c3 * alloc.pv
    ad2, ad3 = alloc.d2 * alloc.pv, alloc.d3 * alloc.pu
    b1 = alloc.p13 + ac2 + ac3
    b2 = alloc.p23 + ad2 + ad3
    ta1 = clamp(alloc.p13 / b1) if b1 > 0.0 else 1.0
    ta2 = clamp(alloc.p23 / b2) if b2 > 0.0 else 1.0
    r1 = ac2 + ac3
    r2 = ad2 + ad3
    tb1 = clamp(ac2 / r1) if r1 > 0.0 else 0.5
    tb2 = clamp(ad2 / r2) if r2 > 0.0 else 0.5
    return (a1, a2, g1, s1, ta1, tb1, g2, s2, ta2, tb2)


def sample_allocation(scheme: str, g: ChannelGains, budget: PowerBudget, rng,
                      interior: bool = False):
    """Random feasible (TimeSlots, allocation), uniform over the search
    parameterization; rng is a random.Random.  With interior=True the slot
    fractions and public/private splits are kept away from the boundary so
    every power component is strictly positive."""
    _check(scheme in SCHEMES, f"unknown scheme {scheme!r}")
    _, alloc_fn, dim = _evaluator(scheme if scheme != "DEGRADED" else "DF", g, budget, None)
    u, v = sorted((rng.random(), rng.random()))
    a1, a2 = u, v - u
    params = [rng.random() for _ in range(dim)]
    if interior:
        a1 = 0.1 + 0.5 * a1
        a2 = 0.1 + 0.5 * a2
        params = [0.1 + 0.8 * p for p in params]
    return alloc_fn((a1, a2, *params))


def _swap_gains(g: ChannelGains) -> ChannelGains:
    return ChannelGains(k12=g.k21, k21=g.k12, k10=g.k20, k20=g.k10, noise=g.noise)


def swap_allocation(alloc):
    """Exchange the two users' roles in an allocation."""
    if isinstance(alloc, DfAllocation):
        return DfAllocation(p12=alloc.p21, p21=alloc.p12, p13=alloc.p23,
                            p23=alloc.p13, ps1=alloc.ps2, ps2=alloc.ps1)
    return PdfAllocation(p10=alloc.p20, p20=alloc.p10, pu=alloc.pv, pv=alloc.pu,
                         p13=alloc.p23, p23=alloc.p13, c2=alloc.d2, c3=alloc.d3,
                         d2=alloc.c2, d3=alloc.c3)


def _swap_slots(slots: TimeSlots) -> TimeSlots:
    return TimeSlots(slots.a2, slots.a1, slots.a3)


# ---------------------------------------------------------------------------
# concave path (DF, OUTER, DEGRADED)
#
# In slot-energy variables z = (a1, a2, E12, E21, E13, E23, ES1, ES2, t1, t2),
# a3 = 1 - a1 - a2 and every energy the slot fraction times the power, each
# cap is a perspective a*C(k^2 E / (a N)) of a concave function and the
# coherent numerator is concave, so every cap is jointly concave.  For
# mu1 >= mu2 the weighted-sum value is
#     (mu1 - mu2) * min(m1, ms) + mu2 * min(ms, m1 + m2),
# which the epigraph rows t1 <= m1, t1 <= each sum cap, t2 <= each sum cap
# and t2 <= m1 + m2 turn into a linear objective over a convex set.
# ---------------------------------------------------------------------------

_SLOT_FLOOR = 1e-12     # d(a C(x/a))/da is unbounded as a -> 0
_BASIS = np.eye(9)[1:]  # dual vectors of the coordinates, values 0
_SLSQP_OPTIONS = {"ftol": 1e-12, "maxiter": 300}
_POLISH_OPTIONS = {"ftol": 1e-15, "maxiter": 300}  # for restarts from a solution
_SNAP = 1e-6            # rebuilt points are also tried with shorter slots emptied
_TIE_TURN = 1e-3        # smallest weight on t2 that SLSQP resolves


def _dual_caps(scheme: str, gains, z):
    """df_caps at z on dual vectors [value, d/d(a1, a2, E12, E21, E13, E23,
    ES1, ES2)], with powers p = E / a and every slot floored at _SLOT_FLOOR."""
    a1 = _BASIS[0].copy()
    a2 = _BASIS[1].copy()
    a3 = -_BASIS[0] - _BASIS[1]
    a1[0] = max(z[0], _SLOT_FLOOR)
    a2[0] = max(z[1], _SLOT_FLOOR)
    a3[0] = max(1.0 - z[0] - z[1], _SLOT_FLOOR)

    def power(i, a):
        p = max(z[i], 0.0) / a[0]
        out = (_BASIS[i] - p * a) / a[0]
        out[0] = p
        return out

    powers = (power(2, a1), power(3, a2), power(4, a3), power(5, a3), power(6, a3),
              power(7, a3))
    return df_caps(scheme, gains, a1, a2, a3, powers, DUAL_OPS)


def _epigraph_rows(scheme: str, gains, budget: PowerBudget, scale: float):
    """(rows, jac, count): the constraint rows (all >= 0) of the epigraph form
    and their Jacobian, with the caps and t measured in units of ``scale``.
    Both come from one kernel evaluation per point, and count[0] is the
    number of evaluations."""
    n_sums = 4 if scheme == "DF" else 2
    jac = np.zeros((5 + 2 * n_sums, 10))
    jac[0, [2, 4, 6]] = -1.0        # user 1's energy
    jac[1, [3, 5, 7]] = -1.0        # user 2's energy
    jac[2, [0, 1]] = -1.0           # a1 + a2 <= 1
    jac[3:4 + n_sums, 8] = -1.0     # t1 rows: m1, the sum caps
    jac[4 + n_sums:, 9] = -1.0      # t2 rows: the sum caps, m1 + m2
    last = {}
    count = [0]

    def evaluate(z):
        key = z.tobytes()
        if key not in last:
            m1, m2, sums = _dual_caps(scheme, gains, z)
            caps = np.array((m1, *sums, *sums, m1 + m2)) / scale
            rows = np.concatenate(((budget.p1 - z[2] - z[4] - z[6],
                                    budget.p2 - z[3] - z[5] - z[7],
                                    1.0 - z[0] - z[1]), caps[:, 0]))
            rows[3:4 + n_sums] -= z[8]
            rows[4 + n_sums:] -= z[9]
            jac[3:, :8] = caps[:, 1:]
            last.clear()
            last[key] = rows, jac.copy()
            count[0] += 1
        return last[key]

    return (lambda z: evaluate(z)[0]), (lambda z: evaluate(z)[1]), count


def _rebuild(z, budget: PowerBudget, shortest: float):
    """TimeSlots and DfAllocation of a solver point that spend each user's
    whole budget, as the search's parameterization does.

    Slots are clamped into the simplex, and slots shorter than ``shortest``
    are emptied.  Energy is clamped at 0 and scaled onto a budget it
    overshoots; energy left unspent or parked in an empty slot goes to the
    user's slot-3 private symbol, or to its own slot when slot 3 is empty,
    which lowers no cap.
    """
    a1, a2 = (v if v >= shortest else 0.0 for v in (float(z[0]), float(z[1])))
    a1 = min(a1, 1.0)
    a2 = min(a2, 1.0 - a1)
    if 1.0 - a1 - a2 < shortest:
        a2 = 1.0 - a1
    slots = TimeSlots.from_first_two(a1, a2)
    e = [max(float(v), 0.0) for v in z[2:8]]
    if e[4] == 0.0 or e[5] == 0.0:
        e[2:] = e[2] + e[4], e[3] + e[5], 0.0, 0.0
    for user, own, total in ((0, slots.a1, budget.p1), (1, slots.a2, budget.p2)):
        if own == 0.0:
            e[user] = 0.0
        if slots.a3 == 0.0:
            e[user + 2] = e[user + 4] = 0.0
        spent = e[user] + e[user + 2] + e[user + 4]
        if spent > total:
            for i in (user, user + 2, user + 4):
                e[i] *= total / spent
        elif slots.a3 > 0.0:
            e[user + 2] += total - spent
        elif own > 0.0:
            e[user] += total - spent
    lengths = (slots.a1, slots.a2, slots.a3, slots.a3, slots.a3, slots.a3)
    return slots, DfAllocation(*(v / a if a > 0.0 else 0.0 for v, a in zip(e, lengths)))


def _solve_concave(g: ChannelGains, budget: PowerBudget, scheme: str, mu1: float,
                   mu2: float, rho: Optional[NoiseCorrelation],
                   extra_starts: Sequence) -> Optional[OptResult]:
    """SLSQP solves of the epigraph form for mu1 >= mu2.

    Returns None, so that the search runs instead, when the first solve
    reports failure, a rebuilt point misses the power budget, or a warm
    start beats the solution by more than 1e-9.
    """
    from scipy.optimize import minimize as _scipy_minimize

    gains = df_gains(scheme, g, rho)
    p_1, p_2 = budget.p1, budget.p2
    # _score's objective and tie rule as weights on (t1, t2), negated
    primary = np.array([-(mu1 - mu2), -mu2])
    tie = np.array([-(mu2 - mu1), -mu1])

    def tight(caps):
        # the largest feasible (t1, t2) under caps (m1, m2, min sum cap)
        m1, m2, ms = caps
        return np.array([min(m1, ms), min(ms, m1 + m2)])

    # SLSQP's stopping rules are absolute, so rates are measured in units of
    # the objective's value at the start
    z0 = np.array([1 / 3, 1 / 3, p_1 / 3, p_2 / 3, p_1 / 6, p_2 / 6, p_1 / 6, p_2 / 6,
                   0.0, 0.0])
    caps0 = _dual_caps(scheme, gains, z0)
    t0 = tight((caps0[0][0], caps0[1][0], min(c[0] for c in caps0[2])))
    scale = max(-float(primary @ t0), 1e-12)
    z0[8:] = t0 / scale
    rows, jac, count = _epigraph_rows(scheme, gains, budget, scale)
    count[0] += 1
    bounds = [(0.0, 1.0), (0.0, 1.0)] + [(0.0, p_1), (0.0, p_2)] * 3 + [(None, None)] * 2

    def solve(weights, z, options):
        w = np.zeros(10)
        w[8:] = weights
        return _scipy_minimize(lambda z: float(w @ z), z, jac=lambda z: w,
                               method="SLSQP", bounds=bounds,
                               constraints={"type": "ineq", "fun": rows, "jac": jac},
                               options=options)

    def candidate(z):
        # the rebuilt point, and the same with slots shorter than _SNAP
        # emptied: SLSQP can leave a slot just above 0 that wastes energy
        best = None
        for shortest in (_SLOT_FLOOR, _SNAP):
            slots, alloc = _rebuild(z, budget, shortest)
            if not power_feasible("DF", slots, alloc, budget)[2]:
                return None
            region = scheme_region(scheme, g, slots, alloc, rho)
            vertex, value = weighted_best_vertex(polygon_from_constraints(region),
                                                 (mu1, mu2))
            caps = (region.min_r1, region.min_r2, region.min_sum)
            score = _score(caps, mu1, mu2)
            if best is None or score > best[0]:
                best = score, slots, alloc, vertex, value, caps
        return best

    sol = solve(primary + _TIE_EPS * tie, z0, _SLSQP_OPTIONS)
    best = candidate(sol.x) if sol.success else None
    if best is None:
        return None
    # SLSQP can stop early where the objective is flat, so a second solve
    # restarts from the rebuilt solution with a tighter tolerance.  Where
    # mu2 is too small for SLSQP to resolve, a third one turns the direction
    # to weight _TIE_TURN on t2: that direction's optimum is the tie rule's
    # corner of the optimal face wherever the frontier beyond it is less
    # steep than 1 / _TIE_TURN.  Each point is kept if it scores higher,
    # whatever SLSQP reports.
    restarts = [primary + _TIE_EPS * tie]
    if mu2 < _TIE_TURN * mu1:
        restarts.append(np.array([-(1.0 - _TIE_TURN), -_TIE_TURN]) * mu1)
    for weights in restarts:
        _, slots, alloc, _, _, caps = best
        a = (slots.a1, slots.a2, slots.a3, slots.a3, slots.a3, slots.a3)
        z = np.array([slots.a1, slots.a2, *(ai * v for ai, v in zip(a, astuple(alloc))),
                      *(tight(caps) / scale)])
        again = candidate(solve(weights, z, _POLISH_OPTIONS).x)
        if again is None:
            return None
        best = max(best, again, key=lambda c: c[0])
    evals = count[0] + 2 * (1 + len(restarts))
    score = best[0]

    caps_fn, alloc_fn, _ = _evaluator(scheme, g, budget, rho)
    for s_slots, s_alloc in extra_starts:
        x = _x_from_alloc(scheme, s_slots, s_alloc, budget)
        caps = caps_fn(x)
        evals += 1
        v = _score(caps, mu1, mu2)
        if v > score + 1e-9:
            return None
        if v > best[0]:
            _, r1, r2 = _value(caps, mu1, mu2)
            best = (v, *alloc_fn(x), (r1, r2), mu1 * r1 + mu2 * r2, caps)
    _, slots, alloc, vertex, value, _ = best
    return OptResult(scheme=scheme, mu=(mu1, mu2), slots=slots, allocation=alloc,
                     vertex=vertex, value=value, evaluations=evals)


def optimize_scheme(g: ChannelGains, budget: PowerBudget, scheme: str,
                    mu: Tuple[float, float], cfg: SearchConfig,
                    rho: Optional[NoiseCorrelation] = None,
                    extra_starts: Sequence = (),
                    _cache: Optional[Dict] = None) -> OptResult:
    """Maximize mu1*R1 + mu2*R2 for one scheme.

    DF, OUTER and DEGRADED are solved as one concave program; the search
    runs for the superposition schemes and whenever the concave solve fails
    its checks (see the module docstring).  extra_starts is an optional
    sequence of (TimeSlots, allocation) warm starts that are evaluated
    alongside the solution, and refined by the search.
    """
    mu1, mu2 = float(mu[0]), float(mu[1])
    _check(mu1 >= 0.0 and mu2 >= 0.0 and (mu1 > 0.0 or mu2 > 0.0),
           "mu components must be >= 0 and not both zero")
    _check(scheme in SCHEMES, f"unknown scheme {scheme!r}")
    if _cache is None:
        _cache = {}

    if mu2 > mu1:
        swapped_rho = None if rho is None else NoiseCorrelation(rho.rho2, rho.rho1)
        swapped_starts = tuple((_swap_slots(s), swap_allocation(a)) for s, a in extra_starts)
        res = optimize_scheme(_swap_gains(g), PowerBudget(budget.p2, budget.p1), scheme,
                              (mu2, mu1), cfg, rho=swapped_rho,
                              extra_starts=swapped_starts, _cache=_cache)
        return OptResult(scheme=res.scheme, mu=(mu1, mu2),
                         slots=_swap_slots(res.slots),
                         allocation=swap_allocation(res.allocation),
                         vertex=(res.vertex[1], res.vertex[0]),
                         value=res.value, evaluations=res.evaluations)

    if scheme in _DF_SCHEMES:
        res = _solve_concave(g, budget, scheme, mu1, mu2, rho, extra_starts)
        if res is not None:
            return res
    return _search(g, budget, scheme, mu1, mu2, cfg, rho, extra_starts, _cache)


def _search(g: ChannelGains, budget: PowerBudget, scheme: str, mu1: float, mu2: float,
            cfg: SearchConfig, rho: Optional[NoiseCorrelation], extra_starts: Sequence,
            _cache: Dict) -> OptResult:
    """The derivative-free search: phase-1 scan, pattern refinement and the
    simplex polish of the best distinct-cell starts and the best warm start."""
    caps_fn, alloc_fn, dim = _evaluator(scheme, g, budget, rho)
    rho_key = None if rho is None else (rho.rho1, rho.rho2)
    key = (g.k12, g.k21, g.k10, g.k20, g.noise, budget.p1, budget.p2, scheme, rho_key,
           cfg.slot_grid, cfg.power_grid, cfg.seed)
    if key not in _cache:
        xs = _phase1_xs(scheme, dim, cfg)
        _cache[key] = xs, caps_fn(xs, ARRAY_OPS)
    xs, table = _cache[key]
    evals = xs.shape[1]

    # refinement starts come from distinct slot cells so the multi-start
    # probes different basins instead of one winner's neighborhood; the
    # stable sort keeps scan order among equal scores
    score = _score(table, mu1, mu2, ARRAY_OPS)
    starts = []
    seen_cells = set()
    for i in np.argsort(-score, kind="stable"):
        x = tuple(xs[:, i].tolist())
        if x[:2] in seen_cells:
            continue
        seen_cells.add(x[:2])
        # the table only ranks; a start carries its scalar-path score, which
        # refinement compares against
        starts.append((_score(caps_fn(x), mu1, mu2), x))
        if len(starts) >= _N_STARTS:
            break
    warm = []
    for s_slots, s_alloc in extra_starts:
        x = _x_from_alloc(scheme, s_slots, s_alloc, budget)
        v = _score(caps_fn(x), mu1, mu2)
        evals += 1
        warm.append((v, x))
    if warm:
        # every warm point counts as evaluated; the best one is also refined
        warm.sort(key=lambda t: t[0], reverse=True)
        starts.append(warm[0])

    best_v, best_x = max(starts + warm, key=lambda t: t[0])
    for v0, x0 in starts:
        x1, v1, used = _refine(caps_fn, x0, v0, mu1, mu2, cfg)
        evals += used
        x2, v2, used = _nm_polish(caps_fn, x1, v1, mu1, mu2, cfg)
        evals += used
        if v2 > best_v:
            best_v, best_x = v2, x2

    slots, alloc = alloc_fn(best_x)
    _, r1, r2 = _value(caps_fn(best_x), mu1, mu2)
    evals += 1
    return OptResult(scheme=scheme, mu=(mu1, mu2), slots=slots, allocation=alloc,
                     vertex=(r1, r2), value=mu1 * r1 + mu2 * r2, evaluations=evals)


def frontier(g: ChannelGains, budget: PowerBudget, scheme: str, weight_count: int,
             cfg: SearchConfig, rho: Optional[NoiseCorrelation] = None,
             extra_starts: Sequence = ()) -> FrontierResult:
    """Trace the weighted-sum frontier over angularly spaced weight directions
    mu = (cos t, sin t), t in [0, pi/2], and hull the best vertices."""
    _check(isinstance(weight_count, numbers.Integral) and not isinstance(weight_count, bool),
           f"weight_count must be an integer, got {weight_count!r}")
    _check(weight_count >= 3, "weight_count must be >= 3")
    cache: Dict = {}
    results = []
    for i in range(weight_count):
        theta = 0.5 * math.pi * i / (weight_count - 1)
        mu = (math.cos(theta), math.sin(theta))
        results.append(optimize_scheme(g, budget, scheme, mu, cfg, rho=rho,
                                       extra_starts=extra_starts, _cache=cache))
    hull = upper_hull([r.vertex for r in results])
    return FrontierResult(scheme=scheme, points=tuple(results), hull=hull)
