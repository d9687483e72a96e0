"""Weighted sum-rate maximization over slot splits and power allocations.

Every scheme is solved on one path.  In slot-energy variables (the slot
fractions a1, a2 and, for every power, its slot fraction times the power)
each cap is a sum of perspectives a * C(k^2 E / (a N)) of concave functions.
A coherent pair of slot-3 energies (x, y) enters through sqrt(x y), which
gets a variable W of its own under the rotated-cone row x y - W^2 >= 0, so
every numerator is linear in the variables, the cone is convex and no
gradient blows up where x or y is 0.  Each solver records its scheme's
kernel (gaussian's ``df_caps`` or ``pdf_caps``) once as a table of terms,
caps = M @ [a_S C(K E / (a_S N))], whose values and Jacobian are a few array
operations.  The caps of DF, OUTER, DEGRADED, PDF_JOINT and PDF_SEPARATE
weigh every term positively and are jointly concave, and with rate
variables R = (R1, R2) a weight direction is the concave program

    maximize mu1 R1 + mu2 R2  subject to  R1 <= m1, R2 <= m2,
    R1 + R2 <= every sum cap, the two power budgets, a1 + a2 <= 1
    and the cone rows,

which SLSQP (Kraft, DFVLR-FB 88-28, 1988) solves.  ``_slsqp`` runs scipy's
compiled SLSQP kernel from the reverse-communication loop that
``scipy.optimize.minimize`` runs for this problem, without the wrapper around
it: the objective is linear, so its value is one dot product and its
gradient a constant.  The same kernel calls and callback calls, in the same
order, give the same bits as ``minimize`` (with the polish's stall stop as
its callback), and a test checks that they do.

- Every solver point is rebuilt as TimeSlots and an allocation that spend
  both budgets, re-evaluated through ``scheme_region`` and
  ``weighted_best_vertex`` and checked with ``power_feasible``; these
  rebuilt candidates are what the path compares and returns.
  ``sample_allocation`` spends its random draws through the same rebuild.
- Starts: DF, OUTER and DEGRADED start from a fixed interior point, PDF_JOINT
  from the DF solution (the best of its coherent energy split evenly between
  U and V, all on U and all on V), PDF_SEPARATE and PDF_PARTIAL from the
  PDF_JOINT solution; each direction is solved on its own.  A solve that
  reports failure is restarted from its rebuilt point while that point gains;
  where it fails at a point that misses its rows by more than _MISS, the
  feasible iterate ``_slsqp`` keeps is rebuilt too, and the better one is
  used.
- The solved candidate is re-solved from itself with a tighter tolerance
  until the value gains less than 1e-12 (relative), at most 20 times.  That
  tolerance is below the caps' resolution, so each of these polish solves
  stops once 10 iterations in a row fail to lower its best objective.
  Where mu2 is too small for SLSQP to resolve, one more solve turns the
  direction slightly toward R2, which finds the corner the tie rule of
  ``weighted_best_vertex`` reports (largest R1, then largest R2).
- A slot that is empty where a solve starts keeps no energy during that
  solve: at an empty slot a * C(k E / a) has no gradient.
- Every solve is a round of the convex-concave procedure (Lipp & Boyd,
  Optim. Eng. 17, 2016): it linearizes the table's negative-weight terms,
  only PDF_PARTIAL's C(K12^2 P10 / N) and its mirror, at its start, so the
  program is concave and its value a lower bound, tight there: no round
  loses.  PDF_PARTIAL starts on the P10 = P20 = 0 face, where it is PDF_JOINT.

SLSQP asks for the constraint values at every line-search point and for
their Jacobian at the points it accepts, nearly always just after their
values.  A solve keeps the table's terms at its latest point (slot lengths,
ratios and C values), from which the values follow and the Jacobian needs
only C' and the assembly.  Each solve owns a workspace sized from its
table: the terms and their Jacobian, the rows, and the rows' Jacobian, whose
linear part is written once.  The callbacks fill it with ``out=`` ufuncs and
ndarray methods (``ndarray.dot`` runs the BLAS product ``@`` runs) in the
float operations and the order of the plain formula, so every result keeps
its bits, and they return copies, which the caller owns.  ``_Table.terms``
evaluates into arrays of its own, so it never overwrites a solve's terms.
Where SLSQP asks for the Jacobian, the kernel's objective and constraint
values are that point's, so ``_slsqp`` picks the feasible iterate it keeps
from them without evaluating anything.
``OptResult.evaluations`` counts cap evaluations: one per distinct solver
point, whichever callbacks SLSQP calls there, one per distinct rebuilt
point (the two rebuilds of a point are one, rebuilt once, where cutting its
slots at 1e-12 and at 1e-6 gives the same slots) and one per solve start
only where the table has negative-weight terms, including those of the DF
and PDF_JOINT solves a superposition scheme starts from.

Weights are divided by max(mu1, mu2) once, so the result does not depend on
their scale, and directions with mu2 > mu1 are solved on the user-swapped
problem and mirrored back, so symmetric scenarios give exactly symmetric
results.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    ChannelGains,
    DfAllocation,
    PdfAllocation,
    PowerBudget,
    RatePolygon,
    TimeSlots,
    ValidationError,
    _LN2,
    _check,
    c_gauss,
    convex_hull_ccw,
    polygon_from_constraints,
    power_feasible,
)
from .gaussian import (
    DF_SCHEMES,
    PDF_SCHEMES,
    NoiseCorrelation,
    df_caps,
    df_gains,
    df_powers,
    pdf_caps,
    pdf_gains,
    pdf_powers,
    scheme_caps_region,
)

SCHEMES = PDF_SCHEMES + DF_SCHEMES


@dataclass(frozen=True)
class SearchConfig:
    """Optimizer settings as a scenario's ``search:`` block spells them.

    Only ``seed`` has an effect: it seeds verify's search for a strict gap
    and is written to the ``# seed:`` header of the CLI outputs.  The
    optimizer has no knobs; ``slot_grid``, ``power_grid``, ``refine_iters``
    and ``refine_shrink`` are still validated, so that older scenario files
    keep parsing, but nothing reads them.
    """

    slot_grid: int = 11
    power_grid: int = 9
    refine_iters: int = 60
    refine_shrink: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("slot_grid", "power_grid", "refine_iters", "seed"):
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

def _check_weights(mu1: float, mu2: float) -> None:
    _check(math.isfinite(mu1) and math.isfinite(mu2),
           f"weights must be finite, got {(mu1, mu2)!r}")
    _check(mu1 >= 0.0 and mu2 >= 0.0 and (mu1 > 0.0 or mu2 > 0.0),
           "weights must be >= 0 and not both zero")


def weighted_best_vertex(poly: RatePolygon, mu: Tuple[float, float]):
    """Polygon vertex maximizing mu1*r1 + mu2*r2; ties, values within
    _TIE_ULPS ulps of the best so far, go to larger r1, then r2."""
    mu1, mu2 = float(mu[0]), float(mu[1])
    _check_weights(mu1, mu2)
    _check(len(poly.vertices) > 0, "empty polygon")
    best = poly.vertices[0]
    top = mu1 * best[0] + mu2 * best[1]
    for v in poly.vertices:
        value = mu1 * v[0] + mu2 * v[1]
        tie = _TIE_ULPS * math.ulp(top)
        if value - top > tie or (value - top >= -tie and v > best):
            best, top = v, value
    return best, top


def upper_hull(points: Sequence[Tuple[float, float]]) -> RatePolygon:
    """Convex hull of nonnegative points, closed to the axes through the origin."""
    pts = [(float(x), float(y)) for x, y in points]
    _check(len(pts) > 0, "upper_hull needs at least one point")
    for x, y in pts:
        if not (x >= 0.0 and y >= 0.0):
            raise ValidationError(f"upper_hull points must be >= 0, got {(x, y)!r}")
    max_x = max(x for x, _ in pts)
    max_y = max(y for _, y in pts)
    closure = pts + [(0.0, 0.0), (max_x, 0.0), (0.0, max_y)]
    return RatePolygon(convex_hull_ccw(closure))


def point_slack(vertices, p) -> float:
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
        worst = min(worst, point_slack(outer.vertices, p))
    return worst >= -tol, worst


# the named scheme's region at a fixed slot split and allocation
scheme_region = scheme_caps_region


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
# the concave programs
#
# A solver point is z = (a1, a2, energies..., R1, R2) with a3 = 1 - a1 - a2,
# every energy its slot's fraction times a power and the rates measured in
# units of the solver's scale.
# ---------------------------------------------------------------------------

_SLOT_FLOOR = 1e-12     # d(a C(x/a))/da is unbounded as a -> 0
# SLSQP's first steps are as long as the objective's gradient, and its
# stopping rule is absolute, so the objective mu . R (rates in units of the
# solver's scale) is multiplied by a step factor: larger from the fixed
# interior start, smaller from a point near a solution.  Each kind of solve
# is (step factor, relative ftol).
_COLD = (0.1, 1e-12)
_WARM = (0.01, 1e-12)
_POLISH = (0.01, 1e-15)
_MAXITER = 100
_STALL = 10             # a polish stops after this many iterations without a lower objective
_SNAP = 1e-6            # rebuilt points are also tried with shorter slots emptied
_MISS = 1e-9            # most an iterate may miss its rows by and still count as feasible
_TIE_EPS = 1e-9         # weight of the tie rule when candidates are compared
_TIE_ULPS = 4           # weighted values this close are ties in weighted_best_vertex
_TIE_TURN = 1e-3        # smallest weight on R2 that SLSQP resolves
_RESTARTS = 2           # re-solves from the rebuilt point of a failed solve
_ROUNDS = 20            # most re-solves of the best candidate
_GAIN = 1e-12           # the rounds stop when the value gains less (relative)
_NOMINAL = 1e-12        # power of a public symbol that only carries coherent power


@dataclass(frozen=True)
class _Family:
    """How a scheme family's energies sit in the slots and the budgets."""

    name: str                    # the family as power_used spells it
    kernel: Callable             # df_caps or pdf_caps
    slot_of: Tuple[int, ...]     # slot (0, 1, 2) of each energy
    owner: Tuple[int, ...]       # user (0, 1) spending each energy
    private: Tuple[int, int]     # each user's slot-3 private energy
    own: Tuple[int, int]         # where a user's energy goes when slot 3 is empty
    # coherent pairs (user 1's energy, user 2's energy, carrier energy or
    # None), in the order the kernel takes their gmean
    pairs: Tuple[Tuple[int, int, Optional[int]], ...]
    powers: Callable             # allocation -> kernel powers
    allocation: Callable         # kernel powers -> allocation


def _pdf_allocation(powers) -> PdfAllocation:
    """PdfAllocation of pdf_caps powers (pu, p10, pv, p20, p13, p23, ac2, ac3, ad2, ad3)."""
    pu, p10, pv, p20, p13, p23, ac2, ac3, ad2, ad3 = powers
    c2 = ac2 / pu if pu > 0.0 else 0.0
    c3 = ac3 / pv if pv > 0.0 else 0.0
    d2 = ad2 / pv if pv > 0.0 else 0.0
    d3 = ad3 / pu if pu > 0.0 else 0.0
    return PdfAllocation(p10, p20, pu, pv, p13, p23, c2, c3, d2, d3)


# energies (E12, E21, E13, E23, ES1, ES2)
_DF = _Family(name="DF", kernel=df_caps, slot_of=(0, 1, 2, 2, 2, 2), owner=(0, 1, 0, 1, 0, 1),
              private=(2, 3), own=(0, 1), pairs=((4, 5, None),), powers=df_powers,
              allocation=lambda p: DfAllocation(*p))
# energies (EU, E10, EV, E20, E13, E23, Eac2, Eac3, Ead2, Ead3); U carries
# ac2 and ad3, V carries ac3 and ad2
_PDF = _Family(name="PDF", kernel=pdf_caps, slot_of=(0, 0, 1, 1, 2, 2, 2, 2, 2, 2),
               owner=(0, 0, 1, 1, 0, 1, 0, 0, 1, 1), private=(4, 5), own=(0, 2),
               pairs=((6, 9, 0), (7, 8, 2)),
               powers=pdf_powers,
               allocation=_pdf_allocation)


def _energies(family: _Family, slots: TimeSlots, alloc) -> list:
    """(a1, a2, energies) of an allocation."""
    lengths = (slots.a1, slots.a2, slots.a3)
    return [slots.a1, slots.a2, *(p * lengths[s] for p, s in
                                  zip(family.powers(alloc), family.slot_of))]


def _layout(family: _Family, a1: float, a2: float, users) -> list:
    """(a1, a2, energies) of each user's (own-slot energy, its public share,
    slot-3 private energy, coherent energy, its share on the user's own
    public symbol, the rest on the partner's); DF reads neither share."""
    (o1, s1, q1, c1, t1), (o2, s2, q2, c2, t2) = users
    if family is _DF:
        return [a1, a2, o1, o2, q1, q2, c1, c2]
    return [a1, a2, s1 * o1, o1 - s1 * o1, s2 * o2, o2 - s2 * o2, q1, q2,
            t1 * c1, (1 - t1) * c1, t2 * c2, (1 - t2) * c2]


class _Form(dict):
    """A signed sum of recorded terms: term index -> weight."""

    def __add__(self, other):
        out = _Form(self)
        for t, w in other.items():
            out[t] = out.get(t, 0.0) + w
        return out

    def __sub__(self, other):
        return self + _Form({t: -w for t, w in other.items()})


class _Terms:
    """A table's terms at one solver point, ratios x, C(x) and values
    a_S C(x), in buffers that ``_Table.evaluate`` fills, next to the intermediates
    of ``evaluate`` and the terms' Jacobian that ``_Table.jacobian`` fills."""

    def __init__(self, table: "_Table"):
        n_terms, n_energies = table.K.shape
        self.lengths = np.empty(3)
        self.energies = np.empty(n_energies)
        self.a, self.x, self.c, self.values, self.dc, self.s = np.empty((6, n_terms))
        self.s_column = self.s[:, None]
        self.jac = np.empty((n_terms, 2 + n_energies))
        self.jac_slots, self.jac_energies = self.jac[:, :2], self.jac[:, 2:]


class _Table:
    """A scheme's caps M @ [a_S C(K E / (a_S N))] at z = (a1, a2, E): term t
    has slot S[t], noise N[t] and numerator row K[t] over the energies E
    (coherent ones last), all in slot S[t].  One kernel run on linear-form
    ops records it: slots are the indices 0, 1, 2, powers and gmean's
    results unit rows over E, and term records (slot, row, noise)."""

    SLOT_ROWS = np.array(((1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)))   # d(a1, a2, a3)/d(a1, a2)
    # the formula's constants as 0-d arrays, which ufuncs take faster than floats
    ZERO, HALF, ONE, FLOOR, LN2 = map(np.array, (0.0, 0.5, 1.0, _SLOT_FLOOR, _LN2))

    def __init__(self, family: _Family, scheme: str, gains):
        self.family, self.gains = family, gains
        n = len(family.slot_of)
        rows = np.eye(n + len(family.pairs))
        coherent = iter(rows[n:])
        terms = []

        def term(slot, num, noise):
            terms.append((slot, num, noise))
            return _Form({len(terms) - 1: 1.0})

        r1, r2, sums = family.kernel(scheme, gains, 0, 1, 2, list(rows[:n]),
                                     (term, lambda x, y: next(coherent)))
        m = np.zeros((2 + len(sums), len(terms)))
        for i, form in enumerate((r1, r2, *sums)):
            m[i, list(form)] = list(form.values())
        used = np.flatnonzero(m.any(axis=0))
        self.M = m[:, used]
        self.S, self.K, self.N = map(np.array, zip(*(terms[t] for t in used)))
        self.slot_rows = self.SLOT_ROWS[self.S]
        self.negative = np.flatnonzero((self.M < 0.0).any(axis=0))   # PDF_PARTIAL's two

    def evaluate(self, z, t: Optional[_Terms] = None) -> _Terms:
        """The terms at z, with slots floored at _SLOT_FLOOR and energies at
        0, written into ``t`` (a new record by default), which is returned.
        The float operations are the formula's, in its order:
        x = K @ E / (a_S N), C = 0.5 * log1p(x) / ln 2 and a_S * C."""
        t = _Terms(self) if t is None else t
        lengths = t.lengths
        lengths[:2] = z[:2]
        lengths[2] = 1.0 - lengths[0] - lengths[1]
        a = np.maximum(lengths, self.FLOOR, out=lengths).take(self.S, out=t.a)
        e = np.maximum(z[2:2 + len(t.energies)], self.ZERO, out=t.energies)
        x = self.K.dot(e, t.x)
        x /= np.multiply(a, self.N, out=t.s)
        c = np.log1p(x, out=t.c)
        c *= self.HALF
        c /= self.LN2
        np.multiply(a, c, out=t.values)
        return t

    def jacobian(self, t: _Terms) -> np.ndarray:
        """The terms' Jacobian over (a1, a2, E), written into ``t.jac``: the
        derivatives of the unclamped formula, also where ``evaluate`` floors
        a slot or an energy."""
        dc = np.add(t.x, self.ONE, out=t.dc)
        dc *= self.LN2
        np.divide(self.HALF, dc, out=dc)    # C'(x)
        s = np.multiply(t.x, dc, out=t.s)
        np.subtract(t.c, s, out=s)
        np.multiply(self.slot_rows, t.s_column, out=t.jac_slots)
        np.divide(dc, self.N, out=s)
        np.multiply(self.K, t.s_column, out=t.jac_energies)
        return t.jac

    def terms(self, z):
        """The terms' values at z and their Jacobian over (a1, a2, E), in
        arrays of their own."""
        t = self.evaluate(z)
        return t.values, self.jacobian(t)


def _scheme_table(scheme: str, g: ChannelGains, rho: Optional[NoiseCorrelation] = None) -> _Table:
    """The named scheme's table on its family's kernel; ``rho`` is read by
    DEGRADED only."""
    if scheme in PDF_SCHEMES:
        return _Table(_PDF, scheme, pdf_gains(g))
    return _Table(_DF, scheme, df_gains(scheme, g, rho))


def _dominates(outer: _Table, inner: _Table, delta: float = 0.0) -> dict:
    """Prove, for every allocation at once, that the outer table's region
    contains the inner one's: two tables of one family over the same energies.

    Outer cap o bounds inner cap i of the same kind (R1, R2 or sum) when each
    negative term of their difference is matched to a positive term of its
    own with the same slot and noise and a K row elementwise at least the
    negative term's, as a C(k E / (a N)) grows with k.  Every weight is 0 or
    +-1, so this is a bipartite matching, found by augmenting paths.  With a
    relative K tolerance delta the positive row times 1 + delta suffices, and
    such a pair is off by at most a * 0.5 * log2(1 + delta), a <= 1.

    Returns "caps", each outer cap's inner cap and (negative, positive) term
    pairs, the outer table's terms numbered first; "refused", the first
    outer cap bounding no inner cap, where caps stops, or None; and "bound",
    the most by which a proven inner cap can exceed its outer cap."""
    s, n = np.concatenate((outer.S, inner.S)), np.concatenate((outer.N, inner.N))
    k = np.vstack((outer.K, inner.K))

    def fits(neg, pos):
        return s[neg] == s[pos] and n[neg] == n[pos] and (k[pos] * (1 + delta) >= k[neg]).all()

    def match(diff):
        positive = np.flatnonzero(diff > 0.0)
        owner = {}      # positive term -> the negative term matched to it

        def augment(neg, seen):
            for pos in positive:
                if pos not in seen and fits(neg, pos):
                    seen.add(pos)
                    if pos not in owner or augment(owner[pos], seen):
                        owner[pos] = neg
                        return True
            return False
        return (sorted((int(neg), int(pos)) for pos, neg in owner.items())
                if all(augment(neg, set()) for neg in np.flatnonzero(diff < 0.0)) else None)

    caps, bound = [], 0.0
    for o, row in enumerate(outer.M):
        for i in range(len(inner.M)):
            pairs = match(np.concatenate((row, -inner.M[i]))) if min(i, 2) == min(o, 2) else None
            if pairs is not None:
                break
        else:
            return {"caps": caps, "refused": o, "bound": bound}
        caps.append((i, pairs))
        loose = sum(not (k[pos] >= k[neg]).all() for neg, pos in pairs)
        bound = max(bound, loose * 0.5 * math.log1p(delta) / _LN2)
    return {"caps": caps, "refused": None, "bound": bound}


def _cut(z, shortest: float) -> TimeSlots:
    """The slots of a solver point clamped into the simplex, with slots
    shorter than ``shortest`` emptied."""
    a1, a2 = (v if v >= shortest else 0.0 for v in (float(z[0]), float(z[1])))
    a1 = min(a1, 1.0)
    a2 = min(a2, 1.0 - a1)
    if 1.0 - a1 - a2 < shortest:
        a2 = 1.0 - a1
    return TimeSlots.from_first_two(a1, a2)


def _rebuild(family: _Family, scheme: str, z, budget: PowerBudget, slots: TimeSlots):
    """An allocation of a solver point, or of the energies
    ``sample_allocation`` draws, at the slots ``_cut`` makes of it, that
    spends each user's whole budget; returns (slots, allocation).

    Energy is clamped at 0 and scaled onto a budget it overshoots; energy
    left unspent or parked in an empty slot goes to the user's slot-3
    private symbol, or to its own slot when slot 3 is empty.
    A coherent pair with a silent side becomes private power, and a public
    symbol that carries only coherent power, or so little of its own that a
    coherent ratio over it overflows, gets a nominal power.  Each
    user's own-slot power is made public for PDF_JOINT, whose caps see only
    its total, and private for PDF_SEPARATE, whose caps grow with the private
    part at a fixed total; any other scheme, or a family name, keeps the
    split.  None of this lowers a cap.
    """
    lengths = (slots.a1, slots.a2, slots.a3)
    start = [max(float(v), 0.0) if lengths[s] > 0.0 else 0.0
             for v, s in zip(z[2:], family.slot_of)]
    if scheme == "PDF_JOINT":
        # only su1 = pu + p10 and su2 = pv + p20 enter its caps
        start[0:4] = start[0] + start[1], 0.0, start[2] + start[3], 0.0
    elif scheme == "PDF_SEPARATE":
        # its caps see su1 and p10, and grow with p10 at a fixed su1
        start[0:4] = 0.0, start[0] + start[1], 0.0, start[2] + start[3]

    def spend(faint):
        """The start energies' powers once spent, the carriers in ``faint`` silent."""
        e, nominal = list(start), []
        for i, j, carrier in family.pairs:
            if e[i] == 0.0 or e[j] == 0.0:
                e[family.private[0]] += e[i]
                e[family.private[1]] += e[j]
                e[i] = e[j] = 0.0
            elif carrier is not None and (e[carrier] == 0.0 or carrier in faint):
                # the pair keeps its coherent gain on a public symbol that
                # has no power of its own: the symbol gets a nominal power,
                # which costs energy only in a slot of positive length
                nominal.append(carrier)
                e[carrier] = _NOMINAL * lengths[family.slot_of[carrier]]
        for user, total in enumerate((budget.p1, budget.p2)):
            mine = [i for i, o in enumerate(family.owner) if o == user]
            spent = sum(e[i] for i in mine)
            if spent > total:
                for i in mine:
                    e[i] *= total / spent
            elif slots.a3 > 0.0:
                e[family.private[user]] += total - spent
            elif lengths[user] > 0.0:
                e[family.own[user]] += total - spent
        powers = [v / lengths[s] if lengths[s] > 0.0 else 0.0 for v, s in zip(e, family.slot_of)]
        for carrier in nominal:
            powers[carrier] = powers[carrier] or _NOMINAL
        return powers

    powers = spend(())
    # carriers so faint (subnormal, say) that a coherent ratio over one overflows
    faint = [c for i, j, c in family.pairs if c is not None and powers[c] > 0.0
             and math.isinf(max(powers[i], powers[j]) / powers[c])]
    return slots, family.allocation(spend(faint) if faint else powers)


def sample_allocation(scheme: str, g: ChannelGains, budget: PowerBudget, rng,
                      interior: bool = False):
    """Random feasible (TimeSlots, allocation), uniform over a unit-cube
    parameterization; rng is a random.Random.  Each user puts a share of its
    budget in its own slot, a share of that public in the superposition
    schemes, and the rest in slot 3: a private share and a coherent part, in
    the superposition schemes a share on the user's own public symbol and
    the rest on the partner's.  ``_rebuild`` spends these energies as it
    spends a solver point's.  With interior=True the slot fractions and
    shares stay away from the boundary, so every power is strictly positive."""
    _check(scheme in SCHEMES, f"unknown scheme {scheme!r}")
    family = _PDF if scheme in PDF_SCHEMES else _DF
    u, v = sorted((rng.random(), rng.random()))
    a1, a2 = u, v - u
    n = 4 if family is _PDF else 2      # draws per user
    params = [rng.random() for _ in range(2 * n)]
    if interior:
        a1, a2 = 0.1 + 0.5 * a1, 0.1 + 0.5 * a2
        params = [0.1 + 0.8 * p for p in params]
    users = []
    for p, (own, *shares) in zip((budget.p1, budget.p2), (params[:n], params[n:])):
        public, private, atom = shares if family is _PDF else (1.0, *shares, 1.0)
        rest = (1.0 - own) * p
        users.append((own * p, public, private * rest, rest - private * rest, atom))
    z = _layout(family, a1, a2, users)
    return _rebuild(family, family.name, z, budget, _cut(z, _SLOT_FLOOR))


@dataclass(frozen=True)
class _Candidate:
    score: float
    slots: TimeSlots
    allocation: Union[PdfAllocation, DfAllocation]
    vertex: Tuple[float, float]
    value: float


def _slsqp(w, x0, lower, upper, rows, jacobian, ftol: float, maxiter: int, stall=None):
    """Minimize -w . x subject to rows(x) >= 0 and lower <= x <= upper with
    SLSQP (Kraft, DFVLR-FB 88-28, 1988): scipy's compiled kernel, driven by
    the reverse-communication loop of scipy's ``_minimize_slsqp`` for this
    problem shape, with the same float operations and callback calls in the
    same order.  With ``stall``, the solve ends once that many major
    iterations in a row fail to lower its best objective.  Returns the last
    point, whether the kernel reports success (exit mode 0) and, for a
    failed solve whose last point misses its rows by more than _MISS, the
    point of lowest objective among x0 and the points where the kernel asks
    for the Jacobian (mode -1) that miss them by at most _MISS, or None.  At
    those points the kernel's objective and row values are current, so they
    are read, not evaluated again."""
    from scipy.optimize._slsqplib import slsqp

    x = np.clip(x0, lower, upper)
    # the kernel reads an infinite bound as NaN
    xl, xu = (np.where(np.isfinite(b), b, np.nan) for b in (lower, upper))
    m, n = len(rows(x)), len(x)
    state = {"acc": ftol, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0,
             "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * ftol, "exact": 0,
             "inconsistent": 0, "reset": 0, "iter": 0, "itermax": maxiter, "line": 0,
             "m": m, "meq": 0, "mode": 0, "n": n}
    buffer = np.zeros(n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28)
    indices = np.zeros(m + 2 * n + 2, dtype=np.int32)
    mult = np.zeros(m + 2 * n + 2)
    fx, g = -float(w.dot(x)), -w
    C = np.zeros((m, n), order="F")
    d = np.zeros(m)
    C[:] = jacobian(x)
    d[:] = rows(x)
    best, kept = fx, (fx, x.copy()) if -d.min() <= _MISS else None
    iterations = stalled = 0
    while True:
        slsqp(state, fx, g, C, d, x, mult, xl, xu, buffer, indices)
        mode = state["mode"]
        if mode == 1:
            fx = -float(w.dot(x))
            d[:] = rows(x)
        elif mode == -1:
            C[:] = jacobian(x)
            if -d.min() <= _MISS and (kept is None or fx < kept[0]):
                kept = fx, x.copy()
        if state["iter"] > iterations and stall is not None:
            best, stalled = (fx, 0) if fx < best else (best, stalled + 1)
            if stalled >= stall:
                break
        if abs(mode) != 1:
            break
        iterations = state["iter"]
    success = mode == 0
    if not success and kept is not None and -d.min() > _MISS:
        return x, success, kept[1]
    return x, success, None


class _Solver:
    """The concave programs of one scheme and one direction with mu1 >= mu2."""

    def __init__(self, scheme: str, g: ChannelGains, budget: PowerBudget,
                 rho: Optional[NoiseCorrelation], mu1: float, mu2: float):
        self.scheme, self.g, self.budget, self.rho = scheme, g, budget, rho
        self.mu = np.array([mu1, mu2])
        self.table = _scheme_table(scheme, g, rho)
        self.family = self.table.family
        self.scale = None
        self.evaluations = 0
        # the cone rows are divided by p1 p2
        self.norm = budget.p1 * budget.p2
        _check(sys.float_info.min <= self.norm < math.inf,
               f"power budget {budget!r}: p1 * p2 = {self.norm!r} is not a normal float")
        # every cap is a sum of at most four terms a * C(x / a) (PDF_PARTIAL
        # subtracts one), and no numerator exceeds gain * (p1 + p2) / a
        e12, e21, k10, k20, noise = self.table.gains
        gain = (math.sqrt(e12) + math.sqrt(e21) + k10 + k20) ** 2
        self.rate_bound = 4.0 * c_gauss(gain * (budget.p1 + budget.p2) / noise)
        # solver columns of each coherent pair and of its coherent energy
        pairs = self.family.pairs
        self.cones = (np.array([2 + i for i, _, _ in pairs]), np.array([2 + j for _, j, _ in pairs]),
                      2 + len(self.family.slot_of) + np.arange(len(pairs)))
        # the linear parts of the rows (all >= 0): both budgets, a1 + a2 <= 1,
        # and the rates under the caps (m1, m2, then the sum caps)
        n_caps = len(self.table.M)
        self.linear = np.zeros((3 + n_caps, self.table.K.shape[1] + 4))
        for i, u in enumerate(self.family.owner):
            self.linear[u, 2 + i] = -1.0
        self.linear[2, :2] = -1.0
        self.linear[3, -2] = self.linear[4, -1] = -1.0
        self.linear[5:, -2:] = -1.0
        self.base = np.zeros(3 + n_caps)
        self.base[:3] = budget.p1, budget.p2, 1.0
        # the Jacobian's rows with the cone rows' entries still 0
        self.template = np.zeros((len(self.linear) + len(pairs), self.linear.shape[1]))
        self.template[:len(self.linear)] = self.linear

    # -- the model -------------------------------------------------------

    def model(self, at):
        """(z, t) -> caps and (z, t) -> their Jacobian over z[:-2], where t is
        the table's terms at z, of the table with its negative-weight terms
        replaced by their tangents at ``at``: a concave model, tight at
        ``at``.  Only a table with such terms evaluates ``at``.  Each returns
        a buffer of the model's own, which the next call overwrites."""
        table, neg = self.table, self.table.negative
        M = table.M
        caps_out, jac_out = np.empty(len(M)), np.empty((len(M), 2 + table.K.shape[1]))
        if neg.size == 0:
            return ((lambda z, t: M.dot(t.values, caps_out)),
                    (lambda z, t: M.dot(table.jacobian(t), jac_out)))
        v0, j0 = (x[neg] for x in table.terms(at))
        self.evaluations += 1
        at = at[:-2].copy()
        v, step, tangent = np.empty(len(table.K)), np.empty(len(at)), np.empty(len(neg))

        def caps(z, t):
            np.copyto(v, t.values)
            v[neg] = np.add(v0, j0.dot(np.subtract(z[:-2], at, out=step), tangent), out=tangent)
            return M.dot(v, caps_out)

        def jacobian(z, t):
            j = table.jacobian(t)
            j[neg] = j0
            return M.dot(j, jac_out)
        return caps, jacobian

    # -- candidates ------------------------------------------------------

    def candidate(self, z) -> _Candidate:
        """The better of z's rebuilt points, with and without slots shorter
        than _SNAP emptied: SLSQP can leave a slot just above 0 that wastes
        energy.  A rebuild sees the cut only through the slots it gives, so
        where both cuts give the same slots the two are one point, rebuilt
        and evaluated once."""
        mu, best = tuple(self.mu), None
        floor, snapped = _cut(z, _SLOT_FLOOR), _cut(z, _SNAP)
        for cut in (floor,) if snapped == floor else (floor, snapped):
            slots, alloc = _rebuild(self.family, self.scheme, z, self.budget, cut)
            if not power_feasible(self.family.name, slots, alloc, self.budget)[2]:
                raise RuntimeError("a rebuilt point misses the power budget")
            region = scheme_region(self.scheme, self.g, slots, alloc, self.rho)
            vertex, value = weighted_best_vertex(polygon_from_constraints(region), mu)
            score = value + _TIE_EPS * (mu[1] * vertex[0] + mu[0] * vertex[1])
            self.evaluations += 1
            if best is None or score > best.score:
                best = _Candidate(score, slots, alloc, vertex, value)
        if self.scale is None:
            # SLSQP's stopping rules are absolute, so rates are measured in
            # units of the first candidate's value
            self.scale = max(best.value, 1e-12)
        return best

    def point(self, c: _Candidate) -> np.ndarray:
        """The solver point of a candidate, at its vertex."""
        x = _energies(self.family, c.slots, c.allocation)
        coherent = [math.sqrt(x[2 + i] * x[2 + j]) for i, j, _ in self.family.pairs]
        return np.array([*x, *coherent, *(r / self.scale for r in c.vertex)])

    # -- solves ----------------------------------------------------------

    def minimize(self, model, z, weights, kind):
        """One SLSQP solve from z that maximizes weights . R: ``_slsqp``'s last
        point, success flag and kept feasible iterate.  SLSQP can leave a
        solution for a far infeasible point once its quasi-Newton matrix
        degrades, and fail there.  A _POLISH solve stops once _STALL
        iterations in a row fail to lower its best objective: it starts at a
        solution, and its tolerance is below the caps' resolution, so past its
        best iterate it only meets rounding.

        The callbacks handed to SLSQP fill this solve's workspace (the
        table's terms at the latest point, the rows, and their Jacobian with
        its linear rows written once) and return copies of it, which the
        caller owns."""
        caps, grad = model
        # each coherent energy W of a pair (x, y) stays under sqrt(x y):
        # (x y - W^2) / (p1 p2) >= 0, row n_rows + r for pair r
        cx, cy, cw = self.cones
        n_rows = len(self.base)
        cones = list(enumerate(zip(cx.tolist(), cy.tolist(), cw.tolist()), n_rows))
        norm, scale = self.norm, np.array(self.scale)
        terms = _Terms(self.table)
        out = np.empty(n_rows + len(cw))
        linear, capped = out[:n_rows], out[3:n_rows]
        jac = self.template.copy()
        dcaps = jac[3:n_rows, :-2]
        key = None

        def evaluated(z):
            # the table's terms at z, evaluated by whichever callback sees z first
            nonlocal key
            seen = z.tobytes()
            if seen != key:
                self.table.evaluate(z, terms)
                key = seen
                self.evaluations += 1
            return terms

        def rows(z):
            np.add(self.base, self.linear.dot(z, linear), out=linear)
            c = caps(z, evaluated(z))
            np.add(capped, np.divide(c, scale, out=c), out=capped)
            for r, (x, y, w) in cones:
                zw = z.item(w)
                out[r] = (z.item(x) * z.item(y) - zw * zw) / norm
            return out.copy()

        def jacobian(z):
            np.divide(grad(z, evaluated(z)), scale, out=dcaps)
            for r, (x, y, w) in cones:
                jac[r, x], jac[r, y] = z.item(y) / norm, z.item(x) / norm
                jac[r, w] = -2 * z.item(w) / norm
            return jac.copy()

        # the energies of a slot that is empty at the start stay 0: at an
        # empty slot a * C(k E / a) has no gradient, and the supergradient
        # SLSQP gets there promises gains that no step delivers
        lengths = (z[0], z[1], 1.0 - z[0] - z[1])
        budgets = (self.budget.p1, self.budget.p2)
        upper = np.array([1.0, 1.0, *(
            0.0 if lengths[slot] <= _SLOT_FLOOR else budgets[user]
            for slot, user in zip(self.family.slot_of, self.family.owner))] + [
            0.0 if lengths[2] <= _SLOT_FLOOR else math.sqrt(norm)] * len(cw) + [
            self.rate_bound / self.scale] * 2)
        step, ftol = kind
        w = np.zeros(len(z))
        w[-2:] = weights
        w *= step
        return _slsqp(w, z, np.zeros(len(z)), upper, rows, jacobian, ftol * step, _MAXITER,
                      _STALL if kind is _POLISH else None)

    def run(self, start: _Candidate, kind, restarts: int = 0, weights=None) -> _Candidate:
        """Maximize weights . R (by default mu . R) from a candidate, on the
        model linearized there.  A solve that reports failure is restarted from
        its better rebuilt point (its last point's or the feasible iterate
        ``_slsqp`` keeps), up to ``restarts`` times while that point gains.
        Returns the best of the start and the rebuilt candidates."""
        z = self.point(start)
        model = self.model(z)
        best = start
        for _ in range(1 + restarts):
            x, success, kept = self.minimize(model, z, self.mu if weights is None else weights,
                                             kind)
            c = self.candidate(x)
            if kept is not None:
                c = max(c, self.candidate(kept), key=lambda d: d.score)
            gained = c.score > best.score
            if gained:
                best = c
            if success or not gained:
                break
            z = self.point(c)
        return best

    def solve(self, start: _Candidate, kind, turn: bool = True) -> _Candidate:
        """The candidate solved from ``start`` with the ``kind`` of solve,
        re-solved from itself (rounds of the convex-concave procedure),
        then, with ``turn``, turned toward R2 where mu2 is too small for SLSQP
        to resolve."""
        best = self.run(start, kind, _RESTARTS)
        for _ in range(_ROUNDS):
            c = self.run(best, _POLISH)
            gained = c.score > best.score + _GAIN * abs(best.score)
            best = c
            if not gained:
                break
        if turn and self.mu[1] < _TIE_TURN:
            # this direction's optimum is the tie rule's corner of the optimal
            # face wherever the frontier beyond it is less steep than
            # 1 / _TIE_TURN
            best = self.run(best, _POLISH, weights=np.array([1.0 - _TIE_TURN, _TIE_TURN]))
        return best


def _interior(budget: PowerBudget):
    """The fixed interior start of the decode-forward family."""
    p_1, p_2 = budget.p1, budget.p2
    return (TimeSlots(1 / 3, 1 / 3, 1 / 3),
            DfAllocation(p_1, p_2, p_1 / 2, p_2 / 2, p_1 / 2, p_2 / 2))


def _solve(scheme: str, g: ChannelGains, budget: PowerBudget,
           rho: Optional[NoiseCorrelation], mu1: float, mu2: float,
           turn: bool = True) -> Tuple[_Candidate, int]:
    """Best candidate and kernel evaluations for mu1 >= mu2; a solve that
    only provides a start skips the turn toward R2."""
    solver = _Solver(scheme, g, budget, rho, mu1, mu2)
    if scheme in DF_SCHEMES:
        points, kind = [_energies(_DF, *_interior(budget))], _COLD
    else:
        prev = "DF" if scheme == "PDF_JOINT" else "PDF_JOINT"
        base, used = _solve(prev, g, budget, None, mu1, mu2, turn=False)
        solver.evaluations += used
        kind = _WARM
        if prev == "DF":
            # own-slot power public, each coherent energy split evenly
            # between U and V, or all on one of them
            a1, a2, e12, e21, e13, e23, es1, es2 = _energies(_DF, base.slots, base.allocation)
            points = [_layout(_PDF, a1, a2, ((e12, 1.0, e13, es1, u), (e21, 1.0, e23, es2, 1 - u)))
                      for u in (0.5, 1.0, 0.0)]
        else:
            points = [_energies(_PDF, base.slots, base.allocation)]
    start = max((solver.candidate(x) for x in points), key=lambda c: c.score)
    return solver.solve(start, kind, turn), solver.evaluations


def optimize_scheme(g: ChannelGains, budget: PowerBudget, scheme: str,
                    mu: Tuple[float, float], cfg: SearchConfig,
                    rho: Optional[NoiseCorrelation] = None) -> OptResult:
    """Maximize mu1*R1 + mu2*R2 for one scheme (see the module docstring).

    cfg has no effect on the optimizer.
    """
    mu1, mu2 = float(mu[0]), float(mu[1])
    _check_weights(mu1, mu2)
    _check(scheme in SCHEMES, f"unknown scheme {scheme!r}")
    top = max(mu1, mu2)
    w1, w2 = mu1 / top, mu2 / top
    if w2 > w1:
        swapped_rho = None if rho is None else NoiseCorrelation(rho.rho2, rho.rho1)
        best, evals = _solve(scheme, _swap_gains(g), PowerBudget(budget.p2, budget.p1),
                             swapped_rho, w2, w1)
        slots, alloc = _swap_slots(best.slots), swap_allocation(best.allocation)
        vertex = (best.vertex[1], best.vertex[0])
    else:
        best, evals = _solve(scheme, g, budget, rho, w1, w2)
        slots, alloc, vertex = best.slots, best.allocation, best.vertex
    return OptResult(scheme=scheme, mu=(mu1, mu2), slots=slots, allocation=alloc,
                     vertex=vertex, value=mu1 * vertex[0] + mu2 * vertex[1],
                     evaluations=evals)


def frontier(g: ChannelGains, budget: PowerBudget, scheme: str, weight_count: int,
             cfg: SearchConfig, rho: Optional[NoiseCorrelation] = None) -> FrontierResult:
    """Trace the weighted-sum frontier over angularly spaced weight directions
    mu = (cos t, sin t), t in [0, pi/2], and hull the best vertices."""
    _check(isinstance(weight_count, numbers.Integral) and not isinstance(weight_count, bool),
           f"weight_count must be an integer, got {weight_count!r}")
    _check(weight_count >= 3, "weight_count must be >= 3")
    results = []
    for i in range(weight_count):
        theta = 0.5 * math.pi * i / (weight_count - 1)
        mu = (math.cos(theta), math.sin(theta))
        results.append(optimize_scheme(g, budget, scheme, mu, cfg, rho=rho))
    hull = upper_hull([r.vertex for r in results])
    return FrontierResult(scheme=scheme, points=tuple(results), hull=hull)
