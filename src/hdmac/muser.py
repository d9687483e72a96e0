"""Gaussian m-user half-duplex cooperative MAC: achievable and outer constraints.

Each of the first m slots carries one user's cooperative transmission; in the
last slot every user sends a private stream plus a share of one common
coherent symbol.  Constraints are enumerated over all user subsets (m is
capped so the 2^m enumeration stays trivial).

Signal construction in the last slot, by direct generalization of the
two-user decode-forward scheme: user k sends
sqrt(p_priv[k]) * X_k + sqrt(p_coop[k]) * S with all components independent
unit-variance Gaussian.

The cap formulas live in ``gaussian.muser_caps``, whose m = 2 case is the
two-user ``df_caps``; this module holds the types, their validation, the
constraint descriptors and the link-condition check.  The two sides differ
only in each user's credited gain in its own slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .core import POWER_TOL, ValidationError, _check, _finite
from .gaussian import CHECKED_OPS, muser_caps

MAX_USERS = 6


def _entries(values, name: str) -> tuple:
    try:
        return tuple(values)
    except TypeError:
        raise ValidationError(f"{name} must be a sequence, got {values!r}") from None


def _reals(values, name: str) -> Tuple[float, ...]:
    """values as floats; each entry must be a finite real number >= 0 (not a
    bool)."""
    vals = _entries(values, name)
    for v in vals:
        if not (_finite(v) and v >= 0.0):
            raise ValidationError(f"{name} entries must be finite and >= 0, got {v!r}")
    return tuple(float(v) for v in vals)


@dataclass(frozen=True)
class MUserGains:
    """Inter-user gain matrix (diagonal unused), destination gains, noise."""

    m: int
    k_user: Tuple[Tuple[float, ...], ...]
    k_dest: Tuple[float, ...]
    noise: float

    def __post_init__(self) -> None:
        _check(isinstance(self.m, int) and 2 <= self.m <= MAX_USERS,
               f"MUserGains.m must be an int in [2, {MAX_USERS}], got {self.m!r}")
        rows = tuple(_reals(row, "MUserGains.k_user")
                     for row in _entries(self.k_user, "MUserGains.k_user"))
        dest = _reals(self.k_dest, "MUserGains.k_dest")
        _check(len(rows) == self.m and all(len(r) == self.m for r in rows),
               "MUserGains.k_user must be an m x m matrix")
        _check(len(dest) == self.m, "MUserGains.k_dest must have length m")
        _check(_finite(self.noise) and self.noise > 0.0, "MUserGains.noise must be > 0")
        object.__setattr__(self, "k_user", rows)
        object.__setattr__(self, "k_dest", dest)
        object.__setattr__(self, "noise", float(self.noise))


@dataclass(frozen=True)
class MUserAllocation:
    """Slot fractions and per-user powers (solo slot, last-slot private/coherent)."""

    slots: Tuple[float, ...]
    p_solo: Tuple[float, ...]
    p_priv: Tuple[float, ...]
    p_coop: Tuple[float, ...]

    def __post_init__(self) -> None:
        slots = _reals(self.slots, "MUserAllocation.slots")
        _check(abs(sum(slots) - 1.0) <= 1e-12, "MUserAllocation.slots must sum to 1")
        m = len(slots) - 1
        _check(m >= 2, "MUserAllocation needs at least 3 slots (m >= 2)")
        object.__setattr__(self, "slots", slots)
        for name in ("p_solo", "p_priv", "p_coop"):
            vals = _reals(getattr(self, name), f"MUserAllocation.{name}")
            _check(len(vals) == m, f"MUserAllocation.{name} must have length m = {m}")
            object.__setattr__(self, name, vals)

    @property
    def m(self) -> int:
        return len(self.slots) - 1


def _validate_instance(g: MUserGains, a: MUserAllocation,
                       budgets: Sequence[float]) -> Tuple[float, ...]:
    _check(a.m == g.m, f"allocation is for m={a.m} users, gains for m={g.m}")
    b = _reals(budgets, "budgets")
    _check(len(b) == g.m, "budgets must have length m")
    for v in b:
        _check(v > 0.0, "budgets must be > 0")
    for k, used in enumerate(power_used(g, a)):
        _check(abs(used - b[k]) <= POWER_TOL * max(1.0, b[k]),
               f"user {k + 1} power identity violated: uses {used!r}, budget {b[k]!r}")
    return b


def power_used(g: MUserGains, a: MUserAllocation) -> Tuple[float, ...]:
    """Average power spent by each user."""
    a_last = a.slots[g.m]
    return tuple(a.slots[k] * a.p_solo[k] + a_last * (a.p_priv[k] + a.p_coop[k])
                 for k in range(g.m))


def _credited(g: MUserGains, outer: bool) -> Tuple[float, ...]:
    """Each user's credited squared gain in its own slot: the weakest
    listener's, or for the outer bound the destination and all listeners
    observed jointly.  Written as df_gains writes K12^2 (DF) and K12^2 +
    K10^2 (OUTER), so at m = 2 the caps equal df_region's bit for bit."""
    listeners = [[g.k_user[k][j] for j in range(g.m) if j != k] for k in range(g.m)]
    if outer:
        return tuple(d * d + sum(v ** 2 for v in row) for d, row in zip(g.k_dest, listeners))
    return tuple(min(row) ** 2 for row in listeners)


Constraint = Tuple[Tuple[str, Tuple[int, ...]], float]


def _constraints(g: MUserGains, a: MUserAllocation, budgets: Sequence[float],
                 outer: bool) -> List[Constraint]:
    _validate_instance(g, a, budgets)
    subset, total = muser_caps((_credited(g, outer), g.k_dest, g.noise), a.slots,
                               (a.p_solo, a.p_priv, a.p_coop), CHECKED_OPS)
    users = [tuple(k + 1 for k in range(g.m) if s >> k & 1) for s in range(1 << g.m)]
    return ([(("subset", u), bound) for u, bound in zip(users[1:], subset)]
            + [(("total", u), bound) for u, bound in zip(users, total)])


def muser_achievable_constraints(g: MUserGains, a: MUserAllocation,
                                 budgets: Sequence[float]) -> List[Constraint]:
    """All rate constraints of the m-user decode-forward scheme.

    Returns (descriptor, bound) pairs: ("subset", T) caps sum_{k in T} R_k;
    ("total", Lambda) caps the total sum rate with the users in Lambda
    credited their weakest inter-user link and the rest their direct link.
    Users are numbered from 1 in descriptors.
    """
    return _constraints(g, a, budgets, outer=False)


def muser_outer_constraints(g: MUserGains, a: MUserAllocation,
                            budgets: Sequence[float]) -> List[Constraint]:
    """Outer-bound constraints: weakest-listener terms replaced by
    joint-observation terms over the destination and all listeners."""
    return _constraints(g, a, budgets, outer=True)


def muser_condition_check(g: MUserGains, a: MUserAllocation):
    """Check that every inter-user link beats the sender's direct link.

    Returns (all_ok, failing_pairs) with 1-based (sender, listener) pairs;
    the comparison is non-strict and reduces to k_user[k][j] >= k_dest[k].
    """
    failing = []
    for k in range(g.m):
        for j in range(g.m):
            if j == k:
                continue
            if g.k_user[k][j] < g.k_dest[k]:
                failing.append((k + 1, j + 1))
    return len(failing) == 0, tuple(failing)
