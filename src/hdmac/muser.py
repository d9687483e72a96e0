"""Gaussian m-user half-duplex cooperative MAC: achievable and outer constraints.

Each of the first m slots carries one user's cooperative transmission; in the
last slot every user sends a private stream plus a share of one common
coherent symbol.  Constraints are enumerated over all user subsets (m is
capped so the 2^m enumeration stays trivial).

Signal construction in the last slot, by direct generalization of the
two-user decode-forward scheme: user k sends
sqrt(p_priv[k]) * X_k + sqrt(p_coop[k]) * S with all components independent
unit-variance Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .core import POWER_TOL, ValidationError, _check, _finite, c_gauss

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
        _check(_finite(v) and v >= 0.0, f"{name} entries must be finite and >= 0, got {v!r}")
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
    a_last = a.slots[g.m]
    for k in range(g.m):
        used = a.slots[k] * a.p_solo[k] + a_last * (a.p_priv[k] + a.p_coop[k])
        _check(abs(used - b[k]) <= POWER_TOL,
               f"user {k + 1} power identity violated: uses {used!r}, budget {b[k]!r}")
    return b


def power_used(g: MUserGains, a: MUserAllocation) -> Tuple[float, ...]:
    """Average power spent by each user."""
    a_last = a.slots[g.m]
    return tuple(a.slots[k] * a.p_solo[k] + a_last * (a.p_priv[k] + a.p_coop[k])
                 for k in range(g.m))


def _solo_min_term(g: MUserGains, a: MUserAllocation, k: int) -> float:
    """alpha_k * min_j C(k_user[k][j]^2 p_solo[k] / N): the weakest listener."""
    alpha = a.slots[k]
    if alpha <= 0.0:
        return 0.0
    gmin = min(g.k_user[k][j] for j in range(g.m) if j != k)
    return alpha * c_gauss(gmin * gmin * a.p_solo[k] / g.noise)


def _solo_joint_term(g: MUserGains, a: MUserAllocation, k: int) -> float:
    """Outer-bound replacement: destination and all listeners observed jointly."""
    alpha = a.slots[k]
    if alpha <= 0.0:
        return 0.0
    tot = g.k_dest[k] ** 2 + sum(g.k_user[k][j] ** 2 for j in range(g.m) if j != k)
    return alpha * c_gauss(tot * a.p_solo[k] / g.noise)


def _solo_direct_term(g: MUserGains, a: MUserAllocation, k: int) -> float:
    alpha = a.slots[k]
    if alpha <= 0.0:
        return 0.0
    return alpha * c_gauss(g.k_dest[k] ** 2 * a.p_solo[k] / g.noise)


def _last_subset_term(g: MUserGains, a: MUserAllocation, subset: Tuple[int, ...]) -> float:
    alpha = a.slots[g.m]
    if alpha <= 0.0:
        return 0.0
    snr = sum(g.k_dest[k] ** 2 * a.p_priv[k] for k in subset) / g.noise
    return alpha * c_gauss(snr)


def _last_total_term(g: MUserGains, a: MUserAllocation) -> float:
    alpha = a.slots[g.m]
    if alpha <= 0.0:
        return 0.0
    coherent = sum(g.k_dest[k] * math.sqrt(a.p_coop[k]) for k in range(g.m)) ** 2
    snr = (sum(g.k_dest[k] ** 2 * a.p_priv[k] for k in range(g.m)) + coherent) / g.noise
    return alpha * c_gauss(snr)


def _subsets(m: int):
    for mask in range(1 << m):
        yield tuple(k for k in range(m) if mask & (1 << k))


Constraint = Tuple[Tuple[str, Tuple[int, ...]], float]


def _constraints(g: MUserGains, a: MUserAllocation, budgets: Sequence[float],
                 solo_term) -> List[Constraint]:
    _validate_instance(g, a, budgets)
    out: List[Constraint] = []
    users = tuple(range(g.m))
    for subset in _subsets(g.m):
        if not subset:
            continue
        bound = sum(solo_term(g, a, k) for k in subset) + _last_subset_term(g, a, subset)
        out.append((("subset", tuple(k + 1 for k in subset)), bound))
    total_last = _last_total_term(g, a)
    for lam in _subsets(g.m):
        comp = tuple(k for k in users if k not in lam)
        bound = (sum(solo_term(g, a, k) for k in lam)
                 + sum(_solo_direct_term(g, a, k) for k in comp)
                 + total_last)
        out.append((("total", tuple(k + 1 for k in lam)), bound))
    return out


def muser_achievable_constraints(g: MUserGains, a: MUserAllocation,
                                 budgets: Sequence[float]) -> List[Constraint]:
    """All rate constraints of the m-user decode-forward scheme.

    Returns (descriptor, bound) pairs: ("subset", T) caps sum_{k in T} R_k;
    ("total", Lambda) caps the total sum rate with the users in Lambda
    credited their weakest inter-user link and the rest their direct link.
    Users are numbered from 1 in descriptors.
    """
    return _constraints(g, a, budgets, _solo_min_term)


def muser_outer_constraints(g: MUserGains, a: MUserAllocation,
                            budgets: Sequence[float]) -> List[Constraint]:
    """Outer-bound constraints: weakest-listener terms replaced by
    joint-observation terms over the destination and all listeners."""
    return _constraints(g, a, budgets, _solo_joint_term)


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
