"""Exact rate regions for small discrete-memoryless half-duplex channels.

Each slot of the block is a separate memoryless channel given as a dense
conditional pmf table; region bounds are computed by direct summation of
the induced joints, so these serve as the oracle layer for the Gaussian
closed forms.  Alphabets are capped (default 4 symbols per variable) to
keep every joint exhaustively enumerable.

Axis conventions
----------------
slot1 : p(y1, y12 | x1)  shape (X1, Y1, Y12)
slot2 : p(y2, y21 | x2)  shape (X2, Y2, Y21)
slot3 : p(y3 | x13, x23) shape (X13, X23, Y3)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import LinearRegion, TimeSlots, ValidationError, _check

PMF_TOL = 1e-12
DEFAULT_MAX_ALPHABET = 4


def _as_table(value, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    _check(arr.ndim == ndim, f"{name} must have {ndim} axes, got {arr.ndim}")
    _check(bool(np.all(np.isfinite(arr))), f"{name} has non-finite entries")
    _check(bool(np.all(arr >= -PMF_TOL)), f"{name} has negative entries")
    arr = np.clip(arr, 0.0, None)
    arr.setflags(write=False)
    return arr


def _check_conditional(arr: np.ndarray, cond_axes: int, name: str) -> None:
    """Each slice over the trailing axes must sum to 1 (cond_axes lead)."""
    sums = arr.sum(axis=tuple(range(cond_axes, arr.ndim)))
    _check(bool(np.all(np.abs(sums - 1.0) <= PMF_TOL)),
           f"{name}: conditional slices must sum to 1 within {PMF_TOL}")


def _check_sizes(arr: np.ndarray, name: str, cap: int) -> None:
    for k, size in enumerate(arr.shape):
        _check(1 <= size <= cap, f"{name} axis {k} has size {size}, cap is {cap}")


@dataclass(frozen=True)
class SlotChannels:
    """The three per-slot channel tables."""

    slot1: np.ndarray
    slot2: np.ndarray
    slot3: np.ndarray
    max_alphabet: int = DEFAULT_MAX_ALPHABET

    def __post_init__(self) -> None:
        s1 = _as_table(self.slot1, "slot1", 3)
        s2 = _as_table(self.slot2, "slot2", 3)
        s3 = _as_table(self.slot3, "slot3", 3)
        for arr, name in ((s1, "slot1"), (s2, "slot2"), (s3, "slot3")):
            _check_sizes(arr, name, self.max_alphabet)
        _check_conditional(s1, 1, "slot1")
        _check_conditional(s2, 1, "slot2")
        _check_conditional(s3, 2, "slot3")
        object.__setattr__(self, "slot1", s1)
        object.__setattr__(self, "slot2", s2)
        object.__setattr__(self, "slot3", s3)

    @property
    def sizes(self):
        return {
            "x1": self.slot1.shape[0], "y1": self.slot1.shape[1], "y12": self.slot1.shape[2],
            "x2": self.slot2.shape[0], "y2": self.slot2.shape[1], "y21": self.slot2.shape[2],
            "x13": self.slot3.shape[0], "x23": self.slot3.shape[1], "y3": self.slot3.shape[2],
        }


@dataclass(frozen=True)
class PdfInputDistribution:
    """Factored inputs p(x10,u) p(x20,v) p(x13|u,v) p(x23|u,v)."""

    pmf_x10_u: np.ndarray        # (X10, U)
    pmf_x20_v: np.ndarray        # (X20, V)
    pmf_x13_given_uv: np.ndarray  # (U, V, X13)
    pmf_x23_given_uv: np.ndarray  # (U, V, X23)

    def __post_init__(self) -> None:
        a = _as_table(self.pmf_x10_u, "pmf_x10_u", 2)
        b = _as_table(self.pmf_x20_v, "pmf_x20_v", 2)
        c = _as_table(self.pmf_x13_given_uv, "pmf_x13_given_uv", 3)
        d = _as_table(self.pmf_x23_given_uv, "pmf_x23_given_uv", 3)
        _check(abs(a.sum() - 1.0) <= PMF_TOL, "pmf_x10_u must sum to 1")
        _check(abs(b.sum() - 1.0) <= PMF_TOL, "pmf_x20_v must sum to 1")
        _check_conditional(c, 2, "pmf_x13_given_uv")
        _check_conditional(d, 2, "pmf_x23_given_uv")
        _check(c.shape[0] == a.shape[1] and c.shape[1] == b.shape[1],
               "pmf_x13_given_uv conditioning axes must match (U, V)")
        _check(d.shape[0] == a.shape[1] and d.shape[1] == b.shape[1],
               "pmf_x23_given_uv conditioning axes must match (U, V)")
        for arr, name in ((a, "pmf_x10_u"), (b, "pmf_x20_v"),
                          (c, "pmf_x13_given_uv"), (d, "pmf_x23_given_uv")):
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class DfInputDistribution:
    """Factored inputs p(x12) p(x21) p(s) p(x13|s) p(x23|s)."""

    pmf_x12: np.ndarray
    pmf_x21: np.ndarray
    pmf_s: np.ndarray
    pmf_x13_given_s: np.ndarray  # (S, X13)
    pmf_x23_given_s: np.ndarray  # (S, X23)

    def __post_init__(self) -> None:
        a = _as_table(self.pmf_x12, "pmf_x12", 1)
        b = _as_table(self.pmf_x21, "pmf_x21", 1)
        s = _as_table(self.pmf_s, "pmf_s", 1)
        c = _as_table(self.pmf_x13_given_s, "pmf_x13_given_s", 2)
        d = _as_table(self.pmf_x23_given_s, "pmf_x23_given_s", 2)
        for arr, name in ((a, "pmf_x12"), (b, "pmf_x21"), (s, "pmf_s")):
            _check(abs(arr.sum() - 1.0) <= PMF_TOL, f"{name} must sum to 1")
        _check_conditional(c, 1, "pmf_x13_given_s")
        _check_conditional(d, 1, "pmf_x23_given_s")
        _check(c.shape[0] == s.shape[0] and d.shape[0] == s.shape[0],
               "slot-3 conditionals must share the S alphabet")
        for arr, name in ((a, "pmf_x12"), (b, "pmf_x21"), (s, "pmf_s"),
                          (c, "pmf_x13_given_s"), (d, "pmf_x23_given_s")):
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class OuterInputDistribution:
    """Outer-bound inputs p(x10,u) p(x20,v) p(x13|u,v,x10) p(x23|u,v,x20)."""

    pmf_x10_u: np.ndarray            # (X10, U)
    pmf_x20_v: np.ndarray            # (X20, V)
    pmf_x13_given_uvx10: np.ndarray  # (U, V, X10, X13)
    pmf_x23_given_uvx20: np.ndarray  # (U, V, X20, X23)

    def __post_init__(self) -> None:
        a = _as_table(self.pmf_x10_u, "pmf_x10_u", 2)
        b = _as_table(self.pmf_x20_v, "pmf_x20_v", 2)
        c = _as_table(self.pmf_x13_given_uvx10, "pmf_x13_given_uvx10", 4)
        d = _as_table(self.pmf_x23_given_uvx20, "pmf_x23_given_uvx20", 4)
        _check(abs(a.sum() - 1.0) <= PMF_TOL, "pmf_x10_u must sum to 1")
        _check(abs(b.sum() - 1.0) <= PMF_TOL, "pmf_x20_v must sum to 1")
        _check_conditional(c, 3, "pmf_x13_given_uvx10")
        _check_conditional(d, 3, "pmf_x23_given_uvx20")
        _check(c.shape[0] == a.shape[1] and c.shape[1] == b.shape[1]
               and c.shape[2] == a.shape[0],
               "pmf_x13_given_uvx10 conditioning axes must match (U, V, X10)")
        _check(d.shape[0] == a.shape[1] and d.shape[1] == b.shape[1]
               and d.shape[2] == b.shape[0],
               "pmf_x23_given_uvx20 conditioning axes must match (U, V, X20)")
        for arr, name in ((a, "pmf_x10_u"), (b, "pmf_x20_v"),
                          (c, "pmf_x13_given_uvx10"), (d, "pmf_x23_given_uvx20")):
            object.__setattr__(self, name, arr)


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def _entropy_bits(p: np.ndarray) -> float:
    q = p[p > 0.0]
    if q.size == 0:
        return 0.0
    return float(-(q * np.log2(q)).sum())


def _marginal(joint: np.ndarray, keep: Tuple[int, ...]) -> np.ndarray:
    drop = tuple(ax for ax in range(joint.ndim) if ax not in keep)
    return joint.sum(axis=drop) if drop else joint


def _mi(joint: np.ndarray, a_axes: Tuple[int, ...], b_axes: Tuple[int, ...],
        c_axes: Tuple[int, ...] = ()) -> float:
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C), all in bits."""
    hac = _entropy_bits(_marginal(joint, tuple(sorted(a_axes + c_axes))))
    hbc = _entropy_bits(_marginal(joint, tuple(sorted(b_axes + c_axes))))
    habc = _entropy_bits(_marginal(joint, tuple(sorted(a_axes + b_axes + c_axes))))
    hc = _entropy_bits(_marginal(joint, tuple(sorted(c_axes)))) if c_axes else 0.0
    return max(0.0, hac + hbc - habc - hc)


def _axes(spec, name: str) -> Tuple[int, ...]:
    if isinstance(spec, int):
        return (spec,)
    out = tuple(int(a) for a in spec)
    _check(len(out) == len(set(out)), f"{name} axes must be distinct")
    return out


def mutual_information(joint, a_axes, b_axes, c_axes=()) -> float:
    """Conditional mutual information I(A;B|C) of a joint pmf array, in bits.

    a_axes, b_axes and c_axes name disjoint axis groups of ``joint``;
    0*log 0 contributes zero.  The joint must be normalized.
    """
    arr = np.asarray(joint, dtype=float)
    _check(bool(np.all(np.isfinite(arr))) and bool(np.all(arr >= -PMF_TOL)),
           "mutual_information: joint must be finite and nonnegative")
    arr = np.clip(arr, 0.0, None)
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"mutual_information: joint sums to {total!r}, not 1")
    a = _axes(a_axes, "a_axes")
    b = _axes(b_axes, "b_axes")
    c = _axes(c_axes, "c_axes")
    groups = a + b + c
    _check(len(groups) == len(set(groups)), "axis groups must be disjoint")
    for ax in groups:
        _check(0 <= ax < arr.ndim, f"axis {ax} out of range for ndim {arr.ndim}")
    return _mi(arr, a, b, c)


# ---------------------------------------------------------------------------
# induced joints
# ---------------------------------------------------------------------------

def _slot1_joint(ch: SlotChannels, pmf_x1_u: np.ndarray) -> np.ndarray:
    """(x1, u, y1, y12) joint for slot 1; also used for slot-1 DF inputs."""
    _check(pmf_x1_u.shape[0] == ch.slot1.shape[0],
           "slot-1 input alphabet does not match the channel table")
    return np.einsum("xu,xab->xuab", pmf_x1_u, ch.slot1)


def _slot2_joint(ch: SlotChannels, pmf_x2_v: np.ndarray) -> np.ndarray:
    _check(pmf_x2_v.shape[0] == ch.slot2.shape[0],
           "slot-2 input alphabet does not match the channel table")
    return np.einsum("xv,xab->xvab", pmf_x2_v, ch.slot2)


def _slot3_joint_uv(ch: SlotChannels, p_u, p_v, p13_uv, p23_uv) -> np.ndarray:
    """(u, v, x13, x23, y3) joint under the factored slot-3 inputs."""
    _check(p13_uv.shape[2] == ch.slot3.shape[0] and p23_uv.shape[2] == ch.slot3.shape[1],
           "slot-3 input alphabets do not match the channel table")
    return np.einsum("u,v,uvx,uvy,xyz->uvxyz", p_u, p_v, p13_uv, p23_uv, ch.slot3)


def _joints(ch: SlotChannels, pmf_x10_u, pmf_x20_v, p13_uv, p23_uv):
    """Slot-1, slot-2 and slot-3 joints of the inputs p(x10,u) p(x20,v)
    p(x13|u,v) p(x23|u,v)."""
    j1 = _slot1_joint(ch, pmf_x10_u)
    j2 = _slot2_joint(ch, pmf_x20_v)
    j3 = _slot3_joint_uv(ch, pmf_x10_u.sum(axis=0), pmf_x20_v.sum(axis=0), p13_uv, p23_uv)
    return j1, j2, j3


def _slot3_terms(j3: np.ndarray, a3: float):
    """a3 times the slot-3 terms (X13, X23, UV, U, V, unconditioned) of a
    (u, v, x13, x23, y3) joint; all zero for an empty slot."""
    if a3 <= 0.0:
        return (0.0,) * 6
    return (a3 * _mi(j3, (2,), (4,), (0, 1, 3)),
            a3 * _mi(j3, (3,), (4,), (0, 1, 2)),
            a3 * _mi(j3, (2, 3), (4,), (0, 1)),
            a3 * _mi(j3, (2, 3), (4,), (0,)),
            a3 * _mi(j3, (2, 3), (4,), (1,)),
            a3 * _mi(j3, (2, 3), (4,)))


# ---------------------------------------------------------------------------
# rate regions
# ---------------------------------------------------------------------------

def pdf_joint_region(ch: SlotChannels, dist: PdfInputDistribution,
                     slots: TimeSlots) -> LinearRegion:
    """Superposition scheme, joint decoding at the destination."""
    a1, a2 = slots.a1, slots.a2
    j1, j2, j3 = _joints(ch, dist.pmf_x10_u, dist.pmf_x20_v,
                         dist.pmf_x13_given_uv, dist.pmf_x23_given_uv)

    i_x10_y12 = a1 * _mi(j1, (0,), (3,)) if a1 > 0.0 else 0.0
    i_x10_y1 = a1 * _mi(j1, (0,), (2,)) if a1 > 0.0 else 0.0
    i_x20_y21 = a2 * _mi(j2, (0,), (3,)) if a2 > 0.0 else 0.0
    i_x20_y2 = a2 * _mi(j2, (0,), (2,)) if a2 > 0.0 else 0.0

    t_x13, t_x23, t_uv, t_u, t_v, t_all = _slot3_terms(j3, slots.a3)

    r1 = i_x10_y12 + t_x13
    r2 = i_x20_y21 + t_x23
    s1 = i_x10_y12 + i_x20_y21 + t_uv
    s2 = i_x10_y1 + i_x20_y21 + t_v
    s3 = i_x10_y12 + i_x20_y2 + t_u
    s4 = i_x10_y1 + i_x20_y2 + t_all
    return LinearRegion((r1,), (r2,), (s1, s2, s3, s4))


def pdf_separate_region(ch: SlotChannels, dist: PdfInputDistribution,
                        slots: TimeSlots) -> LinearRegion:
    """Superposition scheme, slot-by-slot decoding at the destination."""
    a1, a2 = slots.a1, slots.a2
    j1, j2, j3 = _joints(ch, dist.pmf_x10_u, dist.pmf_x20_v,
                         dist.pmf_x13_given_uv, dist.pmf_x23_given_uv)

    i_x10_y12 = a1 * _mi(j1, (0,), (3,)) if a1 > 0.0 else 0.0
    i_x20_y21 = a2 * _mi(j2, (0,), (3,)) if a2 > 0.0 else 0.0
    m1 = a1 * min(_mi(j1, (0,), (3,), (1,)), _mi(j1, (0,), (2,), (1,))) if a1 > 0.0 else 0.0
    m2 = a2 * min(_mi(j2, (0,), (3,), (1,)), _mi(j2, (0,), (2,), (1,))) if a2 > 0.0 else 0.0

    t_x13, t_x23, t_uv, t_u, t_v, t_all = _slot3_terms(j3, slots.a3)

    r1 = i_x10_y12 + t_x13
    r2 = i_x20_y21 + t_x23
    s1 = i_x10_y12 + i_x20_y21 + t_uv
    s2 = m1 + i_x20_y21 + t_v
    s3 = i_x10_y12 + m2 + t_u
    s4 = m1 + m2 + t_all
    return LinearRegion((r1,), (r2,), (s1, s2, s3, s4))


def df_region(ch: SlotChannels, dist: DfInputDistribution,
              slots: TimeSlots) -> LinearRegion:
    """Decode-forward scheme with independent per-slot codewords."""
    a1, a2, a3 = slots.a1, slots.a2, slots.a3
    j1 = np.einsum("x,xab->xab", dist.pmf_x12, ch.slot1)
    _check(dist.pmf_x12.shape[0] == ch.slot1.shape[0],
           "slot-1 input alphabet does not match the channel table")
    j2 = np.einsum("x,xab->xab", dist.pmf_x21, ch.slot2)
    j3 = np.einsum("s,sx,sy,xyz->sxyz", dist.pmf_s, dist.pmf_x13_given_s,
                   dist.pmf_x23_given_s, ch.slot3)

    i_x12_y12 = a1 * _mi(j1, (0,), (2,)) if a1 > 0.0 else 0.0
    i_x12_y1 = a1 * _mi(j1, (0,), (1,)) if a1 > 0.0 else 0.0
    i_x21_y21 = a2 * _mi(j2, (0,), (2,)) if a2 > 0.0 else 0.0
    i_x21_y2 = a2 * _mi(j2, (0,), (1,)) if a2 > 0.0 else 0.0

    if a3 > 0.0:
        t_x13 = a3 * _mi(j3, (1,), (3,), (0, 2))
        t_x23 = a3 * _mi(j3, (2,), (3,), (0, 1))
        t_s = a3 * _mi(j3, (1, 2), (3,), (0,))
        t_all = a3 * _mi(j3, (1, 2), (3,))
    else:
        t_x13 = t_x23 = t_s = t_all = 0.0

    r1 = i_x12_y12 + t_x13
    r2 = i_x21_y21 + t_x23
    s1 = i_x12_y12 + i_x21_y21 + t_s
    s2 = i_x12_y1 + i_x21_y21 + t_all
    s3 = i_x12_y12 + i_x21_y2 + t_all
    s4 = i_x12_y1 + i_x21_y2 + t_all
    return LinearRegion((r1,), (r2,), (s1, s2, s3, s4))


def outer_region(variant: str, ch: SlotChannels, dist: OuterInputDistribution,
                 slots: TimeSlots) -> LinearRegion:
    """Outer bounds with joint-output slot-1/2 terms.

    variant "pdf" keeps all six caps; variant "df" identifies the slot-1/2
    inputs and S = (U, V), under which the two middle sum caps are redundant
    and only four caps remain.
    """
    _check(variant in ("pdf", "df"), f"unknown outer variant {variant!r}")
    a1, a2 = slots.a1, slots.a2
    p_u = dist.pmf_x10_u.sum(axis=0)
    p_v = dist.pmf_x20_v.sum(axis=0)
    # p(u, v, x13, x23) marginalizes the slot-1/2 inputs out of the
    # extended conditionals
    p_x10_given_u = dist.pmf_x10_u / np.where(p_u > 0.0, p_u, 1.0)[None, :]
    p_x20_given_v = dist.pmf_x20_v / np.where(p_v > 0.0, p_v, 1.0)[None, :]
    p13_uv = np.einsum("xu,uvxa->uva", p_x10_given_u, dist.pmf_x13_given_uvx10)
    p23_uv = np.einsum("xv,uvxa->uva", p_x20_given_v, dist.pmf_x23_given_uvx20)
    j1, j2, j3 = _joints(ch, dist.pmf_x10_u, dist.pmf_x20_v, p13_uv, p23_uv)

    i_joint1 = a1 * _mi(j1, (0,), (2, 3)) if a1 > 0.0 else 0.0
    i_y1 = a1 * _mi(j1, (0,), (2,)) if a1 > 0.0 else 0.0
    i_joint2 = a2 * _mi(j2, (0,), (2, 3)) if a2 > 0.0 else 0.0
    i_y2 = a2 * _mi(j2, (0,), (2,)) if a2 > 0.0 else 0.0

    t_x13, t_x23, t_uv, t_u, t_v, t_all = _slot3_terms(j3, slots.a3)

    r1 = i_joint1 + t_x13
    r2 = i_joint2 + t_x23
    s1 = i_joint1 + i_joint2 + t_uv
    s4 = i_y1 + i_y2 + t_all
    if variant == "df":
        return LinearRegion((r1,), (r2,), (s1, s4))
    s2 = i_y1 + i_joint2 + t_v
    s3 = i_joint1 + i_y2 + t_u
    return LinearRegion((r1,), (r2,), (s1, s2, s3, s4))


def extend_pdf_to_outer(dist: PdfInputDistribution) -> OuterInputDistribution:
    """Embed factored superposition inputs in the outer bound's input class
    (slot-3 conditionals independent of the slot-1/2 inputs)."""
    nu = dist.pmf_x10_u.shape[1]
    nv = dist.pmf_x20_v.shape[1]
    nx10 = dist.pmf_x10_u.shape[0]
    nx20 = dist.pmf_x20_v.shape[0]
    p13 = np.broadcast_to(dist.pmf_x13_given_uv[:, :, None, :],
                          (nu, nv, nx10, dist.pmf_x13_given_uv.shape[2])).copy()
    p23 = np.broadcast_to(dist.pmf_x23_given_uv[:, :, None, :],
                          (nu, nv, nx20, dist.pmf_x23_given_uv.shape[2])).copy()
    return OuterInputDistribution(dist.pmf_x10_u, dist.pmf_x20_v, p13, p23)
