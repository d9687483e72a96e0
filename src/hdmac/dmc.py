"""Exact rate regions for small discrete-memoryless half-duplex channels.

Each slot of the block is a separate memoryless channel given as a dense
conditional pmf table; region bounds are computed by direct summation of
the induced joints, so these serve as the oracle layer for the Gaussian
closed forms.  That is why this module shares no code with ``gaussian``:
an oracle that reused the closed forms' composition would repeat their
mistakes, and the Gaussian kernels are written for closed-form terms and
the optimizer's recorded tables, not for pmf tables.  Alphabets are capped at
MAX_ALPHABET symbols per variable to keep every joint exhaustively
enumerable.

Three single sources hold the module together:

- ``_validate`` checks every table record (`SlotChannels` and the three
  input distributions) from its fields' axis tags: the axes, which of them
  are conditioning axes, the alphabet cap, shared alphabets within the
  record and normalization.
- ``_slot12_joint`` and ``_slot3_joint`` build every induced joint and
  check the input alphabets against the channel tables.
- ``_caps`` states the paper's constraint shape once.  With A the slot-1/2
  term a region credits cooperation with, D the term the destination
  decodes directly, and slot-3 terms X13, X23 and (X13, X23) conditioned
  on what the destination already knows:
  R1 <= A1 + X13, R2 <= A2 + X23, and the sums A1 + A2 + UV,
  D1 + A2 + V, A1 + D2 + U and D1 + D2 + (unconditioned).

Axis conventions
----------------
slot1 : p(y1, y12 | x1)  shape (X1, Y1, Y12)
slot2 : p(y2, y21 | x2)  shape (X2, Y2, Y21)
slot3 : p(y3 | x13, x23) shape (X13, X23, Y3)
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from typing import Tuple

import numpy as np

from .core import LinearRegion, TimeSlots, ValidationError, _check

PMF_TOL = 1e-12
MAX_ALPHABET = 4


def _pmf(axes: str, given: str = ""):
    """A table field p(axes | given), stored with the given axes leading;
    ``dims`` names every axis in storage order."""
    cond = tuple(given.split())
    return field(metadata={"dims": cond + tuple(axes.split()), "given": len(cond)})


def _validate(record) -> None:
    """Check and freeze every table of a record against its fields' tags."""
    sizes = {}
    for f in fields(record):
        name, dims, given = f.name, f.metadata["dims"], f.metadata["given"]
        try:
            arr = np.asarray(getattr(record, name), dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"{name} must be a rectangular array of numbers") from None
        _check(arr.ndim == len(dims), f"{name} must have {len(dims)} axes, got {arr.ndim}")
        _check(bool(np.all(np.isfinite(arr))), f"{name} has non-finite entries")
        _check(bool(np.all(arr >= -PMF_TOL)), f"{name} has negative entries")
        for dim, size in zip(dims, arr.shape):
            _check(1 <= size <= MAX_ALPHABET,
                   f"{name} axis {dim} has size {size}, cap is {MAX_ALPHABET}")
            first, known = sizes.setdefault(dim, (name, size))
            _check(size == known, f"{name} axis {dim} has size {size}, {first} gives {known}")
        arr = np.clip(arr, 0.0, None)
        sums = arr.sum(axis=tuple(range(given, arr.ndim)))
        _check(bool(np.all(np.abs(sums - 1.0) <= PMF_TOL)),
               f"{name}: conditional slices must sum to 1 within {PMF_TOL}")
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)


@dataclass(frozen=True)
class SlotChannels:
    """The three per-slot channel tables."""

    slot1: np.ndarray = _pmf("y1 y12", given="x10")
    slot2: np.ndarray = _pmf("y2 y21", given="x20")
    slot3: np.ndarray = _pmf("y3", given="x13 x23")
    __post_init__ = _validate


@dataclass(frozen=True)
class PdfInputDistribution:
    """Factored inputs p(x10,u) p(x20,v) p(x13|u,v) p(x23|u,v)."""

    pmf_x10_u: np.ndarray = _pmf("x10 u")
    pmf_x20_v: np.ndarray = _pmf("x20 v")
    pmf_x13_given_uv: np.ndarray = _pmf("x13", given="u v")
    pmf_x23_given_uv: np.ndarray = _pmf("x23", given="u v")
    __post_init__ = _validate


@dataclass(frozen=True)
class DfInputDistribution:
    """Factored inputs p(x12) p(x21) p(s) p(x13|s) p(x23|s)."""

    pmf_x12: np.ndarray = _pmf("x12")
    pmf_x21: np.ndarray = _pmf("x21")
    pmf_s: np.ndarray = _pmf("s")
    pmf_x13_given_s: np.ndarray = _pmf("x13", given="s")
    pmf_x23_given_s: np.ndarray = _pmf("x23", given="s")
    __post_init__ = _validate


@dataclass(frozen=True)
class OuterInputDistribution:
    """Outer-bound inputs p(x10,u) p(x20,v) p(x13|u,v,x10) p(x23|u,v,x20)."""

    pmf_x10_u: np.ndarray = _pmf("x10 u")
    pmf_x20_v: np.ndarray = _pmf("x20 v")
    pmf_x13_given_uvx10: np.ndarray = _pmf("x13", given="u v x10")
    pmf_x23_given_uvx20: np.ndarray = _pmf("x23", given="u v x20")
    __post_init__ = _validate


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
    """An axis group: one axis or an iterable of axes, each an integer (numpy
    integers included, bool excluded)."""
    group = tuple(spec) if isinstance(spec, Iterable) else (spec,)
    if not all(isinstance(a, numbers.Integral) and not isinstance(a, bool) for a in group):
        raise ValidationError(f"{name} must be integer axes, got {spec!r}")
    out = tuple(int(a) for a in group)
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

def _slot12_joint(slot: int, table: np.ndarray, pmf: np.ndarray) -> np.ndarray:
    """(x, aux..., y, y') joint of inputs p(x, aux...) on a slot-1/2 table."""
    if pmf.shape[0] != table.shape[0]:  # the message is built only on failure
        raise ValidationError(f"slot-{slot} input alphabet does not match the channel table")
    return np.einsum("x...,xab->x...ab", pmf, table)


def _slot3_joint(table: np.ndarray, p_aux: np.ndarray, p13: np.ndarray,
                 p23: np.ndarray) -> np.ndarray:
    """(aux..., x13, x23, y3) joint of inputs p(aux) p(x13|aux) p(x23|aux)."""
    _check(p13.shape[-1] == table.shape[0] and p23.shape[-1] == table.shape[1],
           "slot-3 input alphabets do not match the channel table")
    return np.einsum("...,...x,...y,xyz->...xyz", p_aux, p13, p23, table)


def _joints(ch: SlotChannels, pmf_x1, pmf_x2, p_aux, p13, p23):
    return (_slot12_joint(1, ch.slot1, pmf_x1), _slot12_joint(2, ch.slot2, pmf_x2),
            _slot3_joint(ch.slot3, p_aux, p13, p23))


def _uv_joints(ch: SlotChannels, pmf_x10_u, pmf_x20_v, p13_uv, p23_uv):
    """Joints of the inputs p(x10,u) p(x20,v) p(x13|u,v) p(x23|u,v)."""
    p_uv = pmf_x10_u.sum(axis=0)[:, None] * pmf_x20_v.sum(axis=0)[None, :]
    return _joints(ch, pmf_x10_u, pmf_x20_v, p_uv, p13_uv, p23_uv)


# ---------------------------------------------------------------------------
# slot-1/2 terms of a (x, aux..., y, y') joint
# ---------------------------------------------------------------------------

def _partner(j: np.ndarray) -> float:
    """I(X; Y'): what the other user decodes."""
    return _mi(j, (0,), (j.ndim - 1,))


def _destination(j: np.ndarray) -> float:
    """I(X; Y): what the destination decodes on its own."""
    return _mi(j, (0,), (j.ndim - 2,))


def _both_outputs(j: np.ndarray) -> float:
    """I(X; Y, Y'): both outputs pooled, as a cut-set bound allows."""
    return _mi(j, (0,), (j.ndim - 2, j.ndim - 1))


def _private(j: np.ndarray) -> float:
    """min(I(X; Y'|U), I(X; Y|U)) of a (x, u, y, y') joint: the private part
    that both the other user and the destination decode."""
    return min(_mi(j, (0,), (3,), (1,)), _mi(j, (0,), (2,), (1,)))


# ---------------------------------------------------------------------------
# rate regions
# ---------------------------------------------------------------------------

def _caps(slots: TimeSlots, joints, coop, direct, u=(0,), v=(1,),
          middle: bool = True) -> LinearRegion:
    """The constraint shape every region shares.

    ``coop`` and ``direct`` give a slot-1/2 joint's terms A and D; the
    slot-3 joint's leading axes are what the destination knows once both
    cooperative messages are decoded, ``u`` (``v``) what it knows from user
    1's (user 2's) alone.  ``middle=False`` drops the two middle sum caps.
    Only the slot-3 terms a kept cap uses are computed, each once.
    """
    j1, j2, j3 = joints
    a1 = d1 = a2 = d2 = 0.0
    if slots.a1 > 0.0:
        a1, d1 = slots.a1 * coop(j1), slots.a1 * direct(j1)
    if slots.a2 > 0.0:
        a2, d2 = slots.a2 * coop(j2), slots.a2 * direct(j2)
    a3 = slots.a3
    n = j3.ndim
    x13, x23, y3 = n - 3, n - 2, n - 1
    aux = tuple(range(n - 3))

    def term(inputs, known) -> float:
        return a3 * _mi(j3, inputs, (y3,), known) if a3 > 0.0 else 0.0

    sums = [(a1, a2, aux), (d1, a2, v), (a1, d2, u), (d1, d2, ())]
    if not middle:
        sums = [sums[0], sums[3]]
    joint_terms = {}
    for _, _, known in sums:
        if known not in joint_terms:
            joint_terms[known] = term((x13, x23), known)
    return LinearRegion((a1 + term((x13,), aux + (x23,)),),
                        (a2 + term((x23,), aux + (x13,)),),
                        tuple(b1 + b2 + joint_terms[known] for b1, b2, known in sums))


def pdf_joint_region(ch: SlotChannels, dist: PdfInputDistribution,
                     slots: TimeSlots) -> LinearRegion:
    """Superposition scheme, joint decoding at the destination."""
    joints = _uv_joints(ch, dist.pmf_x10_u, dist.pmf_x20_v,
                        dist.pmf_x13_given_uv, dist.pmf_x23_given_uv)
    return _caps(slots, joints, _partner, _destination)


def pdf_separate_region(ch: SlotChannels, dist: PdfInputDistribution,
                        slots: TimeSlots) -> LinearRegion:
    """Superposition scheme, slot-by-slot decoding at the destination."""
    joints = _uv_joints(ch, dist.pmf_x10_u, dist.pmf_x20_v,
                        dist.pmf_x13_given_uv, dist.pmf_x23_given_uv)
    return _caps(slots, joints, _partner, _private)


def df_region(ch: SlotChannels, dist: DfInputDistribution,
              slots: TimeSlots) -> LinearRegion:
    """Decode-forward scheme with independent per-slot codewords.

    S is common to both users, so one user's cooperative message alone
    tells the destination nothing about slot 3.
    """
    joints = _joints(ch, dist.pmf_x12, dist.pmf_x21, dist.pmf_s,
                     dist.pmf_x13_given_s, dist.pmf_x23_given_s)
    return _caps(slots, joints, _partner, _destination, u=(), v=())


def outer_region(variant: str, ch: SlotChannels, dist: OuterInputDistribution,
                 slots: TimeSlots) -> LinearRegion:
    """Outer bounds with joint-output slot-1/2 terms.

    variant "pdf" keeps all six caps; variant "df" identifies the slot-1/2
    inputs and S = (U, V), under which the two middle sum caps are redundant
    and only four caps remain.
    """
    _check(variant in ("pdf", "df"), f"unknown outer variant {variant!r}")
    p_u = dist.pmf_x10_u.sum(axis=0)
    p_v = dist.pmf_x20_v.sum(axis=0)
    # p(u, v, x13, x23) marginalizes the slot-1/2 inputs out of the
    # extended conditionals
    p_x10_given_u = dist.pmf_x10_u / np.where(p_u > 0.0, p_u, 1.0)[None, :]
    p_x20_given_v = dist.pmf_x20_v / np.where(p_v > 0.0, p_v, 1.0)[None, :]
    p13_uv = np.einsum("xu,uvxa->uva", p_x10_given_u, dist.pmf_x13_given_uvx10)
    p23_uv = np.einsum("xv,uvxa->uva", p_x20_given_v, dist.pmf_x23_given_uvx20)
    joints = _uv_joints(ch, dist.pmf_x10_u, dist.pmf_x20_v, p13_uv, p23_uv)
    return _caps(slots, joints, _both_outputs, _destination, middle=variant == "pdf")


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
