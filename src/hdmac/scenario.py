"""Scenario files: a single human-editable YAML document per experiment.

Unknown keys are rejected and every numeric field is range-checked; errors
name the offending field.  parse/serialize round-trip to an identical
Scenario.  The grammar is documented in the README.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

import yaml

from .core import (
    ChannelGains,
    DfAllocation,
    PdfAllocation,
    PowerBudget,
    TimeSlots,
    ValidationError,
)
from .dmc import (
    DfInputDistribution,
    OuterInputDistribution,
    PdfInputDistribution,
    SlotChannels,
)
from .gaussian import NoiseCorrelation
from .muser import MUserAllocation, MUserGains
from .optimize import SearchConfig


class ScenarioError(ValidationError):
    """Scenario document is malformed or violates an invariant."""


@dataclass(frozen=True)
class DmcSection:
    channels: SlotChannels
    pdf_input: Optional[PdfInputDistribution] = None
    df_input: Optional[DfInputDistribution] = None
    outer_input: Optional[OuterInputDistribution] = None


@dataclass(frozen=True)
class MUserSection:
    gains: MUserGains
    allocation: MUserAllocation
    budgets: Tuple[float, ...]


@dataclass(frozen=True)
class Scenario:
    name: str
    gains: ChannelGains
    budget: PowerBudget
    search: SearchConfig = field(default_factory=SearchConfig)
    slots: Optional[TimeSlots] = None
    pdf_allocation: Optional[PdfAllocation] = None
    df_allocation: Optional[DfAllocation] = None
    rho: Optional[NoiseCorrelation] = None
    separate_literal_p1: bool = False
    sweep: Optional[Tuple[float, ...]] = None
    dmc: Optional[DmcSection] = None
    m_user: Optional[MUserSection] = None


def _expect_map(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(f"{where}: expected a mapping, got {type(node).__name__}")
    return node


def _take(node: dict, where: str, allowed, required=()):
    unknown = set(node) - set(allowed)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in node]
    if missing:
        raise ScenarioError(f"{where}: missing keys {missing}")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _num(node: dict, where: str, key: str, default=None) -> float:
    if key not in node:
        if default is None:
            raise ScenarioError(f"{where}.{key}: missing")
        return default
    v = node[key]
    if not _is_number(v):
        raise ScenarioError(f"{where}.{key}: expected a number, got {v!r}")
    return float(v)


def _numbers(v, where: str) -> list:
    if not isinstance(v, list) or not all(_is_number(x) for x in v):
        raise ScenarioError(f"{where}: expected a list of numbers, got {v!r}")
    return [float(x) for x in v]


def _int(node: dict, where: str, key: str, default: int) -> int:
    v = _num(node, where, key, default)
    if not float(v).is_integer():
        raise ScenarioError(f"{where}.{key}: expected an integer, got {node[key]!r}")
    return int(v)


def _wrap(where: str, build):
    try:
        return build()
    except ScenarioError:
        raise
    except ValidationError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _parse_gains(node, where: str) -> ChannelGains:
    node = _expect_map(node, where)
    _take(node, where, ("k12", "k21", "k10", "k20", "noise"),
          required=("k12", "k21", "k10", "k20", "noise"))
    return _wrap(where, lambda: ChannelGains(
        k12=_num(node, where, "k12"), k21=_num(node, where, "k21"),
        k10=_num(node, where, "k10"), k20=_num(node, where, "k20"),
        noise=_num(node, where, "noise")))


def _parse_budget(node, where: str) -> PowerBudget:
    node = _expect_map(node, where)
    _take(node, where, ("p1", "p2"), required=("p1", "p2"))
    return _wrap(where, lambda: PowerBudget(_num(node, where, "p1"), _num(node, where, "p2")))


def _parse_slots(node, where: str) -> TimeSlots:
    node = _expect_map(node, where)
    _take(node, where, ("a1", "a2", "a3"), required=("a1", "a2"))
    a1 = _num(node, where, "a1")
    a2 = _num(node, where, "a2")
    if "a3" in node:
        return _wrap(where, lambda: TimeSlots(a1, a2, _num(node, where, "a3")))
    return _wrap(where, lambda: TimeSlots.from_first_two(a1, a2))


def _parse_pdf_allocation(node, where: str) -> PdfAllocation:
    node = _expect_map(node, where)
    keys = ("p10", "p20", "pu", "pv", "p13", "p23", "c2", "c3", "d2", "d3")
    _take(node, where, keys, required=keys)
    return _wrap(where, lambda: PdfAllocation(**{k: _num(node, where, k) for k in keys}))


def _parse_df_allocation(node, where: str) -> DfAllocation:
    node = _expect_map(node, where)
    keys = ("p12", "p21", "p13", "p23", "ps1", "ps2")
    _take(node, where, keys, required=keys)
    return _wrap(where, lambda: DfAllocation(**{k: _num(node, where, k) for k in keys}))


def _parse_rho(node, where: str) -> NoiseCorrelation:
    node = _expect_map(node, where)
    _take(node, where, ("rho1", "rho2"), required=("rho1", "rho2"))
    return _wrap(where, lambda: NoiseCorrelation(_num(node, where, "rho1"),
                                                 _num(node, where, "rho2")))


def _parse_search(node, where: str) -> SearchConfig:
    node = _expect_map(node, where)
    _take(node, where, ("slot_grid", "power_grid", "refine_iters", "refine_shrink", "seed"))
    return _wrap(where, lambda: SearchConfig(
        slot_grid=_int(node, where, "slot_grid", 11),
        power_grid=_int(node, where, "power_grid", 9),
        refine_iters=_int(node, where, "refine_iters", 60),
        refine_shrink=_num(node, where, "refine_shrink", 0.7),
        seed=_int(node, where, "seed", 0)))


_DMC_TABLE_DIMS = {
    "slot1": ("x10", "y1", "y12"),
    "slot2": ("x20", "y2", "y21"),
    "slot3": ("x13", "x23", "y3"),
    "pmf_x10_u": ("x10", "u"),
    "pmf_x20_v": ("x20", "v"),
    "pmf_x13_given_uv": ("u", "v", "x13"),
    "pmf_x23_given_uv": ("u", "v", "x23"),
    "pmf_x12": ("x12",),
    "pmf_x21": ("x21",),
    "pmf_s": ("s",),
    "pmf_x13_given_s": ("s", "x13"),
    "pmf_x23_given_s": ("s", "x23"),
    "pmf_x13_given_uvx10": ("u", "v", "x10", "x13"),
    "pmf_x23_given_uvx20": ("u", "v", "x20", "x23"),
}


def _parse_table(node, where: str, name: str):
    node = _expect_map(node, where)
    _take(node, where, ("dims", "table"), required=("dims", "table"))
    dims = node["dims"]
    expected = list(_DMC_TABLE_DIMS[name])
    if list(dims) != expected:
        raise ScenarioError(f"{where}.dims: expected {expected}, got {dims!r}")
    return node["table"]


def _parse_dmc(node, where: str) -> DmcSection:
    node = _expect_map(node, where)
    _take(node, where, ("slot1", "slot2", "slot3", "pdf_input", "df_input", "outer_input"),
          required=("slot1", "slot2", "slot3"))
    channels = _wrap(where, lambda: SlotChannels(
        _parse_table(node["slot1"], f"{where}.slot1", "slot1"),
        _parse_table(node["slot2"], f"{where}.slot2", "slot2"),
        _parse_table(node["slot3"], f"{where}.slot3", "slot3")))

    def sub(section, keys, builder):
        if section not in node:
            return None
        sec = _expect_map(node[section], f"{where}.{section}")
        _take(sec, f"{where}.{section}", keys, required=keys)
        tables = [_parse_table(sec[k], f"{where}.{section}.{k}", k) for k in keys]
        return _wrap(f"{where}.{section}", lambda: builder(*tables))

    pdf_input = sub("pdf_input",
                    ("pmf_x10_u", "pmf_x20_v", "pmf_x13_given_uv", "pmf_x23_given_uv"),
                    PdfInputDistribution)
    df_input = sub("df_input",
                   ("pmf_x12", "pmf_x21", "pmf_s", "pmf_x13_given_s", "pmf_x23_given_s"),
                   DfInputDistribution)
    outer_input = sub("outer_input",
                      ("pmf_x10_u", "pmf_x20_v", "pmf_x13_given_uvx10", "pmf_x23_given_uvx20"),
                      OuterInputDistribution)
    return DmcSection(channels, pdf_input, df_input, outer_input)


def _parse_m_user(node, where: str) -> MUserSection:
    node = _expect_map(node, where)
    keys = ("m", "k_user", "k_dest", "noise", "budgets", "slots", "p_solo", "p_priv", "p_coop")
    _take(node, where, keys, required=keys)
    m = node["m"]
    if not isinstance(m, int) or isinstance(m, bool):
        raise ScenarioError(f"{where}.m: expected an integer, got {m!r}")
    k_user = node["k_user"]
    if not isinstance(k_user, list):
        raise ScenarioError(f"{where}.k_user: expected a list of lists of numbers, got {k_user!r}")
    lists = {key: _numbers(node[key], f"{where}.{key}")
             for key in ("k_dest", "budgets", "slots", "p_solo", "p_priv", "p_coop")}
    gains = _wrap(f"{where}", lambda: MUserGains(
        m=m, k_user=[_numbers(row, f"{where}.k_user") for row in k_user],
        k_dest=lists["k_dest"], noise=_num(node, where, "noise")))
    alloc = _wrap(f"{where}", lambda: MUserAllocation(
        slots=lists["slots"], p_solo=lists["p_solo"], p_priv=lists["p_priv"],
        p_coop=lists["p_coop"]))
    if len(lists["budgets"]) != m:
        raise ScenarioError(f"{where}.budgets: expected a list of {m} powers")
    return MUserSection(gains, alloc, tuple(lists["budgets"]))


_TOP_KEYS = ("name", "gains", "budget", "slots", "pdf_allocation", "df_allocation",
             "rho", "separate_literal_p1", "search", "sweep", "dmc", "m_user")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f" at line {mark.line + 1}" if mark is not None else ""
        raise ScenarioError(f"scenario syntax error{line}: {exc}") from exc
    doc = _expect_map(doc, "scenario")
    _take(doc, "scenario", _TOP_KEYS, required=("gains", "budget"))

    name = doc.get("name", "scenario")
    if not isinstance(name, str):
        raise ScenarioError(f"scenario.name: expected a string, got {name!r}")

    sweep = None
    if "sweep" in doc:
        sweep = tuple(_numbers(doc["sweep"], "scenario.sweep"))
        if not sweep or min(sweep) < 0:
            raise ScenarioError("scenario.sweep: expected a non-empty list of gains >= 0")

    flag = doc.get("separate_literal_p1", False)
    if not isinstance(flag, bool):
        raise ScenarioError("scenario.separate_literal_p1: expected a boolean")

    return Scenario(
        name=name,
        gains=_parse_gains(doc["gains"], "scenario.gains"),
        budget=_parse_budget(doc["budget"], "scenario.budget"),
        search=(_parse_search(doc["search"], "scenario.search")
                if "search" in doc else SearchConfig()),
        slots=_parse_slots(doc["slots"], "scenario.slots") if "slots" in doc else None,
        pdf_allocation=(_parse_pdf_allocation(doc["pdf_allocation"], "scenario.pdf_allocation")
                        if "pdf_allocation" in doc else None),
        df_allocation=(_parse_df_allocation(doc["df_allocation"], "scenario.df_allocation")
                       if "df_allocation" in doc else None),
        rho=_parse_rho(doc["rho"], "scenario.rho") if "rho" in doc else None,
        separate_literal_p1=flag,
        sweep=sweep,
        dmc=_parse_dmc(doc["dmc"], "scenario.dmc") if "dmc" in doc else None,
        m_user=_parse_m_user(doc["m_user"], "scenario.m_user") if "m_user" in doc else None,
    )


def _table_dump(name: str, arr) -> dict:
    return {"dims": list(_DMC_TABLE_DIMS[name]), "table": arr.tolist()}


def serialize_scenario(sc: Scenario) -> str:
    """Serialize a Scenario back to its document form (stable key order)."""
    doc: dict = {
        "name": sc.name,
        "gains": {"k12": sc.gains.k12, "k21": sc.gains.k21, "k10": sc.gains.k10,
                  "k20": sc.gains.k20, "noise": sc.gains.noise},
        "budget": {"p1": sc.budget.p1, "p2": sc.budget.p2},
        "search": {"slot_grid": sc.search.slot_grid, "power_grid": sc.search.power_grid,
                   "refine_iters": sc.search.refine_iters,
                   "refine_shrink": sc.search.refine_shrink, "seed": sc.search.seed},
    }
    if sc.slots is not None:
        doc["slots"] = {"a1": sc.slots.a1, "a2": sc.slots.a2, "a3": sc.slots.a3}
    if sc.pdf_allocation is not None:
        a = sc.pdf_allocation
        doc["pdf_allocation"] = {k: getattr(a, k) for k in
                                 ("p10", "p20", "pu", "pv", "p13", "p23",
                                  "c2", "c3", "d2", "d3")}
    if sc.df_allocation is not None:
        a = sc.df_allocation
        doc["df_allocation"] = {k: getattr(a, k) for k in
                                ("p12", "p21", "p13", "p23", "ps1", "ps2")}
    if sc.rho is not None:
        doc["rho"] = {"rho1": sc.rho.rho1, "rho2": sc.rho.rho2}
    if sc.separate_literal_p1:
        doc["separate_literal_p1"] = True
    if sc.sweep is not None:
        doc["sweep"] = list(sc.sweep)
    if sc.dmc is not None:
        d = sc.dmc
        sec = {"slot1": _table_dump("slot1", d.channels.slot1),
               "slot2": _table_dump("slot2", d.channels.slot2),
               "slot3": _table_dump("slot3", d.channels.slot3)}
        if d.pdf_input is not None:
            sec["pdf_input"] = {k: _table_dump(k, getattr(d.pdf_input, k)) for k in
                                ("pmf_x10_u", "pmf_x20_v", "pmf_x13_given_uv",
                                 "pmf_x23_given_uv")}
        if d.df_input is not None:
            sec["df_input"] = {k: _table_dump(k, getattr(d.df_input, k)) for k in
                               ("pmf_x12", "pmf_x21", "pmf_s", "pmf_x13_given_s",
                                "pmf_x23_given_s")}
        if d.outer_input is not None:
            sec["outer_input"] = {k: _table_dump(k, getattr(d.outer_input, k)) for k in
                                  ("pmf_x10_u", "pmf_x20_v", "pmf_x13_given_uvx10",
                                   "pmf_x23_given_uvx20")}
        doc["dmc"] = sec
    if sc.m_user is not None:
        mu = sc.m_user
        doc["m_user"] = {
            "m": mu.gains.m,
            "k_user": [list(r) for r in mu.gains.k_user],
            "k_dest": list(mu.gains.k_dest),
            "noise": mu.gains.noise,
            "budgets": list(mu.budgets),
            "slots": list(mu.allocation.slots),
            "p_solo": list(mu.allocation.p_solo),
            "p_priv": list(mu.allocation.p_priv),
            "p_coop": list(mu.allocation.p_coop),
        }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


def scenario_hash(sc: Scenario) -> str:
    """Short stable digest of the scenario contents, used in output headers."""
    return hashlib.sha256(serialize_scenario(sc).encode("utf-8")).hexdigest()[:12]
