"""Scenario files: a single human-editable YAML document per experiment.

Unknown keys are rejected and every numeric field is range-checked; errors
name the offending field.  parse/serialize round-trip to an identical
Scenario.  The grammar is documented in the README.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields
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
    return _float(v, f"{where}.{key}")


def _numbers(v, where: str) -> list:
    if not isinstance(v, list) or not all(_is_number(x) for x in v):
        raise ScenarioError(f"{where}: expected a list of numbers, got {v!r}")
    return [_float(x, where) for x in v]


def _float(v, where: str) -> float:
    try:
        return float(v)
    except OverflowError:
        raise ScenarioError(f"{where}: number too large for a float") from None


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


def _parse_slots(node, where: str) -> TimeSlots:
    node = _expect_map(node, where)
    _take(node, where, ("a1", "a2", "a3"), required=("a1", "a2"))
    a1 = _num(node, where, "a1")
    a2 = _num(node, where, "a2")
    if "a3" in node:
        return _wrap(where, lambda: TimeSlots(a1, a2, _num(node, where, "a3")))
    return _wrap(where, lambda: TimeSlots.from_first_two(a1, a2))


def _field_names(record) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(record))


def _parse_record(node, where: str, record):
    """A record whose every field is a number and a required key: the gains,
    the budget, rho and the allocations."""
    node = _expect_map(node, where)
    keys = _field_names(record)
    _take(node, where, keys, required=keys)
    return _wrap(where, lambda: record(**{k: _num(node, where, k) for k in keys}))


def _parse_search(node, where: str) -> SearchConfig:
    """SearchConfig's fields as optional keys, each defaulting to the field's
    default and read as an integer where that default is one."""
    node = _expect_map(node, where)
    _take(node, where, _field_names(SearchConfig))
    return _wrap(where, lambda: SearchConfig(**{
        f.name: (_int if isinstance(f.default, int) else _num)(node, where, f.name, f.default)
        for f in fields(SearchConfig)}))


def _parse_table(node, where: str, dims: Tuple[str, ...]):
    node = _expect_map(node, where)
    _take(node, where, ("dims", "table"), required=("dims", "table"))
    if node["dims"] != list(dims):
        raise ScenarioError(f"{where}.dims: expected {list(dims)}, got {node['dims']!r}")
    return node["table"]


def _parse_tables(node, where: str, record):
    """A dmc table record built from the entries of ``node`` its fields name."""
    tables = {f.name: _parse_table(node[f.name], f"{where}.{f.name}", f.metadata["dims"])
              for f in fields(record)}
    return _wrap(where, lambda: record(**tables))


_DMC_INPUTS = {"pdf_input": PdfInputDistribution, "df_input": DfInputDistribution,
               "outer_input": OuterInputDistribution}


def _parse_dmc(node, where: str) -> DmcSection:
    node = _expect_map(node, where)
    channel_keys = _field_names(SlotChannels)
    _take(node, where, channel_keys + tuple(_DMC_INPUTS), required=channel_keys)
    channels = _parse_tables(node, where, SlotChannels)
    inputs = {}
    for section, record in _DMC_INPUTS.items():
        if section in node:
            sec = _expect_map(node[section], f"{where}.{section}")
            keys = _field_names(record)
            _take(sec, f"{where}.{section}", keys, required=keys)
            inputs[section] = _parse_tables(sec, f"{where}.{section}", record)
    return DmcSection(channels, **inputs)


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
             "rho", "search", "sweep", "dmc", "m_user")


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

    return Scenario(
        name=name,
        gains=_parse_record(doc["gains"], "scenario.gains", ChannelGains),
        budget=_parse_record(doc["budget"], "scenario.budget", PowerBudget),
        search=(_parse_search(doc["search"], "scenario.search")
                if "search" in doc else SearchConfig()),
        slots=_parse_slots(doc["slots"], "scenario.slots") if "slots" in doc else None,
        pdf_allocation=(_parse_record(doc["pdf_allocation"], "scenario.pdf_allocation",
                                      PdfAllocation)
                        if "pdf_allocation" in doc else None),
        df_allocation=(_parse_record(doc["df_allocation"], "scenario.df_allocation",
                                     DfAllocation)
                       if "df_allocation" in doc else None),
        rho=(_parse_record(doc["rho"], "scenario.rho", NoiseCorrelation)
             if "rho" in doc else None),
        sweep=sweep,
        dmc=_parse_dmc(doc["dmc"], "scenario.dmc") if "dmc" in doc else None,
        m_user=_parse_m_user(doc["m_user"], "scenario.m_user") if "m_user" in doc else None,
    )


def _tables_dump(record) -> dict:
    return {f.name: {"dims": list(f.metadata["dims"]), "table": getattr(record, f.name).tolist()}
            for f in fields(record)}


def serialize_scenario(sc: Scenario) -> str:
    """Serialize a Scenario back to its document form (stable key order)."""
    doc: dict = {"name": sc.name, "gains": asdict(sc.gains), "budget": asdict(sc.budget),
                 "search": asdict(sc.search)}
    if sc.slots is not None:
        doc["slots"] = asdict(sc.slots)
    if sc.pdf_allocation is not None:
        doc["pdf_allocation"] = asdict(sc.pdf_allocation)
    if sc.df_allocation is not None:
        doc["df_allocation"] = asdict(sc.df_allocation)
    if sc.rho is not None:
        doc["rho"] = asdict(sc.rho)
    if sc.sweep is not None:
        doc["sweep"] = list(sc.sweep)
    if sc.dmc is not None:
        sec = _tables_dump(sc.dmc.channels)
        for section in _DMC_INPUTS:
            record = getattr(sc.dmc, section)
            if record is not None:
                sec[section] = _tables_dump(record)
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
