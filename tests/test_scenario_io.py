import re

import numpy as np
import pytest

from hdmac.scenario import (
    Scenario,
    ScenarioError,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
)

MINIMAL = """
name: minimal
gains: {k12: 2.0, k21: 2.0, k10: 1.0, k20: 1.0, noise: 1.0}
budget: {p1: 2.0, p2: 2.0}
"""

FULL = """
name: symmetric-k2
gains: {k12: 2.0, k21: 2.0, k10: 1.0, k20: 1.0, noise: 1.0}
budget: {p1: 2.0, p2: 2.0}
slots: {a1: 0.2, a2: 0.2}
df_allocation: {p12: 4.0, p21: 4.0, p13: 1.0, p23: 1.0, ps1: 1.0, ps2: 1.0}
pdf_allocation: {p10: 0.0, p20: 0.0, pu: 4.0, pv: 4.0, p13: 1.0, p23: 1.0,
                 c2: 0.5, c3: 0.0, d2: 0.5, d3: 0.0}
rho: {rho1: 0.5, rho2: 0.5}
search: {slot_grid: 6, power_grid: 5, refine_iters: 10, seed: 3}
sweep: [1.5, 2.0, 4.0]
"""

DMC_DOC = """
name: binary-dmc
gains: {k12: 2.0, k21: 2.0, k10: 1.0, k20: 1.0, noise: 1.0}
budget: {p1: 2.0, p2: 2.0}
slots: {a1: 0.333333333333, a2: 0.333333333333}
dmc:
  slot1:
    dims: [x10, y1, y12]
    table: [[[0.5, 0.0], [0.5, 0.0]], [[0.0, 0.5], [0.0, 0.5]]]
  slot2:
    dims: [x20, y2, y21]
    table: [[[0.5, 0.0], [0.5, 0.0]], [[0.0, 0.5], [0.0, 0.5]]]
  slot3:
    dims: [x13, x23, y3]
    table: [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]
  pdf_input:
    pmf_x10_u: {dims: [x10, u], table: [[0.25, 0.25], [0.25, 0.25]]}
    pmf_x20_v: {dims: [x20, v], table: [[0.25, 0.25], [0.25, 0.25]]}
    pmf_x13_given_uv:
      dims: [u, v, x13]
      table: [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]
    pmf_x23_given_uv:
      dims: [u, v, x23]
      table: [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]
"""


M_USER = """
m_user:
  m: 2
  k_user: [[0.0, 2.0], [2.0, 0.0]]
  k_dest: [1.0, 1.0]
  noise: 1.0
  budgets: [2.0, 2.0]
  slots: [0.2, 0.2, 0.6]
  p_solo: [4.0, 4.0]
  p_priv: [1.0, 1.0]
  p_coop: [1.0, 1.0]
"""


class TestParsing:
    def test_minimal_gets_default_search(self):
        sc = parse_scenario(MINIMAL)
        assert sc.name == "minimal"
        assert sc.search.slot_grid == 11
        assert sc.search.power_grid == 9
        assert sc.slots is None

    def test_full_document(self):
        sc = parse_scenario(FULL)
        assert sc.slots.a3 == pytest.approx(0.6)
        assert sc.df_allocation.p12 == 4.0
        assert sc.rho.rho1 == 0.5
        assert sc.sweep == (1.5, 2.0, 4.0)
        assert len(sc.sweep) == 3
        assert sc.search.seed == 3

    def test_slots_over_one_names_timeslots(self):
        bad = MINIMAL + "slots: {a1: 0.7, a2: 0.7}\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert "TimeSlots" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(MINIMAL + "voltage: 5\n")
        assert "voltage" in str(err.value)

    def test_unknown_nested_key_rejected(self):
        bad = MINIMAL.replace("noise: 1.0", "noise: 1.0, spin: 2")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert "spin" in str(err.value)

    def test_negative_gain_names_field(self):
        bad = MINIMAL.replace("k12: 2.0", "k12: -2.0")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert "k12" in str(err.value)

    def test_number_too_large_for_a_float_names_key(self):
        with pytest.raises(ScenarioError, match="scenario.gains.k12: number too large"):
            parse_scenario(MINIMAL.replace("k12: 2.0", "k12: 1" + "0" * 400))
        with pytest.raises(ScenarioError, match="scenario.sweep: number too large"):
            parse_scenario(MINIMAL + "sweep: [1.0, 1" + "0" * 400 + "]\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("gains: {k12: [unclosed\nbudget: 3\n")
        assert "line" in str(err.value)

    def test_missing_budget(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("name: x\ngains: {k12: 1, k21: 1, k10: 1, k20: 1, noise: 1}\n")
        assert "budget" in str(err.value)

    @pytest.mark.parametrize("field", ["slot_grid", "power_grid", "refine_iters"])
    def test_non_integer_search_size_rejected(self, field):
        doc = MINIMAL + f"search: {{{field}: 11.7}}\n"
        with pytest.raises(ScenarioError, match=field):
            parse_scenario(doc)

    def test_integral_float_search_size_accepted(self):
        assert parse_scenario(MINIMAL + "search: {slot_grid: 7.0}\n").search.slot_grid == 7

    def test_dmc_section(self):
        sc = parse_scenario(DMC_DOC)
        assert sc.dmc is not None
        assert sc.dmc.channels.slot3.shape == (2, 2, 2)
        assert sc.dmc.pdf_input is not None

    def test_dmc_dims_tag_must_match(self):
        bad = DMC_DOC.replace("dims: [x13, x23, y3]", "dims: [x23, x13, y3]")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert "dims" in str(err.value)

    def test_m_user_section(self):
        sc = parse_scenario(MINIMAL + M_USER)
        assert sc.m_user.gains.m == 2
        assert sc.m_user.budgets == (2.0, 2.0)

    @pytest.mark.parametrize("bad", ['"abc"', "true", '"2.0"', "null"])
    @pytest.mark.parametrize("key, good", [
        ("k_user", "[[0.0, 2.0], [2.0, 0.0]]"), ("k_dest", "[1.0, 1.0]"),
        ("budgets", "[2.0, 2.0]"), ("slots", "[0.2, 0.2, 0.6]"), ("p_solo", "[4.0, 4.0]"),
        ("p_priv", "[1.0, 1.0]"), ("p_coop", "[1.0, 1.0]"),
    ])
    def test_m_user_bad_entry_names_key(self, key, good, bad):
        # the first entry replaced, then the whole list replaced by the scalar
        for value in (re.sub(r"[0-9.]+", bad, good, count=1), bad):
            doc = MINIMAL + M_USER.replace(f"{key}: {good}", f"{key}: {value}")
            with pytest.raises(ScenarioError, match=f"scenario.m_user.{key}:"):
                parse_scenario(doc)

    @pytest.mark.parametrize("old, new, message", [
        ("budget: {p1: 2.0, p2: 2.0}", "budget: 2.0", "scenario.budget: expected a mapping"),
        ("k12: 2.0", "k12: abc", "scenario.gains.k12: expected a number"),
        ("m: 2", "m: 2.5", "scenario.m_user.m: expected an integer"),
        ("budgets: [2.0, 2.0]", "budgets: [2.0]", "scenario.m_user.budgets: expected a list of 2"),
        ("name: minimal", "name: 7", "scenario.name: expected a string"),
        ("name: minimal", "name: minimal\nsweep: []", "scenario.sweep: expected a non-empty"),
        ("name: minimal", "name: minimal\nsweep: [1.0, -0.5]",
         "scenario.sweep: expected a non-empty"),
    ], ids=["section", "number", "m", "budgets", "name", "empty_sweep", "negative_sweep"])
    def test_malformed_entry_names_field(self, old, new, message):
        doc = (MINIMAL + M_USER).replace(old, new, 1)
        with pytest.raises(ScenarioError, match=re.escape(message)):
            parse_scenario(doc)


class TestRoundTrip:
    @pytest.mark.parametrize("doc", [MINIMAL, FULL, DMC_DOC])
    def test_parse_serialize_parse_identical(self, doc):
        sc1 = parse_scenario(doc)
        text = serialize_scenario(sc1)
        sc2 = parse_scenario(text)
        assert serialize_scenario(sc2) == text
        assert scenario_hash(sc1) == scenario_hash(sc2)

    def test_hash_changes_with_content(self):
        a = parse_scenario(MINIMAL)
        b = parse_scenario(MINIMAL.replace("p1: 2.0", "p1: 3.0"))
        assert scenario_hash(a) != scenario_hash(b)
