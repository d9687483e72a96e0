import csv
import json
from pathlib import Path

import pytest

from hdmac.cli import export_plot_data, main, run_command
from hdmac.core import ValidationError
from hdmac.scenario import parse_scenario, scenario_hash

SCENARIOS = Path(__file__).parents[1] / "scenarios"

PENTAGON_DOC = """
name: df-pentagon
gains: {k12: 2.0, k21: 2.0, k10: 1.0, k20: 1.0, noise: 1.0}
budget: {p1: 2.0, p2: 2.0}
slots: {a1: 0.2, a2: 0.2}
df_allocation: {p12: 4.0, p21: 4.0, p13: 1.0, p23: 1.0, ps1: 1.0, ps2: 1.0}
search: {slot_grid: 5, power_grid: 4, refine_iters: 8, seed: 1}
"""

SWEEP_DOC = """
name: sweep
gains: {k12: 2.0, k21: 2.0, k10: 1.0, k20: 1.0, noise: 1.0}
budget: {p1: 2.0, p2: 2.0}
search: {slot_grid: 5, power_grid: 4, refine_iters: 8, seed: 1}
sweep: [1.5, 2.0, 4.0]
"""

MUSER_DOC = """
name: three-users
gains: {k12: 2.0, k21: 2.0, k10: 1.0, k20: 1.0, noise: 1.0}
budget: {p1: 2.0, p2: 2.0}
m_user:
  m: 3
  k_user: [[0.0, 2.0, 2.0], [2.0, 0.0, 2.0], [2.0, 2.0, 0.0]]
  k_dest: [1.0, 1.0, 1.0]
  noise: 1.0
  budgets: [2.0, 2.0, 2.0]
  slots: [0.15, 0.15, 0.15, 0.55]
  p_solo: [4.0, 4.0, 4.0]
  p_priv: [1.272727272727273, 1.272727272727273, 1.272727272727273]
  p_coop: [1.272727272727273, 1.272727272727273, 1.272727272727273]
"""

DMC_DOC = """
name: dmc
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


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestRegionCommand:
    def test_pentagon_csv(self, tmp_path):
        sc = parse_scenario(PENTAGON_DOC)
        status = run_command("region", sc, tmp_path)
        assert status == 0
        rows = read_csv(tmp_path / "polygon_df.csv")
        assert rows[0] == ["index", "r1", "r2"]
        assert len(rows) - 1 == 5  # the worked pentagon
        r1_corner = float(rows[2][1])
        assert r1_corner == pytest.approx(0.70875, abs=5e-6)
        bounds = read_csv(tmp_path / "bounds_df.csv")
        sums = [float(r[2]) for r in bounds[1:] if r[0] == "sum"]
        assert min(sums) == pytest.approx(1.2930, abs=5e-5)

    def test_outer_polygon_emitted(self, tmp_path):
        sc = parse_scenario(PENTAGON_DOC)
        run_command("region", sc, tmp_path)
        assert (tmp_path / "polygon_outer.csv").exists()

    def test_region_needs_slots(self, tmp_path):
        sc = parse_scenario(SWEEP_DOC)
        with pytest.raises(ValidationError):
            run_command("region", sc, tmp_path)

    def test_numeric_precision_at_least_nine_digits(self, tmp_path):
        sc = parse_scenario(PENTAGON_DOC)
        run_command("region", sc, tmp_path)
        rows = read_csv(tmp_path / "bounds_df.csv")
        val = rows[1][2]
        digits = len(val.replace(".", "").replace("-", "").lstrip("0"))
        assert digits >= 9

    def test_noise_correlation_adds_degraded_outputs(self, tmp_path):
        sc = parse_scenario(PENTAGON_DOC + "rho: {rho1: 0.5, rho2: 0.5}\n")
        run_command("region", sc, tmp_path)
        assert (tmp_path / "polygon_degraded.csv").exists()
        # matched correlation: degraded caps equal the decode-forward caps
        df_rows = read_csv(tmp_path / "polygon_df.csv")
        deg_rows = read_csv(tmp_path / "polygon_degraded.csv")
        assert df_rows == deg_rows

    def test_unknown_command_rejected(self, tmp_path):
        sc = parse_scenario(PENTAGON_DOC)
        with pytest.raises(ValidationError):
            run_command("plot", sc, tmp_path)


class TestFrontierCommand:
    def test_outputs_and_determinism(self, tmp_path):
        sc = parse_scenario(PENTAGON_DOC)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run_command("frontier", sc, out1, weights=5) == 0
        assert run_command("frontier", sc, out2, weights=5) == 0
        for name in ("frontier_df.csv", "frontier_outer.csv", "frontier_pdf_joint.csv",
                     "frontier_pdf_separate.csv", "frontier.dat"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, f"{name} differs between identical runs"
        rows = read_csv(out1 / "frontier_df.csv")
        assert rows[0][:5] == ["theta_index", "mu1", "mu2", "r1", "r2"]
        assert len(rows) - 1 == 5

    def test_seed_changes_output_header_only_deterministically(self, tmp_path):
        sc = parse_scenario(PENTAGON_DOC)
        run_command("frontier", sc, tmp_path, weights=3)
        dat = (tmp_path / "frontier.dat").read_text()
        assert "# seed: 1" in dat
        assert "# series: df" in dat


class TestSweepCommand:
    def test_three_frontiers_and_nesting_report(self, tmp_path):
        sc = parse_scenario(SWEEP_DOC)
        assert run_command("sweep", sc, tmp_path, weights=5) == 0
        for k in ("1.5", "2", "4"):
            assert (tmp_path / f"frontier_df_k{k}.csv").exists()
        rows = read_csv(tmp_path / "sweep_report.csv")
        assert rows[0] == ["inner", "outer", "contained", "worst_slack"]
        for row in rows[1:]:
            assert row[2] == "true"


class TestMuserCommand:
    def test_constraint_listing(self, tmp_path):
        sc = parse_scenario(MUSER_DOC)
        assert run_command("muser", sc, tmp_path) == 0
        rows = read_csv(tmp_path / "muser_constraints.csv")
        sides = {r[0] for r in rows[1:]}
        assert sides == {"achievable", "outer"}
        # 2^3 - 1 subset caps + 2^3 total caps per side
        per_side = (len(rows) - 1) // 2
        assert per_side == 7 + 8
        cond = read_csv(tmp_path / "muser_condition.csv")
        assert cond[1][1] == "true"

    def test_failing_link_condition_reported(self, tmp_path):
        doc = MUSER_DOC.replace("[[0.0, 2.0, 2.0]", "[[0.0, 0.5, 2.0]")
        sc = parse_scenario(doc)
        assert run_command("muser", sc, tmp_path) == 0
        cond = read_csv(tmp_path / "muser_condition.csv")
        assert cond[1][1] == "false"
        assert any(r[0] == "1->2" for r in cond[2:])


class TestDmcCommand:
    def test_region_evaluation(self, tmp_path):
        sc = parse_scenario(DMC_DOC)
        assert run_command("dmc", sc, tmp_path) == 0
        rows = read_csv(tmp_path / "dmc_regions.csv")
        regions = {r[0] for r in rows[1:]}
        assert regions == {"pdf_joint", "pdf_separate"}


class TestVerifyCommand:
    def test_symmetric_scenario_all_claims_pass(self, tmp_path):
        doc = """
name: verify-smoke
gains: {k12: 2.0, k21: 2.0, k10: 1.0, k20: 1.0, noise: 1.0}
budget: {p1: 2.0, p2: 2.0}
search: {slot_grid: 5, power_grid: 4, refine_iters: 8, seed: 2}
"""
        sc = parse_scenario(doc)
        status = run_command("verify", sc, tmp_path, weights=5)
        assert status == 0
        rows = read_csv(tmp_path / "verdicts.csv")
        assert len(rows) - 1 == 5
        assert all(r[1] in ("pass", "n/a") for r in rows[1:])
        for r in rows[1:]:
            if r[3]:
                assert (tmp_path / r[3]).exists()


class TestExportPlotData:
    def test_blocks_and_headers(self):
        text = export_plot_data({"df": [(1.0, 0.0), (0.5, 0.5)]}, "abc123", 7)
        lines = text.splitlines()
        assert lines[0] == "# series: df"
        assert lines[1] == "# scenario: abc123"
        assert lines[2] == "# seed: 7"
        assert lines[4] == "1 0"
        assert len([l for l in lines if l and not l.startswith("#")]) == 2

    def test_mac_baseline_series_in_order(self):
        from hdmac.core import ChannelGains, PowerBudget
        from hdmac.gaussian import baseline_region

        mac = baseline_region("MAC", ChannelGains(2, 2, 1, 1, 1), PowerBudget(2, 2))
        text = export_plot_data({"mac": mac.vertices}, "h", 0)
        data = [tuple(float(v) for v in l.split())
                for l in text.splitlines() if l and not l.startswith("#")]
        assert len(data) == len(mac.vertices)
        for got, want in zip(data, mac.vertices):
            assert got == pytest.approx(want, abs=1e-11)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            export_plot_data({}, "x", 0)


class TestMain:
    def test_region_exit_zero(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(PENTAGON_DOC, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["region", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert (out / "polygon_df.csv").exists()

    def test_bad_scenario_exit_two(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(PENTAGON_DOC + "bogus_key: 1\n", encoding="utf-8")
        assert main(["region", "--scenario", str(scenario)]) == 2
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_separate_literal_p1_rejected_exit_two(self, tmp_path, capsys, value):
        # a file that asks for the total-power variant of PDF_SEPARATE, which
        # is not evaluated, must not silently get the default region
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(PENTAGON_DOC + f"separate_literal_p1: {value}\n", encoding="utf-8")
        assert main(["region", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
        assert "unknown keys ['separate_literal_p1']" in capsys.readouterr().err

    def test_number_too_large_for_a_float_exit_two(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(PENTAGON_DOC.replace("k12: 2.0", "k12: 1" + "0" * 400),
                            encoding="utf-8")
        assert main(["region", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
        assert "error: scenario.gains.k12: number too large" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("k_dest", '["abc", 1.0, 1.0]'), ("k_dest", "3"),
                                            ("p_solo", "null"), ("budgets", "[true, 2.0, 2.0]")])
    def test_bad_m_user_entry_exit_two(self, tmp_path, capsys, key, value):
        lines = [f"  {key}: {value}" if line.startswith(f"  {key}:") else line
                 for line in MUSER_DOC.splitlines()]
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["muser", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
        assert f"error: scenario.m_user.{key}:" in capsys.readouterr().err

    @staticmethod
    def _traced_by_verify(tmp_path, monkeypatch, doc):
        """(scheme, weight_count) of every frontier `hdmac verify --weights 3` traces."""
        import hdmac.verify

        seen = []
        real = hdmac.verify.frontier

        def spy(g, budget, scheme, weight_count, *args, **kwargs):
            seen.append((scheme, weight_count))
            return real(g, budget, scheme, weight_count, *args, **kwargs)

        monkeypatch.setattr(hdmac.verify, "frontier", spy)
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(doc, encoding="utf-8")
        main(["verify", "--scenario", str(scenario), "--out", str(tmp_path), "--weights", "3"])
        return seen

    def test_verify_uses_weights_for_every_claim(self, tmp_path, monkeypatch):
        seen = self._traced_by_verify(tmp_path, monkeypatch, PENTAGON_DOC)
        assert ("PDF_PARTIAL", 3) in seen
        assert all(count == 3 for _, count in seen), seen
        # each scheme's frontier is traced once and shared by the claims
        assert sorted(scheme for scheme, _ in seen) == sorted(
            ["PDF_JOINT", "DF", "OUTER", "PDF_PARTIAL", "DEGRADED"]), seen

    def test_verify_skips_degraded_where_it_does_not_apply(self, tmp_path, monkeypatch):
        # k12 <= k10: the degraded claim is n/a and DEGRADED is never traced
        doc = PENTAGON_DOC.replace("k12: 2.0", "k12: 1.0")
        seen = self._traced_by_verify(tmp_path, monkeypatch, doc)
        assert sorted(scheme for scheme, _ in seen) == sorted(
            ["PDF_JOINT", "DF", "OUTER", "PDF_PARTIAL"]), seen
        rows = read_csv(tmp_path / "verdicts.csv")
        assert [r[1] for r in rows if r[0] == "degraded_capacity"] == ["n/a"]

    @pytest.mark.parametrize("old, new, message", [
        ("pmf_x21: {dims: [x21], table: [0.5, 0.5]}",
         "pmf_x21: {dims: [x21], table: [0.25, 0.25, 0.5]}", "slot-2 input alphabet"),
        ("pmf_x13_given_s: {dims: [s, x13], table: [[0.5, 0.5], [0.5, 0.5]]}",
         "pmf_x13_given_s: {dims: [s, x13], table: [[0.25, 0.25, 0.5], [0.25, 0.25, 0.5]]}",
         "slot-3 input alphabets"),
        ("{dims: [x12], table: [0.5, 0.5]}", "{dims: 7, table: [0.5, 0.5]}",
         "scenario.dmc.df_input.pmf_x12.dims"),
        ("{dims: [x12], table: [0.5, 0.5]}", "{dims: [x12], table: [0.5, abc]}",
         "scenario.dmc.df_input: pmf_x12"),
        ("{dims: [x12], table: [0.5, 0.5]}", "{dims: [x12], table: [[0.5], 0.5]}",
         "scenario.dmc.df_input: pmf_x12"),
        ("{dims: [x12], table: [0.5, 0.5]}", "{dims: [x12], table: [0.5, 1%s]}" % ("0" * 400),
         "scenario.dmc.df_input: pmf_x12"),
    ], ids=["x21_alphabet", "x13_alphabet", "dims", "entry", "ragged", "overflow"])
    def test_malformed_df_input_exit_two(self, tmp_path, capsys, old, new, message):
        text = (SCENARIOS / "dmc_binary.yaml").read_text(encoding="utf-8")
        assert text.count(old) == 1
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(text.replace(old, new), encoding="utf-8")
        assert main(["dmc", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["region", "--scenario", str(tmp_path / "nope.yaml")]) == 2

    def test_seed_override(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(PENTAGON_DOC, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["frontier", "--scenario", str(scenario), "--out", str(out),
                     "--seed", "9", "--weights", "3"]) == 0
        assert "# seed: 9" in (out / "frontier.dat").read_text()


GOLDEN_CLI = Path(__file__).parent / "data" / "cli_golden"


class TestByteIdentity:
    """tests/data/cli_golden holds the files the closed-form commands wrote
    for the shipped scenarios, and each scenario's hash, as recorded before
    dmc.py was rebuilt around one cap composition."""

    @pytest.mark.parametrize("cmd, name", [("region", "symmetric_k2.yaml"),
                                           ("dmc", "dmc_binary.yaml"),
                                           ("muser", "three_user.yaml")])
    def test_outputs_match_recorded_bytes(self, tmp_path, cmd, name):
        assert main([cmd, "--scenario", str(SCENARIOS / name), "--out", str(tmp_path)]) == 0
        want = sorted(p.name for p in (GOLDEN_CLI / cmd).iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == want
        for file in want:
            assert (tmp_path / file).read_bytes() == (GOLDEN_CLI / cmd / file).read_bytes(), file

    def test_scenario_hashes_unchanged(self):
        want = json.loads((GOLDEN_CLI / "scenario_hashes.json").read_text(encoding="utf-8"))
        got = {p.name: scenario_hash(parse_scenario(p.read_text(encoding="utf-8")))
               for p in sorted(SCENARIOS.glob("*.yaml"))}
        assert got == want


class TestOptimizerGolden:
    """tests/data/optimizer_golden.json holds the objective column of
    `hdmac frontier` and the verdict statuses of `hdmac verify` on
    symmetric_k2 at five weight directions.  A solver change may move the
    optimized CSVs in their last digits, so objectives match within 1e-9."""

    GOLDEN = json.loads((Path(__file__).parent / "data" / "optimizer_golden.json")
                        .read_text(encoding="utf-8"))

    def _run(self, cmd, out):
        args = [cmd, "--scenario", str(SCENARIOS / "symmetric_k2.yaml"), "--weights", "5",
                "--out", str(out)]
        assert main(args) == 0
        return out

    def test_frontier_objectives(self, tmp_path):
        out = self._run("frontier", tmp_path)
        for file, want in self.GOLDEN["frontier"].items():
            with open(out / file, newline="", encoding="utf-8") as fh:
                got = [float(row["objective"]) for row in csv.DictReader(fh)]
            assert got == pytest.approx(want, rel=0, abs=1e-9), file

    def test_verify_statuses(self, tmp_path):
        out = self._run("verify", tmp_path)
        with open(out / "verdicts.csv", newline="", encoding="utf-8") as fh:
            got = {row["claim"]: row["status"] for row in csv.DictReader(fh)}
        assert got == self.GOLDEN["verify"]
