"""Tests for the one-shot reproduction driver."""

import os

import pytest

from repro.cli import main
from repro.harness import experiments as E
from repro.harness import reproduce
from repro.harness.reproduce import RUNNERS, reproduce_all, run_experiment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestReproduceAll:
    def test_quick_subset_passes(self, tmp_path):
        records = reproduce_all(str(tmp_path), only=["table1", "fig7"])
        assert [r.exp_id for r in records] == ["table1", "fig7"]
        assert all(r.ok for r in records)
        report = (tmp_path / "RESULTS.md").read_text()
        assert "| table1 | PASS |" in report
        assert "| fig7 | PASS |" in report

    def test_detail_blocks_written(self, tmp_path):
        reproduce_all(str(tmp_path), only=["table1"])
        report = (tmp_path / "RESULTS.md").read_text()
        assert "## table1" in report
        assert "CRISP" in report

    def test_unknown_id_rejected(self, tmp_path):
        with pytest.raises(KeyError, match="fig3"):
            reproduce_all(str(tmp_path), only=["fig99"])

    def test_all_paper_experiments_registered(self):
        expected = {"table1", "table2", "fig3", "fig6", "fig7", "fig9",
                    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15"}
        assert set(RUNNERS) == expected

    def test_cli_reproduce(self, tmp_path, capsys):
        out = str(tmp_path / "res")
        assert main(["reproduce", "--out", out, "--only", "fig7"]) == 0
        assert os.path.exists(os.path.join(out, "RESULTS.md"))
        assert "[PASS] fig7" in capsys.readouterr().out


class TestClaimsTable:
    def test_figure_choices_are_the_table(self):
        from repro.cli import build_parser
        sub = next(a for a in build_parser()._actions
                   if a.dest == "command").choices["figure"]
        (id_arg,) = [a for a in sub._actions if a.dest == "id"]
        assert set(id_arg.choices) == set(RUNNERS)

    def test_failing_row_reports_check(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(RUNNERS, "fig7", lambda: (
            [("doctored claim", 3, ">", 4)], ["detail"]))
        assert main(["reproduce", "--out", str(tmp_path),
                     "--only", "fig7"]) == 1
        out = capsys.readouterr().out
        assert "[CHECK] fig7" in out
        assert "CHECK     doctored claim: 3 > 4" in out
        assert "| fig7 | CHECK |" in (tmp_path / "RESULTS.md").read_text()
        assert main(["figure", "fig7"]) == 1
        out = capsys.readouterr().out
        assert "detail" in out and "[CHECK] fig7" in out
        assert "doctored claim: 3 > 4" in out

    def test_claim_verdicts(self, monkeypatch):
        monkeypatch.setattr(reproduce, "DEVIATIONS", {("fig7", "known")})
        rec = reproduce.ExperimentRecord("fig7", [
            ("holds", 0.5, "<=", 0.5), ("known", 1, "==", 2)], 0.0)
        assert rec.ok and rec.headline == "1 PASS, 1 DEVIATION"
        assert rec.report().splitlines() == [
            "[PASS] fig7    1 PASS, 1 DEVIATION (0.0s)",
            "  PASS      holds: 0.5 <= 0.5",
            "  DEVIATION known: 1 == 2"]
        # A deviation listed for another row does not excuse this one.
        rec = reproduce.ExperimentRecord("fig9", [("known", 1, "==", 2)], 0)
        assert not rec.ok and rec.outcome == "CHECK"

    def test_figure_passes_sweep_options(self, monkeypatch, capsys):
        seen = {}

        def row(jobs=1, cache_dir=None):
            seen.update(jobs=jobs, cache_dir=cache_dir)
            return [("holds", 1, "==", 1)], []

        monkeypatch.setitem(RUNNERS, "fig13", row)
        assert main(["figure", "fig13", "--jobs", "3",
                     "--cache-dir", "c"]) == 0
        assert seen == {"jobs": 3, "cache_dir": "c"}
        assert "[PASS] fig13" in capsys.readouterr().out

    def test_fig14_rejects_mig_that_does_not_lose(self, monkeypatch):
        # TAP ~= MPS and TAP > MiG hold, but MiG is no slower than MPS:
        # the row must fail on "MiG loses L2 bandwidth by splitting banks".
        doctored = E.PolicyComparison(cycles={
            "SPH+VIO": {"mps": 100, "mig": 99, "tap": 95},
            "PT+HOLO": {"mps": 100, "mig": 99, "tap": 95},
        })
        tap, mig = doctored.mean_speedup("tap"), doctored.mean_speedup("mig")
        assert tap > mig >= 1.0 and abs(tap - 1.0) < 0.08
        monkeypatch.setattr(E, "run_fig14", lambda **kw: doctored)
        rec = run_experiment("fig14")
        assert not rec.ok, rec.report()
        assert _verdicts(rec)["MiG mean speedup < MPS"] == "CHECK"

    def test_fig14_accepts_the_paper_shape(self, monkeypatch):
        shaped = E.PolicyComparison(cycles={
            "SPH+VIO": {"mps": 100, "mig": 110, "tap": 101},
            "PT+HOLO": {"mps": 100, "mig": 104, "tap": 99},
        })
        monkeypatch.setattr(E, "run_fig14", lambda **kw: shaped)
        rec = run_experiment("fig14")
        assert rec.ok and rec.headline == "5 PASS", rec.report()

    def test_fig12_dynamic_above_even_is_a_check(self, monkeypatch, capsys):
        doctored = E.PolicyComparison(cycles={
            "SPH+VIO": {"mps": 100, "fg-even": 95, "warped-slicer": 90},
            "PT+NN": {"mps": 100, "fg-even": 95, "warped-slicer": 90},
        })
        monkeypatch.setattr(E, "run_fig12", lambda **kw: doctored)
        assert main(["figure", "fig12"]) == 1
        out = capsys.readouterr().out
        assert "[CHECK] fig12" in out
        assert "CHECK     EVEN mean speedup >= Dynamic's" in out


def _verdicts(rec):
    return {name: verdict for verdict, name, *_ in rec.claims}


class TestDeviations:
    def test_each_deviation_is_documented(self):
        with open(os.path.join(ROOT, "EXPERIMENTS.md")) as f:
            section = f.read().split("## Known deviations", 1)[1]
        for exp_id, name in reproduce.DEVIATIONS:
            assert name in section, (exp_id, name)

    def test_each_deviation_names_a_claim_its_row_returns(self, monkeypatch):
        # Doctored sweeps in the paper's shape: no simulation runs.
        monkeypatch.setattr(E, "run_fig12", lambda **kw: E.PolicyComparison(
            cycles={"SPH+VIO": {"mps": 100, "fg-even": 95,
                                "warped-slicer": 99},
                    "PT+NN": {"mps": 100, "fg-even": 90,
                              "warped-slicer": 95}}))
        monkeypatch.setattr(E, "run_fig14", lambda **kw: E.PolicyComparison(
            cycles={"SPH+VIO": {"mps": 100, "mig": 110, "tap": 101},
                    "PT+HOLO": {"mps": 100, "mig": 104, "tap": 99}}))
        for exp_id, name in reproduce.DEVIATIONS:
            assert name in _verdicts(run_experiment(exp_id)), (exp_id, name)


class TestRegenGoldensGuard:
    def test_failing_claim_blocks_regen(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(reproduce, "RUNNERS", {"fig7": lambda: (
            [("doctored claim", 3, ">", 4)], [])})
        assert main(["validate", "regen-goldens",
                     "--golden-dir", str(tmp_path)]) == 1
        assert list(tmp_path.iterdir()) == []
        assert "CHECK     doctored claim: 3 > 4" in capsys.readouterr().out
