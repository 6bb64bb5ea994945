"""Tests for the one-shot reproduction driver."""

import os

import pytest

from repro.cli import main
from repro.harness.reproduce import RUNNERS, reproduce_all


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
        monkeypatch.setitem(RUNNERS, "fig7",
                            lambda: ("doctored", False, ["detail"]))
        assert main(["reproduce", "--out", str(tmp_path),
                     "--only", "fig7"]) == 1
        assert "[CHECK] fig7" in capsys.readouterr().out
        assert "| fig7 | CHECK |" in (tmp_path / "RESULTS.md").read_text()
        assert main(["figure", "fig7"]) == 1
        out = capsys.readouterr().out
        assert "detail" in out and "[CHECK] fig7" in out

    def test_figure_passes_sweep_options(self, monkeypatch, capsys):
        seen = {}

        def row(jobs=1, cache_dir=None):
            seen.update(jobs=jobs, cache_dir=cache_dir)
            return ("ok", True, [])

        monkeypatch.setitem(RUNNERS, "fig13", row)
        assert main(["figure", "fig13", "--jobs", "3",
                     "--cache-dir", "c"]) == 0
        assert seen == {"jobs": 3, "cache_dir": "c"}
        assert "[PASS] fig13" in capsys.readouterr().out

    def test_fig14_rejects_mig_that_does_not_lose(self, monkeypatch):
        # TAP ~= MPS and TAP > MiG hold, but MiG is no slower than MPS:
        # the row must fail on "MiG loses L2 bandwidth by splitting banks".
        from repro.harness import experiments as E
        doctored = E.PolicyComparison(cycles={
            "SPH+VIO": {"mps": 100, "mig": 99, "tap": 95},
            "PT+HOLO": {"mps": 100, "mig": 99, "tap": 95},
        })
        tap, mig = doctored.mean_speedup("tap"), doctored.mean_speedup("mig")
        assert tap > mig >= 1.0 and abs(tap - 1.0) < 0.08
        monkeypatch.setattr(E, "run_fig14", lambda **kw: doctored)
        headline, ok, _ = RUNNERS["fig14"]()
        assert not ok, headline

    def test_fig14_accepts_the_paper_shape(self, monkeypatch):
        from repro.harness import experiments as E
        shaped = E.PolicyComparison(cycles={
            "SPH+VIO": {"mps": 100, "mig": 110, "tap": 101},
            "PT+HOLO": {"mps": 100, "mig": 104, "tap": 99},
        })
        monkeypatch.setattr(E, "run_fig14", lambda **kw: shaped)
        assert RUNNERS["fig14"]()[1]
