"""End-to-end tests for the QoS scenario runner.

One short adaptive run of the steady scenario is shared across the shape
tests; the bit-identity test reruns it and compares the canonical byte
string — the same contract the differential fuzzer's QoS probe enforces.
"""

import json

import pytest

from repro.qos import (canonical_report, qos_policy_names, run_scenario,
                       scenario_names, write_report)

SEED = 11
REQUESTS = 3


@pytest.fixture(scope="module")
def steady_report():
    return run_scenario("steady", SEED, policy="adaptive", requests=REQUESTS)


class TestReportShape:
    def test_envelope(self, steady_report):
        r = steady_report
        assert r["schema"] == 1 and r["kind"] == "qos-report"
        assert r["seed"] == SEED and r["policy"] == "adaptive"
        assert r["scenario"]["name"] == "steady"
        assert r["overrides"]["requests"] == REQUESTS
        assert r["total_cycles"] > 0
        assert r["config"]["fingerprint"]

    def test_per_client_summaries(self, steady_report):
        clients = steady_report["clients"]
        assert len(clients) == 3
        for name, c in clients.items():
            assert c["requests"] == REQUESTS
            assert c["frame_time_cycles"]["count"] == REQUESTS
            assert c["kernel_turnaround_cycles"]["count"] >= REQUESTS
            assert c["instructions"] > 0 and c["ipc"] > 0
            assert 0.0 <= c["mean_occupancy"] <= 1.0
            # Cycle and millisecond trees carry the same percentiles.
            assert set(c["frame_time_ms"]) == \
                set(c["frame_time_cycles"]) - {"count"}

    def test_controller_report_keys(self, steady_report):
        ctl = steady_report["controller"]
        assert ctl["name"] == "hill-climb"
        assert ctl["interventions"] == len(ctl["history"])
        shares = ctl["final_compute_shares"]
        assert all(n >= 1 for n in shares.values())
        assert set(ctl["final_l2_shares"]) == set(shares)

    def test_static_policy_has_no_controller(self):
        r = run_scenario("steady", SEED, policy="mps", requests=2)
        assert r["controller"] is None


class TestDeterminism:
    def test_same_seed_bit_identical(self, steady_report):
        again = run_scenario("steady", SEED, policy="adaptive",
                             requests=REQUESTS)
        assert canonical_report(again) == canonical_report(steady_report)
        assert again["events"] == steady_report["events"]

    def test_canonical_report_strips_events(self, steady_report):
        tree = json.loads(canonical_report(steady_report))
        assert "events" not in tree
        assert tree["schema"] == 1


class TestValidationAndIO:
    def test_unknown_policy_and_scenario_rejected(self):
        with pytest.raises(KeyError):
            run_scenario("steady", SEED, policy="fifo")
        with pytest.raises(KeyError):
            run_scenario("no-such-scenario", SEED)

    def test_warped_slicer_needs_two_clients(self):
        # Every built-in scenario runs >2 clients; Warped-Slicer's pairwise
        # profile search cannot partition them.
        with pytest.raises(ValueError):
            run_scenario("steady", SEED, policy="warped-slicer", requests=2)

    def test_policy_and_scenario_registries(self):
        assert qos_policy_names()[0] == "adaptive"
        assert set(scenario_names()) >= {"steady", "bursty", "ramp", "flood"}

    def test_write_report_round_trips(self, steady_report, tmp_path):
        paths = write_report(steady_report, str(tmp_path))
        with open(paths["report"], "r", encoding="utf-8") as f:
            tree = json.load(f)
        assert "events" not in tree
        assert tree["seed"] == SEED
        with open(paths["events"], "r", encoding="utf-8") as f:
            rows = [json.loads(line) for line in f]
        assert rows == steady_report["events"]
        assert len(rows) >= 3 * REQUESTS


def test_campaign_win_line_reports_the_p95_verdict():
    # The SLO verdict is p95 frame cycles within the budget, so the
    # headline prints exactly those two numbers, even where p99 is over.
    from repro.harness.report import render_qos_campaign
    from repro.qos.campaign import adaptive_wins

    def row(policy, p95, met):
        return {"scenario": "flood", "policy": policy, "status": "ok",
                "clients": {"vio": {
                    "met": met, "budget_ms": 0.0019, "budget_cycles": 2200,
                    "p95_frame_cycles": p95, "p99_frame_cycles": 2611,
                    "p99_frame_ms": 0.0023}},
                "slo_met_all": met, "worst_violation_rate": 0.0,
                "total_cycles": 10_000, "interventions": 0}
    rows = [row("adaptive", 2150, True), row("mps", 5000, False),
            row("tap", 4800, False)]
    wins = adaptive_wins(rows, ["flood"], ["adaptive", "mps", "tap"])
    text = render_qos_campaign({"seed": 7, "scenarios": ["flood"],
                                "rows": rows,
                                "headline": {"adaptive_wins": wins}})
    assert ("flood/vio: adaptive p95 2150 cycles within budget 2200 "
            "cycles; statics p95 mps=5000, tap=4800") in text
