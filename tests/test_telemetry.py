"""repro.telemetry: zero-overhead-when-off contract, sampling invariants,
trace structure, heartbeats, and the CLI surface."""

import csv
import json
import os

import pytest

from repro.api import WorkloadSpec, simulate
from repro.config import get_preset
from repro.core.platform import collect_streams
from repro.telemetry import (
    NULL_TELEMETRY, READY, STALL_REASONS, Telemetry, read_jsonl,
)

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")


@pytest.fixture(scope="module")
def reference_workload():
    config = get_preset("JetsonOrin-mini")
    streams = collect_streams(config, scene="SPL", res="nano",
                              compute="HOLO")
    return config, streams


@pytest.fixture(scope="module")
def telemetry_run(reference_workload):
    """One fully instrumented mps run, shared by the assertion tests."""
    config, streams = reference_workload
    tel = Telemetry(sample_interval=1000)
    stats = simulate(config=config, streams=streams, policy="mps",
                     telemetry=tel).stats
    return config, stats, tel


TELEMETRY_GOLDEN = "telemetry_spl_vio_nano_tap.json"


def sampled_series():
    """MetricsRecorder samples of SPL+VIO nano, tap, JetsonOrin-mini,
    every 1000 cycles, as the JSON shapes the golden file holds."""
    config = get_preset("JetsonOrin-mini")
    streams = collect_streams(config, scene="SPL", res="nano",
                              compute="VIO")
    tel = Telemetry(sample_interval=1000)
    simulate(config=config, streams=streams, policy="tap", telemetry=tel)
    return json.loads(json.dumps(tel.metrics.samples, sort_keys=True))


def _golden(policy):
    path = os.path.join(GOLDEN_DIR,
                        "sponza_hologram_nano_%s.json" % policy)
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _canonical(stats):
    return json.loads(json.dumps(stats.to_dict(), sort_keys=True))


class TestZeroOverheadContract:
    def test_off_run_matches_golden(self, reference_workload):
        """A run with no telemetry argument (NULL recorder) is bit-identical
        to the pre-telemetry golden snapshot."""
        config, streams = reference_workload
        stats = simulate(config=config, streams=streams, policy="mps").stats
        assert _canonical(stats) == _golden("mps")

    def test_instrumented_run_still_matches_golden(self, telemetry_run):
        """Telemetry observes; it must never perturb simulated behaviour."""
        _, stats, _ = telemetry_run
        assert _canonical(stats) == _golden("mps")

    def test_null_is_module_singleton_with_flags_off(self):
        from repro.timing import GPU
        config = get_preset("JetsonOrin-mini")
        gpu = GPU(config)
        assert gpu.telemetry is NULL_TELEMETRY
        assert NULL_TELEMETRY.sample_interval is None
        assert NULL_TELEMETRY.close() == {}


class TestStallAttribution:
    def test_breakdowns_sum_to_stall_samples(self, telemetry_run):
        _, _, tel = telemetry_run
        samples = tel.metrics.samples
        assert samples, "sampling enabled but no samples taken"
        for record in samples:
            for row in record["streams"].values():
                assert sum(row["stalls"].values()) == row["stall_samples"]
                assert READY not in row["stalls"]

    def test_reasons_are_from_taxonomy(self, telemetry_run):
        _, _, tel = telemetry_run
        for record in tel.metrics.samples:
            for row in record["streams"].values():
                assert set(row["stalls"]) <= set(STALL_REASONS)

    def test_totals_accumulate_sample_breakdowns(self, telemetry_run):
        _, _, tel = telemetry_run
        expect = {}
        for record in tel.metrics.samples:
            for sid, row in record["streams"].items():
                for reason, n in row["stalls"].items():
                    bucket = expect.setdefault(int(sid), {})
                    bucket[reason] = bucket.get(reason, 0) + n
        assert tel.metrics.stall_totals == expect

    def test_warp_accounting_is_complete(self, telemetry_run):
        """Every resident warp is classified at every sample tick."""
        _, _, tel = telemetry_run
        for record in tel.metrics.samples:
            for row in record["streams"].values():
                assert row["stall_samples"] >= 0
                assert row["ready_warps"] >= 0
                if row["warps"]:
                    assert row["stall_samples"] + row["ready_warps"] > 0


class TestSampleSeries:
    def test_interval_and_monotone_cycles(self, telemetry_run):
        _, stats, tel = telemetry_run
        cycles = [r["cycle"] for r in tel.metrics.samples]
        assert cycles == sorted(cycles)
        assert cycles[-1] <= stats.cycles
        # Samples land no closer together than the configured interval.
        for a, b in zip(cycles, cycles[1:]):
            assert b - a >= tel.sample_interval

    def test_recorder_keeps_its_own_interval(self):
        """A run sampled every 2000 cycles ticks a recorder that asks for
        500 every 500 cycles, and its own series stay those of the
        uninstrumented run."""
        config = get_preset("JetsonOrin-mini")
        spec = WorkloadSpec(compute="VIO")
        plain = simulate(config=config, workload=spec,
                         sample_interval=2000).stats
        tel = Telemetry(sample_interval=500)
        stats = simulate(config=config, workload=spec, sample_interval=2000,
                         telemetry=tel).stats
        # A sample fires at the first visited cycle once due: the spacing
        # is at least 500 and, on this run, under 1000 (not the run's 2000).
        cycles = [r["cycle"] for r in tel.metrics.samples]
        assert len(cycles) > stats.cycles // 1000
        assert 500 <= cycles[0] < 1000
        for a, b in zip(cycles, cycles[1:]):
            assert 500 <= b - a < 1000
        assert tel.runlog.records[0]["sample_interval"] == 500
        assert stats.l2_snapshots
        assert _canonical(stats) == _canonical(plain)

    def test_instruction_deltas_sum_to_final_counts(self, telemetry_run):
        _, stats, tel = telemetry_run
        for sid, sstat in stats.streams.items():
            sampled = sum(r["streams"].get(str(sid), {})
                          .get("instructions", 0)
                          for r in tel.metrics.samples)
            # Instructions issued after the last sample tick are not in the
            # series; the sampled sum can only under-count.
            assert 0 < sampled <= sstat.instructions

    def test_series_matches_golden(self):
        """The whole sampled series of SPL+VIO nano under tap is pinned.

        Samples read counters mid-run (per-stream instructions, L1/L2
        traffic, stall classes, MSHR and queue backlogs), so this pins
        what an end-of-run stats golden cannot: when each counter moves.
        Regenerate deliberately with ``json.dump(sampled_series(),
        f, indent=1, sort_keys=True)``; ``regen-goldens`` does not touch
        it.
        """
        with open(os.path.join(GOLDEN_DIR, TELEMETRY_GOLDEN), "r",
                  encoding="utf-8") as f:
            golden = json.load(f)
        assert sampled_series() == golden

    def test_pull_hook_fields_present(self, telemetry_run):
        _, _, tel = telemetry_run
        config = get_preset("JetsonOrin-mini")
        for record in tel.metrics.samples:
            assert record["l1_mshr_inflight"] >= 0
            assert record["l2_mshr_inflight"] >= 0
            assert len(record["l2_bank_queues"]) == config.l2_banks
            assert record["dram_backlog"] >= 0


class TestTraceEvents:
    def test_span_pairs_balanced_by_id(self, telemetry_run):
        _, _, tel = telemetry_run
        begins = {}
        for ev in tel.sink.events:
            if ev["ph"] == "b":
                assert ev["id"] not in begins
                begins[ev["id"]] = ev
            elif ev["ph"] == "e":
                b = begins.pop(ev["id"])
                assert b["name"] == ev["name"]
                assert b["ts"] <= ev["ts"]
        assert not begins, "unclosed spans: %s" % sorted(begins)

    def test_kernel_spans_cover_all_kernels(self, reference_workload,
                                            telemetry_run):
        _, streams = reference_workload
        _, _, tel = telemetry_run
        want = sum(len(kernels) for kernels in streams.values())
        got = sum(1 for ev in tel.sink.events
                  if ev["ph"] == "b" and ev["cat"] == "kernel")
        assert got == want

    def test_cta_spans_carry_launch_to_retire(self, telemetry_run):
        _, _, tel = telemetry_run
        cta_begins = [ev for ev in tel.sink.events
                      if ev["ph"] == "b" and ev["cat"] == "cta"]
        assert cta_begins
        for ev in cta_begins:
            assert ev["pid"] == 1  # SM rows
            assert "stream" in ev["args"]

    def test_trace_file_is_valid_chrome_trace(self, telemetry_run, tmp_path):
        _, _, tel = telemetry_run
        path = str(tmp_path / "trace.json")
        tel.sink.write(path)
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        assert isinstance(doc["traceEvents"], list)
        assert {"ph", "pid", "name"} <= set(doc["traceEvents"][0])
        names = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
        assert any(ev["name"] == "process_name" for ev in names)


class TestRepartitionEvents:
    def test_tap_emits_repartition_records(self, reference_workload):
        config, streams = reference_workload
        tel = Telemetry(sample_interval=None)
        result = simulate(config=config, streams=streams, policy="tap",
                          telemetry=tel)
        pol = result.policy
        reparts = [r for r in tel.runlog.records
                   if r["kind"] == "repartition"]
        assert len(reparts) == len(pol.partition_history)
        for record, (cycle, ratios) in zip(reparts, pol.partition_history):
            assert record["cycle"] == cycle
            assert record["detail"]["sets_per_bank"] == \
                {str(s): n for s, n in ratios.items()}
        instants = [ev for ev in tel.sink.events if ev["ph"] == "i"]
        assert len(instants) == len(reparts)


class TestRunLog:
    def test_header_and_final_records(self, telemetry_run, tmp_path):
        config, stats, tel = telemetry_run
        out = tmp_path / "tel"
        tel.out_dir = str(out)
        tel._closed = False
        paths = tel.close()
        records = read_jsonl(paths["metrics"])
        header = records[0]
        assert header["kind"] == "header"
        assert header["schema"] == 1
        assert header["config_fingerprint"] == config.fingerprint()
        assert header["policy"] == "mps"
        assert header["streams"] == [0, 1]
        final = records[-1]
        assert final["kind"] == "final"
        assert final["cycles"] == stats.cycles
        assert final["total_instructions"] == stats.total_instructions
        n_samples = sum(1 for r in records if r["kind"] == "sample")
        assert n_samples == final["samples"] == len(tel.metrics.samples)


class TestCampaignHeartbeats:
    def test_heartbeat_records(self, tmp_path):
        from repro.campaign import CampaignRunner, Job
        runner = CampaignRunner(workers=1, cache=None,
                                telemetry_dir=str(tmp_path))
        jobs = [Job(compute="VIO", config="JetsonOrin-mini")]
        campaign = runner.run(jobs)
        assert campaign.ok
        records = read_jsonl(runner.heartbeat_path)
        kinds = [r["kind"] for r in records]
        assert kinds == ["campaign_start", "job_start", "job_done",
                         "campaign_end"]
        start = records[0]
        assert start["jobs"] == 1
        assert start["campaign_id"] == campaign.campaign_id
        done = records[2]
        assert done["status"] == "ok"
        assert done["fingerprint"] == jobs[0].fingerprint()
        assert done["wall_seconds"] > 0
        end = records[3]
        assert end["executed"] == 1 and end["failed"] == 0


class TestCLISurface:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        from repro.compute import build_compute_workload
        from repro.isa import save_traces
        tmp = tmp_path_factory.mktemp("traces")
        path = str(tmp / "vio.gz")
        save_traces(path, build_compute_workload("VIO"))
        return path

    def test_simulate_telemetry_then_render(self, traced, tmp_path, capsys):
        from repro.cli import main
        tel_dir = str(tmp_path / "tel")
        assert main(["simulate", "--compute", traced,
                     "--telemetry", tel_dir]) == 0
        assert os.path.exists(os.path.join(tel_dir, "metrics.jsonl"))
        assert os.path.exists(os.path.join(tel_dir, "trace.json"))
        capsys.readouterr()
        assert main(["telemetry", tel_dir]) == 0
        out = capsys.readouterr().out
        assert "stall attribution" in out
        assert "kernel timeline" in out

    def test_telemetry_cmd_rejects_empty_dir(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["telemetry", str(tmp_path)]) == 2

    def test_simulate_csv_timeline_satellite(self, traced, tmp_path):
        from repro.cli import main
        csv_path = str(tmp_path / "stats.csv")
        assert main(["simulate", "--compute", traced,
                     "--sample-interval", "200", "--csv", csv_path]) == 0
        occ = str(tmp_path / "stats_occupancy_timeline.csv")
        assert os.path.exists(occ)
        with open(occ) as f:
            header = f.readline().strip().split(",")
        assert header == ["cycle", "stream", "warps", "total_warp_slots",
                          "occupancy"]
        l2 = str(tmp_path / "stats_l2_timeline.csv")
        assert os.path.exists(l2)
        # The L2 composition series: one row per (sample, data class),
        # equal to the stats of the same run.
        from repro.core import COMPUTE_STREAM
        from repro.isa import load_traces
        stats = simulate(config=get_preset("JetsonOrin-mini"),
                         streams={COMPUTE_STREAM: load_traces(traced)},
                         policy="mps", sample_interval=200).stats
        assert stats.l2_snapshots
        with open(str(tmp_path / "stats_l2_class_timeline.csv")) as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0]) == ["cycle", "data_class", "lines",
                                 "total_lines", "share"]
        snapshots = {cycle: {cls.value: n for cls, n in comp.items()}
                     for cycle, comp in stats.l2_snapshots}
        series = {}
        for row in rows:
            cycle = int(row["cycle"])
            series.setdefault(cycle, {})[row["data_class"]] = int(row["lines"])
            assert int(row["total_lines"]) == sum(snapshots[cycle].values())
        assert series == snapshots

    def test_simulate_rejects_vlog(self, traced, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["simulate", "--compute", traced,
                  "--vlog", str(tmp_path / "run.vlog")])
