"""repro.service: run repository round-trips, backfill idempotency,
concurrent writers, job-queue dedupe, and the dashboard HTTP surface."""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.campaign.execute as execute_mod
import repro.campaign.runner as runner_mod
import repro.service.queue as queue_mod
from repro.campaign.execute import STATUS_FAILED, STATUS_OK, JobResult
from repro.campaign.job import Job
from repro.cli import main
from repro.service import RunRepository
from repro.service.ingest import backfill
from repro.service.queue import (
    STATE_CACHED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    JobQueue,
)
from repro.service.records import classify_document, content_key

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO_ROOT, "tests", "golden")
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")


def _stats_doc(cycles=1200, instructions=900):
    return {
        "cycles": cycles,
        "streams": {"0": {"instructions": instructions, "busy_cycles": 800,
                          "stall_cycles": 300}},
        "occupancy_trace": [],
        "l2_snapshots": [],
        "l2_stream_snapshots": [],
    }


def _run_record(label="unit", cycles=1200, wall=2.0):
    return {
        "kind": "run",
        "label": label,
        "config_fingerprint": "f" * 16,
        "config_name": "JetsonOrin-mini",
        "policy": "mps",
        "cycles": cycles,
        "instructions": 900,
        "wall_seconds": wall,
        "stats": _stats_doc(cycles),
    }


def _job(policy="mps"):
    return Job(scene="SPL", res="nano", compute="HOLO", policy=policy)


def _fake_group(jobs, timeout=None):
    """``run_group_guarded`` double: plausible stats, no simulation.

    Queue jobs run in forked worker processes, which inherit the patch;
    a list appended there never reaches the test, so tests count
    simulations with ``JobQueue.simulated``.
    """
    for job in jobs:
        yield JobResult(fingerprint=job.fingerprint(),
                        label=job.display_label, status=STATUS_OK,
                        wall_seconds=0.01, stats=_stats_doc())


@pytest.fixture
def fake_group(monkeypatch):
    monkeypatch.setattr(runner_mod, "run_group_guarded", _fake_group)


class TestRepositoryRoundTrip:
    def test_stats_record_round_trips(self, tmp_path):
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        rid = repo.add_record(_run_record())
        detail = repo.get(rid)
        assert detail["label"] == "unit"
        assert detail["policy"] == "mps"
        assert detail["stats"] == _stats_doc()
        assert detail["instructions_per_second"] == pytest.approx(900 / 2.0)

    def test_simrate_round_trips_and_normalises_schema1(self, tmp_path):
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        old = {"workload": "SPL+HOLO", "instructions": 5000,
               "cycles": 800, "wall_seconds": 2.0,
               "instructions_per_second": 2500.0}
        rid = repo.add_simrate(old)
        detail = repo.get(rid)
        assert detail["kind"] == "simrate"
        assert detail["label"] == "SPL+HOLO"
        assert detail["simrate"]["schema"] == 1
        assert detail["simrate"]["config_fingerprint"] is None
        assert detail["instructions_per_second"] == 2500.0

    def test_qos_round_trips_without_events(self, tmp_path):
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        report = {"kind": "qos-report", "scenario": {"name": "bursty"},
                  "seed": 7, "policy": "adaptive", "total_cycles": 90000,
                  "config": {"name": "JetsonOrin-mini", "fingerprint": "ab"},
                  "clients": {"cam": {"frame_time_cycles": {
                      "p50": 10, "p95": 20, "p99": 30, "max": 40,
                      "count": 5}}},
                  "events": [{"cycle": 1}]}
        rid = repo.add_qos(report)
        detail = repo.get(rid)
        assert detail["kind"] == "qos"
        assert detail["cycles"] == 90000
        assert detail["qos"]["clients"]["cam"]["frame_time_cycles"][
            "p99"] == 30
        assert "events" not in detail["qos"]  # non-canonical, stripped

    def test_list_and_filter(self, tmp_path):
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        repo.add_record(_run_record("a"))
        repo.add_record(_run_record("b", cycles=999))
        assert [r["label"] for r in repo.list_runs()] == ["b", "a"]
        assert [r["label"] for r in repo.list_runs(label="a")] == ["a"]
        assert repo.counts()["runs"] == 2

    def test_compare_groups_by_fingerprint_and_label(self, tmp_path):
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        repo.add_record(_run_record("w", wall=2.0))
        repo.add_record(_run_record("w", wall=1.0, cycles=1201))
        groups = repo.compare()
        assert len(groups) == 1
        (group,) = groups
        assert len(group["runs"]) == 2
        assert group["best_instructions_per_second"] == pytest.approx(900.0)
        assert group["latest_instructions_per_second"] == pytest.approx(
            900.0)

    def test_gc_keep(self, tmp_path):
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        for i in range(5):
            repo.add_record(_run_record("r%d" % i, cycles=100 + i))
        assert repo.gc(keep=2) == 3
        assert repo.counts()["runs"] == 2


class TestIdempotentIngest:
    def test_same_record_inserts_once(self, tmp_path):
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        a = repo.add_record(_run_record())
        b = repo.add_record(_run_record())
        assert a == b
        assert repo.counts()["runs"] == 1

    def test_wall_clock_is_not_identity(self, tmp_path):
        """A cache-served re-run (same stats, different wall) dedupes."""
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        a = repo.add_record(_run_record(wall=2.0))
        b = repo.add_record(_run_record(wall=9.0))
        assert a == b

    def test_backfill_twice_adds_nothing(self, tmp_path):
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        first = backfill(repo, [BENCH_DIR, GOLDEN_DIR])
        assert first["records"] > 0
        total = repo.counts()["runs"]
        second = backfill(repo, [BENCH_DIR, GOLDEN_DIR])
        assert second["files"] == first["files"]
        assert repo.counts()["runs"] == total

    def test_backfill_covers_bench_goldens_and_qos(self, tmp_path):
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        backfill(repo, [BENCH_DIR, GOLDEN_DIR])
        kinds = repo.counts()["by_kind"]
        assert kinds.get("simrate", 0) > 0     # BENCH_timing.json rows
        assert kinds.get("qos", 0) > 0         # QoS goldens + BENCH_qos
        assert kinds.get("run", 0) >= 6        # six policy golden snapshots

    def test_classifier_identifies_every_shape(self):
        assert classify_document({"runs": [], "baseline": None}) == "bench"
        assert classify_document({"kind": "qos-report"}) == "qos-report"
        assert classify_document({"rows": [], "headline": {}}) \
            == "qos-campaign"
        assert classify_document({"campaign_id": "c", "jobs": []}) \
            == "campaign-summary"
        assert classify_document({"campaign_id": "c", "jobs": {}}) \
            == "campaign-manifest"
        assert classify_document(_stats_doc()) == "stats"
        assert classify_document({"kind": "run", "stats": {}}) \
            == "run-record"
        assert classify_document({"unrelated": 1}) is None
        assert classify_document([1, 2]) is None

    def test_content_key_strips_volatile_keys(self):
        a = content_key("x", {"cycles": 5, "wall_seconds": 1.0})
        b = content_key("x", {"cycles": 5, "wall_seconds": 9.9})
        c = content_key("x", {"cycles": 6, "wall_seconds": 1.0})
        assert a == b != c


class TestConcurrentWriters:
    def test_parallel_threads_all_land(self, tmp_path):
        """WAL + per-call connections: no 'database is locked' failures."""
        path = str(tmp_path / "runs.sqlite")
        repo = RunRepository(path)
        errors = []

        def write(tid):
            try:
                mine = RunRepository(path)
                for i in range(10):
                    mine.add_record(_run_record("t%d-%d" % (tid, i),
                                                cycles=1000 + tid * 100 + i))
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert repo.counts()["runs"] == 40


def _count_connects(monkeypatch):
    """Wrap ``sqlite3.connect``; returns the list of connections opened."""
    import sqlite3
    opened = []
    connect = sqlite3.connect

    def counting(*args, **kwargs):
        opened.append(connect(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(sqlite3, "connect", counting)
    return opened


class TestPerThreadConnection:
    def test_rows_visible_to_other_instances_and_threads(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        writer, reader = RunRepository(path), RunRepository(path)
        assert reader.counts()["runs"] == 0  # reader's connection is open
        run_id = writer.add_record(_run_record("seen"))
        assert reader.get(run_id)["label"] == "seen"
        assert reader.find_job("nope") is None
        other = []
        thread = threading.Thread(
            target=lambda: other.append(writer.get(run_id)))
        thread.start()
        thread.join()
        assert other[0]["label"] == "seen"

    def test_one_connection_until_close(self, tmp_path, monkeypatch):
        opened = _count_connects(monkeypatch)
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        repo.add_record(_run_record("a"))
        repo.list_runs()
        repo.counts()
        assert len(opened) == 1
        repo.close()
        repo.close()  # closing twice is harmless
        assert repo.counts()["runs"] == 1
        assert len(opened) == 2

    def test_forked_child_opens_its_own(self, tmp_path, monkeypatch):
        opened = _count_connects(monkeypatch)
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        parent_pid = os.getpid()
        monkeypatch.setattr(os, "getpid", lambda: parent_pid + 1)
        repo.add_record(_run_record("child"))
        assert len(opened) == 2
        assert repo.counts()["runs"] == 1
        assert len(opened) == 2

    def test_gc_vacuums_on_the_cached_connection(self, tmp_path):
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        for i in range(3):
            repo.add_record(_run_record("r%d" % i, cycles=1000 + i))
        assert repo.gc(keep=1) == 2
        assert [r["label"] for r in repo.list_runs()] == ["r2"]
        repo.add_record(_run_record("after"))
        assert repo.counts()["runs"] == 2


class TestJobQueueDedupe:
    def test_duplicate_fingerprint_served_from_repository(self, tmp_path,
                                                          fake_group):
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        queue = JobQueue(repo, workers=2)
        try:
            first = queue.submit(_job())
            assert queue.join(30)
            assert first.state == STATE_DONE
            assert first.run_id is not None
            second = queue.submit(_job())
            assert second.state == STATE_CACHED
            assert second.cached
            assert second.run_id == first.run_id
            assert queue.simulated == 1  # the second never simulated
        finally:
            queue.shutdown()

    def test_distinct_fingerprints_both_simulate(self, tmp_path,
                                                 fake_group):
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        queue = JobQueue(repo, workers=2)
        try:
            entries = [queue.submit(_job("mps")), queue.submit(_job("mig"))]
            assert queue.join(30)
            assert queue.simulated == 2
            assert len({e.fingerprint for e in entries}) == 2
            assert len({e.run_id for e in entries}) == 2
        finally:
            queue.shutdown()

    def test_failed_job_reports_error(self, tmp_path, monkeypatch):
        repo = RunRepository(str(tmp_path / "runs.sqlite"))

        def failing(jobs, timeout=None):
            for job in jobs:
                yield JobResult(fingerprint=job.fingerprint(),
                                label=job.display_label,
                                status=STATUS_FAILED, error="boom")

        monkeypatch.setattr(runner_mod, "run_group_guarded", failing)
        queue = JobQueue(repo, workers=1)
        try:
            entry = queue.submit(_job())
            assert queue.join(30)
            assert entry.state == STATE_FAILED
            assert entry.error == "boom"
            assert queue.simulated == 0
        finally:
            queue.shutdown()

    def test_events_are_monotonic_and_complete(self, tmp_path, fake_group):
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        queue = JobQueue(repo, workers=1)
        try:
            queue.submit(_job())
            assert queue.join(30)
            events = queue.events()
            assert [e["seq"] for e in events] == list(
                range(1, len(events) + 1))
            kinds = [e["kind"] for e in events]
            assert kinds[0] == "job_queued"
            assert "job_running" in kinds and "job_done" in kinds
        finally:
            queue.shutdown()


@pytest.fixture
def live_queue(tmp_path):
    """A two-worker queue behind a live server, torn down per test."""
    from repro.service.server import DashboardServer

    repo = RunRepository(str(tmp_path / "runs.sqlite"))
    queue = JobQueue(repo, workers=2)
    server = DashboardServer(repo, queue=queue, port=0).start()
    yield server, repo, queue
    server.stop()
    queue.shutdown()


def _post(server, doc):
    req = urllib.request.Request(
        server.url + "/submit", data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(req, timeout=15) as resp:
        assert resp.status == 202
        return json.load(resp)


class TestBoundedQueueJobs:
    """Every submission runs as a campaign in a worker process."""

    def test_campaign_submission_is_stored_with_heartbeats(self, tmp_path,
                                                           fake_group):
        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        queue = JobQueue(repo, workers=2)
        try:
            entries = queue.submit_campaign([_job("mps"), _job("mig")],
                                            workers=2)
            assert queue.join(30)
            assert [e.state for e in entries] == [STATE_DONE, STATE_DONE]
            for entry in entries:
                stored = repo.find_job(entry.fingerprint)
                assert stored is not None
                assert stored["id"] == entry.run_id
            assert queue.simulated == 2
            beats = [e["beat"] for e in queue.events()
                     if e["kind"] == "heartbeat"]
            assert beats[0] == "campaign_start"
            assert beats[-1] == "campaign_end"
            assert beats.count("job_done") == 2
        finally:
            queue.shutdown()

    def test_hung_job_times_out_while_runs_serve(self, live_queue,
                                                 monkeypatch):
        server, _, queue = live_queue
        monkeypatch.setattr(queue_mod, "JOB_TIMEOUT_S", 0.5)
        monkeypatch.setattr(execute_mod, "_collect",
                            lambda job: time.sleep(60))
        started = time.monotonic()
        entry = queue.submit(_job())
        status, _, _ = _get(server, "/runs")
        assert status == 200
        assert entry.state in (STATE_QUEUED, STATE_RUNNING)
        assert queue.join(30)
        assert entry.state == STATE_FAILED
        assert "timed out" in entry.error
        assert time.monotonic() - started < 30
        assert queue.simulated == 0

    def test_killed_worker_fails_and_queue_recovers(self, live_queue,
                                                    monkeypatch):
        server, _, queue = live_queue
        test_pid = os.getpid()

        def killing(jobs, timeout=None):
            if jobs[0].policy == "mig" and os.getpid() != test_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return _fake_group(jobs, timeout)

        monkeypatch.setattr(runner_mod, "run_group_guarded", killing)
        killed = queue.submit(_job("mig"))
        assert queue.join(30)
        assert killed.state == STATE_FAILED
        assert "worker process died" in killed.error
        doc = _post(server, _job("mps").to_dict())
        assert queue.join(30)
        assert queue.get(doc["job_id"]).state == STATE_DONE
        assert queue.simulated == 1

    def test_submit_workers_clamped_to_queue(self, live_queue,
                                             monkeypatch):
        """A client's ``workers`` cannot size the pool past the queue's;
        the stub runner starts no pool."""
        from repro.campaign.runner import CampaignResult

        server, _, queue = live_queue
        built = []

        class StubRunner:
            def __init__(self, workers=1, **kwargs):
                built.append(workers)

            def run(self, jobs):
                return CampaignResult(campaign_id="stub", jobs=list(jobs),
                                      results=[JobResult(
                                          fingerprint=j.fingerprint(),
                                          label=j.display_label,
                                          status=STATUS_FAILED,
                                          error="stub") for j in jobs])

        monkeypatch.setattr(runner_mod, "CampaignRunner", StubRunner)
        doc = _post(server, {"jobs": [_job(p).to_dict()
                                      for p in ("mps", "mig", "tap")],
                             "workers": 1000000})
        assert len(doc["jobs"]) == 3
        assert queue.join(30)
        queue.submit_campaign([_job("fg-even")], workers=-5)
        assert queue.join(30)
        assert built == [queue.workers, 1]


@pytest.fixture(scope="module")
def serve_stack(tmp_path_factory):
    """One repository + queue + live server shared by the HTTP tests."""
    from repro.service.server import DashboardServer

    tmp = tmp_path_factory.mktemp("serve")
    repo = RunRepository(str(tmp / "runs.sqlite"))
    backfill(repo, [BENCH_DIR])
    queue = JobQueue(repo, workers=1)
    server = DashboardServer(repo, queue=queue, port=0).start()
    yield server, repo, queue
    server.stop()
    queue.shutdown()


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=15) as resp:
        return resp.status, resp.headers.get_content_type(), resp.read()


class TestServeSmoke:
    def test_dashboard_html(self, serve_stack):
        server, _, _ = serve_stack
        status, ctype, body = _get(server, "/")
        assert status == 200 and ctype == "text/html"
        text = body.decode("utf-8")
        for needle in ("Sim-rate trend", "Kernel timeline", "Queue",
                       "EventSource"):
            assert needle in text

    def test_summary(self, serve_stack):
        server, repo, _ = serve_stack
        _, _, body = _get(server, "/summary")
        doc = json.loads(body)
        assert doc["runs"] == repo.counts()["runs"] > 0
        assert doc["queue"]["workers"] == 1

    def test_runs_and_detail(self, serve_stack):
        server, _, _ = serve_stack
        _, _, body = _get(server, "/runs?limit=5")
        runs = json.loads(body)["runs"]
        assert 0 < len(runs) <= 5
        _, _, body = _get(server, "/runs/%d" % runs[0]["id"])
        detail = json.loads(body)
        assert detail["id"] == runs[0]["id"]
        assert "stats" in detail and "qos" in detail  # payload keys present

    def test_compare_groups(self, serve_stack):
        server, _, _ = serve_stack
        _, _, body = _get(server, "/compare")
        groups = json.loads(body)["groups"]
        assert groups, "BENCH backfill should produce trend groups"
        assert all("best_instructions_per_second" in g for g in groups)

    def test_queue_and_submit_dedupe_over_http(self, serve_stack,
                                               fake_group):
        server, _, queue = serve_stack
        spec = {"scene": "SPL", "res": "nano", "compute": "HOLO",
                "policy": "tap"}
        _post(server, spec)
        assert queue.join(30)
        before = queue.simulated
        second = _post(server, spec)
        assert second["cached"] is True
        assert queue.simulated == before  # duplicate returned unsimulated
        _, _, body = _get(server, "/queue")
        snapshot = json.loads(body)
        states = {j["state"] for j in snapshot["jobs"]}
        assert STATE_DONE in states and STATE_CACHED in states

    def test_events_json_and_sse(self, serve_stack, fake_group):
        server, _, queue = serve_stack
        _post(server, {"scene": "SPL", "res": "nano", "compute": "HOLO",
                       "policy": "mig"})
        assert queue.join(30)
        _, _, body = _get(server, "/events.json")
        events = json.loads(body)["events"]
        assert events and events[0]["seq"] == 1
        status, ctype, body = _get(server, "/events?limit=2&poll=0.2")
        assert status == 200 and ctype == "text/event-stream"
        frames = body.decode("utf-8")
        assert "data: " in frames and "event: " in frames

    def test_stop_returns_promptly(self, tmp_path):
        from repro.service.server import DashboardServer

        server = DashboardServer(RunRepository(str(tmp_path / "r.sqlite")))
        server.start()
        _get(server, "/summary")  # serve_forever restarts its poll wait
        start = time.perf_counter()
        server.stop()
        assert time.perf_counter() - start < 0.25

    def test_bad_run_id_is_404(self, serve_stack):
        server, _, _ = serve_stack
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/runs/999999")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/nope")
        assert err.value.code == 404


class TestTelemetryViewsInRepository:
    @pytest.fixture(scope="class")
    def telemetry_dir(self, tmp_path_factory):
        from repro.core.platform import collect_streams
        from repro.api import simulate
        from repro.config import get_preset
        from repro.telemetry import Telemetry

        out = str(tmp_path_factory.mktemp("tel") / "run")
        config = get_preset("JetsonOrin-mini")
        streams = collect_streams(config, scene="SPL", res="nano",
                                  compute="HOLO")
        tel = Telemetry(out_dir=out, sample_interval=1000, label="svc-test")
        simulate(config=config, streams=streams, policy="mps",
                 telemetry=tel)
        tel.close()
        return out

    def test_loader_renderer_split_matches_legacy(self, telemetry_dir):
        from repro.harness.report import (
            load_telemetry_views,
            render_telemetry_summary,
            render_telemetry_views,
        )
        views = load_telemetry_views(telemetry_dir)
        assert views["kernel_spans"] and views["ipc_series"]
        assert render_telemetry_views(views) \
            == render_telemetry_summary(telemetry_dir)

    def test_ingested_views_render_without_loose_files(self, telemetry_dir,
                                                       tmp_path, capsys):
        from repro.harness.report import render_telemetry_views

        db = str(tmp_path / "runs.sqlite")
        repo = RunRepository(db)
        backfill(repo, [telemetry_dir])
        (run,) = repo.list_runs(source="telemetry")
        detail = repo.get(run["id"])
        assert detail["views"]["kernel_spans"]
        expected = render_telemetry_views(detail["views"])
        assert "kernel timeline" in expected
        # CLI renders the stored run from the database alone.
        assert main(["telemetry", "--run", str(run["id"]),
                     "--db", db]) == 0
        assert capsys.readouterr().out == expected

    def test_telemetry_run_missing_is_error(self, tmp_path, capsys):
        db = str(tmp_path / "runs.sqlite")
        RunRepository(db)
        assert main(["telemetry", "--run", "42", "--db", db]) == 2
        assert "no run 42" in capsys.readouterr().err


class TestCliDb:
    def test_ingest_ls_show_gc(self, tmp_path, capsys):
        db = str(tmp_path / "runs.sqlite")
        assert main(["db", "ingest", BENCH_DIR, "--db", db,
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "ingested" in out
        assert main(["db", "ls", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "simrate" in out or "qos" in out
        first_id = int(out.splitlines()[1].split()[0])
        assert main(["db", "show", str(first_id), "--db", db]) == 0
        detail = json.loads(capsys.readouterr().out)
        assert detail["id"] == first_id
        assert main(["db", "gc", "--keep", "3", "--db", db]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["db", "ls", "--db", db, "--limit", "10"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4  # header + 3

    def test_gc_requires_a_filter(self, tmp_path, capsys):
        db = str(tmp_path / "runs.sqlite")
        assert main(["db", "gc", "--db", db]) == 2
        assert "give --keep" in capsys.readouterr().err


class TestCampaignRepositorySink:
    def test_runner_ingests_finished_jobs(self, tmp_path):
        """submit_campaign: results land in the repository and heartbeats
        reach subscribers, using the real CampaignRunner (workers=1) with
        a stubbed executor."""
        from repro.campaign.runner import CampaignRunner

        repo = RunRepository(str(tmp_path / "runs.sqlite"))
        beats = []
        runner = CampaignRunner(workers=1, cache=None, repository=repo,
                                heartbeat_sink=beats.append)
        job = _job()
        import repro.campaign.runner as runner_mod
        original = runner_mod.run_group_guarded
        runner_mod.run_group_guarded = lambda js, t: iter([JobResult(
            fingerprint=j.fingerprint(), label=j.display_label,
            status=STATUS_OK, wall_seconds=0.01, stats=_stats_doc())
            for j in js])
        try:
            campaign = runner.run([job])
        finally:
            runner_mod.run_group_guarded = original
        assert campaign.ok
        stored = repo.find_job(job.fingerprint())
        assert stored is not None
        assert stored["policy"] == "mps"
        kinds = [b["kind"] for b in beats]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_end"
        assert "job_done" in kinds
