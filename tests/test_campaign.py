"""Tests for the campaign subsystem: fingerprints, cache, resume,
parallel-equals-serial determinism."""

import json
import os
import threading

import pytest

from repro.campaign import (
    CampaignRunner,
    Job,
    ResultCache,
    campaign_id,
    run_campaign,
)
from repro.cli import main
from repro.config import JETSON_ORIN_MINI, RTX_3070_MINI
from repro.core import COMPUTE_STREAM, GRAPHICS_STREAM
from repro.isa import save_traces


def nano_job(policy="mps", **kw):
    kw.setdefault("scene", "SPL")
    kw.setdefault("compute", "VIO")
    kw.setdefault("res", "nano")
    kw.setdefault("config", "JetsonOrin-mini")
    return Job(policy=policy, **kw)


SWEEP_POLICIES = ("mps", "mig", "fg-even", "tap")


def sweep_jobs():
    """The canonical 4-job policy sweep used across these tests."""
    return [nano_job(policy) for policy in SWEEP_POLICIES]


class TestJobFingerprint:
    def test_stable_across_instances(self):
        assert nano_job().fingerprint() == nano_job().fingerprint()

    def test_sensitive_to_spec(self):
        base = nano_job().fingerprint()
        assert nano_job("fg-even").fingerprint() != base
        assert nano_job(scene="PT").fingerprint() != base
        assert nano_job(res="2k").fingerprint() != base
        assert nano_job(config="RTX3070-mini").fingerprint() != base
        assert nano_job(params={"rep": 2}).fingerprint() != base

    def test_label_is_not_identity(self):
        assert nano_job(label="a").fingerprint() == \
            nano_job(label="b").fingerprint()

    def test_preset_name_and_config_object_agree(self):
        assert nano_job(config="JetsonOrin-mini").fingerprint() == \
            nano_job(config=JETSON_ORIN_MINI).fingerprint()

    def test_params_order_insensitive(self):
        a = nano_job(params={"a": 1, "b": 2})
        b = nano_job(params={"b": 2, "a": 1})
        assert a.fingerprint() == b.fingerprint()

    def test_trace_file_keys_by_content(self, tmp_path):
        from repro.compute import build_vio_kernels
        kernels = build_vio_kernels()
        p1, p2 = str(tmp_path / "a.gz"), str(tmp_path / "b.gz")
        save_traces(p1, kernels, metadata={"workload": "VIO"})
        save_traces(p2, kernels, metadata={"workload": "VIO"})
        assert Job(compute_trace=p1).fingerprint() == \
            Job(compute_trace=p2).fingerprint()

    def test_to_from_dict_preserves_identity(self):
        job = nano_job("tap", params={"x": 1}, config=RTX_3070_MINI)
        restored = Job.from_dict(json.loads(json.dumps(job.to_dict())))
        assert restored.fingerprint() == job.fingerprint()
        assert restored.display_label == job.display_label

    def test_legacy_execution_fields_load_and_drop(self):
        """Job files and submissions written when jobs
        carried an execution plan still load, and key identically."""
        plain = nano_job("tap").to_dict()
        for legacy in ({"execution": {"engine": "process", "workers": 2}},
                       {"workers": 4}):
            job = Job.from_dict({**plain, **legacy})
            assert job.fingerprint() == Job.from_dict(plain).fingerprint()
            assert job.execution is None
            assert "execution" not in job.to_dict()
        with pytest.raises(ValueError, match="unknown job fields"):
            Job.from_dict({**plain, "engine": "process"})

    def test_rejects_empty_and_conflicting_specs(self):
        with pytest.raises(ValueError):
            Job()
        with pytest.raises(ValueError):
            Job(scene="SPL", graphics_trace="x.gz")
        with pytest.raises(ValueError):
            Job(compute="VIO", compute_trace="x.gz")


class TestResultCache:
    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("0" * 64) is None
        assert "0" * 64 not in cache

    def test_home_is_expanded(self, tmp_path, monkeypatch):
        """``~`` in a cache or database path names the home directory,
        never a directory called ``~`` in the working directory."""
        from repro.service import RunRepository
        home, cwd = tmp_path / "home", tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.chdir(cwd)
        campaign = run_campaign([Job(compute="VIO")],
                                cache_dir="~/.cache/example")
        assert campaign.ok
        assert len(ResultCache(str(home / ".cache" / "example"))) == 1
        monkeypatch.setenv("REPRO_CAMPAIGN_CACHE", "~/env-cache")
        assert ResultCache().root == str(home / "env-cache")
        assert RunRepository("~/db/a.sqlite").path == \
            str(home / "db" / "a.sqlite")
        monkeypatch.setenv("REPRO_DB", "~/db/b.sqlite")
        assert RunRepository().path == str(home / "db" / "b.sqlite")
        assert os.listdir(str(cwd)) == []

    def test_telemetry_dir_and_summary_expand_home(self, tmp_path,
                                                   monkeypatch):
        """``~`` in a heartbeat directory or a summary path names the home
        directory too."""
        home, cwd = tmp_path / "home", tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.chdir(cwd)
        campaign = run_campaign([Job(compute="VIO")], cache_dir="~/cache",
                                telemetry_dir="~/tele")
        campaign.write_summary("~/out/s.json")
        assert campaign.ok
        assert os.path.isfile(str(home / "tele" / "heartbeats.jsonl"))
        assert os.path.isfile(str(home / "out" / "s.json"))
        assert os.listdir(str(cwd)) == []

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = cache.path_for("ab" * 32)
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as f:
            f.write("{ not json")
        assert cache.get("ab" * 32) is None


class TestCampaignRunner:
    def test_miss_then_hit(self, tmp_path):
        jobs = [nano_job()]
        cold = run_campaign(jobs, cache_dir=str(tmp_path))
        assert (cold.executed, cold.cached) == (1, 0)
        warm = run_campaign(jobs, cache_dir=str(tmp_path))
        assert (warm.executed, warm.cached) == (0, 1)
        assert warm.results[0].status == "cached"
        assert warm.results[0].stats == cold.results[0].stats

    def test_resume_after_partial_run(self, tmp_path):
        jobs = sweep_jobs()
        first = run_campaign(jobs[:2], cache_dir=str(tmp_path))
        assert first.executed == 2
        resumed = run_campaign(jobs, cache_dir=str(tmp_path))
        assert (resumed.executed, resumed.cached) == (2, 2)
        assert [r.status for r in resumed.results] == \
            ["cached", "cached", "ok", "ok"]

    def test_resume_after_partial_failure(self, tmp_path):
        bad = Job(scene="SPL", compute="NOPE", res="nano")
        broken = [nano_job("mps"), bad, nano_job("fg-even")]
        first = run_campaign(broken, cache_dir=str(tmp_path))
        assert not first.ok
        assert (first.executed, first.failed) == (2, 1)
        assert first.results[1].status == "failed"
        assert "NOPE" in first.results[1].error
        assert first.results[1].attempts == 2  # retried once before failing
        # Fix the broken job and resubmit: only it simulates.
        fixed = [nano_job("mps"), nano_job("mig"), nano_job("fg-even")]
        second = run_campaign(fixed, cache_dir=str(tmp_path))
        assert second.ok
        assert (second.executed, second.cached) == (1, 2)

    def test_parallel_equals_serial(self, tmp_path):
        jobs = sweep_jobs()
        serial = run_campaign(jobs, workers=1)
        parallel = run_campaign(jobs, workers=2)
        assert [r.label for r in parallel.results] == \
            [r.label for r in serial.results]
        for s, p in zip(serial.results, parallel.results):
            assert p.stats == s.stats
            assert p.extras == s.extras

    def test_timeout_then_resume(self, tmp_path):
        jobs = [nano_job()]
        timed_out = run_campaign(jobs, cache_dir=str(tmp_path),
                                 timeout=0.001)
        assert timed_out.results[0].status == "timeout"
        assert not timed_out.ok
        recovered = run_campaign(jobs, cache_dir=str(tmp_path))
        assert recovered.ok and recovered.executed == 1

    def test_timeout_off_the_main_thread(self):
        """SIGALRM timers work only on the main thread, so a runner
        called from another thread runs its jobs in a worker process."""
        outcome = []
        thread = threading.Thread(target=lambda: outcome.append(
            CampaignRunner(timeout=60).run([nano_job()])))
        thread.start()
        thread.join(120)
        (campaign,) = outcome
        assert campaign.ok and campaign.executed == 1
        assert campaign.results[0].stats["cycles"] > 0

    def test_duplicate_jobs_simulate_once(self):
        campaign = run_campaign([nano_job(), nano_job()])
        assert campaign.executed == 1
        assert campaign.results[0].stats == campaign.results[1].stats

    def test_policy_extras_captured(self):
        campaign = run_campaign([nano_job("warped-slicer"),
                                 nano_job("tap")])
        slicer, tap = campaign.results
        assert "decisions" in slicer.extras
        assert slicer.extras["samples_taken"] >= 0
        assert "final_ratio" in tap.extras

    def test_summary_roundtrips_stats(self, tmp_path):
        from repro.timing import GPUStats
        campaign = run_campaign([nano_job()])
        out = str(tmp_path / "summary.json")
        campaign.write_summary(out)
        with open(out) as f:
            doc = json.load(f)
        assert doc["totals"]["jobs"] == 1
        job = doc["jobs"][0]
        stats = GPUStats.from_dict(job["stats"])
        assert stats.cycles == campaign.results[0].total_cycles
        assert stats.stream_cycles(GRAPHICS_STREAM) > 0
        assert stats.stream_cycles(COMPUTE_STREAM) > 0


def count_traces(monkeypatch, fail_scene=None, delay=0.0):
    """Wrap the campaign's ``collect_streams``; returns the call log.
    A job with scene ``fail_scene`` raises; ``delay`` sleeps first."""
    import time

    import repro.campaign.execute as execute_mod
    calls = []
    original = execute_mod.collect_streams

    def collect_streams(config, **kwargs):
        calls.append(kwargs)
        time.sleep(delay)
        if fail_scene is not None and kwargs.get("scene") == fail_scene:
            raise RuntimeError("injected trace failure")
        return original(config, **kwargs)

    monkeypatch.setattr(execute_mod, "collect_streams", collect_streams)
    return calls


class TestTraceGroups:
    def test_trace_key_ignores_simulation_only_fields(self):
        base = nano_job().trace_key()
        assert nano_job("tap", config="RTX3070-mini", sample_interval=500,
                        params={"rep": 2}).trace_key() == base
        assert nano_job(res="2k").trace_key() != base
        assert nano_job(lod_enabled=False).trace_key() != base
        assert nano_job(compute_args={"frames": 2}).trace_key() != base

    def test_fingerprint_covers_trace_key(self):
        """Equal fingerprints imply equal trace keys: the key is a part
        of the fingerprinted spec, not a second canonicalisation."""
        job = nano_job("tap", compute_args={"frames": 2})
        spec = job.spec_dict()
        assert {k: spec[k] for k in json.loads(job.trace_key())} == \
            json.loads(job.trace_key())

    def test_sweep_traces_once_and_matches_run_job(self, monkeypatch):
        from repro.campaign import run_job
        jobs = [nano_job(policy) for policy in ("mps", "tap", "mig")]
        calls = count_traces(monkeypatch)
        campaign = run_campaign(jobs)
        assert len(calls) == 1
        assert campaign.executed == 3
        for job, result in zip(jobs, campaign.results):
            alone = run_job(job)
            assert result.fingerprint == alone.fingerprint == \
                job.fingerprint()
            assert result.label == alone.label
            assert result.stats == alone.stats
            assert result.extras == alone.extras

    def test_chunking_splits_only_oversized_groups(self):
        a = [nano_job(p) for p in ("mps", "tap", "mig", "fg-even")]
        b = [nano_job(p, lod_enabled=False) for p in ("mps", "tap")]
        wave = [(i, job, job.fingerprint())
                for i, job in enumerate([a[0], b[0], a[1], a[2], b[1],
                                         a[3]])]
        assert CampaignRunner(workers=1)._chunks(wave) == \
            [[0, 2, 3, 5], [1, 4]]
        # ceil(6 / 2) = 3: the 4-job group splits, the 2-job one does not.
        assert CampaignRunner(workers=2)._chunks(wave) == \
            [[0, 2, 3], [5], [1, 4]]
        assert CampaignRunner(workers=6)._chunks(wave) == \
            [[0], [2], [3], [5], [1], [4]]

    def test_two_keys_parallel_equals_serial(self):
        jobs = [nano_job("mps"), nano_job("tap", lod_enabled=False),
                nano_job("tap"), nano_job("mps", lod_enabled=False)]
        serial = run_campaign(jobs, workers=1)
        parallel = run_campaign(jobs, workers=2)
        assert serial.ok and parallel.ok
        for s, p in zip(serial.results, parallel.results):
            assert (p.fingerprint, p.label, p.status) == \
                (s.fingerprint, s.label, s.status)
            assert p.stats == s.stats
            assert p.extras == s.extras

    def test_trace_failure_fails_its_group_only(self, monkeypatch):
        calls = count_traces(monkeypatch, fail_scene="SPL")
        jobs = [nano_job("mps"), Job(compute="VIO"), nano_job("tap")]
        campaign = run_campaign(jobs)
        # One trace per group per attempt: SPL twice (retried), VIO once.
        assert [c["scene"] for c in calls] == ["SPL", None, "SPL"]
        failed_mps, vio, failed_tap = campaign.results
        for result in (failed_mps, failed_tap):
            assert result.status == "failed"
            assert result.attempts == 2
            assert "injected trace failure" in result.error
        assert vio.status == "ok" and vio.attempts == 1
        assert vio.stats == run_campaign([Job(compute="VIO")]).results[0].stats

    def test_trace_timeout_times_out_group(self, monkeypatch):
        count_traces(monkeypatch, delay=5.0)
        campaign = run_campaign([nano_job("mps"), nano_job("tap")],
                                timeout=0.2, retries=0)
        assert [r.status for r in campaign.results] == \
            ["timeout", "timeout"]


class TestCampaignCLI:
    def test_cross_product_sweep(self, tmp_path, capsys):
        out = str(tmp_path / "s.json")
        rc = main(["campaign", "--scene", "SPL", "--compute", "VIO",
                   "--policy", "mps", "fg-even", "--res", "nano",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--out", out, "--quiet"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "2 executed" in printed
        with open(out) as f:
            doc = json.load(f)
        assert [j["status"] for j in doc["jobs"]] == ["ok", "ok"]

    def test_spec_file(self, tmp_path, capsys):
        spec = str(tmp_path / "jobs.json")
        with open(spec, "w") as f:
            json.dump({"jobs": [nano_job().to_dict()]}, f)
        assert main(["campaign", "--spec", spec, "--no-cache",
                     "--quiet"]) == 0
        assert "1 executed" in capsys.readouterr().out

    def test_requires_some_workload(self, capsys):
        assert main(["campaign", "--quiet"]) == 2


def broken_job():
    """A job whose trace fails at once (unknown compute workload)."""
    return Job(scene="SPL", compute="NOPE", res="nano")


class TestCampaignId:
    FPS = ("a" * 64, "b" * 64, "c" * 64)

    def test_ignores_order_and_duplicates(self):
        assert campaign_id(self.FPS) == "72400b18bd66d6b8"
        assert campaign_id(self.FPS[::-1] + self.FPS[:1]) == \
            "72400b18bd66d6b8"
        assert campaign_id(self.FPS[:2]) != campaign_id(self.FPS)

    def test_heartbeats_summary_and_cli_carry_it(self, tmp_path, capsys):
        jobs = [nano_job("mps"), nano_job("tap"), nano_job("mps")]
        cid = campaign_id([job.fingerprint() for job in jobs])
        spec, out = str(tmp_path / "jobs.json"), str(tmp_path / "s.json")
        with open(spec, "w") as f:
            json.dump({"jobs": [job.to_dict() for job in jobs]}, f)
        assert main(["campaign", "--spec", spec, "--no-cache", "--quiet",
                     "--out", out, "--telemetry", str(tmp_path)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("campaign %s: 3 jobs" % cid)
        with open(out) as f:
            assert json.load(f)["campaign_id"] == cid
        with open(str(tmp_path / "heartbeats.jsonl")) as f:
            beats = [json.loads(line) for line in f]
        assert [b["campaign_id"] for b in beats
                if b["kind"].startswith("campaign_")] == [cid, cid]


class TestFailureRecord:
    """A failure is not cached; the run repository keeps its status and
    error, as a ``campaign`` row stored when the job finishes."""

    def _repo(self, tmp_path):
        from repro.service import RunRepository
        return RunRepository(str(tmp_path / "runs.sqlite"))

    def test_stored_before_the_campaign_is_interrupted(self, tmp_path,
                                                       monkeypatch):
        """Killed in its third trace group, a campaign has stored the
        first job's run and the second job's failure; re-submitted, it
        simulates only what the cache lacks."""
        import repro.campaign.execute as execute_mod
        original = execute_mod.collect_streams

        def collect_streams(config, **kwargs):
            if kwargs.get("scene") is None:
                raise KeyboardInterrupt
            return original(config, **kwargs)

        monkeypatch.setattr(execute_mod, "collect_streams", collect_streams)
        repo = self._repo(tmp_path)
        cache_dir = str(tmp_path / "cache")
        jobs = [nano_job(), broken_job(), Job(compute="VIO")]
        with pytest.raises(KeyboardInterrupt):
            run_campaign(jobs, cache_dir=cache_dir, retries=0,
                         repository=repo)
        assert repo.counts()["by_kind"] == {"campaign": 1, "run": 1}
        (row,) = repo.list_runs(kind="campaign")
        assert row["job_fingerprint"] == broken_job().fingerprint()
        entry = repo.get(row["id"])["extras"]
        assert entry["status"] == "failed" and "NOPE" in entry["error"]
        assert repo.find_job(broken_job().fingerprint()) is None
        monkeypatch.undo()
        resumed = run_campaign([jobs[0], jobs[2]], cache_dir=cache_dir)
        assert [r.status for r in resumed.results] == ["cached", "ok"]

    def test_summary_reingest_adds_no_row(self, tmp_path):
        from repro.service.ingest import ingest_file
        repo = self._repo(tmp_path)
        campaign = run_campaign([broken_job(), nano_job()], retries=0,
                                repository=repo)
        assert (campaign.executed, campaign.failed) == (1, 1)
        assert repo.counts()["by_kind"] == {"campaign": 1, "run": 1}
        out = str(tmp_path / "summary.json")
        campaign.write_summary(out)
        assert ingest_file(repo, out) == 2
        assert repo.counts()["runs"] == 2
        assert repo.find_job(broken_job().fingerprint()) is None


def watch_io(monkeypatch):
    """Count sqlite connections and renames onto new vs existing names."""
    import sqlite3
    seen = {"connections": [], "new": 0, "existing": 0}
    connect, replace = sqlite3.connect, os.replace

    def counting_connect(*args, **kwargs):
        seen["connections"].append(connect(*args, **kwargs))
        return seen["connections"][-1]

    def counting_replace(src, dst):
        seen["existing" if os.path.exists(dst) else "new"] += 1
        return replace(src, dst)

    monkeypatch.setattr(sqlite3, "connect", counting_connect)
    monkeypatch.setattr(os, "replace", counting_replace)
    return seen


def open_connections(connections):
    import sqlite3
    alive = []
    for con in connections:
        try:
            con.execute("SELECT 1")
        except sqlite3.ProgrammingError:
            continue
        alive.append(con)
    return alive


class TestBookkeepingIO:
    """Work counters, not wall clock: the campaign's bookkeeping forces
    no disk flush per job.  Closing a WAL connection checkpoints and
    fsyncs; renaming over an existing file flushes it on ext4."""

    def _runner(self, tmp_path):
        from repro.service import RunRepository
        return CampaignRunner(
            cache=ResultCache(str(tmp_path / "cache")),
            repository=RunRepository(str(tmp_path / "runs.sqlite")))

    def test_cold_campaign(self, tmp_path, monkeypatch):
        seen = watch_io(monkeypatch)
        runner = self._runner(tmp_path)
        before = len(seen["connections"])
        campaign = runner.run([nano_job(p) for p in ("mps", "tap", "mig")])
        assert campaign.executed == 3
        assert len(seen["connections"]) - before <= 1
        assert seen["existing"] == 0
        assert not open_connections(seen["connections"])
        assert runner.repository.counts()["runs"] == 3

    def test_cold_cache_holds_only_results(self, tmp_path):
        runner = self._runner(tmp_path)
        jobs = [nano_job(p) for p in ("mps", "tap")]
        assert runner.run(jobs).executed == 2
        root = runner.cache.root
        written = sorted(os.path.relpath(os.path.join(d, name), root)
                         for d, _, names in os.walk(root) for name in names)
        fps = sorted(job.fingerprint() for job in jobs)
        assert written == [os.path.join("results", fp[:2], fp + ".json")
                           for fp in fps]

    def test_warm_rerun_renames_nothing(self, tmp_path, monkeypatch):
        """A re-run served wholly from the cache writes no file."""
        runner = self._runner(tmp_path)
        cold = runner.run([nano_job()])
        assert cold.executed == 1
        seen = watch_io(monkeypatch)
        warm = runner.run([nano_job()])
        assert warm.cached == 1
        assert seen["new"] == seen["existing"] == 0

    def test_failed_jobs_and_errors_close_the_connection(self, tmp_path,
                                                         monkeypatch):
        seen = watch_io(monkeypatch)
        runner = self._runner(tmp_path)
        assert not runner.run([broken_job()]).ok
        assert not open_connections(seen["connections"])

        def broken_get(fingerprint):
            raise RuntimeError("cache unreadable")

        runner.repository.counts()
        monkeypatch.setattr(runner.cache, "get", broken_get)
        with pytest.raises(RuntimeError):
            runner.run([broken_job()])
        assert not open_connections(seen["connections"])
