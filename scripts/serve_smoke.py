"""End-to-end service smoke: ingest -> serve -> submit -> assert -> tear down.

CI's tier-1 leg (and ``make serve-smoke``) runs this: backfill the
checked-in QoS history and golden snapshots into a scratch repository,
start the dashboard with a job queue on an ephemeral port, hit ``/runs``
(plus the rest of the JSON surface) with urllib, and verify the payloads
describe the ingested data.  Then ``POST /submit`` one nano job, one
two-job campaign and one job whose trace fails (an unknown compute
workload), wait until the queue reports the first three ``done`` and the
last ``failed``, and check that exactly the three runs are stored, that
``/runs?kind=campaign`` serves the failure's error, that ``/compare``
draws a sim-rate trend from the runs (stored run records are the only
speed record) and that ``/events.json`` carries ``job_done`` and campaign
``heartbeat`` events.  Exits nonzero on any mismatch.
"""

import json
import os
import sys
import tempfile
import time
import urllib.request

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.service import RunRepository  # noqa: E402
from repro.service.ingest import backfill  # noqa: E402
from repro.service.queue import JobQueue  # noqa: E402
from repro.service.server import DashboardServer  # noqa: E402

#: Seconds the submitted nano jobs get to finish.
SUBMIT_DEADLINE_S = 300.0


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        assert resp.status == 200, "%s -> %d" % (path, resp.status)
        return resp.read()


def post(base, doc):
    req = urllib.request.Request(
        base + "/submit", data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(req, timeout=30) as resp:
        assert resp.status == 202, "/submit -> %d" % resp.status
        return json.load(resp)


def nano_job(policy):
    return {"scene": "SPL", "compute": "HOLO", "res": "nano",
            "policy": policy}


def wait_for(base, expected):
    """Poll ``/queue`` until every job id in ``expected`` has finished in
    its expected state (``done`` or ``failed``)."""
    deadline = time.monotonic() + SUBMIT_DEADLINE_S
    while True:
        jobs = {j["job_id"]: j
                for j in json.loads(get(base, "/queue"))["jobs"]}
        states = {jid: jobs[jid]["state"] for jid in expected}
        wrong = [jobs[jid] for jid, st in states.items()
                 if st in ("done", "failed") and st != expected[jid]]
        assert not wrong, "submitted job %(label)s ended %(state)s: " \
            "%(error)s" % wrong[0]
        if states == expected:
            return
        assert time.monotonic() < deadline, \
            "submitted jobs not finished after %.0fs: %s" % (
                SUBMIT_DEADLINE_S, states)
        time.sleep(0.2)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        repo = RunRepository(os.path.join(tmp, "runs.sqlite"))
        totals = backfill(repo, [os.path.join(ROOT, "benchmarks"),
                                 os.path.join(ROOT, "tests", "golden")])
        assert totals["records"] > 0, "backfill ingested nothing"
        print("ingested %(records)d record(s) from %(files)d file(s)"
              % totals)

        queue = JobQueue(repo, workers=2)
        server = DashboardServer(repo, queue=queue, port=0).start()
        try:
            base = server.url
            print("serving on %s" % base)

            runs = json.loads(get(base, "/runs"))["runs"]
            assert len(runs) == repo.counts()["runs"], \
                "/runs disagrees with the repository"
            kinds = {r["kind"] for r in runs}
            assert kinds == {"qos", "run"}, \
                "expected the ingested kinds in /runs, got %s" % kinds

            detail = json.loads(get(base, "/runs/%d" % runs[0]["id"]))
            assert detail["id"] == runs[0]["id"]

            summary = json.loads(get(base, "/summary"))
            assert summary["runs"] == len(runs)

            snapshot = json.loads(get(base, "/queue"))
            assert snapshot["jobs"] == []  # nothing submitted yet

            html = get(base, "/").decode("utf-8")
            assert "Sim-rate trend" in html and "Kernel timeline" in html

            single = post(base, nano_job("mps"))
            campaign = post(base, {"jobs": [nano_job("mig"),
                                            nano_job("tap")],
                                   "workers": 2})["jobs"]
            broken = post(base, {"scene": "SPL", "compute": "NOPE",
                                 "res": "nano"})
            job_ids = [single["job_id"]] + [e["job_id"] for e in campaign]
            expected = dict.fromkeys(job_ids, "done")
            expected[broken["job_id"]] = "failed"
            wait_for(base, expected)
            stored = json.loads(get(base, "/runs?kind=run"))["runs"]
            ingested = sum(r["kind"] == "run" for r in runs)
            assert len(stored) == ingested + 3, \
                "expected 3 new stored runs, got %d" % (
                    len(stored) - ingested)
            failures = json.loads(get(base, "/runs?kind=campaign"))["runs"]
            assert [r["job_fingerprint"] for r in failures] == \
                [broken["fingerprint"]], \
                "expected the failed job's campaign row, got %s" % failures
            entry = json.loads(get(base, "/runs/%d" % failures[0]["id"])
                               )["extras"]
            assert entry["status"] == "failed" and "NOPE" in entry["error"], \
                "campaign row lacks the failure: %s" % entry
            groups = json.loads(get(base, "/compare"))["groups"]
            assert groups, "/compare produced no trend groups"
            assert all(g["runs"] and "best_instructions_per_second" in g
                       for g in groups)
            timed = sum(len(g["runs"]) for g in groups)
            assert timed >= 3, \
                "expected the 3 submitted runs in /compare, got %d" % timed
            events = json.loads(get(base, "/events.json"))["events"]
            kinds = {e["kind"] for e in events}
            assert {"job_done", "heartbeat"} <= kinds, \
                "expected job_done and heartbeat events, got %s" % kinds

            print("serve smoke OK: %d run(s), %d trend group(s), "
                  "%d submitted job(s) done, 1 failure stored"
                  % (len(runs), len(groups), len(job_ids)))
        finally:
            server.stop()
            queue.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
