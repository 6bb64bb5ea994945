"""Simulation campaigns: declarative, parallel, cached, resumable sweeps.

Every figure of the paper is a sweep — scene x compute workload x policy x
machine config.  This subsystem turns the ad-hoc loops that ran those
sweeps into data: a list of :class:`Job` specs handed to a
:class:`CampaignRunner`, which traces each workload once for all the jobs
that share it, fans them out over worker processes, serves
repeats from an on-disk result cache keyed by content fingerprint (which
is also what resumes a killed campaign), retries crashed jobs, stores
every outcome in an attached run repository, and emits a machine-readable
summary with per-job wall-clock and per-stream GPU counters.

    from repro.campaign import Job, run_campaign

    jobs = [Job(scene="SPL", compute="VIO", policy=p, res="2k")
            for p in ("mps", "fg-even", "warped-slicer")]
    campaign = run_campaign(jobs, workers=4, cache_dir="~/.cache/...")
    for job, result in zip(campaign.jobs, campaign.results):
        print(job.display_label, result.total_cycles)
"""

from .cache import CACHE_ENV_VAR, ResultCache, default_cache_dir
from .execute import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    JobResult,
    JobTimeoutError,
    run_group_guarded,
    run_job,
)
from .job import FINGERPRINT_VERSION, Job
from .progress import ProgressReporter
from .runner import CampaignResult, CampaignRunner, campaign_id, run_campaign

__all__ = [
    "CACHE_ENV_VAR",
    "CampaignResult",
    "CampaignRunner",
    "FINGERPRINT_VERSION",
    "Job",
    "JobResult",
    "JobTimeoutError",
    "ProgressReporter",
    "ResultCache",
    "STATUS_CACHED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "campaign_id",
    "default_cache_dir",
    "run_campaign",
    "run_group_guarded",
    "run_job",
]
