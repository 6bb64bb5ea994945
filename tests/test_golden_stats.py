"""Golden-stats regression gate for the timing core.

The hot-path overhaul (global event heap, precomputed issue tuples,
resolved set-mapping tables) is a pure refactor: simulated behaviour must
be *bit-identical* to the pre-optimisation simulator.  These tests pin
that contract by replaying the reference workload (sponza + hologram at
nano on JetsonOrin-mini) under every partition policy and comparing the
full ``GPUStats.to_dict()`` tree against snapshots in ``tests/golden/``,
which were generated with the pre-overhaul code.

If a deliberate model change alters the numbers, regenerate the snapshots
(json.dump(stats.to_dict(), f, indent=1, sort_keys=True)) and say so in
the commit message — never update them to paper over an accidental diff.

The snapshots all run the default GTO warp scheduler.  The same workload
under ``scheduler_policy="lrr"`` is pinned by the sha256 of its canonical
``GPUStats`` JSON (:func:`stats_digest`) in ``LRR_DIGESTS``; regenerate
those with :func:`stats_digest` (``regen-goldens`` does not touch them).
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pytest

from repro.api import simulate
from repro.config import get_preset
from repro.core.platform import collect_streams

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")
POLICIES = ("shared", "mps", "mig", "fg-even", "warped-slicer", "tap")

LRR_DIGESTS = {
    "shared":
        "2ea48003735b4f769fa80a0c04f8c3f8acc23d4183b5e3bfa5fa9a74fc8c8274",
    "mps":
        "6a1ac3bf629dde98ceff121231e7486c051f5b7951c8cddb1b9690901a964fa5",
    "mig":
        "ad43bead9654b7905e1951cdb9a47cd21b27547f507aecfc0e60ee78efd5a411",
    "fg-even":
        "dd418daa19905e29ceb38287cdbbc40d32ebd1ae88dda31a3856f31827e3e624",
    "warped-slicer":
        "10b80173c3aade145dd183b3da689bedf2fa31fdce9e02f02723d9d2e22ce65a",
    "tap":
        "becc77b43a4fbc1d57ed4f4a1f1887d2d35f6b1823ea9a8ad636d731d25c6dcf",
}


@pytest.fixture(scope="module")
def reference_workload():
    """(config, streams) for the golden workload, built once per module."""
    config = get_preset("JetsonOrin-mini")
    streams = collect_streams(config, scene="SPL", res="nano",
                              compute="HOLO")
    return config, streams


def _canonical(stats) -> dict:
    # Round-trip through JSON so int dict keys and tuples collapse to the
    # same shapes the golden files hold.
    return json.loads(json.dumps(stats.to_dict(), sort_keys=True))


def stats_digest(stats) -> str:
    """sha256 of the compact canonical JSON of ``stats``."""
    return hashlib.sha256(json.dumps(
        _canonical(stats), sort_keys=True,
        separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("policy", POLICIES)
def test_golden_stats(reference_workload, policy):
    config, streams = reference_workload
    path = os.path.join(GOLDEN_DIR, "sponza_hologram_nano_%s.json" % policy)
    with open(path, "r", encoding="utf-8") as f:
        golden = json.load(f)
    stats = simulate(config=config, streams=streams, policy=policy).stats
    got = _canonical(stats)
    assert got == golden, (
        "GPUStats diverged from golden snapshot under policy=%s" % policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_lrr_stats_digest(reference_workload, policy):
    config, streams = reference_workload
    config = config.replace(scheduler_policy="lrr")
    stats = simulate(config=config, streams=streams, policy=policy).stats
    assert stats_digest(stats) == LRR_DIGESTS[policy], (
        "GPUStats under scheduler_policy=lrr diverged from the pinned "
        "digest under policy=%s" % policy)


def test_simrate_smoke(reference_workload):
    """Tier-1 canary: the reference run must stay fast.

    The bound is deliberately loose (the golden runs take ~0.3s each on
    the structure-of-arrays core) — it exists to catch order-of-magnitude
    regressions like an accidental return to per-cycle full scans, not to
    benchmark.  Real rates live in benchmarks/test_timing_simrate.py.
    Re-tightened after the SoA refactor so future PRs cannot silently give
    the win back and still pass tier-1.
    """
    config, streams = reference_workload
    t0 = time.perf_counter()
    stats = simulate(config=config, streams=streams, policy="mps").stats
    wall = time.perf_counter() - t0
    assert stats.total_instructions > 0
    assert wall < 30.0, (
        "reference run took %.1fs; timing-core fast path has regressed"
        % wall)
