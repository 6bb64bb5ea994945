"""InvariantChecker: observes without perturbing, and actually catches bugs.

Two contracts pinned here:

* **Bit-identity** — attaching an :class:`InvariantChecker` to a run must
  not change a single stat.  We replay the golden reference workload with
  and without the checker and compare canonical ``GPUStats.to_dict()``
  trees.
* **Sensitivity** — a checker that never fires is worse than none.  The
  negative tests corrupt live simulator state from inside telemetry hooks
  (miscounted cache stats, a lost heap wakeup, a short-committed warp, an
  overlapping bank partition) and assert the matching check group raises
  :class:`InvariantViolation`.
"""

import pytest

from repro.api import simulate
from repro.config import get_preset
from repro.core.platform import collect_streams
from repro.timing import BLOCKED
from repro.validate import InvariantChecker, InvariantViolation, check_run
from repro.validate.differential import canonical, first_difference


@pytest.fixture(scope="module")
def reference_workload():
    config = get_preset("JetsonOrin-mini")
    streams = collect_streams(config, scene="SPL", res="nano",
                              compute="HOLO")
    return config, streams


class TestBitIdentity:
    @pytest.mark.parametrize("policy", ["mps", "tap"])
    def test_checker_does_not_perturb_stats(self, reference_workload, policy):
        """Checked and unchecked runs agree bit-for-bit (tap also covers
        the repartition hook)."""
        config, streams = reference_workload
        plain = simulate(config=config, streams=streams, policy=policy).stats
        checked, checker = check_run(config, streams, policy=policy)
        diff = first_difference(canonical(plain), canonical(checked))
        assert diff is None, "InvariantChecker perturbed the run: %s" % diff
        assert checker.finalized

    def test_all_check_groups_fired(self, reference_workload):
        config, streams = reference_workload
        _, checker = check_run(config, streams, policy="tap")
        report = checker.report()
        for group in ("caches", "cta_retire", "wakeups", "final",
                      "partitions", "sample", "stall_sums"):
            assert report.get(group, 0) > 0, (
                "check group %r never ran: %r" % (group, report))


class _CorruptingChecker(InvariantChecker):
    """Checker that vandalises simulator state once, mid-run."""

    def __init__(self, corrupt):
        super().__init__(sample_interval=200)
        self._corrupt = corrupt
        self._done = False

    def on_sample(self, gpu, cycle):
        if not self._done and cycle > 0:
            self._done = True
            self._corrupt(gpu)
        super().on_sample(gpu, cycle)


def _run_corrupted(reference_workload, corrupt):
    config, streams = reference_workload
    checker = _CorruptingChecker(corrupt)
    with pytest.raises(InvariantViolation) as exc:
        simulate(config=config, streams=streams, policy="mps",
                 telemetry=checker)
    assert checker._done, "corruption hook never fired"
    return str(exc.value)


class TestSensitivity:
    def test_detects_cache_miscount(self, reference_workload):
        def corrupt(gpu):
            l1 = gpu.sms[0].ldst.l1
            stream = next(iter(l1.stats))
            l1.stats[stream].hits += 1

        msg = _run_corrupted(reference_workload, corrupt)
        assert "cache_accounting" in msg

    def test_detects_merge_overcount(self, reference_workload):
        def corrupt(gpu):
            l1 = gpu.sms[0].ldst.l1
            stream = next(iter(l1.stats))
            st = l1.stats[stream]
            st.mshr_merges = st.misses + 1

        msg = _run_corrupted(reference_workload, corrupt)
        assert "MSHR merges exceed" in msg

    def test_detects_lost_wakeup(self, reference_workload):
        def corrupt(gpu):
            # Drop the wake cycle of an SM that holds work: the run loop
            # would never visit it again.
            sm = next(sm for sm in gpu.sms if sm.has_work)
            sm.next_event_cache = BLOCKED

        msg = _run_corrupted(reference_workload, corrupt)
        assert "lost wakeup" in msg

    def test_detects_partition_overlap(self, reference_workload):
        def corrupt(gpu):
            gpu.l2.banks[0].partition_sets({0: 4, 1: 4})

        msg = _run_corrupted(reference_workload, corrupt)
        assert "partitions" in msg

    def test_detects_short_committed_warp(self, reference_workload):
        class ShortCommit(InvariantChecker):
            def on_cta_retire(self, sm, cta, cycle):
                cta.warps[0].pc -= 1
                super().on_cta_retire(sm, cta, cycle)

        config, streams = reference_workload
        with pytest.raises(InvariantViolation) as exc:
            simulate(config=config, streams=streams, policy="mps",
                     telemetry=ShortCommit())
        assert "warp_commit" in str(exc.value)

    def test_detects_instruction_loss_at_final(self, reference_workload):
        class DropRetired(InvariantChecker):
            def on_run_end(self, gpu):
                for sid in self._retired_insts:
                    self._retired_insts[sid] -= 1
                super().on_run_end(gpu)

        config, streams = reference_workload
        with pytest.raises(InvariantViolation) as exc:
            simulate(config=config, streams=streams, policy="mps",
                     telemetry=DropRetired())
        assert "final" in str(exc.value)


class TestCheckerErgonomics:
    def test_report_is_sorted_and_counts(self, reference_workload):
        config, streams = reference_workload
        _, checker = check_run(config, streams)
        report = checker.report()
        assert list(report) == sorted(report)
        assert report["final"] == 1

    def test_interval_paces_midrun_checks(self, reference_workload):
        config, streams = reference_workload
        _, coarse = check_run(config, streams, sample_interval=5000)
        _, fine = check_run(config, streams, sample_interval=500)
        assert fine.report()["sample"] > coarse.report()["sample"]
