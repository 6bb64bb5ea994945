"""Fuzzer determinism, the differential oracle, and the shrinker.

The oracle's promise: any fuzzed case runs bit-identically with and
without the invariant checker attached, and when the two diverge the
failure arrives as a *minimal* repro.  We pin:

* seed determinism (a CI failure reproduces locally from the seed alone);
* a small clean sweep (tier-1 smoke — CI runs the 200-seed version);
* the shrinker actually shrinking an injected perturbation of the
  checked run.
"""

import json

import pytest

from repro.validate import build_case, check_case, run_fuzz, shrink_case
from repro.validate.differential import canonical, first_difference, run_case


class TestFuzzerDeterminism:
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_same_seed_same_case(self, seed):
        a = build_case(seed, allow_scenes=False)
        b = build_case(seed, allow_scenes=False)
        assert a.descr == b.descr
        assert a.total_instructions == b.total_instructions
        assert sorted(a.streams) == sorted(b.streams)

    def test_same_seed_same_stats(self):
        case = build_case(11, allow_scenes=False)
        again = build_case(11, allow_scenes=False)
        assert first_difference(canonical(run_case(case).stats),
                                canonical(run_case(again).stats)) is None

    def test_cases_are_small(self):
        """The 200-seed CI sweep only fits if cases stay tiny."""
        for seed in range(10):
            case = build_case(seed, allow_scenes=False)
            assert case.total_instructions < 2_000_000

    def test_policy_specs_are_jsonable(self):
        for seed in range(20):
            case = build_case(seed, allow_scenes=False)
            json.dumps(case.descr)  # must not raise
            # A fresh policy materialises per run (stateful objects).
            p1, p2 = case.make_policy(), case.make_policy()
            if p1 is not None:
                assert p1 is not p2


class TestOracleSmoke:
    def test_small_sweep_is_clean(self):
        """Tier-1 canary for the nightly 200-seed run."""
        report = run_fuzz(range(4), allow_scenes=False)
        assert report.ok, report.failures
        assert len(report.seeds) == 4
        # Seed 0 lands on the QoS rerun probe: the open-loop scenarios are
        # part of the fuzz pool, judged on bit-identical reports.
        assert report.qos_probes == 1
        assert report.summary()["qos_probes"] == 1

    def test_qos_probe_can_be_disabled(self):
        report = run_fuzz(range(1), allow_scenes=False, include_qos=False)
        assert report.ok and report.qos_probes == 0

    def test_invariant_mode_counts_runs(self):
        report = run_fuzz(range(2), allow_scenes=False, include_qos=False)
        assert report.ok, report.failures
        assert report.invariant_runs == 2
        assert report.summary() == {"seeds": 2, "failures": 0,
                                    "invariant_checked_runs": 2,
                                    "qos_probes": 0}

    def test_failure_corpus_written(self, tmp_path, monkeypatch):
        import repro.validate.differential as diff_mod

        real = diff_mod.check_case

        def buggy_check(case, run=run_case):
            result = real(case, run)
            result.diff = "$.injected: 1 vs 2"
            return result

        monkeypatch.setattr(diff_mod, "check_case", buggy_check)
        report = diff_mod.run_fuzz([3], corpus_dir=str(tmp_path),
                                   allow_scenes=False)
        assert not report.ok
        corpus = list(tmp_path.glob("fuzz-seed-*.json"))
        assert len(corpus) == 1
        entry = json.loads(corpus[0].read_text())
        assert entry["kind"] == "invariants-perturbed"
        assert entry["seed"] == 3
        assert entry["diff"] == "$.injected: 1 vs 2"
        assert "minimal" in entry

    def test_violation_is_reported_and_shrunk(self, tmp_path, monkeypatch):
        import repro.validate.differential as diff_mod
        from repro.validate import InvariantViolation

        def violating_run(case, checker=None):
            if checker is not None:
                raise InvariantViolation("[final] injected")
            return run_case(case)

        real = diff_mod.check_case
        monkeypatch.setattr(diff_mod, "check_case",
                            lambda case, run=violating_run: real(case, run))
        report = diff_mod.run_fuzz([1], corpus_dir=str(tmp_path),
                                   allow_scenes=False)
        entry = json.loads((tmp_path / "fuzz-seed-1.json").read_text())
        assert entry["kind"] == "invariant-violation"
        assert entry["error"] == "[final] injected"
        assert entry["minimal"]["shrunk"], "shrinker made no progress"
        assert report.failures == [entry]


class TestShrinker:
    def _buggy_run(self, case, checker=None):
        """A deliberate perturbation: the checked run over-counts stream
        0's instructions by one."""
        out = run_case(case, checker)
        if checker is not None:
            sid = sorted(case.streams)[0]
            out.stats.streams[sid].instructions += 1
        return out

    def test_injected_regression_is_caught_and_shrunk(self):
        # Seed 1 builds a multi-kernel two-stream case — room to shrink.
        case = build_case(1, allow_scenes=False)
        assert len(case.streams) == 2

        result = check_case(case, run=self._buggy_run)
        assert not result.ok
        assert result.kind == "invariants-perturbed"
        assert "instructions" in result.diff

        def still_fails(c):
            return not check_case(c, run=self._buggy_run).ok

        minimal, evals = shrink_case(case, still_fails)
        assert evals > 0
        assert minimal.descr["shrunk"], "shrinker made no progress"
        # The bug lives in stream 0 alone, so the minimal repro must be a
        # fraction of the original case.
        orig = sum(k.num_ctas for ks in case.streams.values() for k in ks)
        small = sum(k.num_ctas for ks in minimal.streams.values() for k in ks)
        assert small < orig
        assert sum(len(k) for k in minimal.streams.values()) <= 2

    def test_shrunk_case_still_replays(self):
        case = build_case(1, allow_scenes=False)

        def still_fails(c):
            return not check_case(c, run=self._buggy_run).ok

        minimal, _ = shrink_case(case, still_fails)
        # The minimal case is a real, runnable case — exactly what lands
        # in the CI failure corpus.
        assert run_case(minimal).stats.cycles > 0
