"""Differential oracle: the invariant checker must observe, not disturb.

Each fuzzed case runs twice on the serial timing model: once plain (the
reference) and once under an :class:`~repro.validate.InvariantChecker`.
The two ``GPUStats.to_dict()`` trees must be bit-identical, and the
checked run must not raise :class:`~repro.validate.InvariantViolation`.
The golden tests pin six hand-picked workloads; this module checks both
promises on arbitrary fuzzed configs, workloads and policies.  A failure
is shrunk to a minimal failing case (fewer streams, kernels, CTAs, a
simpler policy) before it is reported, so a CI failure arrives as a small
repro, not a 40-kernel blob.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..api import simulate
from ..isa import KernelTrace
from .fuzz import FuzzCase
from .invariants import InvariantChecker, InvariantViolation

__all__ = ["CaseResult", "FuzzReport", "run_case", "check_case",
           "shrink_case", "run_fuzz", "first_difference"]


def canonical(stats) -> dict:
    """JSON-canonical form of a stats tree (the bit-identity currency)."""
    return json.loads(json.dumps(stats.to_dict(), sort_keys=True))


def first_difference(a, b, path: str = "$") -> Optional[str]:
    """Human-readable locus of the first difference between two trees."""
    if type(a) is not type(b):
        return "%s: type %s vs %s" % (path, type(a).__name__,
                                      type(b).__name__)
    if isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a:
                return "%s.%s: missing on left" % (path, k)
            if k not in b:
                return "%s.%s: missing on right" % (path, k)
            diff = first_difference(a[k], b[k], "%s.%s" % (path, k))
            if diff:
                return diff
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return "%s: length %d vs %d" % (path, len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, "%s[%d]" % (path, i))
            if diff:
                return diff
        return None
    if a != b:
        return "%s: %r vs %r" % (path, a, b)
    return None


def run_case(case: FuzzCase, checker: Optional[InvariantChecker] = None):
    """Execute ``case`` serially; returns the RunResult.

    With ``checker`` the run is checked.  Without one it is the plain
    reference run, which records full telemetry on the case's telemetry
    arm, so the comparison also proves the recorder leaves stats alone.
    """
    telemetry = checker if checker is not None else case.make_telemetry()
    return simulate(case.request(telemetry=telemetry))


@dataclass
class CaseResult:
    """Oracle verdict for one case."""

    case: FuzzCase
    #: First difference between the plain and the checked run's stats.
    diff: Optional[str] = None
    #: The InvariantViolation message, when the checked run raised one.
    violation: Optional[str] = None
    #: Check groups the checker ran, by name.
    checks: Dict[str, int] = field(default_factory=dict)

    @property
    def kind(self) -> Optional[str]:
        """Failure kind as written to the corpus; None when the case passed."""
        if self.violation is not None:
            return "invariant-violation"
        if self.diff is not None:
            return "invariants-perturbed"
        return None

    @property
    def ok(self) -> bool:
        return self.kind is None


def check_case(case: FuzzCase, run: Callable = run_case) -> CaseResult:
    """Run ``case`` plain and under an invariant checker; compare the two.

    ``run`` is injectable so tests can wrap the checked run with a
    deliberate perturbation and watch the shrinker catch it.
    """
    result = CaseResult(case=case)
    reference = canonical(run(case).stats)
    checker = InvariantChecker()
    try:
        checked = run(case, checker)
    except InvariantViolation as exc:
        result.violation = str(exc)
    else:
        result.diff = first_difference(reference, canonical(checked.stats))
    result.checks = checker.report()
    return result


# -- shrinking ---------------------------------------------------------------

def _subset_kernel(kernel: KernelTrace, ctas) -> KernelTrace:
    return KernelTrace(
        kernel.name, list(ctas), kernel.threads_per_cta,
        regs_per_thread=kernel.regs_per_thread,
        shared_mem_per_cta=kernel.shared_mem_per_cta,
        kind=kernel.kind, depends_on_prev=kernel.depends_on_prev,
    )


def _with_streams(case: FuzzCase, streams: Dict[int, List[KernelTrace]],
                  policy_spec="unchanged", note: str = "") -> FuzzCase:
    spec = case.policy_spec if policy_spec == "unchanged" else policy_spec
    descr = dict(case.descr)
    descr["shrunk"] = descr.get("shrunk", []) + [note]
    descr["workload"] = {
        str(sid): {"kind": "shrunk",
                   "kernels": [{"name": k.name, "ctas": k.num_ctas,
                                "insts": k.num_instructions}
                               for k in kernels]}
        for sid, kernels in streams.items()
    }
    descr["policy"] = spec
    return FuzzCase(seed=case.seed, config=case.config, streams=streams,
                    policy_spec=spec, descr=descr,
                    telemetry_on=case.telemetry_on)


def _candidates(case: FuzzCase):
    """Smaller variants of ``case``, most aggressive first."""
    streams = case.streams
    if len(streams) > 1:
        for sid in sorted(streams):
            rest = {s: list(k) for s, k in streams.items() if s != sid}
            yield _with_streams(case, rest, note="drop stream %d" % sid)
    for sid in sorted(streams):
        kernels = streams[sid]
        if len(kernels) > 1:
            half = len(kernels) // 2
            for part, label in ((kernels[:half], "first"),
                                (kernels[half:], "last")):
                out = {s: (list(part) if s == sid else list(k))
                       for s, k in streams.items()}
                yield _with_streams(case, out,
                                    note="stream %d %s half" % (sid, label))
            for i in range(len(kernels)):
                part = kernels[:i] + kernels[i + 1:]
                out = {s: (part if s == sid else list(k))
                       for s, k in streams.items()}
                yield _with_streams(case, out,
                                    note="stream %d drop kernel %d" % (sid, i))
    for sid in sorted(streams):
        for i, kernel in enumerate(streams[sid]):
            if kernel.num_ctas > 1:
                keep = kernel.ctas[:max(1, kernel.num_ctas // 2)]
                part = list(streams[sid])
                part[i] = _subset_kernel(kernel, keep)
                out = {s: (part if s == sid else list(k))
                       for s, k in streams.items()}
                yield _with_streams(
                    case, out,
                    note="stream %d kernel %d -> %d CTAs" % (sid, i,
                                                             len(keep)))
    if case.policy_spec not in (None, {"name": "mps"}):
        yield _with_streams(case, {s: list(k) for s, k in streams.items()},
                            policy_spec={"name": "mps"},
                            note="policy -> mps")


def _size(case: FuzzCase):
    return (len(case.streams),
            sum(len(k) for k in case.streams.values()),
            sum(kr.num_ctas for k in case.streams.values() for kr in k))


def shrink_case(case: FuzzCase, is_failing: Callable[[FuzzCase], bool],
                max_evals: int = 120):
    """Greedily minimise ``case`` while ``is_failing`` stays true.

    Returns ``(minimal_case, evaluations)``.  Classic ddmin-style descent:
    try dropping streams, kernel halves, single kernels, CTA halves and the
    policy, restarting from the first smaller variant that still fails.
    """
    evals = 0
    current = case
    improved = True
    while improved and evals < max_evals:
        improved = False
        for candidate in _candidates(current):
            if _size(candidate) >= _size(current):
                continue
            evals += 1
            if is_failing(candidate):
                current = candidate
                improved = True
                break
            if evals >= max_evals:
                break
    return current, evals


# -- fuzz driver -------------------------------------------------------------

@dataclass
class FuzzReport:
    """Outcome of one fuzz sweep (what the CLI prints / CI uploads)."""

    seeds: List[int] = field(default_factory=list)
    failures: List[dict] = field(default_factory=list)
    invariant_runs: int = 0
    qos_probes: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {
            "seeds": len(self.seeds),
            "failures": len(self.failures),
            "invariant_checked_runs": self.invariant_runs,
            "qos_probes": self.qos_probes,
        }


#: Every Nth fuzz seed also replays a short open-loop QoS scenario twice
#: and compares the canonical reports — the QoS stack (arrival
#: generation, monitor, adaptive controller) is policed for determinism
#: by the same sweep that polices the checker.  Sparse because one QoS
#: probe costs two multi-client simulations.
_QOS_PROBE_EVERY = 5
_QOS_PROBE_REQUESTS = 3


def _qos_probe(seed: int) -> Optional[dict]:
    """Same-seed bit-identity check on one short QoS scenario run.

    Returns a failure record, or None when the two runs agree.
    """
    from ..qos import canonical_report, run_scenario
    from ..qos.scenario import scenario_names

    names = scenario_names()
    scenario = names[(seed // _QOS_PROBE_EVERY) % len(names)]
    runs = [run_scenario(scenario, seed, policy="adaptive",
                         requests=_QOS_PROBE_REQUESTS)
            for _ in range(2)]
    texts = [canonical_report(r) for r in runs]
    if texts[0] == texts[1] and runs[0]["events"] == runs[1]["events"]:
        return None
    diff = first_difference(
        {**json.loads(texts[0]), "events": runs[0]["events"]},
        {**json.loads(texts[1]), "events": runs[1]["events"]})
    return {"seed": seed, "kind": "qos-nondeterminism",
            "scenario": scenario, "diff": diff}


def run_fuzz(seeds: Sequence[int], corpus_dir: Optional[str] = None,
             allow_scenes: bool = True, include_qos: bool = True,
             progress: Optional[Callable[[str], None]] = None) -> FuzzReport:
    """Check every seed plain against invariant-checked (see
    :func:`check_case`).

    With ``include_qos``, every ``_QOS_PROBE_EVERY``-th seed also runs a
    short open-loop QoS scenario twice under the adaptive controller and
    requires bit-identical reports (failure kind ``qos-nondeterminism``).

    Failures (the difference or violation plus the shrunk minimal case
    description) are appended to ``report.failures`` and, when
    ``corpus_dir`` is given, written there as one JSON file per failing
    seed.
    """
    import os

    from .fuzz import build_case

    report = FuzzReport()
    for seed in seeds:
        case = build_case(seed, allow_scenes=allow_scenes)
        result = check_case(case)
        report.seeds.append(seed)
        report.invariant_runs += 1
        failure = None
        if not result.ok:
            def still_fails(c: FuzzCase) -> bool:
                return check_case(c).kind == result.kind
            minimal, evals = shrink_case(case, still_fails)
            failure = {
                "seed": seed,
                "kind": result.kind,
                "case": case.descr,
                "minimal": minimal.descr,
                "shrink_evals": evals,
                "checks": result.checks,
            }
            if result.violation is not None:
                failure["error"] = result.violation
            else:
                failure["diff"] = result.diff
        if (failure is None and include_qos
                and seed % _QOS_PROBE_EVERY == 0):
            report.qos_probes += 1
            failure = _qos_probe(seed)
        if failure:
            report.failures.append(failure)
            if corpus_dir:
                os.makedirs(corpus_dir, exist_ok=True)
                path = os.path.join(corpus_dir, "fuzz-seed-%d.json" % seed)
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(failure, f, indent=1, sort_keys=True)
        if progress:
            status = "FAIL" if failure else "ok"
            progress("seed %d: %s (%d insts)"
                     % (seed, status, case.total_instructions))
    return report
