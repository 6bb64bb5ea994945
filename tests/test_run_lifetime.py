"""Every simulation's object graph is freed by reference counting.

A run's objects -- SMs, warps, CTAs, caches, the policy's hooks and the
traces they keep alive -- must form no reference cycle, so they are freed
the moment the caller drops the result, without waiting for the cyclic
garbage collector.  That is why ``simulate()`` pauses the collector for
the trace and the run, and the last tests here hold it to restoring the
caller's collector state.  Each test runs one call with the collector disabled,
drops what it returned, and asserts that ``gc.collect()`` then finds no
unreachable object whose type lives in ``repro``.  Objects of other
modules are not counted: the stdlib ``json`` encoder, for one, builds
closures that form cycles of their own.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api import WorkloadSpec, simulate
from repro.campaign import Job, execute
from repro.config import get_preset
from repro.core.platform import POLICY_NAMES, collect_streams
from repro.qos.runner import run_scenario
from repro.telemetry import NullTelemetry, Telemetry
from repro.timing.sm import ResidentCTA
from repro.timing.warp import WarpContext
from repro.validate import InvariantChecker, build_case, check_case


@pytest.fixture(scope="module")
def spl_vio():
    config = get_preset("JetsonOrin-mini")
    return config, collect_streams(config, scene="SPL", res="nano",
                                   compute="VIO")


def cyclic_garbage(call):
    """Run ``call()`` with the cyclic GC off; return the type names of the
    ``repro`` objects that only the cyclic GC could free afterwards."""
    gc.collect()
    gc.disable()
    try:
        call()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = sorted({type(o).__module__ + "." + type(o).__qualname__
                         for o in gc.garbage
                         if type(o).__module__.startswith("repro")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return leaked


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_policy_runs_leave_no_cycles(spl_vio, policy):
    config, streams = spl_vio
    assert cyclic_garbage(lambda: simulate(
        config=config, streams=streams, policy=policy)) == []


def test_sampled_run_with_telemetry_leaves_no_cycles(spl_vio):
    config, streams = spl_vio
    assert cyclic_garbage(lambda: simulate(
        config=config, streams=streams, policy="tap", sample_interval=500,
        telemetry=Telemetry(sample_interval=500))) == []


def test_checked_run_leaves_no_cycles(spl_vio):
    config, streams = spl_vio
    assert cyclic_garbage(lambda: simulate(
        config=config, streams=streams, policy="tap",
        telemetry=InvariantChecker(sample_interval=500))) == []


@pytest.mark.parametrize("seed", range(5))
def test_fuzz_cases_leave_no_cycles(seed):
    # The first seeds cover LRR scheduling, a sectored L1 and way
    # partitions, plus plain and checked runs of each.
    def call():
        assert check_case(build_case(seed)).ok
    assert cyclic_garbage(call) == []


def test_open_loop_scenario_leaves_no_cycles():
    assert cyclic_garbage(
        lambda: run_scenario("bursty", 0, requests=2)) == []


def test_timed_out_job_leaves_no_cycles(spl_vio, monkeypatch):
    _, streams = spl_vio
    # Pre-collected streams make the simulation, not tracing, overrun
    # the budget.
    monkeypatch.setattr(execute, "_collect", lambda job: streams)
    job = Job(scene="SPL", compute="VIO", res="nano", policy="tap")
    statuses = []

    def call():
        statuses.append(
            next(execute.run_group_guarded([job], 0.05)).status)
    assert cyclic_garbage(call) == []
    assert statuses == [execute.STATUS_TIMEOUT]


def test_max_cycles_error_leaves_no_cycles(spl_vio):
    config, streams = spl_vio
    errors = []

    def call():
        try:
            simulate(config=config, streams=streams, policy="mps",
                     telemetry=InvariantChecker(), max_cycles=500)
        except RuntimeError as exc:
            errors.append(str(exc))
    assert cyclic_garbage(call) == []
    assert errors and "exceeded 500 cycles" in errors[0]


class _GPUWatch(Telemetry):
    """Recorder that keeps a weak reference to the GPU it records."""

    def on_run_start(self, gpu):
        self.gpu_ref = weakref.ref(gpu)
        super().on_run_start(gpu)


def test_gpu_is_freed_when_simulate_returns(spl_vio):
    config, streams = spl_vio
    watch = _GPUWatch(sample_interval=None)
    gc.disable()
    try:
        result = simulate(config=config, streams=streams, policy="tap",
                          telemetry=watch)
        assert watch.gpu_ref() is None
    finally:
        gc.enable()
    assert result.stats.cycles > 0
    assert result.policy.current_ratio() is not None


class _LiveWarpCount(NullTelemetry):
    """Counts the WarpContexts and ResidentCTAs alive at run end."""

    def on_run_end(self, gpu):
        self.live = sum(1 for o in gc.get_objects()
                        if isinstance(o, (WarpContext, ResidentCTA)))


def test_retired_warps_are_freed_during_the_run(spl_vio):
    # on_run_end fires before run() clears its hooks, so this sees what
    # CTA retirement alone has freed.
    config, streams = spl_vio
    count = _LiveWarpCount()
    gc.collect()
    gc.disable()
    try:
        simulate(config=config, streams=streams, policy="mps",
                 telemetry=count)
    finally:
        gc.enable()
    assert count.live == 0


def test_traced_run_leaves_no_cycles():
    # Tracing included: the scene, textures, translators, templates and
    # warps a WorkloadSpec run builds are freed by reference counting too.
    assert cyclic_garbage(lambda: simulate(
        config="JetsonOrin-mini",
        workload=WorkloadSpec(scene="SPL", res="nano", compute="VIO"),
        policy="tap")) == []


class _CollectorProbe(NullTelemetry):
    """Records whether the cyclic collector runs during the run."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_run_start(self, gpu):
        self.seen.append(gc.isenabled())


@pytest.fixture()
def collector_state():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_simulate_restores_collector_state(spl_vio, monkeypatch,
                                           collector_state, enabled):
    config, streams = spl_vio
    traced = []
    collect = WorkloadSpec.collect

    def probed_collect(spec, cfg):
        traced.append(gc.isenabled())
        return collect(spec, cfg)
    monkeypatch.setattr(WorkloadSpec, "collect", probed_collect)
    (gc.enable if enabled else gc.disable)()
    probe = _CollectorProbe()
    simulate(config=config, workload=WorkloadSpec(scene="SPL", res="nano"),
             telemetry=probe)
    assert traced == [False] and probe.seen == [False]
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_simulate_restores_collector_after_raise(spl_vio, collector_state,
                                                 enabled):
    config, streams = spl_vio
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RuntimeError, match="exceeded 500 cycles"):
        simulate(config=config, streams=streams, policy="mps",
                 max_cycles=500)
    assert gc.isenabled() is enabled
