"""Contract tests for the unified ``repro.api`` execution surface.

Pins two things: the public surface itself (names, call signatures and
the package version, so accidental breaks show up as a failed snapshot
rather than a user bug report), and request resolution semantics
(streams-vs-workload exclusivity, named-policy single-stream behaviour).
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import re

import pytest

import repro
from repro.api import RunRequest, RunResult, WorkloadSpec, simulate
from repro.config import get_preset
from repro.core.platform import CRISP, collect_streams, make_policy
from repro.core.streams import COMPUTE_STREAM, GRAPHICS_STREAM


@pytest.fixture(scope="module")
def reference_workload():
    config = get_preset("JetsonOrin-mini")
    streams = collect_streams(config, scene="SPL", res="nano",
                              compute="HOLO")
    return config, streams


@pytest.fixture(scope="module")
def baseline(reference_workload):
    """The canonical result every other path must reproduce."""
    config, streams = reference_workload
    return simulate(config=config, streams=streams, policy="mps")


# -- surface snapshot --------------------------------------------------------

def test_package_exports():
    assert set(repro.__all__) == {
        "CRISP", "RunRequest", "RunResult", "WorkloadSpec", "simulate",
        "__version__",
    }
    for name in repro.__all__:
        assert hasattr(repro, name)
    assert repro.__version__ == "2.0.0"
    # Every subpackage declares its exports, and every one resolves.
    for info in pkgutil.iter_modules(repro.__path__):
        if not info.ispkg:
            continue
        package = importlib.import_module("repro." + info.name)
        for name in package.__all__:
            assert hasattr(package, name), "repro.%s.%s" % (info.name, name)


def test_version_matches_pyproject():
    path = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
    with open(path, encoding="utf-8") as f:
        match = re.search(r'^version = "([^"]+)"', f.read(), re.MULTILINE)
    assert match and match.group(1) == repro.__version__


def test_simulate_signature():
    params = list(inspect.signature(simulate).parameters)
    assert params == ["request", "kwargs"]


def test_run_request_fields():
    fields = list(inspect.signature(RunRequest).parameters)
    assert fields == [
        "config", "streams", "workload", "policy", "sample_interval",
        "telemetry", "arrivals", "max_cycles",
    ]


def test_workload_spec_fields():
    fields = list(inspect.signature(WorkloadSpec).parameters)
    assert fields == [
        "scene", "res", "lod_enabled", "compute", "compute_args",
        "graphics_trace", "compute_trace",
    ]


def test_pr4_shims_are_gone():
    """The PR-4 execution shims were removed outright: CRISP is a pure
    tracing facade and the module no longer exports execute_streams."""
    import repro.core.platform as platform
    assert not hasattr(platform, "execute_streams")
    for name in ("run", "run_single", "run_pair"):
        assert not hasattr(CRISP, name)


# -- request resolution ------------------------------------------------------

def test_streams_xor_workload(reference_workload):
    config, streams = reference_workload
    with pytest.raises(ValueError):
        simulate(RunRequest(config=config))
    with pytest.raises(ValueError):
        simulate(RunRequest(config=config, streams=streams,
                            workload=WorkloadSpec(scene="SPL")))


def test_named_policy_skipped_for_single_stream(reference_workload):
    """A *named* policy only applies with >1 stream; single-stream runs
    own the whole GPU."""
    config, streams = reference_workload
    solo = {GRAPHICS_STREAM: streams[GRAPHICS_STREAM]}
    result = simulate(config=config, streams=solo, policy="mps")
    assert result.policy is None


def test_policy_instance_always_applies(reference_workload, baseline):
    config, streams = reference_workload
    pol = make_policy("mps", config, sorted(streams))
    result = simulate(config=config, streams=streams, policy=pol)
    assert result.policy is pol
    assert result.stats.to_dict() == baseline.stats.to_dict()


def test_workload_spec_matches_prebuilt_streams(baseline):
    result = simulate(
        workload=WorkloadSpec(scene="SPL", res="nano", compute="HOLO"),
        policy="mps")
    assert result.stats.to_dict() == baseline.stats.to_dict()


def test_result_accessors(baseline):
    r = baseline
    assert r.total_cycles == r.stats.cycles
    assert r.graphics_cycles == r.stats.stream_cycles(GRAPHICS_STREAM)
    assert r.compute_cycles == r.stats.stream_cycles(COMPUTE_STREAM)
    assert isinstance(r, RunResult)
    assert repr(r) == "RunResult(policy=mps, total=%d)" % r.total_cycles


def test_to_record_shape(baseline):
    record = baseline.to_record(label="t")
    assert record["cycles"] == baseline.total_cycles
    assert record["policy"] == "mps"
    assert record["extras"] == {}


def test_repro_internals_emit_no_deprecation_warnings(reference_workload):
    """No internal code path raises a DeprecationWarning.

    pyproject's filterwarnings escalates the old shim messages to errors
    suite-wide; this test additionally pins the contract explicitly, with
    the filters neutralised, so the guarantee survives someone running a
    single file with ``-W ignore``.
    """
    import warnings

    config, streams = reference_workload
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = simulate(config=config, streams=streams, policy="tap",
                          sample_interval=500)
        assert result.stats.cycles > 0
    ours = [w for w in caught
            if issubclass(w.category, DeprecationWarning)
            and "repro" in (w.filename or "")]
    assert not ours, (
        "repro internals raised DeprecationWarnings: %r"
        % [(w.filename, str(w.message)) for w in ours])
