"""GPUStats.to_dict / from_dict round-trip (the campaign cache contract)."""

import json

import pytest

from repro.config import JETSON_ORIN_MINI
from repro.core import COMPUTE_STREAM, CRISP, GRAPHICS_STREAM
from repro.isa import Unit
from repro.timing import GPUStats, OccupancySample, StreamStats


@pytest.fixture(scope="module")
def pair_stats():
    """Stats from a small concurrent run with sampling enabled, so every
    serialized field (streams, occupancy trace, L2 snapshots) is populated."""
    crisp = CRISP(JETSON_ORIN_MINI)
    frame = crisp.trace_scene("SPL", "nano")
    vio = crisp.trace_compute("VIO")
    from repro.api import simulate
    return simulate(
        config=crisp.config,
        streams={GRAPHICS_STREAM: frame.kernels, COMPUTE_STREAM: vio},
        sample_interval=500).stats


class TestGPUStatsRoundTrip:
    def test_json_roundtrip_is_identity(self, pair_stats):
        d = pair_stats.to_dict()
        restored = GPUStats.from_dict(json.loads(json.dumps(d)))
        assert restored.to_dict() == d

    def test_aggregate_views_survive(self, pair_stats):
        restored = GPUStats.from_dict(
            json.loads(json.dumps(pair_stats.to_dict())))
        assert restored.cycles == pair_stats.cycles
        assert restored.total_instructions == pair_stats.total_instructions
        assert restored.summary() == pair_stats.summary()

    def test_per_stream_views_survive(self, pair_stats):
        restored = GPUStats.from_dict(
            json.loads(json.dumps(pair_stats.to_dict())))
        for sid in (GRAPHICS_STREAM, COMPUTE_STREAM):
            assert restored.stream_cycles(sid) == pair_stats.stream_cycles(sid)
            assert restored.stream(sid).ipc == pair_stats.stream(sid).ipc
            assert restored.stream(sid).issue_by_unit == \
                pair_stats.stream(sid).issue_by_unit

    def test_occupancy_trace_survives(self, pair_stats):
        assert pair_stats.occupancy_trace, "fixture must sample occupancy"
        restored = GPUStats.from_dict(
            json.loads(json.dumps(pair_stats.to_dict())))
        assert len(restored.occupancy_trace) == len(pair_stats.occupancy_trace)
        for a, b in zip(restored.occupancy_trace, pair_stats.occupancy_trace):
            assert a.cycle == b.cycle
            assert a.fraction(GRAPHICS_STREAM) == b.fraction(GRAPHICS_STREAM)

    def test_l2_snapshot_keys_restored_as_enums(self, pair_stats):
        restored = GPUStats.from_dict(
            json.loads(json.dumps(pair_stats.to_dict())))
        for (_, by_class), (_, orig) in zip(restored.l2_snapshots,
                                            pair_stats.l2_snapshots):
            assert by_class == dict(orig)

    def test_l2_stream_snapshots_survive(self, pair_stats):
        assert pair_stats.l2_stream_snapshots, \
            "fixture must sample L2 stream composition"
        restored = GPUStats.from_dict(
            json.loads(json.dumps(pair_stats.to_dict())))
        assert len(restored.l2_stream_snapshots) == \
            len(pair_stats.l2_stream_snapshots)
        for (cycle, by_stream), (ocycle, orig) in zip(
                restored.l2_stream_snapshots, pair_stats.l2_stream_snapshots):
            assert cycle == ocycle
            assert by_stream == dict(orig)
            # Stream keys must come back as ints, not the JSON strings.
            assert all(isinstance(sid, int) for sid in by_stream)

    def test_l2_stream_snapshots_roundtrip_synthetic(self):
        stats = GPUStats()
        stats.cycles = 10
        stats.l2_stream_snapshots = [(5, {0: 12, 1: 30}), (10, {1: 42})]
        restored = GPUStats.from_dict(
            json.loads(json.dumps(stats.to_dict())))
        assert restored.l2_stream_snapshots == [(5, {0: 12, 1: 30}),
                                                (10, {1: 42})]


class TestStreamStatsRoundTrip:
    def test_empty_stream(self):
        st = StreamStats(3)
        restored = StreamStats.from_dict(
            json.loads(json.dumps(st.to_dict())))
        assert restored.to_dict() == st.to_dict()
        assert restored.first_issue_cycle is None
        assert restored.busy_cycles == 0

    def test_counters(self):
        st = StreamStats(0)
        st.instructions = 1
        st.issue_by_unit = {Unit.FP: 1}
        st.first_issue_cycle, st.last_commit_cycle = 10, 50
        restored = StreamStats.from_dict(
            json.loads(json.dumps(st.to_dict())))
        assert restored.instructions == 1
        assert restored.issue_by_unit[Unit.FP] == 1
        assert restored.busy_cycles == 40


class TestOccupancySampleRoundTrip:
    def test_stream_keys_are_ints_again(self):
        s = OccupancySample(120, {0: 8, 1: 24}, 64)
        restored = OccupancySample.from_dict(
            json.loads(json.dumps(s.to_dict())))
        assert restored.warps_by_stream == {0: 8, 1: 24}
        assert restored.fraction(1) == s.fraction(1)
