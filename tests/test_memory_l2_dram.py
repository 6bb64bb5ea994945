"""Tests for the banked L2 and the DRAM channel model."""

import pytest

from repro.config import RTX_3070_MINI
from repro.isa import DataClass
from repro.memory import DRAM, L2Cache


def make_l2():
    return L2Cache(RTX_3070_MINI)


class TestBankRouting:
    def test_bank_of_is_stable(self):
        l2 = make_l2()
        assert l2.bank_of(0) == l2.bank_of(0)

    def test_lines_spread_across_banks(self):
        l2 = make_l2()
        banks = {l2.bank_of(i * 128) for i in range(64)}
        assert len(banks) == l2.num_banks

    def test_bank_partition_routes_to_assigned(self):
        l2 = make_l2()
        l2.partition_banks({0: [0, 1], 1: [2, 3]})
        for i in range(64):
            assert l2.bank_of(i * 128, stream=0) in (0, 1)
            assert l2.bank_of(i * 128, stream=1) in (2, 3)

    def test_partition_rejects_overlap(self):
        l2 = make_l2()
        with pytest.raises(ValueError):
            l2.partition_banks({0: [0, 1], 1: [1, 2]})

    def test_partition_rejects_empty(self):
        l2 = make_l2()
        with pytest.raises(ValueError):
            l2.partition_banks({0: []})

    def test_partition_rejects_out_of_range(self):
        l2 = make_l2()
        with pytest.raises(ValueError):
            l2.partition_banks({0: [99]})

    def test_partition_clearable(self):
        l2 = make_l2()
        l2.partition_banks({0: [0], 1: [1]})
        l2.partition_banks(None)
        banks = {l2.bank_of(i * 128, stream=0) for i in range(64)}
        assert len(banks) == l2.num_banks


class TestL2Access:
    def test_miss_then_hit_latency_ordering(self):
        l2 = make_l2()
        t_miss = l2.access(0, 0, DataClass.COMPUTE, 0)
        t_hit = l2.access(0, t_miss, DataClass.COMPUTE, 0)
        assert t_miss > RTX_3070_MINI.l2.hit_latency  # went to DRAM
        assert t_hit - t_miss == RTX_3070_MINI.l2.hit_latency

    def test_mshr_merge_returns_pending_time(self):
        l2 = make_l2()
        t0 = l2.access(0, 0, DataClass.COMPUTE, 0)
        # Second access before the fill returns merges into it.
        t1 = l2.access(0, 1, DataClass.COMPUTE, 0)
        assert t1 >= t0 - RTX_3070_MINI.l2.hit_latency
        st = l2.stats_for(0)
        assert st.mshr_merges >= 1

    def test_observer_called(self):
        l2 = make_l2()
        seen = []
        l2.access_observer = lambda a, s: seen.append((a, s))
        l2.access(128, 0, DataClass.COMPUTE, 3)
        assert seen == [(128, 3)]

    def test_composition_tracks_classes(self):
        l2 = make_l2()
        l2.access(0, 0, DataClass.TEXTURE, 0)
        l2.access(4096, 0, DataClass.COMPUTE, 1)
        comp = l2.composition()
        assert comp[DataClass.TEXTURE] == 1
        assert comp[DataClass.COMPUTE] == 1

    def test_set_partition_applies_to_banks(self):
        l2 = make_l2()
        l2.partition_sets({0: 4, 1: l2.sets_per_bank - 4})
        for bank in l2.banks:
            assert bank.set_partition is not None

    def test_stats_per_stream(self):
        l2 = make_l2()
        l2.access(0, 0, DataClass.COMPUTE, 0)
        l2.access(0, 1000, DataClass.COMPUTE, 0)
        st = l2.stats_for(0)
        assert st.accesses == 2
        assert st.hits >= 1

    def test_flush(self):
        l2 = make_l2()
        l2.access(0, 0, DataClass.COMPUTE, 0)
        l2.flush()
        assert sum(l2.composition().values()) == 0


class TestDRAM:
    def test_fixed_latency_applied(self):
        d = DRAM(RTX_3070_MINI)
        t = d.access(0, 0)
        assert t >= RTX_3070_MINI.dram_latency

    def test_channel_bandwidth_serialises(self):
        d = DRAM(RTX_3070_MINI)
        line = 0
        t1 = d.access(line, 0)
        t2 = d.access(line, 0)  # same channel, immediately after
        assert t2 > t1

    def test_different_channels_parallel(self):
        d = DRAM(RTX_3070_MINI)
        t1 = d.access(0, 0)
        t2 = d.access(128, 0)  # next line -> different channel
        assert t2 == t1

    def test_bytes_accounted(self):
        d = DRAM(RTX_3070_MINI)
        d.access(0, 0, stream=0)
        d.access(128, 0, stream=0, is_store=True)
        st = d.stats[0]
        assert st.reads == 1
        assert st.writes == 1
        assert d.aggregate_bytes() == 2 * 128

    def test_channel_of_range(self):
        d = DRAM(RTX_3070_MINI)
        for i in range(32):
            assert 0 <= d.channel_of(i * 128) < d.num_channels
