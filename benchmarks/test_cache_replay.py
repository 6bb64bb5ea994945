"""Cache replay benchmark: the memory layer timed on its own.

Records every state-changing call the timing model makes into each L1 and
L2 bank (``access``, ``fill``, ``mshr_cycle``, the L1 carveout and TAP's
set re-pointing) on SPL+VIO @ nano, ``tap``, JetsonOrin-mini, then replays
each cache's call stream through a fresh :class:`SetAssocCache`.  The
replay must return the recorded results and end with the in-run
``CacheStats``; its ns per access is printed as a trend, with no
wall-clock gate.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_cache_replay.py -m bench -s
"""

from __future__ import annotations

import time

import pytest

from repro.api import WorkloadSpec, simulate
from repro.memory import SetAssocCache

from bench_util import print_header

RECORDED = ("access", "fill", "mshr_cycle", "set_usable_ways", "partition_sets")
REPEATS = 5


def _counters(stats):
    return {s: (st.accesses, st.hits, st.misses, st.mshr_merges, st.evictions)
            for s, st in stats.items()}


def _record(monkeypatch):
    """Patch SetAssocCache to log ``(method, args, kwargs, result)`` per
    cache instance; returns the log, filled as the run proceeds."""
    log = {}
    for name in RECORDED:
        def wrapper(self, *args, _name=name, _method=getattr(SetAssocCache, name),
                    **kwargs):
            result = _method(self, *args, **kwargs)
            log.setdefault(self, []).append((_name, args, kwargs, result))
            return result
        monkeypatch.setattr(SetAssocCache, name, wrapper)
    return log


def _replay(log):
    """One timed replay of every cache's calls on fresh caches."""
    fresh = {cache: SetAssocCache(cache.config, cache.name) for cache in log}
    bound = {cache: [(getattr(fresh[cache], name), args, kwargs)
                     for name, args, kwargs, _ in calls]
             for cache, calls in log.items()}
    start = time.perf_counter()
    results = {cache: [fn(*args, **kwargs) for fn, args, kwargs in ops]
               for cache, ops in bound.items()}
    return time.perf_counter() - start, fresh, results


@pytest.mark.bench
def test_cache_replay(monkeypatch):
    log = _record(monkeypatch)
    result = simulate(config="JetsonOrin-mini", policy="tap",
                      workload=WorkloadSpec(scene="SPL", res="nano", compute="VIO"))
    monkeypatch.undo()
    assert result.total_cycles > 0
    accesses = sum(1 for calls in log.values() for call in calls if call[0] == "access")
    timings = []
    for _ in range(REPEATS):
        elapsed, fresh, results = _replay(log)
        timings.append(elapsed)

    print_header("cache replay: SPL+VIO @ nano, tap, JetsonOrin-mini")
    l1 = [c for c in log if c.name.startswith("l1.")]
    print("caches:    %d L1, %d L2 banks" % (len(l1), len(log) - len(l1)))
    print("calls:     %d (%d accesses)" % (sum(map(len, log.values())), accesses))
    print("replay:    %.1f ns/access (best of %d, all calls timed)"
          % (min(timings) / accesses * 1e9, REPEATS))

    for cache, calls in log.items():
        assert results[cache] == [call[3] for call in calls], cache.name
        want = _counters(cache.stats)
        got = _counters(fresh[cache].stats)
        if not cache.name.startswith("l1."):
            # L2Cache.access adds a merge for a hit on a line whose fill is
            # in flight, outside the bank's own counters.
            for (name, args, _, res) in calls:
                if name == "access" and res[0] and res[1] is not None:
                    s = args[2]
                    got[s] = got[s][:3] + (got[s][3] + 1,) + got[s][4:]
        assert got == want, cache.name
