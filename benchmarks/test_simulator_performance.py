"""Simulator performance: instructions simulated per second.

Not a paper figure — a regression guard on the event-loop engineering that
makes whole-frame Python simulation feasible (see
docs/ARCHITECTURE.md, "Performance engineering notes").  These use
pytest-benchmark's repeated rounds to give stable throughput numbers.
"""

import pytest

from repro.api import simulate
from repro.compute import build_hologram_kernels, build_vio_kernels
from repro.config import JETSON_ORIN_MINI
from repro.core import CRISP


@pytest.fixture(scope="module")
def spl_kernels():
    return CRISP(JETSON_ORIN_MINI).trace_scene("SPL", "2k").kernels


def test_perf_compute_throughput(benchmark):
    kernels = build_hologram_kernels(passes=1)
    instructions = sum(k.num_instructions for k in kernels)

    benchmark(lambda: simulate(config=JETSON_ORIN_MINI, streams={0: kernels}))
    rate = instructions / benchmark.stats["mean"]
    print("\nHOLO: %d instructions, %.0f simulated inst/s" % (instructions, rate))
    assert rate > 10_000, "simulation throughput regressed badly"


def test_perf_graphics_frame(benchmark, spl_kernels):
    instructions = sum(k.num_instructions for k in spl_kernels)

    benchmark(lambda: simulate(config=JETSON_ORIN_MINI,
                               streams={0: spl_kernels}))
    rate = instructions / benchmark.stats["mean"]
    print("\nSPL frame: %d instructions, %.0f simulated inst/s"
          % (instructions, rate))
    assert rate > 5_000


def test_perf_concurrent_pair(benchmark, spl_kernels):
    vio = build_vio_kernels()
    instructions = (sum(k.num_instructions for k in spl_kernels)
                    + sum(k.num_instructions for k in vio))

    benchmark(lambda: simulate(config=JETSON_ORIN_MINI,
                               streams={0: spl_kernels, 1: vio}))
    rate = instructions / benchmark.stats["mean"]
    print("\nSPL+VIO: %d instructions, %.0f simulated inst/s"
          % (instructions, rate))
    assert rate > 5_000


def test_perf_trace_generation(benchmark):
    def render():
        return CRISP(JETSON_ORIN_MINI).trace_scene("SPL", "2k")

    result = benchmark(render)
    frags = sum(d.fragments for d in result.draw_stats)
    rate = frags / benchmark.stats["mean"]
    print("\nfunctional pipeline: %d fragments, %.0f fragments/s"
          % (frags, rate))
    assert rate > 10_000
