"""Property-based stress tests of the timing model.

Random kernels must always terminate, conserve instruction counts, and
respect basic physical invariants regardless of shape — the kind of
whole-model guarantees unit tests can't give.
"""

from hypothesis import given, settings, strategies as st

from repro.compute import DeviceMemory, KernelBuilder
from repro.config import CacheConfig, RTX_3070_MINI
from repro.isa import load_traces, save_traces, traces_equal
from repro.api import simulate
from repro.timing import GPU

SMALL = RTX_3070_MINI.replace(
    name="prop", num_sms=2,
    l2=CacheConfig(size_bytes=128 * 1024, assoc=16, hit_latency=120),
    l2_banks=2)


@st.composite
def random_kernel(draw, name="rk"):
    mem = DeviceMemory(region=9)
    grid = draw(st.integers(1, 4))
    warps = draw(st.integers(1, 4))
    b = KernelBuilder(name, grid, warps * 32,
                      regs_per_thread=draw(st.integers(16, 64)),
                      shared_mem=draw(st.sampled_from([0, 4096, 16384])))
    buf = mem.buffer("buf", 1 << 16)
    n_ops = draw(st.integers(1, 8))
    for _ in range(n_ops):
        kind = draw(st.sampled_from(
            ["load", "store", "fp", "int", "sfu", "tensor", "shared",
             "barrier", "divergent"]))
        if kind == "load":
            b.load(buf, draw(st.sampled_from(
                ["coalesced", "strided", "broadcast", "random"])),
                words=draw(st.integers(1, 3)),
                streaming=draw(st.booleans()))
        elif kind == "store":
            b.store(buf)
        elif kind == "fp":
            b.fp(draw(st.integers(1, 20)))
        elif kind == "int":
            b.intop(draw(st.integers(1, 10)))
        elif kind == "sfu":
            b.sfu(draw(st.integers(1, 6)))
        elif kind == "tensor":
            b.tensor(draw(st.integers(1, 6)))
        elif kind == "shared":
            b.shared_store(1).shared_load(1)
        elif kind == "barrier":
            b.barrier()
        else:
            frac = draw(st.floats(0.1, 0.9))
            b.divergent(frac, lambda s: s.fp(3))
    return b.build()


@settings(max_examples=25, deadline=None)
@given(random_kernel())
def test_property_random_kernel_terminates_and_conserves(kernel):
    stats = simulate(config=SMALL, streams={0: [kernel]}).stats
    s = stats.stream(0)
    assert s.instructions == kernel.num_instructions
    assert s.ctas_completed == kernel.num_ctas
    assert s.kernels_completed == 1
    assert stats.cycles >= 1


@settings(max_examples=15, deadline=None)
@given(random_kernel(name="a"), random_kernel(name="b"))
def test_property_two_streams_complete_under_sharing(ka, kb):
    stats = simulate(config=SMALL, streams={0: [ka], 1: [kb]}).stats
    assert stats.stream(0).instructions == ka.num_instructions
    assert stats.stream(1).instructions == kb.num_instructions


@settings(max_examples=15, deadline=None)
@given(random_kernel())
def test_property_simulation_deterministic(kernel):
    a = simulate(config=SMALL, streams={0: [kernel]}).total_cycles
    b = simulate(config=SMALL, streams={0: [kernel]}).total_cycles
    assert a == b


@settings(max_examples=15, deadline=None)
@given(random_kernel())
def test_property_issue_counts_by_unit_sum(kernel):
    stats = simulate(config=SMALL, streams={0: [kernel]}).stats
    s = stats.stream(0)
    assert sum(s.issue_by_unit.values()) == s.instructions


@settings(max_examples=10, deadline=None)
@given(kernel=random_kernel())
def test_property_serialization_roundtrip(tmp_path_factory, kernel):
    path = str(tmp_path_factory.mktemp("traces") / "k.gz")
    save_traces(path, [kernel])
    loaded = load_traces(path)
    assert traces_equal([kernel], loaded)
    assert simulate(config=SMALL, streams={0: [kernel]}).total_cycles == \
        simulate(config=SMALL, streams={0: loaded}).total_cycles


@settings(max_examples=10, deadline=None)
@given(random_kernel(), st.sampled_from(["mps", "mig", "fg-even", "tap"]))
def test_property_policies_never_lose_work(kernel, policy_name):
    from repro.core import make_policy
    pol = make_policy(policy_name, SMALL, [0, 1])
    gpu = GPU(SMALL, policy=pol)
    gpu.add_stream(0, [kernel])
    gpu.add_stream(1, [kernel])
    stats = gpu.run()
    assert stats.stream(0).kernels_completed == 1
    assert stats.stream(1).kernels_completed == 1
