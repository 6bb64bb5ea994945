"""Tests for dynamic-quota drain semantics (Section III-A).

"When the partition ratio changes dynamically, on-chip resources must be
reassigned... the CTA scheduler stops issuing CTAs from kernel A and waits
until [enough] CTAs from kernel A commit."  These tests pin that exact
behaviour: shrinking a stream's quota mid-run stops new issues immediately
and the stream drains by attrition, never exceeding the new ceiling once
it has drained below it.
"""


from repro.compute import DeviceMemory, KernelBuilder
from repro.config import RTX_3070_MINI
from repro.core import FGDynamicPolicy
from repro.timing import GPU


def long_kernel(name, n_ctas=48, fp=400):
    # 48 CTAs x 4 warps = 192 warps wanted: more than a 0.25 quota
    # (128 warps on the 8-SM mini) can host, so quotas genuinely bind.
    mem = DeviceMemory(region=15)
    buf = mem.buffer(name, 1 << 16)
    return (KernelBuilder(name, n_ctas, 128, regs_per_thread=32)
            .load(buf).fp(fp).store(buf).build())


class ShrinkingPolicy(FGDynamicPolicy):
    """Halves stream 0's quota once, mid-run, and records usage after."""

    name = "shrinking"
    epoch_interval = 400

    def __init__(self):
        super().__init__({0: 0.5, 1: 0.5})
        self.shrunk_at = None
        self.post_shrink_usage = []

    def on_epoch(self, gpu, cycle):
        if self.shrunk_at is None and cycle > 800:
            self.set_fraction(0, 0.25, cycle)
            self.shrunk_at = cycle
        elif self.shrunk_at is not None:
            used = sum(sm.warps_used.get(0, 0) for sm in gpu.sms)
            self.post_shrink_usage.append((cycle, used))


class TestQuotaDrain:
    def test_usage_drains_to_new_quota(self):
        policy = ShrinkingPolicy()
        gpu = GPU(RTX_3070_MINI, policy=policy)
        gpu.add_stream(0, [long_kernel("a") for _ in range(3)])
        gpu.add_stream(1, [long_kernel("b") for _ in range(3)])
        gpu.run()
        assert policy.shrunk_at is not None, "the shrink must have fired"
        assert policy.post_shrink_usage, "need post-shrink samples"
        quota_warps = int(RTX_3070_MINI.max_warps_per_sm * 0.25) \
            * RTX_3070_MINI.num_sms
        # Usage must eventually fall to (and never again exceed) the
        # shrunken ceiling.
        below = [u for _, u in policy.post_shrink_usage if u <= quota_warps]
        assert below, "stream 0 never drained below its new quota"
        first_below = next(i for i, (_, u)
                           in enumerate(policy.post_shrink_usage)
                           if u <= quota_warps)
        tail = policy.post_shrink_usage[first_below:]
        assert all(u <= quota_warps for _, u in tail), \
            "usage rose above the shrunken quota after draining"

    def test_no_preemption(self):
        """Draining is by attrition: total completed CTAs equals the
        launched total (nothing is killed)."""
        policy = ShrinkingPolicy()
        gpu = GPU(RTX_3070_MINI, policy=policy)
        kernels_a = [long_kernel("a") for _ in range(3)]
        kernels_b = [long_kernel("b") for _ in range(3)]
        gpu.add_stream(0, kernels_a)
        gpu.add_stream(1, kernels_b)
        stats = gpu.run()
        assert stats.stream(0).ctas_completed == \
            sum(k.num_ctas for k in kernels_a)
        assert stats.stream(1).ctas_completed == \
            sum(k.num_ctas for k in kernels_b)

    def test_growth_takes_effect(self):
        """Raising a quota lets the stream occupy more than before."""
        class GrowingPolicy(FGDynamicPolicy):
            name = "growing"
            epoch_interval = 300

            def __init__(self):
                super().__init__({0: 0.25, 1: 0.25})
                self.max_seen = 0
                self.grew = False

            def on_epoch(self, gpu, cycle):
                used = sum(sm.warps_used.get(0, 0) for sm in gpu.sms)
                self.max_seen = max(self.max_seen, used)
                if not self.grew and cycle > 600:
                    self.set_fraction(0, 0.75, cycle)
                    self.grew = True

        policy = GrowingPolicy()
        gpu = GPU(RTX_3070_MINI, policy=policy)
        gpu.add_stream(0, [long_kernel("a") for _ in range(4)])
        gpu.add_stream(1, [long_kernel("b")])
        gpu.run()
        quarter = int(RTX_3070_MINI.max_warps_per_sm * 0.25) \
            * RTX_3070_MINI.num_sms
        assert policy.grew
        assert policy.max_seen > quarter, \
            "stream 0 should exceed its original quarter after growth"
