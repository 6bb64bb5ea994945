"""Seeded config/workload fuzzer: random RunRequests for the oracle.

``build_case(seed)`` deterministically derives one :class:`FuzzCase` — a
random GPU configuration (cache geometry, scheduler mix, SM count), a
random workload mix (synthetic kernels, the named compute workloads, nano
scene traces) and a random partition policy (named policies, uneven MPS
splits, uneven MiG bank routing, skewed FG fractions) — everything the
differential oracle then replays plain and under the invariant checker.

Design constraints:

* **Determinism** — the same seed always produces the same case; a CI
  failure reproduces locally from the seed alone (``repro validate fuzz
  --seeds 1 --start-seed N``).
* **Fresh policies per run** — policy objects are stateful (TAP re-points
  ranges, Warped-Slicer records decisions), so a case carries a JSON-able
  *spec* and materialises a new instance for every run.
* **Small cases** — a case simulates in well under a second so a 200-seed
  sweep fits a CI leg; the point is configuration coverage, not scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import RunRequest
from ..compute import DeviceMemory, KernelBuilder, build_compute_workload
from ..config import GPUConfig, get_preset
from ..core.partition import FGEvenPolicy, MiGPolicy, MPSPolicy
from ..core.platform import make_policy
from ..isa import KernelTrace

__all__ = ["FuzzCase", "build_case", "build_cases"]

#: (schedulers_per_sm, max_warps_per_sm) pairs satisfying the divisibility
#: constraint, kept small so fuzz cases simulate fast.
_SCHED_WARPS = ((1, 8), (2, 16), (2, 32), (4, 32))

#: Named compute workloads with their smallest useful sizing.
_NAMED_WORKLOADS = (
    ("HOLO", {"passes": 1}),
    ("VIO", {"frames": 1}),
    ("ATW", {"frames": 1}),
)

#: Rendered nano scenes are cached per (scene, res) — the traces are
#: read-only and every replay builds fresh WarpContexts.
_SCENE_CACHE: Dict[Tuple[str, str], List[KernelTrace]] = {}


@dataclass
class FuzzCase:
    """One fuzzed simulation: config + streams + a policy spec."""

    seed: int
    config: GPUConfig
    streams: Dict[int, List[KernelTrace]]
    #: None, {"name": <policy name>} or a structural spec (see
    #: :meth:`make_policy`).  JSON-able so failures serialise to a corpus.
    policy_spec: Optional[dict]
    #: Human/JSON description of the case (written to failure corpora).
    descr: dict = field(default_factory=dict)
    #: When True the plain reference run records full telemetry.
    telemetry_on: bool = False

    def make_policy(self):
        """Materialise a *fresh* policy instance (policies are stateful)."""
        spec = self.policy_spec
        if spec is None:
            return None
        if "name" in spec:
            if len(self.streams) < 2:
                return None
            return make_policy(spec["name"], self.config,
                               sorted(self.streams))
        kind = spec["kind"]
        if kind == "mps":
            return MPSPolicy({int(s): list(v)
                              for s, v in spec["sm_assignment"].items()})
        if kind == "mig":
            banks = spec.get("bank_assignment")
            return MiGPolicy(
                {int(s): list(v) for s, v in spec["sm_assignment"].items()},
                {int(s): list(v) for s, v in banks.items()} if banks else None)
        if kind == "fg":
            return FGEvenPolicy({int(s): f
                                 for s, f in spec["fractions"].items()})
        raise ValueError("unknown policy spec %r" % (spec,))

    def make_telemetry(self):
        """Fresh recorder for one run, or None for plain cases.

        Fresh per run because recorders accumulate; a short sample
        interval so even sub-thousand-cycle cases take several samples.
        """
        if not self.telemetry_on:
            return None
        from ..telemetry import Telemetry
        return Telemetry(sample_interval=256)

    def request(self, telemetry=None) -> RunRequest:
        return RunRequest(config=self.config, streams=self.streams,
                          policy=self.make_policy(), telemetry=telemetry)

    @property
    def total_instructions(self) -> int:
        return sum(k.num_instructions
                   for kernels in self.streams.values() for k in kernels)

    def __repr__(self) -> str:
        return "FuzzCase(seed=%d, %d streams, %d insts, policy=%s)" % (
            self.seed, len(self.streams), self.total_instructions,
            self.policy_spec.get("name", self.policy_spec.get("kind"))
            if self.policy_spec else None)


# -- configuration ----------------------------------------------------------

def _random_config(rng: random.Random, seed: int) -> Tuple[GPUConfig, bool]:
    base = get_preset("JetsonOrin-mini")
    scheds, warps = rng.choice(_SCHED_WARPS)
    roomy = rng.random() < 0.4
    if roomy:
        # Roomy L1 (preset-like): misses stay within the MSHR file.
        l1_sets, l1_assoc, l1_mshr = rng.choice((64, 128)), 8, 64
    else:
        # Tight L1: non-power-of-two sets, scarce MSHRs — stresses the
        # miss paths.
        l1_sets = rng.choice((8, 16, 24, 32))   # 24: non-power-of-two path
        l1_assoc = rng.choice((2, 4, 8))
        l1_mshr = rng.choice((2, 4, 16, 64))
    l1 = base.l1.__class__(
        size_bytes=l1_sets * l1_assoc * 128,
        assoc=l1_assoc,
        mshr_entries=l1_mshr,
        hit_latency=base.l1.hit_latency,
        sector_size=rng.choice((0, 0, 32)),
    )
    l2_banks = rng.choice((2, 4))
    sets_per_bank = rng.choice((16, 32, 48))    # 48: non-power-of-two total
    l2_assoc = rng.choice((4, 8))
    l2 = base.l2.__class__(
        size_bytes=l2_banks * sets_per_bank * l2_assoc * 128,
        assoc=l2_assoc,
        mshr_entries=rng.choice((8, 32)),
        hit_latency=base.l2.hit_latency,
    )
    return base.replace(
        name="fuzz-%d" % seed,
        num_sms=rng.choice((2, 2, 3, 4, 6)),
        schedulers_per_sm=scheds,
        max_warps_per_sm=warps,
        max_ctas_per_sm=rng.choice((4, 8, 16)),
        scheduler_policy=rng.choice(("gto", "gto", "lrr")),
        l1=l1, l2=l2, l2_banks=l2_banks,
        icnt_latency=rng.choice((10, 40)),
        dram_latency=rng.choice((100, 220)),
    ), roomy


# -- workloads --------------------------------------------------------------

def _synthetic_kernel(rng: random.Random, name: str, region: int,
                      shared_ok: bool, gentle: bool = False) -> KernelTrace:
    mem = DeviceMemory(region=region)
    shared = rng.choice((0, 0, 2048)) if shared_ok else 0
    kb = KernelBuilder(
        name,
        grid=rng.randint(2, 8),
        block=rng.choice((32, 64)),
        regs_per_thread=rng.choice((16, 32)),
        shared_mem=shared,
    )
    buf = mem.buffer("a", rng.choice((4, 16, 64)) * 1024)
    out = mem.buffer("b", 16 * 1024)
    # Gentle kernels keep each warp load to a line or two (preset-like
    # traffic); scatter patterns are MSHR bombs (one random load can touch
    # 32 lines) that keep the tight-L1 miss paths busy.
    patterns = (("coalesced", "coalesced", "broadcast") if gentle else
                ("coalesced", "strided", "random", "broadcast"))
    for _ in range(rng.randint(1, 3)):
        pattern = rng.choice(patterns)
        kb.load(buf, pattern=pattern, words=rng.randint(1, 2),
                streaming=rng.random() < 0.1)
        kb.fp(rng.randint(1, 6))
        if rng.random() < 0.3:
            kb.intop(rng.randint(1, 3))
        if shared and rng.random() < 0.5:
            kb.shared_store().shared_load()
        if rng.random() < 0.25 and kb.block >= 64:
            kb.barrier()
        if rng.random() < 0.4:
            kb.store(out, pattern="coalesced")
    return kb.build()


def _random_stream(rng: random.Random, sid: int, allow_scenes: bool,
                   gentle: bool = False) -> Tuple[List[KernelTrace], dict]:
    roll = rng.random()
    if allow_scenes and roll < 0.15:
        key = ("SPL", "nano")
        kernels = _SCENE_CACHE.get(key)
        if kernels is None:
            from ..core.platform import CRISP
            kernels = CRISP().trace_scene(*key).kernels
            _SCENE_CACHE[key] = kernels
        return list(kernels), {"kind": "scene", "scene": key[0],
                               "res": key[1]}
    if roll < 0.35:
        name, kwargs = rng.choice(_NAMED_WORKLOADS)
        return (build_compute_workload(name, **kwargs),
                {"kind": "builder", "name": name, "args": dict(kwargs)})
    count = rng.randint(1, 3)
    kernels = [_synthetic_kernel(rng, "fz%d_k%d" % (sid, i),
                                 region=8 + sid, shared_ok=True,
                                 gentle=gentle)
               for i in range(count)]
    return kernels, {
        "kind": "synthetic",
        "kernels": [{"name": k.name, "ctas": k.num_ctas,
                     "warps_per_cta": k.warps_per_cta,
                     "insts": k.num_instructions} for k in kernels],
    }


# -- policies ---------------------------------------------------------------

def _random_policy_spec(rng: random.Random, config: GPUConfig,
                        stream_ids: Sequence[int],
                        max_warps_per_cta: int = 1) -> Optional[dict]:
    streams = list(stream_ids)
    if len(streams) < 2:
        return None
    # Warp-quota policies (FG fractions, fg-even, warped-slicer) can hand a
    # stream fewer warps than its largest CTA needs, which is a genuine
    # deadlock, not a simulator bug — only offer them when even a quarter
    # share still fits the biggest CTA.
    quota_ok = config.max_warps_per_sm // 4 >= max_warps_per_cta
    roll = rng.random()
    if roll < 0.10:
        return None
    if roll < 0.50:
        names = ["shared", "mps", "mig", "tap"]
        if quota_ok:
            names += ["fg-even", "warped-slicer"]
        return {"name": rng.choice(names)}
    kinds = ["mps", "mig"] + (["fg"] if quota_ok else [])
    kind = rng.choice(kinds)
    if kind == "fg":
        f = rng.choice((0.25, 0.375, 0.5, 0.625, 0.75))
        return {"kind": "fg", "fractions": {str(streams[0]): f,
                                            str(streams[1]): 1.0 - f}}
    # Uneven contiguous SM split (the even split is covered by the names).
    cut = rng.randint(1, config.num_sms - 1)
    assignment = {str(streams[0]): list(range(cut)),
                  str(streams[1]): list(range(cut, config.num_sms))}
    if kind == "mps":
        return {"kind": "mps", "sm_assignment": assignment}
    bank_cut = rng.randint(1, config.l2_banks - 1)
    banks = {str(streams[0]): list(range(bank_cut)),
             str(streams[1]): list(range(bank_cut, config.l2_banks))}
    return {"kind": "mig", "sm_assignment": assignment,
            "bank_assignment": banks}


# -- entry points -----------------------------------------------------------

def build_case(seed: int, allow_scenes: bool = True) -> FuzzCase:
    """Derive the fuzz case for ``seed`` (same seed -> same case)."""
    rng = random.Random(seed)
    config, roomy = _random_config(rng, seed)
    num_streams = 2 if rng.random() < 0.8 else 1
    streams: Dict[int, List[KernelTrace]] = {}
    workload_descr = {}
    for sid in range(num_streams):
        kernels, descr = _random_stream(rng, sid, allow_scenes,
                                        gentle=roomy)
        streams[sid] = kernels
        workload_descr[str(sid)] = descr
    max_wpc = max(k.warps_per_cta
                  for kernels in streams.values() for k in kernels)
    policy_spec = _random_policy_spec(rng, config, sorted(streams),
                                      max_warps_per_cta=max_wpc)
    # Telemetry-on arm: a quarter of the reference runs record full
    # telemetry, so the checked comparison also polices the recorder hooks.
    telemetry_on = rng.random() < 0.25
    descr = {
        "seed": seed,
        "config": config.canonical_dict(),
        "workload": workload_descr,
        "policy": policy_spec,
        "telemetry": telemetry_on,
    }
    return FuzzCase(seed=seed, config=config, streams=streams,
                    policy_spec=policy_spec, descr=descr,
                    telemetry_on=telemetry_on)


def build_cases(seeds: Sequence[int],
                allow_scenes: bool = True) -> List[FuzzCase]:
    return [build_case(s, allow_scenes=allow_scenes) for s in seeds]
