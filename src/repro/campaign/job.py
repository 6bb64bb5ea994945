"""Declarative job specs and their content fingerprints.

A :class:`Job` describes one simulation point of a sweep — scene x compute
workload x policy x machine config — as plain data.  Its
:meth:`~Job.fingerprint` is a stable content hash over the *canonicalised*
spec: config objects hash via :meth:`GPUConfig.fingerprint`, preset names
resolve to the config they denote before hashing, free-form params are
serialised with sorted keys, and trace-file inputs hash by decompressed
content rather than by path.  Two jobs that would simulate the same thing
therefore share a fingerprint across processes, sessions and machines —
the key property behind the on-disk result cache and campaign resume.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from ..config import GPUConfig, get_preset

#: Bumped whenever the fingerprinted spec layout changes, invalidating
#: cached results written by incompatible builds.
FINGERPRINT_VERSION = 1


def _hash_trace_file(path: str) -> str:
    """Content hash of a saved trace file (decompressed, so re-writing the
    same kernels with a different gzip mtime keys identically)."""
    h = hashlib.sha256()
    with gzip.open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class Job:
    """One simulation point of a campaign."""

    scene: Optional[str] = None
    res: str = "2k"
    lod_enabled: Optional[bool] = None
    compute: Optional[str] = None
    compute_args: Optional[Dict[str, object]] = None
    policy: Optional[str] = "mps"
    config: Union[str, GPUConfig] = "JetsonOrin-mini"
    sample_interval: Optional[int] = None
    graphics_trace: Optional[str] = None
    compute_trace: Optional[str] = None
    #: Free-form sweep parameters; fingerprinted, surfaced in summaries.
    params: Dict[str, object] = field(default_factory=dict)
    #: Display name only — never part of the fingerprint.
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scene and self.graphics_trace:
            raise ValueError("give either scene or graphics_trace, not both")
        if self.compute and self.compute_trace:
            raise ValueError("give either compute or compute_trace, not both")
        if not (self.scene or self.graphics_trace
                or self.compute or self.compute_trace):
            raise ValueError("empty job: no graphics and no compute input")

    @property
    def execution(self) -> None:
        """Always None: every job runs on the serial engine.  Kept, read
        only, for readers written when jobs carried an execution plan."""
        return None

    # -- config ---------------------------------------------------------------
    def resolved_config(self) -> GPUConfig:
        if isinstance(self.config, GPUConfig):
            return self.config
        return get_preset(self.config)

    # -- identity -------------------------------------------------------------
    def _trace_spec(self) -> Dict[str, object]:
        """The canonical inputs of trace collection: what the kernels
        depend on.  Config, policy, sample interval and params are not
        here — ``collect_streams`` never reads them."""
        return {
            "scene": self.scene,
            "res": self.res if (self.scene or self.graphics_trace) else None,
            "lod_enabled": self.lod_enabled,
            "compute": self.compute,
            "compute_args": dict(self.compute_args or {}),
            "graphics_trace": (_hash_trace_file(self.graphics_trace)
                               if self.graphics_trace else None),
            "compute_trace": (_hash_trace_file(self.compute_trace)
                              if self.compute_trace else None),
        }

    def trace_key(self) -> str:
        """Canonical text of the trace part of :meth:`spec_dict`.  Jobs
        with equal keys simulate on identical streams, so a campaign
        collects those streams once for all of them."""
        return json.dumps(self._trace_spec(), sort_keys=True,
                          separators=(",", ":"))

    def spec_dict(self) -> dict:
        """Canonical plain-data form of everything that determines the
        simulation's outcome (and nothing that doesn't)."""
        spec = self._trace_spec()
        spec.update(
            policy=self.policy,
            config=self.resolved_config().fingerprint(),
            sample_interval=self.sample_interval,
            params=dict(self.params),
        )
        return spec

    def fingerprint(self) -> str:
        payload = "job/v%d:%s" % (
            FINGERPRINT_VERSION,
            json.dumps(self.spec_dict(), sort_keys=True,
                       separators=(",", ":")))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- presentation / serialization ----------------------------------------
    def default_label(self) -> str:
        gfx = self.scene or (self.graphics_trace and "gfx-trace") or None
        cmp_ = self.compute or (self.compute_trace and "cmp-trace") or None
        work = "+".join(p for p in (gfx, cmp_) if p)
        parts = [work]
        if gfx and cmp_ and self.policy:
            parts.append("/" + self.policy)
        if gfx:
            parts.append("@" + self.res)
        config = self.config if isinstance(self.config, str) \
            else self.config.name
        parts.append("[%s]" % config)
        return "".join(parts)

    @property
    def display_label(self) -> str:
        return self.label or self.default_label()

    def to_dict(self) -> dict:
        """Round-trippable plain-data form (see :meth:`from_dict`).

        Unlike :meth:`spec_dict` this keeps paths and labels; an explicit
        ``GPUConfig`` is stored as its canonical dict.
        """
        config: object = self.config
        if isinstance(config, GPUConfig):
            config = config.canonical_dict()
        return {
            "scene": self.scene,
            "res": self.res,
            "lod_enabled": self.lod_enabled,
            "compute": self.compute,
            "compute_args": dict(self.compute_args or {}) or None,
            "policy": self.policy,
            "config": config,
            "sample_interval": self.sample_interval,
            "graphics_trace": self.graphics_trace,
            "compute_trace": self.compute_trace,
            "params": dict(self.params),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        known = {
            "scene", "res", "lod_enabled", "compute", "compute_args",
            "policy", "config", "sample_interval", "graphics_trace",
            "compute_trace", "params", "label", "execution", "workers",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError("unknown job fields: %s" % sorted(unknown))
        kwargs = dict(data)
        # Older job files, cache manifests and submissions carry an
        # execution plan or a worker count; every job now runs serially.
        kwargs.pop("execution", None)
        kwargs.pop("workers", None)
        config = kwargs.get("config")
        if isinstance(config, dict):
            cache_fields = {"l1", "l2"}
            from ..config import CacheConfig
            cfg = {k: (CacheConfig(**v) if k in cache_fields else v)
                   for k, v in config.items()}
            kwargs["config"] = GPUConfig(**cfg)
        if kwargs.get("compute_args") is None:
            kwargs.pop("compute_args", None)
        if kwargs.get("params") is None:
            kwargs.pop("params", None)
        defaults = {"res": "2k", "policy": "mps", "config": "JetsonOrin-mini"}
        for key, value in defaults.items():
            if kwargs.get(key) is None:
                kwargs[key] = value
        return cls(**kwargs)
