"""CSV reports, mirroring the artifact's ``collect.sh`` outputs.

The CRISP artifact collects simulation statistics (execution cycles, cache
hit rates, L2 breakdowns) into CSV files under the framework root.  These
helpers produce the same kind of flat files from a run's
:class:`~repro.timing.stats.GPUStats` and a frame's
:class:`~repro.graphics.tracegen.FrameResult`.
"""

from __future__ import annotations

import csv
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

from ..graphics.tracegen import FrameResult
from ..isa import Unit
from ..timing.stats import GPUStats

#: Column order of the per-stream simulation report.
SIM_COLUMNS = (
    "stream", "instructions", "busy_cycles", "ipc",
    "l1_accesses", "l1_hit_rate", "l1_tex_accesses",
    "shared_accesses", "ctas", "kernels",
    "fp_issues", "int_issues", "sfu_issues", "tensor_issues", "mem_issues",
)

#: Column order of the per-draw rendering report (render_passes_*.csv).
DRAW_COLUMNS = (
    "draw", "triangles_submitted", "triangles_rasterized", "batches",
    "unique_vertices", "vs_invocations", "fragments", "tex_transactions",
    "mean_tex_lines_per_cta",
)


def sim_rows(stats: GPUStats) -> List[Dict[str, object]]:
    """One row per stream, artifact-CSV style."""
    rows = []
    for sid in sorted(stats.streams):
        s = stats.streams[sid]
        rows.append({
            "stream": sid,
            "instructions": s.instructions,
            "busy_cycles": s.busy_cycles,
            "ipc": round(s.ipc, 4),
            "l1_accesses": s.l1_accesses,
            "l1_hit_rate": round(s.l1_hit_rate, 4),
            "l1_tex_accesses": s.l1_tex_accesses,
            "shared_accesses": s.shared_accesses,
            "ctas": s.ctas_completed,
            "kernels": s.kernels_completed,
            "fp_issues": s.issue_by_unit[Unit.FP],
            "int_issues": s.issue_by_unit[Unit.INT],
            "sfu_issues": s.issue_by_unit[Unit.SFU],
            "tensor_issues": s.issue_by_unit[Unit.TENSOR],
            "mem_issues": s.issue_by_unit[Unit.MEM],
        })
    return rows


def draw_rows(frame: FrameResult) -> List[Dict[str, object]]:
    """One row per draw call of a rendered frame."""
    rows = []
    for d in frame.draw_stats:
        mean_lines = (sum(d.tex_lines_per_cta) / len(d.tex_lines_per_cta)
                      if d.tex_lines_per_cta else 0.0)
        rows.append({
            "draw": d.name,
            "triangles_submitted": d.triangles_submitted,
            "triangles_rasterized": d.triangles_rasterized,
            "batches": d.batches,
            "unique_vertices": d.unique_vertices,
            "vs_invocations": d.vs_invocations,
            "fragments": d.fragments,
            "tex_transactions": d.tex_transactions,
            "mean_tex_lines_per_cta": round(mean_lines, 3),
        })
    return rows


def write_csv(path: str, rows: Sequence[Dict[str, object]],
              columns: Optional[Sequence[str]] = None) -> None:
    """Write rows as CSV; column order defaults to first-row key order."""
    if not rows:
        raise ValueError("no rows to write")
    cols = list(columns) if columns else list(rows[0])
    missing = [c for c in cols if c not in rows[0]]
    if missing:
        raise ValueError("rows lack columns: %s" % missing)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=cols, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def write_sim_report(path: str, stats: GPUStats) -> None:
    write_csv(path, sim_rows(stats), SIM_COLUMNS)


def write_draw_report(path: str, frame: FrameResult) -> None:
    write_csv(path, draw_rows(frame), DRAW_COLUMNS)


# ---------------------------------------------------------------------------
# Sampled time-series CSVs (repro simulate --csv + --sample-interval)
# ---------------------------------------------------------------------------

OCCUPANCY_TIMELINE_COLUMNS = ("cycle", "stream", "warps", "total_warp_slots",
                              "occupancy")
L2_TIMELINE_COLUMNS = ("cycle", "stream", "lines", "total_lines", "share")
L2_CLASS_TIMELINE_COLUMNS = ("cycle", "data_class", "lines", "total_lines",
                             "share")


def occupancy_timeline_rows(stats: GPUStats) -> List[Dict[str, object]]:
    """One row per (sample, stream) of the occupancy trace."""
    rows: List[Dict[str, object]] = []
    for sample in stats.occupancy_trace:
        for sid in sorted(sample.warps_by_stream):
            rows.append({
                "cycle": sample.cycle,
                "stream": sid,
                "warps": sample.warps_by_stream[sid],
                "total_warp_slots": sample.total_warp_slots,
                "occupancy": round(sample.fraction(sid), 4),
            })
    return rows


def _share_rows(snapshots, column: str, label=None
                ) -> List[Dict[str, object]]:
    """One row per (snapshot, key) of ``(cycle, {key: lines})`` snapshots:
    the key's resident L2 lines and its share of the snapshot's total."""
    rows: List[Dict[str, object]] = []
    for cycle, lines in snapshots:
        total = sum(lines.values())
        for key in sorted(lines, key=label):
            rows.append({
                "cycle": cycle,
                column: label(key) if label else key,
                "lines": lines[key],
                "total_lines": total,
                "share": round(lines[key] / total, 4) if total else 0.0,
            })
    return rows


def l2_timeline_rows(stats: GPUStats) -> List[Dict[str, object]]:
    """One row per (sample, stream) of the L2 line-share snapshots."""
    return _share_rows(stats.l2_stream_snapshots, "stream")


def l2_class_timeline_rows(stats: GPUStats) -> List[Dict[str, object]]:
    """One row per (sample, data class) of the L2 composition snapshots."""
    return _share_rows(stats.l2_snapshots, "data_class",
                       attrgetter("value"))


def write_timeline_csvs(base_path: str, stats: GPUStats) -> List[str]:
    """Write the sampled time series as siblings of ``base_path``.

    ``stats.csv`` grows ``stats_occupancy_timeline.csv``,
    ``stats_l2_timeline.csv`` and ``stats_l2_class_timeline.csv`` next to
    it; series with no samples are skipped.  Returns the paths written.
    """
    import os
    stem, _ = os.path.splitext(base_path)
    written: List[str] = []
    for suffix, rows, columns in (
            ("occupancy", occupancy_timeline_rows(stats),
             OCCUPANCY_TIMELINE_COLUMNS),
            ("l2", l2_timeline_rows(stats), L2_TIMELINE_COLUMNS),
            ("l2_class", l2_class_timeline_rows(stats),
             L2_CLASS_TIMELINE_COLUMNS)):
        if rows:
            path = "%s_%s_timeline.csv" % (stem, suffix)
            write_csv(path, rows, columns)
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# Text telemetry summary (repro telemetry DIR)
# ---------------------------------------------------------------------------

def _bar(fraction: float, width: int) -> str:
    n = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * n + "." * (width - n)


def load_telemetry_views(telemetry_dir: str) -> Dict[str, object]:
    """Extract the renderable views of one telemetry directory.

    Reads ``metrics.jsonl`` (header, samples, final) and, when present,
    ``trace.json`` (balanced async kernel b/e span pairs) into a plain
    JSON-safe dict — the shape the run repository persists and both
    :func:`render_telemetry_views` and the dashboard consume:

    ``header`` / ``final``
        the run-log records, verbatim;
    ``kernel_spans``
        ``[{"name", "tid", "start", "end"}, ...]``;
    ``stall_totals``
        ``{stream: {reason: warp_samples}}`` from the final record;
    ``ipc_series``
        ``{stream: [ipc per sample interval]}``;
    ``repartitions``
        cycle numbers of repartition events.
    """
    import os

    from ..telemetry import METRICS_FILE, TRACE_FILE, read_jsonl

    metrics_path = os.path.join(telemetry_dir, METRICS_FILE)
    records = read_jsonl(metrics_path)
    header = next((r for r in records if r["kind"] == "header"), {})
    samples = [r for r in records if r["kind"] == "sample"]
    final = next((r for r in records if r["kind"] == "final"), {})
    reparts = [r for r in records if r["kind"] == "repartition"]

    spans: List[dict] = []
    trace_path = os.path.join(telemetry_dir, TRACE_FILE)
    if os.path.exists(trace_path):
        import json as _json
        with open(trace_path, "r", encoding="utf-8") as f:
            events = _json.load(f).get("traceEvents", [])
        begins: Dict[object, dict] = {}
        for ev in events:
            if ev.get("cat") != "kernel":
                continue
            if ev["ph"] == "b":
                begins[ev["id"]] = ev
            elif ev["ph"] == "e":
                b = begins.pop(ev["id"], None)
                if b is not None:
                    spans.append({"name": b["name"], "tid": b["tid"],
                                  "start": b["ts"], "end": ev["ts"]})

    stream_ids = sorted({sid for s in samples for sid in s["streams"]},
                        key=int)
    ipc_series = {
        sid: [s["streams"].get(sid, {}).get("ipc", 0.0) for s in samples]
        for sid in stream_ids
    }
    return {
        "source": telemetry_dir,
        "header": header,
        "final": final,
        "kernel_spans": spans,
        "stall_totals": final.get("stall_totals", {}),
        "ipc_series": ipc_series,
        "repartitions": [r["cycle"] for r in reparts],
    }


def render_telemetry_views(views: Dict[str, object],
                           width: int = 60) -> str:
    """Render extracted telemetry views (see :func:`load_telemetry_views`)
    as a terminal report: run header, per-stream kernel timeline bars,
    stall-reason attribution, and an IPC strip chart.

    Operates on plain data, so it renders equally from a loose telemetry
    directory and from views stored in the run repository
    (``repro telemetry --run ID``).
    """
    header = views.get("header") or {}
    final = views.get("final") or {}
    ipc_series: Dict[str, List[float]] = views.get("ipc_series") or {}
    n_samples = len(next(iter(ipc_series.values()), []))

    lines: List[str] = []
    lines.append("telemetry: %s" % views.get("source", "?"))
    if header:
        lines.append(
            "config %s (%s)  policy %s  streams %s  sample interval %s"
            % (header.get("config", "?"),
               str(header.get("config_fingerprint", ""))[:12],
               header.get("policy", "?"), header.get("streams", []),
               header.get("sample_interval")))
    if final:
        lines.append("run: %d cycles, %d instructions, %d samples"
                     % (final.get("cycles", 0),
                        final.get("total_instructions", 0),
                        final.get("samples", n_samples)))
    total_cycles = final.get("cycles", 0)

    spans = views.get("kernel_spans") or []
    if spans and total_cycles:
        lines.append("")
        lines.append("kernel timeline (one bar per kernel, full width ="
                     " %d cycles):" % total_cycles)
        for sp in sorted(spans, key=lambda s: (s["tid"], s["start"])):
            lead = int(sp["start"] / total_cycles * width)
            body = max(1, int((sp["end"] - sp["start"])
                              / total_cycles * width))
            body = min(body, width - lead)
            lines.append("  s%-2d %-20s |%s%s%s| %d..%d"
                         % (sp["tid"], sp["name"][:20], " " * lead,
                            "=" * body, " " * (width - lead - body),
                            sp["start"], sp["end"]))

    # Stall attribution (cumulative warp-samples over all sample ticks).
    stall_totals = views.get("stall_totals") or {}
    if stall_totals:
        lines.append("")
        lines.append("stall attribution (sampled warp states):")
        for sid in sorted(stall_totals, key=int):
            reasons = stall_totals[sid]
            total = sum(reasons.values()) or 1
            lines.append("  stream %s (%d stalled warp-samples):"
                         % (sid, total))
            for reason, n in sorted(reasons.items(), key=lambda kv: -kv[1]):
                lines.append("    %-16s %s %5.1f%%"
                             % (reason, _bar(n / total, width // 2),
                                100.0 * n / total))

    # IPC strip chart per stream.
    if ipc_series:
        lines.append("")
        lines.append("IPC per sample interval (max-normalised):")
        for sid in sorted(ipc_series, key=int):
            series = ipc_series[sid]
            peak = max(series) or 1.0
            # Resample to the requested width by bucket-averaging.
            chart = []
            buckets = min(width, len(series))
            for i in range(buckets):
                lo = i * len(series) // buckets
                hi = max(lo + 1, (i + 1) * len(series) // buckets)
                v = sum(series[lo:hi]) / (hi - lo)
                ramp = " .:-=+*#%@"
                chart.append(ramp[min(len(ramp) - 1,
                                      int(v / peak * (len(ramp) - 1)))])
            lines.append("  stream %s |%s| peak %.2f" % (sid, "".join(chart),
                                                         peak))
    reparts = views.get("repartitions") or []
    if reparts:
        lines.append("")
        lines.append("repartition events: %d (%s)"
                     % (len(reparts),
                        ", ".join("@%d" % c for c in reparts[:8])
                        + ("..." if len(reparts) > 8 else "")))
    return "\n".join(lines) + "\n"


def render_telemetry_summary(telemetry_dir: str, width: int = 60) -> str:
    """Render a telemetry directory as a text timeline/flamegraph summary
    (loads, then renders — see the two halves above)."""
    return render_telemetry_views(load_telemetry_views(telemetry_dir),
                                  width=width)


# ---------------------------------------------------------------------------
# QoS report / campaign rendering (repro qos run / repro qos campaign)
# ---------------------------------------------------------------------------

def render_qos_report(report: dict) -> str:
    """Terminal rendering of one QoS run report (runner.run_scenario)."""
    lines: List[str] = []
    scenario = report["scenario"]
    lines.append("qos run: scenario %s  policy %s  seed %s  (%s, %d cycles)"
                 % (scenario["name"], report["policy"], report["seed"],
                    report["config"]["name"], report["total_cycles"]))
    lines.append("  %s" % scenario["description"])
    lines.append("")
    hdr = ("%-10s %4s | %8s %8s %8s %8s | %9s %4s %-4s"
           % ("client", "reqs", "p50", "p95", "p99", "max",
              "budget", "vio", "slo"))
    lines.append("frame time (cycles):")
    lines.append(hdr)
    lines.append("-" * len(hdr))
    for name in sorted(report["clients"]):
        c = report["clients"][name]
        ft = c["frame_time_cycles"]
        slo = c["slo"]
        budget = ("%9d" % slo["budget_cycles"]
                  if slo["budget_cycles"] is not None else "        -")
        verdict = ("met" if slo["met"] else "MISS"
                   ) if slo["budget_cycles"] is not None else "-"
        lines.append("%-10s %4d | %8d %8d %8d %8d | %s %4d %-4s"
                     % (name[:10], c["requests"], ft["p50"], ft["p95"],
                        ft["p99"], ft["max"], budget, slo["violations"],
                        verdict))
    lines.append("")
    lines.append("kernel turnaround (cycles):")
    hdr2 = ("%-10s %8s %8s %8s %8s" % ("client", "p50", "p95", "p99", "max"))
    lines.append(hdr2)
    lines.append("-" * len(hdr2))
    for name in sorted(report["clients"]):
        kt = report["clients"][name]["kernel_turnaround_cycles"]
        lines.append("%-10s %8d %8d %8d %8d"
                     % (name[:10], kt["p50"], kt["p95"], kt["p99"],
                        kt["max"]))
    ctl = report.get("controller")
    if ctl:
        lines.append("")
        lines.append("controller %s: %d interventions, "
                     "final compute shares %s, final L2 shares %s"
                     % (ctl["name"], ctl["interventions"],
                        ctl["final_compute_shares"], ctl["final_l2_shares"]))
        for cycle, decision in ctl["history"][:12]:
            lines.append("  @%-8d %s: stream %s -> stream %s"
                         % (cycle, decision["kind"], decision["from"],
                            decision["to"]))
        if len(ctl["history"]) > 12:
            lines.append("  ... %d more" % (len(ctl["history"]) - 12))
    return "\n".join(lines) + "\n"


def render_qos_campaign(doc: dict) -> str:
    """Terminal rendering of a QoS campaign document (run_campaign)."""
    lines: List[str] = []
    lines.append("qos campaign: seed %s, scenarios %s"
                 % (doc["seed"], ", ".join(doc["scenarios"])))
    lines.append("")
    hdr = ("%-8s %-14s %-6s %6s %10s %12s %5s"
           % ("scenario", "policy", "slo", "worst%", "cycles",
              "p99 (slo cl)", "moves"))
    lines.append(hdr)
    lines.append("-" * len(hdr))
    for row in doc["rows"]:
        if row["status"] != "ok":
            lines.append("%-8s %-14s %s" % (row["scenario"], row["policy"],
                                            "n/a (%s)" % row.get("reason")))
            continue
        slo_p99 = [c["p99_frame_cycles"] for c in row["clients"].values()
                   if c["budget_ms"] is not None]
        lines.append("%-8s %-14s %-6s %5.1f%% %10d %12s %5d"
                     % (row["scenario"], row["policy"],
                        "met" if row["slo_met_all"] else "MISS",
                        100 * row["worst_violation_rate"],
                        row["total_cycles"],
                        "/".join(str(v) for v in slo_p99) or "-",
                        row["interventions"]))
    wins = doc["headline"]["adaptive_wins"]
    lines.append("")
    if wins:
        lines.append("adaptive-only SLO wins (adaptive meets, every "
                     "static misses):")
        for w in wins:
            lines.append("  %s/%s: adaptive p95 %d cycles within budget "
                         "%d cycles; statics p95 %s"
                         % (w["scenario"], w["client"],
                            w["adaptive_p95_cycles"], w["budget_cycles"],
                            ", ".join("%s=%d" % kv for kv in
                                      sorted(w["static_p95_cycles"].items()))))
    else:
        lines.append("no adaptive-only SLO wins in this campaign")
    return "\n".join(lines) + "\n"
