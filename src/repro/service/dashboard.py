"""The dashboard page: one self-contained HTML document, no external assets.

Everything renders client-side from the JSON endpoints in
:mod:`repro.service.server`; the page carries its own (validated) palette
as CSS custom properties with light and dark modes.  Charts are plain
inline SVG — sim-rate trend lines across stored runs, a per-run kernel
timeline, stall-attribution bars, an IPC strip chart and QoS percentile
tables — mirroring the text renderers in :mod:`repro.harness.report`.
"""

DASHBOARD_HTML = r"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro — run repository</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;        /* chart surface */
  --plane: #f9f9f7;            /* page plane */
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --ring: rgba(11,11,11,0.10);
  --series-1: #2a78d6;  --series-2: #eb6834;  --series-3: #1baf7a;
  --series-4: #eda100;  --series-5: #e87ba4;  --series-6: #008300;
  --series-7: #4a3aa7;  --series-8: #e34948;
  --status-good: #0ca30c;  --status-warning: #fab219;
  --status-serious: #ec835a;  --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --plane: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --grid: #2c2c2a;
    --baseline: #383835;
    --ring: rgba(255,255,255,0.10);
    --series-1: #3987e5;  --series-2: #d95926;  --series-3: #199e70;
    --series-4: #c98500;  --series-5: #d55181;  --series-6: #008300;
    --series-7: #9085e9;  --series-8: #e66767;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --plane: #0d0d0d;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --grid: #2c2c2a;
  --baseline: #383835;
  --ring: rgba(255,255,255,0.10);
  --series-1: #3987e5;  --series-2: #d95926;  --series-3: #199e70;
  --series-4: #c98500;  --series-5: #d55181;  --series-6: #008300;
  --series-7: #9085e9;  --series-8: #e66767;
}
* { box-sizing: border-box; }
body.viz-root {
  margin: 0; background: var(--plane); color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
header {
  display: flex; align-items: baseline; gap: 12px; flex-wrap: wrap;
  padding: 14px 20px 10px;
}
header h1 { font-size: 17px; margin: 0; font-weight: 650; }
header .sub { color: var(--text-muted); font-size: 12px; }
main { padding: 0 20px 40px; max-width: 1280px; margin: 0 auto; }
.tiles { display: flex; gap: 10px; flex-wrap: wrap; margin: 6px 0 16px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 10px 14px; min-width: 120px;
}
.tile .v { font-size: 22px; font-weight: 650; }
.tile .k { color: var(--text-secondary); font-size: 12px; }
section {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 12px 14px; margin-bottom: 14px;
}
section h2 {
  font-size: 13px; font-weight: 650; margin: 0 0 8px;
  color: var(--text-secondary); text-transform: uppercase;
  letter-spacing: .04em;
}
.legend {
  display: flex; gap: 14px; flex-wrap: wrap; margin: 6px 0 2px;
  color: var(--text-secondary); font-size: 12px;
}
.legend .chip {
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin-right: 5px; vertical-align: baseline;
}
svg text { fill: var(--text-muted); font-size: 10px;
           font-family: system-ui, sans-serif; }
svg .axis { stroke: var(--baseline); stroke-width: 1; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th {
  text-align: left; color: var(--text-muted); font-weight: 500;
  font-size: 11px; text-transform: uppercase; letter-spacing: .04em;
  padding: 4px 8px; border-bottom: 1px solid var(--grid);
}
td {
  padding: 4px 8px; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
tr.row:hover td { background: var(--plane); cursor: pointer; }
tr.sel td { background: var(--plane); }
.num { text-align: right; }
.badge {
  display: inline-block; padding: 0 7px; border-radius: 9px;
  font-size: 11px; line-height: 17px; border: 1px solid var(--ring);
  color: var(--text-secondary);
}
.badge::before { content: "● "; font-size: 8px; vertical-align: 1px; }
.badge.done::before, .badge.cached::before { color: var(--status-good); }
.badge.failed::before { color: var(--status-critical); }
.badge.running::before { color: var(--status-warning); }
.badge.queued::before { color: var(--text-muted); }
#tooltip {
  position: fixed; pointer-events: none; z-index: 10; display: none;
  background: var(--surface-1); color: var(--text-primary);
  border: 1px solid var(--ring); border-radius: 6px; padding: 5px 9px;
  font-size: 12px; box-shadow: 0 2px 10px rgba(0,0,0,.18);
  max-width: 340px; white-space: pre-line;
}
#events {
  max-height: 200px; overflow-y: auto; font-size: 12px;
  color: var(--text-secondary); font-family: ui-monospace, monospace;
}
#events div { padding: 1px 0; border-bottom: 1px dotted var(--grid); }
.empty { color: var(--text-muted); font-size: 13px; padding: 10px 0; }
.cols { display: grid; grid-template-columns: 1fr 1fr; gap: 14px; }
@media (max-width: 900px) { .cols { grid-template-columns: 1fr; } }
.muted { color: var(--text-muted); }
#detail h3 { font-size: 14px; margin: 2px 0 8px; }
.mono { font-family: ui-monospace, monospace; font-size: 12px; }
</style>
</head>
<body class="viz-root" data-palette="#2a78d6,#eb6834,#1baf7a,#eda100,#e87ba4,#008300,#4a3aa7,#e34948">
<header>
  <h1>repro run repository</h1>
  <span class="sub" id="dbpath"></span>
</header>
<main>
  <div class="tiles" id="tiles"></div>
  <section>
    <h2>Sim-rate trend across stored runs</h2>
    <div id="trend" class="empty">loading…</div>
  </section>
  <div class="cols">
    <section>
      <h2>Runs</h2>
      <div id="runs" class="empty">loading…</div>
    </section>
    <section>
      <h2>Queue</h2>
      <div id="queue" class="empty">loading…</div>
      <h2 style="margin-top:12px">Live events</h2>
      <div id="events"><div class="muted">waiting for events…</div></div>
    </section>
  </div>
  <section id="detail" style="display:none">
    <h2>Run detail</h2>
    <div id="detail-body"></div>
  </section>
</main>
<div id="tooltip"></div>
<script>
"use strict";
const SERIES = 8;
const seriesVar = i => "var(--series-" + ((i % SERIES) + 1) + ")";
const $ = id => document.getElementById(id);
const esc = s => String(s).replace(/[&<>"]/g,
  c => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
const fmt = n => n == null ? "—" :
  Number(n).toLocaleString("en-US", {maximumFractionDigits: 1});
const fmtRate = n => n == null ? "—" :
  n >= 1e6 ? (n / 1e6).toFixed(2) + "M" :
  n >= 1e3 ? (n / 1e3).toFixed(1) + "k" : Number(n).toFixed(1);
const ago = t => {
  if (!t) return "—";
  const s = Date.now() / 1000 - t;
  if (s < 90) return Math.round(s) + "s ago";
  if (s < 5400) return Math.round(s / 60) + "m ago";
  if (s < 172800) return Math.round(s / 3600) + "h ago";
  return Math.round(s / 86400) + "d ago";
};
async function getJSON(url) {
  const r = await fetch(url);
  if (!r.ok) throw new Error(url + " -> " + r.status);
  return r.json();
}

/* ---- tooltip layer (shared by every mark) ---- */
const tip = $("tooltip");
document.addEventListener("mousemove", ev => {
  const t = ev.target.closest("[data-tip]");
  if (!t) { tip.style.display = "none"; return; }
  tip.textContent = t.getAttribute("data-tip");
  tip.style.display = "block";
  const x = Math.min(ev.clientX + 14, innerWidth - tip.offsetWidth - 8);
  const y = Math.min(ev.clientY + 14, innerHeight - tip.offsetHeight - 8);
  tip.style.left = x + "px";
  tip.style.top = y + "px";
});

/* ---- stat tiles ---- */
function renderTiles(summary) {
  const q = summary.queue || {};
  const states = q.by_state || {};
  const tiles = [
    ["stored runs", summary.runs],
    ["configs (fingerprints)", summary.fingerprints],
    ["simulated via queue", q.simulated ?? 0],
    ["queued / running", (states.queued || 0) + (states.running || 0)],
  ];
  $("tiles").innerHTML = tiles.map(([k, v]) =>
    '<div class="tile"><div class="v">' + fmt(v) +
    '</div><div class="k">' + esc(k) + "</div></div>").join("");
  $("dbpath").textContent = summary.db_path || "";
}

/* ---- sim-rate trend (line chart, one y axis) ---- */
function renderTrend(groups) {
  groups = groups.filter(g => g.runs.length);
  if (!groups.length) {
    $("trend").innerHTML =
      '<div class="empty">no timed runs yet — store some with ' +
      '<span class="mono">repro campaign … --db PATH</span> ' +
      'or POST /submit</div>';
    return;
  }
  const shown = groups.slice(0, 6), folded = groups.length - shown.length;
  const W = 960, H = 240, L = 56, R = 12, T = 12, B = 26;
  const maxN = Math.max(...shown.map(g => g.runs.length));
  const maxY = Math.max(...shown.flatMap(
    g => g.runs.map(r => r.instructions_per_second)));
  const x = i => maxN < 2 ? (L + W - R) / 2 :
    L + (W - L - R) * (i / (maxN - 1));
  const y = v => T + (H - T - B) * (1 - v / maxY);
  let svg = '<svg viewBox="0 0 ' + W + " " + H +
    '" width="100%" role="img" aria-label="sim-rate trend">';
  for (let g = 0; g <= 4; g++) {
    const vy = y(maxY * g / 4);
    svg += '<line class="grid" x1="' + L + '" y1="' + vy + '" x2="' +
      (W - R) + '" y2="' + vy + '"/>' +
      '<text x="' + (L - 6) + '" y="' + (vy + 3) +
      '" text-anchor="end">' + fmtRate(maxY * g / 4) + "</text>";
  }
  svg += '<line class="axis" x1="' + L + '" y1="' + y(0) + '" x2="' +
    (W - R) + '" y2="' + y(0) + '"/>' +
    '<text x="' + L + '" y="' + (H - 6) + '">run # (insertion order)</text>' +
    '<text x="' + (W - R) + '" y="' + (H - 6) +
    '" text-anchor="end">instructions / wall-second</text>';
  shown.forEach((g, gi) => {
    const pts = g.runs.map((r, i) =>
      [x(i), y(r.instructions_per_second), r]);
    if (pts.length > 1)
      svg += '<polyline fill="none" stroke="' + seriesVar(gi) +
        '" stroke-width="2" stroke-linejoin="round" points="' +
        pts.map(p => p[0].toFixed(1) + "," + p[1].toFixed(1)).join(" ") +
        '"/>';
    pts.forEach(([px, py, r]) => {
      svg += '<circle cx="' + px.toFixed(1) + '" cy="' + py.toFixed(1) +
        '" r="4" fill="' + seriesVar(gi) +
        '" stroke="var(--surface-1)" stroke-width="2" data-tip="' +
        esc(g.label + "\nrun " + r.id + " (" + r.source + ")\n" +
            fmtRate(r.instructions_per_second) + " instr/s · " +
            ago(r.created_unix)) + '"/>';
    });
  });
  svg += "</svg>";
  const legend = '<div class="legend">' + shown.map((g, gi) =>
    '<span><span class="chip" style="background:' + seriesVar(gi) +
    '"></span>' + esc(g.label || "(unlabelled)") +
    ' <span class="muted">· best ' +
    fmtRate(g.best_instructions_per_second) + "</span></span>").join("") +
    (folded > 0 ? '<span class="muted">+' + folded +
      " more group(s) — filter with /compare?label=…</span>" : "") +
    "</div>";
  $("trend").classList.remove("empty");
  $("trend").innerHTML = svg + legend;
}

/* ---- runs table ---- */
let selectedRun = null;
function renderRuns(runs) {
  if (!runs.length) {
    $("runs").innerHTML = '<div class="empty">repository is empty</div>';
    return;
  }
  const rows = runs.slice(0, 60).map(r =>
    '<tr class="row' + (r.id === selectedRun ? " sel" : "") +
    '" data-run="' + r.id + '"><td class="num">' + r.id + "</td><td>" +
    esc(r.kind) + "</td><td>" + esc(r.label || "—") + "</td><td>" +
    esc(r.policy || "—") + '</td><td class="num">' + fmt(r.cycles) +
    '</td><td class="num">' + fmtRate(r.instructions_per_second) +
    '</td><td class="muted">' + esc(r.source) + '</td><td class="muted">' +
    ago(r.created_unix) + "</td></tr>").join("");
  $("runs").classList.remove("empty");
  $("runs").innerHTML =
    "<table><thead><tr><th>id</th><th>kind</th><th>label</th>" +
    "<th>policy</th><th class=num>cycles</th><th class=num>instr/s</th>" +
    "<th>source</th><th>age</th></tr></thead><tbody>" + rows +
    "</tbody></table>";
  $("runs").querySelectorAll("tr.row").forEach(tr =>
    tr.addEventListener("click", () => openRun(+tr.dataset.run)));
}

/* ---- queue panel ---- */
function renderQueue(snap) {
  if (!snap.jobs.length) {
    $("queue").innerHTML =
      '<div class="empty">no submissions yet — POST a job spec to ' +
      '<span class="mono">/submit</span></div>';
    return;
  }
  const rows = snap.jobs.slice(0, 30).map(j =>
    '<tr><td class="num">' + j.job_id + "</td><td>" + esc(j.label) +
    '</td><td><span class="badge ' + esc(j.state) + '">' + esc(j.state) +
    (j.cached ? " (cache)" : "") + "</span></td><td class=num>" +
    (j.run_id ?? "—") + '</td><td class="muted">' +
    (j.error ? esc(j.error) : j.attached ? "+" + j.attached + " attached"
      : "") + "</td></tr>").join("");
  $("queue").classList.remove("empty");
  $("queue").innerHTML =
    "<table><thead><tr><th>job</th><th>label</th><th>state</th>" +
    "<th class=num>run</th><th></th></tr></thead><tbody>" + rows +
    "</tbody></table>";
}

/* ---- run detail: timeline, stalls, IPC, QoS ---- */
function kernelTimeline(views) {
  const spans = (views.kernel_spans || []).slice()
    .sort((a, b) => a.tid - b.tid || a.start - b.start);
  const total = (views.final || {}).cycles || 0;
  if (!spans.length || !total) return "";
  const streams = [...new Set(spans.map(s => s.tid))].sort((a, b) => a - b);
  const slot = Object.fromEntries(streams.map((t, i) => [t, i]));
  const W = 960, L = 170, R = 12, RH = 18, T = 6;
  const H = T + spans.length * RH + 22;
  const x = c => L + (W - L - R) * (c / total);
  let svg = '<svg viewBox="0 0 ' + W + " " + H +
    '" width="100%" role="img" aria-label="kernel timeline">';
  for (let g = 0; g <= 4; g++) {
    const vx = x(total * g / 4);
    svg += '<line class="grid" x1="' + vx + '" y1="' + T + '" x2="' + vx +
      '" y2="' + (H - 20) + '"/><text x="' + vx + '" y="' + (H - 8) +
      '" text-anchor="middle">' + fmt(total * g / 4) + "</text>";
  }
  spans.forEach((s, i) => {
    const ry = T + i * RH;
    const w = Math.max(2, x(s.end) - x(s.start));
    svg += '<text x="' + (L - 8) + '" y="' + (ry + RH - 6) +
      '" text-anchor="end">s' + s.tid + " " + esc(s.name).slice(0, 22) +
      "</text>" +
      '<rect x="' + x(s.start).toFixed(1) + '" y="' + (ry + 2) +
      '" width="' + w.toFixed(1) + '" height="' + (RH - 6) +
      '" rx="4" fill="' + seriesVar(slot[s.tid]) + '" data-tip="' +
      esc(s.name + "\nstream " + s.tid + "\ncycles " + s.start + ".." +
          s.end + " (" + (s.end - s.start) + ")") + '"/>';
  });
  svg += "</svg>";
  const legend = '<div class="legend">' + streams.map(t =>
    '<span><span class="chip" style="background:' + seriesVar(slot[t]) +
    '"></span>stream ' + t + "</span>").join("") + "</div>";
  return "<h3>Kernel timeline <span class='muted'>(full width = " +
    fmt(total) + " cycles)</span></h3>" + svg + legend;
}

function stallHistogram(views) {
  const totals = views.stall_totals || {};
  const streams = Object.keys(totals).sort((a, b) => a - b);
  if (!streams.length) return "";
  let html = "<h3>Stall attribution <span class='muted'>" +
    "(sampled warp states)</span></h3>";
  streams.forEach((sid, si) => {
    const reasons = Object.entries(totals[sid]).sort((a, b) => b[1] - a[1]);
    const total = reasons.reduce((a, [, n]) => a + n, 0) || 1;
    const W = 460, L = 120, RH = 16;
    const H = reasons.length * RH + 4;
    let svg = '<div class="muted" style="font-size:12px">stream ' +
      esc(sid) + " · " + fmt(total) + ' stalled warp-samples</div>' +
      '<svg viewBox="0 0 ' + W + " " + H + '" width="100%" ' +
      'style="max-width:560px" role="img" aria-label="stalls stream ' +
      esc(sid) + '">';
    reasons.forEach(([reason, n], i) => {
      const w = Math.max(2, (W - L - 60) * (n / total));
      const ry = i * RH;
      svg += '<text x="' + (L - 6) + '" y="' + (ry + 11) +
        '" text-anchor="end">' + esc(reason) + "</text>" +
        '<rect x="' + L + '" y="' + (ry + 2) + '" width="' + w.toFixed(1) +
        '" height="' + (RH - 5) + '" rx="4" fill="' + seriesVar(si) +
        '" data-tip="' + esc(reason + ": " + n + " warp-samples (" +
          (100 * n / total).toFixed(1) + "%)") + '"/>' +
        '<text x="' + (L + w + 5) + '" y="' + (ry + 11) + '">' +
        (100 * n / total).toFixed(1) + "%</text>";
    });
    html += svg + "</svg>";
  });
  return html;
}

function ipcStrip(views) {
  const series = views.ipc_series || {};
  const streams = Object.keys(series).sort((a, b) => a - b)
    .filter(s => series[s].length);
  if (!streams.length) return "";
  const W = 960, H = 150, L = 46, R = 12, T = 8, B = 22;
  const maxY = Math.max(0.001, ...streams.flatMap(s => series[s]));
  const n = Math.max(...streams.map(s => series[s].length));
  const x = i => n < 2 ? (L + W - R) / 2 : L + (W - L - R) * (i / (n - 1));
  const y = v => T + (H - T - B) * (1 - v / maxY);
  let svg = '<svg viewBox="0 0 ' + W + " " + H +
    '" width="100%" role="img" aria-label="IPC strip chart">';
  for (let g = 0; g <= 2; g++) {
    const vy = y(maxY * g / 2);
    svg += '<line class="grid" x1="' + L + '" y1="' + vy + '" x2="' +
      (W - R) + '" y2="' + vy + '"/><text x="' + (L - 6) + '" y="' +
      (vy + 3) + '" text-anchor="end">' + (maxY * g / 2).toFixed(2) +
      "</text>";
  }
  svg += '<text x="' + L + '" y="' + (H - 6) +
    '">sample interval → (IPC per stream)</text>';
  streams.forEach((sid, si) => {
    const pts = series[sid].map((v, i) =>
      x(i).toFixed(1) + "," + y(v).toFixed(1));
    svg += '<polyline fill="none" stroke="' + seriesVar(si) +
      '" stroke-width="2" stroke-linejoin="round" points="' +
      pts.join(" ") + '" data-tip="' +
      esc("stream " + sid + " · peak IPC " +
          Math.max(...series[sid]).toFixed(2)) + '"/>';
  });
  svg += "</svg>";
  const legend = '<div class="legend">' + streams.map((sid, si) =>
    '<span><span class="chip" style="background:' + seriesVar(si) +
    '"></span>stream ' + sid + "</span>").join("") + "</div>";
  return "<h3>IPC per sample interval</h3>" + svg + legend;
}

function qosTable(qos) {
  const clients = qos.clients || {};
  const names = Object.keys(clients).sort();
  if (!names.length) return "";
  let rows = "";
  names.forEach(name => {
    const c = clients[name];
    Object.entries(c).forEach(([metric, v]) => {
      if (!v || typeof v !== "object" || v.p50 === undefined) return;
      rows += "<tr><td>" + esc(name) + '</td><td class="muted">' +
        esc(metric) + '</td><td class="num">' + fmt(v.p50) +
        '</td><td class="num">' + fmt(v.p95) + '</td><td class="num">' +
        fmt(v.p99) + '</td><td class="num">' + fmt(v.max) +
        '</td><td class="num muted">' + fmt(v.count) + "</td></tr>";
    });
  });
  if (!rows) return "";
  return "<h3>QoS percentiles <span class='muted'>(cycles · " +
    esc((qos.scenario || {}).name || "?") + " · policy " +
    esc(qos.policy || "?") + ")</span></h3>" +
    "<table><thead><tr><th>client</th><th>metric</th><th class=num>p50" +
    "</th><th class=num>p95</th><th class=num>p99</th><th class=num>max" +
    "</th><th class=num>n</th></tr></thead><tbody>" + rows +
    "</tbody></table>";
}

async function openRun(id) {
  selectedRun = id;
  const d = await getJSON("/runs/" + id);
  let html = "<h3>#" + d.id + " · " + esc(d.label || "(unlabelled)") +
    '</h3><div class="muted mono">kind ' + esc(d.kind) + " · source " +
    esc(d.source) + (d.config_name ? " · config " + esc(d.config_name) : "") +
    (d.config_fingerprint ?
      " · fp " + esc(String(d.config_fingerprint).slice(0, 12)) : "") +
    (d.policy ? " · policy " + esc(d.policy) : "") +
    (d.cycles != null ? " · " + fmt(d.cycles) + " cycles" : "") +
    (d.instructions_per_second != null ?
      " · " + fmtRate(d.instructions_per_second) + " instr/s" : "") +
    "</div>";
  if (d.views) {
    html += kernelTimeline(d.views) + stallHistogram(d.views) +
      ipcStrip(d.views);
  }
  if (d.qos) html += qosTable(d.qos);
  if (!d.views && !d.qos && d.stats) {
    const streams = Object.entries(d.stats.streams || {});
    if (streams.length) {
      html += "<h3>Per-stream stats</h3><table><thead><tr><th>stream" +
        "</th><th class=num>instructions</th><th class=num>busy cycles" +
        "</th><th class=num>stall cycles</th></tr></thead><tbody>" +
        streams.map(([sid, s]) => "<tr><td>" + esc(sid) +
          '</td><td class="num">' + fmt(s.instructions) +
          '</td><td class="num">' + fmt(s.busy_cycles) +
          '</td><td class="num">' + fmt(s.stall_cycles) +
          "</td></tr>").join("") + "</tbody></table>";
    }
  }
  if (d.artifacts) {
    html += '<div class="muted mono" style="margin-top:8px">artifacts: ' +
      esc(Object.values(d.artifacts).join(", ")) + "</div>";
  }
  $("detail").style.display = "";
  $("detail-body").innerHTML = html;
  refreshRunsOnly();
  $("detail").scrollIntoView({behavior: "smooth", block: "nearest"});
}

/* ---- live events (SSE with polling fallback) ---- */
let lastSeq = 0;
function pushEvent(ev) {
  lastSeq = Math.max(lastSeq, ev.seq || 0);
  const box = $("events");
  if (box.firstChild && box.firstChild.classList &&
      box.firstChild.classList.contains("muted")) box.innerHTML = "";
  const line = document.createElement("div");
  const t = new Date((ev.unix_time || 0) * 1000)
    .toISOString().slice(11, 19);
  line.textContent = t + "  " + ev.kind +
    (ev.label ? "  " + ev.label : "") +
    (ev.job_id != null ? "  (job " + ev.job_id + ")" : "") +
    (ev.error ? "  " + ev.error : "");
  box.prepend(line);
  while (box.children.length > 30) box.removeChild(box.lastChild);
  if (/^job_/.test(ev.kind)) scheduleRefresh();
}
function connectEvents() {
  try {
    const es = new EventSource("/events?since=" + lastSeq);
    const onAny = m => { try { pushEvent(JSON.parse(m.data)); }
                         catch (e) { /* comment frame */ } };
    es.onmessage = onAny;
    ["job_queued", "job_running", "job_done", "job_failed", "job_cached",
     "job_attached", "heartbeat"].forEach(k =>
      es.addEventListener(k, onAny));
    es.onerror = () => { es.close(); setTimeout(pollEvents, 4000); };
  } catch (e) { pollEvents(); }
}
async function pollEvents() {
  try {
    const d = await getJSON("/events.json?since=" + lastSeq);
    d.events.forEach(pushEvent);
  } catch (e) { /* server away; retry */ }
  setTimeout(pollEvents, 4000);
}

/* ---- top-level refresh ---- */
let refreshTimer = null;
function scheduleRefresh() {
  if (refreshTimer) return;
  refreshTimer = setTimeout(() => { refreshTimer = null; refresh(); }, 400);
}
async function refreshRunsOnly() {
  renderRuns((await getJSON("/runs?limit=100")).runs);
}
async function refresh() {
  try {
    const [summary, compare, runs, queue] = await Promise.all([
      getJSON("/summary"), getJSON("/compare"),
      getJSON("/runs?limit=100"), getJSON("/queue")]);
    renderTiles(summary);
    renderTrend(compare.groups);
    renderRuns(runs.runs);
    renderQueue(queue);
  } catch (e) {
    $("tiles").innerHTML =
      '<div class="tile"><div class="v">⚠</div><div class="k">' +
      esc(String(e)) + "</div></div>";
  }
}
refresh();
connectEvents();
setInterval(refresh, 15000);
</script>
</body>
</html>
"""
