"""Command-line driver: the artifact's ``run.sh`` / ``collect.sh`` analog.

Subcommands::

    python -m repro list
    python -m repro render SPL --res 2k --out spl.ppm --save-trace spl.gz
    python -m repro trace-compute VIO --save-trace vio.gz
    python -m repro simulate --graphics spl.gz --compute vio.gz \
        --policy fg-even --config JetsonOrin-mini --csv stats.csv
    python -m repro simulate --graphics spl.gz --compute vio.gz \
        --telemetry out/         # metrics.jsonl + Perfetto trace.json
    python -m repro telemetry out/   # text timeline + stall attribution
    python -m repro validate fuzz --seeds 20
    python -m repro validate check-goldens
    python -m repro qos run --scenario bursty --clients 3 --seed 7
    python -m repro qos campaign --out QOS_campaign.json
    python -m repro figure fig9
    python -m repro db ingest benchmarks/ tests/golden/   # backfill sqlite
    python -m repro db ls
    python -m repro serve --port 8035    # live dashboard + job queue

Traces saved by ``render`` / ``trace-compute`` are replayed by
``simulate`` — collect once, sweep policies many times, exactly the
artifact workflow.

``--telemetry DIR`` (on ``simulate`` and ``campaign``) enables the
repro.telemetry recorder: interval counter samples with stall-reason
attribution land in ``DIR/metrics.jsonl``, kernel/CTA/repartition spans in
``DIR/trace.json`` (open in https://ui.perfetto.dev), and campaign runs
write live per-job heartbeats to ``DIR/heartbeats.jsonl``.  ``repro
telemetry DIR`` renders a collected directory as a text timeline /
flamegraph-style summary.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .compute import WORKLOAD_BUILDERS, build_compute_workload
from .config import PRESETS, get_preset
from .core import CRISP, POLICY_NAMES, COMPUTE_STREAM, GRAPHICS_STREAM
from .isa import load_traces, save_traces
from .scenes import RESOLUTIONS, scene_codes, scene_title


def _cmd_list(_args) -> int:
    from .harness.reproduce import RUNNERS
    print("Scenes:")
    for code in scene_codes():
        print("  %-4s %s" % (code, scene_title(code)))
    print("Compute workloads:")
    for name in sorted(WORKLOAD_BUILDERS):
        print("  %s" % name)
    print("Resolutions: %s" % ", ".join(sorted(RESOLUTIONS)))
    print("Policies: %s" % ", ".join(POLICY_NAMES))
    print("Config presets: %s" % ", ".join(sorted(PRESETS)))
    print("Figures: %s" % ", ".join(RUNNERS))
    return 0


def _cmd_render(args) -> int:
    crisp = CRISP(get_preset(args.config))
    frame = crisp.trace_scene(args.scene, args.res,
                              lod_enabled=not args.no_lod)
    frags = sum(d.fragments for d in frame.draw_stats)
    print("rendered %s@%s: %d kernels, %d instructions, %d fragments"
          % (args.scene, args.res, len(frame.kernels),
             frame.total_instructions, frags))
    if args.out:
        image = frame.framebuffer.as_image()
        h, w = image.shape[:2]
        with open(args.out, "wb") as f:
            f.write(b"P6\n%d %d\n255\n" % (w, h))
            f.write(image[..., :3].tobytes())
        print("image -> %s" % args.out)
    if args.save_trace:
        save_traces(args.save_trace, frame.kernels,
                    metadata={"scene": args.scene, "res": args.res,
                              "lod": not args.no_lod})
        print("traces -> %s" % args.save_trace)
    return 0


def _cmd_trace_compute(args) -> int:
    kernels = build_compute_workload(args.workload)
    print("traced %s: %d kernels, %d instructions"
          % (args.workload, len(kernels),
             sum(k.num_instructions for k in kernels)))
    if args.save_trace:
        save_traces(args.save_trace, kernels,
                    metadata={"workload": args.workload})
        print("traces -> %s" % args.save_trace)
    return 0


def _cmd_simulate(args) -> int:
    config = get_preset(args.config)
    streams = {}
    if args.graphics:
        streams[GRAPHICS_STREAM] = load_traces(args.graphics)
    if args.compute:
        streams[COMPUTE_STREAM] = load_traces(args.compute)
    if not streams:
        print("error: provide --graphics and/or --compute trace files",
              file=sys.stderr)
        return 2
    from .api import simulate
    telemetry = None
    if args.telemetry:
        from .telemetry import Telemetry
        telemetry = Telemetry(out_dir=args.telemetry,
                              sample_interval=args.sample_interval or 1000)
    result = simulate(config=config, streams=streams, policy=args.policy,
                      sample_interval=args.sample_interval,
                      telemetry=telemetry)
    stats = result.stats
    print("simulated %d cycles on %s%s"
          % (stats.cycles, config.name,
             " under %s" % args.policy if result.policy else ""))
    for sid, summary in stats.summary().items():
        tag = "graphics" if sid == GRAPHICS_STREAM else "compute"
        print("  stream %d (%s): %d instr, %d cycles, IPC %.2f, "
              "L1 hit %.1f%%"
              % (sid, tag, summary["instructions"], summary["busy_cycles"],
                 summary["ipc"], summary["l1_hit_rate"] * 100))
    if telemetry is not None:
        for kind, path in sorted(telemetry.close().items()):
            print("%s -> %s" % (kind, path))
    if args.csv:
        from .harness.report import write_sim_report, write_timeline_csvs
        write_sim_report(args.csv, stats)
        print("stats -> %s" % args.csv)
        if args.sample_interval:
            for path in write_timeline_csvs(args.csv, stats):
                print("timeline -> %s" % path)
    if args.vlog:
        from .harness.visualizer import dump_log
        n = dump_log(args.vlog, stats,
                     metadata={"config": args.config, "policy": args.policy})
        print("visualizer log (%d records) -> %s" % (n, args.vlog))
    return 0


def _cmd_validate(args) -> int:
    from .validate import goldens

    if args.action == "check-goldens":
        problems = goldens.check(golden_dir=args.golden_dir)
        names = list(goldens.GOLDEN_POLICIES) + [
            "qos:%s" % s for s in goldens.QOS_GOLDEN_SCENARIOS]
        for name in names:
            status = problems.get(name, "ok")
            print("%-14s %s" % (name, status))
        return 0 if not problems else 1

    if args.action == "regen-goldens":
        for path in goldens.regen(golden_dir=args.golden_dir):
            print("wrote %s" % path)
        return 0

    if args.action == "invariants":
        from .core.platform import collect_streams
        from .validate import InvariantChecker, InvariantViolation
        from .api import simulate
        config = get_preset(args.config)
        streams = collect_streams(config, scene=args.scene, res=args.res,
                                  compute=args.compute)
        checker = InvariantChecker(sample_interval=args.check_interval)
        try:
            result = simulate(config=config, streams=streams,
                              policy=args.policy, telemetry=checker)
        except InvariantViolation as exc:
            print("INVARIANT VIOLATION: %s" % exc, file=sys.stderr)
            return 1
        print("ok: %d cycles under %s, invariants hold (%s)"
              % (result.stats.cycles, args.policy,
                 ", ".join("%s x%d" % kv
                           for kv in sorted(checker.counts.items()))))
        return 0

    if args.action == "fuzz":
        from .validate import run_fuzz
        seeds = range(args.start_seed, args.start_seed + args.seeds)
        progress = None if args.quiet else print
        report = run_fuzz(seeds, corpus_dir=args.corpus,
                          allow_scenes=not args.no_scenes,
                          progress=progress)
        import json
        print(json.dumps(report.summary(), sort_keys=True))
        if not report.ok:
            print("%d failing seeds: %s"
                  % (len(report.failures),
                     [f["seed"] for f in report.failures]), file=sys.stderr)
            if args.corpus:
                print("failure corpus -> %s" % args.corpus, file=sys.stderr)
        return 0 if report.ok else 1

    return 2  # pragma: no cover - argparse restricts choices


def _cmd_qos(args) -> int:
    from .qos import (canonical_report, get_scenario, qos_policy_names,
                      run_campaign, run_scenario, scenario_names,
                      write_campaign, write_report)

    if args.action == "list":
        from .qos import SCENARIOS
        print("QoS scenarios:")
        for name in scenario_names():
            s = SCENARIOS[name]
            print("  %-8s %s (%d clients, epoch %d)"
                  % (name, s.description, len(s.clients), s.epoch_interval))
        print("Policies: %s" % ", ".join(qos_policy_names()))
        return 0

    if args.action == "run":
        from .harness.report import render_qos_report
        try:
            scenario = get_scenario(args.scenario)
        except KeyError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        if args.policy not in qos_policy_names():
            print("error: unknown policy %r; known: %s"
                  % (args.policy, ", ".join(qos_policy_names())),
                  file=sys.stderr)
            return 2
        try:
            report = run_scenario(scenario, args.seed, policy=args.policy,
                                  clients=args.clients,
                                  requests=args.requests,
                                  epoch_interval=args.epoch_interval)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        print(render_qos_report(report), end="")
        out_dir = args.out or ("qos_%s_%s_seed%d"
                               % (scenario.name, args.policy, args.seed))
        for kind, path in sorted(write_report(report, out_dir).items()):
            print("%s -> %s" % (kind, path))
        if args.print_canonical:
            print(canonical_report(report))
        return 0

    if args.action == "campaign":
        from .harness.report import render_qos_campaign
        progress = None if args.quiet else print
        try:
            doc = run_campaign(scenarios=args.scenario or None,
                               policies=args.policy or None,
                               seed=args.seed, requests=args.requests,
                               progress=progress)
        except KeyError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        print(render_qos_campaign(doc), end="")
        if args.out:
            print("campaign -> %s" % write_campaign(doc, args.out))
        if args.require_win and not doc["headline"]["adaptive_wins"]:
            print("error: campaign produced no adaptive-only SLO win",
                  file=sys.stderr)
            return 1
        return 0

    return 2  # pragma: no cover - argparse restricts choices


def _cmd_figure(args) -> int:
    import inspect

    from .harness.reproduce import RUNNERS, run_experiment
    accepted = inspect.signature(RUNNERS[args.id]).parameters
    kw = {k: v for k, v in (("jobs", args.jobs), ("cache_dir", args.cache_dir))
          if k in accepted}
    rec = run_experiment(args.id, **kw)
    for line in rec.lines:
        print(line)
    print(rec.summary())
    return 0 if rec.ok else 1


def build_parser() -> argparse.ArgumentParser:
    from .harness.reproduce import RUNNERS
    parser = argparse.ArgumentParser(
        prog="repro", description="CRISP reproduction command-line driver")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list scenes, workloads, policies, presets")

    p = sub.add_parser("render", help="render a scene and save its traces")
    p.add_argument("scene", choices=scene_codes())
    p.add_argument("--res", default="2k", choices=sorted(RESOLUTIONS))
    p.add_argument("--config", default="JetsonOrin-mini",
                   choices=sorted(PRESETS))
    p.add_argument("--no-lod", action="store_true",
                   help="disable mipmapped sampling (Fig 9's lod-off)")
    p.add_argument("--out", help="write the framebuffer as PPM")
    p.add_argument("--save-trace", help="write shader traces (gzipped)")

    p = sub.add_parser("trace-compute", help="trace a compute workload")
    p.add_argument("workload", choices=sorted(WORKLOAD_BUILDERS))
    p.add_argument("--save-trace", help="write kernel traces (gzipped)")

    p = sub.add_parser("simulate", help="replay saved traces, possibly "
                                        "concurrently")
    p.add_argument("--graphics", help="graphics trace file")
    p.add_argument("--compute", help="compute trace file")
    p.add_argument("--policy", default="mps", choices=POLICY_NAMES)
    p.add_argument("--config", default="JetsonOrin-mini",
                   choices=sorted(PRESETS))
    p.add_argument("--sample-interval", type=int, default=None)
    p.add_argument("--csv", help="write per-stream stats CSV (with "
                                 "--sample-interval also writes sibling "
                                 "*_timeline.csv time series)")
    p.add_argument("--vlog", help="write a visualizer log of the sampled "
                                  "time series (requires --sample-interval)")
    p.add_argument("--telemetry", metavar="DIR",
                   help="record metrics.jsonl + Perfetto trace.json into DIR")

    p = sub.add_parser(
        "validate",
        help="correctness tooling: golden snapshots, invariant-checked "
             "runs, differential fuzzing")
    vsub = p.add_subparsers(dest="action", required=True)
    for action in ("check-goldens", "regen-goldens"):
        vp = vsub.add_parser(
            action,
            help=("diff the golden snapshots against the current engine"
                  if action == "check-goldens"
                  else "rewrite the golden snapshots (intentional timing "
                       "changes only)"))
        vp.add_argument("--golden-dir", default=None,
                        help="snapshot directory (default tests/golden)")
    vp = vsub.add_parser(
        "invariants",
        help="run one workload under the invariant checker")
    vp.add_argument("--scene", default="SPL", choices=scene_codes())
    vp.add_argument("--compute", default="HOLO",
                    choices=sorted(WORKLOAD_BUILDERS))
    vp.add_argument("--res", default="nano", choices=sorted(RESOLUTIONS))
    vp.add_argument("--policy", default="mps", choices=POLICY_NAMES)
    vp.add_argument("--config", default="JetsonOrin-mini",
                    choices=sorted(PRESETS))
    vp.add_argument("--check-interval", type=int, default=1000,
                    help="cycles between mid-run invariant sweeps")
    vp = vsub.add_parser(
        "fuzz",
        help="differential-test fuzzed configs: plain vs "
             "invariant-checked runs")
    vp.add_argument("--seeds", type=int, default=20,
                    help="number of fuzz seeds to run")
    vp.add_argument("--start-seed", type=int, default=0,
                    help="first seed (reproduce a CI failure from its seed)")
    vp.add_argument("--corpus", metavar="DIR",
                    help="write one JSON repro per failing seed into DIR")
    vp.add_argument("--no-scenes", action="store_true",
                    help="skip rendered-scene workloads (faster)")
    vp.add_argument("--quiet", action="store_true",
                    help="suppress per-seed progress lines")

    p = sub.add_parser(
        "qos",
        help="open-loop QoS: scenarios, SLO reports, adaptive-vs-static "
             "campaign")
    qsub = p.add_subparsers(dest="action", required=True)
    qsub.add_parser("list", help="list QoS scenarios and policies")
    qp = qsub.add_parser(
        "run",
        help="run one scenario under one policy; print + persist the "
             "SLO report")
    qp.add_argument("--scenario", required=True,
                    help="scenario name (see: repro qos list)")
    qp.add_argument("--policy", default="adaptive",
                    help="adaptive or a static partition policy")
    qp.add_argument("--seed", type=int, default=7)
    qp.add_argument("--clients", type=int, default=None,
                    help="use only the first N clients of the scenario")
    qp.add_argument("--requests", type=int, default=None,
                    help="override every client's request count (short runs)")
    qp.add_argument("--epoch-interval", type=int, default=None,
                    help="override the controller epoch length (cycles)")
    qp.add_argument("--out", default=None,
                    help="report directory (default "
                         "qos_<scenario>_<policy>_seed<seed>)")
    qp.add_argument("--print-canonical", action="store_true",
                    help="also print the canonical report line (the "
                         "bit-identity currency; diff two runs with it)")
    qp = qsub.add_parser(
        "campaign",
        help="score the adaptive controller against every static policy "
             "over the scenario suite")
    qp.add_argument("--scenario", nargs="*", default=[],
                    help="scenario subset (default: all)")
    qp.add_argument("--policy", nargs="*", default=[],
                    help="policy subset (default: all)")
    qp.add_argument("--seed", type=int, default=7)
    qp.add_argument("--requests", type=int, default=None,
                    help="override request counts (smoke runs)")
    qp.add_argument("--out", help="write the campaign JSON here")
    qp.add_argument("--require-win", action="store_true",
                    help="exit 1 unless the adaptive controller meets an "
                         "SLO every static policy misses")
    qp.add_argument("--quiet", action="store_true",
                    help="suppress per-run progress lines")

    p = sub.add_parser("figure", help="run one table/figure experiment and "
                                      "judge its claims (exit 1 on CHECK)")
    p.add_argument("id", choices=list(RUNNERS))
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for campaign-backed figures "
                        "(fig12/fig13/fig14)")
    p.add_argument("--cache-dir",
                   help="result cache for campaign-backed figures")

    p = sub.add_parser(
        "campaign",
        help="run a scene x compute x policy sweep: parallel, cached, "
             "resumable")
    p.add_argument("--scene", nargs="*", default=[], choices=scene_codes(),
                   help="scenes to render (omit for compute-only jobs)")
    p.add_argument("--compute", nargs="*", default=[],
                   choices=sorted(WORKLOAD_BUILDERS),
                   help="compute workloads (omit for graphics-only jobs)")
    p.add_argument("--policy", nargs="*", default=["mps"],
                   choices=POLICY_NAMES)
    p.add_argument("--config", default="JetsonOrin-mini",
                   choices=sorted(PRESETS))
    p.add_argument("--res", default="2k", choices=sorted(RESOLUTIONS))
    p.add_argument("--spec", help="JSON file with an explicit job list "
                                  "({\"jobs\": [{...}, ...]}) instead of "
                                  "the flag cross-product")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = serial in-process)")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default "
                        "~/.cache/repro-campaign or $REPRO_CAMPAIGN_CACHE)")
    p.add_argument("--no-cache", action="store_true",
                   help="simulate every job, even cached ones")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job wall-clock budget in seconds")
    p.add_argument("--out", help="write the machine-readable campaign "
                                 "summary JSON here")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-job progress lines")
    p.add_argument("--telemetry", metavar="DIR",
                   help="write live per-job heartbeats to DIR/heartbeats.jsonl")
    p.add_argument("--db", metavar="PATH", default=None,
                   help="also store finished jobs in this run-repository "
                        "database (see: repro db)")

    p = sub.add_parser(
        "telemetry",
        help="summarise a telemetry directory (metrics.jsonl + trace.json) "
             "or a repository-stored run as a text timeline")
    p.add_argument("dir", nargs="?", default=None,
                   help="directory written by --telemetry")
    p.add_argument("--run", type=int, metavar="ID", default=None,
                   help="render stored run ID from the run repository "
                        "instead of a directory")
    p.add_argument("--db", metavar="PATH", default=None,
                   help="repository database for --run (default $REPRO_DB "
                        "or ~/.cache/repro/runs.sqlite)")
    p.add_argument("--width", type=int, default=60,
                   help="bar/chart width in characters")

    p = sub.add_parser(
        "db",
        help="the persistent run repository: backfill, list, inspect, prune")
    dsub = p.add_subparsers(dest="action", required=True)
    dp = dsub.add_parser(
        "ingest",
        help="backfill BENCH_*.json, QoS reports, campaign summaries/"
             "manifests, golden snapshots and telemetry directories")
    dp.add_argument("paths", nargs="+", metavar="PATH",
                    help="files or directories to scan")
    dp.add_argument("--db", metavar="PATH", default=None,
                    help="database file (default $REPRO_DB or "
                         "~/.cache/repro/runs.sqlite)")
    dp.add_argument("--quiet", action="store_true",
                    help="suppress per-file progress lines")
    dp = dsub.add_parser("ls", help="list stored runs, newest first")
    dp.add_argument("--db", metavar="PATH", default=None)
    dp.add_argument("--kind", default=None,
                    choices=("run", "simrate", "qos", "campaign"))
    dp.add_argument("--fp", default=None, help="config fingerprint filter")
    dp.add_argument("--label", default=None)
    dp.add_argument("--source", default=None)
    dp.add_argument("--limit", type=int, default=40)
    dp = dsub.add_parser("show", help="print one stored run as JSON")
    dp.add_argument("id", type=int)
    dp.add_argument("--db", metavar="PATH", default=None)
    dp = dsub.add_parser("gc", help="prune stored runs (then VACUUM)")
    dp.add_argument("--db", metavar="PATH", default=None)
    dp.add_argument("--keep", type=int, default=None,
                    help="keep only the newest N rows")
    dp.add_argument("--before-days", type=float, default=None,
                    help="drop rows older than D days")
    dp.add_argument("--source", default=None,
                    help="drop only rows ingested from this source")

    p = sub.add_parser(
        "serve",
        help="serve the run repository + job queue as a live dashboard")
    p.add_argument("--db", metavar="PATH", default=None,
                   help="database file (default $REPRO_DB or "
                        "~/.cache/repro/runs.sqlite)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8035,
                   help="listen port (0 = ephemeral)")
    p.add_argument("--workers", type=int, default=2,
                   help="job-queue worker threads")
    p.add_argument("--no-queue", action="store_true",
                   help="read-only dashboard: no job queue, no POST /submit")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request to stderr")

    p = sub.add_parser(
        "profile",
        help="profile the timing core on one workload and report sim-rate")
    p.add_argument("--scene", default="SPL", choices=scene_codes())
    p.add_argument("--compute", default="HOLO",
                   choices=sorted(WORKLOAD_BUILDERS))
    p.add_argument("--res", default="nano", choices=sorted(RESOLUTIONS))
    p.add_argument("--policy", default="mps", choices=POLICY_NAMES)
    p.add_argument("--config", default="JetsonOrin-mini",
                   choices=sorted(PRESETS))
    p.add_argument("--top", type=int, default=20,
                   help="profile entries to print")
    p.add_argument("--sort", default="cumulative",
                   choices=("cumulative", "tottime", "ncalls"),
                   help="cProfile sort order")
    p.add_argument("--repeats", type=int, default=1,
                   help="unprofiled timing runs for the sim-rate record "
                        "(best wall-clock wins)")
    p.add_argument("--no-cprofile", action="store_true",
                   help="skip the cProfile pass; just measure sim-rate")
    p.add_argument("--out", help="append the sim-rate record to this JSON "
                                 "file (BENCH_timing.json layout)")

    p = sub.add_parser("reproduce", help="run every experiment and write "
                                         "RESULTS.md")
    p.add_argument("--out", default="results")
    p.add_argument("--only", nargs="*", default=None,
                   help="subset of experiment ids")

    p = sub.add_parser("inspect", help="summarise a saved trace file")
    p.add_argument("trace", help="trace file written by render/trace-compute")
    p.add_argument("--config", default="JetsonOrin-mini",
                   choices=sorted(PRESETS),
                   help="machine used for the occupancy column")
    return parser


def _cmd_campaign(args) -> int:
    import json

    from .campaign import CampaignRunner, Job, default_cache_dir
    from .core.streams import COMPUTE_STREAM as CS, GRAPHICS_STREAM as GS

    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as f:
            doc = json.load(f)
        jobs = [Job.from_dict(spec) for spec in doc["jobs"]]
    else:
        scenes: List[Optional[str]] = list(args.scene) or [None]
        computes: List[Optional[str]] = list(args.compute) or [None]
        if scenes == [None] and computes == [None]:
            print("error: give --scene and/or --compute (or --spec)",
                  file=sys.stderr)
            return 2
        # Policies only partition anything when both streams are present;
        # single-stream jobs get policy=None so they fingerprint (and
        # cache) independently of the --policy flag.
        single = scenes == [None] or computes == [None]
        policies: List[Optional[str]] = [None] if single else list(args.policy)
        jobs = [
            Job(scene=scene, compute=compute, policy=policy,
                config=args.config, res=args.res)
            for scene in scenes
            for compute in computes
            for policy in policies
        ]
    cache_dir = None if args.no_cache else (args.cache_dir
                                            or default_cache_dir())
    repository = None
    if args.db:
        from .service import RunRepository
        repository = RunRepository(args.db)
    runner = CampaignRunner(workers=args.jobs, cache_dir=cache_dir,
                            timeout=args.timeout, progress=not args.quiet,
                            telemetry_dir=args.telemetry,
                            repository=repository)
    campaign = runner.run(jobs)
    print("campaign %s: %d jobs, %d executed, %d cached, %d failed (%.1fs)"
          % (campaign.campaign_id, len(campaign.jobs), campaign.executed,
             campaign.cached, campaign.failed, campaign.wall_seconds))
    print("%-36s %-7s %10s %10s %10s %8s"
          % ("job", "status", "total", "gfx", "compute", "wall"))
    for result in campaign.results:
        total = result.total_cycles if result.stats else 0
        print("%-36s %-7s %10d %10d %10d %7.2fs"
              % (result.label[:36], result.status, total,
                 result.stream_cycles(GS), result.stream_cycles(CS),
                 result.wall_seconds))
        if result.error:
            print("    error: %s" % result.error.strip().splitlines()[-1])
    if args.out:
        campaign.write_summary(args.out)
        print("summary -> %s" % args.out)
    if campaign.manifest_path:
        print("manifest -> %s" % campaign.manifest_path)
    if args.telemetry:
        print("heartbeats -> %s" % runner.heartbeat_path)
    if repository is not None:
        print("results -> %s" % repository.path)
    return 0 if campaign.ok else 1


def _cmd_telemetry(args) -> int:
    import os

    from .harness.report import render_telemetry_summary, \
        render_telemetry_views
    from .telemetry import METRICS_FILE

    if args.run is not None:
        from .service import RunRepository
        repo = RunRepository(args.db)
        detail = repo.get(args.run)
        if detail is None:
            print("error: no run %d in %s" % (args.run, repo.path),
                  file=sys.stderr)
            return 2
        if not detail.get("views"):
            print("error: run %d (%s, kind %s) has no stored telemetry "
                  "views; ingest the telemetry directory first"
                  % (args.run, detail.get("label", "?"), detail["kind"]),
                  file=sys.stderr)
            return 2
        print(render_telemetry_views(detail["views"], width=args.width),
              end="")
        return 0
    if not args.dir:
        print("error: give a telemetry DIR or --run ID", file=sys.stderr)
        return 2
    if not os.path.exists(os.path.join(args.dir, METRICS_FILE)):
        print("error: %s has no %s (run simulate --telemetry first)"
              % (args.dir, METRICS_FILE), file=sys.stderr)
        return 2
    print(render_telemetry_summary(args.dir, width=args.width), end="")
    return 0


def _cmd_db(args) -> int:
    import json
    import time

    from .service import RunRepository

    repo = RunRepository(args.db)
    if args.action == "ingest":
        from .service.ingest import backfill
        progress = None if args.quiet else print
        totals = backfill(repo, args.paths, progress=progress)
        counts = repo.counts()
        print("scanned %d file(s), ingested %d record(s); "
              "%d run(s) now stored in %s"
              % (totals["files"], totals["records"], counts["runs"],
                 repo.path))
        return 0
    if args.action == "ls":
        runs = repo.list_runs(kind=args.kind, fingerprint=args.fp,
                              label=args.label, source=args.source,
                              limit=args.limit)
        if not runs:
            print("repository %s is empty "
                  "(try: repro db ingest benchmarks/)" % repo.path)
            return 0
        print("%-5s %-8s %-36s %-10s %12s %10s %s"
              % ("id", "kind", "label", "policy", "cycles", "instr/s",
                 "source"))
        for r in runs:
            print("%-5d %-8s %-36s %-10s %12s %10s %s"
                  % (r["id"], r["kind"], (r["label"] or "")[:36],
                     (r["policy"] or "-")[:10],
                     "%d" % r["cycles"] if r["cycles"] else "-",
                     ("%.0f" % r["instructions_per_second"]
                      if r["instructions_per_second"] else "-"),
                     r["source"]))
        return 0
    if args.action == "show":
        detail = repo.get(args.id)
        if detail is None:
            print("error: no run %d in %s" % (args.id, repo.path),
                  file=sys.stderr)
            return 1
        print(json.dumps(detail, indent=1, sort_keys=True))
        return 0
    if args.action == "gc":
        if args.keep is None and args.before_days is None \
                and args.source is None:
            print("error: give --keep, --before-days and/or --source",
                  file=sys.stderr)
            return 2
        before = (time.time() - args.before_days * 86400.0
                  if args.before_days is not None else None)
        removed = repo.gc(keep=args.keep, before_unix=before,
                          source=args.source)
        print("removed %d row(s) from %s" % (removed, repo.path))
        return 0
    return 2  # pragma: no cover - argparse restricts choices


def _cmd_serve(args) -> int:
    from .service import RunRepository
    from .service.server import DashboardServer

    repo = RunRepository(args.db)
    queue = None
    if not args.no_queue:
        from .service.queue import JobQueue
        queue = JobQueue(repo, workers=args.workers)
    server = DashboardServer(repo, queue=queue, host=args.host,
                             port=args.port, verbose=args.verbose)
    counts = repo.counts()
    print("repro dashboard: %s  (%d stored run(s), db %s)"
          % (server.url, counts["runs"], repo.path))
    print("endpoints: /runs /runs/<id> /compare /queue /events /summary"
          + ("" if args.no_queue else "; POST /submit"))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if queue is not None:
            queue.shutdown(wait=False)
    return 0


def _cmd_profile(args) -> int:
    import json

    from .core.platform import collect_streams
    from .profiling import measure_simrate, profile_simulation

    config = get_preset(args.config)
    label = "%s+%s @ %s, policy=%s, %s" % (
        args.scene, args.compute, args.res, args.policy, args.config)
    print("collecting traces: %s" % label)
    streams = collect_streams(config, scene=args.scene, res=args.res,
                              compute=args.compute)
    if not args.no_cprofile:
        report, prof_record = profile_simulation(
            config, streams, policy=args.policy, top=args.top,
            sort=args.sort, label=label)
        print(report, end="")
        print("profiled run: %d cycles in %.2fs (profiler overhead included)"
              % (prof_record["cycles"], prof_record["wall_seconds"]))
    record = measure_simrate(config, streams, policy=args.policy,
                             repeats=args.repeats, label=label)
    print("sim-rate: %.0f instr/s, %.0f cycles/s "
          "(%d instr, %d cycles, %.2fs wall, best of %d)"
          % (record["instructions_per_second"],
             record["cycles_per_second"], record["instructions"],
             record["cycles"], record["wall_seconds"], args.repeats))
    print(json.dumps(record, sort_keys=True))
    if args.out:
        from .service.records import load_bench_doc
        doc = load_bench_doc(args.out)
        doc["runs"].append(record)
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        print("record -> %s" % args.out)
    return 0


def _cmd_reproduce(args) -> int:
    from .harness.reproduce import reproduce_all
    records = reproduce_all(args.out, only=args.only)
    for rec in records:
        print(rec.summary())
    print("report -> %s/RESULTS.md" % args.out)
    return 0 if all(r.ok for r in records) else 1


def _cmd_inspect(args) -> int:
    from .isa import load_metadata
    from .timing.occupancy import occupancy_of
    config = get_preset(args.config)
    kernels = load_traces(args.trace)
    meta = load_metadata(args.trace)
    if meta:
        print("metadata: %s" % meta)
    print("%d kernels, %d instructions total"
          % (len(kernels), sum(k.num_instructions for k in kernels)))
    print("%-16s %5s %6s %8s %6s %9s %s"
          % ("kernel", "ctas", "warps", "instr", "regs", "occupancy",
             "limiter"))
    for k in kernels:
        occ = occupancy_of(k, config)
        print("%-16s %5d %6d %8d %6d %8.0f%% %s"
              % (k.name[:16], k.num_ctas, k.warps_per_cta, k.num_instructions,
                 k.regs_per_thread, occ.occupancy * 100, occ.limiter))
    # Aggregate memory footprint per data class.
    totals = {}
    for k in kernels:
        for cls, n in k.memory_footprint().items():
            totals[cls] = totals.get(cls, 0) + n
    if totals:
        print("footprint (distinct 128B lines):")
        for cls, n in sorted(totals.items(), key=lambda kv: -kv[1]):
            print("  %-12s %7d lines (%d KB)"
                  % (cls.value, n, n * 128 // 1024))
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "render": _cmd_render,
    "trace-compute": _cmd_trace_compute,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "qos": _cmd_qos,
    "figure": _cmd_figure,
    "campaign": _cmd_campaign,
    "telemetry": _cmd_telemetry,
    "db": _cmd_db,
    "serve": _cmd_serve,
    "profile": _cmd_profile,
    "reproduce": _cmd_reproduce,
    "inspect": _cmd_inspect,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
