"""Command-line interface.

    python -m repro campaign --preset smoke --figures fig3 fig14
    python -m repro campaign --servers 800 --days 4 --export out/
    python -m repro campaign --storage sqlite:out/logs --figures sec5
    python -m repro campaign --preset paper-horizon --workers 4
    python -m repro campaign --metrics --metrics-out out/metrics.jsonl
    python -m repro sweep --seeds 1 2 3 --servers 300 500 --workers 4
    python -m repro crawl --servers 500 --crawls 3 --workers 4
    python -m repro campaign --trace --trace-out out/run.trace --progress
    python -m repro store stats out/hydra.jsonl --kind hydra
    python -m repro store convert out/hydra.jsonl out/hydra.sqlite
    python -m repro obs report out/metrics.jsonl --format json --top 10
    python -m repro campaign --stream --sketches-out out/sketches.json
    python -m repro campaign --live --progress
    python -m repro obs serve --addr 127.0.0.1:0 --announce out/url.txt
    python -m repro obs report http://127.0.0.1:8377 --watch 2
    python -m repro obs audit out/run.trace
    python -m repro obs trace-export out/run.trace --perfetto out/run.json
    python -m repro campaign --attack sybil-eclipse --detect
    python -m repro campaign --storage sqlite:out/adv --attack bitswap-flood:broadcasts_per_hour=900
    python -m repro detect score out/adv
    python -m repro detect attacks
    python -m repro table1

The CLI is a thin shell over :mod:`repro.scenario`; everything it prints
comes from the same report functions the benchmarks use.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro.scenario import report as figure_reports
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign
from repro.viz import bar_chart
from repro.world.profiles import WorldProfile

FIGURE_CHOICES = (
    "crawl_stats", "fig3", "fig5", "fig6", "fig7", "sec5",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18_19", "fig20",
)

_REPORT_FUNCTIONS = {
    "crawl_stats": figure_reports.crawl_stats_report,
    "fig3": figure_reports.fig3_report,
    "fig5": figure_reports.fig5_report,
    "fig6": figure_reports.fig6_report,
    "fig7": figure_reports.fig7_report,
    "sec5": figure_reports.sec5_report,
    "fig10": figure_reports.fig10_report,
    "fig11": figure_reports.fig11_report,
    "fig12": figure_reports.fig12_report,
    "fig13": figure_reports.fig13_report,
    "fig14": figure_reports.fig14_report,
    "fig15": figure_reports.fig15_report,
    "fig16": figure_reports.fig16_report,
    "fig17": figure_reports.fig17_report,
    "fig18_19": figure_reports.fig18_19_report,
    "fig20": figure_reports.fig20_report,
}


def _exec_options() -> argparse.ArgumentParser:
    """Shared ``--workers`` / ``--storage`` flags (one definition, used as
    an argparse parent by campaign, sweep and crawl so help can't drift)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 runs inline; results are identical at any count)",
    )
    common.add_argument(
        "--storage", metavar="SPEC", default="memory",
        help="storage spec: memory (default), sqlite:DIR or jsonl:DIR "
        "(see repro.store.parse_spec)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The Cloud Strikes Back' (IMC '23)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    exec_options = _exec_options()

    campaign = commands.add_parser(
        "campaign", parents=[exec_options],
        help="run a measurement campaign and print figure reports",
    )
    campaign.add_argument(
        "--preset", choices=("smoke", "default", "paper-horizon"), default="smoke"
    )
    campaign.add_argument("--servers", type=int, help="online DHT servers (overrides preset)")
    campaign.add_argument("--days", type=int, help="measurement days (overrides preset)")
    campaign.add_argument("--seed", type=int, help="override the scenario seed")
    campaign.add_argument(
        "--figures", nargs="*", choices=FIGURE_CHOICES, default=["crawl_stats", "fig3"],
        help="figure reports to print",
    )
    campaign.add_argument("--export", metavar="DIR", help="export datasets to a directory")
    campaign.add_argument(
        "--render", nargs="*", metavar="FIG", default=[],
        help="render figures as terminal charts (fig3 … fig20)",
    )
    campaign.add_argument(
        "--metrics", action="store_true",
        help="collect observability metrics and print the summary table",
    )
    campaign.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the metrics snapshot to PATH (.jsonl, .sqlite or .json; "
        "implies --metrics; render later with 'repro obs report PATH')",
    )
    campaign.add_argument(
        "--trace", action="store_true",
        help="collect causal event traces (see repro.obs.trace)",
    )
    campaign.add_argument(
        "--trace-out", metavar="PATH",
        help="write the merged trace to PATH (.trace/.jsonl or .sqlite; "
        "implies --trace; audit with 'repro obs audit PATH', export with "
        "'repro obs trace-export PATH --perfetto out.json')",
    )
    campaign.add_argument(
        "--trace-sample", type=int, default=1, metavar="N",
        help="keep ~1 in N causal trees (deterministic; default 1 = all)",
    )
    campaign.add_argument(
        "--progress", action="store_true",
        help="render a live single-line progress heartbeat on stderr",
    )
    campaign.add_argument(
        "--stream", action="store_true",
        help="maintain streaming analytics sketches over the monitor "
        "event stream and print the live-estimate summary (see "
        "repro.obs.stream)",
    )
    campaign.add_argument(
        "--sketches-out", metavar="PATH",
        help="write the final sketch snapshot JSON to PATH (implies "
        "--stream; render later with 'repro obs report PATH')",
    )
    campaign.add_argument(
        "--live", nargs="?", const="127.0.0.1:8377", metavar="ADDR",
        help="serve the live dashboard and control plane on ADDR "
        "(default 127.0.0.1:8377; host:0 picks a free port; implies "
        "--stream; see 'repro obs serve' for a standalone server)",
    )
    campaign.add_argument(
        "--workload", metavar="SPEC", default="closed",
        help="workload model: closed (legacy per-node Poisson, the "
        "golden default) or zipf:users=1e6,s=1.05,sessions=onoff,"
        "diurnal=true (open-loop sessions; 'repro workload describe "
        "SPEC' explains a spec)",
    )
    campaign.add_argument(
        "--attack", action="append", default=[], metavar="SPEC",
        help="inject an adversarial scenario, e.g. sybil-eclipse or "
        "bitswap-flood:num_attackers=4,broadcasts_per_hour=900 "
        "(repeatable; 'repro detect attacks' lists scenarios and knobs)",
    )
    campaign.add_argument(
        "--detect", action="store_true",
        help="run the packaged detectors over the monitor logs and print "
        "the ground-truth scorecard (see repro.detect)",
    )
    campaign.add_argument(
        "--detect-window", type=float, metavar="SECONDS",
        help="detection feature-window length (implies --detect; "
        "default: one campaign tick)",
    )

    sweep = commands.add_parser(
        "sweep", parents=[exec_options],
        help="run a grid of campaign configs, one worker process each",
    )
    sweep.add_argument(
        "--preset", choices=("smoke", "default", "paper-horizon"), default="smoke"
    )
    sweep.add_argument(
        "--servers", type=int, nargs="*", default=[],
        help="online-server axis of the grid",
    )
    sweep.add_argument(
        "--seeds", type=int, nargs="*", default=[],
        help="seed axis of the grid",
    )
    sweep.add_argument(
        "--days", type=int, nargs="*", default=[],
        help="measurement-days axis of the grid",
    )
    sweep.add_argument(
        "--full-reports", action="store_true",
        help="compute every figure report inside each worker (slower)",
    )
    sweep.add_argument("--json", metavar="PATH", help="write all summaries as JSON")

    store = commands.add_parser(
        "store", help="inspect or convert stored monitor logs"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    stats = store_commands.add_parser("stats", help="summarize a stored log")
    stats.add_argument("path", help="log file (.jsonl, .sqlite or .db)")
    stats.add_argument(
        "--kind", choices=("hydra", "bitswap"), default="hydra",
        help="which log type the file holds",
    )
    convert = store_commands.add_parser(
        "convert", help="convert a record file between storage formats"
    )
    convert.add_argument("source", help="existing record file")
    convert.add_argument(
        "destination", help="target record file (format by suffix; replaced)"
    )

    crawl = commands.add_parser(
        "crawl", parents=[exec_options],
        help="crawl a freshly bootstrapped overlay",
    )
    crawl.add_argument("--servers", type=int, default=500)
    crawl.add_argument("--crawls", type=int, default=2)
    crawl.add_argument("--timeout", type=float, default=180.0)
    crawl.add_argument("--seed", type=int, default=2023)

    obs_cmd = commands.add_parser("obs", help="observability tooling")
    obs_commands = obs_cmd.add_subparsers(dest="obs_command", required=True)
    # Shared output flags (one definition, used as an argparse parent by
    # report and audit — exactly like _exec_options for the run commands).
    obs_output = argparse.ArgumentParser(add_help=False)
    obs_output.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    obs_report = obs_commands.add_parser(
        "report", parents=[obs_output],
        help="render a saved metrics snapshot or sketch snapshot — the "
        "same renderer serves batch files and a live /sketches endpoint",
    )
    obs_report.add_argument(
        "path",
        help="metrics/sketches file (.jsonl, .sqlite, .db or .json) or a "
        "live control-plane URL (http://host:port[/sketches])",
    )
    obs_report.add_argument(
        "--top", type=int, metavar="N",
        help="only the N busiest entries per section (by count)",
    )
    obs_report.add_argument(
        "--watch", type=float, metavar="SECONDS",
        help="re-render every SECONDS (live view; stops when the "
        "endpoint goes away or on Ctrl-C)",
    )
    obs_serve = obs_commands.add_parser(
        "serve", parents=[exec_options],
        help="run a campaign under the live control plane: dashboard at "
        "/, JSON at /status /metrics /sketches, graceful stop at /stop",
    )
    obs_serve.add_argument(
        "--addr", dest="live", default="127.0.0.1:8377", metavar="HOST:PORT",
        help="bind address (default 127.0.0.1:8377; host:0 picks a free port)",
    )
    obs_serve.add_argument(
        "--preset", choices=("smoke", "default", "paper-horizon"), default="smoke"
    )
    obs_serve.add_argument("--servers", type=int, help="online DHT servers (overrides preset)")
    obs_serve.add_argument("--days", type=int, help="measurement days (overrides preset)")
    obs_serve.add_argument("--seed", type=int, help="override the scenario seed")
    obs_serve.add_argument(
        "--metrics", action="store_true",
        help="also collect and publish the metrics snapshot on /metrics",
    )
    obs_serve.add_argument(
        "--sketches-out", metavar="PATH",
        help="write the final sketch snapshot JSON to PATH",
    )
    obs_serve.add_argument(
        "--announce", metavar="FILE",
        help="write the bound URL to FILE once serving (lets scripts "
        "discover an OS-assigned port)",
    )
    obs_serve.add_argument(
        "--hold", action="store_true",
        help="keep serving the final snapshot after the campaign "
        "completes, until /stop is requested",
    )
    obs_audit = obs_commands.add_parser(
        "audit", parents=[obs_output],
        help="replay a trace stream and check protocol invariants",
    )
    obs_audit.add_argument("path", help="trace file (.trace, .jsonl, .sqlite or .db)")
    obs_export = obs_commands.add_parser(
        "trace-export", help="export a trace for external viewers"
    )
    obs_export.add_argument("path", help="trace file (.trace, .jsonl, .sqlite or .db)")
    obs_export.add_argument(
        "--perfetto", metavar="OUT", required=True,
        help="write Chrome trace-event JSON (open in ui.perfetto.dev)",
    )

    workload_cmd = commands.add_parser(
        "workload", help="inspect workload specs (see repro.workload)"
    )
    workload_commands = workload_cmd.add_subparsers(
        dest="workload_command", required=True
    )
    # Shared spec/output flags (argparse parent, like obs_output above).
    workload_common = argparse.ArgumentParser(add_help=False)
    workload_common.add_argument(
        "spec",
        help="workload spec string: closed, or zipf:users=1e6,s=1.05,...",
    )
    workload_common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    workload_commands.add_parser(
        "describe", parents=[workload_common],
        help="print a spec's derived calibration numbers",
    )
    workload_sample = workload_commands.add_parser(
        "sample", parents=[workload_common],
        help="dry-run a spec against a synthetic catalog and print the "
        "sampled shapes (volume, diurnal curve, shares) — no campaign",
    )
    workload_sample.add_argument(
        "--hours", type=int, default=24, help="hours to sample (default 24)"
    )
    workload_sample.add_argument(
        "--seed", type=int, default=2023, help="driver seed (default 2023)"
    )

    detect = commands.add_parser(
        "detect", help="attack detection over stored campaign logs"
    )
    detect_commands = detect.add_subparsers(dest="detect_command", required=True)
    detect_score = detect_commands.add_parser(
        "score",
        help="run the packaged detectors over a stored campaign and score "
        "them against the persisted attack ground truth",
    )
    detect_score.add_argument(
        "storage",
        help="campaign storage: the directory, or the spec it was run with "
        "(sqlite:DIR or jsonl:DIR)",
    )
    detect_score.add_argument(
        "--window", type=float, default=None, metavar="SECONDS",
        help="feature-window length (default: one campaign tick, 21600s)",
    )
    detect_score.add_argument(
        "--grace", type=float, default=None, metavar="SECONDS",
        help="post-window slack when matching alerts to attack windows "
        "(default: one feature window)",
    )
    detect_score.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    detect_commands.add_parser(
        "attacks", help="list the attack scenarios and their spec knobs"
    )

    commands.add_parser("table1", help="print the paper's Table 1 counting example")
    return parser


def _config_from_args(args) -> ScenarioConfig:
    """The preset with every setting the command line gives.

    Each output file implies the sink it persists: ``--metrics-out``
    metrics, ``--trace-out`` tracing and ``--sketches-out`` streaming.
    """
    if args.preset == "smoke":
        config = ScenarioConfig.smoke()
    elif args.preset == "paper-horizon":
        config = ScenarioConfig.paper_horizon()
    else:
        config = ScenarioConfig()

    def flag(name, default=None):
        # Each command defines only the flags it takes.
        return getattr(args, name, default)

    overrides = {}
    profile = config.profile
    if args.servers:
        profile = profile.scaled(args.servers)
    if args.seed is not None:
        profile = dataclasses.replace(profile, seed=args.seed)
        overrides["seed"] = args.seed
    overrides["profile"] = profile
    if args.days:
        overrides["days"] = args.days
    if flag("storage", "memory") not in (None, "memory"):
        overrides["storage"] = args.storage
    if flag("workers", 1) > 1:
        overrides["workers"] = args.workers
    if flag("metrics") or flag("metrics_out"):
        overrides["metrics"] = True
    if flag("trace") or flag("trace_out"):
        overrides["trace"] = True
        overrides["trace_sample"] = max(1, flag("trace_sample", 1))
    if flag("progress"):
        overrides["progress"] = True
    if flag("stream") or flag("sketches_out"):
        overrides["stream"] = True
    if flag("live"):
        overrides["live"] = args.live
    if flag("workload", "closed") not in (None, "closed"):
        from repro.workload import parse_workload_spec

        # Parse now so a malformed spec fails before the world is built.
        overrides["workload_spec"] = parse_workload_spec(args.workload).to_string()
    if flag("attack"):
        from repro.attack import parse_attack_spec

        overrides["attacks"] = tuple(parse_attack_spec(spec) for spec in args.attack)
    if flag("detect") or flag("detect_window"):
        overrides["detect"] = True
        if flag("detect_window"):
            overrides["detect_window"] = args.detect_window
    return dataclasses.replace(config, **overrides)


def _write_sketches(snapshot, path: str) -> None:
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")


def _print_report(name: str, payload) -> None:
    print(f"\n## {name}")
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, dict) and value and all(
                isinstance(v, (int, float)) for v in value.values()
            ):
                print(bar_chart(value, f"{key}:", limit=8))
            elif isinstance(value, float):
                print(f"  {key}: {value:.3f}")
            elif isinstance(value, (int, str)):
                print(f"  {key}: {value}")


def _run_campaign_command(args) -> int:
    try:
        config = _config_from_args(args)
    except ValueError as exc:  # malformed --attack / --workload spec
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"running campaign: {config.profile.online_servers} servers, "
        f"{config.days} days, {config.num_crawls} crawls..."
    )
    result = run_campaign(config)
    for error in result.exec_errors:
        print(f"warning: {error}", file=sys.stderr)
    for figure in args.figures:
        _print_report(figure, _REPORT_FUNCTIONS[figure](result))
    if args.render:
        from repro.scenario.figures import render

        for figure in args.render:
            print()
            print(render(result, figure))
    if args.export:
        from repro.core.datasets import export_campaign

        counts = export_campaign(result, args.export)
        print(f"\nexported to {args.export}:")
        for artifact, count in counts.items():
            print(f"  {artifact}: {count}")
    if result.attack_summary is not None:
        print("\n## attacks")
        for name, stats in result.attack_summary.items():
            details = ", ".join(f"{key} {value:g}" for key, value in stats.items())
            print(f"  {name}: {details}")
    if result.detection is not None:
        from repro.detect import render_scorecard

        print("\n## detection")
        print(render_scorecard(result.detection))
    # The campaign only collects; its observability files are written here.
    if result.metrics is not None:
        from repro.obs import render_report, write_metrics

        if args.metrics_out:
            count = write_metrics(result.metrics, args.metrics_out)
            print(f"\nmetrics: {count} records -> {args.metrics_out}")
        print("\n## metrics")
        print(render_report(result.metrics))
    if result.trace is not None:
        if args.trace_out:
            from repro.obs import write_trace

            write_trace(result.trace, args.trace_out)
            print(f"\ntrace: {len(result.trace)} records -> {args.trace_out}")
        else:
            print(f"\ntrace: {len(result.trace)} records (use --trace-out to persist)")
    if result.sketches is not None:
        from repro.obs import render_stream_report

        if result.stopped_early:
            print("\ncampaign stopped early via /stop", file=sys.stderr)
        if args.sketches_out:
            _write_sketches(result.sketches, args.sketches_out)
            print(f"\nsketches -> {args.sketches_out}")
        print("\n## streaming sketches")
        print(render_stream_report(result.sketches))
    return 0


def _run_sweep_command(args) -> int:
    from repro.exec.sweep import run_sweep, sweep_grid

    if args.preset == "smoke":
        base = ScenarioConfig.smoke()
    elif args.preset == "paper-horizon":
        base = ScenarioConfig.paper_horizon()
    else:
        base = ScenarioConfig()
    configs = sweep_grid(base, servers=args.servers, seeds=args.seeds, days=args.days)
    print(
        f"sweep: {len(configs)} campaign(s), {args.workers} worker(s), "
        f"preset {args.preset}"
    )
    outcome = run_sweep(
        configs,
        workers=args.workers,
        full_reports=args.full_reports,
        storage_spec=None if args.storage == "memory" else args.storage,
    )
    header = f"{'servers':>8} {'days':>5} {'seed':>6} {'crawls':>7} {'discovered':>11} {'an_cloud':>9} {'gip_cloud':>10} {'dht_msgs':>9}"
    print(header)
    for config, summary in zip(outcome.configs, outcome.summaries):
        if summary is None:
            print(
                f"{config.profile.online_servers:>8} {config.days:>5} "
                f"{config.seed:>6}  FAILED"
            )
            continue
        stats = summary["crawl_stats"]
        print(
            f"{summary['servers']:>8} {summary['days']:>5} {summary['seed']:>6} "
            f"{int(stats['num_crawls']):>7} {stats['avg_discovered']:>11.1f} "
            f"{summary['an_cloud_share']:>9.3f} {summary['gip_cloud_share']:>10.3f} "
            f"{summary['dht_messages']:>9}"
        )
    for error in outcome.errors:
        print(f"error: {error}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(outcome.summaries, handle, default=str, indent=2)
        print(f"summaries written to {args.json}")
    return 1 if outcome.num_failed else 0


def _run_crawl_command(args) -> int:
    import random

    from repro.core.crawler import CrawlDataset, DHTCrawler, execute_crawl_task
    from repro.exec.engine import run_tasks
    from repro.netsim.network import Overlay
    from repro.store import parse_spec
    from repro.world.population import build_world

    try:
        spec = parse_spec(args.storage)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    world = build_world(WorldProfile(online_servers=args.servers, seed=args.seed))
    overlay = Overlay(world)
    overlay.bootstrap()
    crawler = DHTCrawler(overlay, timeout=args.timeout, rng=random.Random(args.seed))
    # The overlay is frozen between crawls, so all tasks can be captured
    # up front and fanned out over the pool (inline when --workers 1).
    tasks = [crawler.task(crawl_id) for crawl_id in range(args.crawls)]
    snapshots, errors = run_tasks(execute_crawl_task, tasks, workers=args.workers)
    for snapshot in snapshots:
        if snapshot is None:
            continue
        print(
            f"crawl {snapshot.crawl_id}: discovered {snapshot.num_discovered}, "
            f"crawlable {snapshot.num_crawlable}, "
            f"duration {snapshot.duration:.0f}s, "
            f"requests {snapshot.requests_sent}"
        )
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if not spec.is_memory:
        from repro.core.datasets import write_crawl_csv, write_crawl_jsonl

        directory = Path(spec.path)
        directory.mkdir(parents=True, exist_ok=True)
        dataset = CrawlDataset(snapshots=[s for s in snapshots if s is not None])
        rows = write_crawl_jsonl(dataset, directory / "crawls.jsonl")
        write_crawl_csv(dataset, directory / "crawls.csv")
        print(f"wrote {rows} observation rows to {directory}/crawls.jsonl (+ .csv)")
    return 1 if errors else 0


def _run_obs_command(args) -> int:
    if args.obs_command == "serve":
        return _run_obs_serve(args)
    if args.obs_command == "report":
        return _run_obs_report(args)
    if not Path(args.path).exists():
        print(f"error: no such file: {args.path}", file=sys.stderr)
        return 2
    if args.obs_command == "audit":
        from repro.obs import audit_trace, read_trace

        report = audit_trace(read_trace(args.path))
        if args.format == "json":
            # ``ok`` is a property, so asdict() alone would drop the one
            # field scripts branch on.
            payload = {"ok": report.ok, **dataclasses.asdict(report)}
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(report.render())
        return 0 if report.ok else 1
    # trace-export
    from repro.obs import read_trace, write_chrome_trace

    count = write_chrome_trace(read_trace(args.path), args.perfetto)
    print(f"wrote {count} trace events -> {args.perfetto} (open in ui.perfetto.dev)")
    return 0


def _load_obs_snapshot(path: str):
    """Load a metrics or sketch snapshot from a file or a live URL."""
    if path.startswith(("http://", "https://")):
        from urllib.parse import urlparse

        from repro.obs.serve import fetch_json

        # A bare control-plane URL means the sketches endpoint.
        if urlparse(path).path.rstrip("/") in ("", "/"):
            path = path.rstrip("/") + "/sketches"
        return fetch_json(path)
    from repro.obs import read_metrics

    return read_metrics(path)


def _render_obs_snapshot(args, snapshot) -> None:
    from repro.obs.stream import SKETCHES_SCHEMA, render_stream_report

    if snapshot.get("schema") == SKETCHES_SCHEMA:
        if args.format == "json":
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(render_stream_report(snapshot))
        return
    from repro.obs import render_report

    if args.format == "json":
        print(json.dumps(_top_snapshot(snapshot, args.top), indent=2, sort_keys=True))
    else:
        print(render_report(snapshot, top=args.top))


def _run_obs_report(args) -> int:
    import time
    from urllib.error import URLError

    is_url = args.path.startswith(("http://", "https://"))
    if not is_url and not Path(args.path).exists():
        print(f"error: no such file: {args.path}", file=sys.stderr)
        return 2
    if not args.watch:
        _render_obs_snapshot(args, _load_obs_snapshot(args.path))
        return 0
    interval = max(0.1, args.watch)
    try:
        while True:
            try:
                snapshot = _load_obs_snapshot(args.path)
            except (URLError, OSError) as exc:
                print(f"endpoint gone ({exc}); stopping watch", file=sys.stderr)
                return 0
            if sys.stdout.isatty():
                print("\x1b[H\x1b[2J", end="")
            _render_obs_snapshot(args, snapshot)
            print(f"-- watching {args.path} every {interval:g}s (Ctrl-C to stop)")
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


def _run_obs_serve(args) -> int:
    import time

    from repro.scenario.run import MeasurementCampaign

    campaign = MeasurementCampaign(_config_from_args(args))
    campaign.build()
    url = campaign.control_server.url
    if args.announce:
        announce = Path(args.announce)
        announce.parent.mkdir(parents=True, exist_ok=True)
        announce.write_text(url + "\n")
    try:
        result = campaign.run()
        if args.sketches_out:
            _write_sketches(result.sketches, args.sketches_out)
        if args.hold and not result.stopped_early:
            print("campaign done; holding until /stop ...", file=sys.stderr)
            while not campaign.control_server.publisher.stop_requested:
                time.sleep(0.2)
        state = "stopped early via /stop" if result.stopped_early else "done"
        print(
            f"campaign {state}: {result.sketches['events']:,} monitor events, "
            f"{len(result.crawls)} crawls"
        )
        if args.sketches_out:
            print(f"sketches -> {args.sketches_out}")
        return 0
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        campaign.close_live()


def _top_snapshot(snapshot, top):
    """Apply ``--top N`` to a metrics snapshot for JSON output: keep the
    N highest-count entries per section (ties broken by name)."""
    if not top or top <= 0:
        return snapshot

    def busiest(section, rank):
        items = sorted(section.items(), key=lambda kv: (-rank(kv[1]), kv[0]))[:top]
        return dict(sorted(items))

    trimmed = dict(snapshot)
    for section, rank in (
        ("counters", lambda value: value),
        ("gauges", lambda value: value),
        ("histograms", lambda data: data["count"]),
        ("spans", lambda data: data["count"]),
    ):
        if isinstance(snapshot.get(section), dict):
            trimmed[section] = busiest(snapshot[section], rank)
    return trimmed


def _run_store_command(args) -> int:
    from repro.store import BITSWAP_CODEC, HYDRA_CODEC, read_records, write_records

    source = args.source if args.store_command == "convert" else args.path
    if not Path(source).exists():
        print(f"error: no such log file: {source}", file=sys.stderr)
        return 2
    if args.store_command == "convert":
        if Path(args.source).resolve() == Path(args.destination).resolve():
            # Replacing the destination would delete the input first.
            print("error: source and destination are the same file", file=sys.stderr)
            return 2
        copied = write_records(read_records(args.source), args.destination)
        print(f"converted {copied} records -> {args.destination}")
        return 0

    from repro.core.traffic import summarize

    codec = HYDRA_CODEC if args.kind == "hydra" else BITSWAP_CODEC
    summary = summarize(codec.decode_all(read_records(args.path)))
    print(f"{args.kind} log at {args.path}: {summary.total} records")
    print(f"  unique peer IDs: {summary.unique_peers}")
    print(f"  unique IPs: {summary.unique_ips}")
    print(f"  unique CIDs: {summary.unique_cids}")
    if summary.first_timestamp is not None:
        span = (summary.last_timestamp - summary.first_timestamp) / 86400.0
        print(f"  time span: {span:.2f} days")
    # Bitswap entries carry no traffic class, so this prints nothing for them.
    for label, share in sorted(summary.class_shares.items()):
        print(f"  {label}: {share:.3f}")
    return 0


def _sniff_campaign_logs(directory: Path):
    """Infer a campaign directory's storage spec and stored log set.

    ``campaign_stores`` lays logs out as ``<dir>/<name>.<suffix>``, so
    the files themselves carry the backend kind and which logs exist —
    no flags needed to re-open them for scoring.
    """
    for kind in ("sqlite", "jsonl"):
        if (directory / f"hydra.{kind}").exists():
            names = ["hydra"] + [
                name
                for name in ("bitswap", "attack")
                if (directory / f"{name}.{kind}").exists()
            ]
            return f"{kind}:{directory}", tuple(names)
    raise ValueError(f"no campaign logs (hydra.sqlite/.jsonl) under {directory}")


def _run_detect_command(args) -> int:
    if args.detect_command == "attacks":
        from repro.attack import ATTACK_TYPES

        print("attack scenarios (use with 'repro campaign --attack NAME[:k=v,...]'):")
        for name in sorted(ATTACK_TYPES):
            config_type = ATTACK_TYPES[name]
            knobs = ", ".join(
                f"{field.name}={field.default}"
                for field in dataclasses.fields(config_type)
            )
            print(f"  {name}")
            print(f"    {knobs}")
        return 0
    # score
    from repro.attack.ground_truth import load_ground_truth
    from repro.detect import run_detection
    from repro.store import (
        BITSWAP_CODEC,
        HYDRA_CODEC,
        EventLog,
        campaign_stores,
        parse_spec,
    )

    try:
        if Path(args.storage).is_dir():
            directory = Path(args.storage)
        else:
            parsed = parse_spec(args.storage)
            if not parsed.on_disk:
                raise ValueError(
                    f"detect score needs an on-disk campaign store: {args.storage!r}"
                )
            directory = Path(parsed.path)
        spec, names = _sniff_campaign_logs(directory)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stores = campaign_stores(spec, names=names)
    hydra = EventLog(HYDRA_CODEC, stores["hydra"])
    bitswap = (
        EventLog(BITSWAP_CODEC, stores["bitswap"]) if "bitswap" in stores else ()
    )
    ground_truth = None
    if "attack" in stores:
        ground_truth = load_ground_truth(stores["attack"])
    else:
        print(
            "warning: no attack log in the store — scoring without ground "
            "truth (every alert counts as a false positive)",
            file=sys.stderr,
        )
    kwargs = {}
    if args.window is not None:
        kwargs["window_seconds"] = args.window
    if args.grace is not None:
        kwargs["grace"] = args.grace
    card = run_detection(hydra, bitswap, ground_truth=ground_truth, **kwargs)
    if args.format == "json":
        print(json.dumps(card.to_dict(), indent=2, sort_keys=True))
    else:
        print(card.render())
    return 0


def _run_workload_command(args) -> int:
    from repro.workload import describe_workload, parse_workload_spec, sample_workload

    try:
        spec = parse_workload_spec(args.spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload_command == "describe":
        payload = describe_workload(spec)
    else:  # sample
        if spec.model == "closed":
            print(
                "error: the closed model has no session sampler; "
                "pass a zipf:... spec",
                file=sys.stderr,
            )
            return 2
        payload = sample_workload(spec, seed=args.seed, hours=args.hours)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"workload {spec.to_string()}")
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"  {key}:")
            for sub_key, sub_value in value.items():
                rendered = (
                    f"{sub_value:.4f}" if isinstance(sub_value, float) else sub_value
                )
                print(f"    {sub_key}: {rendered}")
        elif isinstance(value, list):
            preview = ", ".join(str(entry) for entry in value[:24])
            print(f"  {key}: [{preview}{', ...' if len(value) > 24 else ''}]")
        elif isinstance(value, float):
            print(f"  {key}: {value:.4f}")
        else:
            print(f"  {key}: {value}")
    return 0


def _run_table1_command() -> int:
    from repro.core.counting import CrawlRow, a_n_counts, g_ip_counts
    from repro.ids.peerid import PeerID

    p1, p2 = PeerID((1).to_bytes(32, "big")), PeerID((2).to_bytes(32, "big"))
    geo = {"a1": "DE", "a2": "DE", "a3": "US", "a4": "US"}
    rows = [
        CrawlRow(1, p1, "a1"), CrawlRow(1, p1, "a2"), CrawlRow(1, p2, "a3"),
        CrawlRow(2, p2, "a2"), CrawlRow(2, p2, "a3"), CrawlRow(2, p2, "a4"),
    ]
    print("Table 1 example dataset (paper §3):")
    print("  G-IP:", g_ip_counts(rows, geo.get), "(paper: DE=2, US=2)")
    print("  A-N: ", a_n_counts(rows, geo.get), "(paper: DE=0.5, US=1)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "campaign":
        return _run_campaign_command(args)
    if args.command == "sweep":
        return _run_sweep_command(args)
    if args.command == "crawl":
        return _run_crawl_command(args)
    if args.command == "store":
        return _run_store_command(args)
    if args.command == "obs":
        return _run_obs_command(args)
    if args.command == "workload":
        return _run_workload_command(args)
    if args.command == "detect":
        return _run_detect_command(args)
    if args.command == "table1":
        return _run_table1_command()
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
