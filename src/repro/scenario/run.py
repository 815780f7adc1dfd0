"""The end-to-end measurement campaign (paper §3, Fig. 2 architecture).

Builds the synthetic world and network, runs the simulated measurement
period — churn and traffic interleaved with periodic DHT crawls and daily
provider-record collection — and finally the one-shot entry-point
measurements (gateway probing, active DNS scan, ENS scrape).  The result
object carries every dataset the §4-§7 analyses need.
"""

from __future__ import annotations

import gc
import random
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Dict, List, Optional, Set, Union

from repro.attack.orchestrator import AttackOrchestrator
from repro.content.catalog import ContentCatalog
from repro.workload.engine import TrafficEngine
from repro.workload.spec import build_workload
from repro.core.counting import CrawlRow, make_rows
from repro.core.crawler import CrawlDataset, DHTCrawler, collect_crawl, execute_crawl_task
from repro.core.traffic import LogSummary, summarize
from repro.exec.engine import ExecError, ParallelExecutor
from repro.exec.seeds import derive_seed
from repro.dns.scanner import ActiveScanner, DNSLinkScanResult
from repro.dns.seeding import DNSWorld, seed_dns_world
from repro.ens.scraper import ENSContenthashScraper, ENSScrapeResult
from repro.ens.seeding import ENSWorld, seed_ens_world
from repro.gateway.operators import default_operators, install_gateway_specs
from repro.gateway.registry import PublicGatewayRegistry
from repro.gateway.service import GatewayService
from repro.ids.peerid import PeerID
from repro.monitors.bitswap_monitor import BitswapMonitor
from repro.monitors.gateway_probe import GatewayProbeReport, GatewayProber
from repro.monitors.hydra import HydraBooster
from repro.monitors.provider_fetcher import ProviderObservation, ProviderRecordFetcher
from repro.netsim.churn import ChurnProcess, DailyAddressRotation, PresenceAdvertiser
from repro.netsim.clock import SECONDS_PER_DAY
from repro.netsim.network import Overlay
from repro.netsim.node import Node
from repro.obs import observer as obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer, use_observer
from repro.obs.progress import Heartbeat, ProgressReporter
from repro.obs.serve import ControlServer
from repro.obs.stream import StreamAnalytics
from repro.obs.trace import Tracer
from repro.scenario.config import ScenarioConfig
from repro.store import campaign_stores
from repro.world.population import NodeClass, NodeSpec, PopulationBuilder, World


@dataclass
class CampaignResult:
    """Every dataset a completed campaign produced."""

    config: ScenarioConfig
    world: World
    overlay: Overlay
    catalog: ContentCatalog
    crawls: CrawlDataset
    hydra: HydraBooster
    bitswap_monitor: BitswapMonitor
    provider_observations: List[ProviderObservation]
    gateway_registry: PublicGatewayRegistry
    gateway_probe_reports: Dict[str, GatewayProbeReport]
    dns_world: DNSWorld
    dns_scan: DNSLinkScanResult
    ens_world: ENSWorld
    ens_scrape: ENSScrapeResult
    ens_observations: List[ProviderObservation]
    gateway_peers: Set[PeerID]
    hydra_peers: Set[PeerID]
    #: crawl tasks that failed even after a retry (empty on clean runs);
    #: their snapshots are missing from ``crawls``.
    exec_errors: List[ExecError] = field(default_factory=list)
    #: observability snapshot (see :mod:`repro.obs`) when the campaign ran
    #: with ``ScenarioConfig.metrics`` enabled, else ``None``.
    metrics: Optional[Dict[str, object]] = None
    #: merged trace record stream (see :mod:`repro.obs.trace`) when the
    #: campaign ran with ``ScenarioConfig.trace`` set, else ``None``: the
    #: campaign tracer's records followed by each crawl task's, in crawl
    #: order.
    trace: Optional[List[Dict[str, object]]] = None
    #: per-attack effect metrics (see :class:`repro.attack.AttackOrchestrator`)
    #: when the campaign ran with attacks configured, else ``None``.
    attack_summary: Optional[Dict[str, Dict[str, float]]] = None
    #: the ground-truth log of injected adversarial activity, else ``None``.
    attack_ground_truth: Optional[object] = None
    #: detector scorecard (see :func:`repro.detect.run_detection`) when the
    #: campaign ran with ``ScenarioConfig.detect`` enabled, else ``None``.
    detection: Optional[Dict[str, object]] = None
    #: final streaming-analytics sketch snapshot (see
    #: :mod:`repro.obs.stream`) when the campaign ran with streaming
    #: enabled (``stream`` / ``live``), else ``None``.
    sketches: Optional[Dict[str, object]] = None
    #: the bound control-plane URL when the campaign served ``--live``.
    live_url: Optional[str] = None
    #: True when a live ``/stop`` request ended the measurement period
    #: early (the datasets cover the completed ticks only).
    stopped_early: bool = False

    # A returned result's datasets are final (the logs are flushed), so
    # the derived views below are computed once, on first use.

    @cached_property
    def crawl_rows(self) -> List[CrawlRow]:
        return make_rows(self.crawls.rows())

    @cached_property
    def hydra_summary(self) -> LogSummary:
        return _log_summary(self.hydra)

    @cached_property
    def bitswap_summary(self) -> LogSummary:
        return _log_summary(self.bitswap_monitor)


def _log_summary(monitor: Union[HydraBooster, BitswapMonitor]) -> LogSummary:
    """The monitor's folded summary when it covers the whole log; else
    (a monitor opened over a store that already held records) one pass
    over the log."""
    if monitor.summary.total == len(monitor.log):
        return monitor.summary
    return summarize(monitor.log)


@contextmanager
def collector_paused():
    """Run the block with the cyclic garbage collector off.

    A campaign's build and run allocate millions of long-lived objects,
    and they and :func:`repro.scenario.report.full_report` leave no
    cyclic garbage (``tests/test_gc_pause.py`` holds that), so every
    automatic pass over them is wasted.  On exit the survivors are
    moved into the oldest generation (a freeze/unfreeze pair: a few list
    splices), so the young-generation passes after the block do not walk
    them, yet they stay collectable.  Objects the caller froze stay
    frozen: with any, the pair is skipped.  Nests, and decorates
    (``contextmanager`` objects re-create themselves per call).
    """
    enabled = gc.isenabled()
    caller_froze = gc.get_freeze_count()
    gc.disable()
    try:
        yield
    finally:
        if not caller_froze:
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


class MeasurementCampaign:
    """Owns the simulated world and executes the full §3 methodology."""

    def __init__(self, config: Optional[ScenarioConfig] = None) -> None:
        self.config = config or ScenarioConfig()
        self.rng = random.Random(self.config.seed + 100)
        #: the campaign's sinks (see :meth:`_make_observer`).
        self.observer = self._make_observer()
        #: the live control plane (see :mod:`repro.obs.serve`) when
        #: ``config.live`` is set; bound during :meth:`build` so the URL
        #: is known before the run starts.
        self.control_server: Optional[ControlServer] = None
        #: the ``--progress`` line, when ``config.progress`` is set.
        self._progress = (
            ProgressReporter(observer=self.observer) if self.config.progress else None
        )
        readers = [] if self._progress is None else [self._progress]
        if self.config.live is not None:
            readers.append(self._publish_live)
        #: the campaign status both readers share (see
        #: :class:`repro.obs.progress.Heartbeat`).
        self.heartbeat = Heartbeat(readers)
        self._built = False

    def _make_observer(self) -> Observer:
        """The campaign's sinks: ``metrics`` collects metrics, ``trace``
        traces and ``stream_enabled`` streams.  Crawl tasks collect into
        their own private sinks (see
        :func:`repro.core.crawler.collect_crawl`).
        """
        config = self.config
        metrics = MetricsRegistry() if config.metrics else None
        tracer = None
        if config.trace:
            tracer = Tracer(
                origin="main",
                seed=derive_seed(config.seed, "trace", "main"),
                sample=config.trace_sample,
                capacity=config.trace_buffer,
                clock=self._sim_now,
            )
        stream = None
        if config.stream_enabled:
            # The live shares mirror the exact batch analyses: cloud
            # attribution is the same CloudIPDatabase lookup the traffic
            # reports use, and the gateway set is Fig. 10's.  The
            # monitors' folds are handed over in _build.
            stream = StreamAnalytics(
                SECONDS_PER_DAY / config.ticks_per_day,
                provider_of=self._cloud_provider,
                gateway_peers=partial(self._peers_of_class, NodeClass.GATEWAY),
            )
        return Observer(metrics, tracer, stream)

    def _sim_now(self) -> float:
        overlay = getattr(self, "overlay", None)
        return overlay.now if overlay is not None else 0.0

    def _cloud_provider(self, ip: str) -> Optional[str]:
        return self.world.cloud_db.lookup(ip)

    def _observed(self):
        """Install the campaign observer while it collects anything.

        When it does not, the surroundings are left alone, so a
        user-installed observer still sees the instrumentation.
        """
        return use_observer(self.observer) if self.observer.enabled else nullcontext()

    @contextmanager
    def _phase(self, name: str, **status: object):
        """Run a campaign phase: its metrics span, paired trace instants
        and a forced heartbeat (with any further ``status`` fields).

        Instants, not trace spans, on purpose: a root span would make the
        whole phase one causal tree, and ``trace_sample`` would then mute
        every lookup inside it wholesale.  With markers, each
        lookup/crawl/fetch stays its own tree — the granularity the
        sampler keys on — while the phase boundaries remain visible.
        """
        with obs.span(name):
            self.observer.trace_event("phase.begin", phase=name)
            self.heartbeat.beat(force=True, phase=name, **status)
            try:
                yield
            finally:
                self.observer.trace_event("phase.end", phase=name)

    # ------------------------------------------------------------------
    # the live control plane
    # ------------------------------------------------------------------

    def _publish_live(self, heartbeat: Dict[str, object], now: float) -> None:
        """Push the heartbeat status and the sketch (and metrics)
        snapshots to the control plane (a heartbeat reader).

        Strictly read-only against the simulation — the server thread
        never touches sim state, the campaign thread only *reads* the
        sketches — so ``--live`` cannot perturb outputs.
        """
        server = self.control_server
        if server is None:
            return
        stream = self.observer.stream
        status: Dict[str, object] = {
            "state": heartbeat["state"],
            "phase": heartbeat["phase"],
            "events": stream.events,
            "runtime": dict(sorted(stream.notes.items())),
        }
        for key in ("day", "tick", "crawls"):
            pair = heartbeat[key]
            if pair is not None:
                status[key] = f"{pair[0]}/{pair[1]}"
        # Status goes last: a client that has seen a status can then read
        # the snapshots published with it.
        server.publisher.publish("sketches", stream.snapshot())
        if self.observer.metrics.enabled:
            server.publisher.publish("metrics", self.observer.metrics.snapshot())
        server.publisher.publish("status", status)

    def _stop_requested(self) -> bool:
        return (
            self.control_server is not None
            and self.control_server.publisher.stop_requested
        )

    def close_live(self) -> None:
        """Shut the control-plane server down (idempotent).

        :meth:`run` leaves the server up so callers (``repro obs serve``)
        can keep the final snapshot browsable; :func:`run_campaign`
        closes it as soon as the result is returned.
        """
        if self.control_server is not None:
            self.control_server.close()
            self.control_server = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @collector_paused()
    def build(self) -> None:
        with self._observed(), obs.span("campaign"), self._phase("build"):
            self._build()

    def _build(self) -> None:
        config = self.config
        self.world = PopulationBuilder(config.profile).build()
        self.operators = default_operators()
        self.gateway_specs = install_gateway_specs(self.world, self.operators)
        self._monitor_spec = self._add_monitor_spec()
        self.overlay = Overlay(self.world)
        self.overlay.bootstrap()
        self.overlay.schedule_periodic_refresh()
        self.churn = ChurnProcess(self.overlay)
        self.churn.start()
        self.advertiser = PresenceAdvertiser(self.overlay)
        self.advertiser.start()
        self.rotation = DailyAddressRotation(self.overlay)
        self.rotation.start()
        self.catalog = ContentCatalog(random.Random(config.seed + 101))
        # Attack-off campaigns must not even create an attack store
        # (byte-identical on-disk layout to previous releases).
        log_names = ("hydra", "bitswap", "attack") if config.attacks else ("hydra", "bitswap")
        stores = campaign_stores(config.storage, names=log_names)
        for store in stores.values():
            # A campaign starts at simulated t=0; records left over from a
            # previous run into the same path would silently skew every
            # share the analyses compute.
            store.clear()
        self.hydra = HydraBooster(num_heads=config.hydra_heads, store=stores["hydra"])
        self.monitor = BitswapMonitor(
            random.Random(config.seed + 102), store=stores["bitswap"]
        )
        stream = self.observer.stream
        if stream.enabled:
            stream.hydra = self.hydra.summary
            stream.bitswap = self.monitor.summary
        self.engine = TrafficEngine(
            self.overlay, self.catalog, self.hydra, self.monitor, config.workload
        )
        # Optional open-loop session driver (see repro.workload.spec).
        # "closed" builds nothing: the engine keeps its legacy per-node
        # model and the campaign stays bit-identical to the goldens.
        workload_driver = build_workload(config.workload_spec, seed=config.seed)
        if workload_driver is not None:
            self.engine.attach_open_loop(workload_driver)
        # Attackers are injected after ChurnProcess.start(), so their
        # sessions answer to the attack windows alone, never to churn.
        self.attack_orchestrator: Optional[AttackOrchestrator] = None
        if config.attacks:
            self.attack_orchestrator = AttackOrchestrator(
                self.overlay,
                self.engine,
                self.monitor,
                self.catalog,
                config.attacks,
                seed=config.seed,
                store=stores["attack"],
            )
            self.attack_orchestrator.install()
        self.crawler = DHTCrawler(self.overlay)
        self.fetcher = ProviderRecordFetcher(self.overlay)
        self.gateway_registry = PublicGatewayRegistry(self.operators)
        self.services: Dict[str, Optional[GatewayService]] = {}
        for entry in self.gateway_registry.entries:
            if entry.operator is None:
                self.services[entry.domain] = None
                continue
            nodes = [
                node
                for node in self.overlay.nodes
                if node.spec.platform == entry.operator
                and node.spec.node_class is NodeClass.GATEWAY
            ]
            operator = self.gateway_registry.operator_for(entry.domain)
            self.services[entry.domain] = GatewayService(
                operator, nodes, self.overlay, self.monitor
            )
        self.dns_world = seed_dns_world(self.world, self.operators, config.dns)
        if config.live is not None:
            self.control_server = ControlServer(config.live).start()
            print(
                f"live campaign analytics at {self.control_server.url}",
                file=sys.stderr,
            )
        self._built = True

    def _add_monitor_spec(self) -> NodeSpec:
        """Our own monitoring node: a stable university server (non-cloud,
        DE) that hosts the probe content and the Bitswap monitor."""
        key = ("isp-de", "DE")
        if key not in self.world.blocks_by_org_country:
            self.world.blocks_by_org_country[key] = self.world.allocator.allocate_block(
                "isp-de", "DE", is_cloud=False, prefix_len=14
            )
        spec = NodeSpec(
            index=max(s.index for s in self.world.specs) + 1,
            node_class=NodeClass.PLATFORM,
            organisation="isp-de",
            country="DE",
            blocks=(self.world.blocks_by_org_country[key],),
            behavior=self.world.profile.behaviors["platform"],
            platform="tud-monitor",
            activity_weight=0.1,
            num_addrs=1,
        )
        self.world.specs.append(spec)
        return spec

    # ------------------------------------------------------------------
    # the measurement period
    # ------------------------------------------------------------------

    @collector_paused()
    def run(self) -> CampaignResult:
        if not self._built:
            self.build()
        with self._observed(), obs.span("campaign"):
            result = self._run()
        self._export(result)
        return result

    def _export(self, result: CampaignResult) -> None:
        """Hand every sink's output to ``result`` and close the heartbeat
        with the final status."""
        config = self.config
        observer = self.observer
        if observer.metrics.enabled:
            set_gauge = observer.set_gauge
            set_gauge("campaign.workers", config.workers)
            set_gauge("campaign.num_crawls", len(result.crawls))
            set_gauge("campaign.hydra_log_entries", len(self.hydra.log))
            set_gauge("campaign.bitswap_log_entries", len(self.monitor.log))
            for name, value in self.engine.stats.items():
                set_gauge(f"workload.{name}", value)
            driver = self.engine.open_loop
            if driver is not None:
                # The session driver's stream statistics ride the same
                # namespace, so `repro obs report` shows the closed-loop
                # engine counters and the open-loop session/popularity
                # stats side by side.
                for name, value in driver.stats.items():
                    set_gauge(f"workload.{name}", value)
                for cls_name, value in driver.requests_by_class.items():
                    set_gauge(f"workload.requests_class.{cls_name.lower()}", value)
                for name, value in driver.headline_shares().items():
                    set_gauge(f"workload.{name}", value)
        result.metrics, result.trace, result.sketches = observer.collected()
        if self.control_server is not None:
            result.live_url = self.control_server.url
        self.heartbeat.beat(
            force=True, state="stopped" if result.stopped_early else "done", phase="done"
        )
        if self._progress is not None:
            self._progress.finish(
                f"campaign done: {len(result.crawls)} crawls, "
                f"{len(self.hydra.log)} hydra entries"
            )

    def _run(self) -> CampaignResult:
        config = self.config
        overlay = self.overlay
        if config.traffic_enabled:
            self.engine.seed_platform_content()
        persistent_items = self._seed_persistent_user_content(
            max(40, int(config.ens.num_names * config.ens.share_persistent_user))
        )
        ens_world = seed_ens_world(
            self.catalog,
            config.ens,
            random.Random(config.seed + 103),
            persistent_items=persistent_items,
        )

        provider_observations: List[ProviderObservation] = []
        crawl_interval = SECONDS_PER_DAY / config.crawls_per_day
        warmup = config.warmup_days
        next_crawl = warmup * SECONDS_PER_DAY
        crawl_id = 0
        total_days = warmup + config.days
        fetch_from_day = total_days - config.provider_fetch_days
        tick_seconds = SECONDS_PER_DAY / config.ticks_per_day

        # Crawls fan out over the execution engine: the sim loop freezes
        # each crawl's observable state (a cheap pure read) and the BFS
        # bucket sweeps — the expensive part — run on worker processes
        # while the simulation advances.  ``workers=1`` executes the
        # identical pure function inline, so the dataset is bit-identical
        # either way (each crawl's randomness is derived, never shared).
        crawl_engine = ParallelExecutor(workers=config.workers, retries=1)
        # Each crawl collects the campaign's sinks privately (so nothing
        # is lost on worker processes) and the outcomes are merged in
        # crawl order below — identical at any worker count.  The crawl
        # itself is this module's ``execute_crawl_task`` binding.
        observer = self.observer
        collect = partial(
            collect_crawl,
            crawl_fn=execute_crawl_task,
            metrics=observer.metrics.enabled,
            trace=observer.tracer.enabled,
            stream=observer.stream.enabled,
            trace_sample=config.trace_sample,
            trace_capacity=config.trace_buffer,
        )

        total_ticks = total_days * config.ticks_per_day
        done_ticks = 0
        stopped_early = False

        with self._phase(
            "simulate",
            day=(1, total_days),
            tick=(0, total_ticks),
            crawls=(0, config.num_crawls),
        ):
            for day in range(total_days):
                obs.inc("campaign.days")
                self.catalog.build_day_index(day)
                if config.traffic_enabled:
                    self.engine.platform_reprovide_pass()
                    self.engine.user_reprovide_pass()
                for tick in range(config.ticks_per_day):
                    obs.inc("campaign.ticks")
                    while (
                        day >= warmup
                        and overlay.now >= next_crawl
                        and crawl_id < config.num_crawls
                    ):
                        crawl_engine.submit(crawl_id, collect, self.crawler.task(crawl_id))
                        crawl_id += 1
                        next_crawl += crawl_interval
                    tick_start = overlay.now
                    if config.traffic_enabled:
                        self.engine.run_tick(tick_seconds / 3600.0)
                    if self.attack_orchestrator is not None:
                        # After the honest traffic, mirroring how real
                        # attack packets share the wire with user load.
                        self.attack_orchestrator.on_tick(tick_seconds / 3600.0)
                    if config.traffic_enabled and day >= fetch_from_day:
                        # The paper fetches each day's sampled CIDs the same
                        # day; fetching per tick keeps the same freshness.
                        # Nothing is logged at or after this tick's end yet,
                        # so the CIDs logged since its start are its window's.
                        sampled = self.monitor.sampled_cids_since(
                            tick_start, config.daily_cid_sample // config.ticks_per_day
                        )
                        with obs.span("provider-fetch"):
                            provider_observations.extend(self.fetcher.fetch_many(sampled))
                    else:
                        self.monitor.forget_before(tick_start)
                    overlay.scheduler.run_until(
                        day * SECONDS_PER_DAY + (tick + 1) * tick_seconds
                    )
                    done_ticks += 1
                    self.heartbeat.beat(
                        day=(day + 1, total_days),
                        tick=(done_ticks, total_ticks),
                        crawls=(crawl_id, config.num_crawls),
                    )
                    if self._stop_requested():
                        # Graceful early stop: finish this tick, drain the
                        # crawls already submitted, run the one-shot
                        # measurements — a normal result over the shorter
                        # horizon.
                        stopped_early = True
                        break
                if stopped_early:
                    break
        observer.stream.finalize(overlay.now)

        if self.attack_orchestrator is not None:
            self.attack_orchestrator.finish()

        with self._phase("crawl-drain"):
            crawl_results, exec_errors = crawl_engine.drain()
            crawl_engine.close()
            snapshots = []
            for i in sorted(crawl_results):
                outcome = crawl_results[i]
                observer.merge(outcome)
                snapshots.append(outcome.snapshot)
            crawl_dataset = CrawlDataset(snapshots=snapshots)

        # Provider records expire after 24 h; refresh them so the one-shot
        # entry-point measurements below resolve live content.
        self.catalog.build_day_index(total_days - 1)
        if config.traffic_enabled:
            self.engine.platform_reprovide_pass()
        self.engine.user_reprovide_pass()

        # --- one-shot entry-point measurements -----------------------------
        monitor_node = next(
            node for node in overlay.nodes if node.spec.platform == "tud-monitor"
        )
        if not monitor_node.online:
            overlay.bring_online(monitor_node)
        prober = GatewayProber(overlay, self.monitor, monitor_node)
        with self._phase("gateway-probe"):
            probe_reports = prober.run_campaign(
                self.services, config.gateway_probes_per_endpoint
            )
        scanner = ActiveScanner(self.dns_world.resolver)
        with self._phase("dns-scan"):
            dns_scan = scanner.scan(self.dns_world.scan_input)
        scraper = ENSContenthashScraper(
            ens_world.chain, [resolver.address for resolver in ens_world.resolvers]
        )
        with self._phase("ens-scrape"):
            ens_scrape = scraper.scrape()
            ens_fetcher = ProviderRecordFetcher(overlay)
            ens_observations = ens_fetcher.fetch_many(ens_scrape.cids())

        # Disk-backed logs buffer writes; make the stored state complete
        # before handing the datasets to the analyses.
        self.hydra.log.flush()
        self.monitor.log.flush()

        attack_summary = None
        attack_ground_truth = None
        detection = None
        if self.attack_orchestrator is not None:
            attack_summary = self.attack_orchestrator.summary()
            attack_ground_truth = self.attack_orchestrator.ground_truth
        if config.detect:
            from repro.detect import run_detection

            with self._phase("detect"):
                scorecard = run_detection(
                    self.hydra.log,
                    self.monitor.log,
                    ground_truth=attack_ground_truth,
                    window_seconds=config.detect_window,
                )
            detection = scorecard.to_dict()

        return CampaignResult(
            config=config,
            world=self.world,
            overlay=overlay,
            catalog=self.catalog,
            crawls=crawl_dataset,
            hydra=self.hydra,
            bitswap_monitor=self.monitor,
            provider_observations=provider_observations,
            gateway_registry=self.gateway_registry,
            gateway_probe_reports=probe_reports,
            dns_world=self.dns_world,
            dns_scan=dns_scan,
            ens_world=ens_world,
            ens_scrape=ens_scrape,
            ens_observations=ens_observations,
            gateway_peers=self._peers_of_class(NodeClass.GATEWAY),
            hydra_peers={
                node.peer
                for node in overlay.nodes
                if node.spec.platform == "hydra" and node.peer is not None
            },
            exec_errors=exec_errors,
            attack_summary=attack_summary,
            attack_ground_truth=attack_ground_truth,
            detection=detection,
            stopped_early=stopped_early,
        )

    def _seed_persistent_user_content(self, count: int):
        """Long-lived user-published items (ENS websites and the like).

        Publishers are ordinary participants — home servers, small VPSes,
        NAT-ed users — who keep the content alive through the daily
        re-provide cycle while they are online.
        """
        from repro.content.catalog import ContentItem
        from repro.ids.cid import CID

        rng = random.Random(self.config.seed + 104)
        class_weights = [
            (NodeClass.RESIDENTIAL_STABLE, 0.30),
            (NodeClass.CLOUD_STABLE, 0.25),
            (NodeClass.NAT_CLIENT, 0.35),
            (NodeClass.HYBRID, 0.10),
        ]
        pools = {
            cls: [node for node in self.overlay.nodes if node.spec.node_class is cls]
            for cls, _ in class_weights
        }
        items = []
        for _ in range(count):
            cls = rng.choices(
                [cls for cls, _ in class_weights],
                weights=[weight for _, weight in class_weights],
            )[0]
            pool = pools[cls] or self.overlay.nodes
            node = rng.choice(pool)
            item = self.catalog.add(
                ContentItem(
                    cid=CID.generate(rng),
                    publisher=node.spec.index,
                    created_day=0,
                    lifetime_days=self.config.days + 3,
                    weight=1.5,
                )
            )
            if node.online:
                self.engine.publish(node, cid=item.cid, fresh=False)
            else:
                node.provided_cids.add(item.cid)
            items.append(item)
        return items

    def _peers_of_class(self, node_class: NodeClass) -> Set[PeerID]:
        return {
            node.peer
            for node in self.overlay.nodes
            if node.spec.node_class is node_class and node.peer is not None
        }


def run_campaign(config: Optional[ScenarioConfig] = None) -> CampaignResult:
    """Build and run a campaign in one call."""
    campaign = MeasurementCampaign(config)
    campaign.build()
    try:
        return campaign.run()
    finally:
        campaign.close_live()
