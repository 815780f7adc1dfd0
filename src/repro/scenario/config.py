"""Campaign configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.attack.config import AttackConfig
from repro.workload.engine import WorkloadConfig
from repro.dns.seeding import DNSLinkSeedConfig
from repro.ens.seeding import ENSSeedConfig
from repro.world.profiles import WorldProfile


@dataclass
class ScenarioConfig:
    """Everything a :class:`~repro.scenario.run.MeasurementCampaign` needs.

    The default is laptop-scale (seconds to minutes); ``paper_scale()``
    reproduces the paper's dimensions (≈25.8 k online servers, 38 days,
    101 crawls, 200 k daily CID samples) at a correspondingly heavy cost.
    All reported quantities are shares and are approximately
    scale-invariant, which is what the benches check.
    """

    profile: WorldProfile = field(default_factory=WorldProfile)
    days: int = 8
    #: days of churn+traffic before measurements start (lets ghost
    #: entries, caches and provider records reach steady state).
    warmup_days: int = 1
    crawls_per_day: float = 2.66
    ticks_per_day: int = 4
    #: daily Bitswap-derived CID sample fed to the provider fetcher.
    daily_cid_sample: int = 400
    #: how many trailing days run the provider-record collection.
    provider_fetch_days: int = 6
    hydra_heads: int = 20
    gateway_probes_per_endpoint: int = 60
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    #: request-generation model (see :mod:`repro.workload.spec`):
    #: ``"closed"`` keeps the legacy per-node Poisson workload (the
    #: golden default — no extra RNG draws, bit-identical campaigns);
    #: ``"zipf:users=1e6,..."`` attaches the open-loop session driver.
    workload_spec: str = "closed"
    dns: DNSLinkSeedConfig = field(default_factory=DNSLinkSeedConfig)
    ens: ENSSeedConfig = field(default_factory=ENSSeedConfig)
    #: disable the content workload for crawl-only campaigns (the cheap
    #: way to run the paper's full 38-day / 101-crawl temporal design).
    traffic_enabled: bool = True
    #: storage spec for the monitor logs (see :mod:`repro.store`):
    #: ``memory`` (default), or e.g. ``sqlite:out/run1`` / ``jsonl:out/run1``
    #: / ``sharded:4:sqlite:out/run1`` to spill logs to disk, with the
    #: path used as a directory holding one log file per monitor.
    storage: str = "memory"
    #: worker processes for the crawl phase (see :mod:`repro.exec`).
    #: ``1`` runs everything inline; any value produces bit-identical
    #: datasets because every crawl derives its own seed.  Disk-backed
    #: monitor logs are automatically sharded ``workers`` ways (merged
    #: back through the order-preserving ShardedBackend heap-merge).
    workers: int = 1
    #: collect observability metrics (see :mod:`repro.obs`) during the
    #: campaign; the snapshot lands in ``CampaignResult.metrics``.  Off by
    #: default: the disabled path is a no-op null registry and campaign
    #: outputs are bit-identical either way.
    metrics: bool = False
    #: collect causal event traces (see :mod:`repro.obs.trace`): one
    #: tracer in the campaign process plus one per crawl task, merged in
    #: crawl order into ``CampaignResult.trace``.  Off by default — the
    #: disabled path is a no-op null tracer and campaign outputs are
    #: bit-identical either way.
    trace: bool = False
    #: keep ~1 causal tree in N (deterministically, by hashing the tree
    #: index through :func:`repro.exec.seeds.derive_seed`); ``1`` keeps
    #: everything.
    trace_sample: int = 1
    #: per-tracer ring-buffer capacity in events; when full, the oldest
    #: events are evicted (and counted, so ``repro obs audit`` knows the
    #: stream is incomplete).
    trace_buffer: int = 65536
    #: optional path the merged trace records are written to at the end
    #: of the run (``.trace``/``.jsonl`` → JSONL, ``.sqlite`` → SQLite);
    #: the path lands in ``CampaignResult.trace_path``.  Implies ``trace``.
    trace_out: Optional[str] = None
    #: render a live single-line progress heartbeat to stderr (wall-clock
    #: throttled; never feeds back into the simulation).
    progress: bool = False
    #: maintain streaming analytics sketches (see :mod:`repro.obs.stream`)
    #: over the monitor event stream: heavy-hitter peers/IPs/CIDs,
    #: quantile sketches, windowed class shares and live headline
    #: estimates.  Off by default — the disabled path is a no-op null
    #: stream and campaign outputs are bit-identical either way; with
    #: streaming on the sketch snapshot lands in
    #: ``CampaignResult.sketches``.
    stream: bool = False
    #: sketch window length in seconds (defaults to one campaign tick at
    #: 4 ticks/day, matching ``detect_window``).
    stream_window: float = 21_600.0
    #: optional path the final sketch snapshot JSON is written to; the
    #: path lands in ``CampaignResult.sketches_path``.  Implies
    #: ``stream``.
    sketches_out: Optional[str] = None
    #: optional ``host:port`` to serve the live control plane on (see
    #: :mod:`repro.obs.serve`): ``/status``, ``/metrics``, ``/sketches``,
    #: ``/stop`` and a single-page dashboard.  ``"127.0.0.1:0"`` picks a
    #: free port; the bound URL lands in ``CampaignResult.live_url``.
    #: Implies ``stream``.
    live: Optional[str] = None
    #: adversarial scenarios to inject (see :mod:`repro.attack`).  Empty
    #: by default: with no attacks the campaign allocates no attack
    #: store, draws no attack randomness and stays bit-identical to the
    #: golden figures.
    attacks: Tuple[AttackConfig, ...] = ()
    #: run the packaged detectors (:mod:`repro.detect`) over the monitor
    #: logs at the end of the campaign and score them against the attack
    #: ground truth into ``CampaignResult.detection``.
    detect: bool = False
    #: detection feature-window length in seconds (defaults to one
    #: campaign tick at 4 ticks/day, matching the engine's traffic
    #: timestamp quantization).
    detect_window: float = 21_600.0
    seed: int = 2023

    @property
    def num_crawls(self) -> int:
        return max(1, round(self.days * self.crawls_per_day))

    @property
    def stream_enabled(self) -> bool:
        """Streaming analytics are on (directly or implied by an output)."""
        return self.stream or self.sketches_out is not None or self.live is not None

    def scaled(self, online_servers: int) -> "ScenarioConfig":
        return replace(self, profile=self.profile.scaled(online_servers))

    @classmethod
    def smoke(cls) -> "ScenarioConfig":
        """A tiny configuration for fast tests."""
        return cls(
            profile=WorldProfile(online_servers=400),
            days=3,
            daily_cid_sample=120,
            provider_fetch_days=2,
            gateway_probes_per_endpoint=8,
            dns=DNSLinkSeedConfig(background_domains=800, dnslink_domains=120),
            ens=ENSSeedConfig(num_names=150),
        )

    @classmethod
    def bench(cls) -> "ScenarioConfig":
        """The bench-scale campaign (1,500 servers, 6 days) the paper
        fidelity table is held to (see :mod:`repro.scenario.fidelity`)."""
        return cls(
            profile=WorldProfile(online_servers=1500),
            days=6,
            daily_cid_sample=300,
            provider_fetch_days=5,
        )

    @classmethod
    def paper_horizon(cls, online_servers: int = 700) -> "ScenarioConfig":
        """The paper's *temporal* design — 38 days, 101 crawls — at a
        reduced network size.  Crawl-only (no traffic), so the
        G-IP-vs-A-N divergence (Figs. 3-6) is measured over the same
        number of aggregated crawls as the paper's dataset."""
        return cls(
            profile=WorldProfile(online_servers=online_servers),
            days=38,
            crawls_per_day=101 / 38,
            traffic_enabled=False,
            daily_cid_sample=0,
            provider_fetch_days=0,
            gateway_probes_per_endpoint=4,
        )

    @classmethod
    def paper_scale(cls) -> "ScenarioConfig":
        """The paper's dimensions.  Heavy: hours of CPU, gigabytes of RAM."""
        return cls(
            profile=WorldProfile.paper_scale(),
            days=38,
            daily_cid_sample=200_000,
            provider_fetch_days=28,
            ens=ENSSeedConfig(num_names=20_600),
        )
