"""Workloads, timed campaigns, correctness checks and the output digest.

A *campaign* here is exactly what a user runs to get the paper's figures:
``MeasurementCampaign.build()``, ``.run()`` and
``scenario.report.full_report(result, resilience_reps=1)``, with one
worker and the default ``engine="auto"`` (the vectorized tick engine when
numpy is present).  :func:`run_campaign_once` times the three phases and
returns them with the checks and a digest of every output, so a caller
can tell a fast run from a wrong one.

:func:`measure` runs one workload on the few worlds derived from a seed.
Every phase is timed twice: in wall seconds, and in reference-host
seconds by :func:`host_timed`, which samples the host's speed every
20 ms while the phase runs.  Reported times are reference-host seconds,
the mean over the worlds of each world's median.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import random
import resource
import shutil
import signal
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import fmean, median
from typing import Callable, Dict, List, Optional, Tuple

import layers
from repro.exec.seeds import derive_seed
from repro.scenario import report
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import CampaignResult, MeasurementCampaign
from repro.world.profiles import PAPER, WorldProfile

#: Tolerance on the A-N cloud share against the paper's 79.6 % (the one
#: ``benchmarks/bench_fig03_cloud_status.py`` asserts at bench scale).
CLOUD_SHARE_TOLERANCE = 0.08


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a campaign shape at a fixed size."""

    name: str
    why: str
    servers: int
    #: builds the campaign config from (seed, servers, storage spec).
    shape: Callable[[int, int, str], ScenarioConfig]
    #: needs a scratch directory for disk-backed monitor logs.
    on_disk: bool = False

    def config(
        self, seed: int, store_dir: Optional[str] = None, servers: Optional[int] = None
    ) -> ScenarioConfig:
        """The campaign config for ``seed``; ``servers`` overrides the size
        (the self-test runs 150-server copies of every shape)."""
        if self.on_disk and store_dir is None:
            raise ValueError(f"workload {self.name} needs a store directory")
        storage = f"sqlite:{store_dir}" if self.on_disk else "memory"
        return self.shape(seed, servers or self.servers, storage)


def _profile(seed: int, servers: int) -> WorldProfile:
    return WorldProfile(online_servers=servers, seed=seed)


def _traffic(seed: int, servers: int, storage: str) -> ScenarioConfig:
    return ScenarioConfig(
        profile=_profile(seed, servers), warmup_days=0, days=1, seed=seed, storage=storage
    )


def _horizon(seed: int, servers: int, storage: str) -> ScenarioConfig:
    # The paper's crawl cadence (101 crawls in 38 days) over 7 days.
    base = ScenarioConfig.paper_horizon(servers)
    return replace(base, profile=_profile(seed, servers), days=7, seed=seed, storage=storage)


def _openloop(seed: int, servers: int, storage: str) -> ScenarioConfig:
    # Two Hydra heads capture a tenth of the default log volume, which
    # keeps the re-scanned SQLite logs within the run budget.
    return ScenarioConfig(
        profile=_profile(seed, servers),
        warmup_days=0,
        days=1,
        hydra_heads=2,
        seed=seed,
        storage=storage,
        workload_spec="zipf:users=2e3",
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "traffic-600",
            "the largest network, one busy day of closed-loop traffic into memory "
            "logs: bootstrap, ticks, re-provides, Hydra capture and Fig. 8/13",
            servers=600,
            shape=_traffic,
        ),
        Workload(
            "horizon-150",
            "the paper's crawl cadence over 7 days with traffic off: crawler, churn, "
            "Fig. 8 and Fig. 4 counting dominate; the workload layer is bypassed",
            servers=150,
            shape=_horizon,
        ),
        Workload(
            "openloop-sqlite",
            "open-loop sessions into SQLite logs: the store layer writes during "
            "the campaign and every figure re-scans it from disk",
            servers=300,
            shape=_openloop,
            on_disk=True,
        ),
    )
}


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


#: Iterations of :func:`_host_kernel` per host sample.
KERNEL_ITEMS = 600
#: Seconds of one :func:`_host_kernel` sample on the 2-core 2.1 GHz x86
#: host the benchmark was defined on, in its fast stretches: what
#: "1.0x speed" means.
REFERENCE_KERNEL_S = 0.00058
#: Wall seconds between two host samples while a phase runs.
SAMPLE_PERIOD_S = 0.02


def _host_kernel() -> Tuple[float, float]:
    """Start and seconds of a fixed pure-Python mix of the simulator's
    common operations: small objects, tuple-keyed dicts, a heap, random
    draws and a keyed sort.  It touches no repro code and no global
    random state, and runs with the cyclic collector off, so only the
    host moves it."""
    rng = random.Random(0)
    heap: List[Tuple[float, int]] = []
    table: Dict[Tuple[int, int], _Item] = {}
    items: List[_Item] = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(KERNEL_ITEMS):
            key = rng.getrandbits(32)
            item = _Item(key, i)
            items.append(item)
            table[(key & 1023, i & 7)] = item
            heapq.heappush(heap, (rng.random(), i))
            if len(heap) > 256:
                heapq.heappop(heap)
        items.sort(key=lambda item: item.key)
        sum(item.value for item in table.values())
        return start, time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


@dataclass
class PhaseTime:
    """One phase of a campaign, timed by :func:`host_timed`."""

    wall_s: float
    #: reference-host seconds (see :func:`host_timed`).
    ref_s: float


def host_timed(fn: Callable[[], object]) -> Tuple[object, PhaseTime]:
    """Call ``fn()`` and time it in wall and reference-host seconds.

    Other tenants of a shared machine halve its speed for a second or
    two at a time, while ``process_time / wall`` stays at 0.98.  So a
    timer signal interrupts ``fn`` every :data:`SAMPLE_PERIOD_S` to time
    :func:`_host_kernel`, and each stretch of ``fn`` between two samples
    counts its wall time divided by the slowdown the samples at its ends
    measured (their mean).  The samples' own time is left out of the
    reference-host seconds and kept in the wall seconds.
    """
    samples = [_host_kernel()]
    previous = signal.signal(
        signal.SIGALRM, lambda signum, frame: samples.append(_host_kernel())
    )
    # Restart interrupted system calls (SQLite's, for one) instead of
    # failing them with EINTR.
    signal.siginterrupt(signal.SIGALRM, False)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    samples.append(_host_kernel())
    ref_s = 0.0
    for (start0, kernel0), (start1, kernel1) in zip(samples, samples[1:]):
        stretch = min(start1, end) - max(start0 + kernel0, start)
        if stretch > 0:
            ref_s += stretch * 2 * REFERENCE_KERNEL_S / (kernel0 + kernel1)
    return result, PhaseTime(end - start, ref_s)


@dataclass
class CampaignRun:
    """Timings, checks and digest of one campaign."""

    seed: int
    #: "setup", "campaign" and "analysis", in that order.
    phases: Dict[str, PhaseTime]
    crawls: int
    exec_errors: int
    failed_checks: List[str]
    digest: str

    @property
    def total_s(self) -> float:
        """Reference-host seconds of the three phases."""
        return sum(phase.ref_s for phase in self.phases.values())

    @property
    def wall_s(self) -> float:
        return sum(phase.wall_s for phase in self.phases.values())

    @property
    def slowdown(self) -> float:
        """Wall seconds per reference-host second, host samples included."""
        return self.wall_s / self.total_s

    @property
    def crawl_fail_ratio(self) -> float:
        return self.exec_errors / max(self.crawls + self.exec_errors, 1)


def run_campaign_once(config: ScenarioConfig, phase=None) -> CampaignRun:
    """Build, run and analyse one campaign; time each phase.

    ``phase(name)`` may return a context manager entered around each
    timed phase (the traced run marks its root spans with it).  The
    checks and the digest are computed after the timed phases.
    """
    phase = phase or (lambda name: nullcontext())
    campaign = MeasurementCampaign(config)

    def timed(name: str, fn: Callable[[], object]) -> Tuple[object, PhaseTime]:
        with phase(f"campaign.{name}"):
            return host_timed(fn)

    _, setup = timed("setup", campaign.build)
    result, ran = timed("run", campaign.run)
    figures, analysis = timed(
        "analysis", lambda: report.full_report(result, resilience_reps=1)
    )
    try:
        return CampaignRun(
            seed=config.seed,
            phases={"setup": setup, "campaign": ran, "analysis": analysis},
            crawls=len(result.crawls),
            exec_errors=len(result.exec_errors),
            failed_checks=failed_checks(result, figures),
            digest=output_digest(result, figures),
        )
    finally:
        campaign.close_live()
        result.hydra.log.close()
        result.bitswap_monitor.log.close()


def failed_checks(result: CampaignResult, figures: Dict[str, object]) -> List[str]:
    """Names of the correctness checks this campaign fails (empty: all pass)."""
    failed = []
    if result.exec_errors:
        failed.append(f"exec_errors: {len(result.exec_errors)} crawl task(s) failed")
    cloud = figures["fig3"]["A-N"].get("cloud", 0.0)
    if abs(cloud - PAPER.an_cloud_share) >= CLOUD_SHARE_TOLERANCE:
        failed.append(
            f"an_cloud_share: {cloud:.3f} is not within {CLOUD_SHARE_TOLERANCE} "
            f"of the paper's {PAPER.an_cloud_share}"
        )
    if result.config.traffic_enabled:
        for name, size in (
            ("hydra_log", len(result.hydra.log)),
            ("bitswap_log", len(result.bitswap_monitor.log)),
            ("provider_observations", len(result.provider_observations)),
        ):
            if size == 0:
                failed.append(f"{name}: empty on a traffic workload")
    return failed


def output_digest(result: CampaignResult, figures: Dict[str, object]) -> str:
    """SHA-256 over the crawls, both monitor logs and every figure.

    The crawl part is the fingerprint CI's serial-vs-parallel parity job
    compares; the logs and figures are hashed through their dataclass
    reprs and sorted JSON, which carry no object addresses, so the digest
    is comparable across processes.
    """
    digest = hashlib.sha256()
    for snapshot in result.crawls.snapshots:
        fingerprint = (
            snapshot.crawl_id,
            snapshot.started_at,
            snapshot.requests_sent,
            [(o.peer, o.ips, o.crawlable) for o in snapshot.observations.values()],
            snapshot.edges,
        )
        digest.update(repr(fingerprint).encode())
    for log in (result.hydra.log, result.bitswap_monitor.log):
        digest.update(f"log:{len(log)}".encode())
        # Disk logs are hashed as stored: decoding them would cost one
        # more full scan of the store per campaign.
        for record in log if log.backend.stores_objects else log.backend.scan():
            digest.update(repr(record).encode())
    digest.update(json.dumps(figures, sort_keys=True, default=str).encode())
    return digest.hexdigest()


#: End-to-end metrics and their units.  Crawl failures and failed checks
#: are never reported as metrics (they must be 0); they make a run
#: incorrect instead.
END_TO_END_UNITS = {
    "setup_s": "s",
    "campaign_s": "s",
    "analysis_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}


#: Worlds per run.  Two seeds differ in cost by up to a tenth (other
#: populations, other traffic draws), so every run measures the same few
#: worlds derived from its seed.
WORLDS = 3


def world_seeds(seed: int) -> List[int]:
    """The run's world seeds: ``seed`` itself, then derived ones."""
    return [seed] + [derive_seed(seed, "campaign-benchmark", i) for i in range(1, WORLDS)]


@dataclass
class Measurement:
    """Every campaign one benchmark run made, untraced and traced."""

    workload: str
    seed: int
    untraced: List[CampaignRun]
    #: (campaign, its recorder) pairs of a traced run.
    traced: List[Tuple[CampaignRun, layers.Recorder]]
    cpu_over_wall: float
    peak_rss_mb: float

    @property
    def campaigns(self) -> List[CampaignRun]:
        return self.untraced + [run for run, _ in self.traced]

    @property
    def world_digests(self) -> Dict[int, List[str]]:
        """Distinct output digests per world seed (one each when correct)."""
        digests: Dict[int, List[str]] = {}
        for run in self.campaigns:
            seen = digests.setdefault(run.seed, [])
            if run.digest not in seen:
                seen.append(run.digest)
        return digests

    @property
    def deterministic(self) -> bool:
        return all(len(seen) == 1 for seen in self.world_digests.values())

    @property
    def output_digest(self) -> str:
        """SHA-256 over the worlds' digests, in world order."""
        digests = self.world_digests
        joined = " ".join(digests[seed][0] for seed in world_seeds(self.seed))
        return hashlib.sha256(joined.encode()).hexdigest()

    @property
    def failed(self) -> int:
        return sum(1 for run in self.campaigns if run.failed_checks)

    @property
    def checks_failed(self) -> int:
        return sum(len(run.failed_checks) for run in self.campaigns)

    @property
    def crawl_fail_ratio(self) -> float:
        return max(run.crawl_fail_ratio for run in self.campaigns)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.deterministic

    @property
    def slowdown(self) -> float:
        return median(run.slowdown for run in self.campaigns)

    def end_to_end(self, wall: bool = False) -> Dict[str, float]:
        """Untraced times in reference-host seconds (``wall``: in wall
        seconds as measured), each the mean over the worlds of the
        world's median campaign."""
        by_world: Dict[int, List[Dict[str, float]]] = {}
        for run in self.untraced:
            times = {
                f"{name}_s": phase.wall_s if wall else phase.ref_s
                for name, phase in run.phases.items()
            }
            times["total_s"] = sum(times.values())
            by_world.setdefault(run.seed, []).append(times)
        e2e = {
            name: fmean(median(times[name] for times in runs) for runs in by_world.values())
            for name in ("setup_s", "campaign_s", "analysis_s", "total_s")
        }
        e2e["peak_rss_mb"] = self.peak_rss_mb
        return e2e

    def per_layer(self) -> Dict[str, float]:
        """Medians over the traced campaigns, times in reference-host
        seconds (each campaign's wall times over its slowdown)."""
        per_run = [
            {
                name: value / run.slowdown if layers.unit(name) in ("s", "us") else value
                for name, value in layers.layer_metrics(rec, run.exec_errors).items()
            }
            for run, rec in self.traced
        ]
        metrics = {name: median(m[name] for m in per_run) for name in per_run[0]}
        # Every world ran both ways, back to back: the same campaign with
        # and without the wrappers.
        metrics["trace.overhead"] = median(
            traced.total_s / plain.total_s
            for (traced, _), plain in zip(self.traced, self.untraced)
        )
        metrics["host.cpu_over_wall"] = self.cpu_over_wall
        metrics["host.slowdown"] = self.slowdown
        return metrics

    def result(self, trace: bool) -> Dict[str, object]:
        """The run's last output line: correctness, work done and metrics
        (end-to-end untraced, per-layer traced)."""
        if trace:
            metrics = {
                name: (value, layers.unit(name))
                for name, value in self.per_layer().items()
                if name not in layers.UNREPORTED
            }
        else:
            e2e = self.end_to_end()
            metrics = {name: (e2e[name], unit) for name, unit in END_TO_END_UNITS.items()}
        return {
            "correct": self.correct,
            "attempted": len(self.campaigns),
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    scratch: Path,
    servers: Optional[int] = None,
) -> Measurement:
    """Run campaigns of ``workload`` on the worlds of ``seed``.

    Untraced, campaigns cycle through the worlds for about ``seconds``
    of wall time: one starts while the longest so far still fits in the
    budget, and every world runs at least once.  Traced, every world runs
    untraced and then traced, back to back, whatever the budget, so
    overhead and digests compare like with like.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    configs = [
        workload.config(world, store_dir=store_dir, servers=servers)
        for world in world_seeds(seed)
    ]
    untraced: List[CampaignRun] = []
    traced: List[Tuple[CampaignRun, layers.Recorder]] = []
    wall_start = time.perf_counter()
    cpu_start = time.process_time()

    def campaign(config: ScenarioConfig, recorder: Optional[layers.Recorder] = None):
        if recorder is None:
            run = run_campaign_once(config)
        else:
            with layers.install(recorder):
                run = run_campaign_once(config, recorder.phase)
        gc.collect()
        return run

    try:
        if trace:
            for config in configs:
                untraced.append(campaign(config))
                recorder = layers.Recorder()
                traced.append((campaign(config, recorder), recorder))
        else:
            longest = 0.0
            while True:
                start = time.perf_counter()
                untraced.append(campaign(configs[len(untraced) % WORLDS]))
                now = time.perf_counter()
                longest = max(longest, now - start)
                if len(untraced) >= WORLDS and now - wall_start + longest > seconds:
                    break
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    wall = time.perf_counter() - wall_start
    return Measurement(
        workload=workload.name,
        seed=seed,
        untraced=untraced,
        traced=traced,
        cpu_over_wall=(time.process_time() - cpu_start) / wall,
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
