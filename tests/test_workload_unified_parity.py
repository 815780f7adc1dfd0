"""One code path per workload job, checked against the two it replaced.

The oracle below is the earlier implementation, in which every workload
job was written twice: a closed-loop ``run_tick`` beside an open-loop
``_run_background_tick``, the engine's ``_log_dht`` beside the attack
orchestrator's ``log_walk``, the honest ``_hydra_amplification`` beside
the attack ``induced_amplification``, and the session driver's arrival
step and drain beside their copy in ``sample_workload``.  A closed-loop,
an open-loop and an all-attacks campaign run on the oracle and on the
live code must leave the same Hydra and Bitswap logs, provider registry,
attack ground truth and summary, and the same engine, session-driver and
attack RNG states at every day boundary; ``sample_workload`` must return
the same output for both session modes with the diurnal curve on and off.

The orchestrator no longer keeps its own Hydra handle, so the vendored
``log_walk`` reads the engine's (the campaign hands both the same one).
"""

from __future__ import annotations

import heapq

import pytest

from repro.attack.orchestrator import AttackOrchestrator
from repro.kademlia.messages import MessageType
from repro.netsim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.netsim.sampling import poisson
from repro.obs import observer as obs
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import MeasurementCampaign
from repro.workload.diurnal import diurnal_factor
from repro.workload.engine import TrafficEngine
from repro.workload.openloop import OpenLoopDriver, sample_workload
from repro.workload.spec import parse_workload_spec
from repro.world.ipspace import format_ip
from repro.world.population import NodeClass
from repro.world.profiles import WorldProfile

_PUBLISH = 0


# ---------------------------------------------------------------------------
# oracle: the earlier duplicated paths
# ---------------------------------------------------------------------------


def oracle_run_tick(self, hours):
    if self.open_loop is not None:
        self.open_loop.run_tick(self, hours)
        self._run_background_tick(hours)
        return
    config = self.config
    online = list(self.overlay.online_by_peer.values())
    gateway_scale = max(len(self.overlay.oracle), 1) / 2500.0
    for node in online:
        weight = node.spec.activity_weight
        platform = node.spec.platform or ""
        if platform in config.indexer_rates:
            fleet = self._indexer_fleet_sizes.get(platform, 1)
            rate = config.indexer_rates[platform] / fleet * gateway_scale * hours
        else:
            rate = config.request_rates[node.node_class] * weight * hours
            if node.node_class is NodeClass.GATEWAY:
                rate *= gateway_scale * config.gateway_rate_multipliers.get(platform, 1.0)
        for _ in range(poisson(rate, self.rng)):
            self.download(node)
        rate = config.publish_rates[node.node_class] * weight * hours
        for _ in range(poisson(rate, self.rng)):
            self.publish(node)
    servers = [node for node in online if node.is_dht_server]
    if servers:
        walks = poisson(config.other_rate * len(servers) * hours, self.rng)
        for _ in range(walks):
            self.other_walk(self.rng.choice(servers))


def oracle_run_background_tick(self, hours):
    config = self.config
    online = list(self.overlay.online_by_peer.values())
    gateway_scale = max(len(self.overlay.oracle), 1) / 2500.0
    for node in online:
        platform = node.spec.platform or ""
        if platform in config.indexer_rates:
            fleet = self._indexer_fleet_sizes.get(platform, 1)
            rate = config.indexer_rates[platform] / fleet * gateway_scale * hours
            for _ in range(poisson(rate, self.rng)):
                self.download(node)
    servers = [node for node in online if node.is_dht_server]
    if servers:
        walks = poisson(config.other_rate * len(servers) * hours, self.rng)
        for _ in range(walks):
            self.other_walk(self.rng.choice(servers))


def oracle_log_dht(self, node, message_type, cid, walk_messages, via_relay=None):
    rng = self.rng
    captured = self.hydra.capture_count(walk_messages, len(self.overlay.oracle) or 1, rng)
    sender = node.peer
    if captured <= 0 or sender is None or not node.ips:
        return
    now = self.overlay.now
    ip_strs = node.ip_strs()
    for _ in range(captured):
        self.hydra.record(now, sender, rng.choice(ip_strs), message_type, cid, None, via_relay)


def oracle_hydra_amplification(self, cid):
    config = self.config
    if not self._pl_hydra_nodes:
        return
    if self.rng.random() >= config.hydra_fleet_visibility:
        return
    now = self.overlay.now
    last = self._amp_cache.get(cid)
    if last is not None and now - last < config.hydra_cache_ttl:
        return
    self._amp_cache[cid] = now
    walks = int(config.hydra_amplification_walks)
    if self.rng.random() < config.hydra_amplification_walks - walks:
        walks += 1
    for _ in range(walks):
        hydra_node = self.rng.choice(self._pl_hydra_nodes)
        if hydra_node.online:
            self.stats["amplified_walks"] += 1
            self._log_dht(
                hydra_node, MessageType.GET_PROVIDERS, cid, config.download_walk_contacts
            )


def oracle_induced_amplification(self, cid, rng):
    config = self.config
    if not self._pl_hydra_nodes:
        return []
    now = self.overlay.now
    last = self._amp_cache.get(cid)
    if last is not None and now - last < config.hydra_cache_ttl:
        return []
    self._amp_cache[cid] = now
    walks = int(config.hydra_amplification_walks)
    if rng.random() < config.hydra_amplification_walks - walks:
        walks += 1
    launched = []
    for _ in range(walks):
        hydra_node = rng.choice(self._pl_hydra_nodes)
        if hydra_node.online:
            self.stats["amplified_walks"] += 1
            launched.append(hydra_node)
    return launched


def oracle_log_walk(self, node, message_type, contacts, rng, cid=None, target_key=None):
    hydra = self.engine.hydra
    captured = hydra.capture_count(contacts, max(len(self.overlay.oracle), 1), rng)
    if captured <= 0 or node.peer is None or not node.ips:
        return
    now = self.overlay.now
    for _ in range(captured):
        sender_ip = format_ip(rng.choice(node.ips))
        hydra.record(
            timestamp=now,
            sender=node.peer,
            sender_ip=sender_ip,
            message_type=message_type,
            target_cid=cid,
            target_key=target_key,
        )
    obs.inc("attack.walks_logged", captured)


def oracle_driver_run_tick(self, engine, hours):
    spec = self.spec
    day = engine.overlay_clock_day
    if day != self._pop_day:
        self._rebuild_popularity(engine.catalog, day)
    now = engine.overlay.now
    t_end = now + hours * SECONDS_PER_HOUR
    while self._session_ends and self._session_ends[0] <= now:
        heapq.heappop(self._session_ends)
    factor = 1.0
    if spec.diurnal:
        hour_of_day = (now % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        factor = diurnal_factor(hour_of_day, spec.diurnal_amplitude, spec.peak_hour)
    lam = spec.users * spec.arrivals_per_user_hour * hours * factor
    count = poisson(lam, self.rng)
    self.stats["arrivals"] += count
    if count:
        pools = self._class_pools(engine)
        sessions = self._draw_sessions(count, pools, now, hours)
        self._schedule(sessions)
    self.stats["active_sessions"] = len(self._session_ends)
    self._drain_due(engine, t_end)


def oracle_drain_due(self, engine, t_end):
    pending = self._pending
    nodes = engine.overlay.nodes
    while pending and pending[0][0] <= t_end:
        _, _, kind, node_index, cls_name, item = heapq.heappop(pending)
        node = nodes[node_index]
        if not node.online:
            self.stats["requests_dropped_offline"] += 1
            continue
        if kind == _PUBLISH:
            engine.publish(node)
            self.stats["open_publishes"] += 1
            continue
        engine.open_download(node, item)
        self.stats["open_requests"] += 1
        self._count_request(cls_name, item)


def oracle_sample_workload(spec, seed=2023, hours=24, catalog_size=4000, pool_size=64):
    from repro.content.catalog import ContentCatalog
    from repro.exec.seeds import derive_rng

    driver = OpenLoopDriver(spec, seed)
    catalog = ContentCatalog(rng=derive_rng(seed, "workload", "synthetic"))
    catalog.mint_platform_set("sample-platform", max(1, catalog_size // 2))
    for position in range(max(1, catalog_size - catalog_size // 2)):
        catalog.mint_user_item(0, position)
    driver._rebuild_popularity(catalog, 0)
    pools = {cls: list(range(pool_size)) for cls in driver._mix_classes}
    per_hour = []
    for hour in range(int(hours)):
        now = hour * SECONDS_PER_HOUR
        t_end = now + SECONDS_PER_HOUR
        while driver._session_ends and driver._session_ends[0] <= now:
            heapq.heappop(driver._session_ends)
        factor = 1.0
        if spec.diurnal:
            hour_of_day = (now % SECONDS_PER_DAY) / SECONDS_PER_HOUR
            factor = diurnal_factor(hour_of_day, spec.diurnal_amplitude, spec.peak_hour)
        count = poisson(spec.users * spec.arrivals_per_user_hour * factor, driver.rng)
        driver.stats["arrivals"] += count
        if count:
            sessions = driver._draw_sessions(count, pools, now, 1.0)
            driver._schedule(sessions)
        driver.stats["active_sessions"] = len(driver._session_ends)
        executed = 0
        pending = driver._pending
        while pending and pending[0][0] <= t_end:
            _, _, kind, _, cls_name, item = heapq.heappop(pending)
            if kind == _PUBLISH:
                driver.stats["open_publishes"] += 1
                continue
            driver.stats["open_requests"] += 1
            driver._count_request(cls_name, item)
            executed += 1
        per_hour.append(executed)
    return {
        "hours": int(hours),
        "stats": dict(driver.stats),
        "requests_by_class": dict(driver.requests_by_class),
        "requests_per_hour": per_hour,
        "headline_shares": driver.headline_shares(),
        "distinct_cids": len(driver.cid_requests),
    }


def install_oracle(patch: pytest.MonkeyPatch) -> None:
    patch.setattr(TrafficEngine, "run_tick", oracle_run_tick)
    patch.setattr(TrafficEngine, "_run_background_tick", oracle_run_background_tick, raising=False)
    patch.setattr(TrafficEngine, "_log_dht", oracle_log_dht)
    patch.setattr(TrafficEngine, "_hydra_amplification", oracle_hydra_amplification)
    patch.setattr(TrafficEngine, "induced_amplification", oracle_induced_amplification)
    patch.setattr(AttackOrchestrator, "log_walk", oracle_log_walk)
    patch.setattr(OpenLoopDriver, "run_tick", oracle_driver_run_tick)
    patch.setattr(OpenLoopDriver, "_drain_due", oracle_drain_due)


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def workload_config(workload_spec: str, seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        profile=WorldProfile(online_servers=150, seed=seed),
        warmup_days=1,
        days=1,
        seed=seed,
        workload_spec=workload_spec,
    )


def rng_states(campaign):
    driver = campaign.engine.open_loop
    orchestrator = getattr(campaign, "attack_orchestrator", None)
    runtimes = orchestrator.runtimes if orchestrator is not None else []
    return (
        campaign.engine.rng.getstate(),
        driver.rng.getstate() if driver is not None else None,
        [runtime.rng.getstate() for runtime in runtimes],
    )


def run_fingerprint(config: ScenarioConfig) -> dict:
    campaign = MeasurementCampaign(config)
    campaign.build()
    boundaries = []
    build_day_index = campaign.catalog.build_day_index

    def at_day_boundary(day):
        boundaries.append((day, rng_states(campaign)))
        return build_day_index(day)

    campaign.catalog.build_day_index = at_day_boundary
    result = campaign.run()
    registry = result.overlay.providers
    driver = campaign.engine.open_loop
    return {
        "hydra": list(result.hydra.log),
        "bitswap": list(result.bitswap_monitor.log),
        "records": [(cid, list(by.items())) for cid, by in registry._records.items()],
        "oldest": list(registry._oldest.items()),
        "ground_truth": (
            list(result.attack_ground_truth) if result.attack_ground_truth is not None else None
        ),
        "attack_summary": result.attack_summary,
        "engine_stats": dict(campaign.engine.stats),
        "driver_stats": dict(driver.stats) if driver is not None else None,
        "rng": boundaries + [("end", rng_states(campaign))],
    }


CAMPAIGNS = ("closed-150", "zipf-150", "attacks-250")


@pytest.fixture(scope="module", params=CAMPAIGNS)
def live_and_oracle(request, attack_config_factory):
    if request.param == "closed-150":
        config = workload_config("closed", 41)
    elif request.param == "zipf-150":
        config = workload_config("zipf:users=2e3", 42)
    else:
        config = attack_config_factory()
    live = run_fingerprint(config)
    with pytest.MonkeyPatch.context() as patch:
        install_oracle(patch)
        oracle = run_fingerprint(config)
    return request.param, live, oracle


class TestCampaignParity:
    def test_hydra_log_identical(self, live_and_oracle):
        _, live, oracle = live_and_oracle
        assert live["hydra"], "no Hydra traffic to compare"
        assert live["hydra"] == oracle["hydra"]

    def test_bitswap_log_identical(self, live_and_oracle):
        _, live, oracle = live_and_oracle
        assert live["bitswap"] == oracle["bitswap"]

    def test_provider_registry_identical(self, live_and_oracle):
        _, live, oracle = live_and_oracle
        assert live["records"], "no provider records to compare"
        assert live["records"] == oracle["records"]
        assert live["oldest"] == oracle["oldest"]

    def test_attack_ground_truth_and_summary_identical(self, live_and_oracle):
        name, live, oracle = live_and_oracle
        if name == "attacks-250":
            assert live["ground_truth"], "no ground truth to compare"
            amplification = live["attack_summary"]["hydra-amplification"]
            assert amplification["induced_walks"] > 0, "no induced fleet walks"
        assert live["ground_truth"] == oracle["ground_truth"]
        assert live["attack_summary"] == oracle["attack_summary"]

    def test_workload_stats_identical(self, live_and_oracle):
        name, live, oracle = live_and_oracle
        assert live["engine_stats"]["amplified_walks"] > 0
        if name == "zipf-150":
            assert live["driver_stats"]["open_requests"] > 0
        assert live["engine_stats"] == oracle["engine_stats"]
        assert live["driver_stats"] == oracle["driver_stats"]

    def test_rng_states_identical_at_day_boundaries(self, live_and_oracle):
        _, live, oracle = live_and_oracle
        assert len(live["rng"]) >= 3
        assert live["rng"] == oracle["rng"]


# ---------------------------------------------------------------------------
# the dry run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sessions", ["onoff", "burst"])
@pytest.mark.parametrize("diurnal", ["true", "false"])
def test_sample_workload_matches_oracle(sessions, diurnal):
    spec = parse_workload_spec(f"zipf:users=3e3,sessions={sessions},diurnal={diurnal}")
    live = sample_workload(spec, seed=5, hours=30)
    assert live["stats"]["open_requests"] > 0
    assert live == oracle_sample_workload(spec, seed=5, hours=30)
