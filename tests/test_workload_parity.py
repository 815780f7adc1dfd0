"""The per-request workload path against the code it replaced.

The oracle below is the earlier implementation: a Hydra capture that
asks :meth:`HydraBooster.capture_probability` and imports its Poisson
sampler per walk, a ``_log_dht`` that records with keyword arguments, a
``publish_provider_record`` that builds a fresh address tuple on every
call (here from an uncached ``multiaddrs``, which is stronger still), the
registry's ``setdefault`` insert, and platform passes that scan every
overlay node for a platform's members.  A campaign run on the oracle and
one on the live code must leave the same Hydra and Bitswap logs, the same
provider registry, the same RNG states at every day boundary and the same
figures; a server publishing twice in one address epoch must reuse its
address tuple; and every published record must carry the addresses the
node announces at that moment.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ids.cid import CID
from repro.ids.multiaddr import Multiaddr
from repro.kademlia.messages import MessageEnvelope, MessageType, classify_message
from repro.kademlia.providers import ProviderRecord
from repro.monitors.hydra import HydraBooster
from repro.netsim.network import Overlay
from repro.netsim.node import Node
from repro.scenario.config import ScenarioConfig
from repro.scenario.report import full_report
from repro.scenario.run import MeasurementCampaign
from repro.workload import engine as engine_module
from repro.workload import openloop as openloop_module
from repro.workload.engine import TrafficEngine
from repro.world.ipspace import format_ip
from repro.world.population import NodeClass, build_world
from repro.world.profiles import WorldProfile


# ---------------------------------------------------------------------------
# oracle: the earlier per-request path
# ---------------------------------------------------------------------------


def oracle_poisson(mean: float, rng: random.Random) -> int:
    if mean <= 0.0:
        return 0
    if mean > 30.0:
        value = int(rng.gauss(mean, mean ** 0.5) + 0.5)
        return max(0, value)
    limit = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


def oracle_capture_count(self, walk_messages, network_servers, rng):
    probability = self.capture_probability(network_servers)
    if probability <= 0.0 or walk_messages <= 0:
        return 0
    mean = probability * walk_messages
    if probability < 0.2:
        return min(walk_messages, oracle_poisson(mean, rng))
    count = 0
    for _ in range(walk_messages):
        if rng.random() < probability:
            count += 1
    return count


def oracle_record(
    self, timestamp, sender, sender_ip, message_type,
    target_cid=None, target_key=None, via_relay=None,
):
    envelope = MessageEnvelope(
        timestamp=timestamp,
        sender=sender,
        sender_ip=sender_ip,
        message_type=message_type,
        target_key=target_key if target_key is not None else (
            target_cid.dht_key if target_cid is not None else None
        ),
        target_cid=target_cid,
        via_relay=via_relay,
    )
    self.log.append(envelope)
    return envelope


def oracle_log_dht(self, node, message_type, cid, walk_messages, via_relay=None):
    captured = self.hydra.capture_count(
        walk_messages, max(len(self.overlay.oracle), 1), self.rng
    )
    if captured <= 0 or node.peer is None or not node.ips:
        return
    now = self.overlay.now
    ip_strs = [format_ip(ip) for ip in node.ips]
    for _ in range(captured):
        sender_ip = self.rng.choice(ip_strs)
        self.hydra.record(
            timestamp=now,
            sender=node.peer,
            sender_ip=sender_ip,
            message_type=message_type,
            target_cid=cid,
            via_relay=via_relay,
        )


def oracle_multiaddrs(node: Node):
    """What ``node`` announces right now, built from scratch."""
    if node.peer is None:
        return []
    if node.spec.node_class is NodeClass.NAT_CLIENT:
        relay = node.relay
        if relay is None or relay.peer is None:
            return []
        return [Multiaddr.circuit(format_ip(relay.ips[0]), relay.port, relay.peer, node.peer)]
    return [Multiaddr.direct(format_ip(ip), node.port, node.peer) for ip in node.ips]


def oracle_registry_add(registry, record: ProviderRecord) -> None:
    by_provider = registry._records.setdefault(record.cid, {})
    by_provider[record.provider] = record
    oldest = registry._oldest.get(record.cid)
    if oldest is None or record.published_at < oldest:
        registry._oldest[record.cid] = record.published_at
    if len(by_provider) > registry.max_per_cid:
        victim = min(by_provider.values(), key=lambda rec: rec.published_at)
        del by_provider[victim.provider]
        registry._oldest[record.cid] = min(rec.published_at for rec in by_provider.values())


def oracle_publish_provider_record(self, node, cid):
    if not node.online or node.peer is None:
        return None
    if not node.spec.node_class.is_dht_server:
        self.ensure_relay(node)
    addrs = tuple(oracle_multiaddrs(node))
    if not addrs:
        return None
    record = ProviderRecord(cid=cid, provider=node.peer, addrs=addrs, published_at=self.now)
    oracle_registry_add(self.providers, record)
    node.provided_cids.add(cid)
    return record


def oracle_platform_nodes(self, name):
    return [node for node in self.overlay.nodes if node.spec.platform == name and node.online]


def oracle_seed_platform_content(self):
    scale = len(self.overlay.oracle) / 2500.0
    for platform in self.overlay.world.profile.platforms:
        if platform.role not in ("storage", "pinning"):
            continue
        size = max(100, int(self.config.platform_set_size * scale * platform.pinned_set_scale))
        items = self.catalog.mint_platform_set(
            platform.name, size, weight_scale=self.config.platform_weight_scale
        )
        online_nodes = oracle_platform_nodes(self, platform.name)
        if not online_nodes:
            continue
        replicas = min(self.config.platform_replicas, len(online_nodes))
        coprovider_pools = {
            cls: self.overlay.nodes_of_class(cls) for cls in self.config.coprovider_class_weights
        }
        classes = list(self.config.coprovider_class_weights)
        weights = [self.config.coprovider_class_weights[cls] for cls in classes]
        for item in items:
            for node in self.rng.sample(online_nodes, replicas):
                self.overlay.publish_provider_record(node, item.cid)
            if self.rng.random() < self.config.platform_coprovider_prob:
                pool = coprovider_pools[self.rng.choices(classes, weights=weights)[0]]
                if pool:
                    uploader = self.rng.choice(pool)
                    uploader.provided_cids.add(item.cid)
                    if uploader.online:
                        self.overlay.publish_provider_record(uploader, item.cid)


def oracle_platform_reprovide_pass(self):
    for platform in self.overlay.world.profile.platforms:
        if platform.role not in ("storage", "pinning"):
            continue
        items = self.catalog.platform_items(platform.name)
        if not items:
            continue
        nodes = oracle_platform_nodes(self, platform.name)
        if not nodes:
            continue
        for item in items:
            node = self.rng.choice(nodes)
            self.overlay.publish_provider_record(node, item.cid)
            self._log_dht(
                node, MessageType.ADD_PROVIDER, item.cid, self.config.advert_walk_contacts
            )
    day = self.overlay_clock_day
    for node, cids in self._platform_pins.items():
        if not node.online:
            continue
        for cid in list(cids):
            item = self.catalog.by_cid.get(cid)
            if item is not None and not item.alive_on(day):
                cids.discard(cid)
                continue
            self.overlay.publish_provider_record(node, cid)
            self._log_dht(node, MessageType.ADD_PROVIDER, cid, self.config.advert_walk_contacts)


def oracle_user_reprovide_pass(self):
    config = self.config
    for node in list(self.overlay.online_by_peer.values()):
        if node.spec.node_class in (NodeClass.PLATFORM, NodeClass.GATEWAY):
            continue
        if not node.provided_cids:
            continue
        cids = list(node.provided_cids)
        if len(cids) > config.daily_reprovide_sample:
            cids = self.rng.sample(cids, config.daily_reprovide_sample)
        for cid in cids:
            item = self.catalog.by_cid.get(cid)
            if item is not None and not item.alive_on(self.overlay_clock_day):
                node.provided_cids.discard(cid)
                continue
            self.publish(node, cid=cid, fresh=False)


def install_oracle(patch: pytest.MonkeyPatch) -> None:
    patch.setattr(HydraBooster, "capture_count", oracle_capture_count)
    patch.setattr(HydraBooster, "record", oracle_record)
    patch.setattr(TrafficEngine, "_log_dht", oracle_log_dht)
    patch.setattr(TrafficEngine, "_platform_nodes", oracle_platform_nodes)
    patch.setattr(TrafficEngine, "seed_platform_content", oracle_seed_platform_content)
    patch.setattr(TrafficEngine, "platform_reprovide_pass", oracle_platform_reprovide_pass)
    patch.setattr(TrafficEngine, "user_reprovide_pass", oracle_user_reprovide_pass)
    patch.setattr(Overlay, "publish_provider_record", oracle_publish_provider_record)
    patch.setattr(engine_module, "poisson", oracle_poisson)
    patch.setattr(openloop_module, "poisson", oracle_poisson)


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def campaign_config(servers: int, seed: int, workload_spec: str) -> ScenarioConfig:
    return ScenarioConfig(
        profile=WorldProfile(online_servers=servers, seed=seed),
        warmup_days=1,
        days=1,
        seed=seed,
        workload_spec=workload_spec,
    )


def run_fingerprint(config: ScenarioConfig) -> dict:
    """Everything the workload layer feeds: both monitor logs, the
    registry, the RNG states at each day boundary and the figures."""
    campaign = MeasurementCampaign(config)
    campaign.build()
    boundaries = []
    build_day_index = campaign.catalog.build_day_index

    def at_day_boundary(day):
        boundaries.append(
            (day, campaign.engine.rng.getstate(), campaign.overlay.rng.getstate())
        )
        return build_day_index(day)

    campaign.catalog.build_day_index = at_day_boundary
    result = campaign.run()
    registry = result.overlay.providers
    return {
        "hydra": list(result.hydra.log),
        "bitswap": list(result.bitswap_monitor.log),
        "records": [(cid, list(by.items())) for cid, by in registry._records.items()],
        "oldest": list(registry._oldest.items()),
        "rng": boundaries
        + [("end", campaign.engine.rng.getstate(), campaign.overlay.rng.getstate())],
        "report": full_report(result, resilience_reps=1),
    }


CAMPAIGNS = {
    "closed-150": (150, 31, "closed"),
    "closed-300": (300, 32, "closed"),
    "zipf-150": (150, 33, "zipf:users=2e3"),
}


@pytest.fixture(scope="module", params=sorted(CAMPAIGNS))
def live_and_oracle(request):
    config = campaign_config(*CAMPAIGNS[request.param])
    live = run_fingerprint(config)
    with pytest.MonkeyPatch.context() as patch:
        install_oracle(patch)
        oracle = run_fingerprint(config)
    return live, oracle


class TestCampaignParity:
    def test_hydra_log_identical(self, live_and_oracle):
        live, oracle = live_and_oracle
        assert live["hydra"], "no Hydra traffic to compare"
        assert len(live["hydra"]) == len(oracle["hydra"])
        assert live["hydra"] == oracle["hydra"]
        for entry in live["hydra"]:
            assert entry.traffic_class is classify_message(entry.message_type)

    def test_bitswap_log_identical(self, live_and_oracle):
        live, oracle = live_and_oracle
        assert live["bitswap"] == oracle["bitswap"]

    def test_provider_registry_identical(self, live_and_oracle):
        live, oracle = live_and_oracle
        assert live["records"], "no provider records to compare"
        assert live["records"] == oracle["records"]
        assert live["oldest"] == oracle["oldest"]

    def test_rng_states_identical_at_day_boundaries(self, live_and_oracle):
        live, oracle = live_and_oracle
        assert {day for day, _, _ in live["rng"]} == {0, 1, "end"}
        assert live["rng"] == oracle["rng"]

    def test_full_report_identical(self, live_and_oracle):
        live, oracle = live_and_oracle
        assert live["report"] == oracle["report"]


# ---------------------------------------------------------------------------
# platform membership and the work guard
# ---------------------------------------------------------------------------


def small_overlay(seed: int, servers: int = 40) -> Overlay:
    overlay = Overlay(build_world(WorldProfile(online_servers=servers, seed=seed)))
    overlay.bootstrap()
    return overlay


class TestPlatformMembership:
    def test_platform_lists_match_full_scan(self):
        campaign = MeasurementCampaign(campaign_config(150, 31, "closed"))
        campaign.build()
        engine, overlay = campaign.engine, campaign.overlay
        for platform in overlay.world.profile.platforms:
            scan = [node for node in overlay.nodes if node.spec.platform == platform.name]
            assert overlay.nodes_of_platform(platform.name) == scan
            assert engine._platform_nodes(platform.name) == oracle_platform_nodes(
                engine, platform.name
            )
        # pinata also runs gateway-class nodes: a class index would miss them.
        assert any(
            node.node_class is NodeClass.GATEWAY for node in overlay.nodes_of_platform("pinata")
        )
        assert engine._pl_hydra_nodes == [
            node for node in overlay.nodes if node.spec.platform == "hydra"
        ]
        fleets = {}
        for node in overlay.nodes:
            if node.spec.platform in engine.config.indexer_rates:
                fleets[node.spec.platform] = fleets.get(node.spec.platform, 0) + 1
        assert engine._indexer_fleet_sizes == fleets


class TestAddressEpochWorkGuard:
    def test_second_publish_in_an_epoch_builds_nothing(self, monkeypatch):
        overlay = small_overlay(seed=5)
        server = overlay.online_servers()[0]
        rng = random.Random(1)
        first = overlay.publish_provider_record(server, CID.generate(rng))
        built = []
        original = Multiaddr.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Multiaddr, "__init__", counting_init)
        second = overlay.publish_provider_record(server, CID.generate(rng))
        assert built == []
        assert second.addrs is first.addrs
        # A DHCP re-lease ends the epoch: the next publish rebuilds.
        overlay.rotate_addresses(server)
        third = overlay.publish_provider_record(server, CID.generate(rng))
        assert len(built) == len(server.ips)
        assert third.addrs is not first.addrs
        assert third.addrs == tuple(oracle_multiaddrs(server))

    def test_nat_client_reuses_its_circuit_tuple(self):
        overlay = small_overlay(seed=6)
        client = next(node for node in overlay.online_nat_clients() if node.relay is not None)
        rng = random.Random(2)
        first = overlay.publish_provider_record(client, CID.generate(rng))
        second = overlay.publish_provider_record(client, CID.generate(rng))
        assert second.addrs is first.addrs
        overlay.rotate_addresses(client.relay)
        third = overlay.publish_provider_record(client, CID.generate(rng))
        assert third.addrs is not first.addrs
        assert third.addrs == tuple(oracle_multiaddrs(client))


# ---------------------------------------------------------------------------
# address-epoch invalidation
# ---------------------------------------------------------------------------

OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["publish", "rotate", "rotate-relay", "mint", "mint-relay",
                         "lose-relay", "relay-rejoins"]),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=40,
)


class TestAddressEpochInvalidation:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16), OPERATIONS)
    def test_records_carry_current_addresses(self, seed, operations):
        overlay = small_overlay(seed=seed % 7)
        rng = random.Random(seed)
        # Three servers and three NAT clients publish; clients' relays
        # rotate, re-key, vanish and come back under the operations.
        nodes = overlay.online_servers()[:3] + overlay.online_nat_clients()[:3]
        for action, index in operations:
            node = nodes[index % len(nodes)]
            relay = node.relay
            if action == "publish":
                record = overlay.publish_provider_record(node, CID.generate(rng))
                if record is not None:
                    assert record.addrs == tuple(node.multiaddrs())
                    assert record.addrs == tuple(oracle_multiaddrs(node))
            elif action == "rotate":
                overlay.rotate_addresses(node)
            elif action == "rotate-relay" and relay is not None:
                overlay.rotate_addresses(relay)
            elif action == "mint":
                overlay.take_offline(node)
                overlay.bring_online(node, regen_peer=True)
            elif action == "mint-relay" and relay is not None:
                overlay.take_offline(relay)
                overlay.bring_online(relay, regen_peer=True)
            elif action == "lose-relay" and relay is not None:
                overlay.take_offline(relay)
                overlay.ensure_relay(node)
            elif action == "relay-rejoins" and relay is not None:
                overlay.take_offline(relay)
                overlay.bring_online(relay, rotate_ip=True, regen_peer=True)
        for node in nodes:
            assert node.addr_tuple() == tuple(oracle_multiaddrs(node))
