"""The calibrated traffic engine."""

import random

import pytest

from repro.content.catalog import ContentCatalog
from repro.netsim.sampling import poisson
from repro.workload import TrafficEngine, WorkloadConfig
from repro.ids.cid import CID
from repro.kademlia.messages import TrafficClass
from repro.monitors.bitswap_monitor import BitswapMonitor
from repro.monitors.hydra import HydraBooster
from repro.netsim.network import Overlay
from repro.world.population import NodeClass, build_world
from repro.world.profiles import WorldProfile


@pytest.fixture()
def engine():
    world = build_world(WorldProfile(online_servers=250, seed=51))
    from repro.gateway.operators import install_gateway_specs

    install_gateway_specs(world)
    overlay = Overlay(world)
    overlay.bootstrap()
    catalog = ContentCatalog(random.Random(52))
    hydra = HydraBooster(num_heads=20, rng=random.Random(53))
    monitor = BitswapMonitor(random.Random(54))
    return TrafficEngine(overlay, catalog, hydra, monitor, WorkloadConfig(), random.Random(55))


def online_of(engine, node_class):
    return next(
        node
        for node in engine.overlay.nodes
        if node.node_class is node_class and node.online and node.ips
    )


class TestPoisson:
    def test_zero_mean(self, rng):
        assert poisson(0.0, rng) == 0

    def test_small_mean_expectation(self, rng):
        draws = [poisson(2.5, rng) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(2.5, rel=0.05)

    def test_large_mean_normal_approximation(self, rng):
        draws = [poisson(100.0, rng) for _ in range(2000)]
        assert sum(draws) / len(draws) == pytest.approx(100.0, rel=0.02)
        assert min(draws) >= 0


class TestPublish:
    def test_publish_creates_item_and_record(self, engine):
        node = online_of(engine, NodeClass.CLOUD_STABLE)
        before = len(engine.catalog)
        engine.publish(node)
        assert len(engine.catalog) == before + 1
        item = engine.catalog.items[-1]
        assert engine.overlay.providers.has_records(item.cid, engine.overlay.now)
        assert item.cid in node.provided_cids

    def test_publish_caps_provided_cids(self, engine):
        node = online_of(engine, NodeClass.CLOUD_STABLE)
        for _ in range(engine.config.max_provided_cids + 20):
            engine.publish(node)
        assert len(node.provided_cids) <= engine.config.max_provided_cids

    def test_publish_evicts_oldest_first(self, engine):
        """The provide-set cap is FIFO: the earliest published CIDs fall
        out, the newest survive (and the order never depends on the
        process hash seed)."""
        node = online_of(engine, NodeClass.CLOUD_STABLE)
        cap = engine.config.max_provided_cids
        published = []
        for _ in range(cap + 5):
            engine.publish(node)
            published.append(engine.catalog.items[-1].cid)
        assert list(node.provided_cids) == published[-cap:]

    def test_nat_publish_logs_relay(self, engine):
        engine.config.advert_walk_contacts = 10_000  # force capture
        nat = online_of(engine, NodeClass.NAT_CLIENT)
        engine.overlay.ensure_relay(nat)
        engine.publish(nat)
        adverts = [
            e for e in engine.hydra.log if e.traffic_class is TrafficClass.ADVERTISEMENT
        ]
        assert adverts
        assert any(entry.via_relay is not None for entry in adverts)

    def test_pinning_adds_platform_provider(self, engine):
        engine.config.user_pin_prob = 1.0
        node = online_of(engine, NodeClass.RESIDENTIAL_STABLE)
        engine.publish(node)
        item = engine.catalog.items[-1]
        providers = {
            record.provider
            for record in engine.overlay.providers.get(item.cid, engine.overlay.now)
        }
        platform_peers = {
            n.peer
            for n in engine.overlay.nodes
            if n.node_class is NodeClass.PLATFORM and n.peer is not None
        }
        assert providers & platform_peers


class TestDownload:
    def test_download_logs_bitswap_broadcast(self, engine):
        engine.catalog.mint_platform_set("web3.storage", 20)
        engine.catalog.build_day_index(0)
        node = next(
            n
            for n in engine.overlay.nodes
            if n.node_class is NodeClass.CLOUD_STABLE
            and n.online
            and n.ips
            and engine.monitor.is_connected(n)
        )
        before = len(engine.monitor.log)
        for _ in range(30):
            engine.download(node)
        assert len(engine.monitor.log) > before

    def test_indexers_skip_bitswap(self, engine):
        engine.catalog.mint_platform_set("web3.storage", 20)
        engine.catalog.build_day_index(0)
        indexer_node = next(
            n for n in engine.overlay.nodes if n.spec.platform == "aws-mystery" and n.online
        )
        before = len(engine.monitor.log)
        for _ in range(20):
            engine.download(indexer_node)
        assert len(engine.monitor.log) == before  # no broadcasts
        assert engine.stats["dht_walks"] >= 20    # always walks

    def test_amplification_cache_suppresses_repeats(self, engine):
        engine.config.hydra_fleet_visibility = 1.0
        engine.config.hydra_amplification_walks = 1.0
        cid = CID.generate(random.Random(56))
        engine._hydra_amplification(cid)
        first = engine.stats["amplified_walks"]
        engine._hydra_amplification(cid)  # cache hit: no new walks
        assert engine.stats["amplified_walks"] == first
        assert first >= 1

    def test_reprovide_probability_zero_means_never(self, engine):
        for cls in engine.config.reprovide_probs:
            engine.config.reprovide_probs[cls] = 0.0
        engine.catalog.mint_platform_set("web3.storage", 20)
        engine.catalog.build_day_index(0)
        node = online_of(engine, NodeClass.CLOUD_STABLE)
        before = set(node.provided_cids)
        for _ in range(20):
            engine.download(node)
        assert set(node.provided_cids) == before


class TestDailyPasses:
    def test_seed_platform_content_scales_sets(self, engine):
        engine.seed_platform_content()
        web3 = engine.catalog.platform_items("web3.storage")
        pinata = engine.catalog.platform_items("pinata")
        assert len(web3) > len(pinata) > 0
        # Every pinned item has at least one platform record.
        sample = web3[0]
        assert engine.overlay.providers.has_records(sample.cid, engine.overlay.now)

    def test_user_reprovide_refreshes_records(self, engine):
        node = online_of(engine, NodeClass.RESIDENTIAL_STABLE)
        engine.publish(node)
        item = engine.catalog.items[-1]
        # Let the record age past the TTL, then re-provide.
        engine.overlay.scheduler.run_until(engine.overlay.now + 25 * 3600.0)
        assert not engine.overlay.providers.has_records(item.cid, engine.overlay.now)
        engine.catalog.build_day_index(engine.overlay_clock_day)
        engine.user_reprovide_pass()
        assert engine.overlay.providers.has_records(item.cid, engine.overlay.now)

    def test_reprovide_drops_dead_items(self, engine):
        node = online_of(engine, NodeClass.RESIDENTIAL_STABLE)
        item = engine.catalog.add(
            __import__("repro.content.catalog", fromlist=["ContentItem"]).ContentItem(
                cid=CID.generate(random.Random(57)),
                publisher=node.spec.index,
                created_day=0,
                lifetime_days=1,
            )
        )
        node.provided_cids.add(item.cid)
        engine.overlay.scheduler.run_until(engine.overlay.now + 3 * 86400.0)
        engine.catalog.build_day_index(engine.overlay_clock_day)
        engine.user_reprovide_pass()
        assert item.cid not in node.provided_cids

    def test_run_tick_generates_all_classes_of_traffic(self, engine):
        engine.seed_platform_content()
        engine.catalog.build_day_index(0)
        engine.platform_reprovide_pass()
        engine.run_tick(hours=6.0)
        shares = {
            cls: len(engine.hydra.entries(cls))
            for cls in (TrafficClass.DOWNLOAD, TrafficClass.ADVERTISEMENT, TrafficClass.OTHER)
        }
        assert all(count > 0 for count in shares.values())
