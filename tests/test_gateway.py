"""Gateways: operators, the public list, the HTTP service, the prober."""

import random

import pytest

from repro.gateway.operators import default_operators, install_gateway_specs
from repro.gateway.registry import PublicGatewayRegistry
from repro.gateway.service import GatewayService
from repro.ids.cid import CID
from repro.monitors.bitswap_monitor import BitswapMonitor
from repro.monitors.gateway_probe import GatewayProber
from repro.netsim.network import Overlay
from repro.world.population import NodeClass, build_world
from repro.world.profiles import WorldProfile


@pytest.fixture(scope="module")
def gateway_overlay():
    world = build_world(WorldProfile(online_servers=250, seed=41))
    install_gateway_specs(world)
    overlay = Overlay(world)
    overlay.bootstrap()
    return overlay


def service_for(overlay, operator_name, monitor=None):
    operators = {op.name: op for op in default_operators()}
    nodes = [
        node
        for node in overlay.nodes
        if node.spec.platform == operator_name
        and node.spec.node_class is NodeClass.GATEWAY
    ]
    return GatewayService(operators[operator_name], nodes, overlay, monitor)


class TestOperators:
    def test_overlay_node_budget_is_119(self):
        assert sum(op.num_overlay_nodes for op in default_operators()) == 119

    def test_22_functional_operators(self):
        assert len(default_operators()) == 22

    def test_cloudflare_largest_overlay_pool(self):
        operators = sorted(default_operators(), key=lambda o: -o.num_overlay_nodes)
        assert operators[0].name == "cloudflare"

    def test_noncloud_operators_exist(self):
        assert any(op.provider is None for op in default_operators())

    def test_install_appends_specs(self, gateway_overlay):
        world = gateway_overlay.world
        gateways = world.specs_of(NodeClass.GATEWAY)
        assert len(gateways) == 119
        # Databases know their blocks.
        for spec in gateways[:20]:
            assert world.geo_db.lookup(spec.blocks[0].base) == spec.country


class TestRegistry:
    def test_83_listed_22_functional(self):
        registry = PublicGatewayRegistry()
        assert len(registry) == 83
        assert len(registry.functional_entries()) == 22

    def test_checker(self):
        registry = PublicGatewayRegistry()
        assert registry.check("cloudflare-ipfs.com")
        dead = next(e for e in registry.entries if not e.functional)
        assert not registry.check(dead.domain)
        assert not registry.check("unknown.example")

    def test_operator_resolution(self):
        registry = PublicGatewayRegistry()
        operator = registry.operator_for("ipfs.io")
        assert operator is not None and operator.name == "protocol-labs"
        dead = next(e for e in registry.entries if not e.functional)
        assert registry.operator_for(dead.domain) is None

    def test_rejects_too_small_total(self):
        with pytest.raises(ValueError):
            PublicGatewayRegistry(total_entries=5)


class TestService:
    def test_404_for_unprovided_content(self, gateway_overlay):
        service = service_for(gateway_overlay, "cloudflare")
        response = service.http_get(CID.generate(random.Random(1)))
        assert response.status == 404

    def test_200_and_reprovide_for_available_content(self, gateway_overlay):
        overlay = gateway_overlay
        service = service_for(overlay, "cloudflare")
        provider = next(n for n in overlay.online_servers() if n.reachable)
        cid = CID.generate(random.Random(2))
        overlay.publish_provider_record(provider, cid)
        response = service.http_get(cid)
        assert response.status == 200
        assert response.served_by is not None
        # The auto-scaling effect: the gateway backend became a provider.
        providers = {r.provider for r in overlay.providers.get(cid, overlay.now)}
        assert response.served_by.peer in providers

    def test_cache_hit_on_second_request(self, gateway_overlay):
        overlay = gateway_overlay
        service = service_for(overlay, "protocol-labs")
        provider = next(n for n in overlay.online_servers() if n.reachable)
        cid = CID.generate(random.Random(3))
        overlay.publish_provider_record(provider, cid)
        first = service.http_get(cid)
        second = service.http_get(cid)
        assert first.status == 200 and not first.from_cache
        assert second.status == 200 and second.from_cache

    def test_requires_backends(self, gateway_overlay):
        operators = {op.name: op for op in default_operators()}
        with pytest.raises(ValueError):
            GatewayService(operators["cloudflare"], [], gateway_overlay)


class TestProber:
    def test_identifies_functional_endpoints_and_overlay_ids(self, gateway_overlay):
        overlay = gateway_overlay
        monitor = BitswapMonitor(random.Random(5))
        provider_node = next(n for n in overlay.online_servers() if n.reachable)
        services = {
            "cloudflare-ipfs.com": service_for(overlay, "cloudflare", monitor),
            "dead.example": None,
        }
        prober = GatewayProber(overlay, monitor, provider_node, random.Random(6))
        reports = prober.run_campaign(services, probes_per_endpoint=25)
        assert reports["cloudflare-ipfs.com"].functional
        assert not reports["dead.example"].functional
        assert len(reports["dead.example"].overlay_ids) == 0
        # Repeated probes enumerate multiple pool nodes.
        assert len(reports["cloudflare-ipfs.com"].overlay_ids) > 3

    def test_probe_content_is_unique_per_probe(self, gateway_overlay):
        overlay = gateway_overlay
        monitor = BitswapMonitor(random.Random(7))
        provider_node = next(n for n in overlay.online_servers() if n.reachable)
        prober = GatewayProber(overlay, monitor, provider_node, random.Random(8))
        service = service_for(overlay, "pinata", monitor)
        before = set(provider_node.provided_cids)
        prober.probe_once("gateway.pinata.cloud", service)
        prober.probe_once("gateway.pinata.cloud", service)
        fresh = set(provider_node.provided_cids) - before
        assert len(fresh) == 2  # each probe stores distinct random content


class LogDecodeProber(GatewayProber):
    """The prober as it was: it slices the Bitswap log after every probe
    and decodes the suffix to look for the probe CID."""

    def probe_once(self, domain, service):
        if service is None:
            return False, None
        probe_cid = CID.generate(self.rng)
        self.overlay.publish_provider_record(self.provider_node, probe_cid)
        log_position = len(self.monitor.log)
        response = service.http_get(probe_cid)
        if response.status != 200 or response.served_by is None:
            return False, None
        for entry in self.monitor.log[log_position:]:
            if entry.cid == probe_cid:
                return True, response.served_by
        return True, None


class TestProberFold:
    @staticmethod
    def _campaign(prober_cls, store):
        world = build_world(WorldProfile(online_servers=120, seed=43))
        install_gateway_specs(world)
        overlay = Overlay(world)
        overlay.bootstrap()
        monitor = BitswapMonitor(random.Random(9), store=store)
        provider_node = next(n for n in overlay.online_servers() if n.reachable)
        services = {
            f"{name}.example": service_for(overlay, name, monitor)
            for name in ("cloudflare", "pinata", "protocol-labs")
        }
        services["dead.example"] = None
        prober = prober_cls(overlay, monitor, provider_node, random.Random(10))
        reports = prober.run_campaign(services, probes_per_endpoint=12)
        return reports, len(monitor.log)

    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    def test_fold_reports_match_log_decode(self, kind, tmp_path):
        def store(name):
            return None if kind == "memory" else f"sqlite:{tmp_path / name}.sqlite"

        reports, logged = self._campaign(GatewayProber, store("fold"))
        expected, expected_logged = self._campaign(LogDecodeProber, store("decode"))
        assert reports == expected
        assert logged == expected_logged
        # Both outcomes occur: probes seen in the log and probes not seen.
        probes = sum(report.probes_sent for report in reports.values())
        found = sum(len(report.overlay_ids) for report in reports.values())
        assert 0 < found and logged < probes
