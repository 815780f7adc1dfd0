"""The overlay: join/leave mechanics, stale entries, relays, providers."""

import pytest

from repro.ids.cid import CID
from repro.ids.keys import KEY_BITS
from repro.netsim.network import Overlay, ProviderRegistry
from repro.netsim.node import Node
from repro.world.population import NodeClass, build_world
from repro.world.profiles import WorldProfile
import random


@pytest.fixture()
def overlay():
    world = build_world(WorldProfile(online_servers=150, seed=21))
    overlay = Overlay(world)
    overlay.bootstrap()
    return overlay


class TestBootstrap:
    def test_online_population_near_target(self, small_overlay):
        assert len(small_overlay.oracle) == pytest.approx(300, rel=0.12)

    def test_every_online_server_has_routing_table(self, small_overlay):
        for node in small_overlay.online_servers():
            assert node.routing_table is not None
            assert len(node.routing_table) > 0

    def test_nat_clients_not_in_oracle(self, small_overlay):
        for node in small_overlay.online_nat_clients():
            assert node.peer not in small_overlay.oracle

    def test_nat_clients_have_relays(self, small_overlay):
        with_relay = [
            node for node in small_overlay.online_nat_clients() if node.relay is not None
        ]
        assert len(with_relay) > 0
        for node in with_relay:
            assert node.relay.is_dht_server

    def test_routing_tables_reference_only_servers(self, small_overlay):
        nat_peers = {n.peer for n in small_overlay.online_nat_clients()}
        for node in list(small_overlay.online_by_peer.values())[:50]:
            if node.routing_table is None:
                continue
            table_peers = {small_overlay.peer_of(key) for key in node.routing_table.keys()}
            assert not (table_peers & nat_peers)


class TestJoinLeave:
    def test_leave_removes_from_registry_and_oracle(self, overlay):
        node = overlay.online_servers()[0]
        peer = node.peer
        overlay.take_offline(node)
        assert peer not in overlay.online_by_peer
        assert peer not in overlay.oracle
        assert node.routing_table is None

    def test_stale_entries_linger_after_leave(self, overlay):
        node = overlay.online_servers()[0]
        peer = node.peer
        assert overlay.in_degree(peer) > 0
        overlay.take_offline(node)
        still_referencing = sum(
            1
            for holder in overlay.online_by_peer.values()
            if holder.routing_table is not None and peer.dht_key in holder.routing_table
        )
        assert still_referencing > 0  # ghosts until refresh

    def test_refresh_evicts_dead_entries(self, overlay):
        node = overlay.online_servers()[0]
        peer = node.peer
        overlay.take_offline(node)
        overlay.stale_detect_prob = 1.0
        overlay.refresh_all()
        for holder in overlay.online_by_peer.values():
            if holder.routing_table is not None:
                assert peer.dht_key not in holder.routing_table

    def test_rejoin_reuses_identity_without_rotation(self, overlay):
        node = overlay.online_servers()[1]
        peer, ips = node.peer, list(node.ips)
        overlay.take_offline(node)
        overlay.bring_online(node)
        assert node.peer == peer
        assert node.ips == ips

    def test_rejoin_with_rotation_changes_ips_only(self, overlay):
        node = overlay.online_servers()[2]
        peer, ips = node.peer, list(node.ips)
        overlay.take_offline(node)
        overlay.bring_online(node, rotate_ip=True)
        assert node.peer == peer
        assert node.ips != ips

    def test_rejoin_with_regen_changes_peer_id(self, overlay):
        node = overlay.online_servers()[3]
        peer = node.peer
        overlay.take_offline(node)
        overlay.bring_online(node, regen_peer=True)
        assert node.peer != peer

    def test_mid_session_rotation(self, overlay):
        node = overlay.online_servers()[4]
        peer, ips = node.peer, list(node.ips)
        overlay.rotate_addresses(node)
        assert node.peer == peer
        assert node.ips != ips
        # Announced addresses follow.
        info = overlay.last_info(peer)
        assert {addr.ip for addr in info.addrs} == {node.primary_ip_str} | {
            addr.ip for addr in info.addrs
        }


class TestQueries:
    def test_dial_offline_peer_fails(self, overlay):
        node = overlay.online_servers()[0]
        peer = node.peer
        overlay.take_offline(node)
        assert overlay.dial(peer) is None

    def test_dial_honors_timeout(self, overlay):
        node = next(n for n in overlay.online_servers() if n.reachable)
        assert overlay.dial(node.peer, timeout=node.response_latency + 1) is node
        assert overlay.dial(node.peer, timeout=node.response_latency / 2) is None

    def test_find_node_query_returns_keys(self, overlay):
        node = next(n for n in overlay.online_servers() if n.reachable)
        query = overlay.find_node_query(timeout=1e9)
        result = query(node.peer.dht_key, node.peer.dht_key)
        assert result is not None
        infos = [overlay.last_info(overlay.peer_of(key)) for key in result]
        assert all(info.addrs for info in infos if info.peer in overlay.online_by_peer)


class TestProviders:
    def test_publish_and_resolve(self, overlay):
        node = next(n for n in overlay.online_servers() if n.reachable)
        cid = CID.generate(random.Random(1))
        record = overlay.publish_provider_record(node, cid)
        assert record is not None
        assert overlay.providers.has_records(cid, overlay.now)
        resolver_peer = overlay.resolvers_for(cid)[0]
        resolver = overlay.online_by_peer[resolver_peer]
        records = overlay.provider_records_at(resolver, cid)
        assert any(r.provider == node.peer for r in records)

    def test_non_resolver_returns_nothing(self, overlay):
        node = overlay.online_servers()[0]
        cid = CID.generate(random.Random(2))
        overlay.publish_provider_record(node, cid)
        resolvers = set(overlay.resolvers_for(cid))
        outsider = next(
            n for n in overlay.online_servers() if n.peer not in resolvers
        )
        assert overlay.provider_records_at(outsider, cid) == []

    def test_nat_provider_advertises_circuit_address(self, overlay):
        nat = next(iter(overlay.online_nat_clients()))
        cid = CID.generate(random.Random(3))
        record = overlay.publish_provider_record(nat, cid)
        assert record is not None
        assert record.is_relayed
        assert record.addrs[0].relay == nat.relay.peer

    def test_reachability_of_nat_record_follows_relay(self, overlay):
        nat = next(iter(overlay.online_nat_clients()))
        cid = CID.generate(random.Random(4))
        record = overlay.publish_provider_record(nat, cid)
        assert overlay.is_provider_reachable(record)
        overlay.take_offline(nat)
        assert not overlay.is_provider_reachable(record)

    def test_registry_ttl(self):
        registry = ProviderRegistry(ttl=10.0)
        from repro.kademlia.providers import ProviderRecord
        from repro.ids.multiaddr import Multiaddr
        from repro.ids.peerid import PeerID

        rng = random.Random(5)
        provider = PeerID.generate(rng)
        cid = CID.generate(rng)
        record = ProviderRecord(
            cid=cid, provider=provider,
            addrs=(Multiaddr.direct("1.2.3.4", 4001, provider),), published_at=0.0,
        )
        registry.add(record)
        assert registry.get(cid, now=5.0) == [record]
        assert registry.get(cid, now=15.0) == []

    def test_registry_caps_providers_per_cid(self):
        registry = ProviderRegistry(max_per_cid=5)
        from repro.kademlia.providers import ProviderRecord
        from repro.ids.multiaddr import Multiaddr
        from repro.ids.peerid import PeerID

        rng = random.Random(6)
        cid = CID.generate(rng)
        for index in range(10):
            provider = PeerID.generate(rng)
            registry.add(
                ProviderRecord(
                    cid=cid, provider=provider,
                    addrs=(Multiaddr.direct("1.2.3.4", 4001, provider),),
                    published_at=float(index),
                )
            )
        records = registry.get(cid, now=1.0)
        assert len(records) == 5
        # The oldest were evicted.
        assert min(r.published_at for r in records) == 5.0

    def test_registry_oldest_tracking_survives_eviction(self):
        """Regression: eviction used to leave the per-CID ``_oldest`` floor
        pointing at the evicted record, forcing a futile prune on every
        subsequent ``get`` once the stale floor crossed the TTL."""
        registry = ProviderRegistry(ttl=100.0, max_per_cid=3)
        from repro.kademlia.providers import ProviderRecord
        from repro.ids.multiaddr import Multiaddr
        from repro.ids.peerid import PeerID

        rng = random.Random(7)
        cid = CID.generate(rng)
        for published_at in range(4):
            provider = PeerID.generate(rng)
            registry.add(
                ProviderRecord(
                    cid=cid, provider=provider,
                    addrs=(Multiaddr.direct("1.2.3.4", 4001, provider),),
                    published_at=float(published_at),
                )
            )
        survivors = registry.get(cid, now=4.0)
        assert [r.published_at for r in survivors] == [1.0, 2.0, 3.0]
        # The floor follows the surviving records, not the evicted one.
        assert registry._oldest[cid] == 1.0
        # At a time past the *evicted* record's expiry but before any
        # survivor's, everything must still be served.
        assert len(registry.get(cid, now=100.5)) == 3
        assert registry.has_records(cid, now=100.5)


class TestInDegree:
    def test_counts_only_live_holders(self, overlay):
        counts = overlay.in_degrees()
        assert counts
        popular = max(counts, key=counts.get)
        assert counts[popular] > 1

    def test_advertise_presence_raises_in_degree(self, overlay):
        node = overlay.online_servers()[5]
        before = overlay.in_degrees().get(node.peer, 0)
        inserted = overlay.advertise_presence(node, attempts=100)
        after = overlay.in_degrees().get(node.peer, 0)
        assert after >= before
        assert after - before <= 100
        assert inserted >= 0

    def test_in_degree_matches_table_scan(self, overlay):
        """The public API equals a brute-force scan of live routing tables."""
        counts = overlay.in_degrees()
        for node in overlay.online_servers()[:20]:
            peer = node.peer
            scanned = sum(
                1
                for holder in overlay.online_by_peer.values()
                if holder.routing_table is not None and peer.dht_key in holder.routing_table
            )
            assert overlay.in_degree(peer) == scanned
            assert counts.get(peer, 0) == scanned

    def test_in_degree_drops_with_departing_holder(self, overlay):
        node = overlay.online_servers()[0]
        peer = node.peer
        holder = next(
            n
            for n in overlay.online_servers()
            if n is not node and n.routing_table is not None and peer.dht_key in n.routing_table
        )
        before = overlay.in_degree(peer)
        overlay.take_offline(holder)
        assert overlay.in_degree(peer) == before - 1


class TestRelayIndex:
    def test_pick_relay_matches_registry_scan(self, overlay):
        """The indexed relay pool draws the same node the O(N) scan over
        ``online_by_peer`` would, from the same RNG state."""
        overlay.pick_relay()  # settle lazy capability sampling
        for _ in range(10):
            state = overlay.rng.getstate()
            picked = overlay.pick_relay()
            overlay.rng.setstate(state)
            servers = [
                node
                for node in overlay.online_by_peer.values()
                if node.is_dht_server and overlay._is_relay_capable(node)
            ]
            assert picked is overlay.rng.choice(servers)

    def test_pick_relay_tracks_churn(self, overlay):
        overlay.pick_relay()
        victim = overlay.pick_relay()
        overlay.take_offline(victim)
        for _ in range(50):
            relay = overlay.pick_relay()
            assert relay is not victim
            assert relay.online
        overlay.bring_online(victim)
        assert any(overlay.pick_relay() is victim for _ in range(200))

    def test_pick_relay_excludes_requester(self, overlay):
        overlay.pick_relay()
        some_relay = overlay.pick_relay()
        for _ in range(100):
            assert overlay.pick_relay(exclude=some_relay) is not some_relay


class TestRefreshSkip:
    @staticmethod
    def _build(seed, skip_enabled):
        world = build_world(WorldProfile(online_servers=120, seed=seed))
        overlay = Overlay(world)
        overlay.refresh_skip_enabled = skip_enabled
        overlay.bootstrap()
        return overlay

    @staticmethod
    def _fingerprint(overlay):
        tables = {}
        for node in overlay.online_servers():
            tables[node.spec.index] = tuple(
                overlay.peer_of(key).digest for key in node.routing_table.keys()
            )
        return tables

    def test_skip_is_bit_identical_to_full_pass(self):
        """Skipping certified-clean nodes perturbs neither the network
        state nor the shared RNG stream, across churn and repeated
        passes."""
        fast = self._build(31, skip_enabled=True)
        slow = self._build(31, skip_enabled=False)
        for step in range(3):
            for overlay in (fast, slow):
                servers = overlay.online_servers()
                overlay.take_offline(servers[7 + step])
                overlay.take_offline(servers[23 + step])
                overlay.refresh_all()
                overlay.refresh_all()  # second pass exercises the skips
                offline = [n for n in overlay.nodes if not n.online and n.is_dht_server]
                overlay.bring_online(offline[0])
                overlay.refresh_all()
            assert fast.rng.getstate() == slow.rng.getstate()
            assert self._fingerprint(fast) == self._fingerprint(slow)

    @staticmethod
    def _certificates(overlay):
        return {node: node.certified_buckets for node in overlay.online_servers()}

    @staticmethod
    def _subtree_holds(node, bucket_idx, key):
        """Whether ``key`` lies in the subtree of ``node``'s bucket."""
        shift = KEY_BITS - bucket_idx - 1
        own = node.routing_table.owner_key
        return (key >> shift) == ((own >> shift) ^ 1)

    def test_quiescent_passes_certify_buckets(self):
        # Not every under-full bucket can be certified: one whose subtree
        # holds more than twice its free room samples (and consumes RNG)
        # every pass.  Quiescence therefore certifies a *share* of them —
        # assert it is substantial and that it never shrinks across
        # further churn-free passes.
        overlay = self._build(33, skip_enabled=True)
        overlay.refresh_all()
        overlay.refresh_all()
        depth = min(overlay._expected_depth() + 4, KEY_BITS)
        underfull = certified = 0
        for node in overlay.online_servers():
            for bucket_idx in range(depth):
                if len(node.routing_table.bucket(bucket_idx)) < overlay.k:
                    underfull += 1
                    certified += node.certified_buckets >> bucket_idx & 1
        assert certified > 0.8 * underfull
        before = self._certificates(overlay)
        overlay.refresh_all()
        for node, mask in self._certificates(overlay).items():
            assert mask & before[node] == before[node]

    def test_join_voids_only_covering_certificates(self):
        overlay = self._build(35, skip_enabled=True)
        returning = overlay.online_servers()[::9]
        for node in returning:
            overlay.take_offline(node)
        overlay.refresh_all()
        overlay.refresh_all()
        voided = unstored = 0
        for joiner in returning:
            before = self._certificates(overlay)
            overlay.bring_online(joiner)
            key = joiner.peer.dht_key
            for node, mask in before.items():
                for bucket_idx in range(KEY_BITS):
                    if not mask >> bucket_idx & 1:
                        continue
                    covers = self._subtree_holds(node, bucket_idx, key)
                    assert (node.certified_buckets >> bucket_idx & 1) != covers
                    voided += covers
                    # The join's own insertions did not reach this bucket:
                    # only the registration voided it.
                    unstored += covers and key not in node.routing_table.bucket(bucket_idx)
            assert not joiner.certified_buckets
        assert voided and unstored

    def test_departure_keeps_certificates(self):
        overlay = self._build(35, skip_enabled=True)
        overlay.refresh_all()
        overlay.refresh_all()
        victim = overlay.online_servers()[3]
        holders = [
            n
            for n in overlay.online_servers()
            if n is not victim and victim.peer.dht_key in n.routing_table
        ]
        assert holders
        stale = {holder: holder.stale_entries for holder in holders}
        before = self._certificates(overlay)
        overlay.take_offline(victim)
        del before[victim]
        assert self._certificates(overlay) == before
        assert any(before[holder] for holder in holders)
        for holder in holders:
            assert holder.stale_entries == stale[holder] + 1
        assert victim.certified_buckets == 0 and victim.stale_entries == 0

    def test_store_voids_certificate(self):
        """A key stored into a certified bucket (here one no online server
        holds) voids exactly that bucket's certificate."""
        overlay = self._build(37, skip_enabled=True)
        overlay.refresh_all()
        overlay.refresh_all()
        holder = next(n for n in overlay.online_servers() if n.certified_buckets)
        mask = holder.certified_buckets
        bucket_idx = (mask & -mask).bit_length() - 1
        shift = KEY_BITS - bucket_idx - 1
        own = holder.routing_table.owner_key
        key = (((own >> shift) ^ 1) << shift) | 1
        assert key not in overlay._online_servers
        stale = holder.stale_entries
        assert overlay._try_table_insert(holder, key)
        assert holder.certified_buckets == mask & ~(1 << bucket_idx)
        assert holder.stale_entries == stale + 1
