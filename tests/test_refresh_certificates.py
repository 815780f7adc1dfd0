"""Refresh certificates and stale-entry counts under random churn.

Two overlays are built from the same seed: one refreshes with the
per-bucket no-op certificates and the stale-entry counts
(``refresh_skip_enabled``), the other runs every pass in full.  Random
interleavings of joins, leaves, same-key rejoins, peer-ID regeneration,
presence advertising, address rotation and refreshes drive both in
lockstep.  After every step the certified overlay's bookkeeping must
describe its tables exactly, and both overlays must hold the same tables
and the same RNG state.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ids.keys import KEY_BITS
from repro.netsim.network import Overlay
from repro.netsim.node import Node
from repro.world.population import NodeClass, build_world
from repro.world.profiles import WorldProfile

SERVERS = 80
SEED = 41


def build(skip_enabled: bool) -> Overlay:
    overlay = Overlay(build_world(WorldProfile(online_servers=SERVERS, seed=SEED)))
    overlay.refresh_skip_enabled = skip_enabled
    overlay.bootstrap()
    return overlay


def subtree(node: Node, bucket_idx: int) -> Tuple[int, int]:
    """(prefix_len, base) of the subtree ``node``'s bucket covers."""
    shift = KEY_BITS - bucket_idx - 1
    own = node.routing_table.owner_key
    return bucket_idx + 1, ((own >> shift) ^ 1) << shift


def assert_bookkeeping(overlay: Overlay) -> None:
    """The stale counts and certificates describe the tables."""
    servers = overlay._online_servers
    oracle_keys = overlay.oracle._keys
    for node in overlay.nodes:
        table = node.routing_table
        if table is None:
            assert node.stale_entries == 0 and node.certified_buckets == 0
            continue
        assert node.stale_entries == sum(key not in servers for key in table.keys())
        certified = node.certified_buckets
        while certified:
            low = certified & -certified
            certified ^= low
            bucket_idx = low.bit_length() - 1
            prefix_len, base = subtree(node, bucket_idx)
            # The visit would be a no-op: no draw (the subtree holds at
            # most twice the free room) and no store (all of it is held).
            low_index, high_index = overlay.oracle.range_bounds(base, prefix_len)
            population = oracle_keys[low_index:high_index]
            bucket = table.bucket(bucket_idx)
            assert len(population) <= 2 * (overlay.k - len(bucket))
            assert all(key in bucket for key in population)


def tables(overlay: Overlay) -> Dict[int, List[Tuple[int, List[int]]]]:
    return {
        node.spec.index: [
            (index, list(node.routing_table.bucket(index)))
            for index in node.routing_table.nonempty_buckets()
        ]
        for node in overlay.online_servers()
    }


def apply(overlay: Overlay, step: Tuple[str, int, int]) -> None:
    """One churn or maintenance step; ``pick`` chooses its node."""
    kind, pick, attempts = step
    nodes = overlay.nodes
    online_servers = overlay.online_servers()
    if kind in ("join", "rejoin", "regen"):
        offline = [node for node in nodes if node.is_dht_server and not node.online]
        if kind != "join":
            # A server that left during the run: its key may still sit in
            # tables, stale; it returns with that key or a fresh one.
            offline = [node for node in offline if node.peer is not None]
        if offline:
            overlay.bring_online(offline[pick % len(offline)], regen_peer=kind == "regen")
    elif kind == "leave":
        overlay.take_offline(online_servers[pick % len(online_servers)])
    elif kind == "advertise":
        overlay.advertise_presence(online_servers[pick % len(online_servers)], attempts)
    elif kind == "advertise_client":
        # A NAT client's key names no online server: it is stored stale.
        clients = overlay.online_nat_clients()
        if clients:
            overlay.advertise_presence(clients[pick % len(clients)], attempts)
    elif kind == "rotate":
        online = list(overlay.online_by_peer.values())
        overlay.rotate_addresses(online[pick % len(online)])
    elif kind == "refresh_node":
        overlay.refresh_node(online_servers[pick % len(online_servers)])
    else:
        overlay.refresh_all()


STEPS = st.tuples(
    st.sampled_from(
        ["join", "rejoin", "regen", "leave", "advertise", "advertise_client", "rotate",
         "refresh_node", "refresh_all"]
    ),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=60),
)


class TestRefreshCertificates:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(steps=st.lists(STEPS, min_size=1, max_size=40))
    def test_certified_pass_matches_full_pass(self, steps):
        certified = build(skip_enabled=True)
        full = build(skip_enabled=False)
        assert_bookkeeping(certified)
        for step in steps:
            apply(certified, step)
            apply(full, step)
            assert_bookkeeping(certified)
            assert tables(certified) == tables(full)
            assert certified.rng.getstate() == full.rng.getstate()

    def test_storing_a_non_server_key_counts_it_stale(self):
        """A NAT client advertising itself lands in tables as a stale
        entry: counted on store, drawn on by the next refresh like any
        other stale key."""
        certified = build(skip_enabled=True)
        full = build(skip_enabled=False)
        for overlay in (certified, full):
            overlay.refresh_all()
        client = certified.online_nat_clients()[0]
        key = client.peer.dht_key
        before = {node: node.stale_entries for node in certified.online_servers()}
        certified.advertise_presence(client, attempts=60)
        full.advertise_presence(full.online_nat_clients()[0], attempts=60)
        holders = [n for n in certified.online_servers() if key in n.routing_table]
        assert holders
        for node in certified.online_servers():
            assert node.stale_entries == before[node] + (node in holders)
        assert_bookkeeping(certified)
        for overlay in (certified, full):
            overlay.refresh_all()
        assert_bookkeeping(certified)
        assert tables(certified) == tables(full)
        assert certified.rng.getstate() == full.rng.getstate()
        assert client.node_class is NodeClass.NAT_CLIENT
