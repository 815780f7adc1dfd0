"""Runtime injection of adversarial actors into a running campaign.

The orchestrator owns one runtime per configured attack.  Each runtime
gets its own RNG derived from the campaign seed
(``derive_rng(seed, "attack", name, position)``), so

* attack-off campaigns draw zero extra randomness and stay bit-identical
  to the goldens (attacker specs carry ``activity_weight=0``, so the
  honest traffic engine's Poisson draws for them are skipped without a
  single RNG call), and
* attack-on campaigns are reproducible and workers=1 ≡ workers=N — every
  attack step runs in the main process alongside the tick loop, exactly
  like the honest traffic engine.

Attacker nodes are real :class:`~repro.world.population.NodeSpec` s on
freshly allocated cloud IP blocks: they join the overlay, the oracle and
the monitors' field of view through the same mechanics as honest nodes,
so crawls, in-degree analyses and the detection features all see them
with no special-casing.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set

from repro.attack.config import (
    AttackConfig,
    BitswapFloodConfig,
    ChurnBombConfig,
    HydraAmplificationConfig,
    ProviderSpamConfig,
    SybilEclipseConfig,
)
from repro.attack.ground_truth import GroundTruthLog
from repro.workload.engine import TrafficEngine
from repro.exec.seeds import derive_rng
from repro.ids.cid import CID
from repro.ids.keys import KEY_BITS, common_prefix_len
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageType
from repro.kademlia.providers import ProviderRecord
from repro.monitors.bitswap_monitor import BitswapMonitor
from repro.netsim.clock import SECONDS_PER_HOUR
from repro.netsim.network import Overlay
from repro.netsim.node import Node
from repro.netsim.sampling import poisson
from repro.obs import observer as obs
from repro.world.population import NodeClass, NodeSpec
from repro.world.profiles import BehaviorProfile

#: Attackers run dedicated, never-rotating VPS instances; their sessions
#: are driven entirely by the attack windows, not by churn sampling.
ATTACKER_BEHAVIOR = BehaviorProfile(
    mean_session_hours=24.0 * 365.0,
    mean_gap_hours=0.01,
    ip_rotation_prob=0.0,
    peerid_regen_prob=0.0,
    extra_addr_probs=(1.0, 0.0, 0.0),
    daily_ip_rotation_prob=0.0,
)

ATTACKER_ORGANISATION = "attack-vps"
ATTACKER_COUNTRY = "NL"


def mint_peer_near(target_key: int, prefix_bits: int, rng: random.Random) -> PeerID:
    """Grind peer IDs until one lands within ``prefix_bits`` of the target.

    Expected cost is ``2**prefix_bits`` tries — the same brute force a
    real Sybil attacker pays, just over sha256 of random seeds here.
    """
    while True:
        peer = PeerID.generate(rng)
        if common_prefix_len(peer.dht_key, target_key) >= prefix_bits:
            return peer


class _AttackRuntime:
    """Lifecycle shared by all attacks: install → activate → step → stop."""

    def __init__(self, orch: "AttackOrchestrator", config: AttackConfig, rng: random.Random):
        self.orch = orch
        self.config = config
        self.rng = rng
        self.nodes: List[Node] = []
        self.active = False

    # -- hooks ---------------------------------------------------------

    def install(self) -> None:
        """Build-time setup: mint nodes and identities, tag ground truth."""

    def activate(self, now: float) -> None:
        for node in self.nodes:
            self.orch.overlay.bring_online(node)

    def step(self, now: float, hours: float) -> None:
        """One traffic tick while the attack window is open."""

    def deactivate(self, now: float) -> None:
        for node in self.nodes:
            self.orch.overlay.take_offline(node)

    def summary(self) -> Dict[str, float]:
        return {}

    # -- driver --------------------------------------------------------

    def advance(self, now: float, hours: float) -> None:
        config = self.config
        if self.active and now >= config.end_time:
            self.deactivate(now)
            self.active = False
        if not self.active and config.start_time <= now < config.end_time:
            self.activate(now)
            self.active = True
        if self.active:
            self.step(now, hours)


class SybilEclipseRuntime(_AttackRuntime):
    """Ground sybils into the victim's keyspace region, then scout it."""

    config: SybilEclipseConfig

    def install(self) -> None:
        config = self.config
        self.victim = CID.generate(self.rng)
        self.lookups = 0
        self.eclipse_share_max = 0.0
        self.nodes = self.orch.add_attacker_nodes(config.num_attackers)
        self.sybil_peers: Set[PeerID] = set()
        for node in self.nodes:
            peer = mint_peer_near(self.victim.dht_key, config.prefix_bits, self.rng)
            self.orch.overlay.adopt_identity(node, peer)
            self.sybil_peers.add(peer)
            self.orch.tag_attacker(config, peer)
        self.orch.tag_victim(config, self.victim)

    def step(self, now: float, hours: float) -> None:
        config = self.config
        shift = KEY_BITS - config.prefix_bits
        prefix_base = (self.victim.dht_key >> shift) << shift
        contacts = self.orch.engine.config.other_walk_contacts
        for node in self.nodes:
            for _ in range(poisson(config.lookups_per_hour * hours, self.rng)):
                target_key = prefix_base | self.rng.getrandbits(shift)
                self.orch.log_walk(
                    node, MessageType.FIND_NODE, contacts, self.rng, target_key=target_key
                )
                self.lookups += 1
        resolvers = self.orch.overlay.resolvers_for(self.victim)
        if resolvers:
            share = sum(1 for peer in resolvers if peer in self.sybil_peers) / len(resolvers)
            self.eclipse_share_max = max(self.eclipse_share_max, share)
        obs.set_gauge("attack.sybil_eclipse.eclipse_share_max", self.eclipse_share_max)

    def summary(self) -> Dict[str, float]:
        return {
            "lookups": float(self.lookups),
            "eclipse_share_max": self.eclipse_share_max,
        }


class ProviderSpamRuntime(_AttackRuntime):
    """Poison the hottest CIDs' provider sets with bogus records."""

    config: ProviderSpamConfig

    def install(self) -> None:
        self.nodes = self.orch.add_attacker_nodes(self.config.num_attackers)
        self.fake_providers: Set[PeerID] = set()
        self.targets: List[CID] = []
        self.publishes = 0
        self.pollution_share_max = 0.0
        for node in self.nodes:
            peer = PeerID.generate(self.rng)
            self.orch.overlay.adopt_identity(node, peer)
            self.orch.tag_attacker(self.config, peer)

    def activate(self, now: float) -> None:
        super().activate(now)
        # Target the most popular alive content — where poisoning hurts.
        day = int(now // (24 * SECONDS_PER_HOUR))
        alive = self.orch.catalog.alive_items(day)
        alive.sort(key=lambda item: (-item.weight, item.cid.digest))
        self.targets = [item.cid for item in alive[: self.config.target_cids]]
        for cid in self.targets:
            self.orch.tag_victim(self.config, cid)

    def step(self, now: float, hours: float) -> None:
        config = self.config
        overlay = self.orch.overlay
        contacts = self.orch.engine.config.advert_walk_contacts
        if not self.targets:
            return
        for node in self.nodes:
            addrs = node.addr_tuple()
            for _ in range(poisson(config.publishes_per_hour * hours, self.rng)):
                fake = PeerID.generate(self.rng)
                self.fake_providers.add(fake)
                cid = self.rng.choice(self.targets)
                overlay.providers.add(
                    ProviderRecord(cid=cid, provider=fake, addrs=addrs, published_at=now)
                )
                self.orch.log_walk(node, MessageType.ADD_PROVIDER, contacts, self.rng, cid=cid)
                self.publishes += 1
        polluted = total = 0
        for cid in self.targets:
            for record in overlay.providers.get(cid, now):
                total += 1
                if record.provider in self.fake_providers:
                    polluted += 1
        if total:
            self.pollution_share_max = max(self.pollution_share_max, polluted / total)
        obs.set_gauge("attack.provider_spam.pollution_share_max", self.pollution_share_max)

    def summary(self) -> Dict[str, float]:
        return {
            "publishes": float(self.publishes),
            "fake_providers": float(len(self.fake_providers)),
            "pollution_share_max": self.pollution_share_max,
        }


class BitswapFloodRuntime(_AttackRuntime):
    """Blast junk want-have broadcasts at the passive Bitswap monitor."""

    config: BitswapFloodConfig

    def install(self) -> None:
        self.nodes = self.orch.add_attacker_nodes(self.config.num_attackers)
        self.broadcasts = 0
        for node in self.nodes:
            peer = PeerID.generate(self.rng)
            self.orch.overlay.adopt_identity(node, peer)
            self.orch.tag_attacker(self.config, peer)

    def step(self, now: float, hours: float) -> None:
        monitor = self.orch.monitor
        for node in self.nodes:
            for _ in range(poisson(self.config.broadcasts_per_hour * hours, self.rng)):
                monitor.observe_broadcast(now, node, CID.generate(self.rng))
                self.broadcasts += 1
        obs.set_gauge("attack.bitswap_flood.broadcasts", self.broadcasts)

    def summary(self) -> Dict[str, float]:
        return {"broadcasts": float(self.broadcasts)}


class HydraAmplificationRuntime(_AttackRuntime):
    """Cheap cache-missing requests weaponize the fleet's lookups (§5)."""

    config: HydraAmplificationConfig

    def install(self) -> None:
        self.nodes = self.orch.add_attacker_nodes(self.config.num_attackers)
        self.requests = 0
        self.induced_walks = 0
        self._induced_tagged: Set[PeerID] = set()
        for node in self.nodes:
            peer = PeerID.generate(self.rng)
            self.orch.overlay.adopt_identity(node, peer)
            self.orch.tag_attacker(self.config, peer)

    def step(self, now: float, hours: float) -> None:
        engine = self.orch.engine
        contacts = engine.config.download_walk_contacts
        for node in self.nodes:
            for _ in range(poisson(self.config.requests_per_hour * hours, self.rng)):
                # A fresh CID guarantees a fleet cache miss: maximum
                # amplification for one request's worth of effort.
                cid = CID.generate(self.rng)
                self.orch.log_walk(node, MessageType.GET_PROVIDERS, contacts, self.rng, cid=cid)
                self.requests += 1
                for fleet_node in engine.induced_amplification(cid, self.rng):
                    self.orch.log_walk(
                        fleet_node, MessageType.GET_PROVIDERS, contacts, self.rng, cid=cid
                    )
                    self.induced_walks += 1
                    peer = fleet_node.peer
                    if peer is not None and peer not in self._induced_tagged:
                        self._induced_tagged.add(peer)
                        self.orch.tag_induced(self.config, peer)
        obs.set_gauge("attack.hydra_amplification.induced_walks", self.induced_walks)

    def summary(self) -> Dict[str, float]:
        return {
            "requests": float(self.requests),
            "induced_walks": float(self.induced_walks),
            "amplification": self.induced_walks / self.requests if self.requests else 0.0,
        }


class ChurnBombRuntime(_AttackRuntime):
    """Scheduler-driven join/leave waves under ever-fresh identities."""

    config: ChurnBombConfig

    def install(self) -> None:
        self.nodes = self.orch.add_attacker_nodes(self.config.num_attackers)
        self.joins = 0

    def activate(self, now: float) -> None:
        # Sessions come from the scheduled waves, not from a base join.
        pass

    def step(self, now: float, hours: float) -> None:
        # Lay this tick's waves onto the event scheduler; the campaign's
        # run_until interleaves them with honest churn sub-tick.
        scheduler = self.orch.overlay.scheduler
        cycles = max(1, self.config.cycles_per_tick)
        wave = hours * SECONDS_PER_HOUR / (2 * cycles)
        for cycle in range(cycles):
            scheduler.schedule_in((2 * cycle + 0.5) * wave, self._join_wave)
            scheduler.schedule_in((2 * cycle + 1.5) * wave, self._leave_wave)

    def _join_wave(self) -> None:
        if not self.active:
            return
        overlay = self.orch.overlay
        contacts = self.orch.engine.config.other_walk_contacts
        for node in self.nodes:
            if node.online:
                continue
            peer = PeerID.generate(self.rng)
            overlay.adopt_identity(node, peer)
            self.orch.tag_attacker(self.config, peer, timestamp=overlay.now)
            overlay.bring_online(node)
            self.orch.log_walk(node, MessageType.FIND_NODE, contacts, self.rng)
            self.joins += 1
        obs.set_gauge("attack.churn_bomb.joins", self.joins)

    def _leave_wave(self) -> None:
        for node in self.nodes:
            self.orch.overlay.take_offline(node)

    def summary(self) -> Dict[str, float]:
        return {"joins": float(self.joins)}


_RUNTIME_TYPES = {
    SybilEclipseConfig: SybilEclipseRuntime,
    ProviderSpamConfig: ProviderSpamRuntime,
    BitswapFloodConfig: BitswapFloodRuntime,
    HydraAmplificationConfig: HydraAmplificationRuntime,
    ChurnBombConfig: ChurnBombRuntime,
}


class AttackOrchestrator:
    """Owns the attack runtimes and the ground-truth log of a campaign."""

    def __init__(
        self,
        overlay: Overlay,
        engine: TrafficEngine,
        monitor: BitswapMonitor,
        catalog,
        attacks: Sequence[AttackConfig],
        seed: int,
        store=None,
    ) -> None:
        self.overlay = overlay
        self.engine = engine
        self.monitor = monitor
        self.catalog = catalog
        self.ground_truth = GroundTruthLog(store)
        self.runtimes: List[_AttackRuntime] = []
        for position, config in enumerate(attacks):
            runtime_cls = _RUNTIME_TYPES.get(type(config))
            if runtime_cls is None:
                raise ValueError(f"no runtime for attack config {type(config).__name__}")
            rng = derive_rng(seed, "attack", config.name, position)
            self.runtimes.append(runtime_cls(self, config, rng))

    # -- shared helpers for the runtimes --------------------------------

    def add_attacker_nodes(self, count: int) -> List[Node]:
        """Mint ``count`` attacker specs on a fresh cloud block and
        register them with the world and the overlay (offline)."""
        world = self.overlay.world
        block = world.allocator.allocate_block(
            ATTACKER_ORGANISATION, ATTACKER_COUNTRY, is_cloud=True
        )
        nodes = []
        next_index = max(spec.index for spec in world.specs) + 1
        for offset in range(count):
            spec = NodeSpec(
                index=next_index + offset,
                node_class=NodeClass.CLOUD_STABLE,
                organisation=ATTACKER_ORGANISATION,
                country=ATTACKER_COUNTRY,
                blocks=(block,),
                behavior=ATTACKER_BEHAVIOR,
                # Zero weight: the honest traffic engine never draws RNG
                # for these nodes, so honest streams stay undisturbed.
                activity_weight=0.0,
            )
            world.specs.append(spec)
            nodes.append(self.overlay.add_node(spec))
        return nodes

    def log_walk(
        self,
        node: Node,
        message_type: MessageType,
        contacts: int,
        rng: random.Random,
        cid: Optional[CID] = None,
        target_key: Optional[int] = None,
    ) -> None:
        """Capture-sample an attack walk into the Hydra log.

        The honest engine's capture (the monitor sees ``heads/servers``
        of every walk's messages), drawn from the attack RNG.
        """
        captured = self.engine._log_dht(
            node, message_type, cid, contacts, rng=rng, target_key=target_key
        )
        if captured:
            obs.inc("attack.walks_logged", captured)

    def tag_attacker(
        self, config: AttackConfig, peer: PeerID, timestamp: Optional[float] = None
    ) -> None:
        self.ground_truth.record(
            timestamp if timestamp is not None else config.start_time,
            config.name,
            "attacker",
            peer=peer,
        )

    def tag_induced(self, config: AttackConfig, peer: PeerID) -> None:
        self.ground_truth.record(self.overlay.now, config.name, "induced", peer=peer)

    def tag_victim(self, config: AttackConfig, cid: CID) -> None:
        self.ground_truth.record(config.start_time, config.name, "victim", cid=cid)

    # -- campaign lifecycle ---------------------------------------------

    def install(self) -> None:
        """Build-time hook: mint attacker nodes, identities, windows."""
        for runtime in self.runtimes:
            config = runtime.config
            self.ground_truth.record(
                config.start_time, config.name, "window", end=config.end_time
            )
            runtime.install()

    def on_tick(self, hours: float) -> None:
        """Per-tick hook, called right after the honest traffic tick."""
        now = self.overlay.now
        for runtime in self.runtimes:
            runtime.advance(now, hours)

    def finish(self) -> None:
        """End-of-campaign hook: close open windows, flush ground truth."""
        now = self.overlay.now
        for runtime in self.runtimes:
            if runtime.active:
                runtime.deactivate(now)
                runtime.active = False
        self.ground_truth.flush()

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {runtime.config.name: runtime.summary() for runtime in self.runtimes}
