"""The DHT crawler (paper §3).

It is possible to enumerate all DHT connections of a node through crafted
FIND_NODE messages, sweeping the address space towards the target node's
own address.  The crawler BFS-walks the network from bootstrap peers; for
every connectable peer it sweeps each k-bucket with a crafted key and
unions the responses, yielding the peer's complete outbound DHT view.
Unconnectable peers remain in the snapshot as discovered-but-uncrawlable
leaves.

The crawl itself is factored into two halves so that repeated crawls can
run on a process pool (see :mod:`repro.exec`):

* :func:`freeze_crawl_task` captures the overlay state a crawl can
  observe into a compact, picklable :class:`CrawlTask` (peers are
  interned to integer indices; only digests, DHT keys, addresses,
  dialability and routing-table edges travel);
* :func:`execute_crawl_task` is a *pure function* of that task.  All
  randomness comes from the task's own derived seed, and every internal
  set holds ``int`` indices (whose iteration order, unlike ``bytes``
  hashes, does not depend on ``PYTHONHASHSEED``), so the resulting
  snapshot is bit-identical no matter which process executes it.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exec.seeds import derive_seed
from repro.ids.keys import KEY_BITS, random_key_in_bucket, select_closest
from repro.ids.peerid import PeerID
from repro.netsim.network import Overlay
from repro.obs import observer as obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer, use_observer
from repro.obs.sketch import QuantileSketch
from repro.obs.trace import DEFAULT_CAPACITY, Tracer

#: The paper's crawl connection timeout (3 minutes).
DEFAULT_TIMEOUT = 180.0

#: Concurrent connection workers modelled for the duration estimate.
CRAWL_PARALLELISM = 1000


@dataclass
class CrawlObservation:
    """One peer as seen in one crawl."""

    peer: PeerID
    ips: Tuple[str, ...]
    crawlable: bool


@dataclass
class CrawlSnapshot:
    """One full sweep of the DHT."""

    crawl_id: int
    started_at: float
    duration: float = 0.0
    observations: Dict[PeerID, CrawlObservation] = field(default_factory=dict)
    #: outgoing DHT edges of every *crawled* peer.
    edges: Dict[PeerID, Tuple[PeerID, ...]] = field(default_factory=dict)
    requests_sent: int = 0

    @property
    def num_discovered(self) -> int:
        return len(self.observations)

    @property
    def num_crawlable(self) -> int:
        return sum(1 for obs in self.observations.values() if obs.crawlable)

    def peer_ip_rows(self) -> Iterator[Tuple[int, PeerID, str]]:
        """(crawl_id, peer, ip) rows — the Table 1 dataset shape."""
        for obs in self.observations.values():
            for ip in obs.ips:
                yield self.crawl_id, obs.peer, ip


@dataclass
class CrawlDataset:
    """All snapshots of a crawling campaign."""

    snapshots: List[CrawlSnapshot] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.snapshots)

    def add(self, snapshot: CrawlSnapshot) -> None:
        self.snapshots.append(snapshot)

    @classmethod
    def merge(cls, shards: Iterable[Sequence[CrawlSnapshot]]) -> "CrawlDataset":
        """K-way merge of per-worker snapshot shards into crawl order.

        Each shard must be internally ordered by ``crawl_id`` (true for
        any worker that processed tasks in submission order); the merge
        then restores the global campaign order exactly.
        """
        merged = heapq.merge(*shards, key=lambda snapshot: snapshot.crawl_id)
        return cls(snapshots=list(merged))

    def rows(self) -> Iterator[Tuple[int, PeerID, str]]:
        for snapshot in self.snapshots:
            yield from snapshot.peer_ip_rows()

    # -- §3 summary statistics ------------------------------------------------

    def avg_discovered(self) -> float:
        if not self.snapshots:
            return 0.0
        return sum(s.num_discovered for s in self.snapshots) / len(self.snapshots)

    def avg_crawlable(self) -> float:
        if not self.snapshots:
            return 0.0
        return sum(s.num_crawlable for s in self.snapshots) / len(self.snapshots)

    def unique_peer_ids(self) -> int:
        peers: Set[PeerID] = set()
        for snapshot in self.snapshots:
            peers.update(snapshot.observations)
        return len(peers)

    def unique_ips(self) -> int:
        ips: Set[str] = set()
        for snapshot in self.snapshots:
            for obs in snapshot.observations.values():
                ips.update(obs.ips)
        return len(ips)

    def avg_ips_per_peer(self) -> float:
        """Average number of distinct non-local IPs a peer announced
        across all crawls (the paper reports 1.82)."""
        per_peer: Dict[PeerID, Set[str]] = {}
        for snapshot in self.snapshots:
            for obs in snapshot.observations.values():
                per_peer.setdefault(obs.peer, set()).update(obs.ips)
        if not per_peer:
            return 0.0
        return sum(len(ips) for ips in per_peer.values()) / len(per_peer)


# ---------------------------------------------------------------------------
# the pure crawl task
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrawlTask:
    """Everything one crawl can observe, frozen into picklable plain data.

    Peers are interned: index ``i`` everywhere refers to the peer with
    digest ``peer_digests[i]`` and Kademlia key ``dht_keys[i]``.
    """

    crawl_id: int
    #: per-crawl derived seed (never shared RNG state).
    seed: int
    started_at: float
    timeout: float
    bootstrap_size: int
    k: int
    #: online DHT-server count at freeze time (drives the sweep depth).
    oracle_size: int
    peer_digests: Tuple[bytes, ...]
    dht_keys: Tuple[int, ...]
    #: last-announced non-circuit IPs per peer (stale peers keep theirs).
    ips: Tuple[Tuple[str, ...], ...]
    #: online DHT servers: index -> (reachable, response latency).
    servers: Dict[int, Tuple[bool, float]]
    #: routing-table contents of every online DHT server.
    tables: Dict[int, Tuple[int, ...]]
    #: bootstrap candidates: stable (platform) servers, and all servers.
    stable_pool: Tuple[int, ...]
    server_pool: Tuple[int, ...]


def freeze_crawl_task(
    overlay: Overlay,
    crawl_id: int,
    *,
    seed: int,
    timeout: float = DEFAULT_TIMEOUT,
    bootstrap_size: int = 8,
) -> CrawlTask:
    """Capture the crawl-observable overlay state at the current instant.

    Pure read — the overlay is not mutated and no shared RNG is drawn,
    so freezing is insensitive to how many crawls ran before.
    """
    # Peers are interned by DHT key, in first-seen order: each online
    # server, then the entries of its table (stale ones included).
    index_of: Dict[int, int] = {}
    servers: Dict[int, Tuple[bool, float]] = {}
    tables: Dict[int, Tuple[int, ...]] = {}
    stable_pool: List[int] = []
    server_pool: List[int] = []
    for node in overlay.online_servers():
        index = index_of.setdefault(node.peer.dht_key, len(index_of))
        server_pool.append(index)
        if node.spec.platform is not None:
            stable_pool.append(index)
        servers[index] = (node.reachable, node.response_latency)
        table = node.routing_table
        table_keys = table.keys() if table is not None else ()
        for key in table_keys:
            if key not in index_of:
                index_of[key] = len(index_of)
        tables[index] = tuple(map(index_of.__getitem__, table_keys))

    keys = list(index_of)
    peers = [overlay.peer_of(key) for key in keys]
    ips: List[Tuple[str, ...]] = []
    for peer in peers:
        info = overlay.last_info(peer)
        if info is None:
            ips.append(())
        else:
            ips.append(
                tuple(sorted({addr.ip for addr in info.addrs if not addr.is_circuit}))
            )

    return CrawlTask(
        crawl_id=crawl_id,
        seed=seed,
        started_at=overlay.now,
        timeout=timeout,
        bootstrap_size=bootstrap_size,
        k=overlay.k,
        oracle_size=len(overlay.oracle),
        peer_digests=tuple(peer.digest for peer in peers),
        dht_keys=tuple(keys),
        ips=tuple(ips),
        servers=servers,
        tables=tables,
        stable_pool=tuple(stable_pool),
        server_pool=tuple(server_pool),
    )


def _own_prefix_ranges(
    table_keys: List[int], own_key: int, k: int, deepest: int
) -> List[Tuple[int, int]]:
    """Entry ``p`` is the ``(low, high)`` slice of ``table_keys`` (sorted)
    sharing ``own_key``'s first ``p`` bits, for ``p = 0, 1, ...`` while
    the slice holds at least ``min(k, len(table_keys))`` keys, up to
    ``p = deepest``."""
    want = min(k, len(table_keys))
    low, high = 0, len(table_keys)
    ranges = [(low, high)]
    for prefix_len in range(1, deepest + 1):
        shift = KEY_BITS - prefix_len
        range_base = (own_key >> shift) << shift
        new_low = bisect_left(table_keys, range_base, low, high)
        new_high = bisect_left(table_keys, range_base + (1 << shift), new_low, high)
        if new_high - new_low < want:
            break
        low, high = new_low, new_high
        ranges.append((low, high))
    return ranges


def execute_crawl_task(task: CrawlTask) -> CrawlSnapshot:
    """Run one crawl as a pure function of its frozen task.

    BFS and bucket sweeps operate entirely on integer peer indices;
    :class:`PeerID` objects are only materialised for the final snapshot.
    """
    rng = random.Random(task.seed)
    keys = task.dht_keys
    index_of_key = {key: index for index, key in enumerate(keys)}
    if len(index_of_key) != len(keys):
        raise ValueError("DHT key collision between interned peers")
    pool = (
        task.stable_pool
        if len(task.stable_pool) >= task.bootstrap_size
        else task.server_pool
    )
    bootstrap = rng.sample(pool, min(task.bootstrap_size, len(pool))) if pool else []

    queue = deque(bootstrap)
    seen: Set[int] = set(bootstrap)
    #: index -> crawlable, in BFS discovery order.
    observations: Dict[int, bool] = {}
    edges: Dict[int, Tuple[int, ...]] = {}
    requests_sent = 0
    responsive_work = 0.0
    timeouts = 0
    had_unresponsive = False
    depth = int(math.log2(max(task.oracle_size, 2))) + 6
    sweep = min(depth, KEY_BITS)
    k = task.k

    tracer = obs.get_tracer()
    with tracer.span("crawl", crawl=task.crawl_id) as crawl_span:
        while queue:
            index = queue.popleft()
            requests_sent += 1
            server = task.servers.get(index)
            if server is None or not server[0] or server[1] > task.timeout:
                had_unresponsive = True
                timeouts += 1
                observations[index] = False
                if tracer.enabled:
                    tracer.event("crawl.peer", index=index, crawlable=False)
                continue
            responsive_work += server[1]
            own_key = keys[index]
            # Sorted once per peer; each bucket's FIND_NODE answer is then
            # an aligned-prefix slice, in the same XOR order a full sort
            # gives (keys are unique), so ``neighbors`` fills identically.
            table_keys = sorted(map(keys.__getitem__, task.tables.get(index, ())))
            # Bucket b's crafted key shares exactly b leading bits with
            # ``own_key``, so its selection starts from range b; past the
            # last range it shares the next bit too, whose range holds too
            # few keys, so it starts from the last range.  Once every
            # table key is in, an answer adds nothing: the key is still
            # drawn, the selection skipped.
            ranges = _own_prefix_ranges(table_keys, own_key, k, sweep - 1)
            last = len(ranges) - 1
            table_size = len(table_keys)
            neighbors: Set[int] = set()
            previous_size = -1
            for bucket_idx in range(sweep):
                crafted = random_key_in_bucket(own_key, bucket_idx, rng)
                if previous_size < table_size:  # a table key is not in yet
                    start = min(bucket_idx, last)
                    low, high = ranges[start]
                    closest = select_closest(table_keys, crafted, k, low, high, start + 1)
                    neighbors.update(map(index_of_key.__getitem__, closest))
                if len(neighbors) == previous_size and bucket_idx > depth - 4:
                    break
                previous_size = len(neighbors)
            neighbors.discard(index)
            requests_sent += max(1, len(neighbors) // k)
            observations[index] = True
            edges[index] = tuple(neighbors)
            if tracer.enabled:
                tracer.event(
                    "crawl.peer", index=index, crawlable=True, neighbors=len(neighbors)
                )
            for neighbor in edges[index]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        if tracer.enabled:
            crawl_span.note(
                discovered=len(observations),
                crawlable=len(edges),
                requests=requests_sent,
                timeouts=timeouts,
            )

    snapshot = CrawlSnapshot(crawl_id=task.crawl_id, started_at=task.started_at)
    # Every edge endpoint was queued, so it is observed.
    digests = task.peer_digests
    peers = {index: PeerID(digests[index]) for index in observations}
    for index, crawlable in observations.items():
        peer = peers[index]
        snapshot.observations[peer] = CrawlObservation(peer, task.ips[index], crawlable)
    for index, neighbor_indices in edges.items():
        snapshot.edges[peers[index]] = tuple(map(peers.__getitem__, neighbor_indices))
    snapshot.requests_sent = requests_sent
    # Duration model: responsive work spreads over the worker pool; the
    # final worker batch waits out one full timeout on unresponsive
    # peers (matching the paper's "latter half spent waiting").
    snapshot.duration = responsive_work / CRAWL_PARALLELISM + (
        task.timeout if had_unresponsive else 0.0
    )
    crawlable = len(edges)
    obs.inc("crawl.crawls")
    obs.inc("crawl.requests", requests_sent)
    obs.inc("crawl.timeouts", timeouts)
    obs.inc("crawl.discovered", len(observations))
    obs.inc("crawl.crawlable", crawlable)
    obs.observe("crawl.contacted_peers", crawlable + timeouts)
    return snapshot


@dataclass
class CrawlOutcome:
    """One crawl's snapshot plus what its private sinks collected.

    ``metrics`` is a registry snapshot, ``trace`` a trace record list and
    ``stream`` a sketch state; each is ``None`` when that sink was off.
    The campaign folds outcomes in with
    :meth:`repro.obs.observer.Observer.merge`, in crawl order.
    """

    snapshot: CrawlSnapshot
    metrics: Optional[Dict[str, object]] = None
    trace: Optional[List[Dict[str, object]]] = None
    stream: Optional[Dict[str, object]] = None


def collect_crawl(
    task: CrawlTask,
    crawl_fn: Callable[[CrawlTask], CrawlSnapshot] = execute_crawl_task,
    metrics: bool = False,
    trace: bool = False,
    stream: bool = False,
    trace_sample: int = 1,
    trace_capacity: int = DEFAULT_CAPACITY,
) -> CrawlOutcome:
    """Run one crawl, collecting the requested sinks privately.

    Metrics and trace go into a fresh registry and tracer installed for
    the crawl alone, so nothing mixes with whatever observer a worker
    inherited at fork.  The tracer is per-task — origin ``crawl-<id>``,
    seed derived from the task's own seed, sim clock frozen at the
    task's freeze instant — so its records are a pure function of the
    task.  The stream state is derived from the finished snapshot: the
    out-degree sketch (Fig. 7's CCDF quantity) in BFS discovery order,
    with no extra randomness.  With every sink off the crawl runs under
    the installed observer unchanged.
    """
    registry = MetricsRegistry() if metrics else None
    tracer = None
    if trace:
        tracer = Tracer(
            origin=f"crawl-{task.crawl_id}",
            seed=derive_seed(task.seed, "trace"),
            sample=trace_sample,
            capacity=trace_capacity,
            clock=lambda: task.started_at,
        )
    if registry is None and tracer is None:
        snapshot = crawl_fn(task)
    else:
        with use_observer(Observer(registry, tracer)):
            snapshot = crawl_fn(task)
    state = None
    if stream:
        degree = QuantileSketch()
        for neighbors in snapshot.edges.values():
            degree.update(float(len(neighbors)))
        state = {
            "degree": degree.to_state(),
            "crawls": 1,
            "discovered": snapshot.num_discovered,
            "crawlable": len(snapshot.edges),
        }
    return CrawlOutcome(
        snapshot,
        metrics=registry.snapshot() if registry is not None else None,
        trace=tracer.records() if tracer is not None else None,
        stream=state,
    )


class DHTCrawler:
    """Crawls the simulated overlay exactly like the trudi-group crawler.

    Every crawl draws from its own RNG stream derived as
    ``derive_seed(root_seed, crawl_id)``, so crawl ``i`` is independent
    of how many crawls ran before it — the property that lets a campaign
    fan crawls out over worker processes without changing the science.
    """

    def __init__(
        self,
        overlay: Overlay,
        timeout: float = DEFAULT_TIMEOUT,
        bootstrap_size: int = 8,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.overlay = overlay
        self.timeout = timeout
        self.bootstrap_size = bootstrap_size
        if seed is None:
            # Back-compat: callers that passed an rng get a root seed
            # drawn from it once; the default ties to the world seed.
            seed = (
                rng.getrandbits(64)
                if rng is not None
                else overlay.world.profile.seed + 9
            )
        self.seed = seed

    def task(self, crawl_id: int) -> CrawlTask:
        """Freeze the crawl task for ``crawl_id`` at the current instant."""
        return freeze_crawl_task(
            self.overlay,
            crawl_id,
            seed=derive_seed(self.seed, "crawl", crawl_id),
            timeout=self.timeout,
            bootstrap_size=self.bootstrap_size,
        )

    def crawl(self, crawl_id: int) -> CrawlSnapshot:
        """One snapshot: BFS from the bootstrap peers."""
        return execute_crawl_task(self.task(crawl_id))

    def campaign(
        self, num_crawls: int, interval_seconds: float, run_between=None
    ) -> CrawlDataset:
        """Run ``num_crawls`` crawls spaced ``interval_seconds`` apart.

        ``run_between(crawl_index)`` lets the caller advance the simulated
        world between snapshots (churn, traffic, ...).
        """
        dataset = CrawlDataset()
        for index in range(num_crawls):
            dataset.add(self.crawl(index))
            if index < num_crawls - 1:
                if run_between is not None:
                    run_between(index)
                else:
                    self.overlay.scheduler.run_until(self.overlay.now + interval_seconds)
        return dataset
