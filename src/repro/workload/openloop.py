"""The open-loop session driver: users, not nodes, generate load.

The closed-loop engine ties request volume to the online node count —
every node draws a Poisson number of requests per tick.  Real IPFS load
is open-loop: an external *user* population opens sessions against the
network (mostly through gateways), and volume follows the users, not the
peer count.  Costa et al. ("Studying the workload of a fully
decentralized Web3 system: IPFS") characterize that traffic as skewed
Zipf CID popularity, bursty ON/OFF sessions with heavy-tailed request
trains, and a pronounced diurnal cycle — the three models this driver
composes:

* **arrivals** — Poisson session arrivals at
  ``users * arrivals_per_user_hour`` per hour, modulated by the
  :mod:`~repro.workload.diurnal` curve.  ``users`` is a pure intensity
  knob: a million users is one config value, not a million objects.
* **sessions** — each arrival picks a node class (gateway-heavy mix),
  an online node of that class, a heavy-tailed Pareto duration and a
  heavy-tailed request-train size (:mod:`~repro.workload.sessions`).
* **popularity** — each request draws missing/platform/user content by
  calibrated shares, then a CID by per-class Zipf rank
  (:mod:`~repro.workload.popularity`), rebuilt daily from the live
  catalog.

Determinism: all driver randomness comes from
``derive_rng(seed, "workload", "openloop")`` — never the engine RNG, so
crawl workers can't perturb it (workers=1 ≡ N) — with a fixed
uniform-consumption layout: one :func:`~repro.netsim.sampling.poisson`
arrival draw per tick, six uniforms per session (class, node, start,
duration, train, publish), two per request (offset, CID).  Scheduled
events execute in ``(time, seq)`` heap order through the engine's own
download and publish calls.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.exec.seeds import derive_rng
from repro.netsim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.netsim.sampling import poisson
from repro.workload.diurnal import diurnal_factor
from repro.workload.popularity import ZipfPopularity, rank_by_weight
from repro.workload.sessions import duration_scale, pareto_duration, train_size
from repro.world.population import NodeClass

#: Heap-entry kinds; publishes of a batch are scheduled (and tie-break)
#: before requests.
_PUBLISH = 0
_REQUEST = 1


class OpenLoopDriver:
    """Session-based request stream feeding a bound traffic engine.

    One driver instance per campaign, installed with
    :meth:`~repro.workload.engine.TrafficEngine.attach_open_loop`.
    """

    def __init__(self, spec, seed: int) -> None:
        self.spec = spec
        self.rng = derive_rng(seed, "workload", "openloop")
        #: pending scheduled events: (time, seq, kind, node_index, cls, item)
        self._pending: List[Tuple] = []
        self._seq = 0
        #: end times of sessions considered active (for the gauge only).
        self._session_ends: List[float] = []
        self._pop_day: Optional[int] = None
        self._platform_pop: Optional[ZipfPopularity] = None
        self._user_pop: Optional[ZipfPopularity] = None
        # Class-mix inverse-CDF thresholds (scalar Python floats).
        self._mix_classes = [cls for cls, _ in spec.class_mix]
        cumulative: List[float] = []
        total = 0.0
        for _, weight in spec.class_mix:
            total += weight
            cumulative.append(total)
        self._mix_cum = cumulative
        self._mix_total = total
        self._duration_scale = duration_scale(
            spec.mean_session_minutes * 60.0, spec.duration_alpha
        )
        #: ``onoff`` spreads trains over the session; ``burst`` fires
        #: them at the session start (offset uniform still drawn, times
        #: zero — identical stream layout either way).
        self._spread = spec.sessions != "burst"
        self.cid_requests: Dict = {}
        self.stats = {
            "arrivals": 0,
            "sessions": 0,
            "sessions_dropped_empty_pool": 0,
            "active_sessions": 0,
            "open_requests": 0,
            "open_publishes": 0,
            "requests_dropped_offline": 0,
            "requests_missing": 0,
            "requests_platform": 0,
            "requests_user": 0,
            "zipf_draws_platform": 0,
            "zipf_draws_user": 0,
        }
        self.requests_by_class: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # the per-tick driver
    # ------------------------------------------------------------------

    def run_tick(self, engine, hours: float) -> None:
        """Generate ``hours`` of open-loop user traffic on ``engine``."""
        day = engine.overlay_clock_day
        if day != self._pop_day:
            self._rebuild_popularity(engine.catalog, day)
        now = engine.overlay.now
        self._arrive(now, hours, lambda: self._class_pools(engine))
        self._drain_due(now + hours * SECONDS_PER_HOUR, engine)

    def _arrive(self, now: float, hours: float, pools: Callable[[], Dict]) -> None:
        """One arrival step: expire ended sessions, draw this tick's
        diurnally scaled Poisson arrivals, then draw and schedule their
        sessions over the node pools (``pools()`` is only built when
        something arrives)."""
        spec = self.spec
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
            sessions = self._draw_sessions(count, pools(), now, hours)
            self._schedule(sessions)
        self.stats["active_sessions"] = len(self._session_ends)

    def _class_pools(self, engine) -> Dict[NodeClass, List[int]]:
        """Online spec indexes per session class, in spec order."""
        pools = {cls: [] for cls in self._mix_classes}
        for node in engine.overlay.nodes:
            if node.online:
                pool = pools.get(node.node_class)
                if pool is not None:
                    pool.append(node.spec.index)
        return pools

    def _draw_sessions(self, count: int, pools, t0: float, hours: float) -> List[Tuple]:
        """Phase 1: six uniforms per arrival (class, node, start,
        duration, train, publish)."""
        spec = self.spec
        rnd = self.rng.random
        us = [rnd() for _ in range(6 * count)]
        max_duration = spec.max_session_hours * SECONDS_PER_HOUR
        tick_span = hours * SECONDS_PER_HOUR
        sessions = []
        sessions_stat = 0
        dropped = 0
        for position in range(count):
            base = 6 * position
            u_class = us[base]
            u_node = us[base + 1]
            u_start = us[base + 2]
            u_duration = us[base + 3]
            u_train = us[base + 4]
            u_publish = us[base + 5]
            cls = self._mix_classes[
                min(
                    bisect.bisect_left(self._mix_cum, u_class * self._mix_total),
                    len(self._mix_classes) - 1,
                )
            ]
            pool = pools[cls]
            if not pool:
                dropped += 1
                continue
            node_index = pool[int(u_node * len(pool))]
            start = t0 + u_start * tick_span
            duration = pareto_duration(
                u_duration, self._duration_scale, spec.duration_alpha, max_duration
            )
            train = train_size(u_train, spec.mean_train, spec.train_alpha, spec.max_train)
            publish = u_publish < spec.publish_prob
            sessions.append((node_index, cls.name, start, duration, train, publish))
            sessions_stat += 1
            heapq.heappush(self._session_ends, start + duration)
        self.stats["sessions"] += sessions_stat
        self.stats["sessions_dropped_empty_pool"] += dropped
        return sessions

    def _schedule(self, sessions: List[Tuple]) -> None:
        """Phase 2: two uniforms per request (offset, CID); heap insert.

        Publishes of the batch are pushed first so they sort ahead of
        same-instant requests; every event carries its absolute time and
        a monotone sequence number, making execution order independent
        of heap internals.
        """
        for node_index, cls_name, start, _, _, publish in sessions:
            if publish:
                self._push(start, _PUBLISH, node_index, cls_name, None)
        rnd = self.rng.random
        for node_index, cls_name, start, duration, train, _ in sessions:
            span = duration if self._spread else 0.0
            for _ in range(train):
                u_offset = rnd()
                u_cid = rnd()
                time = start + u_offset * span
                item = self._choose_item(u_cid)
                self._push(time, _REQUEST, node_index, cls_name, item)

    def _choose_item(self, u: float):
        """The CID one request uniform picks (``None``: missing content)."""
        spec = self.spec
        m = spec.missing_prob
        t2 = m + (1.0 - m) * spec.platform_share
        if u < m:
            return None
        if u < t2:
            pop = self._platform_pop
            if pop is None or not len(pop):
                return None
            self.stats["zipf_draws_platform"] += 1
            return pop.sample((u - m) / (t2 - m))
        pop = self._user_pop
        if pop is None or not len(pop):
            return None
        self.stats["zipf_draws_user"] += 1
        return pop.sample((u - t2) / (1.0 - t2))

    def _push(self, time: float, kind: int, node_index: int, cls_name: str, item) -> None:
        heapq.heappush(self._pending, (time, self._seq, kind, node_index, cls_name, item))
        self._seq += 1

    def _drain_due(self, t_end: float, engine=None) -> int:
        """Execute every scheduled event due by ``t_end``, in time order,
        and return how many requests ran.

        The engine RNG draws happen here, in ``(time, seq)`` order.  With
        no ``engine`` (a dry run) every event is only counted.
        """
        pending = self._pending
        stats = self.stats
        nodes = engine.overlay.nodes if engine is not None else None
        executed = 0
        while pending and pending[0][0] <= t_end:
            _, _, kind, node_index, cls_name, item = heapq.heappop(pending)
            if engine is not None:
                node = nodes[node_index]
                if not node.online:
                    stats["requests_dropped_offline"] += 1
                    continue
                if kind == _PUBLISH:
                    engine.publish(node)
                else:
                    engine.open_download(node, item)
            if kind == _PUBLISH:
                stats["open_publishes"] += 1
                continue
            stats["open_requests"] += 1
            self._count_request(cls_name, item)
            executed += 1
        return executed

    def _count_request(self, cls_name: str, item) -> None:
        by_class = self.requests_by_class
        by_class[cls_name] = by_class.get(cls_name, 0) + 1
        if item is None:
            self.stats["requests_missing"] += 1
            return
        if isinstance(item.publisher, str):
            self.stats["requests_platform"] += 1
        else:
            self.stats["requests_user"] += 1
        self.cid_requests[item.cid] = self.cid_requests.get(item.cid, 0) + 1

    # ------------------------------------------------------------------
    # popularity
    # ------------------------------------------------------------------

    def _rebuild_popularity(self, catalog, day: int) -> None:
        """Daily Zipf rebuild: rank the live catalog per content class."""
        alive = catalog.alive_items(day)
        platform_items = [item for item in alive if isinstance(item.publisher, str)]
        user_items = [item for item in alive if not isinstance(item.publisher, str)]
        self._platform_pop = ZipfPopularity(
            rank_by_weight(platform_items), self.spec.s_platform
        )
        self._user_pop = ZipfPopularity(rank_by_weight(user_items), self.spec.s)
        self._pop_day = day

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def headline_shares(self) -> Dict[str, float]:
        """Calibration headlines in the shape of Costa et al.'s tables."""
        executed = self.stats["open_requests"]
        if executed <= 0:
            return {
                "missing_share": 0.0,
                "platform_share": 0.0,
                "user_share": 0.0,
                "gateway_share": 0.0,
                "top1pct_request_share": 0.0,
            }
        counts = sorted(self.cid_requests.values(), reverse=True)
        resolved = sum(counts)
        top = max(1, int(len(counts) * 0.01)) if counts else 0
        top_share = (sum(counts[:top]) / resolved) if resolved else 0.0
        return {
            "missing_share": self.stats["requests_missing"] / executed,
            "platform_share": self.stats["requests_platform"] / executed,
            "user_share": self.stats["requests_user"] / executed,
            "gateway_share": self.requests_by_class.get("GATEWAY", 0) / executed,
            "top1pct_request_share": top_share,
        }


def sample_workload(
    spec,
    seed: int = 2023,
    hours: int = 24,
    catalog_size: int = 4000,
    pool_size: int = 64,
) -> Dict:
    """Dry-run the driver against a synthetic catalog — no overlay.

    Backs ``repro workload sample``: the driver's own arrival step and
    drain run hour by hour with every "execution" just counted, so a
    spec's calibrated shapes (request volume, diurnal curve, per-class
    mix, Zipf skew) can be inspected in milliseconds before committing
    to a campaign.
    """
    from repro.content.catalog import ContentCatalog

    driver = OpenLoopDriver(spec, seed)
    # Synthetic two-class catalog with the engine's own popularity law.
    catalog = ContentCatalog(rng=derive_rng(seed, "workload", "synthetic"))
    catalog.mint_platform_set("sample-platform", max(1, catalog_size // 2))
    for position in range(max(1, catalog_size - catalog_size // 2)):
        catalog.mint_user_item(0, position)
    driver._rebuild_popularity(catalog, 0)
    pools = {cls: list(range(pool_size)) for cls in driver._mix_classes}
    per_hour: List[int] = []
    for hour in range(int(hours)):
        now = hour * SECONDS_PER_HOUR
        driver._arrive(now, 1.0, lambda: pools)
        per_hour.append(driver._drain_due(now + SECONDS_PER_HOUR))
    shares = driver.headline_shares()
    return {
        "hours": int(hours),
        "stats": dict(driver.stats),
        "requests_by_class": dict(driver.requests_by_class),
        "requests_per_hour": per_hour,
        "headline_shares": shares,
        "distinct_cids": len(driver.cid_requests),
    }
