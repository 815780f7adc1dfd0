"""Churn: session/gap processes, IP rotation, peer-ID regeneration.

The paper's central methodological point (§3/§4) is that non-cloud nodes
are short-lived and frequently change their IP addresses, which inflates
their apparent share under unique-IP counting.  This module *generates*
that behaviour: every spec alternates exponential online sessions and
offline gaps; on each rejoin it rotates its IP and/or regenerates its
peer ID with class-specific probabilities.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.netsim.clock import SECONDS_PER_HOUR
from repro.netsim.network import Overlay
from repro.netsim.node import Node
from repro.world.population import NodeClass


class ChurnProcess:
    """Drives session lifecycles for every node in an overlay."""

    def __init__(self, overlay: Overlay, rng: Optional[random.Random] = None) -> None:
        self.overlay = overlay
        self.rng = rng or random.Random(overlay.world.profile.seed + 2)
        self.joins = 0
        self.leaves = 0

    def _exp_hours(self, mean_hours: float) -> float:
        return self.rng.expovariate(1.0 / mean_hours) * SECONDS_PER_HOUR

    def start(self) -> None:
        """Schedule the first transition for every spec.

        Exponential holding times are memoryless, so the *residual* time in
        the current state has the same distribution as a fresh draw — the
        steady state bootstrapped by :meth:`Overlay.bootstrap` is preserved.
        """
        for node in self.overlay.nodes:
            behavior = node.spec.behavior
            if node.online:
                delay = self._exp_hours(behavior.mean_session_hours)
                self.overlay.scheduler.schedule_in(delay, lambda n=node: self._leave(n))
            else:
                delay = self._exp_hours(behavior.mean_gap_hours)
                self.overlay.scheduler.schedule_in(delay, lambda n=node: self._join(n))

    def _leave(self, node: Node) -> None:
        if node.online:
            self.overlay.take_offline(node)
            self.leaves += 1
        delay = self._exp_hours(node.spec.behavior.mean_gap_hours)
        self.overlay.scheduler.schedule_in(delay, lambda: self._join(node))

    def _join(self, node: Node) -> None:
        if not node.online:
            behavior = node.spec.behavior
            rotate_ip = self.rng.random() < behavior.ip_rotation_prob
            regen_peer = self.rng.random() < behavior.peerid_regen_prob
            self.overlay.bring_online(node, rotate_ip=rotate_ip, regen_peer=regen_peer)
            self.joins += 1
        delay = self._exp_hours(node.spec.behavior.mean_session_hours)
        self.overlay.scheduler.schedule_in(delay, lambda: self._leave(node))


class DailyAddressRotation:
    """DHCP-style mid-session IP re-leasing.

    Residential lines change addresses even while the node stays up; this
    (together with churn) is what inflates the unique-IP counts behind
    the paper's G-IP methodology critique.
    """

    def __init__(self, overlay: Overlay, rng: Optional[random.Random] = None) -> None:
        self.overlay = overlay
        self.rng = rng or random.Random(overlay.world.profile.seed + 12)
        self.rotations = 0

    def start(self) -> None:
        self.overlay.scheduler.schedule_in(24 * SECONDS_PER_HOUR, self._tick)

    def _tick(self) -> None:
        for node in list(self.overlay.online_by_peer.values()):
            probability = node.spec.behavior.daily_ip_rotation_prob
            if probability > 0 and self.rng.random() < probability:
                self.overlay.rotate_addresses(node)
                self.rotations += 1
        self.overlay.scheduler.schedule_in(24 * SECONDS_PER_HOUR, self._tick)


class PresenceAdvertiser:
    """Periodic self-insertion for platform nodes.

    Models the modified clients (Filebase et al.) and heavily connected
    AWS nodes that the paper finds at the top of the in-degree
    distribution (§4): they keep themselves present in a large number of
    routing tables.
    """

    def __init__(
        self,
        overlay: Overlay,
        interval_hours: float = 12.0,
        attempts_per_node: int = 80,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.overlay = overlay
        self.interval_hours = interval_hours
        self.attempts_per_node = attempts_per_node
        self.rng = rng or random.Random(overlay.world.profile.seed + 3)

    def start(self) -> None:
        self.overlay.scheduler.schedule_in(
            self.interval_hours * SECONDS_PER_HOUR, self._tick
        )

    def _tick(self) -> None:
        for node in self.overlay.nodes_of_class(NodeClass.PLATFORM):
            if node.online:
                attempts = self.attempts_per_node
                if node.spec.platform == "filebase":
                    attempts *= 4  # the paper's top-in-degree modified clients
                self.overlay.advertise_presence(node, attempts)
        for node in self.overlay.nodes_of_class(NodeClass.GATEWAY):
            if node.online:
                self.overlay.advertise_presence(node, self.attempts_per_node)
        self.overlay.scheduler.schedule_in(
            self.interval_hours * SECONDS_PER_HOUR, self._tick
        )
