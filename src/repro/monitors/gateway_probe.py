"""Gateway identification via crafted-content probes (paper §3).

To identify a gateway on the overlay: generate a unique random piece of
data, store it on our monitoring node (so we are its only provider),
request it through the gateway's HTTP side, and watch our Bitswap monitor
for the resulting discovery broadcast — the broadcast's sender is one of
the gateway's overlay nodes.  Repeating the probe over time enumerates
the operator's whole backend pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.gateway.service import GatewayService
from repro.ids.cid import CID
from repro.ids.peerid import PeerID
from repro.monitors.bitswap_monitor import BitswapMonitor
from repro.netsim.network import Overlay
from repro.netsim.node import Node


@dataclass
class GatewayProbeReport:
    """What the probing campaign learned about one HTTP endpoint."""

    domain: str
    functional: bool
    overlay_ids: Set[PeerID] = field(default_factory=set)
    overlay_ips: Set[str] = field(default_factory=set)
    probes_sent: int = 0


class GatewayProber:
    """Runs the probe campaign against a set of gateway services."""

    def __init__(
        self,
        overlay: Overlay,
        monitor: BitswapMonitor,
        provider_node: Node,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.overlay = overlay
        self.monitor = monitor
        self.provider_node = provider_node
        self.rng = rng or random.Random(overlay.world.profile.seed + 7)

    def probe_once(self, domain: str, service: Optional[GatewayService]) -> Tuple[bool, Optional[Node]]:
        """One probe: unique content, HTTP request, log inspection."""
        if service is None:
            return False, None  # dead endpoint: HTTP never answers
        probe_cid = CID.generate(self.rng)
        # Store the unique data on our monitoring node: we become the only
        # provider in the network.
        self.overlay.publish_provider_record(self.provider_node, probe_cid)
        response = service.http_get(probe_cid)
        if response.status != 200 or response.served_by is None:
            return False, None
        # The gateway's backend broadcast shows up in our Bitswap log.  The
        # probe CID is freshly minted, so the monitor's fold holds it only
        # if this probe's broadcast was logged: no log records are read.
        if self.monitor.summary.has_cid(probe_cid):
            return True, response.served_by
        # Served from cache or the backend isn't connected to the monitor;
        # the HTTP side still proves the endpoint functions.
        return True, None

    def run_campaign(
        self,
        services_by_domain: Dict[str, Optional[GatewayService]],
        probes_per_endpoint: int = 40,
    ) -> Dict[str, GatewayProbeReport]:
        """Probe every listed endpoint repeatedly.

        Large operators answer each probe from a different pool node, so
        repeated probes gradually enumerate all their overlay IDs (§3).
        """
        reports: Dict[str, GatewayProbeReport] = {}
        for domain, service in services_by_domain.items():
            report = GatewayProbeReport(domain=domain, functional=False)
            for _ in range(probes_per_endpoint):
                report.probes_sent += 1
                worked, backend = self.probe_once(domain, service)
                report.functional = report.functional or worked
                if backend is not None and backend.peer is not None:
                    report.overlay_ids.add(backend.peer)
                    if backend.ips:
                        report.overlay_ips.add(backend.primary_ip_str)
            reports[domain] = report
        return reports
