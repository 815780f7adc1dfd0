"""Event-driven simulation of the IPFS overlay network.

* :mod:`repro.netsim.clock` — simulated time and the event scheduler,
* :mod:`repro.netsim.oracle` — a sorted index over online DHT-server keys
  (the fast path for closest-peer queries and bucket filling),
* :mod:`repro.netsim.node` — a live IPFS node (routing table, provider
  store, address set, DHT request handlers),
* :mod:`repro.netsim.network` — the overlay: registration, dialing,
  queries, provider registry, and relay selection and circuit
  addressing for NAT-ed peers,
* :mod:`repro.netsim.churn` — session/gap processes, IP rotation and
  peer-ID regeneration,
* :mod:`repro.netsim.sampling` — the Poisson count sampler shared by the
  traffic engine and the Hydra capture.
"""

from repro.netsim.clock import Clock, EventScheduler
from repro.netsim.network import Overlay
from repro.netsim.node import Node
from repro.netsim.oracle import KeyspaceOracle

__all__ = ["Clock", "EventScheduler", "KeyspaceOracle", "Node", "Overlay"]
