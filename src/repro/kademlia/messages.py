"""DHT wire messages and their traffic classification.

The paper classifies DHT traffic into content-related *downloads*
(requesting providers for a CID), *advertisements* (announcing a new
provider for a CID) and *other* messages such as nodes joining the network
(§5).  The message shapes here follow go-libp2p-kad-dht's protobuf message
types.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.ids.cid import CID
from repro.ids.multiaddr import Multiaddr
from repro.ids.peerid import PeerID


class MessageType(enum.Enum):
    """DHT message types (mirroring the libp2p kad-dht protobuf enum)."""

    PING = "PING"
    FIND_NODE = "FIND_NODE"
    GET_PROVIDERS = "GET_PROVIDERS"
    ADD_PROVIDER = "ADD_PROVIDER"


class TrafficClass(enum.Enum):
    """The paper's §5 classification of DHT traffic."""

    DOWNLOAD = "download"
    ADVERTISEMENT = "advertisement"
    OTHER = "other"


def classify_message(message_type: MessageType) -> TrafficClass:
    """Map a DHT message type onto the paper's download/advertise/other split."""
    if message_type is MessageType.GET_PROVIDERS:
        return TrafficClass.DOWNLOAD
    if message_type is MessageType.ADD_PROVIDER:
        return TrafficClass.ADVERTISEMENT
    return TrafficClass.OTHER


#: :func:`classify_message` per message type, built once: every captured
#: message classifies itself, and a dict read is cheaper than the call.
_TRAFFIC_CLASS = {message_type: classify_message(message_type) for message_type in MessageType}


@dataclass(frozen=True)
class PeerInfo:
    """A peer and its advertised multiaddresses, as returned by FIND_NODE."""

    peer: PeerID
    addrs: Tuple[Multiaddr, ...] = ()

    def __post_init__(self) -> None:
        for addr in self.addrs:
            if addr.peer != self.peer:
                raise ValueError("multiaddr peer does not match PeerInfo peer")


@dataclass(frozen=True)
class FindNodeRequest:
    """Ask a peer for the k closest peers to ``target`` in its table."""

    target: int  # a DHT key


@dataclass(frozen=True)
class FindNodeResponse:
    closer_peers: Tuple[PeerInfo, ...]


@dataclass(frozen=True)
class GetProvidersRequest:
    """Ask a peer for provider records for ``cid`` plus closer peers."""

    cid: CID


@dataclass(frozen=True)
class GetProvidersResponse:
    providers: Tuple[PeerInfo, ...]
    closer_peers: Tuple[PeerInfo, ...]


@dataclass(frozen=True)
class AddProviderRequest:
    """Store a provider record: the sender provides ``cid`` at ``addrs``."""

    cid: CID
    provider: PeerInfo


@dataclass(frozen=True)
class PingRequest:
    """Liveness check; also used as the generic 'other' message."""

    nonce: int = 0


Request = object  # documentation alias: one of the *Request dataclasses


@dataclass(frozen=True, slots=True)
class MessageEnvelope:
    """A logged DHT message as captured by the Hydra-booster (§3).

    The Hydra logs the timestamp, the sender's peer ID and IP address, the
    type of the request, and the target key; when the sender used NAT
    traversal, the relaying DHT server is logged too.
    """

    timestamp: float
    sender: PeerID
    sender_ip: str
    message_type: MessageType
    target_key: Optional[int] = None
    target_cid: Optional[CID] = None
    via_relay: Optional[PeerID] = None
    traffic_class: TrafficClass = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "traffic_class", _TRAFFIC_CLASS[self.message_type])
