"""DHT wire messages and their traffic classification.

The paper classifies DHT traffic into content-related *downloads*
(requesting providers for a CID), *advertisements* (announcing a new
provider for a CID) and *other* messages such as nodes joining the network
(§5).  The message shapes here follow go-libp2p-kad-dht's protobuf message
types.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

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


# The capture path reads each member's classification as a plain
# attribute: ``MessageType.X.traffic_class`` is :func:`classify_message`,
# and ``TrafficClass.X.code`` is the class's index in declaration order,
# the small-int key of the §5 fold.  A dict keyed by the members would
# call ``Enum.__hash__``, which runs in Python, once per message.
for _code, _traffic_class in enumerate(TrafficClass):
    _traffic_class.code = _code
for _message_type in MessageType:
    _message_type.traffic_class = classify_message(_message_type)
del _code, _traffic_class, _message_type


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
class GetProvidersRequest:
    """Ask a peer for provider records for ``cid`` plus closer peers."""

    cid: CID


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


class _EnvelopeFields(NamedTuple):
    timestamp: float
    sender: PeerID
    sender_ip: str
    message_type: MessageType
    target_key: Optional[int] = None
    target_cid: Optional[CID] = None
    via_relay: Optional[PeerID] = None


class MessageEnvelope(_EnvelopeFields):
    """A logged DHT message as captured by the Hydra-booster (§3).

    The Hydra logs the timestamp, the sender's peer ID and IP address, the
    type of the request, and the target key; when the sender used NAT
    traversal, the relaying DHT server is logged too.

    An immutable tuple: one is built per captured message, and a tuple
    costs a fraction of a frozen dataclass to build.  The traffic class
    is derived from the message type on read, so it takes no slot.
    """

    __slots__ = ()

    @property
    def traffic_class(self) -> TrafficClass:
        return self.message_type.traffic_class

    def __repr__(self) -> str:
        # Dataset fingerprints hash this text: every field, then the
        # derived class.  Built by one f-string: hashing a whole log
        # through the namedtuple's %-format repr fragmented the heap and
        # raised the campaign benchmark's traffic-600 peak RSS by ~10 MB.
        timestamp, sender, sender_ip, message_type, target_key, target_cid, via_relay = self
        return (
            f"MessageEnvelope(timestamp={timestamp!r}, sender={sender!r}, "
            f"sender_ip={sender_ip!r}, message_type={message_type!r}, "
            f"target_key={target_key!r}, target_cid={target_cid!r}, "
            f"via_relay={via_relay!r}, traffic_class={message_type.traffic_class!r})"
        )
