"""Multiaddresses.

A provider record maps a CID to *multiaddresses* — a self-describing
address format, e.g. ``/ip4/1.10.20.30/tcp/29087/p2p/<peer ID>`` — that
embeds the provider's connectivity information and peer ID (paper §6).

NAT-ed peers advertise *circuit* addresses which route through a relay:

    /ip4/<relay IP>/tcp/<port>/p2p/<relay ID>/p2p-circuit/p2p/<peer ID>

The analyses in the paper key off exactly two things: the transport IP
(for cloud/geo attribution) and whether the address is a circuit address
(for NAT-ed classification), so this implementation focuses on those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ids.peerid import PeerID


@dataclass(frozen=True)
class Multiaddr:
    """A parsed multiaddress.

    :ivar ip: the transport IP address (the relay's IP for circuit
        addresses — this matches what an on-the-wire observer sees and is
        exactly the attribution subtlety §6 of the paper discusses).
    :ivar port: TCP port.
    :ivar peer: the peer the address ultimately identifies.
    :ivar relay: the relay peer for circuit addresses, else ``None``.
    """

    ip: str
    port: int
    peer: PeerID
    relay: Optional[PeerID] = None

    @property
    def is_circuit(self) -> bool:
        """Whether this is a ``p2p-circuit`` (relayed / NAT-ed) address."""
        return self.relay is not None

    @classmethod
    def direct(cls, ip: str, port: int, peer: PeerID) -> "Multiaddr":
        """A plain publicly-dialable address."""
        return cls(ip=ip, port=port, peer=peer)

    @classmethod
    def circuit(cls, relay_ip: str, relay_port: int, relay: PeerID, peer: PeerID) -> "Multiaddr":
        """A relayed address for a NAT-ed peer behind ``relay``."""
        return cls(ip=relay_ip, port=relay_port, peer=peer, relay=relay)

    def __str__(self) -> str:
        base = f"/ip4/{self.ip}/tcp/{self.port}"
        if self.relay is not None:
            return f"{base}/p2p/{self.relay.to_base58()}/p2p-circuit/p2p/{self.peer.to_base58()}"
        return f"{base}/p2p/{self.peer.to_base58()}"

    @classmethod
    def parse(cls, text: str, peer_lookup=None) -> "Multiaddr":
        """Parse the string form produced by :meth:`__str__`.

        ``peer_lookup`` maps a base58 peer ID string to its
        :class:`PeerID` (a reader passes its per-read table so repeated
        peers are parsed once); by default each string is parsed with
        :meth:`PeerID.from_base58`.
        """
        decode_peer = peer_lookup if peer_lookup is not None else PeerID.from_base58

        parts = text.strip("/").split("/")
        if len(parts) < 6 or parts[0] != "ip4" or parts[2] != "tcp" or parts[4] != "p2p":
            raise ValueError(f"unsupported multiaddr: {text}")
        ip = parts[1]
        port = int(parts[3])
        first_peer = decode_peer(parts[5])
        if len(parts) == 6:
            return cls.direct(ip, port, first_peer)
        if len(parts) == 9 and parts[6] == "p2p-circuit" and parts[7] == "p2p":
            target = decode_peer(parts[8])
            return cls.circuit(ip, port, first_peer, target)
        raise ValueError(f"unsupported multiaddr: {text}")
