"""Event ↔ record codecs for the monitor logs.

One codec per log type maps the analysis-facing dataclass onto the flat
JSON record the storage backends (and the published datasets of
:mod:`repro.core.datasets`) use.  The record shapes extend the seed's
JSONL formats backwards-compatibly: decoders tolerate missing optional
fields, so files written by older code still load.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.ids.cid import CID
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageEnvelope, MessageType
from repro.monitors.bitswap_monitor import BitswapLogEntry
from repro.store.backend import Record


class EventCodec(Protocol):
    """Encode events to JSON records and back."""

    def encode(self, event) -> Record: ...

    def decode(self, record: Record) -> object: ...

    def timestamp(self, event) -> float: ...


class HydraMessageCodec:
    """:class:`MessageEnvelope` ↔ the ``hydra.jsonl`` record shape."""

    def encode(self, event: MessageEnvelope) -> Record:
        return {
            "ts": event.timestamp,
            "sender": event.sender.to_base58(),
            "ip": event.sender_ip,
            "type": event.message_type.value,
            "cid": event.target_cid.to_base32() if event.target_cid else None,
            # FIND_NODE targets are raw keys with no CID; keep them as hex
            # so the disk round trip preserves the full envelope.
            "key": format(event.target_key, "x") if event.target_key is not None else None,
            "via_relay": event.via_relay.to_base58() if event.via_relay else None,
        }

    def decode(self, record: Record) -> MessageEnvelope:
        cid = CID.from_base32(record["cid"]) if record.get("cid") else None
        key_text = record.get("key")
        if key_text is not None:
            target_key: Optional[int] = int(key_text, 16)
        else:
            target_key = cid.dht_key if cid is not None else None
        return MessageEnvelope(
            timestamp=record["ts"],
            sender=PeerID.from_base58(record["sender"]),
            sender_ip=record["ip"],
            message_type=MessageType(record["type"]),
            target_key=target_key,
            target_cid=cid,
            via_relay=(
                PeerID.from_base58(record["via_relay"])
                if record.get("via_relay")
                else None
            ),
        )

    def timestamp(self, event: MessageEnvelope) -> float:
        return event.timestamp


class BitswapEntryCodec:
    """:class:`BitswapLogEntry` ↔ the ``bitswap.jsonl`` record shape."""

    def encode(self, event: BitswapLogEntry) -> Record:
        return {
            "ts": event.timestamp,
            "sender": event.sender.to_base58(),
            "ip": event.sender_ip,
            "cid": event.cid.to_base32(),
        }

    def decode(self, record: Record) -> BitswapLogEntry:
        return BitswapLogEntry(
            timestamp=record["ts"],
            sender=PeerID.from_base58(record["sender"]),
            sender_ip=record["ip"],
            cid=CID.from_base32(record["cid"]),
        )

    def timestamp(self, event: BitswapLogEntry) -> float:
        return event.timestamp


class GroundTruthCodec:
    """:class:`~repro.attack.ground_truth.GroundTruthEntry` ↔ ``attack.jsonl``."""

    def encode(self, event) -> Record:
        return {
            "ts": event.timestamp,
            "attack": event.attack,
            "event": event.event,
            "peer": event.peer.to_base58() if event.peer else None,
            "cid": event.cid.to_base32() if event.cid else None,
            "end": event.end,
        }

    def decode(self, record: Record):
        from repro.attack.ground_truth import GroundTruthEntry

        return GroundTruthEntry(
            timestamp=record["ts"],
            attack=record["attack"],
            event=record["event"],
            peer=PeerID.from_base58(record["peer"]) if record.get("peer") else None,
            cid=CID.from_base32(record["cid"]) if record.get("cid") else None,
            end=record.get("end"),
        )

    def timestamp(self, event) -> float:
        return event.timestamp


HYDRA_CODEC = HydraMessageCodec()
BITSWAP_CODEC = BitswapEntryCodec()
ATTACK_CODEC = GroundTruthCodec()
