"""Event ↔ record codecs for the monitor logs.

One codec per log type maps the analysis-facing event onto the flat
JSON record the storage backends (and the published datasets of
:mod:`repro.core.datasets`) use.  ``encode`` renders the record's JSON
text directly: the bytes ``json.dumps`` gives for the record dict, built
without the dict or the ``json.dumps`` call.  ID fields are base58 or
base32 text and need no escaping; free-form strings are quoted by the
C quoting function ``json.dumps`` itself uses.  Timestamps are finite
``int`` or ``float`` values and render by ``repr`` (as ``json.dumps``
renders them).  The record shapes extend the seed's JSONL formats
backwards-compatibly: decoders tolerate missing optional fields, so
files written by older code still load.
"""

from __future__ import annotations

import json
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, Iterable, Iterator, Optional

from repro.ids.cid import CID
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageEnvelope, MessageType
from repro.monitors.bitswap_monitor import BitswapLogEntry
from repro.store.backend import Record


class _Parsed(dict):
    """``{text: ID}`` that parses a text the first time it is looked up."""

    __slots__ = ("_parse",)

    def __init__(self, parse) -> None:
        super().__init__()
        self._parse = parse

    def __missing__(self, text: str):
        value = self[text] = self._parse(text)
        return value


class IdTable:
    """The peer IDs and CIDs one read has parsed, keyed by their text.

    A read (a log scan, a slice, a file load) makes one table and drops
    it when done, so each distinct ID string is parsed once per read;
    nothing is cached across reads.
    """

    __slots__ = ("peers", "cids")

    def __init__(self) -> None:
        self.peers: Dict[str, PeerID] = _Parsed(PeerID.from_base58)
        self.cids: Dict[str, CID] = _Parsed(CID.from_base32)


class _RecordCodec:
    """What every codec shares: batch decoding."""

    def decode_all(self, records: Iterable[Record]) -> Iterator:
        """Decode ``records`` lazily, in order, sharing one :class:`IdTable`."""
        return map(self.decode, records, repeat(IdTable()))


class HydraMessageCodec(_RecordCodec):
    """:class:`MessageEnvelope` ↔ the ``hydra.jsonl`` record shape."""

    def encode(self, event: MessageEnvelope) -> str:
        timestamp, sender, sender_ip, message_type, target_key, target_cid, via_relay = event
        cid = "null" if target_cid is None else f'"{target_cid.to_base32()}"'
        # FIND_NODE targets are raw keys with no CID; keep them as hex
        # so the disk round trip preserves the full envelope.
        key = "null" if target_key is None else f'"{target_key:x}"'
        relay = "null" if via_relay is None else f'"{via_relay.to_base58()}"'
        return (
            f'{{"ts": {timestamp!r}, "sender": "{sender.to_base58()}", '
            f'"ip": {_quote(sender_ip)}, "type": "{message_type._value_}", '
            f'"cid": {cid}, "key": {key}, "via_relay": {relay}}}'
        )

    def decode(self, record: Record, ids: IdTable) -> MessageEnvelope:
        cid = ids.cids[text] if (text := record.get("cid")) else None
        key_text = record.get("key")
        if key_text is not None:
            target_key: Optional[int] = int(key_text, 16)
        else:
            target_key = cid.dht_key if cid is not None else None
        return MessageEnvelope(
            timestamp=record["ts"],
            sender=ids.peers[record["sender"]],
            sender_ip=record["ip"],
            message_type=MessageType(record["type"]),
            target_key=target_key,
            target_cid=cid,
            via_relay=ids.peers[relay] if (relay := record.get("via_relay")) else None,
        )


class BitswapEntryCodec(_RecordCodec):
    """:class:`BitswapLogEntry` ↔ the ``bitswap.jsonl`` record shape."""

    def encode(self, event: BitswapLogEntry) -> str:
        timestamp, sender, sender_ip, cid = event
        return (
            f'{{"ts": {timestamp!r}, "sender": "{sender.to_base58()}", '
            f'"ip": {_quote(sender_ip)}, "cid": "{cid.to_base32()}"}}'
        )

    def decode(self, record: Record, ids: IdTable) -> BitswapLogEntry:
        return BitswapLogEntry(
            timestamp=record["ts"],
            sender=ids.peers[record["sender"]],
            sender_ip=record["ip"],
            cid=ids.cids[record["cid"]],
        )


class GroundTruthCodec(_RecordCodec):
    """:class:`~repro.attack.ground_truth.GroundTruthEntry` ↔ ``attack.jsonl``."""

    def encode(self, event) -> str:
        # A few records per attack: the dict and json.dumps cost nothing here.
        return json.dumps(
            {
                "ts": event.timestamp,
                "attack": event.attack,
                "event": event.event,
                "peer": event.peer.to_base58() if event.peer else None,
                "cid": event.cid.to_base32() if event.cid else None,
                "end": event.end,
            }
        )

    def decode(self, record: Record, ids: IdTable):
        from repro.attack.ground_truth import GroundTruthEntry

        return GroundTruthEntry(
            timestamp=record["ts"],
            attack=record["attack"],
            event=record["event"],
            peer=ids.peers[peer] if (peer := record.get("peer")) else None,
            cid=ids.cids[cid] if (cid := record.get("cid")) else None,
            end=record.get("end"),
        )


HYDRA_CODEC = HydraMessageCodec()
BITSWAP_CODEC = BitswapEntryCodec()
ATTACK_CODEC = GroundTruthCodec()
