"""Value semantics of the three per-message records.

``MessageEnvelope`` (one per captured DHT message), ``BitswapLogEntry``
(one per logged want broadcast) and ``ProviderRecord`` (one per provide)
are immutable tuples.  These tests pin what their readers rely on: the
field names and both constructor forms, immutability with no room for
extra attributes, ``==`` and ``hash`` within the type, the pickle round
trip (worker pools ship records) and the JSONL and SQLite codec round
trips.  ``test_messages.py`` keeps the envelope's own three tests.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.datasets import (
    read_bitswap_jsonl,
    read_hydra_jsonl,
    read_provider_observations_jsonl,
    write_bitswap_jsonl,
    write_hydra_jsonl,
    write_provider_observations_jsonl,
)
from repro.ids.cid import CID
from repro.ids.multiaddr import Multiaddr
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageEnvelope, MessageType, TrafficClass
from repro.kademlia.providers import ProviderRecord
from repro.monitors.bitswap_monitor import BitswapLogEntry
from repro.monitors.provider_fetcher import ProviderObservation

_RNG = random.Random(27)
PEER = PeerID.generate(_RNG)
RELAY = PeerID.generate(_RNG)
CID_A = CID.generate(_RNG)
ADDRS = (Multiaddr.direct("10.1.2.3", 4001, PEER),)
RELAY_ADDRS = (Multiaddr.direct("10.1.2.4", 4001, RELAY),)

#: Per record type: the field names, then two value tuples that differ.
RECORDS = {
    MessageEnvelope: (
        (
            "timestamp",
            "sender",
            "sender_ip",
            "message_type",
            "target_key",
            "target_cid",
            "via_relay",
        ),
        (5.0, PEER, "10.1.2.3", MessageType.ADD_PROVIDER, CID_A.dht_key, CID_A, RELAY),
        (6.0, PEER, "10.1.2.3", MessageType.FIND_NODE, 7, None, None),
    ),
    BitswapLogEntry: (
        ("timestamp", "sender", "sender_ip", "cid"),
        (5.0, PEER, "10.1.2.3", CID_A),
        (5.0, RELAY, "10.1.2.4", CID_A),
    ),
    ProviderRecord: (
        ("cid", "provider", "addrs", "published_at"),
        (CID_A, PEER, ADDRS, 5.0),
        (CID_A, RELAY, RELAY_ADDRS, 6.0),
    ),
}

TYPES = pytest.mark.parametrize("record_type", list(RECORDS), ids=lambda t: t.__name__)


@TYPES
def test_fields_and_both_constructor_forms(record_type):
    names, values, _ = RECORDS[record_type]
    positional = record_type(*values)
    keyword = record_type(**dict(zip(names, values)))
    assert record_type._fields == names
    assert positional == keyword
    assert tuple(getattr(keyword, name) for name in names) == values


@TYPES
def test_immutable_with_no_extra_attributes(record_type):
    names, values, _ = RECORDS[record_type]
    record = record_type(*values)
    with pytest.raises(AttributeError):
        setattr(record, names[0], values[0])
    with pytest.raises(AttributeError):
        object.__setattr__(record, "surprise", 1)
    assert not hasattr(record, "__dict__")


@TYPES
def test_equality_and_hash_within_the_type(record_type):
    _, values, other = RECORDS[record_type]
    first, second = record_type(*values), record_type(*values)
    assert first == second and first is not second
    assert hash(first) == hash(second)
    assert len({first, second, record_type(*other)}) == 2
    assert record_type(*other) != first


@TYPES
def test_pickle_round_trip(record_type):
    _, values, _ = RECORDS[record_type]
    record = record_type(*values)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is record_type
    assert copy == record and repr(copy) == repr(record)


def test_envelope_derives_its_class_and_keeps_it_through_pickle():
    for message_type in MessageType:
        envelope = MessageEnvelope(1.0, PEER, "10.1.2.3", message_type)
        copy = pickle.loads(pickle.dumps(envelope))
        assert copy.traffic_class is envelope.traffic_class is message_type.traffic_class
    assert MessageEnvelope(1.0, PEER, "ip", MessageType.GET_PROVIDERS).traffic_class is (
        TrafficClass.DOWNLOAD
    )
    # The repr lists the derived class last (dataset fingerprints hash it).
    assert repr(MessageEnvelope(1.0, PEER, "ip", MessageType.PING)).endswith(
        "via_relay=None, traffic_class=<TrafficClass.OTHER: 'other'>)"
    )


def test_provider_record_relay_flag():
    relayed = (Multiaddr.circuit("10.9.9.9", 4001, RELAY, PEER),)
    assert not ProviderRecord(CID_A, PEER, ADDRS, 0.0).is_relayed
    assert ProviderRecord(CID_A, PEER, relayed, 0.0).is_relayed
    assert not ProviderRecord(CID_A, PEER, (), 0.0).is_relayed


@pytest.mark.parametrize("suffix", ["jsonl", "sqlite"])
def test_codec_round_trips(suffix, tmp_path):
    envelopes = [MessageEnvelope(*RECORDS[MessageEnvelope][i]) for i in (1, 2)]
    entries = [BitswapLogEntry(*RECORDS[BitswapLogEntry][i]) for i in (1, 2)]
    records = tuple(ProviderRecord(*RECORDS[ProviderRecord][i]) for i in (1, 2))
    observation = ProviderObservation(
        cid=CID_A,
        collected_at=9.0,
        records=records,
        reachable=records[:1],
        resolvers_queried=3,
        walk_messages=40,
    )

    write_hydra_jsonl(envelopes, tmp_path / f"hydra.{suffix}")
    write_bitswap_jsonl(entries, tmp_path / f"bitswap.{suffix}")
    write_provider_observations_jsonl([observation], tmp_path / f"providers.{suffix}")
    hydra = read_hydra_jsonl(tmp_path / f"hydra.{suffix}")
    bitswap = read_bitswap_jsonl(tmp_path / f"bitswap.{suffix}")
    (loaded,) = read_provider_observations_jsonl(tmp_path / f"providers.{suffix}")

    assert hydra == envelopes
    assert [type(entry) for entry in hydra] == [MessageEnvelope] * 2
    assert [entry.traffic_class for entry in hydra] == [
        TrafficClass.ADVERTISEMENT,
        TrafficClass.OTHER,
    ]
    assert bitswap == entries
    assert all(type(entry) is BitswapLogEntry for entry in bitswap)
    assert loaded == observation
    assert all(type(record) is ProviderRecord for record in loaded.records)
