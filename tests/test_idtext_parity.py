"""ID text is rendered once per instance and parsed once per read.

The oracles below are the implementations the caches replaced: the
bit-loop base32 encoder (and decoder), an uncached render of the multihash, and a
per-record codec decode that parses every ID string it meets.  Cached
text must equal the uncached render on the first and every later call,
and must not leak into equality, hashing, ``repr`` or pickles.  Every
``EventLog`` read path must decode ``==`` to the per-record oracle, also
for slices served from a disk backend's write buffer.  A last group
counts the work: one parse per distinct ID per read, no SQL statement
for a slice of the unflushed tail, and one render per peer ID.
"""

import copy
import json
import pickle
import random
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st
from row_oracles import bitswap_record, hydra_record

from repro.ids import cid as cid_module
from repro.ids import peerid as peerid_module
from repro.ids.cid import CID
from repro.ids.encoding import base32_decode, base32_encode, base58_encode
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageEnvelope, MessageType
from repro.monitors.bitswap_monitor import BitswapLogEntry
from repro.store import (
    BITSWAP_CODEC,
    HYDRA_CODEC,
    EventLog,
    IdTable,
    JsonlBackend,
    MemoryBackend,
    SqliteBackend,
)

digests = st.binary(min_size=32, max_size=32)


# --- oracle: uncached rendering and per-record decoding ----------------------

_B32_ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"


def oracle_base32_encode(data: bytes) -> str:
    """The hand-rolled bit loop ``base32_encode`` used to be."""
    bits = 0
    bit_count = 0
    output = []
    for byte in data:
        bits = (bits << 8) | byte
        bit_count += 8
        while bit_count >= 5:
            bit_count -= 5
            output.append(_B32_ALPHABET[(bits >> bit_count) & 0x1F])
    if bit_count:
        output.append(_B32_ALPHABET[(bits << (5 - bit_count)) & 0x1F])
    return "".join(output)


def oracle_base32_decode(text: str) -> bytes:
    """The bit loop ``base32_decode`` used to be."""
    index = {char: value for value, char in enumerate(_B32_ALPHABET)}
    bits = 0
    bit_count = 0
    output = bytearray()
    for char in text:
        bits = (bits << 5) | index[char]
        bit_count += 5
        if bit_count >= 8:
            bit_count -= 8
            output.append((bits >> bit_count) & 0xFF)
    return bytes(output)


def oracle_peer_text(peer: PeerID) -> str:
    return base58_encode(b"\x12\x20" + peer.digest)


def oracle_cid_text(cid: CID) -> str:
    return "b" + oracle_base32_encode(b"\x01\x55\x12\x20" + cid.digest)


def oracle_hydra_decode(record) -> MessageEnvelope:
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
            PeerID.from_base58(record["via_relay"]) if record.get("via_relay") else None
        ),
    )


def oracle_bitswap_decode(record) -> BitswapLogEntry:
    return BitswapLogEntry(
        timestamp=record["ts"],
        sender=PeerID.from_base58(record["sender"]),
        sender_ip=record["ip"],
        cid=CID.from_base32(record["cid"]),
    )


# --- cached ID text ----------------------------------------------------------


class TestBase32Encoder:
    @settings(max_examples=300)
    @given(st.binary(max_size=80))
    def test_matches_the_bit_loop(self, data):
        assert base32_encode(data) == oracle_base32_encode(data)

    def test_every_length_mod_five(self):
        data = bytes(range(256))
        for length in range(41):
            assert base32_encode(data[:length]) == oracle_base32_encode(data[:length])

    # The decoder reads through int(text, 32): same bytes as the bit loop.

    def test_decoder_round_trips_at_every_length(self):
        rng = random.Random(31)
        for length in range(65):
            for data in (bytes(length), b"\xff" * length, rng.randbytes(length)):
                text = base32_encode(data)
                assert base32_decode(text) == oracle_base32_decode(text) == data, length

    @settings(max_examples=300)
    @given(st.text(alphabet=_B32_ALPHABET, max_size=110))
    def test_decoder_matches_the_bit_loop_on_any_text(self, text):
        # Also texts no encoder emits (e.g. one trailing character).
        assert base32_decode(text) == oracle_base32_decode(text)

    @pytest.mark.parametrize(
        "text",
        ["MFRGG", "mfrGg", "mfr=", "mf_rg", "+mfrg", "-mfrg", " mfrg", "mfrg\n", "mf\trg"]
        + ["0a", "a1", "8aaa", "aaa9", "é"],
    )
    def test_decoder_rejects_what_int_would_read(self, text):
        with pytest.raises(ValueError, match="invalid base32 character"):
            base32_decode(text)
        with pytest.raises(KeyError):
            oracle_base32_decode(text)


class TestCachedText:
    @given(digests)
    def test_peer_text_first_and_later_calls(self, digest):
        peer = PeerID(digest)
        expected = oracle_peer_text(peer)
        assert [peer.to_base58(), peer.to_base58(), str(peer)] == [expected] * 3

    @given(digests)
    def test_cid_text_first_and_later_calls(self, digest):
        cid = CID(digest)
        expected = oracle_cid_text(cid)
        assert [cid.to_base32(), cid.to_base32(), str(cid)] == [expected] * 3

    @given(digests, st.booleans())
    def test_copies_keep_identity_and_text(self, digest, render_first):
        for identifier, render in ((PeerID(digest), oracle_peer_text), (CID(digest), oracle_cid_text)):
            if render_first:
                str(identifier)
            for clone in (pickle.loads(pickle.dumps(identifier)), copy.copy(identifier)):
                assert clone == identifier
                assert hash(clone) == hash(identifier)
                assert str(clone) == str(identifier) == render(identifier)

    @given(digests)
    def test_text_stays_out_of_state_and_repr(self, digest):
        for fresh, rendered in ((PeerID(digest), PeerID(digest)), (CID(digest), CID(digest))):
            str(rendered)
            assert rendered == fresh and hash(rendered) == hash(fresh)
            assert repr(rendered) == repr(fresh)
            assert rendered.__getstate__() == digest
            assert pickle.dumps(rendered) == pickle.dumps(fresh)

    def test_parsed_ids_render_the_text_they_came_from(self):
        rng = random.Random(4)
        peer, cid = PeerID.generate(rng), CID.generate(rng)
        assert str(PeerID.from_base58(oracle_peer_text(peer))) == oracle_peer_text(peer)
        assert str(CID.from_base32(oracle_cid_text(cid))) == oracle_cid_text(cid)


# --- EventLog read paths against the per-record oracle ----------------------


def make_events(rng, count: int, start: float) -> List[MessageEnvelope]:
    """Envelopes from a small sender pool, so reads meet repeated IDs."""
    senders = [PeerID.generate(random.Random(i)) for i in range(5)]
    cids = [CID.generate(random.Random(100 + i)) for i in range(4)]
    events = []
    for i in range(count):
        kind = rng.choice(
            (MessageType.GET_PROVIDERS, MessageType.ADD_PROVIDER, MessageType.FIND_NODE)
        )
        cid = rng.choice(cids) if kind is not MessageType.FIND_NODE else None
        events.append(
            MessageEnvelope(
                timestamp=start + i,
                sender=rng.choice(senders),
                sender_ip=f"10.0.0.{rng.randrange(4)}",
                message_type=kind,
                target_key=cid.dht_key if cid else rng.getrandbits(256),
                target_cid=cid,
                via_relay=rng.choice(senders) if rng.random() < 0.3 else None,
            )
        )
    return events


def make_backend(kind: str, tmp_path):
    if kind == "memory":
        return MemoryBackend()
    if kind == "jsonl":
        return JsonlBackend(tmp_path / "log.jsonl", batch_size=7)
    if kind == "sqlite":
        return SqliteBackend(tmp_path / "log.sqlite", batch_size=7)
    raise AssertionError(kind)


def stored_count(backend) -> int:
    """Records written out (the rest sit in the write buffer)."""
    buffer = getattr(backend, "_buffer", None)
    return len(backend) - (len(buffer) if buffer is not None else 0)


class TestEventLogParity:
    @pytest.fixture(params=("memory", "jsonl", "sqlite"))
    def kind(self, request):
        return request.param

    def oracle(self, kind, events, decode=oracle_hydra_decode, record=hydra_record):
        if kind == "memory":
            return list(events)
        return [decode(json.loads(json.dumps(record(e)))) for e in events]

    def test_reads_interleaved_with_appends(self, kind, tmp_path):
        rng = random.Random(11)
        log = EventLog(HYDRA_CODEC, make_backend(kind, tmp_path))
        events: List[MessageEnvelope] = []
        for batch, size in enumerate((3, 9, 1, 14, 6, 0, 20)):
            new = make_events(rng, size, start=float(len(events)))
            if batch % 2:
                log.extend(new)
            else:
                for event in new:
                    log.append(event)
            events.extend(new)
            expected = self.oracle(kind, events)
            n = len(events)
            assert len(log) == n
            # Slices after, at and before the flush boundary, in that
            # order: the earlier ones must not move the boundary.
            stored = stored_count(log.backend)
            for start in sorted({stored, *range(stored, n + 2)}, reverse=True):
                for stop in (None, start, start + 1, start + 3, n, n + 5, max(0, start - 1)):
                    assert log[start:stop] == expected[start:stop], (start, stop)
                assert stored_count(log.backend) == stored
            for start in (0, 1, stored // 2, max(0, stored - 1)):
                assert log[start:] == expected[start:]
                assert log[start : start + 2] == expected[start : start + 2]
            assert log[-3:] == expected[-3:]
            assert log[::2] == expected[::2]
            if n:
                assert log[-1] == expected[-1] and log[0] == expected[0]
            assert list(log) == expected
            assert list(reversed(log)) == expected[::-1]
            assert log.tail(4) == expected[-4:]
            assert list(log.window(2.0, 9.0)) == [e for e in expected if 2.0 <= e.timestamp < 9.0]

    def test_bitswap_log(self, kind, tmp_path):
        rng = random.Random(12)
        senders = [PeerID.generate(rng) for _ in range(3)]
        log = EventLog(BITSWAP_CODEC, make_backend(kind, tmp_path))
        events = []
        for i in range(25):
            entry = BitswapLogEntry(
                timestamp=float(i),
                sender=rng.choice(senders),
                sender_ip="10.9.9.9",
                cid=CID.generate(rng) if i % 3 else CID.generate(random.Random(0)),
            )
            log.append(entry)
            events.append(entry)
            expected = self.oracle(kind, events, oracle_bitswap_decode, bitswap_record)
            assert log[i:] == expected[i:]
        assert list(log) == expected
        assert list(reversed(log)) == expected[::-1]
        assert log.tail(5) == expected[-5:]

    def test_decoded_ids_render_like_the_originals(self, tmp_path):
        events = make_events(random.Random(13), 30, start=0.0)
        log = EventLog(HYDRA_CODEC, make_backend("sqlite", tmp_path))
        log.extend(events)
        for decoded, original in zip(log, events):
            assert str(decoded.sender) == oracle_peer_text(original.sender)
            if original.target_cid is not None:
                assert str(decoded.target_cid) == oracle_cid_text(original.target_cid)


# --- work guards -------------------------------------------------------------


class TestWorkGuards:
    def count_calls(self, monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, counting)
        return calls

    @pytest.mark.parametrize("kind", ("jsonl", "sqlite"))
    def test_one_parse_per_distinct_id_per_read(self, kind, tmp_path, monkeypatch):
        events = make_events(random.Random(21), 200, start=0.0)
        log = EventLog(HYDRA_CODEC, make_backend(kind, tmp_path))
        log.extend(events)
        log.flush()
        peers = {e.sender for e in events} | {e.via_relay for e in events if e.via_relay}
        cids = {e.target_cid for e in events if e.target_cid}
        peer_parses = self.count_calls(monkeypatch, PeerID, "from_base58")
        cid_parses = self.count_calls(monkeypatch, CID, "from_base32")
        for read in (list, lambda log: list(reversed(log)), lambda log: log[:]):
            del peer_parses[:], cid_parses[:]
            assert len(read(log)) == len(events) == 200
            assert len(peer_parses) == len(peers) <= 5
            assert len(cid_parses) == len(cids) <= 4

    def test_id_table_lives_for_one_read(self, monkeypatch):
        parses = self.count_calls(monkeypatch, PeerID, "from_base58")
        text = oracle_peer_text(PeerID.generate(random.Random(5)))
        first, second = IdTable(), IdTable()
        assert first.peers[text] is first.peers[text]
        assert second.peers[text] == first.peers[text]
        assert len(parses) == 2

    def test_unflushed_tail_slice_runs_no_sql(self, tmp_path):
        backend = SqliteBackend(tmp_path / "tail.sqlite", batch_size=64)
        log = EventLog(BITSWAP_CODEC, backend)
        rng = random.Random(22)
        sender = PeerID.generate(rng)
        entries = [BitswapLogEntry(float(i), sender, "10.0.0.1", CID.generate(rng)) for i in range(100)]
        log.extend(entries[:70])  # 64 written, 6 buffered
        statements: List[str] = []
        backend._conn.set_trace_callback(statements.append)
        position = len(log)
        log.extend(entries[70:75])
        assert log[position:] == entries[70:75]
        assert log[66:] == entries[66:75]
        assert log[64:66] == entries[64:66]
        assert statements == []
        assert log[60:] == entries[60:75]  # reaches stored rows: flush + query
        assert any(s.startswith("INSERT") for s in statements)
        assert any("COMMIT" in s.upper() for s in statements)

    def test_one_render_per_peer_id(self, monkeypatch):
        renders = self.count_calls(monkeypatch, peerid_module, "base58_encode")
        cid_renders = self.count_calls(monkeypatch, cid_module, "base32_encode")
        rng = random.Random(23)
        envelope = MessageEnvelope(
            timestamp=1.0,
            sender=PeerID.generate(rng),
            sender_ip="10.0.0.1",
            message_type=MessageType.GET_PROVIDERS,
            target_cid=CID.generate(rng),
        )
        assert HYDRA_CODEC.encode(envelope) == HYDRA_CODEC.encode(envelope)
        assert len(renders) == 1
        assert len(cid_renders) == 1
