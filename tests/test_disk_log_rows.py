"""Disk logs: the rows their codecs render, and the live Bitswap sample.

Row text: the Hydra and Bitswap codecs render each record's JSON text
directly; it must equal ``json.dumps`` of the record dict the store used
to build (:mod:`row_oracles`) byte for byte, for single events and for
every row a campaign stores in SQLite or JSONL.  Converting the SQLite
logs to JSONL must give the JSONL campaign's files.

Live sample: the campaign takes each tick's CID sample from the
monitor's recent-CID index, not from the log.  At every tick it must
equal sampling the log window ``[tick start, tick start + tick length)``
(the read the index replaced), leave the monitor RNG in the same state,
and keep only the CIDs logged at or after the tick start.
"""

from __future__ import annotations

import json
import random
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st
from row_oracles import bitswap_record, hydra_record

from repro.ids.cid import CID
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageEnvelope, MessageType
from repro.monitors.bitswap_monitor import BitswapLogEntry, BitswapMonitor
from repro.netsim.clock import SECONDS_PER_DAY
from repro.scenario.config import ScenarioConfig
from repro.scenario.run import run_campaign
from repro.store import BITSWAP_CODEC, HYDRA_CODEC, read_records, write_records
from repro.world.profiles import WorldProfile

peers = st.binary(min_size=32, max_size=32).map(PeerID)
cids = st.binary(min_size=32, max_size=32).map(CID)
timestamps = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
)
sender_ips = st.one_of(
    st.ip_addresses(v=4).map(str), st.ip_addresses(v=6).map(str), st.text(max_size=12)
)


class TestRowText:
    @settings(max_examples=400)
    @given(
        timestamps,
        peers,
        sender_ips,
        st.sampled_from(MessageType),
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**256 - 1)),
        st.one_of(st.none(), cids),
        st.one_of(st.none(), peers),
    )
    def test_hydra_rows(self, ts, sender, ip, message_type, key, cid, relay):
        envelope = MessageEnvelope(
            timestamp=ts,
            sender=sender,
            sender_ip=ip,
            message_type=message_type,
            target_key=key,
            target_cid=cid,
            via_relay=relay,
        )
        assert HYDRA_CODEC.encode(envelope) == json.dumps(hydra_record(envelope))

    def test_find_node_key_without_cid(self):
        rng = random.Random(3)
        envelope = MessageEnvelope(
            timestamp=7,
            sender=PeerID.generate(rng),
            sender_ip="2001:db8::1",
            message_type=MessageType.FIND_NODE,
            target_key=rng.getrandbits(256),
        )
        text = HYDRA_CODEC.encode(envelope)
        assert text == json.dumps(hydra_record(envelope))
        assert '"cid": null' in text and '"via_relay": null' in text

    @settings(max_examples=300)
    @given(timestamps, peers, sender_ips, cids)
    def test_bitswap_rows(self, ts, sender, ip, cid):
        entry = BitswapLogEntry(timestamp=ts, sender=sender, sender_ip=ip, cid=cid)
        assert BITSWAP_CODEC.encode(entry) == json.dumps(bitswap_record(entry))


# --- campaigns --------------------------------------------------------------

TICK_SECONDS = SECONDS_PER_DAY / ScenarioConfig.ticks_per_day
SAMPLE = BitswapMonitor.sampled_cids_since


def zipf_config(storage: str) -> ScenarioConfig:
    return ScenarioConfig(
        profile=WorldProfile(online_servers=150),
        days=1,
        workload_spec="zipf:users=2e3",
        daily_cid_sample=60,
        provider_fetch_days=2,
        storage=storage,
    )


def oracle_sampled_cids_in_window(monitor, start, end, sample_size, rng):
    """The log-window sample the campaign took before the recent index."""
    window = sorted(monitor.cids_in_window(start, end), key=lambda cid: cid.digest)
    if len(window) <= sample_size:
        return window
    return rng.sample(window, sample_size)


def run_checked(monkeypatch, config):
    """Run ``config``, checking every tick's sample against the oracle.

    Returns the result and one ``(since, window size, checks)`` row per
    sampled tick.
    """
    ticks = []

    def checked(self, since, sample_size, rng=None):
        end = since + TICK_SECONDS
        newest = self.log.tail(1)
        oracle_rng = random.Random()
        oracle_rng.setstate(self.rng.getstate())
        expected = oracle_sampled_cids_in_window(self, since, end, sample_size, oracle_rng)
        window = {cid.digest for cid in self.cids_in_window(since, end)}
        sampled = SAMPLE(self, since, sample_size, rng)
        checks = {
            "log ends before the window does": not newest or newest[0].timestamp < end,
            "sample": sampled == expected,
            "rng state": self.rng.getstate() == oracle_rng.getstate(),
            "index holds the window": set(self._recent) == window,
            "index is at or after since": all(ts >= since for _, ts in self._recent.values()),
        }
        ticks.append((since, len(window), checks))
        return sampled

    monkeypatch.setattr(BitswapMonitor, "sampled_cids_since", checked)
    return run_campaign(config), ticks


@pytest.fixture(scope="module")
def campaigns(tmp_path_factory):
    """The same zipf campaign over memory, SQLite and JSONL logs."""
    runs = {}
    for kind in ("memory", "sqlite", "jsonl"):
        storage = "memory"
        if kind != "memory":
            storage = f"{kind}:{tmp_path_factory.mktemp(f'rows-{kind}')}"
        with pytest.MonkeyPatch.context() as monkeypatch:
            runs[kind] = run_checked(monkeypatch, zipf_config(storage))
    return runs


def stored_rows(result, name, kind):
    """``(ts, payload text)`` of every row the campaign stored, in order."""
    backend = getattr(result, name).log.backend
    backend.flush()
    if kind == "sqlite":
        with sqlite3.connect(backend.path) as conn:
            return conn.execute("SELECT ts, payload FROM events ORDER BY seq").fetchall()
    lines = backend.path.read_text().splitlines()
    return [(json.loads(line)["ts"], line) for line in lines]


class TestCampaignRows:
    @pytest.mark.parametrize("kind", ("sqlite", "jsonl"))
    @pytest.mark.parametrize(
        "name, record", (("hydra", hydra_record), ("bitswap_monitor", bitswap_record))
    )
    def test_stored_rows_are_the_oracle_rows(self, campaigns, kind, name, record):
        memory_log = getattr(campaigns["memory"][0], name).log
        expected = [(event.timestamp, json.dumps(record(event))) for event in memory_log]
        assert len(expected) > 1000
        assert stored_rows(campaigns[kind][0], name, kind) == expected

    def test_converted_sqlite_logs_are_the_jsonl_logs(self, campaigns, tmp_path):
        for name in ("hydra", "bitswap_monitor"):
            source = getattr(campaigns["sqlite"][0], name).log.backend
            jsonl = getattr(campaigns["jsonl"][0], name).log.backend
            source.flush()
            jsonl.flush()
            converted = tmp_path / f"{name}.jsonl"
            write_records(read_records(source.path), converted)
            assert converted.read_bytes() == jsonl.path.read_bytes()


class TestLiveSample:
    @pytest.mark.parametrize("kind", ("memory", "sqlite", "jsonl"))
    def test_every_tick_matches_the_log_window(self, campaigns, kind):
        self.assert_ticks(campaigns[kind][1], expected_ticks=8, per_tick=60 // 4)

    def test_attack_campaign(self, attack_config_factory, monkeypatch):
        # The Bitswap flood's junk want-haves go through observe_broadcast.
        result, ticks = run_checked(monkeypatch, attack_config_factory())
        assert result.attack_summary["bitswap-flood"]["broadcasts"] > 0
        self.assert_ticks(ticks, expected_ticks=4, per_tick=40 // 4)

    @staticmethod
    def assert_ticks(ticks, expected_ticks, per_tick):
        assert len(ticks) == expected_ticks
        for since, _, checks in ticks:
            assert all(checks.values()), (since, checks)
        # The RNG draws a sample on some ticks, not only whole windows.
        assert any(size > per_tick for _, size, _ in ticks)

    def test_since_never_moves_back(self):
        monitor = BitswapMonitor()
        assert monitor.sampled_cids_since(10.0, 5) == []
        monitor.forget_before(10.0)
        with pytest.raises(ValueError):
            monitor.sampled_cids_since(9.5, 5)
        with pytest.raises(ValueError):
            monitor.forget_before(9.5)
