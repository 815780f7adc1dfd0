"""The keyspace oracle: exactness of XOR-closest queries."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ids.peerid import PeerID
from repro.netsim.oracle import KeyspaceOracle


def brute_force_closest(peers, target, count):
    return sorted(peers, key=lambda peer: peer.dht_key ^ target)[:count]


@pytest.fixture(scope="module")
def populated():
    rng = random.Random(17)
    oracle = KeyspaceOracle()
    peers = [PeerID.generate(rng) for _ in range(500)]
    for peer in peers:
        oracle.add(peer)
    return oracle, peers


class TestClosest:
    def test_matches_brute_force(self, populated):
        oracle, peers = populated
        rng = random.Random(18)
        for _ in range(50):
            target = rng.getrandbits(256)
            count = rng.randrange(1, 40)
            assert oracle.closest(target, count) == brute_force_closest(peers, target, count)

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2**256 - 1), st.integers(min_value=1, max_value=25))
    def test_matches_brute_force_hypothesis(self, populated, target, count):
        oracle, peers = populated
        assert oracle.closest(target, count) == brute_force_closest(peers, target, count)

    def test_count_larger_than_population(self, populated):
        oracle, peers = populated
        result = oracle.closest(0, 10_000)
        assert len(result) == len(peers)

    def test_empty_oracle(self):
        assert KeyspaceOracle().closest(0, 5) == []

    def test_zero_count(self, populated):
        oracle, _ = populated
        assert oracle.closest(0, 0) == []


class TestMembership:
    def test_add_remove(self):
        rng = random.Random(19)
        oracle = KeyspaceOracle()
        peer = PeerID.generate(rng)
        oracle.add(peer)
        assert peer in oracle
        assert len(oracle) == 1
        oracle.remove(peer)
        assert peer not in oracle
        assert len(oracle) == 0

    def test_add_idempotent(self):
        rng = random.Random(20)
        oracle = KeyspaceOracle()
        peer = PeerID.generate(rng)
        oracle.add(peer)
        oracle.add(peer)
        assert len(oracle) == 1

    def test_remove_absent_is_noop(self):
        rng = random.Random(21)
        oracle = KeyspaceOracle()
        oracle.remove(PeerID.generate(rng))
        assert len(oracle) == 0

    def test_peers_sorted_by_key(self, populated):
        oracle, _ = populated
        keys = [peer.dht_key for peer in oracle.peers()]
        assert keys == sorted(keys)


class TestSampleRange:
    def test_samples_share_prefix(self, populated):
        oracle, peers = populated
        rng = random.Random(22)
        anchor = peers[0].dht_key
        for prefix_len in (1, 2, 4, 6):
            shift = 256 - prefix_len
            base = (anchor >> shift) << shift
            sample = oracle.sample_range(base, prefix_len, 10, rng)
            for key in sample:
                assert key >> shift == base >> shift

    def test_whole_space(self, populated):
        oracle, peers = populated
        rng = random.Random(23)
        sample = oracle.sample_range(0, 0, 50, rng)
        assert len(sample) == 50
        assert len(set(sample)) == 50

    def test_empty_range(self, populated):
        oracle, _ = populated
        rng = random.Random(24)
        # A very deep prefix almost surely holds no peers.
        assert oracle.sample_range(123 << 8, 248, 5, rng) == []

    def test_returns_all_when_fewer_than_count(self, populated):
        oracle, peers = populated
        rng = random.Random(25)
        # Find some peer's 16-bit prefix; few peers will share it.
        anchor = peers[3].dht_key
        base = (anchor >> 240) << 240
        sample = oracle.sample_range(base, 16, 500, rng)
        expected = [p.dht_key for p in peers if p.dht_key >> 240 == anchor >> 240]
        assert set(sample) == set(expected)
