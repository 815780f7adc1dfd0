"""ENS: chain, contracts, namehash, scraping."""

import random

import pytest

from repro.content.catalog import ContentCatalog
from repro.ens.chain import Chain
from repro.ens.contracts import (
    Contenthash,
    ENSRegistry,
    EthRegistrar,
    PublicResolver,
    namehash,
)
from repro.ens.scraper import ENSContenthashScraper, _decode_cid
from repro.ens.seeding import ENSSeedConfig, seed_ens_world
from repro.ids.cid import CID
from repro.ids.encoding import base32_encode


class TestNamehash:
    def test_root_is_zero(self):
        assert namehash("") == "0x" + "00" * 32

    def test_deterministic_and_distinct(self):
        assert namehash("vitalik.eth") == namehash("vitalik.eth")
        assert namehash("vitalik.eth") != namehash("vitalik.test")

    def test_hierarchical(self):
        # namehash(sub.name.eth) depends on namehash(name.eth).
        assert namehash("a.b.eth") != namehash("a.c.eth")

    def test_rejects_empty_labels(self):
        with pytest.raises(ValueError):
            namehash("a..eth")


class TestChain:
    def test_pagination(self):
        chain = Chain()
        for index in range(25):
            chain.emit("0xaddr", "Ev", (str(index),), {})
            chain.mine()
        page1 = chain.get_logs(address="0xaddr", page=1, page_size=10)
        page3 = chain.get_logs(address="0xaddr", page=3, page_size=10)
        assert len(page1) == 10
        assert len(page3) == 5
        assert page1[0].topics == ("0",)

    def test_iter_all_logs(self):
        chain = Chain()
        for _ in range(7):
            chain.emit("0xaddr", "Ev", (), {})
        assert len(list(chain.iter_all_logs("0xaddr", page_size=3))) == 7

    def test_block_filtering(self):
        chain = Chain()
        chain.emit("0xaddr", "Ev", ("old",), {})
        chain.mine(100)
        chain.emit("0xaddr", "Ev", ("new",), {})
        recent = chain.get_logs(address="0xaddr", from_block=chain.current_block)
        assert [log.topics for log in recent] == [("new",)]

    def test_rejects_bad_pages(self):
        with pytest.raises(ValueError):
            Chain().get_logs(page=0)


class TestContracts:
    @pytest.fixture()
    def ens(self):
        chain = Chain()
        registry = ENSRegistry(chain)
        registrar = EthRegistrar(registry, chain)
        resolver = PublicResolver(chain, registry, "0xresolver")
        return chain, registry, registrar, resolver

    def test_registration_assigns_ownership(self, ens):
        _, registry, registrar, _ = ens
        node = registrar.register("alice", "0xalice")
        assert registry.owner(node) == "0xalice"
        assert registrar.is_registered("alice")

    def test_double_registration_rejected(self, ens):
        _, _, registrar, _ = ens
        registrar.register("bob", "0xbob")
        with pytest.raises(ValueError):
            registrar.register("bob", "0xeve")

    def test_only_owner_sets_resolver_and_contenthash(self, ens):
        _, registry, registrar, resolver = ens
        node = registrar.register("carol", "0xcarol")
        with pytest.raises(PermissionError):
            registry.set_resolver(node, resolver.address, caller="0xeve")
        registry.set_resolver(node, resolver.address, caller="0xcarol")
        with pytest.raises(PermissionError):
            resolver.set_contenthash(node, Contenthash("ipfs-ns", "b..."), caller="0xeve")

    def test_contenthash_roundtrip(self, ens):
        _, registry, registrar, resolver = ens
        node = registrar.register("dave", "0xdave")
        registry.set_resolver(node, resolver.address, caller="0xdave")
        value = Contenthash("ipfs-ns", CID.generate(random.Random(0)).to_base32())
        resolver.set_contenthash(node, value, caller="0xdave")
        assert resolver.contenthash(node) == value
        assert Contenthash.decode(value.encode()) == value

    def test_contenthash_emits_event(self, ens):
        chain, registry, registrar, resolver = ens
        node = registrar.register("erin", "0xerin")
        registry.set_resolver(node, resolver.address, caller="0xerin")
        resolver.set_contenthash(node, Contenthash("ipfs-ns", "btest"), caller="0xerin")
        events = chain.get_logs(address=resolver.address, event="ContenthashChanged")
        assert len(events) == 1
        assert events[0].topics == (node,)


class TestScraper:
    def test_decode_cid_roundtrip(self):
        cid = CID.generate(random.Random(1))
        assert _decode_cid(cid.to_base32()) == cid

    def test_decode_cid_rejects_garbage(self):
        assert _decode_cid("not-a-cid") is None
        assert _decode_cid("bZZZZ") is None
        assert _decode_cid("qmfoo") is None

    def test_dag_pb_contenthash_is_not_read_as_a_raw_cid(self):
        # A dag-pb CIDv1 (codec 0x70, ``bafybei…``) with a sha2-256
        # multihash: its digest would make a valid raw CID, but the text
        # names a different CID, so the scrape must not resolve it.
        digest = CID.generate(random.Random(6)).digest
        dag_pb = "b" + base32_encode(b"\x01\x70\x12\x20" + digest)
        assert dag_pb.startswith("bafybei")
        assert _decode_cid(dag_pb) is None
        chain = Chain()
        registry = ENSRegistry(chain)
        registrar = EthRegistrar(registry, chain)
        resolver = PublicResolver(chain, registry, "0xr")
        node = registrar.register("site", "0xowner")
        registry.set_resolver(node, resolver.address, caller="0xowner")
        resolver.set_contenthash(node, Contenthash("ipfs-ns", dag_pb), "0xowner")
        (record,) = ENSContenthashScraper(chain, ["0xr"]).scrape().records
        assert record.cid_string == dag_pb
        assert record.cid is None

    def test_scrape_filters_and_keeps_latest(self):
        chain = Chain()
        registry = ENSRegistry(chain)
        registrar = EthRegistrar(registry, chain)
        resolver = PublicResolver(chain, registry, "0xr")
        node = registrar.register("site", "0xowner")
        registry.set_resolver(node, resolver.address, caller="0xowner")
        rng = random.Random(2)
        first, second = CID.generate(rng), CID.generate(rng)
        resolver.set_contenthash(node, Contenthash("ipfs-ns", first.to_base32()), "0xowner")
        chain.mine(10)
        resolver.set_contenthash(node, Contenthash("ipfs-ns", second.to_base32()), "0xowner")
        # Non-IPFS record that must be filtered out.
        other = registrar.register("swarm", "0xo2")
        registry.set_resolver(other, resolver.address, caller="0xo2")
        resolver.set_contenthash(other, Contenthash("swarm-ns", "abcd"), "0xo2")
        result = ENSContenthashScraper(chain, ["0xr"]).scrape()
        assert result.contenthash_events == 3
        assert len(result.records) == 1
        assert result.records[0].cid == second  # latest wins

    def test_requires_resolvers(self):
        with pytest.raises(ValueError):
            ENSContenthashScraper(Chain(), [])


class TestSeeding:
    def test_seed_produces_scrapable_world(self):
        catalog = ContentCatalog(random.Random(3))
        catalog.mint_platform_set("web3.storage", 30)
        world = seed_ens_world(catalog, ENSSeedConfig(num_names=40), random.Random(4))
        scraper = ENSContenthashScraper(
            world.chain, [r.address for r in world.resolvers]
        )
        result = scraper.scrape()
        assert len(result.records) == 40  # swarm names filtered out
        decoded = result.cids()
        assert len(decoded) == 40
