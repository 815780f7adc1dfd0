"""The DNS substrate: records, zones, resolution, scanning, passive DNS."""

import random

import pytest

from repro.dns.passive import PassiveDNSFeed
from repro.dns.records import (
    DNSLINK_PREFIX,
    RRType,
    ResourceRecord,
    Zone,
    ZoneRegistry,
    make_dnslink_txt,
    parse_dnslink_txt,
)
from repro.dns.resolver import ResolutionError, Resolver
from repro.dns.scanner import PUBLIC_SUFFIXES, ActiveScanner, registrable_domain


def _suffix_loop(name):
    """The reduction as a loop over every suffix (the oracle)."""
    labels = name.lower().strip(".").split(".")
    best = None
    for suffix in PUBLIC_SUFFIXES:
        suffix_labels = suffix.split(".")
        if len(labels) > len(suffix_labels) and labels[-len(suffix_labels):] == suffix_labels:
            candidate = ".".join(labels[-len(suffix_labels) - 1 :])
            if best is None or len(suffix_labels) > len(best.split(".")) - 1:
                best = candidate
    return best


class TestDNSLinkRecords:
    def test_make_and_parse_ipfs(self):
        record = make_dnslink_txt("example.com", "bafyexample", "ipfs")
        assert record.name == "_dnslink.example.com"
        assert parse_dnslink_txt(record.value) == ("ipfs", "bafyexample")

    def test_make_and_parse_ipns(self):
        record = make_dnslink_txt("example.com", "k51abc", "ipns")
        assert parse_dnslink_txt(record.value) == ("ipns", "k51abc")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_dnslink_txt("example.com", "x", "http")

    @pytest.mark.parametrize(
        "value",
        [
            "dnslink=",
            "dnslink=/ipfs/",
            "dnslink=/ftp/abc",
            "dnslink=ipfs/abc",
            "v=spf1 include:example.com",
            "dnslink=/ipfs/a/b",
        ],
    )
    def test_parse_rejects_malformed(self, value):
        assert parse_dnslink_txt(value) is None


class TestZones:
    def test_zone_answers_soa(self):
        zone = Zone("example.com")
        assert zone.lookup("example.com", RRType.SOA)

    def test_zone_rejects_foreign_records(self):
        zone = Zone("example.com")
        with pytest.raises(ValueError):
            zone.add(ResourceRecord("other.org", RRType.A, "1.2.3.4"))

    def test_subdomain_records_allowed(self):
        zone = Zone("example.com")
        zone.add(ResourceRecord("www.example.com", RRType.A, "1.2.3.4"))
        assert zone.lookup("www.example.com", RRType.A)

    def test_registry_longest_suffix_match(self):
        registry = ZoneRegistry()
        registry.create_zone("example.com")
        assert registry.zone_for("a.b.example.com").domain == "example.com"
        assert registry.zone_for("example.org") is None

    def test_create_zone_idempotent(self):
        registry = ZoneRegistry()
        a = registry.create_zone("x.io")
        b = registry.create_zone("x.io")
        assert a is b
        assert len(registry) == 1


class TestResolver:
    @pytest.fixture()
    def registry(self):
        registry = ZoneRegistry()
        gateway = registry.create_zone("gateway.example")
        gateway.add(ResourceRecord("gateway.example", RRType.A, "9.9.9.9"))
        site = registry.create_zone("site.com")
        site.add(ResourceRecord("site.com", RRType.ALIAS, "gateway.example."))
        chained = registry.create_zone("chained.com")
        chained.add(ResourceRecord("chained.com", RRType.CNAME, "site.com."))
        looped = registry.create_zone("loop.com")
        looped.add(ResourceRecord("loop.com", RRType.CNAME, "loop.com."))
        return registry

    def test_direct_a(self, registry):
        assert Resolver(registry).resolve_a("gateway.example") == ["9.9.9.9"]

    def test_alias_following(self, registry):
        assert Resolver(registry).resolve_a("site.com") == ["9.9.9.9"]

    def test_cname_chain(self, registry):
        assert Resolver(registry).resolve_a("chained.com") == ["9.9.9.9"]

    def test_loop_detection(self, registry):
        with pytest.raises(ResolutionError):
            Resolver(registry).resolve_a("loop.com")

    def test_soa_exists(self, registry):
        resolver = Resolver(registry)
        assert resolver.soa_exists("site.com")
        assert not resolver.soa_exists("nxdomain.com")

    def test_no_records(self, registry):
        registry.create_zone("empty.com")
        assert Resolver(registry).resolve_a("empty.com") == []


class TestRegistrableDomain:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("example.com", "example.com"),
            ("www.example.com", "example.com"),
            ("a.b.c.example.io", "example.io"),
            ("example.co.uk", "example.co.uk"),
            ("deep.example.co.uk", "example.co.uk"),
            ("com", None),
            ("localdomain", None),
        ],
    )
    def test_reduction(self, name, expected):
        assert registrable_domain(name) == expected

    def test_matches_suffix_loop(self):
        """Generated names (suffixes, unknown TLDs, empty labels, mixed
        case, trailing dots) reduce as the per-suffix loop reduces them."""
        rng = random.Random(11)
        pool = list(PUBLIC_SUFFIXES) + ["uk", "br", "link", "eth", "zz", "", "Co.UK"]
        for _ in range(5000):
            labels = [
                rng.choice(["www", "a", "Example", "co", "com", ""])
                for _ in range(rng.randrange(4))
            ]
            name = ".".join(labels + [rng.choice(pool)]) + rng.choice(["", "."])
            assert registrable_domain(name) == _suffix_loop(name), name


class TestActiveScanner:
    def test_full_pipeline(self):
        registry = ZoneRegistry()
        gateway = registry.create_zone("gw.net")
        gateway.add(ResourceRecord("gw.net", RRType.A, "7.7.7.7"))
        adopter = registry.create_zone("dapp.io")
        adopter.add(make_dnslink_txt("dapp.io", "bafyabc", "ipfs"))
        adopter.add(ResourceRecord("dapp.io", RRType.CNAME, "gw.net."))
        plain = registry.create_zone("plain.com")
        malformed = registry.create_zone("broken.dev")
        malformed.add(
            ResourceRecord(f"{DNSLINK_PREFIX}.broken.dev", RRType.TXT, "dnslink=oops")
        )
        scanner = ActiveScanner(Resolver(registry))
        result = scanner.scan(
            ["www.dapp.io", "dapp.io", "plain.com", "broken.dev", "nxdomain.org", "gw.net"]
        )
        assert result.registered_domains == 4
        assert len(result.dnslink_records) == 1
        record = result.dnslink_records[0]
        assert record.domain == "dapp.io"
        assert record.kind == "ipfs"
        assert record.a_record_ips == ("7.7.7.7",)
        assert result.all_ips == ["7.7.7.7"]

    def test_subdomains_reduced_to_roots(self):
        registry = ZoneRegistry()
        registry.create_zone("example.com")
        scanner = ActiveScanner(Resolver(registry))
        result = scanner.scan(["a.example.com", "b.example.com"])
        assert result.root_domains == 1


class TestPassiveDNS:
    def test_aggregates_counts(self):
        feed = PassiveDNSFeed()
        feed.observe("gw.net", RRType.A, "1.1.1.1", count=3)
        feed.observe("gw.net", RRType.A, "1.1.1.1", count=2)
        feed.observe("gw.net", RRType.A, "2.2.2.2")
        assert feed.values_for("gw.net", RRType.A) == {"1.1.1.1", "2.2.2.2"}

    def test_ips_for_domains(self):
        feed = PassiveDNSFeed()
        feed.observe("a.com", RRType.A, "1.1.1.1")
        feed.observe("b.com", RRType.A, "2.2.2.2")
        feed.observe("c.com", RRType.A, "3.3.3.3")
        assert feed.ips_for_domains(["a.com", "B.COM."]) == {"1.1.1.1", "2.2.2.2"}

    def test_name_normalisation(self):
        feed = PassiveDNSFeed()
        feed.observe("GW.Net.", RRType.A, "1.1.1.1")
        assert feed.values_for("gw.net", RRType.A) == {"1.1.1.1"}
