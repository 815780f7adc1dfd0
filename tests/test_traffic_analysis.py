"""Traffic analyses (§5): classification, lifetimes, Pareto, attribution."""

import random

import pytest

from repro.core import traffic
from repro.core.pareto import top_share
from repro.ids.cid import CID
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageType, TrafficClass
from repro.monitors.bitswap_monitor import BitswapLogEntry
from repro.monitors.hydra import HydraBooster
from repro.netsim.clock import SECONDS_PER_DAY
from repro.world.ipspace import IPAllocator
from repro.world.clouddb import CloudIPDatabase
from repro.world.rdns import ReverseDNS


@pytest.fixture(scope="module")
def setting():
    rng = random.Random(91)
    allocator = IPAllocator()
    cloud_block = allocator.allocate_block("amazon-aws", "US", True, 24)
    isp_block = allocator.allocate_block("isp-de", "DE", False, 24)
    web3_block = allocator.allocate_block("amazon-aws", "US", True, 28)
    cloud_db = CloudIPDatabase(allocator.blocks)
    rdns = ReverseDNS()
    rdns.register_block(web3_block, "node-{ip}.web3.storage")
    rdns.register_block(cloud_block, "ec2-{ip}.compute.amazonaws.com")

    from repro.world.ipspace import format_ip

    hydra = HydraBooster(num_heads=4, rng=rng)
    cloud_peer = PeerID.generate(rng)
    isp_peer = PeerID.generate(rng)
    web3_peer = PeerID.generate(rng)
    hydra_peer = hydra.heads[0]
    cloud_ip = format_ip(cloud_block.base + 1)
    isp_ip = format_ip(isp_block.base + 1)
    web3_ip = format_ip(web3_block.base + 1)
    cid = CID.generate(rng)
    # Day 0: cloud peer downloads heavily; ISP peer once.
    for _ in range(8):
        hydra.record(100.0, cloud_peer, cloud_ip, MessageType.GET_PROVIDERS, cid)
    hydra.record(200.0, isp_peer, isp_ip, MessageType.GET_PROVIDERS, cid)
    # Day 1: web3 advertises; hydra fleet downloads; a FIND_NODE.
    t1 = SECONDS_PER_DAY + 100.0
    for _ in range(4):
        hydra.record(t1, web3_peer, web3_ip, MessageType.ADD_PROVIDER, cid)
    for _ in range(6):
        hydra.record(t1, hydra_peer, cloud_ip, MessageType.GET_PROVIDERS, CID.generate(rng))
    hydra.record(t1, isp_peer, isp_ip, MessageType.FIND_NODE, target_key=5)
    return {
        "hydra": hydra,
        "summary": traffic.summarize(hydra.log),
        "cloud_db": cloud_db,
        "rdns": rdns,
        "peers": dict(cloud=cloud_peer, isp=isp_peer, web3=web3_peer, hydra=hydra_peer),
        "ips": dict(cloud=cloud_ip, isp=isp_ip, web3=web3_ip),
        "cid": cid,
    }


class TestSummary:
    def test_totals_and_time_span(self, setting):
        summary = setting["summary"]
        assert summary.total == len(setting["hydra"].log) == 20
        assert summary.unique_cids == 7
        assert summary.first_timestamp == 100.0
        assert summary.last_timestamp == SECONDS_PER_DAY + 100.0

    def test_counts_keep_first_seen_order(self, setting):
        peers, ips = setting["peers"], setting["ips"]
        assert list(setting["summary"].counts.items()) == [
            ((TrafficClass.DOWNLOAD, peers["cloud"], ips["cloud"]), 8),
            ((TrafficClass.DOWNLOAD, peers["isp"], ips["isp"]), 1),
            ((TrafficClass.ADVERTISEMENT, peers["web3"], ips["web3"]), 4),
            ((TrafficClass.DOWNLOAD, peers["hydra"], ips["cloud"]), 6),
            ((TrafficClass.OTHER, peers["isp"], ips["isp"]), 1),
        ]

    def test_bitswap_entries_have_no_class(self, setting):
        rng = random.Random(93)
        cid = CID.generate(rng)
        entries = [
            BitswapLogEntry(0.0, setting["peers"]["isp"], setting["ips"]["isp"], cid),
            BitswapLogEntry(SECONDS_PER_DAY, setting["peers"]["isp"], setting["ips"]["isp"], cid),
        ]
        summary = traffic.summarize(entries)
        assert summary.counts == {(None, setting["peers"]["isp"], setting["ips"]["isp"]): 2}
        assert summary.class_shares == {}
        assert summary.days_seen_histogram("cid") == {2: 1}
        assert summary.unique_cids == 1


class TestClassShares:
    def test_shares_sum_to_one(self, setting):
        result = setting["summary"].class_shares
        assert sum(result.values()) == pytest.approx(1.0)

    def test_counts(self, setting):
        result = setting["summary"].class_shares
        total = len(setting["hydra"].log)
        assert result["download"] == pytest.approx(15 / total)
        assert result["advertisement"] == pytest.approx(4 / total)
        assert result["other"] == pytest.approx(1 / total)

    def test_empty_log(self, setting):
        summary = traffic.summarize([])
        assert summary.total == 0
        assert summary.first_timestamp is None
        assert summary.class_shares == {}
        assert summary.platform_shares(setting["rdns"], set()) == {}
        assert summary.cloud_report(setting["cloud_db"], TrafficClass.DOWNLOAD) == (
            traffic.CloudTrafficReport(0.0, 0.0)
        )


class TestVolumes:
    def test_peerid_volumes(self, setting):
        volumes = setting["summary"].peer_volumes()
        assert volumes[setting["peers"]["cloud"]] == 8

    def test_ip_volumes(self, setting):
        volumes = setting["summary"].ip_volumes()
        assert volumes[setting["ips"]["cloud"]] == 14  # incl. hydra fleet

    def test_class_filtered_volumes_keep_first_seen_order(self, setting):
        peers, ips = setting["peers"], setting["ips"]
        summary = setting["summary"]
        assert list(summary.ip_volumes(TrafficClass.DOWNLOAD).items()) == [
            (ips["cloud"], 14), (ips["isp"], 1)
        ]
        assert summary.peer_volumes(TrafficClass.OTHER) == {peers["isp"]: 1}

    def test_pareto_reports(self, setting):
        report = traffic.ip_pareto(setting["summary"].ip_volumes(), setting["cloud_db"])
        # Cloud volume: everything except the two ISP messages.
        total = len(setting["hydra"].log)
        assert report.subgroup_share == pytest.approx((total - 2) / total)
        assert report.curve[-1][1] == pytest.approx(1.0)

    def test_gateway_share(self, setting):
        report = traffic.peerid_pareto(
            setting["summary"].peer_volumes(),
            gateway_peers={setting["peers"]["cloud"]},
        )
        assert report.subgroup_share == pytest.approx(8 / len(setting["hydra"].log))


class TestDaysSeen:
    def test_cid_days(self, setting):
        histogram = setting["summary"].days_seen_histogram("cid")
        assert histogram[2] == 1  # the shared cid appears on two days
        assert histogram[1] == 6  # hydra-fleet one-off cids

    def test_ip_days(self, setting):
        histogram = setting["summary"].days_seen_histogram("ip")
        assert histogram[2] == 2  # cloud_ip and isp_ip both span days
        assert histogram[1] == 1  # web3 ip

    def test_unknown_kind_rejected(self, setting):
        with pytest.raises(ValueError):
            setting["summary"].days_seen_histogram("asn")

    def test_cloud_share_by_longevity(self, setting):
        by_days = setting["summary"].ip_days_cloud_share(setting["cloud_db"])
        assert by_days[1] == 1.0   # single-day IP is the web3 (cloud) one
        assert by_days[2] == 0.5   # cloud + isp


class TestCloudTrafficReport:
    def test_by_count_vs_by_volume(self, setting):
        report = setting["summary"].cloud_report(setting["cloud_db"])
        assert report.cloud_share_by_ip_count == pytest.approx(2 / 3)
        total = len(setting["hydra"].log)
        assert report.cloud_share_by_volume == pytest.approx((total - 2) / total)

    def test_class_filter(self, setting):
        downloads = setting["summary"].cloud_report(
            setting["cloud_db"], TrafficClass.DOWNLOAD
        )
        assert downloads.provider_shares_by_volume["amazon-aws"] == pytest.approx(14 / 15)



class TestPlatformAttribution:
    def test_hydra_peers_attributed_first(self, setting):
        label = traffic.attribute_platform(
            setting["ips"]["cloud"], setting["peers"]["hydra"],
            setting["rdns"], {setting["peers"]["hydra"]},
        )
        assert label == "hydra"

    def test_rdns_suffix_match(self, setting):
        assert (
            traffic.attribute_platform(
                setting["ips"]["web3"], setting["peers"]["web3"], setting["rdns"], set()
            )
            == "web3-storage"
        )

    def test_generic_aws(self, setting):
        assert (
            traffic.attribute_platform(
                setting["ips"]["cloud"], setting["peers"]["cloud"], setting["rdns"], set()
            )
            == "amazon-aws-other"
        )

    def test_no_rdns_is_other(self, setting):
        assert (
            traffic.attribute_platform(
                setting["ips"]["isp"], setting["peers"]["isp"], setting["rdns"], set()
            )
            == "other"
        )

    def test_traffic_shares_by_class(self, setting):
        hydra_peers = {setting["peers"]["hydra"]}
        summary = setting["summary"]
        adverts = summary.platform_shares(
            setting["rdns"], hydra_peers, TrafficClass.ADVERTISEMENT
        )
        assert adverts == {"web3-storage": 1.0}
        downloads = summary.platform_shares(
            setting["rdns"], hydra_peers, TrafficClass.DOWNLOAD
        )
        assert downloads["hydra"] == pytest.approx(6 / 15)

    def test_bitswap_attribution(self, setting):
        rng = random.Random(92)
        entries = [
            BitswapLogEntry(0.0, setting["peers"]["web3"], setting["ips"]["web3"], CID.generate(rng)),
            BitswapLogEntry(0.0, setting["peers"]["isp"], setting["ips"]["isp"], CID.generate(rng)),
        ]
        shares = traffic.summarize(entries).platform_shares(setting["rdns"], set())
        assert shares == {"web3-storage": 0.5, "other": 0.5}

    def test_attribution_runs_once_per_sender_and_ip(self, setting, monkeypatch):
        calls = []
        attribute = traffic.attribute_platform

        def counting(ip, sender, rdns, hydra_peers):
            calls.append((sender, ip))
            return attribute(ip, sender, rdns, hydra_peers)

        monkeypatch.setattr(traffic, "attribute_platform", counting)
        # The ISP peer sends a download and a FIND_NODE from one IP.
        setting["summary"].platform_shares(setting["rdns"], set())
        assert len(calls) == len(set(calls)) == 4
