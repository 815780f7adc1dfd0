"""Dataset export and import.

The paper publishes its processing code and datasets; this module gives
the reproduction the same property.  Crawl datasets, monitor logs and
provider observations serialize to line-oriented formats (CSV for the
tabular crawl rows — the Table 1 shape — and JSONL for the richer
records) and round-trip back into the analysis-facing types.  Every
JSONL file is written through :func:`repro.store.write_records` (monitor
logs through :func:`repro.store.write_events`, in the rows a
disk-backed campaign log holds) and read through
:func:`repro.store.read_records`; this module only encodes and decodes
the records.  Each reader parses through one
:class:`~repro.store.IdTable`, so a file's distinct peer ID and CID
strings are parsed once each.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Iterable, List

from repro.core.counting import CrawlRow
from repro.core.crawler import CrawlDataset, CrawlObservation, CrawlSnapshot
from repro.ids.cid import CID
from repro.ids.multiaddr import Multiaddr
from repro.kademlia.messages import MessageEnvelope
from repro.kademlia.providers import ProviderRecord
from repro.monitors.bitswap_monitor import BitswapLogEntry
from repro.monitors.provider_fetcher import ProviderObservation
from repro.store import (
    BITSWAP_CODEC,
    HYDRA_CODEC,
    IdTable,
    read_records,
    write_events,
    write_records,
)

# ---------------------------------------------------------------------------
# Crawl datasets (CSV rows + JSONL edges)
# ---------------------------------------------------------------------------

CRAWL_CSV_HEADER = ("crawl_id", "peer", "ip", "crawlable")


def write_crawl_csv(dataset: CrawlDataset, path) -> int:
    """Write the (crawl, peer, ip) rows; returns rows written."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CRAWL_CSV_HEADER)
        for snapshot in dataset.snapshots:
            for obs in snapshot.observations.values():
                for ip in obs.ips:
                    writer.writerow(
                        (snapshot.crawl_id, obs.peer.to_base58(), ip, int(obs.crawlable))
                    )
                    count += 1
    return count


def read_crawl_rows(path) -> List[CrawlRow]:
    """Read rows back in the shape the counting methodologies consume."""
    rows: List[CrawlRow] = []
    peers = IdTable().peers
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        for record in reader:
            rows.append(
                CrawlRow(
                    crawl_id=int(record["crawl_id"]),
                    peer=peers[record["peer"]],
                    ip=record["ip"],
                )
            )
    return rows


def _snapshot_to_json(snapshot: CrawlSnapshot) -> Dict:
    return {
        "crawl_id": snapshot.crawl_id,
        "started_at": snapshot.started_at,
        "duration": snapshot.duration,
        "requests_sent": snapshot.requests_sent,
        "observations": [
            {
                "peer": obs.peer.to_base58(),
                "ips": list(obs.ips),
                "crawlable": obs.crawlable,
            }
            for obs in snapshot.observations.values()
        ],
        "edges": {
            peer.to_base58(): [n.to_base58() for n in neighbors]
            for peer, neighbors in snapshot.edges.items()
        },
    }


def _snapshot_from_json(payload: Dict, ids: IdTable) -> CrawlSnapshot:
    snapshot = CrawlSnapshot(
        crawl_id=payload["crawl_id"],
        started_at=payload["started_at"],
        duration=payload["duration"],
        requests_sent=payload["requests_sent"],
    )
    peers = ids.peers
    for obs in payload["observations"]:
        peer = peers[obs["peer"]]
        snapshot.observations[peer] = CrawlObservation(
            peer=peer, ips=tuple(obs["ips"]), crawlable=obs["crawlable"]
        )
    for peer_text, neighbors in payload["edges"].items():
        snapshot.edges[peers[peer_text]] = tuple(peers[n] for n in neighbors)
    return snapshot


def write_crawl_jsonl(dataset: CrawlDataset, path) -> int:
    """Full snapshots (observations + edges) as one JSON object per crawl."""
    return write_records(map(_snapshot_to_json, dataset.snapshots), path)


def read_crawl_jsonl(path) -> CrawlDataset:
    dataset = CrawlDataset()
    ids = IdTable()
    for payload in read_records(path):
        dataset.add(_snapshot_from_json(payload, ids))
    return dataset


# ---------------------------------------------------------------------------
# Monitor logs (JSONL)
# ---------------------------------------------------------------------------


def write_hydra_jsonl(log: Iterable[MessageEnvelope], path) -> int:
    return write_events(log, HYDRA_CODEC, path)


def read_hydra_jsonl(path) -> List[MessageEnvelope]:
    return list(HYDRA_CODEC.decode_all(read_records(path)))


def write_bitswap_jsonl(log: Iterable[BitswapLogEntry], path) -> int:
    return write_events(log, BITSWAP_CODEC, path)


def read_bitswap_jsonl(path) -> List[BitswapLogEntry]:
    return list(BITSWAP_CODEC.decode_all(read_records(path)))


# ---------------------------------------------------------------------------
# Provider observations (JSONL)
# ---------------------------------------------------------------------------


def _record_to_json(record: ProviderRecord) -> Dict:
    return {
        "provider": record.provider.to_base58(),
        "addrs": [str(addr) for addr in record.addrs],
        "published_at": record.published_at,
    }


def _record_from_json(cid: CID, payload: Dict, ids: IdTable) -> ProviderRecord:
    peers = ids.peers
    return ProviderRecord(
        cid=cid,
        provider=peers[payload["provider"]],
        addrs=tuple(Multiaddr.parse(text, peers.__getitem__) for text in payload["addrs"]),
        published_at=payload["published_at"],
    )


def _observation_to_json(observation: ProviderObservation) -> Dict:
    reachable = {record.provider.to_base58() for record in observation.reachable}
    return {
        "cid": observation.cid.to_base32(),
        "collected_at": observation.collected_at,
        "resolvers_queried": observation.resolvers_queried,
        "walk_messages": observation.walk_messages,
        "records": [_record_to_json(r) for r in observation.records],
        "reachable": sorted(reachable),
    }


def _observation_from_json(payload: Dict, ids: IdTable) -> ProviderObservation:
    cid = ids.cids[payload["cid"]]
    records = tuple(_record_from_json(cid, r, ids) for r in payload["records"])
    reachable_set = set(payload["reachable"])
    return ProviderObservation(
        cid=cid,
        collected_at=payload["collected_at"],
        records=records,
        reachable=tuple(r for r in records if r.provider.to_base58() in reachable_set),
        resolvers_queried=payload["resolvers_queried"],
        walk_messages=payload["walk_messages"],
    )


def write_provider_observations_jsonl(
    observations: Iterable[ProviderObservation], path
) -> int:
    return write_records(map(_observation_to_json, observations), path)


def read_provider_observations_jsonl(path) -> List[ProviderObservation]:
    ids = IdTable()
    return [_observation_from_json(payload, ids) for payload in read_records(path)]


def export_campaign(result, directory) -> Dict[str, int]:
    """Export every campaign dataset into ``directory``.

    Returns counts per artifact, mirroring the paper's published-dataset
    structure (crawls, Hydra log, Bitswap log, provider records).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return {
        "crawl_rows": write_crawl_csv(result.crawls, directory / "crawls.csv"),
        "crawl_snapshots": write_crawl_jsonl(result.crawls, directory / "crawls.jsonl"),
        "hydra_messages": write_hydra_jsonl(result.hydra.log, directory / "hydra.jsonl"),
        "bitswap_messages": write_bitswap_jsonl(
            result.bitswap_monitor.log, directory / "bitswap.jsonl"
        ),
        "provider_observations": write_provider_observations_jsonl(
            result.provider_observations, directory / "providers.jsonl"
        ),
    }
