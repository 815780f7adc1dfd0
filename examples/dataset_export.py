#!/usr/bin/env python3
"""Publish-your-data workflow: export a campaign, re-analyse the files.

The paper publishes its processing code and datasets; this example runs
a small campaign, exports every dataset (crawl CSV/JSONL, Hydra log,
Bitswap log, provider observations), then reloads the files and shows
that the downstream analyses produce identical results — the round trip
a reproducing researcher would rely on.

Run: python examples/dataset_export.py [output_dir]
"""

import sys
import tempfile
from pathlib import Path

from repro import ScenarioConfig, run_campaign
from repro.core import datasets
from repro.core.cloud import cloud_status_shares
from repro.core.counting import CountingMethod
from repro.core.traffic import summarize
from repro.core.providers_analysis import classify_providers


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp()) / "ipfs-data"
    print("running a smoke campaign...")
    result = run_campaign(ScenarioConfig.smoke())

    print(f"exporting datasets to {out_dir} ...")
    counts = datasets.export_campaign(result, out_dir)
    for artifact, count in counts.items():
        path = {
            "crawl_rows": "crawls.csv",
            "crawl_snapshots": "crawls.jsonl",
            "hydra_messages": "hydra.jsonl",
            "bitswap_messages": "bitswap.jsonl",
            "provider_observations": "providers.jsonl",
        }[artifact]
        size_kib = (out_dir / path).stat().st_size / 1024
        print(f"  {path:<16} {count:>8} records  {size_kib:8.0f} KiB")

    print("\nreloading and re-analysing from the files alone...")
    rows = datasets.read_crawl_rows(out_dir / "crawls.csv")
    reloaded_shares = cloud_status_shares(rows, result.world.cloud_db, CountingMethod.A_N)
    original_shares = cloud_status_shares(
        result.crawl_rows, result.world.cloud_db, CountingMethod.A_N
    )
    assert {k: round(v, 9) for k, v in reloaded_shares.items()} == {
        k: round(v, 9) for k, v in original_shares.items()
    }
    print(f"  A-N cloud status from CSV: {reloaded_shares} ✓ identical")

    hydra_log = datasets.read_hydra_jsonl(out_dir / "hydra.jsonl")
    assert summarize(hydra_log).class_shares == result.hydra_summary.class_shares
    print(f"  traffic split from JSONL: {len(hydra_log)} messages ✓ identical")

    observations = datasets.read_provider_observations_jsonl(out_dir / "providers.jsonl")
    reloaded_classes = classify_providers(observations, result.world.cloud_db)
    original_classes = classify_providers(result.provider_observations, result.world.cloud_db)
    assert reloaded_classes.class_shares == original_classes.class_shares
    print(
        f"  provider classification from JSONL: "
        f"{reloaded_classes.total_providers} providers ✓ identical"
    )
    print("\nround trip complete — the published files fully determine the analyses.")


if __name__ == "__main__":
    main()
