"""Multi-config campaign sweeps over the execution engine.

A sweep runs one full measurement campaign per :class:`ScenarioConfig`
— different seeds, network sizes, horizons, counting ablations — with
each campaign in its own worker process.  Campaign results hold the
whole simulated world (unpicklable schedulers included), so workers
summarise in-process and only plain dicts travel back: the headline
crawl statistics, the A-N / G-IP cloud shares and the traffic summary,
or the entire figure-by-figure :func:`~repro.scenario.report.full_report`
when ``full_reports=True`` (which is how figure/analysis generation is
parallelised too — each worker computes its campaign's analyses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.counting import CountingMethod
from repro.exec.engine import ExecError, run_tasks
from repro.scenario.config import ScenarioConfig


def summarize_campaign(result) -> Dict[str, object]:
    """The compact cross-config summary a sweep reports per campaign.

    Everything here is a share or a count — the quantities the paper's
    §4/§5 comparisons are built from — and JSON-serialisable.
    """
    from repro.core import cloud as cloud_analysis
    from repro.scenario.report import crawl_stats_report

    rows = result.crawl_rows
    cloud_db = result.world.cloud_db
    an = cloud_analysis.cloud_status_shares(rows, cloud_db, CountingMethod.A_N)
    gip = cloud_analysis.cloud_status_shares(rows, cloud_db, CountingMethod.G_IP)
    summary: Dict[str, object] = {
        "servers": result.config.profile.online_servers,
        "days": result.config.days,
        "seed": result.config.seed,
        "crawl_stats": crawl_stats_report(result),
        "an_cloud_share": an.get("cloud", 0.0),
        "gip_cloud_share": gip.get("cloud", 0.0),
        "an_shares": an,
        "gip_shares": gip,
        "dht_messages": len(result.hydra.log),
        "traffic_class_shares": result.hydra_summary.class_shares,
        "exec_errors": [str(error) for error in result.exec_errors],
    }
    return summary


@dataclass
class SweepOutcome:
    """One sweep: per-config summaries aligned with the input configs."""

    configs: List[ScenarioConfig]
    #: summary dict per config; ``None`` where the campaign failed.
    summaries: List[Optional[Dict[str, object]]]
    errors: List[ExecError] = field(default_factory=list)

    @property
    def num_failed(self) -> int:
        return sum(1 for summary in self.summaries if summary is None)


def _run_sweep_task(payload) -> Dict[str, object]:
    """Worker entry point: run one campaign and summarise in-process."""
    from repro.scenario.run import run_campaign

    config, full = payload
    result = run_campaign(config)
    summary = summarize_campaign(result)
    if full:
        from repro.scenario.report import full_report

        summary["full_report"] = full_report(result, resilience_reps=3)
    return summary


def run_sweep(
    configs: Sequence[ScenarioConfig],
    *,
    workers: int = 1,
    retries: int = 1,
    full_reports: bool = False,
    storage_spec: Optional[str] = None,
) -> SweepOutcome:
    """Run one campaign per config, ``workers`` of them at a time.

    Campaigns are independent by construction (each owns its seeded
    world), so sweep-level parallelism needs no extra seed plumbing.
    ``storage_spec`` (a :func:`repro.store.open_store` spec) is rebased
    into a per-task subdirectory for every campaign so disk-backed
    sweeps never interleave their monitor logs.
    """
    from repro.store import task_storage_spec

    prepared: List[ScenarioConfig] = []
    for index, config in enumerate(configs):
        if storage_spec is not None:
            import dataclasses

            config = dataclasses.replace(
                config, storage=task_storage_spec(storage_spec, index)
            )
        prepared.append(config)
    summaries, errors = run_tasks(
        _run_sweep_task,
        [(config, full_reports) for config in prepared],
        workers=workers,
        retries=retries,
    )
    return SweepOutcome(configs=prepared, summaries=summaries, errors=errors)


def sweep_grid(
    base: ScenarioConfig,
    *,
    servers: Sequence[int] = (),
    seeds: Sequence[int] = (),
    days: Sequence[int] = (),
) -> List[ScenarioConfig]:
    """The cross product of parameter axes as concrete configs.

    Empty axes keep the base value, so ``sweep_grid(base, seeds=[1, 2])``
    is a plain seed sweep.
    """
    import dataclasses

    configs: List[ScenarioConfig] = []
    for num_servers in servers or (base.profile.online_servers,):
        for seed in seeds or (base.seed,):
            for num_days in days or (base.days,):
                config = base.scaled(num_servers)
                config = dataclasses.replace(
                    config,
                    days=num_days,
                    seed=seed,
                    profile=dataclasses.replace(config.profile, seed=seed),
                )
                configs.append(config)
    return configs
