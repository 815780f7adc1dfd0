"""Paper fidelity: one declared table of what counts as reproduced.

Each :class:`Row` reads one number from a campaign's
:func:`~repro.scenario.report.full_report` (plus the few numbers
:func:`measure` adds to it), compares it with a bound and carries the
paper value it reproduces.  Relations and rankings are reduced to one
derived number — a difference, a ratio, or a leader's margin over the
runner-up — so every check is a single comparison that can say what it
measured.  The comparisons are ``< <= > >= ==`` against the bound, and
``~``: within ``bound`` of the paper value (strictly).

Rows belong to one of two campaigns:

* ``bench`` — traffic, provider-record and entry-point measurements
  (:meth:`~repro.scenario.config.ScenarioConfig.bench`),
* ``horizon`` — the paper's 38-day / 101-crawl temporal design,
  crawl-only (:meth:`~repro.scenario.config.ScenarioConfig.paper_horizon`),
  for the G-IP numbers that depend on how many crawls are aggregated.

Row ids start with the experiment id of DESIGN.md §4 (``F3.``, ``S5.``,
…).  Table 1 is exact arithmetic and is checked by
``tests/test_counting.py::TestTable1`` instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.core import topology
from repro.core.providers_analysis import _records_by_provider
from repro.scenario.report import fig8_report, full_report
from repro.scenario.run import CampaignResult
from repro.world.profiles import PAPER as P

BENCH = "bench"
HORIZON = "horizon"
#: the comparison "within ``bound`` of the paper value"
WITHIN = "~"

_COMPARE: Dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Row:
    """One number of one campaign, its comparison and bound, and the
    paper value it stands for (``None`` where the paper gives none)."""

    id: str
    campaign: str
    value: Callable[[Mapping[str, Any]], float]
    op: str
    bound: float
    paper: Optional[float] = None

    def __post_init__(self) -> None:
        if self.campaign not in (BENCH, HORIZON):
            raise ValueError(f"{self.id}: unknown campaign {self.campaign!r}")
        if self.op != WITHIN and self.op not in _COMPARE:
            raise ValueError(f"{self.id}: unknown comparison {self.op!r}")
        if self.op == WITHIN and self.paper is None:
            raise ValueError(f"{self.id}: '~' needs a paper value")

    def holds(self, measured: float) -> bool:
        if self.op == WITHIN:
            return abs(measured - self.paper) < self.bound
        return _COMPARE[self.op](measured, self.bound)


@dataclass(frozen=True)
class Score:
    row: Row
    measured: float

    @property
    def passed(self) -> bool:
        return self.row.holds(self.measured)


# ---------------------------------------------------------------------------
# Derived numbers
# ---------------------------------------------------------------------------


def _without(shares: Mapping[Any, float], *keys: Any) -> Dict[Any, float]:
    return {k: v for k, v in shares.items() if k not in keys}


def _ranked(shares: Mapping[Any, float], *order: Any) -> float:
    """Smallest gap down ``order`` and on to the best other share: > 0
    iff the ranking starts with ``order``, >= 0 if ties may share a rank."""
    if not shares:
        raise ValueError("no shares to rank")
    values = [shares.get(key, 0.0) for key in order]
    values.append(max((v for k, v in shares.items() if k not in order), default=0.0))
    return min(a - b for a, b in zip(values, values[1:]))


def _lead(shares: Mapping[Any, float], *leaders: Any) -> float:
    """The best share among ``leaders`` minus the best other share: > 0
    iff one of ``leaders`` ranks first."""
    if not shares:
        raise ValueError("no shares to rank")
    rest = max((v for k, v in shares.items() if k not in leaders), default=0.0)
    return max(shares.get(key, 0.0) for key in leaders) - rest


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, where a zero denominator gives ±inf
    (NaN for 0/0), so ``_ratio(a, b) > k`` agrees with ``a > k * b`` for
    every ``b >= 0``."""
    if denominator:
        return numerator / denominator
    return math.copysign(math.inf, numerator) if numerator else math.nan


def _series(report: Mapping[str, Any], method: str) -> List[float]:
    return [ratio for _, ratio in report["fig4"][method]]


def _last_over_first(report: Mapping[str, Any], method: str) -> float:
    series = _series(report, method)
    return _ratio(series[-1], series[0])


def _gip_at_quarter(report: Mapping[str, Any]) -> float:
    gip = _series(report, "G-IP")
    return gip[len(gip) // 4]


def _at(fractions: Sequence[float], values: Sequence[float], fraction: float) -> float:
    """The value recorded nearest to ``fraction`` removed."""
    points = dict(zip(fractions, values))
    return min(points.items(), key=lambda kv: abs(kv[0] - fraction))[1]


def _targeted_minus_random(fraction: float) -> Callable[[Mapping[str, Any]], float]:
    def value(report: Mapping[str, Any]) -> float:
        f8 = report["fig8"]
        targeted = _at(f8["targeted_fractions"], f8["targeted_lcc"], fraction)
        return targeted - _at(f8["random_fractions"], f8["random_mean_lcc"], fraction)

    return value


def _ci95_max(report: Mapping[str, Any]) -> float:
    """Widest random-removal CI half-width within the plotted range."""
    f8 = report["fig8_reps4"]
    return max(w for f, w in zip(f8["random_fractions"], f8["random_ci95"]) if f <= 0.9)


def _longevity_gain(report: Mapping[str, Any]) -> float:
    """Cloud share of the longest-lived IPs minus that of the shortest."""
    by_days = report["fig9"]["ip_cloud_share_by_days"]
    return by_days[max(by_days)] - by_days[min(by_days)]


def _min_step(curve: Sequence[Sequence[float]]) -> float:
    """Smallest rise between consecutive points: >= 0 iff non-decreasing."""
    ys = [y for _, y in curve]
    return min((b - a for a, b in zip(ys, ys[1:])), default=0.0)


def _end_gap(curve: Sequence[Sequence[float]]) -> float:
    return abs(curve[-1][1] - 1.0)


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

ROWS = (
    # §3 crawl statistics
    Row("S3.crawlable_fraction_lo", BENCH,
        lambda r: r["crawl_stats"]["crawlable_fraction"],
        ">", 0.55, P.avg_crawlable_per_crawl / P.avg_peers_per_crawl),
    Row("S3.crawlable_fraction_hi", BENCH,
        lambda r: r["crawl_stats"]["crawlable_fraction"],
        "<", 0.85, P.avg_crawlable_per_crawl / P.avg_peers_per_crawl),
    Row("S3.ips_per_peer_lo", BENCH,
        lambda r: r["crawl_stats"]["ips_per_peer"], ">", 1.4, P.addrs_per_peer),
    Row("S3.ips_per_peer_hi", BENCH,
        lambda r: r["crawl_stats"]["ips_per_peer"], "<", 2.2, P.addrs_per_peer),
    Row("S3.peer_turnover", BENCH,
        lambda r: r["crawl_stats"]["peer_turnover"],
        ">", 1.0, P.unique_peer_ids / P.avg_peers_per_crawl),
    Row("S3.ip_minus_peer_turnover", BENCH,
        lambda r: r["crawl_stats"]["ip_turnover"] - r["crawl_stats"]["peer_turnover"], ">", 0.0),
    # Fig. 3: cloud status, A-N vs G-IP
    Row("F3.an_cloud_minus_noncloud", BENCH,
        lambda r: r["fig3"]["A-N"]["cloud"] - r["fig3"]["A-N"]["non-cloud"], ">", 0.0),
    Row("F3.an_cloud", BENCH,
        lambda r: r["fig3"]["A-N"]["cloud"], WITHIN, 0.08, P.an_cloud_share),
    Row("F3.gip_over_an_noncloud", HORIZON,
        lambda r: _ratio(r["fig3"]["G-IP"]["non-cloud"], r["fig3"]["A-N"].get("non-cloud", 0.0)),
        ">", 2.0),
    Row("F3.an_minus_gip_cloud", HORIZON,
        lambda r: r["fig3"]["A-N"]["cloud"] - r["fig3"]["G-IP"]["cloud"], ">", 0.2),
    # Fig. 4: cloud:non-cloud ratio vs aggregated crawls
    Row("F4.gip_decay_first_quarter", HORIZON,
        lambda r: _series(r, "G-IP")[0] - _gip_at_quarter(r), ">", 0.0),
    Row("F4.gip_decay_rest", HORIZON,
        lambda r: _gip_at_quarter(r) - _series(r, "G-IP")[-1], ">", 0.0),
    Row("F4.an_drift", HORIZON,
        lambda r: abs(_last_over_first(r, "A-N") - 1), "<", 0.35),
    Row("F4.gip_last_over_first", HORIZON,
        lambda r: _last_over_first(r, "G-IP"), "<", 0.45),
    # Fig. 5: cloud providers
    Row("F5.choopa_leads", BENCH,
        lambda r: _ranked(_without(r["fig5"]["A-N"], "non-cloud", "both"), "choopa"), ">", 0.0),
    Row("F5.an_choopa", BENCH,
        lambda r: r["fig5"]["an_choopa"], WITHIN, 0.06, P.an_choopa_share),
    Row("F5.an_top3", BENCH,
        lambda r: r["fig5"]["an_top3_share"], WITHIN, 0.08, P.an_top3_share),
    Row("F5.an_minus_gip_choopa", BENCH,
        lambda r: r["fig5"]["an_choopa"] - r["fig5"]["gip_choopa"], ">", 0.0),
    Row("F5.vultr_minus_digital_ocean", BENCH,
        lambda r: r["fig5"]["A-N"].get("vultr", 0) - r["fig5"]["A-N"].get("digital-ocean", 0),
        ">", 0.0),
    Row("F5.contabo_minus_hetzner", BENCH,
        lambda r: r["fig5"]["A-N"].get("contabo", 0) - r["fig5"]["A-N"].get("hetzner", 0),
        ">", 0.0),
    # Fig. 6: countries
    Row("F6.us_leads", BENCH,
        lambda r: _ranked(r["fig6"]["A-N"], "US"), ">", 0.0),
    Row("F6.us_then_de", BENCH,
        lambda r: _ranked(r["fig6"]["A-N"], "US", "DE"), ">", 0.0),
    Row("F6.an_us", BENCH,
        lambda r: r["fig6"]["A-N"]["US"], WITHIN, 0.05, P.an_country_shares["US"]),
    Row("F6.an_de", BENCH,
        lambda r: r["fig6"]["A-N"]["DE"], WITHIN, 0.04, P.an_country_shares["DE"]),
    Row("F6.an_non_top10", BENCH,
        lambda r: r["fig6"]["an_non_top10"], WITHIN, 0.05, P.an_non_top10_share),
    Row("F6.gip_over_an_cn", HORIZON,
        lambda r: _ratio(r["fig6"]["G-IP"].get("CN", 0.0), r["fig6"]["A-N"].get("CN", 0.0)),
        ">", 1.5),
    Row("F6.an_minus_gip_us", HORIZON,
        lambda r: r["fig6"]["A-N"]["US"] - r["fig6"]["G-IP"]["US"], ">", 0.0),
    Row("F6.gip_minus_an_non_top10", HORIZON,
        lambda r: r["fig6"]["gip_non_top10"] - r["fig6"]["an_non_top10"], ">", 0.0),
    # Fig. 7: degrees (absolute values scale with n; the shape is checked)
    Row("F7.out_p90_over_p10", BENCH,
        lambda r: _ratio(r["fig7"]["out_p90"], r["fig7"]["out_p10"]), "<", 1.25),
    Row("F7.in_max_over_median", BENCH,
        lambda r: _ratio(r["fig7"]["in_max"], r["fig7"]["in_median"]), ">", 2.5),
    Row("F7.in_p90_minus_median", BENCH,
        lambda r: r["fig7"]["in_p90"] - r["fig7"]["in_median"], ">", 0.0),
    Row("F7.top10_in_degree_platform_or_aws", BENCH,
        lambda r: r["fig7_top10"]["platform_or_aws"], ">=", 2),
    Row("F7.top10_in_degree_cloud", BENCH,
        lambda r: r["fig7_top10"]["cloud_hosted"], ">=", 7),
    # Fig. 8: resilience
    Row("F8.random_lcc_at_90pct", BENCH,
        lambda r: r["fig8"]["random_lcc_at_90pct"], ">", 0.85, P.random_removal_lcc_at_90pct),
    Row("F8.targeted_partition_point", BENCH,
        lambda r: r["fig8"]["targeted_partition_point"],
        "<", 0.85, P.targeted_removal_partition_point),
    Row("F8.targeted_minus_random_30pct", BENCH,
        _targeted_minus_random(0.3), "<=", 1e-9),
    Row("F8.targeted_minus_random_50pct", BENCH,
        _targeted_minus_random(0.5), "<=", 1e-9),
    Row("F8.targeted_minus_random_60pct", BENCH,
        _targeted_minus_random(0.6), "<=", 1e-9),
    Row("F8.random_ci95_max", BENCH,
        _ci95_max, "<", 0.12),
    # §5 traffic split
    Row("S5.download_share", BENCH,
        lambda r: r["sec5"]["download_share"], WITHIN, 0.10, P.download_share),
    Row("S5.advertisement_share", BENCH,
        lambda r: r["sec5"]["advertisement_share"], WITHIN, 0.10, P.advertisement_share),
    Row("S5.other_share", BENCH,
        lambda r: r["sec5"]["other_share"], "<", 0.10, P.other_share),
    Row("S5.total_messages", BENCH,
        lambda r: r["sec5"]["total_messages"], ">", 10_000),
    # Fig. 9: days seen per identifier
    Row("F9.cid_days_mode_is_1", BENCH,
        lambda r: _ranked(r["fig9"]["cid_days"], 1), ">=", 0),
    Row("F9.ip_days_mode_is_1", BENCH,
        lambda r: _ranked(r["fig9"]["ip_days"], 1), ">=", 0),
    Row("F9.peerid_days_mode_is_1", BENCH,
        lambda r: _ranked(r["fig9"]["peerid_days"], 1), ">=", 0),
    Row("F9.cloud_share_longevity_gain", BENCH,
        _longevity_gain, ">", 0.0),
    # Fig. 10: peer-ID Pareto
    Row("F10.dht_top5pct", BENCH,
        lambda r: r["fig10"]["dht_top5pct_share"], ">", 0.6, P.top5pct_peerid_traffic_share),
    Row("F10.gateway_bitswap_over_dht", BENCH,
        lambda r: _ratio(r["fig10"]["bitswap_gateway_share"], r["fig10"]["dht_gateway_share"]),
        ">", 5.0),
    Row("F10.gateway_bitswap", BENCH,
        lambda r: r["fig10"]["bitswap_gateway_share"],
        WITHIN, 0.12, P.gateway_bitswap_traffic_share),
    Row("F10.gateway_dht", BENCH,
        lambda r: r["fig10"]["dht_gateway_share"], "<", 0.06, P.gateway_dht_traffic_share),
    Row("F10.dht_curve_min_step", BENCH,
        lambda r: _min_step(r["fig10"]["dht_curve"]), ">=", 0.0),
    Row("F10.dht_curve_end_gap", BENCH,
        lambda r: _end_gap(r["fig10"]["dht_curve"]), "<", 1e-9),
    Row("F10.bitswap_curve_min_step", BENCH,
        lambda r: _min_step(r["fig10"]["bitswap_curve"]), ">=", 0.0),
    Row("F10.bitswap_curve_end_gap", BENCH,
        lambda r: _end_gap(r["fig10"]["bitswap_curve"]), "<", 1e-9),
    # Fig. 11: IP Pareto
    Row("F11.dht_top5pct", BENCH,
        lambda r: r["fig11"]["dht_top5pct_share"], ">", 0.6, P.top5pct_ip_traffic_share),
    Row("F11.dht_cloud", BENCH,
        lambda r: r["fig11"]["dht_cloud_share"], ">", 0.6, P.cloud_dht_traffic_share),
    Row("F11.dht_minus_bitswap_cloud", BENCH,
        lambda r: r["fig11"]["dht_cloud_share"] - r["fig11"]["bitswap_cloud_share"], ">", 0.1),
    # The Bitswap cloud share swings by about ±0.1 with the seed at bench
    # scale (a couple of heavy requesters); the gap above is the
    # load-bearing check.
    Row("F11.bitswap_cloud", BENCH,
        lambda r: r["fig11"]["bitswap_cloud_share"], WITHIN, 0.25, P.cloud_bitswap_traffic_share),
    # Fig. 12: cloud per traffic type
    Row("F12.cloud_by_ip_count", BENCH,
        lambda r: r["fig12"]["overall_cloud_by_ip_count"], WITHIN, 0.10, P.cloud_ip_count_share),
    Row("F12.download_minus_advert_ip_count", BENCH,
        lambda r: r["fig12"]["download_cloud_by_ip_count"] - r["fig12"]["advert_cloud_by_ip_count"],
        ">", 0.0),
    Row("F12.cloud_by_volume", BENCH,
        lambda r: r["fig12"]["overall_cloud_by_volume"], ">", 0.6, P.cloud_traffic_weighted_share),
    Row("F12.volume_minus_ip_count", BENCH,
        lambda r: r["fig12"]["overall_cloud_by_volume"] - r["fig12"]["overall_cloud_by_ip_count"],
        ">", 0.2),
    Row("F12.aws_download_by_volume", BENCH,
        lambda r: r["fig12"]["aws_download_by_volume"],
        WITHIN, 0.15, P.aws_traffic_weighted_download_share),
    Row("F12.volume_leader_aws_or_noncloud", BENCH,
        lambda r: _lead(dict(r["fig12"]["top_providers_by_volume"]), "amazon-aws", "non-cloud"),
        ">", 0.0),
    # Fig. 13: platforms
    Row("F13.hydra_dht", BENCH,
        lambda r: r["fig13"]["dht_all"].get("hydra", 0.0), WITHIN, 0.12, P.hydra_dht_traffic_share),
    Row("F13.hydra_download", BENCH,
        lambda r: r["fig13"]["dht_download"].get("hydra", 0.0),
        WITHIN, 0.15, P.hydra_download_traffic_share),
    Row("F13.hydra_advertisement", BENCH,
        lambda r: r["fig13"]["dht_advertisement"].get("hydra", 0.0), "<", 0.02),
    Row("F13.advert_web3_then_nft", BENCH,
        lambda r: _ranked(
            _without(r["fig13"]["dht_advertisement"], "other"), "web3-storage", "nft-storage"
        ),
        ">", 0.0),
    Row("F13.bitswap_leader_bank_or_aws", BENCH,
        lambda r: _lead(_without(r["fig13"]["bitswap"], "other"), "ipfs-bank", "amazon-aws-other"),
        ">", 0.0),
    Row("F13.bitswap_bank_minus_web3", BENCH,
        lambda r: (
            r["fig13"]["bitswap"].get("ipfs-bank", 0.0)
            - r["fig13"]["bitswap"].get("web3-storage", 0.0)
        ),
        ">", 0.0),
    # Fig. 14: provider classes
    Row("F14.cloud_largest", BENCH,
        lambda r: _ranked(r["fig14"]["class_shares"], "cloud"), ">=", 0),
    Row("F14.nat", BENCH,
        lambda r: r["fig14"]["class_shares"].get("nat-ed", 0), WITHIN, 0.12, P.provider_nat_share),
    Row("F14.cloud", BENCH,
        lambda r: r["fig14"]["class_shares"].get("cloud", 0), WITHIN, 0.12, P.provider_cloud_share),
    Row("F14.hybrid", BENCH,
        lambda r: r["fig14"]["class_shares"].get("hybrid", 0), "<", 0.05, P.provider_hybrid_share),
    Row("F14.relay_cloud", BENCH,
        lambda r: r["fig14"]["relay_cloud_share"], ">", 0.7, P.nat_relay_cloud_share),
    Row("F14.total_providers", BENCH,
        lambda r: r["fig14"]["total_providers"], ">", 100),
    # Fig. 15: provider popularity (the top-1 % share depends on the size
    # of the provider universe, so the top-10-peers share is checked too)
    Row("F15.top1pct_record_share", BENCH,
        lambda r: r["fig15"]["top1pct_record_share"], ">", 0.05, P.top1pct_provider_record_share),
    Row("F15.top10_peers_record_share", BENCH,
        lambda r: r["fig15_top10_peers_share"], ">", 0.1),
    Row("F15.records_cloud", BENCH,
        lambda r: r["fig15"]["record_shares_by_class"].get("cloud", 0),
        ">", 0.5, P.records_cloud_share),
    Row("F15.records_nat", BENCH,
        lambda r: r["fig15"]["record_shares_by_class"].get("nat-ed", 0),
        "<", 0.45, P.records_nat_share),
    Row("F15.curve_min_step", BENCH,
        lambda r: _min_step(r["fig15"]["curve"]), ">=", 0.0),
    # Fig. 16: per-CID cloud reliance
    Row("F16.at_least_one_cloud", BENCH,
        lambda r: r["fig16"]["at_least_one_cloud"], ">", 0.85, P.cid_at_least_one_cloud),
    Row("F16.majority_cloud", BENCH,
        lambda r: r["fig16"]["majority_cloud"], ">", 0.7, P.cid_majority_cloud),
    Row("F16.at_least_one_noncloud", BENCH,
        lambda r: r["fig16"]["at_least_one_noncloud"], ">", 0.3, P.cid_at_least_one_noncloud),
    Row("F16.majority_minus_cloud_only", BENCH,
        lambda r: r["fig16"]["majority_cloud"] - r["fig16"]["cloud_only"], ">=", 0.0),
    Row("F16.one_cloud_minus_majority", BENCH,
        lambda r: r["fig16"]["at_least_one_cloud"] - r["fig16"]["majority_cloud"], ">=", 0.0),
    Row("F16.noncloud_complement_gap", BENCH,
        lambda r: r["fig16"]["at_least_one_noncloud"] - (1.0 - r["fig16"]["cloud_only"]),
        "==", 0.0),
    Row("F16.total_cids", BENCH,
        lambda r: r["fig16"]["total_cids"], ">", 200),
    # Fig. 17: DNSLink
    Row("F17.cloudflare", BENCH,
        lambda r: r["fig17"]["cloudflare_share"], WITHIN, 0.10, P.dnslink_cloudflare_share),
    Row("F17.cloudflare_leads", BENCH,
        lambda r: _ranked(r["fig17"]["provider_shares"], "cloudflare"), ">", 0.0),
    Row("F17.noncloud", BENCH,
        lambda r: r["fig17"]["noncloud_share"], WITHIN, 0.08, P.dnslink_noncloud_share),
    Row("F17.public_gateway_ips_lo", BENCH,
        lambda r: r["fig17"]["public_gateway_ip_share"],
        ">", 0.05, P.dnslink_public_gateway_ip_share),
    Row("F17.public_gateway_ips_hi", BENCH,
        lambda r: r["fig17"]["public_gateway_ip_share"],
        "<", 0.40, P.dnslink_public_gateway_ip_share),
    Row("F17.records", BENCH,
        lambda r: r["fig17"]["num_records"], ">", 100),
    # Fig. 18 and the §3 gateway counts
    Row("F18.frontend_cloudflare_leads", BENCH,
        lambda r: _ranked(r["fig18_19"]["frontend_provider_shares"], "cloudflare"), ">", 0.0),
    Row("F18.overlay_cloudflare_leads", BENCH,
        lambda r: _ranked(r["fig18_19"]["overlay_provider_shares"], "cloudflare"), ">", 0.0),
    Row("F18.frontend_noncloud", BENCH,
        lambda r: r["fig18_19"]["frontend_provider_shares"].get("non-cloud", 0.0), ">", 0.0),
    Row("F18.overlay_noncloud", BENCH,
        lambda r: r["fig18_19"]["overlay_provider_shares"].get("non-cloud", 0.0), ">", 0.0),
    Row("S3g.listed_endpoints", BENCH,
        lambda r: r["fig18_19"]["num_listed_endpoints"],
        "==", P.gateway_endpoints_listed, P.gateway_endpoints_listed),
    Row("S3g.functional_endpoints", BENCH,
        lambda r: r["fig18_19"]["num_functional_endpoints"],
        "==", P.gateway_endpoints_functional, P.gateway_endpoints_functional),
    # Probing is coupon collecting: most, not all, pool nodes are found.
    Row("S3g.overlay_ids", BENCH,
        lambda r: r["fig18_19"]["num_overlay_ids"],
        ">=", 0.75 * P.gateway_overlay_ids, P.gateway_overlay_ids),
    # Fig. 19: gateway geolocation
    Row("F19.overlay_us_leads", BENCH,
        lambda r: _ranked(r["fig18_19"]["overlay_country_shares"], "US"), ">", 0.0),
    Row("F19.overlay_us_de", BENCH,
        lambda r: (
            r["fig18_19"]["overlay_country_shares"].get("US", 0)
            + r["fig18_19"]["overlay_country_shares"].get("DE", 0)
        ),
        ">", 0.6),
    Row("F19.frontend_nl", BENCH,
        lambda r: r["fig18_19"]["frontend_country_shares"].get("NL", 0.0), ">", 0.1),
    Row("F19.frontend_us_leads", BENCH,
        lambda r: _ranked(r["fig18_19"]["frontend_country_shares"], "US"), ">", 0.0),
    # Fig. 20: ENS
    Row("F20.cloud", BENCH,
        lambda r: r["fig20"]["cloud_share"], WITHIN, 0.12, P.ens_cloud_share),
    Row("F20.us_de", BENCH,
        lambda r: r["fig20"]["us_de_share"], ">", 0.45, P.ens_us_de_share),
    Row("F20.top_providers_named", BENCH,
        lambda r: sum(
            name in dict(r["fig20"]["top_providers"])
            for name in ("amazon-aws", "cloudflare", "choopa")
        ),
        ">=", 1),
    Row("F20.unique_ips", BENCH,
        lambda r: r["fig20"]["num_unique_ips"], ">", 0),
    Row("F20.resolution_rate_lo", BENCH,
        lambda r: r["fig20_resolution_rate"], ">", 0.4),
    Row("F20.resolution_rate_hi", BENCH,
        lambda r: r["fig20_resolution_rate"], "<=", 1.0),
)


# ---------------------------------------------------------------------------
# Evaluation and rendering
# ---------------------------------------------------------------------------


def _top10_in_degree_hosts(result: CampaignResult) -> Dict[str, int]:
    """How many of the last crawl's ten highest in-degree peers are
    platform or AWS nodes, and how many are cloud-hosted (§4: the paper's
    top ten are Filebase and AWS)."""
    in_degrees = topology.estimated_in_degrees(result.crawls.snapshots[-1])
    top = sorted(in_degrees.items(), key=lambda kv: -kv[1])[:10]
    platform_or_aws = cloud_hosted = 0
    for peer, _ in top:
        node = result.overlay.online_by_peer.get(peer)
        if node is None:
            continue
        if node.spec.platform is not None or node.spec.organisation == "amazon-aws":
            platform_or_aws += 1
        if node.spec.is_cloud_hosted:
            cloud_hosted += 1
    return {"platform_or_aws": platform_or_aws, "cloud_hosted": cloud_hosted}


def _top10_peers_record_share(result: CampaignResult) -> float:
    by_provider = _records_by_provider(result.provider_observations)
    appearances = sorted((float(len(records)) for records in by_provider.values()), reverse=True)
    return sum(appearances[:10]) / sum(appearances) if appearances else 0.0


def measure(result: CampaignResult) -> Dict[str, Any]:
    """:func:`full_report` plus the numbers the rows need that it does
    not carry: the top-10 in-degree hosts, Fig. 8 at 4 repetitions (the
    CI half-width check), the top-10 provider peers' record share and
    the ENS resolution rate."""
    resolved = sum(1 for o in result.ens_observations if o.reachable)
    return {
        **full_report(result),
        "fig7_top10": _top10_in_degree_hosts(result),
        "fig8_reps4": fig8_report(result, repetitions=4),
        "fig15_top10_peers_share": _top10_peers_record_share(result),
        "fig20_resolution_rate": resolved / max(len(result.ens_observations), 1),
    }


def evaluate(report: Mapping[str, Any], *campaigns: str) -> List[Score]:
    """Score the rows of ``campaigns`` against one :func:`measure` output.
    A number the campaign cannot produce (an empty series or share map, a
    zero denominator) is NaN, which fails every comparison."""
    scores = []
    for row in ROWS:
        if row.campaign not in campaigns:
            continue
        try:
            measured = row.value(report)
        except (IndexError, KeyError, ValueError, ZeroDivisionError):
            measured = float("nan")
        scores.append(Score(row, measured))
    return scores


def score(result: CampaignResult, *campaigns: str) -> List[Score]:
    """Score the rows of ``campaigns`` (``bench``, ``horizon`` or both)
    against ``result``; :func:`full_report` runs once."""
    return evaluate(measure(result), *campaigns)


def fmt(value: Any) -> str:
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def render(scores: Sequence[Score]) -> str:
    """One line per row: measured value, check, paper value, verdict."""
    lines = ["| row | campaign | measured | check | paper | |", "|---|---|---|---|---|---|"]
    for entry in scores:
        row = entry.row
        check = f"±{row.bound:g}" if row.op == WITHIN else f"{row.op} {row.bound:g}"
        paper = "" if row.paper is None else fmt(row.paper)
        verdict = "ok" if entry.passed else "MISS"
        lines.append(
            f"| {row.id} | {row.campaign} | {fmt(entry.measured)} | {check} | {paper} | {verdict} |"
        )
    return "\n".join(lines)
