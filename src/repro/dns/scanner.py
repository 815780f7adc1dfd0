"""The active DNSLink scanning pipeline (paper §3).

Pipeline stages, mirroring the paper's methodology:

1. take an input list of candidate names, reduce to registered *root*
   domains (public-suffix filtering),
2. SOA scan — drop NXDOMAIN names,
3. query ``_dnslink.<domain>`` TXT and keep properly formatted DNSLink
   entries,
4. query A records on the domains with valid entries to learn the
   gateway/proxy addresses serving the content.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dns.records import DNSLINK_PREFIX, parse_dnslink_txt
from repro.dns.resolver import ResolutionError, Resolver

#: A minimal public-suffix list for the synthetic namespace.
PUBLIC_SUFFIXES = (
    "com", "net", "org", "io", "xyz", "info", "dev", "app",
    "co.uk", "com.br", "se", "nu", "ch", "de", "fr", "eth.link",
)


#: The suffix list split by label count (every suffix has one or two).
_ONE_LABEL_SUFFIXES = frozenset(s for s in PUBLIC_SUFFIXES if "." not in s)
_TWO_LABEL_SUFFIXES = frozenset(s for s in PUBLIC_SUFFIXES if s.count(".") == 1)


def registrable_domain(name: str) -> Optional[str]:
    """Reduce a name to its registrable (root) domain using the suffix
    list, e.g. ``a.b.example.co.uk -> example.co.uk``.  Returns ``None``
    for bare suffixes or unknown TLDs.  The longest matching suffix
    wins."""
    labels = name.lower().strip(".").split(".")
    if len(labels) > 2 and ".".join(labels[-2:]) in _TWO_LABEL_SUFFIXES:
        return ".".join(labels[-3:])
    if len(labels) > 1 and labels[-1] in _ONE_LABEL_SUFFIXES:
        return ".".join(labels[-2:])
    return None


@dataclass
class DNSLinkRecord:
    """One discovered, valid DNSLink deployment."""

    domain: str
    kind: str            # "ipfs" | "ipns"
    target: str          # CID string or key hash
    a_record_ips: Tuple[str, ...]


@dataclass
class DNSLinkScanResult:
    """Outcome of a full scanning campaign."""

    input_names: int
    root_domains: int
    registered_domains: int
    dnslink_records: List[DNSLinkRecord] = field(default_factory=list)

    @property
    def all_ips(self) -> List[str]:
        ips: List[str] = []
        for record in self.dnslink_records:
            ips.extend(record.a_record_ips)
        return ips


class ActiveScanner:
    """zdns-like bulk scanner over the synthetic namespace."""

    def __init__(self, resolver: Resolver) -> None:
        self.resolver = resolver

    def scan(self, names: Sequence[str]) -> DNSLinkScanResult:
        """Run the four-stage pipeline over ``names``."""
        roots = sorted({
            domain for domain in (registrable_domain(name) for name in names) if domain
        })
        registered = [domain for domain in roots if self.resolver.soa_exists(domain)]
        result = DNSLinkScanResult(
            input_names=len(names),
            root_domains=len(roots),
            registered_domains=len(registered),
        )
        for domain in registered:
            for value in self.resolver.txt(f"{DNSLINK_PREFIX}.{domain}"):
                parsed = parse_dnslink_txt(value)
                if parsed is None:
                    continue
                kind, target = parsed
                try:
                    ips = tuple(self.resolver.resolve_a(domain))
                except ResolutionError:
                    ips = ()
                result.dnslink_records.append(
                    DNSLinkRecord(domain=domain, kind=kind, target=target, a_record_ips=ips)
                )
        return result
