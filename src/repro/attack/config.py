"""Attack configuration dataclasses and the ``name:key=value`` spec parser.

Every attack is a frozen dataclass so campaign configs stay hashable and
picklable; the registry maps the CLI-facing attack name to its class.
All knobs are plain ints/floats so ``parse_attack_spec`` can coerce
``repro campaign --attack sybil-eclipse:prefix_bits=14`` without a
per-attack parser.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar, Dict, Type

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class AttackConfig:
    """Common shape of an adversarial scenario.

    The attack is active during the half-open sim-time window
    ``[start_day, start_day + duration_days)`` days.  ``num_attackers``
    is the number of adversary-controlled nodes injected into the world;
    they ride the normal node lifecycle (specs, IP blocks, overlay
    membership) but carry ``activity_weight=0`` so they generate no
    honest traffic and perturb no honest RNG draws.
    """

    name: ClassVar[str] = "abstract"

    start_day: int = 1
    duration_days: int = 1
    num_attackers: int = 8

    @property
    def start_time(self) -> float:
        return self.start_day * SECONDS_PER_DAY

    @property
    def end_time(self) -> float:
        return (self.start_day + self.duration_days) * SECONDS_PER_DAY


@dataclass(frozen=True)
class SybilEclipseConfig(AttackConfig):
    """Eclipse a victim CID's keyspace region with minted sybils.

    Attacker peer IDs are ground until they share ``prefix_bits`` leading
    bits with the victim CID's DHT key, so the sybils crowd the honest
    peers out of ``select_closest`` for that key.  While active, each
    sybil also issues FIND_NODE lookups targeted inside the victim
    prefix (reconnaissance / routing-table poisoning traffic), which is
    the footprint the detector keys on.
    """

    name: ClassVar[str] = "sybil-eclipse"

    num_attackers: int = 20
    prefix_bits: int = 12
    lookups_per_hour: float = 8.0


@dataclass(frozen=True)
class ProviderSpamConfig(AttackConfig):
    """Poison provider records for the most popular CIDs.

    Each publish inserts a record with a freshly minted bogus provider
    peer ID, stressing ``ProviderRegistry.max_per_cid`` eviction until honest
    records for the target CIDs are pushed out.
    """

    name: ClassVar[str] = "provider-spam"

    num_attackers: int = 6
    target_cids: int = 12
    publishes_per_hour: float = 60.0


@dataclass(frozen=True)
class BitswapFloodConfig(AttackConfig):
    """Hammer the Bitswap monitor with junk want-have broadcasts."""

    name: ClassVar[str] = "bitswap-flood"

    num_attackers: int = 8
    broadcasts_per_hour: float = 600.0


@dataclass(frozen=True)
class HydraAmplificationConfig(AttackConfig):
    """Weaponize the hydra fleet's proactive lookups (paper §5).

    Every attacker request targets a fresh CID, guaranteeing a fleet
    cache miss, so each cheap GET_PROVIDERS triggers the fleet's
    amplified DHT walks — the DoS amplification vector the paper flags.
    """

    name: ClassVar[str] = "hydra-amplification"

    num_attackers: int = 4
    requests_per_hour: float = 30.0


@dataclass(frozen=True)
class ChurnBombConfig(AttackConfig):
    """Coordinated mass join/leave waves through the event scheduler.

    Each cycle every attacker joins under a freshly minted identity,
    announces itself with a join lookup, then drops offline — churning
    the routing tables and flooding crawls with one-shot peer IDs.
    """

    name: ClassVar[str] = "churn-bomb"

    num_attackers: int = 50
    cycles_per_tick: int = 3


ATTACK_TYPES: Dict[str, Type[AttackConfig]] = {
    cls.name: cls
    for cls in (
        SybilEclipseConfig,
        ProviderSpamConfig,
        BitswapFloodConfig,
        HydraAmplificationConfig,
        ChurnBombConfig,
    )
}


def _coerce(field: dataclasses.Field, raw: str):
    if field.type in ("int", int):
        return int(raw)
    if field.type in ("float", float):
        return float(raw)
    raise ValueError(f"field {field.name!r} has unsupported type {field.type!r}")


def parse_attack_spec(spec: str) -> AttackConfig:
    """Parse ``"name"`` or ``"name:key=value,key=value"`` into a config.

    >>> parse_attack_spec("sybil-eclipse:prefix_bits=14,num_attackers=30")
    SybilEclipseConfig(start_day=1, duration_days=1, num_attackers=30, prefix_bits=14, lookups_per_hour=8.0)
    """
    name, _, knobs = spec.partition(":")
    name = name.strip()
    if name not in ATTACK_TYPES:
        known = ", ".join(sorted(ATTACK_TYPES))
        raise ValueError(f"unknown attack {name!r} (known: {known})")
    cls = ATTACK_TYPES[name]
    fields = {field.name: field for field in dataclasses.fields(cls)}
    overrides = {}
    for pair in filter(None, (part.strip() for part in knobs.split(","))):
        key, sep, raw = pair.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"malformed attack knob {pair!r} (expected key=value)")
        if key not in fields:
            known = ", ".join(sorted(fields))
            raise ValueError(f"unknown knob {key!r} for {name} (known: {known})")
        try:
            overrides[key] = _coerce(fields[key], raw.strip())
        except ValueError as exc:
            raise ValueError(f"bad value for {name}:{key}: {exc}") from exc
    return cls(**overrides)
