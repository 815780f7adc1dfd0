"""The spec-string front door for workload models.

Mirrors the storage backend pattern (``repro.store``): one frozen
dataclass, one parser, one builder.  A workload is selected with a
compact spec string —

* ``closed`` — the calibrated closed-loop model
  behind the golden figures; no driver is built and campaigns stay
  bit-identical to previous releases.
* ``zipf:key=value,...`` — the open-loop session engine
  (:mod:`repro.workload.openloop`), e.g.
  ``zipf:users=1e6,s=1.05,sessions=onoff,diurnal=true``.  Keys map to
  :class:`WorkloadSpec` fields and are type-coerced from the field
  types, so ``users=1e6`` is accepted for the integer user count.

``parse_workload_spec`` is the single grammar authority;
``build_workload`` turns a spec (or string) into the driver object a
campaign attaches — ``None`` for the closed-loop default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Tuple

from repro.world.population import NodeClass

#: Session-class mix of the open-loop user population: gateway-heavy,
#: per Costa et al.'s finding that most user requests enter via the
#: public HTTP gateways.  Not part of the string grammar (set it in
#: code via ``dataclasses.replace`` when experimenting).
DEFAULT_CLASS_MIX: Tuple[Tuple[NodeClass, float], ...] = (
    (NodeClass.GATEWAY, 0.55),
    (NodeClass.NAT_CLIENT, 0.20),
    (NodeClass.RESIDENTIAL_EPHEMERAL, 0.10),
    (NodeClass.RESIDENTIAL_STABLE, 0.08),
    (NodeClass.CLOUD_STABLE, 0.05),
    (NodeClass.HYBRID, 0.02),
)

_MODELS = ("closed", "zipf")
_SESSION_MODES = ("onoff", "burst")


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything that defines a workload model, in one hashable value."""

    #: ``closed`` (legacy per-node Poisson) or ``zipf`` (open-loop).
    model: str = "closed"
    #: Simulated user population — a pure arrival-intensity knob.
    users: int = 10_000
    #: Zipf exponent for user-published content popularity.
    s: float = 1.05
    #: Zipf exponent for platform catalogs (flatter long tail).
    s_platform: float = 0.85
    #: ``onoff`` spreads each train over the session; ``burst`` fires it
    #: at session start.
    sessions: str = "onoff"
    #: Apply the diurnal rate curve.
    diurnal: bool = True
    #: Peak-to-mean excess of the diurnal cosine.
    diurnal_amplitude: float = 0.55
    #: Local hour of the diurnal peak.
    peak_hour: float = 20.0
    #: Session arrivals per user per hour (before the diurnal factor).
    arrivals_per_user_hour: float = 0.02
    #: Mean ON-session length (Pareto; heavy-tailed).
    mean_session_minutes: float = 8.0
    #: Pareto shape of session durations (must exceed 1).
    duration_alpha: float = 1.6
    #: Hard cap on one session's length.
    max_session_hours: float = 6.0
    #: Mean request-train size per session (Pareto; heavy-tailed).
    mean_train: float = 6.0
    #: Pareto shape of train sizes (must exceed 1).
    train_alpha: float = 1.4
    #: Hard cap on one session's train.
    max_train: int = 512
    #: Probability a session publishes fresh content at its start.
    publish_prob: float = 0.04
    #: Share of in-catalog requests aimed at platform-pinned content.
    platform_share: float = 0.62
    #: Share of requests for missing/dead CIDs.
    missing_prob: float = 0.05
    #: Session node-class mix (string grammar excludes it).
    class_mix: Tuple[Tuple[NodeClass, float], ...] = field(
        default=DEFAULT_CLASS_MIX
    )

    def to_string(self) -> str:
        """The spec string that parses back to this spec (non-default
        scalar fields only; ``class_mix`` has no string form)."""
        if self.model == "closed":
            return "closed"
        defaults = WorkloadSpec()
        parts = []
        for spec_field in fields(self):
            if spec_field.name in ("model", "class_mix"):
                continue
            value = getattr(self, spec_field.name)
            if value != getattr(defaults, spec_field.name):
                rendered = str(value).lower() if isinstance(value, bool) else str(value)
                parts.append(f"{spec_field.name}={rendered}")
        return "zipf:" + ",".join(parts) if parts else "zipf"


_FIELD_TYPES: Dict[str, type] = {
    spec_field.name: spec_field.type if isinstance(spec_field.type, type) else type(getattr(WorkloadSpec(), spec_field.name))
    for spec_field in fields(WorkloadSpec)
    if spec_field.name not in ("model", "class_mix")
}

_TRUE = ("true", "1", "yes", "on")
_FALSE = ("false", "0", "no", "off")


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if kind is bool:
        lowered = raw.strip().lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise ValueError(f"workload spec: boolean {key}={raw!r} (use true/false)")
    try:
        if kind is int:
            # Accept scientific notation for the big knobs: users=1e6.
            value = float(raw)
            if value != int(value):
                raise ValueError
            return int(value)
        if kind is float:
            return float(raw)
    except ValueError:
        raise ValueError(f"workload spec: cannot parse {key}={raw!r} as {kind.__name__}")
    return raw.strip()


def _validate(spec: WorkloadSpec) -> WorkloadSpec:
    if spec.model not in _MODELS:
        raise ValueError(
            f"unknown workload model {spec.model!r}; expected one of {_MODELS}"
        )
    if spec.sessions not in _SESSION_MODES:
        raise ValueError(
            f"workload spec: sessions={spec.sessions!r}; expected one of {_SESSION_MODES}"
        )
    if spec.users < 1:
        raise ValueError("workload spec: users must be >= 1")
    if spec.duration_alpha <= 1.0 or spec.train_alpha <= 1.0:
        raise ValueError("workload spec: Pareto alphas must exceed 1 (finite mean)")
    for name in ("publish_prob", "missing_prob", "platform_share"):
        value = getattr(spec, name)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"workload spec: {name} must be in [0, 1]")
    if not 0.0 <= spec.diurnal_amplitude < 1.0:
        raise ValueError("workload spec: diurnal_amplitude must be in [0, 1)")
    if spec.max_train < 1 or spec.mean_train < 1.0:
        raise ValueError("workload spec: train sizes must be >= 1")
    return spec


def parse_workload_spec(text: str) -> WorkloadSpec:
    """Parse ``closed`` / ``zipf:key=value,...`` into a :class:`WorkloadSpec`.

    Raises :class:`ValueError` on unknown models, unknown keys, or
    values that do not coerce to the field's type.
    """
    if not isinstance(text, str) or not text.strip():
        raise ValueError("workload spec must be a non-empty string")
    head, _, tail = text.strip().partition(":")
    model = head.strip().lower()
    if model == "closed":
        if tail.strip():
            raise ValueError("the closed workload model takes no parameters")
        return WorkloadSpec(model="closed")
    if model != "zipf":
        raise ValueError(
            f"unknown workload model {model!r}; expected one of {_MODELS}"
        )
    overrides: Dict[str, object] = {}
    if tail.strip():
        for chunk in tail.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, separator, raw = chunk.partition("=")
            key = key.strip()
            if not separator:
                raise ValueError(f"workload spec: expected key=value, got {chunk!r}")
            if key not in _FIELD_TYPES:
                known = ", ".join(sorted(_FIELD_TYPES))
                raise ValueError(f"workload spec: unknown key {key!r} (known: {known})")
            overrides[key] = _coerce(key, raw.strip())
    return _validate(WorkloadSpec(model="zipf", **overrides))


def build_workload(spec, *, seed: int):
    """Materialize a workload: ``None`` (closed-loop) or a session driver.

    Accepts a :class:`WorkloadSpec` or a spec string.  The driver's RNG
    is seed-derived (``derive_rng(seed, "workload", "openloop")``), so
    open-loop campaigns are deterministic regardless of worker count.
    """
    if isinstance(spec, str):
        spec = parse_workload_spec(spec)
    if spec.model == "closed":
        return None
    from repro.workload.openloop import OpenLoopDriver

    return OpenLoopDriver(spec, seed)


def describe_workload(spec) -> Dict[str, object]:
    """Derived calibration numbers for a spec (``repro workload describe``)."""
    if isinstance(spec, str):
        spec = parse_workload_spec(spec)
    if spec.model == "closed":
        return {
            "model": "closed",
            "spec": "closed",
            "note": "legacy per-node Poisson rates (WorkloadConfig); golden default",
        }
    sessions_per_hour = spec.users * spec.arrivals_per_user_hour
    requests_per_hour = sessions_per_hour * spec.mean_train
    return {
        "model": "zipf",
        "spec": spec.to_string(),
        "users": spec.users,
        "sessions_per_hour_mean": sessions_per_hour,
        "requests_per_hour_mean": requests_per_hour,
        "requests_per_day_mean": requests_per_hour * 24.0,
        "publishes_per_hour_mean": sessions_per_hour * spec.publish_prob,
        "mean_session_minutes": spec.mean_session_minutes,
        "mean_train": spec.mean_train,
        "diurnal_peak_factor": 1.0 + spec.diurnal_amplitude if spec.diurnal else 1.0,
        "diurnal_trough_factor": 1.0 - spec.diurnal_amplitude if spec.diurnal else 1.0,
        "zipf_exponents": {"user": spec.s, "platform": spec.s_platform},
        "content_mix": {
            "missing": spec.missing_prob,
            "platform": (1.0 - spec.missing_prob) * spec.platform_share,
            "user": (1.0 - spec.missing_prob) * (1.0 - spec.platform_share),
        },
        "class_mix": {cls.name: weight for cls, weight in spec.class_mix},
    }
