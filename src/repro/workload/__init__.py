"""Workload generation: the traffic engine and its models.

* :mod:`repro.workload.engine` — the calibrated traffic engine
  (closed-loop by default, open-loop with a session driver) driving downloads,
  advertisements and platform re-provides,
* :mod:`repro.workload.spec` — the ``closed`` / ``zipf:...`` spec-string
  front door (:class:`WorkloadSpec`, :func:`parse_workload_spec`,
  :func:`build_workload`),
* :mod:`repro.workload.openloop` — the open-loop session driver
  (ON/OFF sessions, request trains, million-user arrival scaling),
* :mod:`repro.workload.popularity` — Zipf CID popularity per content
  class,
* :mod:`repro.workload.sessions` — heavy-tailed session/train samplers,
* :mod:`repro.workload.diurnal` — the day/night rate curve.

This package grew out of a single traffic-engine module into a
subsystem; :mod:`repro.workload.engine` holds the engine.
"""

from repro.workload.diurnal import diurnal_factor
from repro.workload.engine import (
    TrafficEngine,
    WorkloadConfig,
    _poisson,
)
from repro.workload.openloop import OpenLoopDriver, sample_workload
from repro.workload.popularity import ZipfPopularity, rank_by_weight
from repro.workload.sessions import duration_scale, pareto_duration, train_size
from repro.workload.spec import (
    DEFAULT_CLASS_MIX,
    WorkloadSpec,
    build_workload,
    describe_workload,
    parse_workload_spec,
)

__all__ = [
    "DEFAULT_CLASS_MIX",
    "OpenLoopDriver",
    "TrafficEngine",
    "WorkloadConfig",
    "WorkloadSpec",
    "ZipfPopularity",
    "build_workload",
    "describe_workload",
    "diurnal_factor",
    "duration_scale",
    "pareto_duration",
    "parse_workload_spec",
    "rank_by_weight",
    "sample_workload",
    "train_size",
]
