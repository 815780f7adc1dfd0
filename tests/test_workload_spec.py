"""The workload spec front door: grammar, builders, shims, CLI.

The spec string is the only public way campaigns select a workload
model, so the parser is pinned hard: round-trips, coercions (``1e6`` for
the integer user count), every rejection path, and the builder contract
(``closed`` → ``None``, ``zipf`` → a driver with a seed-derived RNG).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro
from repro.workload import (
    OpenLoopDriver,
    WorkloadSpec,
    build_workload,
    describe_workload,
    parse_workload_spec,
)
from repro.world.population import NodeClass


class TestParser:
    def test_closed_default(self):
        spec = parse_workload_spec("closed")
        assert spec.model == "closed"
        assert spec.to_string() == "closed"

    def test_bare_zipf_uses_defaults(self):
        spec = parse_workload_spec("zipf")
        assert spec == WorkloadSpec(model="zipf")

    def test_scientific_notation_users(self):
        spec = parse_workload_spec("zipf:users=1e6")
        assert spec.users == 1_000_000
        assert isinstance(spec.users, int)

    def test_full_example_spec(self):
        spec = parse_workload_spec(
            "zipf:users=1e6,s=1.10,sessions=onoff,diurnal=true"
        )
        assert (spec.users, spec.s, spec.sessions, spec.diurnal) == (
            1_000_000,
            1.10,
            "onoff",
            True,
        )

    def test_round_trip(self):
        spec = parse_workload_spec(
            "zipf:users=250000,arrivals_per_user_hour=0.004,diurnal=false,"
            "sessions=burst,mean_train=9.5"
        )
        assert parse_workload_spec(spec.to_string()) == spec

    def test_round_trip_default_zipf(self):
        spec = parse_workload_spec("zipf")
        assert parse_workload_spec(spec.to_string()) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "poisson",
            "legacy",
            "closed:users=10",
            "zipf:users",
            "zipf:unknown_key=1",
            "zipf:users=ten",
            "zipf:users=1.5",
            "zipf:diurnal=maybe",
            "zipf:users=0",
            "zipf:sessions=always-on",
            "zipf:duration_alpha=0.9",
            "zipf:missing_prob=1.5",
            "zipf:diurnal_amplitude=1.0",
            "zipf:max_train=0",
        ],
    )
    def test_rejections(self, bad):
        with pytest.raises(ValueError):
            parse_workload_spec(bad)

    def test_class_mix_not_in_grammar(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_workload_spec("zipf:class_mix=foo")

    def test_class_mix_replace_in_code(self):
        spec = dataclasses.replace(
            WorkloadSpec(model="zipf"),
            class_mix=((NodeClass.GATEWAY, 1.0),),
        )
        driver = build_workload(spec, seed=3)
        assert driver._mix_classes == [NodeClass.GATEWAY]


class TestBuilder:
    def test_closed_builds_nothing(self):
        assert build_workload("closed", seed=1) is None
        assert build_workload(WorkloadSpec(), seed=1) is None

    def test_zipf_builds_driver(self):
        driver = build_workload("zipf:users=100", seed=5)
        assert isinstance(driver, OpenLoopDriver)
        assert driver.spec.users == 100

    def test_driver_rng_is_seed_derived(self):
        first = build_workload("zipf", seed=5).rng.random()
        again = build_workload("zipf", seed=5).rng.random()
        other = build_workload("zipf", seed=6).rng.random()
        assert first == again
        assert first != other

    def test_accepts_string_or_spec(self):
        from_string = build_workload("zipf:users=42", seed=1)
        from_spec = build_workload(parse_workload_spec("zipf:users=42"), seed=1)
        assert from_string.spec == from_spec.spec


class TestDescribe:
    def test_closed_describe(self):
        assert describe_workload("closed")["model"] == "closed"

    def test_zipf_calibration_numbers(self):
        info = describe_workload("zipf:users=1e6,arrivals_per_user_hour=0.001")
        assert info["sessions_per_hour_mean"] == pytest.approx(1000.0)
        assert info["requests_per_hour_mean"] == pytest.approx(6000.0)
        mix = info["content_mix"]
        assert mix["missing"] + mix["platform"] + mix["user"] == pytest.approx(1.0)


class TestReExports:
    def test_package_front_door(self):
        assert repro.WorkloadSpec is WorkloadSpec
        assert repro.parse_workload_spec is parse_workload_spec
        assert repro.build_workload is build_workload


class TestCLI:
    def test_describe_text(self, capsys):
        from repro.cli import main

        assert main(["workload", "describe", "zipf:users=5e4"]) == 0
        out = capsys.readouterr().out
        assert "sessions_per_hour_mean" in out

    def test_describe_json(self, capsys):
        from repro.cli import main

        assert main(["workload", "describe", "zipf", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "zipf"

    def test_sample_json(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "workload",
                    "sample",
                    "zipf:users=3000,arrivals_per_user_hour=0.05",
                    "--hours",
                    "6",
                    "--seed",
                    "9",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["hours"] == 6
        assert payload["stats"]["open_requests"] > 0
        assert len(payload["requests_per_hour"]) == 6

    def test_sample_rejects_closed(self, capsys):
        from repro.cli import main

        assert main(["workload", "sample", "closed"]) == 2
        assert "zipf" in capsys.readouterr().err

    def test_malformed_spec_exits_2(self, capsys):
        from repro.cli import main

        assert main(["workload", "describe", "zipf:nope=1"]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_campaign_flag_validates_early(self, capsys):
        from repro.cli import main

        assert main(["campaign", "--workload", "zipf:nope=1"]) == 2
        assert "unknown key" in capsys.readouterr().err
