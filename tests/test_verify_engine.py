"""Tests for the soundness-fuzzing engine, shrinker and fault injection.

The headline acceptance property lives here: on a healthy library a seeded
fuzz campaign passes every oracle, and with a deliberately injected
unsoundness (dropping the ``|PCB|`` term from Eq. 10) the campaign both
*catches* the bug and *shrinks* it to a reproducer of at most 3 tasks.
"""

import dataclasses
import json
import random
import re
from pathlib import Path

import pytest

from repro.errors import AnalysisError
from repro.model.platform import BusPolicy
from repro.perf import PerfCounters
from repro.persistence.demand import FAULTS, multi_job_demand
from repro.verify import oracles
from repro.verify.cases import CASE_KINDS
from repro.verify.cli import main, parse_budget
from repro.verify.corpus import replay_corpus
from repro.verify.engine import _kind_schedule, fuzz
from repro.verify.faults import fault_names, inject_fault
from repro.verify.generators import generate_case
from repro.verify.oracles import (
    applicable_oracles,
    get_oracle,
    oracle_names,
    run_oracles,
)
from repro.verify.shrink import shrink_case


def _corpus_entry(case_fields):
    """A corpus entry's JSON text around a case record of ``case_fields``."""
    return json.dumps(
        {
            "format": "repro-verify-corpus",
            "version": 1,
            "oracles": [],
            "case": {"format": "repro-verify-case", "version": 1, **case_fields},
        }
    )


class TestFuzzCampaign:
    def test_clean_campaign_passes(self):
        report = fuzz(max_cases=16, seed=0)
        assert report.passed, [v.messages for v in report.violations]
        assert report.cases == 16
        assert report.checks > report.cases  # several oracles per case
        assert set(report.per_kind) == set(CASE_KINDS)

    def test_campaign_is_deterministic(self):
        first = fuzz(max_cases=6, seed=7)
        second = fuzz(max_cases=6, seed=7)
        assert first.per_kind == second.per_kind
        assert first.perf.oracle_checks == second.perf.oracle_checks
        assert first.passed and second.passed

    def test_perf_counters_accumulate(self):
        perf = PerfCounters()
        report = fuzz(max_cases=4, seed=1, perf=perf)
        assert perf.verify_cases == 4
        assert perf.oracle_checks == report.perf.oracle_checks
        assert "verify cases" in perf.render()

    def test_budget_stops_generation(self):
        report = fuzz(budget=0.5, seed=3)
        assert report.elapsed < 30.0
        assert report.cases >= 1

    def test_kind_filter(self):
        report = fuzz(max_cases=5, seed=2, kinds=("demand",))
        assert report.per_kind == {"demand": 5}

    def test_invalid_arguments_rejected(self):
        with pytest.raises(AnalysisError):
            fuzz(max_cases=0)
        with pytest.raises(AnalysisError):
            fuzz(budget=-1.0)
        with pytest.raises(AnalysisError):
            fuzz(max_cases=1, kinds=("nonsense",))
        with pytest.raises(AnalysisError):
            fuzz(max_cases=1, policies=())

    def test_kind_schedule_weights_tasksets(self):
        schedule = _kind_schedule(CASE_KINDS)
        assert schedule.count("taskset") == 2
        assert schedule.count("scenario") == 1


class TestOracleRegistry:
    def test_expected_oracles_registered(self):
        names = oracle_names()
        for expected in (
            "kernel-identity",
            "persistence-tightens",
            "perfect-dominance",
            "rr-tdma-dominance",
            "mono-period-shrink",
            "mono-mdr-raise",
            "fixed-point-sanity",
            "eq10-demand",
            "sim-vs-wcrt",
        ):
            assert expected in names

    def test_verify_doc_lists_every_registered_oracle(self):
        doc = Path(__file__).resolve().parent.parent / "docs" / "VERIFY.md"
        section = doc.read_text().split("## Oracle registry", 1)[1]
        section = section.split("\n## ", 1)[0]
        listed = re.findall(r"^\| `([a-z0-9-]+)` \|", section, re.MULTILINE)
        assert sorted(listed) == list(oracle_names())

    def test_every_kind_has_oracles(self):
        for kind in CASE_KINDS:
            assert applicable_oracles(kind)

    def test_run_oracles_rejects_kind_mismatch(self):
        case = generate_case("demand", random.Random(0))
        with pytest.raises(ValueError):
            run_oracles(case, names=["kernel-identity"])

    def test_unknown_oracle_rejected(self):
        with pytest.raises(KeyError):
            get_oracle("no-such-oracle")


def _tightened(result):
    """``result`` claiming every bound one cycle tighter than it is."""
    return dataclasses.replace(
        result,
        response_times={
            task: bound - 1 for task, bound in result.response_times.items()
        },
    )


class TestLadderDominance:
    """The oracle's baseline and coarse clauses each catch an unsound tier."""

    @pytest.fixture()
    def case(self):
        # A persistence-aware case the exact analysis proves schedulable,
        # so both clauses compare bounds pointwise.
        case = generate_case("taskset", random.Random(8))
        assert case.config.persistence
        assert oracles.analyze_taskset(
            case.taskset(), case.platform, case.config
        ).schedulable
        return case

    def test_a_healthy_library_passes(self, case):
        assert run_oracles(case, names=["ladder-dominance"]) == {
            "ladder-dominance": []
        }

    def test_catches_a_coarse_bound_below_the_exact_analysis(
        self, case, monkeypatch
    ):
        def too_tight(taskset, platform, config, **kwargs):
            return _tightened(oracles.analyze_taskset(taskset, platform, config))

        monkeypatch.setattr(oracles, "coarse_bound", too_tight)
        messages = run_oracles(case, names=["ladder-dominance"])[
            "ladder-dominance"
        ]
        assert messages
        assert all(message.startswith("exact > coarse") for message in messages)

    def test_catches_a_baseline_below_the_exact_analysis(
        self, case, monkeypatch
    ):
        exact = oracles.analyze_taskset

        def tight_baseline(taskset, platform, config, **kwargs):
            if config.persistence:
                return exact(taskset, platform, config, **kwargs)
            return _tightened(
                exact(taskset, platform, case.config, **kwargs)
            )

        monkeypatch.setattr(oracles, "analyze_taskset", tight_baseline)
        messages = run_oracles(case, names=["ladder-dominance"])[
            "ladder-dominance"
        ]
        assert messages
        assert all(
            message.startswith("exact > baseline") for message in messages
        )


class TestRrTdmaDominance:
    """The oracle catches RR bounds above TDMA's, and RR rejections of
    sets TDMA schedules."""

    @pytest.fixture(params=[8, 2], ids=["rr-case", "tdma-case"])
    def case(self, request):
        # Generated cases on an RR (seed 8) and a TDMA (seed 2) bus that
        # both buses prove schedulable, so the oracle compares bounds.
        case = generate_case("taskset", random.Random(request.param))
        assert case.platform.bus_policy in (BusPolicy.RR, BusPolicy.TDMA)
        for policy in (BusPolicy.RR, BusPolicy.TDMA):
            assert oracles.analyze_taskset(
                case.taskset(), case.platform.with_bus_policy(policy),
                case.config,
            ).schedulable
        return case

    def test_a_healthy_library_passes(self, case):
        assert run_oracles(case, names=["rr-tdma-dominance"]) == {
            "rr-tdma-dominance": []
        }

    def test_skips_other_buses(self, case, monkeypatch):
        fp_case = dataclasses.replace(
            case, platform=case.platform.with_bus_policy(BusPolicy.FP)
        )
        monkeypatch.setattr(oracles, "analyze_taskset", None)  # never called
        assert run_oracles(fp_case, names=["rr-tdma-dominance"]) == {
            "rr-tdma-dominance": []
        }

    @staticmethod
    def _overshooting_rr(monkeypatch, overshoot):
        exact = oracles.analyze_taskset

        def rr_above_tdma(taskset, platform, config, **kwargs):
            if platform.bus_policy is not BusPolicy.RR:
                return exact(taskset, platform, config, **kwargs)
            tdma = exact(
                taskset, platform.with_bus_policy(BusPolicy.TDMA), config,
                **kwargs,
            )
            return overshoot(tdma)

        monkeypatch.setattr(oracles, "analyze_taskset", rr_above_tdma)

    def test_catches_rr_bounds_above_tdma(self, case, monkeypatch):
        self._overshooting_rr(
            monkeypatch,
            lambda tdma: dataclasses.replace(
                tdma,
                response_times={
                    task: bound + 1
                    for task, bound in tdma.response_times.items()
                },
            ),
        )
        messages = run_oracles(case, names=["rr-tdma-dominance"])[
            "rr-tdma-dominance"
        ]
        assert len(messages) == case.task_count
        assert all(message.startswith("rr > tdma") for message in messages)

    def test_catches_an_rr_rejection_of_a_tdma_schedulable_set(
        self, case, monkeypatch
    ):
        def missed(tdma):
            task = next(iter(tdma.response_times))
            return dataclasses.replace(
                tdma, schedulable=False, failed_task=task
            )

        self._overshooting_rr(monkeypatch, missed)
        messages = run_oracles(case, names=["rr-tdma-dominance"])[
            "rr-tdma-dominance"
        ]
        assert len(messages) == 1
        assert messages[0].startswith("RR rejects a set schedulable under TDMA")


class TestFaultInjection:
    def test_fault_registry_and_restore(self):
        assert "drop-pcb-term" in fault_names()
        assert not FAULTS.drop_pcb_term
        with inject_fault("drop-pcb-term"):
            assert FAULTS.drop_pcb_term
        assert not FAULTS.drop_pcb_term
        with pytest.raises(AnalysisError):
            with inject_fault("no-such-fault"):
                pass

    def test_fault_actually_drops_pcb_term(self):
        from repro.model.task import Task

        task = Task(
            name="t",
            pd=10,
            md=20,
            md_r=5,
            period=100,
            deadline=100,
            priority=1,
            ecbs=frozenset(range(8)),
            pcbs=frozenset(range(8)),
        )
        assert multi_job_demand(task, 2) == 2 * 5 + 8
        with inject_fault("drop-pcb-term"):
            assert multi_job_demand(task, 2) == 2 * 5

    def test_injected_unsoundness_is_caught_and_shrunk(self, tmp_path):
        """The acceptance property: Eq. 10 without |PCB| is unsound, the
        campaign catches it, and the reproducer has at most 3 tasks."""
        corpus = tmp_path / "corpus"
        with inject_fault("drop-pcb-term"):
            report = fuzz(
                max_cases=8,
                seed=0,
                corpus_dir=corpus,
                policies=(BusPolicy.FP, BusPolicy.RR, BusPolicy.TDMA),
            )
        assert not report.passed
        oracles_fired = {v.oracle for v in report.violations}
        assert "eq10-demand" in oracles_fired
        for violation in report.violations:
            assert violation.shrunk_case.task_count <= 3
            assert violation.corpus_path is not None
            assert violation.corpus_path.exists()
        # Once the "bug" is fixed (fault off), the reproducers replay clean
        # — exactly the corpus regression-test workflow.
        replay = replay_corpus(corpus)
        assert replay.passed, replay.failures
        # Content-addressed names deduplicate identical shrunk reproducers.
        assert 1 <= replay.entries <= len(report.violations)

    def test_shrinker_minimises_demand_case(self):
        oracle = get_oracle("eq10-demand")
        case = generate_case("demand", random.Random(4))
        case = type(case)(
            benchmark="bs", n_jobs=4, num_sets=case.num_sets
        )
        with inject_fault("drop-pcb-term"):
            result = shrink_case(case, oracle)
            assert result.messages
            assert result.case.n_jobs == 1
        assert result.steps > 0


class TestCli:
    def test_parse_budget(self):
        assert parse_budget("30") == 30.0
        assert parse_budget("45s") == 45.0
        assert parse_budget("2m") == 120.0
        with pytest.raises(AnalysisError):
            parse_budget("soon")
        with pytest.raises(AnalysisError):
            parse_budget("0s")

    def test_fuzz_command_passes(self, capsys):
        code = main(["fuzz", "--cases", "4", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verify fuzz: PASS" in out

    def test_fuzz_command_profile(self, capsys):
        code = main(["fuzz", "--cases", "2", "--seed", "1", "--profile"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Performance profile:" in out
        assert "oracle " in out

    def test_fuzz_command_catches_injected_fault(self, tmp_path, capsys):
        code = main(
            [
                "fuzz",
                "--cases",
                "4",
                "--seed",
                "0",
                "--kinds",
                "demand",
                "--inject",
                "drop-pcb-term",
                "--corpus",
                str(tmp_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "VIOLATION [eq10-demand]" in captured.out
        assert not FAULTS.drop_pcb_term  # flag restored after the campaign

    def test_replay_command(self, capsys):
        code = main(["replay", "--corpus", "tests/corpus"])
        out = capsys.readouterr().out
        assert code == 0
        assert "corpus replay: PASS" in out

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "{nope",
            _corpus_entry({"kind": "taskset"}),
            _corpus_entry(
                {
                    "kind": "scenario",
                    "platform": {
                        "num_cores": 2,
                        "cache": {"num_sets": 16, "block_size": 32},
                        "d_mem": 10,
                        "bus_policy": "fp",
                        "slot_size": 1,
                    },
                    "specs": [3],
                }
            ),
        ],
        ids=["[]", "{nope", "case-without-platform", "spec-not-an-object"],
    )
    def test_replay_of_a_malformed_entry_is_a_usage_error(
        self, tmp_path, capsys, text
    ):
        (tmp_path / "entry.json").write_text(text)
        code = main(["replay", "--corpus", str(tmp_path)])
        assert code == 2
        assert "repro-verify: error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("num_sets", "x"), ("n_jobs", True), ("scale", "1.0")],
    )
    def test_replay_of_a_mistyped_case_field_is_a_usage_error(
        self, tmp_path, capsys, field, value
    ):
        entry = json.loads(
            Path("tests/corpus/demand-eq10-demand-220ff22074.json").read_text()
        )
        entry["case"][field] = value
        (tmp_path / "entry.json").write_text(json.dumps(entry))
        code = main(["replay", "--corpus", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "repro-verify: error" in err
        assert repr(field) in err

    def test_replay_missing_corpus_is_empty_pass(self, tmp_path, capsys):
        code = main(["replay", "--corpus", str(tmp_path / "nope")])
        assert code == 0
        assert "0 entries" in capsys.readouterr().out

    def test_bad_policy_is_a_cli_error(self, capsys):
        code = main(["fuzz", "--cases", "1", "--policies", "warp-drive"])
        assert code == 2
        assert "unknown bus policy" in capsys.readouterr().err
