"""Serialization round-trips for verify cases, corpus entries and WCRT
results.

The corpus format is the long-lived surface of the verification subsystem
— reproducers written today must replay unchanged in future versions — so
these tests pin byte-stability (canonical key order, trailing newline) as
well as semantic round-trip fidelity.
"""

import json
import random

import pytest

from repro.analysis.config import AnalysisConfig, CproApproach, CrpdApproach
from repro.analysis.wcrt import analyze_taskset
from repro.errors import ModelError
from repro.model.platform import BusPolicy
from repro.serialization import (
    wcrt_result_from_json,
    wcrt_result_to_dict,
    wcrt_result_to_json,
)
from repro.verify.cases import (
    CASE_KINDS,
    case_from_dict,
    case_from_json,
    case_to_dict,
    case_to_json,
    config_from_dict,
    config_to_dict,
)
from repro.verify.corpus import (
    CorpusEntry,
    entry_from_json,
    entry_name,
    load_corpus,
    save_entry,
)
from repro.verify.generators import generate_case

#: A well-formed platform record, for case records malformed elsewhere.
_PLATFORM = {
    "num_cores": 2,
    "cache": {"num_sets": 16, "block_size": 32},
    "d_mem": 10,
    "bus_policy": "fp",
    "slot_size": 1,
}


def _cases(seed=0):
    rng = random.Random(seed)
    return [generate_case(kind, rng) for kind in CASE_KINDS]


class TestCaseRoundTrip:
    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_json_round_trip_is_identity(self, kind):
        # Task uses identity equality, so semantic equality of cases is
        # checked through their canonical JSON form.
        case = generate_case(kind, random.Random(3))
        restored = case_from_json(case_to_json(case))
        assert case_to_json(restored) == case_to_json(case)
        assert restored.kind == kind

    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_json_is_byte_stable(self, kind):
        """Dump → load → dump reproduces the exact bytes, and shuffled
        dict key order on the way in cannot change the bytes out."""
        case = generate_case(kind, random.Random(5))
        text = case_to_json(case)
        assert text == case_to_json(case_from_json(text))
        assert text.endswith("\n")
        document = json.loads(text)
        scrambled = json.dumps(document, sort_keys=False, indent=None)
        assert case_to_json(case_from_json(scrambled)) == text

    def test_taskset_case_rebuilds_taskset(self):
        case = generate_case("taskset", random.Random(11))
        restored = case_from_json(case_to_json(case))
        original, rebuilt = case.taskset(), restored.taskset()
        assert [t.name for t in original] == [t.name for t in rebuilt]
        assert [t.ecbs for t in original] == [t.ecbs for t in rebuilt]
        # Semantics survive too: same analysis verdict and bounds.
        first = analyze_taskset(original, case.platform, case.config)
        second = analyze_taskset(rebuilt, restored.platform, restored.config)
        assert wcrt_result_to_json(first) == wcrt_result_to_json(second)

    def test_config_round_trip_covers_enums(self):
        config = AnalysisConfig(
            persistence=False,
            crpd_approach=CrpdApproach.ECB_UNION_MULTISET,
            cpro_approach=CproApproach.MULTISET,
            memoization=False,
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_malformed_case_rejected(self):
        with pytest.raises(ModelError):
            case_from_json("{not json")
        with pytest.raises(ModelError):
            case_from_json(json.dumps({"format": "wrong-tag", "version": 1}))
        good = json.loads(case_to_json(generate_case("demand", random.Random(0))))
        good["version"] = 99
        with pytest.raises(ModelError):
            case_from_dict(good)
        good["version"] = 1
        good["kind"] = "unheard-of"
        with pytest.raises(ModelError):
            case_from_dict(good)

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "taskset"},
            {"kind": "taskset", "tasks": []},
            {"kind": "taskset", "platform": _PLATFORM},
            {"kind": "taskset", "platform": _PLATFORM, "tasks": [],
             "config": [1]},
            {"kind": "scenario", "platform": _PLATFORM, "specs": [3]},
            {"kind": "scenario", "platform": _PLATFORM,
             "specs": [{"core": 0}]},
            {"kind": "demand", "n_jobs": 2},
            {"kind": "demand", "benchmark": 3, "n_jobs": 2},
            {"kind": "demand", "benchmark": "cnt", "n_jobs": "2"},
            {"kind": "demand", "benchmark": "cnt", "n_jobs": True},
            {"kind": "demand", "benchmark": "cnt", "n_jobs": 2.0},
            {"kind": "demand", "benchmark": "cnt", "n_jobs": 2,
             "num_sets": "x"},
            {"kind": "demand", "benchmark": "cnt", "n_jobs": 2,
             "num_sets": False},
            {"kind": "demand", "benchmark": "cnt", "n_jobs": 2,
             "scale": "1.0"},
            {"kind": "demand", "benchmark": "cnt", "n_jobs": 2,
             "scale": float("nan")},
            {"kind": "demand", "benchmark": "cnt", "n_jobs": 2,
             "scale": float("inf")},
            {"kind": "demand", "benchmark": "cnt", "n_jobs": 2,
             "scale": True},
            {"kind": "scenario", "platform": _PLATFORM,
             "specs": [{"benchmark": "cnt", "core": "0"}]},
            {"kind": "scenario", "platform": _PLATFORM,
             "specs": [{"benchmark": "cnt", "core": False}]},
            {"kind": "scenario", "platform": _PLATFORM,
             "specs": [{"benchmark": "cnt", "core": 0,
                        "period_factor": "6"}]},
            {"kind": "scenario", "platform": _PLATFORM,
             "specs": [{"benchmark": "cnt", "core": 0,
                        "period_factor": float("-inf")}]},
            {"kind": "scenario", "platform": _PLATFORM,
             "specs": [{"benchmark": "cnt", "core": 0, "scale": None}]},
            {"kind": "scenario", "platform": _PLATFORM,
             "specs": [{"benchmark": "cnt", "core": 0}],
             "layout_seed": 1.5},
            {"kind": "scenario", "platform": _PLATFORM,
             "specs": [{"benchmark": "cnt", "core": 0}],
             "hyperperiods": True},
        ],
        ids=[
            "taskset-without-platform",
            "taskset-with-tasks-without-platform",
            "taskset-without-tasks",
            "config-not-an-object",
            "spec-not-an-object",
            "spec-without-benchmark",
            "demand-without-benchmark",
            "benchmark-not-a-string",
            "n_jobs-a-string",
            "n_jobs-a-bool",
            "n_jobs-a-float",
            "num_sets-a-string",
            "num_sets-a-bool",
            "scale-a-string",
            "scale-nan",
            "scale-infinite",
            "scale-a-bool",
            "core-a-string",
            "core-a-bool",
            "period_factor-a-string",
            "period_factor-infinite",
            "spec-scale-null",
            "layout_seed-a-float",
            "hyperperiods-a-bool",
        ],
    )
    def test_malformed_records_are_model_errors(self, fields):
        document = {"format": "repro-verify-case", "version": 1, **fields}
        with pytest.raises(ModelError, match="malformed"):
            case_from_dict(document)
        with pytest.raises(ModelError, match="malformed"):
            case_from_json(json.dumps(document))


class TestCorpusEntries:
    def test_entry_round_trip(self, tmp_path):
        for case in _cases(seed=8):
            entry = CorpusEntry(
                case=case,
                oracles=("fixed-point-sanity",),
                note="round-trip test",
            )
            path = save_entry(entry, tmp_path)
            assert path.name == entry_name(entry)
            restored = entry_from_json(path.read_text())
            assert case_to_json(restored.case) == case_to_json(case)
            assert restored.oracles == entry.oracles
            assert restored.note == entry.note

    def test_entry_name_is_content_addressed(self, tmp_path):
        case = generate_case("demand", random.Random(1))
        entry = CorpusEntry(case=case, oracles=("eq10-demand",))
        renamed = CorpusEntry(case=case, oracles=("eq10-demand",), note="x")
        # The hash covers the case, not the metadata.
        assert entry_name(entry) == entry_name(renamed)
        other = CorpusEntry(
            case=generate_case("demand", random.Random(2)),
            oracles=("eq10-demand",),
        )
        assert entry_name(entry) != entry_name(other)

    def test_save_is_idempotent(self, tmp_path):
        case = generate_case("taskset", random.Random(6))
        entry = CorpusEntry(case=case, oracles=("kernel-identity",))
        first = save_entry(entry, tmp_path)
        second = save_entry(entry, tmp_path)
        assert first == second
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_load_corpus_sorted_and_validated(self, tmp_path):
        for seed in (3, 1, 2):
            case = generate_case("demand", random.Random(seed))
            save_entry(
                CorpusEntry(case=case, oracles=("eq10-demand",)), tmp_path
            )
        loaded = load_corpus(tmp_path)
        assert len(loaded) == 3
        paths = [path for path, _ in loaded]
        assert paths == sorted(paths)
        (tmp_path / "broken.json").write_text("{}")
        with pytest.raises(ModelError):
            load_corpus(tmp_path)


class TestWcrtResultSerialization:
    def _result(self):
        case = generate_case("taskset", random.Random(9))
        return analyze_taskset(case.taskset(), case.platform, case.config)

    def test_round_trip_preserves_fields(self):
        result = self._result()
        document = wcrt_result_from_json(wcrt_result_to_json(result))
        assert document["schedulable"] == result.schedulable
        assert document["outer_iterations"] == result.outer_iterations
        expected = {
            task.name: bound
            for task, bound in result.response_times.items()
        }
        assert document["response_times"] == expected

    def test_json_is_byte_stable_across_dict_orderings(self):
        result = self._result()
        text = wcrt_result_to_json(result)
        document = wcrt_result_to_dict(result)
        # Rebuild the dict with reversed insertion order — canonical
        # serialisation must not care.
        reordered = dict(reversed(list(document.items())))
        reordered["response_times"] = dict(
            reversed(list(document["response_times"].items()))
        )
        assert json.dumps(reordered, indent=2, sort_keys=True) == text
        assert wcrt_result_to_json(result) == text

    def test_failed_task_serialised_by_name(self):
        from dataclasses import replace

        case = generate_case("taskset", random.Random(9))
        overloaded = case.with_tasks(
            tuple(replace(t, pd=t.deadline, md=0, md_r=0) for t in case.tasks)
        )
        result = analyze_taskset(
            overloaded.taskset(), overloaded.platform, overloaded.config
        )
        assert not result.schedulable
        document = wcrt_result_from_json(wcrt_result_to_json(result))
        if result.failed_task is not None:
            assert document["failed_task"] == result.failed_task.name

    def test_malformed_result_rejected(self):
        with pytest.raises(ModelError):
            wcrt_result_from_json("nope")
        with pytest.raises(ModelError):
            wcrt_result_from_json(json.dumps({"format": "repro-taskset"}))
        with pytest.raises(ModelError):
            wcrt_result_from_json(
                json.dumps({"format": "repro-wcrt-result", "version": 99})
            )
