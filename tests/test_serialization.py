"""Unit tests for JSON serialisation of task sets and platforms."""

import json
import random

import pytest

from repro.errors import ModelError
from repro.generation import generate_taskset
from repro.model.platform import BusPolicy, CacheGeometry, Platform
from repro.model.task import Task, TaskSet
from repro.serialization import (
    load_taskset,
    platform_from_dict,
    platform_to_dict,
    save_taskset,
    task_from_dict,
    task_to_dict,
    tasks_from_dicts,
    taskset_from_json,
    taskset_to_json,
)


@pytest.fixture()
def platform():
    return Platform(
        num_cores=3,
        cache=CacheGeometry(num_sets=128, block_size=64),
        d_mem=20,
        bus_policy=BusPolicy.TDMA,
        slot_size=3,
    )


@pytest.fixture()
def taskset(platform):
    return generate_taskset(random.Random(4), platform, 0.3)


class TestPlatformRoundTrip:
    def test_round_trip(self, platform):
        assert platform_from_dict(platform_to_dict(platform)) == platform

    def test_malformed_rejected(self):
        with pytest.raises(ModelError):
            platform_from_dict({"num_cores": 2})

    def test_bad_policy_rejected(self, platform):
        data = platform_to_dict(platform)
        data["bus_policy"] = "quantum"
        with pytest.raises(ModelError):
            platform_from_dict(data)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda data: [1],
            lambda data: dict(data, cache=[64, 32]),
            lambda data: dict(data, cache=dict(data["cache"], num_sets=1e400)),
            lambda data: dict(data, d_mem="10"),
        ],
        ids=["list", "cache-list", "infinite-sets", "string-d_mem"],
    )
    def test_wrongly_typed_record_is_a_model_error(self, platform, mutate):
        with pytest.raises(ModelError, match="platform"):
            platform_from_dict(mutate(platform_to_dict(platform)))


class TestTaskRoundTrip:
    def test_all_fields_survive(self):
        task = Task(
            name="x", pd=10, md=5, md_r=2, period=100, deadline=90,
            priority=7, core=2,
            ecbs=frozenset({1, 2, 3}), ucbs=frozenset({1}), pcbs=frozenset({2}),
        )
        clone = task_from_dict(task_to_dict(task))
        for field in ("name", "pd", "md", "md_r", "period", "deadline",
                      "priority", "core", "ecbs", "ucbs", "pcbs"):
            assert getattr(clone, field) == getattr(task, field)

    def test_missing_field_rejected(self):
        with pytest.raises(ModelError):
            task_from_dict({"name": "x"})

    def test_defaults_applied(self):
        record = {
            "name": "y", "pd": 1, "md": 2, "period": 10, "deadline": 10,
            "priority": 1,
        }
        task = task_from_dict(record)
        assert task.core == 0
        assert task.md_r == 2
        assert task.ecbs == frozenset()


def _record(**sets):
    record = {
        "name": "t", "pd": 1, "md": 2, "period": 10, "deadline": 10,
        "priority": 1, "ecbs": [1, 2, 3], "ucbs": [1], "pcbs": [2],
    }
    record.update(sets)
    return record


class TestWronglyTypedTaskRecords:
    """A record the task's checks cannot compare is a ModelError too."""

    @pytest.mark.parametrize(
        "record",
        [7, [1], "t", _record(name=[1]), _record(name=None),
         _record(core=None), _record(pd="x"), _record(period=None)],
        ids=["int", "list", "str", "list-name", "null-name", "null-core",
             "string-pd", "null-period"],
    )
    def test_rejected(self, record):
        with pytest.raises(ModelError, match="malformed task record"):
            task_from_dict(record)


class TestCacheSetIndices:
    """Only non-negative ``int`` indices parse, whatever kernel runs next."""

    @pytest.mark.parametrize(
        "blocks",
        [[-1, 2], [1.5, 2], [True, 2], [0, False], [1, True], [2, 2.0],
         ["3"], [[1]], None, 7, "12", {"1": 2}],
        ids=repr,
    )
    def test_malformed_ecbs_rejected(self, blocks):
        with pytest.raises(ModelError):
            task_from_dict(_record(ecbs=blocks, ucbs=[], pcbs=[]))

    @pytest.mark.parametrize("key", ["ucbs", "pcbs"])
    @pytest.mark.parametrize(
        "blocks",
        # The last two equal the ECB list [1, 2, 3] as Python lists.
        [[1.0], [True], [-1], [1, 1.0], [1.0, 2.0, 3.0], [True, 2, 3]],
        ids=repr,
    )
    def test_malformed_subsets_rejected(self, key, blocks):
        with pytest.raises(ModelError):
            task_from_dict(_record(**{key: blocks}))

    def test_repeated_index_is_one_member(self):
        task = task_from_dict(_record(ecbs=[3, 1, 3, 2], ucbs=[1, 1]))
        assert task.ecbs == frozenset({1, 2, 3})
        assert task.ucbs == frozenset({1})

    def test_whole_run_lists_share_the_ecb_set(self):
        task = task_from_dict(_record(ucbs=[1, 2, 3], pcbs=[1, 2, 3]))
        assert task.ucbs is task.ecbs and task.pcbs is task.ecbs
        task = task_from_dict(_record())
        assert task.ucbs is not task.ecbs and task.pcbs is not task.ecbs

    @pytest.mark.parametrize("index", [128, 129, 2**70], ids=repr)
    def test_index_past_the_cache_rejected(self, taskset, platform, index):
        document = json.loads(taskset_to_json(taskset, platform))
        document["tasks"][0].update(ecbs=[index, 2], ucbs=[2], pcbs=[])
        with pytest.raises(ModelError, match="past the platform's 128 sets"):
            taskset_from_json(json.dumps(document))

    def test_last_set_of_the_cache_parses(self, taskset, platform):
        document = json.loads(taskset_to_json(taskset, platform))
        document["tasks"][0].update(ecbs=[0, 127], ucbs=[127], pcbs=[0])
        loaded, _ = taskset_from_json(json.dumps(document))
        name = document["tasks"][0]["name"]
        (task,) = [task for task in loaded if task.name == name]
        assert task.ecbs == frozenset({0, 127})

    def test_round_trip_keeps_sharing(self, taskset):
        shared = 0
        for task in taskset:
            record = task_to_dict(task)
            clone = task_from_dict(record)
            for label in ("ucbs", "pcbs"):
                is_shared = getattr(task, label) is task.ecbs
                assert (record[label] is record["ecbs"]) == is_shared
                assert (getattr(clone, label) is clone.ecbs) == is_shared
                shared += is_shared
        assert shared > 0


class TestTasksetRoundTrip:
    def test_full_round_trip(self, taskset, platform):
        text = taskset_to_json(taskset, platform)
        loaded_set, loaded_platform = taskset_from_json(text)
        assert loaded_platform == platform
        assert len(loaded_set) == len(taskset)
        for original, loaded in zip(taskset, loaded_set):
            assert task_to_dict(original) == task_to_dict(loaded)

    def test_analysis_agrees_after_round_trip(self, taskset, platform):
        from repro.analysis import analyze_taskset

        text = taskset_to_json(taskset, platform)
        loaded_set, loaded_platform = taskset_from_json(text)
        original = analyze_taskset(taskset, platform)
        loaded = analyze_taskset(loaded_set, loaded_platform)
        assert original.schedulable == loaded.schedulable
        assert sorted(original.response_times.values()) == sorted(
            loaded.response_times.values()
        )

    def test_document_structure(self, taskset, platform):
        document = json.loads(taskset_to_json(taskset, platform))
        assert document["format"] == "repro-taskset"
        assert document["version"] == 1
        assert len(document["tasks"]) == len(taskset)

    def test_wrong_tag_rejected(self):
        with pytest.raises(ModelError):
            taskset_from_json(json.dumps({"format": "other", "version": 1}))

    def test_wrong_version_rejected(self):
        with pytest.raises(ModelError):
            taskset_from_json(
                json.dumps({"format": "repro-taskset", "version": 99})
            )

    def test_invalid_json_rejected(self):
        with pytest.raises(ModelError):
            taskset_from_json("{nope")

    def test_duplicate_task_name_rejected(self, taskset, platform):
        # Verdicts key response times by task name: a repeated name would
        # silently drop one task's bound.
        document = json.loads(taskset_to_json(taskset, platform))
        first, second = document["tasks"][:2]
        second["name"] = first["name"]
        with pytest.raises(ModelError, match="share this name"):
            tasks_from_dicts(document["tasks"], platform)
        with pytest.raises(ModelError, match=first["name"]):
            taskset_from_json(json.dumps(document))

    def test_file_round_trip(self, taskset, platform, tmp_path):
        path = tmp_path / "set.json"
        save_taskset(taskset, platform, path)
        loaded_set, loaded_platform = load_taskset(path)
        assert loaded_platform == platform
        assert len(loaded_set) == len(taskset)


class TestFormatEdgeCases:
    def test_indentation_parameter(self, taskset, platform):
        compact = taskset_to_json(taskset, platform, indent=0)
        assert json.loads(compact)["format"] == "repro-taskset"

    def test_tasks_default_missing_sections(self):
        document = json.dumps(
            {
                "format": "repro-taskset",
                "version": 1,
                "platform": {
                    "num_cores": 1,
                    "cache": {"num_sets": 16, "block_size": 32},
                    "d_mem": 10,
                    "bus_policy": "fp",
                    "slot_size": 1,
                },
                "tasks": [
                    {
                        "name": "t",
                        "pd": 1,
                        "md": 0,
                        "period": 10,
                        "deadline": 10,
                        "priority": 1,
                    }
                ],
            }
        )
        loaded_set, loaded_platform = taskset_from_json(document)
        assert len(loaded_set) == 1
        assert loaded_platform.num_cores == 1
