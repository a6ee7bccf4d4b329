"""Checkpoint journal and fingerprint tests: crash-safe resumable sweeps."""

from dataclasses import replace

import pytest

from repro.errors import JournalError
from repro.experiments.config import (
    SweepSettings,
    default_platform,
    standard_variants,
)
from repro.experiments.journal import (
    RunJournal,
    sweep_description,
    sweep_fingerprint,
)
from repro.experiments.runner import run_curve

SETTINGS = SweepSettings(samples=3, seed=11, utilizations=(0.2, 0.4), jobs=1)
VARIANTS = standard_variants(include_perfect=False)[:2]
PLATFORM = default_platform()


def fingerprint(settings=SETTINGS, platform=PLATFORM, point_offset=0):
    return sweep_fingerprint(platform, VARIANTS, settings, point_offset)


class TestFingerprint:
    def test_stable_across_calls(self):
        assert fingerprint() == fingerprint()
        assert len(fingerprint()) == 64

    @pytest.mark.parametrize(
        "changed",
        [
            replace(SETTINGS, samples=4),
            replace(SETTINGS, seed=12),
            replace(SETTINGS, utilizations=(0.2, 0.5)),
        ],
    )
    def test_sensitive_to_outcome_determining_settings(self, changed):
        assert fingerprint(changed) != fingerprint()

    def test_sensitive_to_platform_and_offset(self):
        other = PLATFORM.with_num_cores(PLATFORM.num_cores + 2)
        assert fingerprint(platform=other) != fingerprint()
        assert fingerprint(point_offset=1000) != fingerprint()

    @pytest.mark.parametrize(
        "changed",
        [
            replace(SETTINGS, jobs=8),
            replace(SETTINGS, profile=True),
            replace(SETTINGS, timeout=5.0),
            replace(SETTINGS, retries=0),
            replace(SETTINGS, backoff=1.0),
        ],
    )
    def test_insensitive_to_execution_parameters(self, changed):
        # A run interrupted at --jobs 8 must resume at --jobs 2.
        assert fingerprint(changed) == fingerprint()

    @pytest.mark.parametrize("knob", ["array_kernel", "lockstep_kernel"])
    def test_insensitive_to_result_neutral_kernel_knobs(self, knob):
        # Neither knob changes a verdict, so journals written with either
        # setting resume under the other.
        variants = tuple(
            replace(v, analysis=replace(v.analysis, **{knob: False}))
            for v in VARIANTS
        )
        assert sweep_fingerprint(PLATFORM, variants, SETTINGS, 0) == fingerprint()

    def test_matches_the_recorded_catalogue_fingerprint(self):
        # Existing journals must keep resuming: the full catalogue's
        # fingerprint at default settings is pinned to the recorded value.
        assert sweep_fingerprint(
            PLATFORM, standard_variants(True), SweepSettings(), 0
        ) == "1b358a4c651a3f3507ba45ccc6d30c474cb73195490bab37e394c1e2822b444f"

    def test_description_is_plain_json(self):
        import json

        description = sweep_description(PLATFORM, VARIANTS, SETTINGS, 0)
        assert json.loads(json.dumps(description)) == description


class TestRunJournal:
    def test_round_trip(self, tmp_path):
        fp = fingerprint()
        with RunJournal.open(tmp_path, fp) as journal:
            journal.record_sample(0, 0, 1.25, (True, False))
            journal.record_failure(
                {
                    "point": 0,
                    "sample": 1,
                    "utilization": 0.2,
                    "seed": 99,
                    "failure": "crash",
                    "exception": "WorkerCrashError",
                    "message": "",
                    "traceback_digest": "",
                    "attempts": 3,
                }
            )
        reopened = RunJournal.open(tmp_path, fp)
        assert reopened.completed == {(0, 0): (1.25, (True, False))}
        assert set(reopened.failures) == {(0, 1)}
        assert reopened.failures[(0, 1)]["failure"] == "crash"
        reopened.close()
        reopened.close()  # idempotent

    def test_append_after_close_is_typed_error(self, tmp_path):
        journal = RunJournal.open(tmp_path, fingerprint())
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.record_sample(0, 0, 1.0, (True,))

    def test_tolerates_truncated_final_line(self, tmp_path):
        fp = fingerprint()
        with RunJournal.open(tmp_path, fp) as journal:
            journal.record_sample(0, 0, 1.0, (True,))
            journal.record_sample(0, 1, 2.0, (False,))
            path = journal.path
        text = path.read_text()
        path.write_text(text[:-9])  # SIGKILL mid-append
        reopened = RunJournal.open(tmp_path, fp)
        # The torn record simply re-runs on resume.
        assert reopened.completed == {(0, 0): (1.0, (True,))}
        reopened.close()

    def test_rejects_mid_file_corruption(self, tmp_path):
        fp = fingerprint()
        with RunJournal.open(tmp_path, fp) as journal:
            journal.record_sample(0, 0, 1.0, (True,))
            path = journal.path
        lines = path.read_text().splitlines()
        lines.insert(1, "{ not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt"):
            RunJournal.open(tmp_path, fp)

    def test_rejects_foreign_fingerprint(self, tmp_path):
        fp = fingerprint()
        RunJournal.open(tmp_path, fp).close()
        other = "f" * 16 + fp[16:]  # same filename prefix, different sweep
        path = tmp_path / f"{fp[:16]}.jsonl"
        path.rename(tmp_path / f"{other[:16]}.jsonl")
        with pytest.raises(JournalError, match="different sweep"):
            RunJournal.open(tmp_path, other)

    def test_rejects_unknown_record_kind(self, tmp_path):
        fp = fingerprint()
        with RunJournal.open(tmp_path, fp) as journal:
            path = journal.path
        with path.open("a") as handle:
            handle.write('{"kind": "telemetry"}\n')
            handle.write('{"kind": "sample", "point": 0}\n')  # never reached
        with pytest.raises(JournalError, match="unknown kind"):
            RunJournal.open(tmp_path, fp)

    def test_headerless_file_treated_as_fresh(self, tmp_path):
        fp = fingerprint()
        path = tmp_path / f"{fp[:16]}.jsonl"
        path.write_text('{"kind": "hea')  # only the torn header survived
        journal = RunJournal.open(tmp_path, fp)
        assert journal.completed == {} and journal.failures == {}
        journal.close()


class TestResume:
    def test_refuses_nonempty_journal_without_resume(self, tmp_path):
        run_curve(PLATFORM, VARIANTS, SETTINGS, journal_dir=str(tmp_path))
        with pytest.raises(JournalError, match="--resume"):
            run_curve(PLATFORM, VARIANTS, SETTINGS, journal_dir=str(tmp_path))

    def test_resume_of_complete_run_is_bit_identical(self, tmp_path):
        reference = run_curve(PLATFORM, VARIANTS, SETTINGS)
        first = run_curve(PLATFORM, VARIANTS, SETTINGS, journal_dir=str(tmp_path))
        resumed = run_curve(
            PLATFORM, VARIANTS, SETTINGS, journal_dir=str(tmp_path), resume=True
        )
        assert first == dict(reference)
        assert resumed == dict(reference)

    def test_resume_after_truncation_is_bit_identical(self, tmp_path):
        reference = run_curve(PLATFORM, VARIANTS, SETTINGS)
        run_curve(PLATFORM, VARIANTS, SETTINGS, journal_dir=str(tmp_path))
        fp = fingerprint()
        path = tmp_path / f"{fp[:16]}.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        # Simulate a kill that lost half the checkpoints plus a torn line.
        survivors = lines[: 1 + len(lines) // 2]
        path.write_text("".join(survivors) + lines[len(survivors)][:7])
        resumed = run_curve(
            PLATFORM, VARIANTS, SETTINGS, journal_dir=str(tmp_path), resume=True
        )
        assert resumed == dict(reference)
        assert resumed.failures == []
        assert resumed.coverage == 1.0

    def test_resume_works_across_different_jobs(self, tmp_path):
        reference = run_curve(PLATFORM, VARIANTS, SETTINGS)
        run_curve(PLATFORM, VARIANTS, SETTINGS, journal_dir=str(tmp_path))
        resumed = run_curve(
            PLATFORM,
            VARIANTS,
            replace(SETTINGS, jobs=2),
            journal_dir=str(tmp_path),
            resume=True,
        )
        assert resumed == dict(reference)

    def test_distinct_point_offsets_use_distinct_files(self, tmp_path):
        run_curve(PLATFORM, VARIANTS, SETTINGS, journal_dir=str(tmp_path))
        run_curve(
            PLATFORM,
            VARIANTS,
            SETTINGS,
            point_offset=1000,
            journal_dir=str(tmp_path),
        )
        assert len(list(tmp_path.glob("*.jsonl"))) == 2
