"""Tests for the ``repro-experiments`` command-line interface."""

import pytest

from repro.experiments.cli import main


class TestCli:
    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output
        assert "lcdnum" in output
        assert "[table1 completed" in output

    def test_fig2_with_tiny_samples(self, capsys):
        assert main(["fig2", "--samples", "2"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 2a" in output
        assert "Maximum persistence-aware gain" in output

    def test_multiple_experiments(self, capsys):
        assert main(["table1", "table1"]) == 0
        output = capsys.readouterr().out
        assert output.count("Table I") == 2

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_requires_at_least_one_experiment(self):
        with pytest.raises(SystemExit):
            main([])

    def test_seed_flag_changes_results(self, capsys):
        main(["fig2", "--samples", "2", "--seed", "1"])
        first = capsys.readouterr().out
        main(["fig2", "--samples", "2", "--seed", "1"])
        second = capsys.readouterr().out
        # Same seed -> identical series (strip the timing line).
        strip = lambda text: [
            line for line in text.splitlines() if not line.startswith("[")
        ]
        assert strip(first) == strip(second)

    def test_samples_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLES", "2")
        assert main(["fig2"]) == 0
        assert "Fig. 2a" in capsys.readouterr().out

    def test_invalid_jobs_reports_clean_error(self, capsys):
        assert main(["fig2", "--samples", "2", "--jobs", "-1"]) == 2
        err = capsys.readouterr().err
        assert "repro-experiments: error:" in err
        assert "jobs" in err

    def test_garbage_jobs_env_reports_clean_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert main(["fig2", "--samples", "2"]) == 2
        err = capsys.readouterr().err
        assert "REPRO_JOBS" in err and "many" in err

    def test_profile_flag_prints_counters(self, capsys):
        assert main(["fig2", "--samples", "2", "--profile"]) == 0
        output = capsys.readouterr().out
        assert "Performance profile:" in output
        assert "inner iterations" in output


def _figure_lines(text):
    """Report lines without the wall-clock timing footers."""
    return [line for line in text.splitlines() if not line.startswith("[")]


class TestResilienceCli:
    def test_journal_then_resume_is_bit_identical(self, capsys, tmp_path):
        assert main(["fig2", "--samples", "2"]) == 0
        plain = capsys.readouterr().out
        assert main(["fig2", "--samples", "2", "--journal", str(tmp_path)]) == 0
        journaled = capsys.readouterr().out
        assert (
            main(
                ["fig2", "--samples", "2", "--journal", str(tmp_path), "--resume"]
            )
            == 0
        )
        resumed = capsys.readouterr().out
        assert _figure_lines(journaled) == _figure_lines(plain)
        assert _figure_lines(resumed) == _figure_lines(plain)

    def test_result_cache_flag_is_rejected(self, tmp_path):
        # The journal is a sweep's one durable replay.
        with pytest.raises(SystemExit) as exit_info:
            main(["fig2", "--samples", "2", "--result-cache", str(tmp_path)])
        assert exit_info.value.code == 2

    def test_result_cache_env_var_is_ignored(
        self, capsys, monkeypatch, tmp_path
    ):
        assert main(["fig2", "--samples", "2"]) == 0
        plain = capsys.readouterr().out
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(cache))
        assert main(["fig2", "--samples", "2"]) == 0
        assert _figure_lines(capsys.readouterr().out) == _figure_lines(plain)
        assert not cache.exists()

    def test_nonempty_journal_without_resume_is_refused(self, capsys, tmp_path):
        assert main(["fig2", "--samples", "2", "--journal", str(tmp_path)]) == 0
        capsys.readouterr()
        # JournalError is an ExecutionError raised from the run phase, so
        # it maps to the execution exit code (see repro.exitcodes).
        assert main(["fig2", "--samples", "2", "--journal", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "repro-experiments: error:" in err and "--resume" in err

    def test_resume_of_a_journal_with_a_flipped_byte_is_refused(
        self, capsys, tmp_path
    ):
        assert main(["fig2", "--samples", "2", "--journal", str(tmp_path)]) == 0
        capsys.readouterr()
        [path] = tmp_path.glob("*.jsonl")
        data = bytearray(path.read_bytes())
        data[data.index(b"\n") + 2] = 0xFF  # inside the first record
        path.write_bytes(bytes(data))
        argv = ["fig2", "--samples", "2", "--journal", str(tmp_path), "--resume"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "repro-experiments: error:" in err
        assert f"{path} line 2 is corrupt" in err

    def test_resume_without_journal_is_refused(self, capsys):
        assert main(["fig2", "--samples", "2", "--resume"]) == 2
        err = capsys.readouterr().err
        assert "--resume requires a --journal" in err

    def test_invalid_timeout_reports_clean_error(self, capsys):
        assert main(["fig2", "--samples", "2", "--timeout", "-5"]) == 2
        err = capsys.readouterr().err
        assert "repro-experiments: error:" in err and "timeout" in err

    def test_invalid_retries_reports_clean_error(self, capsys):
        assert main(["fig2", "--samples", "2", "--retries", "-1"]) == 2
        err = capsys.readouterr().err
        assert "retries" in err

    def test_unknown_inject_reports_clean_error(self, capsys):
        assert main(["fig2", "--samples", "2", "--inject", "meteor"]) == 2
        err = capsys.readouterr().err
        assert "repro-experiments: error:" in err

    def test_injected_flaky_sample_output_matches_clean_run(self, capsys):
        # The transient fault is retried away: same report, full coverage.
        assert main(["fig2", "--samples", "2"]) == 0
        clean = capsys.readouterr().out
        assert (
            main(["fig2", "--samples", "2", "--inject", "flaky-sample"]) == 0
        )
        injected = capsys.readouterr().out
        assert _figure_lines(injected) == _figure_lines(clean)
        assert "Coverage:" not in injected

    def test_injected_crash_is_quarantined_and_reported(self, capsys):
        assert (
            main(
                [
                    "fig2",
                    "--samples",
                    "2",
                    "--jobs",
                    "2",
                    "--retries",
                    "1",
                    "--inject",
                    "crash-sample",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "Coverage:" in captured.out
        assert "1 quarantined" in captured.out
        assert "quarantined crash at point 0 sample 0" in captured.err
