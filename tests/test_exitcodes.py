"""Exit-code contract of the CLIs (see :mod:`repro.exitcodes`).

The mapping is part of the scripting interface: wrappers distinguish
"my input was bad" (2) from "the analysis failed" (3) from "the execution
machinery failed" (4) from "the user interrupted" (130) without parsing
stderr.  The end-to-end checks of real CLI invocations live in
``tests/test_cli.py`` and ``tests/test_verify_engine.py``; this file pins
the class-to-code mapping itself.
"""

import pytest

from repro.errors import (
    AnalysisAborted,
    AnalysisError,
    BudgetExceeded,
    ChunkTimeoutError,
    ConvergenceError,
    ExecutionError,
    GenerationError,
    JournalError,
    ModelError,
    ProgramError,
    ReproError,
    SimulationError,
    SweepInterrupted,
    WorkerCrashError,
)
from repro.exitcodes import (
    EXIT_ANALYSIS,
    EXIT_EXECUTION,
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    exit_code_for,
)


class TestExitCodeMapping:
    def test_distinct_documented_codes(self):
        codes = {
            EXIT_OK,
            EXIT_FAILURE,
            EXIT_USAGE,
            EXIT_ANALYSIS,
            EXIT_EXECUTION,
            EXIT_INTERRUPTED,
        }
        assert codes == {0, 1, 2, 3, 4, 130}

    @pytest.mark.parametrize(
        "error_type", [ModelError, GenerationError, ProgramError]
    )
    def test_input_errors_map_to_usage(self, error_type):
        assert exit_code_for(error_type("bad input")) == EXIT_USAGE

    @pytest.mark.parametrize(
        "error_type",
        [
            AnalysisError,
            ConvergenceError,
            SimulationError,
            AnalysisAborted,
            BudgetExceeded,
        ],
    )
    def test_analysis_errors_map_to_analysis(self, error_type):
        assert exit_code_for(error_type("analysis failed")) == EXIT_ANALYSIS

    @pytest.mark.parametrize(
        "error_type",
        [ExecutionError, WorkerCrashError, ChunkTimeoutError, JournalError],
    )
    def test_execution_errors_map_to_execution(self, error_type):
        assert exit_code_for(error_type("machinery failed")) == EXIT_EXECUTION

    def test_interrupt_wins_over_its_execution_base(self):
        # SweepInterrupted subclasses ExecutionError; the conventional 130
        # must win over the generic execution code.
        assert exit_code_for(SweepInterrupted("^C")) == EXIT_INTERRUPTED

    def test_unknown_repro_error_falls_back_to_failure(self):
        assert exit_code_for(ReproError("uncategorised")) == EXIT_FAILURE
