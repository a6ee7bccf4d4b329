"""Command-line entry point: ``repro-experiments`` / ``python -m repro.experiments``.

Regenerates every table and figure of the paper's evaluation::

    repro-experiments table1 fig1
    repro-experiments fig2  --samples 1000 --jobs 8     # paper scale
    repro-experiments fig3a fig3b fig3c fig3d
    repro-experiments all   --samples 100

Sample counts default to 100 task sets per point (the paper uses 1000);
``REPRO_SAMPLES`` and ``REPRO_JOBS`` provide environment overrides.

Long campaigns should run journaled so they survive crashes and
pre-emption (see ``docs/RESILIENCE.md``)::

    repro-experiments fig2 --samples 1000 --jobs 8 --journal runs/fig2
    # ... SIGTERM / crash / Ctrl-C ...
    repro-experiments fig2 --samples 1000 --jobs 8 --journal runs/fig2 --resume

``--budget``/``--timeout``/``--retries`` tune the worker supervision
(in-process per-sample budgets, hang watchdog and transient-failure retry
budget), and ``--inject`` deliberately breaks one sample
(crash/hang/flaky) to exercise the recovery paths.

Exit codes follow :mod:`repro.exitcodes`: 0 success, 2 invalid command
line or model/validation error, 3 analysis error, 4 execution error
(journal corruption, unrecoverable workers), 130 interrupted.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.errors import AnalysisError, ReproError, SweepInterrupted
from repro.exitcodes import EXIT_INTERRUPTED, EXIT_OK, EXIT_USAGE, exit_code_for
from repro.experiments.config import settings_from_environment
from repro.experiments.faults import parse_sweep_fault, sweep_fault_kinds
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3a, run_fig3b, run_fig3c, run_fig3d
from repro.experiments.table1 import run_table1
from repro.perf import global_counters, reset_global_counters

_EXPERIMENTS = ("table1", "fig1", "fig2", "fig3a", "fig3b", "fig3c", "fig3d")



def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the DATE 2020 paper "
        "'Cache Persistence-Aware Memory Bus Contention Analysis for "
        "Multicore Systems'.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=_EXPERIMENTS + ("all",),
        help="which experiments to run",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=None,
        help="task sets per sweep point (paper: 1000; default: 100 or "
        "$REPRO_SAMPLES)",
    )
    parser.add_argument(
        "--seed", type=int, default=2020, help="base random seed"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes; 0 = one per CPU (default: 1 or $REPRO_JOBS)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print analysis-kernel perf counters (iterations, table "
        "builds, dominance skips, state-plane hit ratio, phase timings) "
        "after each experiment",
    )
    parser.add_argument(
        "--profile-cprofile",
        metavar="PATH",
        default=None,
        help="run the experiments under cProfile and dump a pstats file to "
        "PATH (inspect with 'python -m pstats PATH'; see "
        "docs/PERFORMANCE.md).  Forces --jobs 1: cProfile only sees the "
        "current process, so worker processes would profile as idle waits",
    )
    parser.add_argument(
        "--journal",
        metavar="DIR",
        default=None,
        help="checkpoint every completed (point, sample) item into an "
        "append-only JSONL journal in DIR, keyed by the sweep fingerprint",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip items already recorded in the --journal directory "
        "(bit-identical to an uninterrupted run)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-chunk wall-clock budget of the process-kill watchdog; a "
        "chunk exceeding it is killed and retried (default: no hang "
        "watchdog, or derived from --budget)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-sample in-process analysis budget; an over-budget sample "
        "aborts cooperatively at the next iteration boundary and is "
        "quarantined without retries (default: unlimited)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help="per-sample retry budget for transient failures before the "
        "sample is quarantined (default: 2)",
    )
    parser.add_argument(
        "--inject",
        metavar="FAULT",
        default=None,
        help="TEST ONLY: inject a deterministic execution fault "
        f"({', '.join(sweep_fault_kinds())}; optionally "
        "'KIND:POINT,SAMPLE') to prove the recovery paths work",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the requested experiments and print their reports."""
    args = _parser().parse_args(argv)
    chosen = list(_EXPERIMENTS) if "all" in args.experiments else args.experiments
    overrides = {"seed": args.seed, "profile": args.profile}
    if args.samples is not None:
        overrides["samples"] = args.samples
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.profile_cprofile is not None:
        # cProfile instruments only this process; spawn workers would show
        # up as one opaque wait.  With one job the chunks run in-process.
        overrides["jobs"] = 1
    if args.timeout is not None:
        overrides["timeout"] = args.timeout
    if args.budget is not None:
        overrides["sample_budget"] = args.budget
    if args.retries is not None:
        overrides["retries"] = args.retries
    try:
        if args.resume and args.journal is None:
            raise AnalysisError("--resume requires a --journal directory")
        fault = parse_sweep_fault(args.inject) if args.inject else None
        settings = settings_from_environment(**overrides)
    except AnalysisError as error:
        # Configuration problems are usage errors regardless of the class
        # that carried them (see repro.exitcodes).
        print(f"repro-experiments: error: {error}", file=sys.stderr)
        return EXIT_USAGE

    sweep_kwargs = {
        "journal_dir": args.journal,
        "resume": args.resume,
        "fault": fault,
    }
    runners = {
        # table1 and fig1 are cheap and deterministic — nothing to journal.
        "table1": lambda: run_table1(),
        "fig1": lambda: run_fig1(),
        "fig2": lambda: run_fig2(settings, **sweep_kwargs),
        "fig3a": lambda: run_fig3a(settings, **sweep_kwargs),
        "fig3b": lambda: run_fig3b(settings, **sweep_kwargs),
        "fig3c": lambda: run_fig3c(settings, **sweep_kwargs),
        "fig3d": lambda: run_fig3d(settings, **sweep_kwargs),
    }
    profiler = None
    if args.profile_cprofile is not None:
        import cProfile

        profiler = cProfile.Profile()

    for name in chosen:
        if settings.profile:
            reset_global_counters()
        started = time.time()
        try:
            if profiler is not None:
                profiler.enable()
            try:
                result = runners[name]()
            finally:
                if profiler is not None:
                    profiler.disable()
        except SweepInterrupted as interruption:
            print(
                f"repro-experiments: interrupted: {interruption}",
                file=sys.stderr,
            )
            return EXIT_INTERRUPTED
        except ReproError as error:
            print(f"repro-experiments: error: {error}", file=sys.stderr)
            return exit_code_for(error)
        print(result.render())
        print(f"[{name} completed in {time.time() - started:.1f}s]\n")
        if settings.profile:
            print(global_counters().render())
            print()
    if profiler is not None:
        profiler.dump_stats(args.profile_cprofile)
        print(
            f"[cProfile stats written to {args.profile_cprofile}; inspect "
            f"with 'python -m pstats {args.profile_cprofile}']"
        )
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
