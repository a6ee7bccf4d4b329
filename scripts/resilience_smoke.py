#!/usr/bin/env python3
"""End-to-end smoke test of the campaign resilience layer.

Drives the real ``repro-experiments`` CLI through the three recovery
scenarios that ``docs/RESILIENCE.md`` promises (runnable locally and as
the ``resilience-smoke`` CI job):

1. **Crash injection** — ``--inject crash-sample`` poisons one sample so
   its worker dies with ``os._exit``; the sweep must still complete,
   quarantine exactly that sample and report the degraded coverage.
2. **Hang injection** — ``--inject hang-sample`` with a small
   ``--timeout`` makes one chunk stall; the watchdog kills the pool, the
   retry succeeds, and the final report must be bit-identical to a clean
   run.
3. **Kill + resume** — a journaled sweep is SIGTERMed mid-flight (exit
   130, journal flushed), resumed with ``--resume``, and the resumed
   report must be bit-identical to an uninterrupted run.  A last
   ``--resume --profile`` over the completed journal must print the same
   report and run no analysis (``analyses 0``): the journal is the
   sweep's one durable replay.

Exits non-zero with a diagnostic on the first violated expectation.
"""

from __future__ import annotations

import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

BASE = [sys.executable, "-m", "repro.experiments"]

ENV = dict(
    os.environ,
    PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""),
)


def run(args, check=True):
    """Run one CLI invocation, echoing the command line."""
    print(f"$ {' '.join(args)}", flush=True)
    result = subprocess.run(
        args, cwd=ROOT, env=ENV, capture_output=True, text=True
    )
    if check and result.returncode != 0:
        sys.stderr.write(result.stdout + result.stderr)
        raise SystemExit(f"command failed with exit {result.returncode}")
    return result


def figure_lines(text):
    """Report lines without the wall-clock timing footers or a profile."""
    report = text.split("Performance profile:")[0]
    return [line for line in report.splitlines() if not line.startswith("[")]


def expect(condition, message):
    if not condition:
        raise SystemExit(f"resilience-smoke: FAILED: {message}")
    print(f"  ok: {message}", flush=True)


def crash_scenario(samples):
    clean = run(BASE + ["fig2", "--samples", samples])
    crashed = run(
        BASE
        + [
            "fig2",
            "--samples",
            samples,
            "--jobs",
            "2",
            "--retries",
            "1",
            "--inject",
            "crash-sample",
        ]
    )
    expect(
        "quarantined crash at point 0 sample 0" in crashed.stderr,
        "crash-injected sweep quarantines the poison sample",
    )
    expect(
        "Coverage:" in crashed.stdout and "1 quarantined" in crashed.stdout,
        "crash-injected report shows degraded coverage",
    )
    expect(
        "reproducer seed" in crashed.stdout,
        "quarantine record carries the reproducer seed",
    )
    expect(
        len(figure_lines(crashed.stdout)) >= len(figure_lines(clean.stdout)),
        "crash-injected sweep still renders the full report",
    )
    return clean


def hang_scenario(samples, clean):
    hung = run(
        BASE
        + [
            "fig2",
            "--samples",
            samples,
            "--jobs",
            "2",
            "--timeout",
            "10",
            "--inject",
            "hang-sample",
        ]
    )
    expect(
        figure_lines(hung.stdout) == figure_lines(clean.stdout),
        "hang-injected sweep recovers bit-identically to a clean run",
    )


def kill_resume_scenario(samples):
    with tempfile.TemporaryDirectory(prefix="repro-journal-") as journal:
        uninterrupted = run(BASE + ["fig2", "--samples", samples])
        args = BASE + ["fig2", "--samples", samples, "--journal", journal]
        print(f"$ {' '.join(args)}  # SIGTERM after 2s", flush=True)
        victim = subprocess.Popen(
            args, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        time.sleep(2.0)
        victim.send_signal(signal.SIGTERM)
        _stdout, stderr = victim.communicate(timeout=120)
        # The run may legitimately finish before the signal lands; the
        # resume below is then a pure journal replay — still a valid check.
        if victim.returncode == 130:
            expect(
                "journal flushed" in stderr,
                "interrupted sweep reports the flushed journal",
            )
        else:
            expect(victim.returncode == 0, "victim run neither finished nor 130")
        journal_files = list(pathlib.Path(journal).glob("*.jsonl"))
        expect(bool(journal_files), "journal file exists after the kill")
        resume = args + ["--resume"]
        resumed = run(resume)
        expect(
            figure_lines(resumed.stdout) == figure_lines(uninterrupted.stdout),
            "resumed sweep is bit-identical to an uninterrupted run",
        )
        replayed = run(resume + ["--profile"])
        expect(
            figure_lines(replayed.stdout) == figure_lines(uninterrupted.stdout),
            "a resume of the completed journal prints the same report",
        )
        expect(
            re.search(r"^  analyses +0 ", replayed.stdout, re.MULTILINE),
            "a resume of the completed journal runs no analysis",
        )


def main():
    samples = sys.argv[1] if len(sys.argv) > 1 else "6"
    clean = crash_scenario(samples)
    hang_scenario(samples, clean)
    kill_resume_scenario("30")
    print("resilience-smoke: all scenarios passed", flush=True)


if __name__ == "__main__":
    main()
