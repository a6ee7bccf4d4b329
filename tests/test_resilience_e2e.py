"""End-to-end kill tests against real processes.

SIGTERM a journaled sweep and resume it: this exercises the full promise
of ``docs/RESILIENCE.md`` through the real CLI in a subprocess.  The
interrupted run exits with code 130 after flushing its journal, and
``--resume`` reproduces the uninterrupted report bit for bit.  The test
is robust to scheduling noise — if the victim happens to finish before
the signal lands, the resume degenerates to a pure journal replay, which
must *still* be bit-identical.

SIGKILL a process holding a spawn pool: its workers and the
multiprocessing resource tracker must not outlive it.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from tests.proctree import alive, descendants

ROOT = pathlib.Path(__file__).resolve().parent.parent

ARGS = [sys.executable, "-m", "repro.experiments", "fig2", "--samples", "30"]

ENV = dict(
    os.environ,
    PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""),
)


def _run(extra):
    return subprocess.run(
        ARGS + extra, cwd=ROOT, env=ENV, capture_output=True, text=True,
        timeout=600,
    )


def _figure_lines(text):
    return [line for line in text.splitlines() if not line.startswith("[")]


def test_sigterm_then_resume_is_bit_identical(tmp_path):
    journal = str(tmp_path)
    victim = subprocess.Popen(
        ARGS + ["--journal", journal],
        cwd=ROOT,
        env=ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    time.sleep(2.0)
    victim.send_signal(signal.SIGTERM)
    _stdout, stderr = victim.communicate(timeout=120)
    if victim.returncode == 130:
        assert "interrupted" in stderr and "journal flushed" in stderr
        assert "--resume" in stderr  # tells the user how to continue
    else:
        # Finished before the signal landed: resume is then a pure replay.
        assert victim.returncode == 0
    journal_files = list(tmp_path.glob("*.jsonl"))
    assert journal_files, "journal file must survive the kill"

    uninterrupted = _run([])
    assert uninterrupted.returncode == 0
    resumed = _run(["--journal", journal, "--resume"])
    assert resumed.returncode == 0, resumed.stderr
    assert _figure_lines(resumed.stdout) == _figure_lines(uninterrupted.stdout)


def test_resume_under_stealing_and_different_jobs_is_bit_identical(tmp_path):
    """Journal fingerprints and ``--resume`` survive adaptive chunking.

    The interrupted run executes with ``--jobs 3`` — guided chunk sizes,
    worker-resident state and possibly tail work stealing — and the resume
    with ``--jobs 2``, a different partitioning again.  Chunk boundaries
    are not part of the journal fingerprint and per-sample seeds are
    order-independent, so the stitched report must equal the sequential
    uninterrupted one bit for bit.
    """
    journal = str(tmp_path)
    victim = subprocess.Popen(
        ARGS + ["--journal", journal, "--jobs", "3"],
        cwd=ROOT,
        env=ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    time.sleep(2.0)
    victim.send_signal(signal.SIGTERM)
    _stdout, stderr = victim.communicate(timeout=120)
    if victim.returncode == 130:
        assert "journal flushed" in stderr
    else:
        # Finished before the signal landed: resume is then a pure replay.
        assert victim.returncode == 0
    assert list(tmp_path.glob("*.jsonl")), "journal file must survive the kill"
    resumed = _run(["--journal", journal, "--resume", "--jobs", "2"])
    assert resumed.returncode == 0, resumed.stderr
    uninterrupted = _run([])
    assert uninterrupted.returncode == 0
    assert _figure_lines(resumed.stdout) == _figure_lines(uninterrupted.stdout)


#: Processes that hold a spawn pool, how many descendants each has once
#: its pool is up, and whether it prints ``ready`` then: the analysis
#: service's one-worker pool after one request (worker + resource
#: tracker), and a ``--jobs 2`` sweep mid-run (two workers + resource
#: tracker).
POOL_HOLDERS = {
    "service-pool": (
        [
            sys.executable,
            "-c",
            "import time\n"
            "from repro.service.pool import AnalysisPool\n"
            "pool = AnalysisPool(workers=1)\n"
            "pool.run({'id': 'probe'})\n"
            "print('ready', flush=True)\n"
            "time.sleep(600)\n",
        ],
        2,
        True,
    ),
    "sweep-jobs2": (ARGS[:-1] + ["400", "--jobs", "2"], 3, False),
}


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
@pytest.mark.parametrize("holder", sorted(POOL_HOLDERS))
def test_pool_processes_exit_with_a_killed_parent(holder):
    args, expected, prints_ready = POOL_HOLDERS[holder]
    victim = subprocess.Popen(
        args, cwd=ROOT, env=ENV, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        if prints_ready:
            assert victim.stdout.readline() == "ready\n"
        deadline = time.monotonic() + 60
        while (
            len(descendants(victim.pid)) < expected
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        orphans = descendants(victim.pid)
    finally:
        victim.kill()
        victim.wait(timeout=30)
        victim.stdout.close()
    assert len(orphans) >= expected, f"pool never came up: {orphans}"
    deadline = time.monotonic() + 5
    while any(map(alive, orphans)) and time.monotonic() < deadline:
        time.sleep(0.1)
    survivors = [pid for pid, _ in filter(alive, orphans)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"{len(survivors)} of {len(orphans)} outlived their parent"
