"""Tests of the spawn worker substrate shared by sweeps and the service.

The executor is replaced by an in-memory fake, so the generation counter
of :class:`repro.workers.SpawnPool` is checked without starting a single
process.  The real spawn pools are exercised by ``tests/test_supervisor.py``
and the orphan checks of ``tests/test_resilience_e2e.py``.
"""

import os
import pathlib
import subprocess
import sys
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.workers as workers
from repro.workers import SpawnPool

ROOT = pathlib.Path(__file__).resolve().parent.parent


class FakeExecutor:
    """Records constructions and shutdowns; never starts a process."""

    created = []

    def __init__(self, **kwargs):
        self.kwargs = kwargs
        self.shutdowns = []
        self.broken = False
        FakeExecutor.created.append(self)

    def submit(self, fn, *args):
        if self.broken:
            raise BrokenProcessPool("a worker died while idle")
        return (fn, args)

    def shutdown(self, wait, cancel_futures):
        self.shutdowns.append((wait, cancel_futures))


@pytest.fixture
def fake_executor(monkeypatch):
    FakeExecutor.created = []
    monkeypatch.setattr(workers, "ProcessPoolExecutor", FakeExecutor)
    return FakeExecutor


class TestSpawnPool:
    @pytest.mark.parametrize("kill", [True, False])
    def test_concurrent_respawns_of_one_generation_replace_it_once(
        self, fake_executor, kill
    ):
        pool = SpawnPool(2)
        first = fake_executor.created[0]
        threads = 16
        barrier = threading.Barrier(threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def respawn():
                barrier.wait(timeout=10)
                pool.respawn(0, kill=kill)

            racers = [threading.Thread(target=respawn) for _ in range(threads)]
            for racer in racers:
                racer.start()
            for racer in racers:
                racer.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(racer.is_alive() for racer in racers)
        assert pool.generation == 1
        assert len(fake_executor.created) == 2
        assert first.shutdowns == [(kill, True)]
        assert pool.submit(len, ()) == (1, (len, ((),)))

    def test_stale_generation_is_a_no_op(self, fake_executor):
        pool = SpawnPool(1)
        pool.respawn(0, kill=False)
        pool.respawn(0, kill=True)
        assert pool.generation == 1
        assert len(fake_executor.created) == 2
        assert fake_executor.created[1].shutdowns == []

    def test_broken_at_submission_respawns_without_a_kill(self, fake_executor):
        pool = SpawnPool(1)
        broken = fake_executor.created[0]
        broken.broken = True
        with pytest.raises(BrokenProcessPool):
            pool.submit(len, ())
        assert pool.generation == 1
        assert broken.shutdowns == [(False, True)]
        assert pool.submit(len, ())[0] == 1

    def test_close_kills_the_current_executor(self, fake_executor):
        pool = SpawnPool(1)
        pool.respawn(0, kill=False)
        pool.close()
        assert fake_executor.created[1].shutdowns == [(True, True)]


@pytest.mark.parametrize(
    "imports, foreign",
    [
        pytest.param(
            "repro.service, repro.service.daemon, repro.service.pool, "
            "repro.service.__main__",
            ("repro.experiments", "repro.verify", "urllib.request"),
            id="service",
        ),
        pytest.param(
            "repro.experiments, repro.experiments.cli",
            ("repro.service", "repro.resultcache", "repro.verify"),
            id="sweep",
        ),
    ],
)
def test_service_and_sweep_load_nothing_of_each_other(imports, foreign):
    # Daemon and pool workers import only what serving needs: the spawn
    # substrate lives in repro.workers, not in repro.experiments, and the
    # one daemon is a server, never an HTTP client.  A sweep
    # and its spawn workers load no result cache, daemon or fuzzer: the
    # journal is the sweep's one replay, and its fault injectors live in
    # repro.experiments.faults.
    code = (
        "import sys\n"
        f"import {imports}\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        f"{foreign!r})))\n"
    )
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
