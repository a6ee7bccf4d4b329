"""Workload and metric definitions shared by ``run.py`` and ``bench.py``.

Metric names, units, directions and regression bounds live in the
repository's ``BENCHMARK.json``; this module adds what that file has no
room for: the layer -> end-to-end mapping, statistics helpers and the
facts recorded about the machine.

Every end-to-end metric is reported by every workload, so each one is
defined over the workload's *unit of work*: one task set analysed under
every variant for the four sweep workloads, one ``POST /analyze`` request
for ``service-mixed``.  Per-layer metrics come only from traced runs; a
layer a workload does not exercise reads 0 there.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: Source tree of the program under test.
SRC = ROOT / "src"

#: Working space for service caches and temp files of a run.  Everything
#: the benchmark writes stays inside the checkout.
WORK = ROOT / ".perfbench"

#: Seed used when none is given; the committed verdict digests are for it.
DEFAULT_SEED = 2020

FIG2_REGIMES = ("fig2-cold", "fig2-replay", "fig2-jobs2")

#: Per-layer metric -> (end-to-end metric it should move, on which
#: workloads).  ``bench.py`` checks these names against ``BENCHMARK.json``.
LAYER_MAP: Dict[str, tuple] = {
    "generation.calls": ("throughput_per_s", "fig2-cold, ablation-64set; 0 on fig2-replay"),
    "generation.self_s": ("throughput_per_s", "fig2-cold, ablation-64set"),
    "compile.calls": ("throughput_per_s", "fig2-cold"),
    "compile.self_s": ("throughput_per_s", "fig2-cold"),
    "model.batch_analyses": ("throughput_per_s", "fig2-cold"),
    "model.array_kernel_batches": ("throughput_per_s", "ablation-64set only (numpy popcounts)"),
    "analysis.calls": ("throughput_per_s", "every sweep"),
    "analysis.self_s": ("throughput_per_s", "every sweep; service-mixed via misses"),
    "analysis.analyses": ("throughput_per_s", "every sweep"),
    "analysis.outer_iterations": ("throughput_per_s", "every sweep"),
    "analysis.inner_iterations": ("throughput_per_s", "every sweep"),
    "analysis.dominance_skips": ("throughput_per_s", "every sweep"),
    "lockstep.batches": ("throughput_per_s", "fig2-cold"),
    "lockstep.lane_retirements": ("throughput_per_s", "fig2-cold"),
    "bat.calls": ("throughput_per_s", "fig2-cold, fig2-replay, ablation-64set"),
    "bat.self_s": ("throughput_per_s", "fig2-cold, fig2-replay, ablation-64set"),
    "memo.hits": ("throughput_per_s", "ablation-64set"),
    "memo.misses": ("throughput_per_s", "ablation-64set"),
    "warmstart.accepted": ("throughput_per_s", "fig2-replay"),
    "warmstart.adjacent_accepted": ("throughput_per_s", "fig2-cold, fig2-replay"),
    "stateplane.hits": ("throughput_per_s, peak_rss_mb", "fig2-replay"),
    "stateplane.misses": ("throughput_per_s", "fig2-cold"),
    "aggregate.self_s": ("throughput_per_s", "every sweep (expected about 0)"),
    "supervisor.run_s": ("throughput_per_s", "fig2-jobs2"),
    "supervisor.chunks_stolen": ("throughput_per_s", "fig2-jobs2"),
    "supervisor.worker_peak_rss_mb": ("none: workers are outside peak_rss_mb", "fig2-jobs2"),
    "worker.analysis_s": ("throughput_per_s", "every sweep (merged phase_seconds['analysis'])"),
    "service.parse_s": ("throughput_per_s", "service-mixed"),
    "service.fingerprint_s": ("throughput_per_s", "service-mixed"),
    "service.cache_get_s": ("throughput_per_s", "service-mixed"),
    "service.cache_put_s": ("throughput_per_s", "service-mixed"),
    "service.seed_put_s": ("throughput_per_s", "service-mixed"),
    "service.pool_s": ("throughput_per_s", "service-mixed"),
    "service.handle_s": ("throughput_per_s", "service-mixed"),
    "service.http_s": ("throughput_per_s", "service-mixed"),
    "service.hit_p50_ms": ("throughput_per_s", "service-mixed"),
    "service.miss_p50_ms": ("throughput_per_s", "service-mixed"),
    "service.latency_p50_ms": ("throughput_per_s", "service-mixed (between the hit and miss modes)"),
    "service.latency_p90_ms": ("throughput_per_s", "service-mixed (the miss mode)"),
    "service.latency_p99_ms": ("throughput_per_s", "service-mixed"),
    "service.latency_p99_beyond": ("none: samples above the p99", "service-mixed"),
    "service.cache_hits": ("throughput_per_s", "service-mixed"),
    "service.cache_misses": ("throughput_per_s", "service-mixed"),
    "service.coalesced": ("throughput_per_s", "service-mixed"),
    "runner.other_s": ("throughput_per_s", "every workload (unattributed time)"),
    "trace.unit_s": ("throughput_per_s", "every workload"),
    "trace.overhead_s": ("none: the cost of tracing", "every workload"),
}

#: Layers whose self times, plus ``runner.other_s``, make up a traced
#: unit of work.
SWEEP_SELF_LAYERS = ("generation", "compile", "analysis", "bat", "aggregate")
SERVICE_SELF_LAYERS = (
    "service.parse", "service.fingerprint", "service.cache_get",
    "service.cache_put", "service.seed_put", "service.pool", "service.handle",
)

#: ``run.py --ablate`` switches; all but ``state_plane`` are
#: ``AnalysisConfig`` fields turned off on every variant.
ABLATIONS = (
    "memoization", "bitset_kernel", "array_kernel", "lockstep_kernel",
    "warm_start", "state_plane",
)

#: ``AnalysisConfig`` fields that switch every kernel layer off: the
#: reference the sweep and service outputs are checked against.
REFERENCE_OFF = dict(
    memoization=False,
    bitset_kernel=False,
    array_kernel=False,
    lockstep_kernel=False,
    warm_start=False,
)


def definition() -> Dict:
    """The parsed ``BENCHMARK.json`` (metric names, units, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> List[str]:
    """Workload names, in ``BENCHMARK.json`` order."""
    return [workload["name"] for workload in definition()["workloads"]]


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (as ``statistics.quantiles(n=4)``) and count."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set, in MiB, of this process (``RUSAGE_SELF``) or of
    the largest of its reaped children (``RUSAGE_CHILDREN``: Linux folds
    each reaped child's largest descendant into its parent's figure)."""
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def tree_peak_rss_mb(pid: int) -> float:
    """Largest peak resident set (``VmHWM``), in MiB, of the live process
    ``pid`` and its live descendants."""
    peak, pending = 0, [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as children:
                    pending += [int(child) for child in children.read().split()]
        except OSError:  # the process exited meanwhile
            continue
    return peak / 1024.0  # KiB


def program_present() -> bool:
    """``True`` when the checkout holds the program's source tree."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """Environment for processes running the program.

    Every ``REPRO_*`` variable is dropped: ``REPRO_SAMPLES``,
    ``REPRO_JOBS``, ``REPRO_STATE_PLANE_CAP`` and ``REPRO_RESULT_CACHE_DIR``
    each silently change a workload.  Temp files go under :data:`WORK`.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def environment() -> Dict:
    """Machine and source facts recorded with every result."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    status = _git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
    }
