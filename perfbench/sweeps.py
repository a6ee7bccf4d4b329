"""The four sweep workloads: fig2-cold, fig2-replay, fig2-jobs2, ablation-64set.

One *rep* is one whole sweep, the unit of work every sweep metric is
defined over.  A run repeats reps for ``seconds`` and reports medians.
The ``fig2-*`` workloads run the same sweep — 10 utilisation points
(0.1..1.0) x 7 variants — in three regimes, so they must produce the same
ratio-series digest for one seed.

Correctness is checked on every run: all reps of a run agree on the
digest (a replay must reproduce its cold priming sweep), the digest equals
the committed one for the default seed, the curves keep their dominance
shape, and the first samples of every point are re-evaluated with every
kernel layer switched off and must give the same verdicts.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple
from unittest import mock

from perfbench.metrics import (
    DEFAULT_SEED,
    LAYER_MAP,
    REFERENCE_OFF,
    ROOT,
    SWEEP_SELF_LAYERS,
    peak_rss_mb,
)
from perfbench.speed import SpeedMeter, pin_to_one_cpu
from perfbench.tracing import Tracer, install_sweep_layers

#: Verdict digests of the default seed: ``(sweep, size) -> digest``.
#: The three fig2 regimes share one entry.  Regenerate by running a
#: workload with ``--seed 2020`` and copying its ``digest`` line.
DIGESTS = {
    ("fig2", "full"): "1bcd0521a512413f",
    ("fig2", "smoke"): "3a26891125894eae",
    ("ablation-64set", "full"): "fc98492bf7b4dab0",
    ("ablation-64set", "smoke"): "aee778050a275aac",
}

#: Samples per utilisation point: ``(sweep, size) -> samples``.
SAMPLES = {
    ("fig2", "full"): 40,
    ("fig2", "smoke"): 2,
    ("ablation-64set", "full"): 12,
    ("ablation-64set", "smoke"): 2,
}

#: Samples per point re-evaluated with the reference kernel.
REFERENCE_SAMPLES = {"full": 2, "smoke": 1}

#: Seed of the untimed one-sample warm-up sweep in :func:`prepare`.  It is
#: fixed, not derived from the run's seed, so every run's set-up does the
#: same work: the time of one sample varies by tens of percent between
#: task sets.
WARMUP_SEED = 1

#: Set-up probe: a fresh interpreter doing a run's set-up (see
#: :func:`prepare`) for the workload, seed, size and ablation in argv.
_PROBE = (
    "import sys\n"
    "from contextlib import ExitStack\n"
    "from perfbench.sweeps import prepare\n"
    "name, seed, size, ablate = sys.argv[1:]\n"
    "with ExitStack() as stack:\n"
    "    prepare(stack, name, int(seed), size, ablate or None)\n"
    "print('ready', flush=True)\n"
)


@dataclass(frozen=True)
class Sweep:
    """What one sweep workload runs."""

    name: str
    jobs: int = 1
    #: Prime once, then time repeats in the same process (no plane reset).
    replay: bool = False
    #: The 64-set multiset ablation curve instead of Fig. 2.
    ablation: bool = False

    @property
    def family(self) -> str:
        return "ablation-64set" if self.ablation else "fig2"


SWEEPS = {
    "fig2-cold": Sweep("fig2-cold"),
    "fig2-replay": Sweep("fig2-replay", replay=True),
    "fig2-jobs2": Sweep("fig2-jobs2", jobs=2),
    "ablation-64set": Sweep("ablation-64set", ablation=True),
}


def ratio_digest(ratios: Dict[str, List[float]]) -> str:
    """Short stable digest of a ratio series."""
    text = json.dumps(ratios, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def measure_setup(
    repeats: int, name: str, seed: int, size: str, ablate: Optional[str]
) -> List[Tuple[float, float]]:
    """``time.monotonic()`` intervals from spawning a fresh interpreter
    until its set-up is done.

    Each probe runs :func:`prepare` for the same workload as the run, in
    this process's environment.
    """
    intervals = []
    for _ in range(repeats):
        start = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, "-c", _PROBE, name, str(seed), size, ablate or ""],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready, _, _ = select.select([process.stdout], [], [], 120)
            line = process.stdout.readline() if ready else ""
            end = time.monotonic()
        finally:
            process.stdout.close()
            process.wait(timeout=60)
        if line.strip() != "ready" or process.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {process.returncode})")
        intervals.append((start, end))
    return intervals


def _config(sweep: Sweep, seed: int, size: str):
    """``(platform, variants, settings)`` of one sweep workload."""
    from repro.analysis.config import AnalysisConfig
    from repro.crpd.approaches import CrpdApproach
    from repro.experiments.config import (
        SweepSettings,
        Variant,
        default_platform,
        standard_variants,
    )
    from repro.model.platform import BusPolicy, CacheGeometry
    from repro.persistence.cpro import CproApproach

    samples = SAMPLES[(sweep.family, size)]
    if not sweep.ablation:
        settings = SweepSettings(
            samples=samples, seed=seed, jobs=sweep.jobs,
            utilizations=tuple(round(0.1 * k, 1) for k in range(1, 11)),
        )
        return default_platform(), standard_variants(True), settings
    aware = AnalysisConfig(persistence=True)
    both = replace(
        aware,
        crpd_approach=CrpdApproach.ECB_UNION_MULTISET,
        cpro_approach=CproApproach.MULTISET,
    )
    variants = (
        Variant("FP-P", BusPolicy.FP, aware),
        Variant("FP-P+mCRPD", BusPolicy.FP,
                replace(aware, crpd_approach=CrpdApproach.ECB_UNION_MULTISET)),
        Variant("FP-P+mCPRO", BusPolicy.FP,
                replace(aware, cpro_approach=CproApproach.MULTISET)),
        Variant("RR-P+both", BusPolicy.RR, both),
    )
    platform = replace(
        default_platform(), cache=CacheGeometry(num_sets=64, block_size=32)
    )
    settings = SweepSettings(
        samples=samples, seed=seed, jobs=sweep.jobs,
        utilizations=tuple(round(0.1 * k, 1) for k in range(1, 10)),
    )
    return platform, variants, settings


def _ablated(variants, layer: Optional[str]):
    if layer is None or layer == "state_plane":
        return variants
    return tuple(
        replace(v, analysis=replace(v.analysis, **{layer: False}))
        for v in variants
    )


def _shape_errors(sweep: Sweep, ratios: Dict[str, List[float]], points: int):
    """Cheap invariants every ratio series must satisfy.

    The dominance pairs are those the program's own dominance rule
    (``runner._dominates``) asserts.  It asserts none between CRPD or
    CPRO approaches, so the ablation curves get none: with seed 606,
    FP-P+mCRPD misses a task set FP-P schedules.
    """
    errors = []
    for label, series in ratios.items():
        if len(series) != points or not all(0.0 <= r <= 1.0 for r in series):
            errors.append(f"{label}: not a ratio series over {points} points")
    pairs = []
    if not sweep.ablation:
        pairs = [("FP-P", "FP"), ("RR-P", "RR"), ("TDMA-P", "TDMA")]
        pairs += [("Perfect", label) for label in ratios if label != "Perfect"]
    for tight, loose in pairs:
        if any(a < b for a, b in zip(ratios[tight], ratios[loose])):
            errors.append(f"{tight} schedules fewer task sets than {loose}")
    return errors


def _reference_errors(platform, variants, settings, outcomes, samples):
    """Compare the first ``samples`` of each point with the reference kernel."""
    from repro.experiments import runner
    from repro.experiments.stateplane import reset_resident_plane

    reference = tuple(
        replace(v, analysis=replace(v.analysis, **REFERENCE_OFF))
        for v in variants
    )
    ref_settings = replace(settings, samples=samples, jobs=1)
    reset_resident_plane()
    errors = []
    for index, utilization in enumerate(settings.utilizations):
        expected = runner.run_point(
            platform, utilization, reference, ref_settings, index
        )
        got = outcomes[utilization][:samples]
        if [o.verdicts for o in got] != [o.verdicts for o in expected]:
            errors.append(
                f"point {utilization}: verdicts differ from the reference kernel"
            )
    return errors


@dataclass
class Prepared:
    """A sweep workload ready for its first timed rep."""

    sweep: Sweep
    platform: object
    variants: tuple
    settings: object
    #: Runs one whole sweep (``settings`` unless given) and returns its ratios.
    sweep_once: Callable[..., Dict[str, List[float]]]
    #: ``"outcomes"``: the per-sample outcomes of the latest sweep.
    captured: Dict


def prepare(
    stack: ExitStack, name: str, seed: int, size: str, ablate: Optional[str]
) -> Prepared:
    """A run's set-up: everything it does before its first timed rep.

    Builds the workload's inputs, then runs an untimed one-sample sweep of
    fixed inputs with the workload's ``jobs``, so the process's one-time
    lazy set-up (for fig2-jobs2 that includes spawning a first pool)
    lands in no timed rep.  The patches it needs stay until ``stack``
    closes.
    """
    from repro.experiments import fig2, runner

    sweep = SWEEPS[name]
    platform, variants, settings = _config(sweep, seed, size)
    variants = _ablated(variants, ablate)
    captured: Dict = {}
    if not sweep.ablation:
        # run_fig2 builds its own variant list and aggregates internally:
        # hand it the (possibly ablated) variants and keep the per-sample
        # outcomes it aggregates for the reference comparison.
        aggregate = fig2.schedulability_ratios

        def capture(outcomes, ratio_variants):
            captured["outcomes"] = outcomes
            return aggregate(outcomes, ratio_variants)

        stack.enter_context(mock.patch.object(
            fig2, "standard_variants", lambda include_perfect=True: variants
        ))
        stack.enter_context(mock.patch.object(fig2, "schedulability_ratios", capture))

    def sweep_once(sweep_settings=settings) -> Dict[str, List[float]]:
        if sweep.ablation:
            outcomes = runner.run_curve(platform, variants, sweep_settings)
            captured["outcomes"] = outcomes
            return runner.schedulability_ratios(outcomes, variants)
        return fig2.run_fig2(sweep_settings, platform).ratios

    sweep_once(replace(settings, samples=1, seed=WARMUP_SEED))
    return Prepared(sweep, platform, variants, settings, sweep_once, captured)


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    ablate: Optional[str] = None,
    trace_out: Optional[str] = None,
    expect_digest: Optional[str] = None,
    setup_repeats: int = 5,
) -> Dict:
    """One run of a sweep workload; returns the run's result record.

    A measured run (``trace`` false) runs under a :class:`SpeedMeter`:
    single-process sweeps pinned to one CPU with a sampler beside them,
    fig2-jobs2 with a sampler on every CPU its pool may use.
    """
    from repro.experiments.stateplane import reset_resident_plane
    from repro.perf import global_counters, reset_global_counters

    sweep = SWEEPS[name]
    reps: List[Dict] = []
    tracer: Optional[Tracer] = None
    meter: Optional[SpeedMeter] = None
    with ExitStack() as stack:
        setup: List[Tuple[float, float]] = []
        if not trace:
            cpus = (
                pin_to_one_cpu() if sweep.jobs == 1
                else sorted(os.sched_getaffinity(0))
            )
            meter = stack.enter_context(SpeedMeter(cpus))
            setup = measure_setup(setup_repeats, name, seed, size, ablate)
        prepared = prepare(stack, name, seed, size, ablate)
        sweep_once = prepared.sweep_once

        def rep() -> None:
            if not sweep.replay:
                reset_resident_plane()
            reset_global_counters()
            gc.collect()
            start = time.monotonic()
            if tracer is None:
                ratios = sweep_once()
            else:
                with tracer.region("sweep"):
                    ratios = sweep_once()
            end = time.monotonic()
            reps.append({
                "start": start,
                "end": end,
                "seconds": end - start,
                "traced": tracer is not None,
                "digest": ratio_digest(ratios),
                "ratios": ratios,
                "failures": len(prepared.captured["outcomes"].failures),
                "counters": _counter_snapshot(global_counters()),
            })

        def loop(budget: float) -> None:
            done: List[float] = []
            start = time.perf_counter()
            while not done or (
                time.perf_counter() - start + statistics.median(done) <= budget
            ):
                rep()
                done.append(reps[-1]["seconds"])

        prime_digest = None
        if sweep.replay:
            reset_resident_plane()
            prime_digest = ratio_digest(sweep_once())
        loop(seconds / 2 if trace else seconds)
        if trace:
            tracer = Tracer()
            install_sweep_layers(tracer, stack)
            loop(seconds / 2)

    # -- correctness --------------------------------------------------------
    settings = prepared.settings
    errors = []
    digests = {r["digest"] for r in reps}
    if prime_digest is not None:
        digests.add(prime_digest)
    if len(digests) != 1:
        errors.append(f"reps disagree on the verdict digest: {sorted(digests)}")
    digest = reps[0]["digest"]
    expected = expect_digest
    if expected is None and seed == DEFAULT_SEED:
        expected = DIGESTS[(sweep.family, size)]
    if expected is not None and digest != expected:
        errors.append(f"digest {digest} != expected {expected}")
    errors += _shape_errors(sweep, reps[0]["ratios"], len(settings.utilizations))
    failed_samples = sum(r["failures"] for r in reps)
    if failed_samples:
        errors.append(f"{failed_samples} samples were quarantined")
    errors += _reference_errors(
        prepared.platform, prepared.variants, settings,
        prepared.captured["outcomes"], REFERENCE_SAMPLES[size],
    )

    items = settings.samples * len(settings.utilizations)
    untraced = [r["seconds"] for r in reps if not r["traced"]]
    attempted = items * len(reps)
    result = {
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": attempted if errors else failed_samples,
        "digest": digest,
        "reps": [round(r["seconds"], 6) for r in reps],
    }
    if not trace:
        result["raw"] = {
            "setup_s": statistics.median(end - start for start, end in setup),
            "throughput_per_s": items / statistics.median(untraced),
        }
        result["metrics"] = {
            "setup_s": statistics.median(meter.normalized(*span) for span in setup),
            "throughput_per_s": items / statistics.median(
                meter.normalized(r["start"], r["end"]) for r in reps
            ),
            "peak_rss_mb": peak_rss_mb(),
        }
        return result
    traced = [r for r in reps if r["traced"]]
    result["metrics"] = _sweep_layers(sweep, tracer, traced, untraced)
    if trace_out:
        tracer.write_chrome(trace_out, {
            "workload": name, "seed": seed, "size": size, "ablate": ablate,
            "metrics": result["metrics"],
        })
    return result


_COUNTERS = {
    "model.batch_analyses": "batch_analyses",
    "model.array_kernel_batches": "array_kernel_batches",
    "analysis.analyses": "analyses",
    "analysis.outer_iterations": "outer_iterations",
    "analysis.inner_iterations": "inner_iterations",
    "analysis.dominance_skips": "dominance_skips",
    "lockstep.batches": "lockstep_batches",
    "lockstep.lane_retirements": "lane_retirements",
    "memo.hits": "memo_hits",
    "memo.misses": "memo_misses",
    "warmstart.accepted": "warm_starts",
    "warmstart.adjacent_accepted": "adjacent_warm_starts",
    "stateplane.hits": "resident_table_hits",
    "stateplane.misses": "resident_table_misses",
    "supervisor.chunks_stolen": "chunks_stolen",
}


def _counter_snapshot(counters) -> Dict[str, float]:
    snapshot = {name: getattr(counters, attr) for name, attr in _COUNTERS.items()}
    snapshot["worker.analysis_s"] = counters.phase_seconds.get("analysis", 0.0)
    return snapshot


def _sweep_layers(sweep, tracer, traced, untraced) -> Dict[str, float]:
    """Per-layer metrics of the traced reps, as means per sweep."""
    n = len(traced)
    totals = tracer.totals()
    metrics = {name: 0.0 for name in LAYER_MAP}

    def layer(key, field):
        return totals.get(key, {}).get(field, 0.0) / n

    for key in ("generation", "compile", "analysis", "bat"):
        metrics[f"{key}.calls"] = layer(key, "calls")
        metrics[f"{key}.self_s"] = layer(key, "self_s")
    metrics["aggregate.self_s"] = layer("aggregate", "self_s")
    metrics["supervisor.run_s"] = layer("supervisor", "total_s")
    for name in list(_COUNTERS) + ["worker.analysis_s"]:
        metrics[name] = sum(r["counters"][name] for r in traced) / n
    if sweep.jobs > 1:
        metrics["supervisor.worker_peak_rss_mb"] = peak_rss_mb(
            resource.RUSAGE_CHILDREN
        )
    unit = sum(r["seconds"] for r in traced) / n
    metrics["trace.unit_s"] = unit
    metrics["runner.other_s"] = unit - sum(
        layer(key, "self_s") for key in SWEEP_SELF_LAYERS
    )
    metrics["trace.overhead_s"] = (
        statistics.median(r["seconds"] for r in traced)
        - statistics.median(untraced)
    )
    return metrics
