"""End-to-end sweep benchmark: the full Fig. 2 pipeline, wall to wall.

One measured round is one complete Fig. 2-scale campaign — task-set
generation for every (point, sample) item, interference-table compilation
per chunk of task sets, the dominance-ordered variant evaluation of
every sample, and the final ratio aggregation.  This is
the regime the compiled tables and the fused evaluator were built for, so
its median is gated by the bench-smoke job (``benchmarks/thresholds.json``,
see ``scripts/bench_smoke.py``): a regression here means the compounding
of the kernel layers broke, even if every micro benchmark still looks
fine.

The three variants deliberately gate the three production regimes:

* ``test_bench_e2e_fig2_sweep`` (sequential) measures the
  *resident-replay* regime.  The process-global
  :class:`~repro.experiments.stateplane.StatePlane` survives between
  rounds, so round one pays the full cold pipeline while later rounds
  replay resident task sets through the (re-verified, bit-identical)
  warm-start path — exactly what a resident sweep worker sees on repeat
  analyses.  The median
  of three rounds therefore sits on the warm side; a regression here
  means the residency or warm-replay layers broke.
* ``test_bench_e2e_fig2_sweep_jobs2`` measures the *cold parallel*
  regime: each round spawns a fresh two-worker pool, so the workers'
  state planes start empty every round and the full generation + compile
  + cold-analysis pipeline is paid each time (warmth only accrues within
  a round, across the chunks each worker serves).
* ``test_bench_e2e_fig2_sweep_cold`` measures the *cold sequential*
  regime: the same single-process campaign with the state plane reset
  before every round, so each round pays generation, table compilation
  and the cold fixed points — the pipeline a fresh process runs.
"""

from dataclasses import replace

from conftest import attach_series

from repro.experiments.fig2 import run_fig2
from repro.experiments.stateplane import reset_resident_plane


def _check_curves(result, settings):
    # Sanity only — the full shape assertions live in test_bench_fig2.py.
    # Every curve is a valid ratio series over the ten utilisation points,
    # persistence-aware FP dominates its baseline, and the perfect bus
    # dominates everything.
    for label, series in result.ratios.items():
        assert len(series) == len(settings.utilizations), label
        assert all(0.0 <= value <= 1.0 for value in series), label
    assert all(
        a >= b for a, b in zip(result.ratios["FP-P"], result.ratios["FP"])
    )
    perfect = result.ratios["Perfect"]
    for label, series in result.ratios.items():
        assert all(p >= v for p, v in zip(perfect, series)), label


def test_bench_e2e_fig2_sweep(benchmark, fig2_settings):
    result = benchmark.pedantic(
        run_fig2, args=(fig2_settings,), rounds=3, iterations=1
    )
    attach_series(benchmark, result)
    _check_curves(result, fig2_settings)


def test_bench_e2e_fig2_sweep_jobs2(benchmark, fig2_settings):
    """The same campaign through the two-worker resident supervisor.

    Gated at the same 3x factor as the sequential run: a regression here
    with the sequential bench healthy points at the parallel plane itself
    (pool spawn cost, chunk sizing, the resident LRU, work stealing).
    """
    settings = replace(fig2_settings, jobs=2)
    result = benchmark.pedantic(
        run_fig2, args=(settings,), rounds=3, iterations=1
    )
    attach_series(benchmark, result)
    _check_curves(result, settings)


def test_bench_e2e_fig2_sweep_cold(benchmark, fig2_settings):
    """The sequential campaign with nothing resident between rounds.

    ``reset_resident_plane()`` before every round drops the resident task
    sets with their compiled tables and warm-start seeds, so no round can
    replay a previous one.  A regression here with the replay bench
    healthy points at generation, table compilation or the cold fixed
    point.
    """
    result = benchmark.pedantic(
        run_fig2,
        args=(fig2_settings,),
        setup=reset_resident_plane,
        rounds=3,
        iterations=1,
    )
    attach_series(benchmark, result)
    _check_curves(result, fig2_settings)
