"""A name kept for the benchmark harness, nothing else.

``perfbench/tracing.py`` wraps ``make_bat`` in this module as well as in
:mod:`repro.analysis.wcrt`; it is the only user of this module.  Sweeps
evaluate each sample through
:func:`repro.experiments.runner.evaluate_sample`.
"""

from repro.businterference.arbiters import make_bat  # noqa: F401
