"""Named, test-only fault injections for self-testing the verifier.

A fuzzer that never fires is indistinguishable from one that cannot fire.
This module gives the test suite (and the CLI's ``--inject`` flag) a way to
deliberately break a bound — e.g. dropping the ``|PCB|`` cold-load term
from Eq. 10 — and assert that the oracle registry catches the unsoundness
and shrinks it to a small reproducer.

Faults are process-global flags on :data:`repro.persistence.demand.FAULTS`
guarded by the :func:`inject_fault` context manager; nothing in the library
sets them outside of it.  The sweep's execution faults (crash, hang and
flaky workers) test the supervisor, not a bound, and live in
:mod:`repro.experiments.faults`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Tuple

from repro.errors import AnalysisError
from repro.persistence.demand import FAULTS

#: Registered fault names -> (FaultHooks attribute, description).
FAULT_REGISTRY = {
    "drop-pcb-term": (
        "drop_pcb_term",
        "drop the |PCB| cold-load term from the Eq. 10 multi-job demand "
        "(unsound tightening: n*MDr instead of min(n*MD, n*MDr + |PCB|))",
    ),
}


def fault_names() -> Tuple[str, ...]:
    """Names accepted by :func:`inject_fault` and the CLI's ``--inject``."""
    return tuple(sorted(FAULT_REGISTRY))


@contextmanager
def inject_fault(name: str) -> Iterator[None]:
    """Enable the named fault for the duration of the ``with`` block.

    Only for tests and the fuzzer's self-check mode; the flag is always
    restored, even if the block raises.
    """
    try:
        attribute, _ = FAULT_REGISTRY[name]
    except KeyError:
        raise AnalysisError(
            f"unknown fault {name!r}; known faults: {', '.join(fault_names())}"
        ) from None
    previous = getattr(FAULTS, attribute)
    setattr(FAULTS, attribute, True)
    try:
        yield
    finally:
        setattr(FAULTS, attribute, previous)
