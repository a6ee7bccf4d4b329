"""One measured run of one benchmark workload, in this (fresh) process.

    python3 perfbench/run.py --workload fig2-cold --seed 1 --seconds 16 --trace 0

Makes the workload's inputs from ``--seed``, measures for about
``--seconds`` seconds, checks the program's outputs and prints, as the
last line of standard output, one JSON object::

    {"correct": true, "attempted": 1200, "failed": 0,
     "metrics": {"throughput_per_s": {"value": 96.8, "unit": "1/s"}, ...}}

``--trace 0`` reports every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` wraps the program's layers and reports every per-layer
metric instead (``--trace-out PATH`` also writes the spans as a Chrome
trace).  The line before it, ``perfbench-info {...}``, carries the verdict
digest, the rep times, the wall-time values before speed normalization
(see ``speed.py``), any correctness errors and the machine facts.
Exits 0 when the outputs are correct, 1 when they are not, 2 when the
program is missing or the command line is invalid; on every path it first
waits until each process the run started, directly or not, has ended.
"""

import argparse
import ctypes
import json
import os
import signal
import sys
import time
from pathlib import Path
from typing import List

_ROOT = Path(__file__).resolve().parent.parent


def _parser(metrics) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=metrics.workload_names()
    )
    parser.add_argument("--seed", type=int, default=metrics.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=metrics.definition()["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="with --trace 1, write the spans as Chrome trace-event JSON",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes and a single set-up (harness self-test)",
    )
    parser.add_argument(
        "--ablate", default=None, choices=metrics.ABLATIONS,
        help="switch one kernel layer off (sweep workloads only)",
    )
    parser.add_argument(
        "--expect-digest", default=None, metavar="HEX",
        help="verdict digest the sweep must produce (default: the committed "
        "one for the default seed)",
    )
    return parser


def _terminate(signum, _frame):
    # Unwind through the finally blocks that stop daemons and pools.
    raise SystemExit(128 + signum)


#: ``prctl`` option that makes orphaned descendants children of the caller.
_PR_SET_CHILD_SUBREAPER = 36

#: Seconds descendants get to exit on their own before they are killed.
_REAP_GRACE_S = 60.0


def _adopt_orphans() -> None:
    """Make descendants whose parent exits children of this process.

    Processes the run starts can start their own: the multiprocessing
    resource tracker of a spawn pool outlives the process that started
    it.  Adopted, they can be waited for by :func:`_reap_descendants`.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    """Pids of this process's live and zombie children."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rpartition(")")[2].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def _reap_descendants() -> None:
    """Stop this process's resource tracker, then wait for every child
    (adopted ones too) to exit; kill those still running after
    :data:`_REAP_GRACE_S`."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + _REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def main(argv=None) -> int:
    _adopt_orphans()
    try:
        return _main(argv)
    finally:
        _reap_descendants()


def _main(argv) -> int:
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]
    from perfbench import metrics

    args = _parser(metrics).parse_args(argv)
    if not metrics.program_present():
        print(
            f"perfbench: error: no program source under {metrics.SRC}",
            file=sys.stderr,
        )
        return 2
    if args.ablate is not None and args.workload == "service-mixed":
        print("perfbench: error: --ablate applies to sweep workloads",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    # This process runs the program too: same environment as its children.
    environment = metrics.child_env()
    os.environ.clear()
    os.environ.update(environment)
    if args.ablate == "state_plane":
        os.environ["REPRO_STATE_PLANE_CAP"] = "0"
    (metrics.WORK / "tmp").mkdir(parents=True, exist_ok=True)
    size = "smoke" if args.smoke else "full"
    # Smoke runs set up once; measured runs take the median of several.
    setup = {"setup_repeats": 1} if args.smoke else {}
    trace = bool(args.trace)
    if args.workload == "service-mixed":
        from perfbench import service_mixed

        result = service_mixed.run(
            args.seed, args.seconds, trace, trace_out=args.trace_out, **setup
        )
    else:
        from perfbench import sweeps

        result = sweeps.run(
            args.workload, args.seed, args.seconds, trace, size=size,
            ablate=args.ablate, trace_out=args.trace_out,
            expect_digest=args.expect_digest, **setup,
        )

    definition = metrics.definition()
    wanted = definition["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"perfbench: error: metrics not measured: {missing}",
              file=sys.stderr)
        return 2
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "ablate": args.ablate,
        "trace": trace,
        "digest": result.get("digest"),
        "reps": result.get("reps"),
        "raw": result.get("raw"),
        "errors": result["errors"],
        "env": metrics.environment(),
    }
    for error in result["errors"]:
        print(f"perfbench: INCORRECT: {error}", file=sys.stderr)
    print("perfbench-info " + json.dumps(info))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
