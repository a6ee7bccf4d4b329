"""Command-line entry point: ``python -m repro.service``.

Starts the batch-analysis daemon (see :mod:`repro.service` and
``docs/SERVICE.md``)::

    python -m repro.service --port 8421 --workers 2 --default-budget 10

The options are deployment and resource settings only.  The admission
policy derives its thresholds from ``--max-in-flight`` (brownout at the
last slot, batch-priority shed at half of them) and keeps the rest
constant: a 25 ms deadline safety margin, a 50 ms budget floor, a 1 s
``Retry-After`` base, and a circuit breaker that trips after 3
consecutive pool failures and probes once after a 5 s cool-down (see
``docs/SERVICE.md``).

Exit codes follow :mod:`repro.exitcodes`: 0 after a clean drain, 2 for an
invalid command line.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import AnalysisError
from repro.exitcodes import EXIT_USAGE
from repro.service.daemon import ServiceConfig, serve


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Long-running batch analysis daemon for the cache "
        "persistence-aware bus contention analysis.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8421,
        help="TCP port (0 = let the OS pick; the chosen port is printed)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="analysis worker processes"
    )
    parser.add_argument(
        "--max-in-flight",
        type=int,
        default=4,
        help="admission bound; further requests get 429 + Retry-After "
        "(batch-priority requests at half of it; degradable requests "
        "brown out at the last slot)",
    )
    parser.add_argument(
        "--default-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline applied when a request carries none "
        "(default: unlimited)",
    )
    parser.add_argument(
        "--default-watchdog",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog allowance for requests without any budget "
        "(default: wait forever)",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long a SIGTERM drain waits for in-flight requests",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="root of the persistent content-addressed result cache "
        "(default: no durable caching)",
    )
    parser.add_argument(
        "--cache-max-entries",
        type=int,
        default=4096,
        help="LRU entry cap of the result cache",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="byte budget of the result cache (default: unbounded)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_in_flight=args.max_in_flight,
            default_budget=args.default_budget,
            default_watchdog=args.default_watchdog,
            drain_grace_seconds=args.drain_grace,
            cache_dir=args.cache_dir,
            cache_max_entries=args.cache_max_entries,
            cache_max_bytes=args.cache_max_bytes,
        )
    except AnalysisError as error:
        print(f"repro-service: error: {error}", file=sys.stderr)
        return EXIT_USAGE
    return serve(config)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
