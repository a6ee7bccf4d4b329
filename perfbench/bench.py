"""Benchmark report: repeated runs of every workload, medians and quartiles.

    python3 perfbench/bench.py [--workload NAME ...] [--runs N] [--seed S]
        [--seconds T] [--trace DIR] [--json OUT] [--compare OLD.json]
        [--smoke] [--ablate]

Each run is a fresh ``perfbench/run.py`` process; run ``r`` of every
workload uses seed ``S + r``, so the three fig2 regimes of one seed must
agree on their verdict digest.  For every workload it prints each
end-to-end metric with its unit as median, q1, q3 and run count, plus the
spread (q3 - q1) / median next to the metric's regression bound from
``BENCHMARK.json``.

``--trace DIR`` adds one traced run per workload, writes its spans to
``DIR/<workload>.json`` (Chrome trace-event format) and prints the
per-layer metrics.  ``--compare OLD.json`` flags every median worse than
an earlier ``--json`` report's by more than the metric's bound.
``--ablate`` instead runs fig2-cold, fig2-replay and ablation-64set with
each kernel layer switched off in turn and prints each layer's median
throughput next to the unablated one, with a verdict that stays
``unresolved`` unless the paired rounds clear the run-to-run spread.
``--smoke`` uses tiny sizes (a self-test of the harness, not a
measurement).  Exits 1 when any run fails, any output is wrong or the
regimes disagree, 0 otherwise.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.metrics import (  # noqa: E402
    ABLATIONS,
    DEFAULT_SEED,
    FIG2_REGIMES,
    LAYER_MAP,
    ROOT,
    child_env,
    definition,
    summary,
    workload_names,
)

ABLATED_WORKLOADS = ("fig2-cold", "fig2-replay", "ablation-64set")
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload, seed, seconds, smoke, trace_out=None, ablate=None,
             expect_digest=None):
    """One ``run.py`` child; returns ``(result, info, problem or None)``."""
    command = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace_out else "0",
    ]
    if trace_out:
        command += ["--trace-out", str(trace_out)]
    if smoke:
        command.append("--smoke")
    if ablate:
        command += ["--ablate", ablate]
    if expect_digest:
        command += ["--expect-digest", expect_digest]
    completed = subprocess.run(
        command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    info = next(
        (json.loads(line.split(" ", 1)[1]) for line in lines
         if line.startswith("perfbench-info ")),
        {},
    )
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    problem = None
    if completed.returncode != 0 or result is None or not result["correct"]:
        problem = (
            f"{workload} seed {seed}: exit {completed.returncode}: "
            + (completed.stderr.strip()[-1500:] or "no result")
        )
    return result, info, problem


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure(args, bounds):
    """The repeated-runs report; returns ``(report, problems)``."""
    report = {"seed": args.seed, "runs": args.runs, "seconds": args.seconds,
              "size": "smoke" if args.smoke else "full", "workloads": {}}
    problems = []
    digests = {}
    for workload in args.workload:
        values, raw, seen, walls = {}, {}, [], []
        attempted = failed = 0
        for r in range(args.runs):
            seed = args.seed + r
            began = time.monotonic()
            result, info, problem = run_once(
                workload, seed, args.seconds, args.smoke,
                expect_digest=args.expect_digest,
            )
            walls.append(time.monotonic() - began)
            if problem:
                problems.append(problem)
            if result is None:
                continue
            report.setdefault("env", info.get("env"))
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in (info.get("raw") or {}).items():
                raw.setdefault(name, []).append(value)
            if info.get("digest"):
                seen.append(info["digest"])
                digests.setdefault(seed, {})[workload] = info["digest"]
        entry = {"attempted": attempted, "failed": failed, "digests": seen,
                 "metrics": {}, "values": values, "raw": {}, "run_wall_s": walls}
        print(f"\n{workload}  ({args.runs} runs, seeds {args.seed}.."
              f"{args.seed + args.runs - 1}, {failed}/{attempted} failed, "
              f"longest run {max(walls):.1f} s)")
        print(f"  {'metric':<18} {'unit':<5} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'n':>3} {'spread':>7} {'bound':>6}")
        for name, unit, bound, _better in bounds:
            if name not in values:
                continue
            stats = summary(values[name])
            spread = (stats["q3"] - stats["q1"]) / stats["median"]
            entry["metrics"][name] = dict(stats, unit=unit, spread=spread)
            flag = "  > bound/3" if spread > bound / 3 else ""
            print(f"  {name:<18} {unit:<5} {stats['median']:>12.6g} "
                  f"{stats['q1']:>12.6g} {stats['q3']:>12.6g} {stats['n']:>3} "
                  f"{spread:>7.3f} {bound:>6.2f}{flag}")
        for name, runs in raw.items():
            stats = summary(runs)
            spread = (stats["q3"] - stats["q1"]) / stats["median"]
            entry["raw"][name] = dict(stats, spread=spread, values=runs)
            print(f"  {name:<18} before speed normalization: median "
                  f"{stats['median']:.6g}, spread {spread:.3f}")
        report["workloads"][workload] = entry
    for seed, by_workload in sorted(digests.items()):
        regimes = {w: d for w, d in by_workload.items() if w in FIG2_REGIMES}
        if len(set(regimes.values())) > 1:
            problems.append(f"seed {seed}: fig2 regimes disagree: {regimes}")
    return report, problems


def trace(args, report):
    """One traced run per workload; per-layer tables and trace files."""
    problems = []
    directory = Path(args.trace)
    for workload in args.workload:
        path = directory / f"{workload}.json"
        result, _info, problem = run_once(
            workload, args.seed, args.seconds, args.smoke, trace_out=path,
            expect_digest=args.expect_digest,
        )
        if problem:
            problems.append(problem)
        if result is None:
            continue
        report["workloads"].setdefault(workload, {})["per_layer"] = (
            result["metrics"]
        )
        layers = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"\n{workload} traced run ({path}):")
        for name, value in layers.items():
            if value:
                unit = result["metrics"][name]["unit"]
                print(f"  {name:<30} {_fmt(value):>14} {unit}")
        print(f"  trace.unit_s {_fmt(layers['trace.unit_s'])} s of which "
              f"runner.other_s {_fmt(layers['runner.other_s'])} s is outside "
              f"every traced layer; tracing cost {_fmt(layers['trace.overhead_s'])} s")
        if layers["runner.other_s"] < -1e-6:
            problems.append(f"{workload}: layer self times exceed the traced unit")
    return problems


def compare(report, old_path, bounds):
    """Medians worse than an earlier report's by more than their bound.

    A metric whose spread in either report is wider than its bound is
    reported as unresolved rather than ok.
    """
    old = json.loads(Path(old_path).read_text())
    problems = []
    print(f"\ncompared with {old_path}:")
    for workload, entry in report["workloads"].items():
        before = old.get("workloads", {}).get(workload, {}).get("metrics", {})
        for name, _unit, bound, better in bounds:
            if name not in entry.get("metrics", {}) or name not in before:
                continue
            new, base = entry["metrics"][name]["median"], before[name]["median"]
            change = (new - base) / base
            worse = change if better == "lower" else -change
            spread = max(entry["metrics"][name]["spread"], before[name]["spread"])
            if worse > bound:
                verdict = "REGRESSION"
            else:
                verdict = "unresolved" if spread > bound else "ok"
            print(f"  {workload:<15} {name:<18} {base:>12.6g} -> {new:>12.6g} "
                  f"{change:+7.1%}  bound {bound:.0%}  {verdict}")
            if worse > bound:
                problems.append(f"{workload} {name}: {change:+.1%} beyond {bound:.0%}")
    return problems


def ablation_verdict(base, ablated):
    """``slower``, ``faster`` or ``unresolved`` for paired throughput runs.

    ``base`` and ``ablated`` hold one value per round (``None`` where a
    run failed).  A direction is stated only when the ablated run lost (or
    won) at least nine tenths of the rounds and the medians differ by more
    than the quartile spread of the unablated runs.
    """
    pairs = [(b, a) for b, a in zip(base, ablated) if b is not None and a is not None]
    if len(pairs) < 2:
        return "unresolved"
    stats = summary([b for b, _a in pairs])
    difference = summary([a for _b, a in pairs])["median"] - stats["median"]
    slower = sum(1 for b, a in pairs if a < b)
    faster = sum(1 for b, a in pairs if a > b)
    if abs(difference) <= stats["q3"] - stats["q1"]:
        return "unresolved"
    if difference < 0 and slower >= 0.9 * len(pairs):
        return "slower"
    if difference > 0 and faster >= 0.9 * len(pairs):
        return "faster"
    return "unresolved"


def ablate(args, report):
    """Per (workload, layer off): throughput_per_s over ``--runs`` rounds.

    Each round runs every configuration once on the round's seed, in
    reverse order on odd rounds, so machine drift shifts all
    configurations alike and no configuration always runs first.
    """
    problems = []
    workloads = [w for w in args.workload if w in ABLATED_WORKLOADS]
    table = report.setdefault("ablation_throughput_per_s", {})
    layers = ("none",) + ABLATIONS
    print(f"\n{'workload':<15} {'layer off':<16} {'throughput_per_s':>17} "
          f"{'vs none':>8}  verdict   (median of {args.runs} rounds)")
    for workload in workloads:
        values = {layer: [None] * args.runs for layer in layers}
        for r in range(args.runs):
            for layer in layers if r % 2 == 0 else layers[::-1]:
                result, info, problem = run_once(
                    workload, args.seed + r, args.seconds, args.smoke,
                    ablate=None if layer == "none" else layer,
                    expect_digest=args.expect_digest,
                )
                if problem:
                    problems.append(problem)
                if result is not None:
                    report.setdefault("env", info.get("env"))
                    values[layer][r] = result["metrics"]["throughput_per_s"]["value"]
        table[workload] = {}
        for layer in layers:
            measured = [v for v in values[layer] if v is not None]
            if not measured:
                continue
            median = summary(measured)["median"]
            verdict = (
                "-" if layer == "none"
                else ablation_verdict(values["none"], values[layer])
            )
            table[workload][layer] = {
                "median": median, "values": values[layer], "verdict": verdict,
            }
            base = table[workload].get("none", {}).get("median")
            ratio = f"{median / base:.2f}x" if base else "-"
            print(f"{workload:<15} {layer:<16} {median:>17.2f} {ratio:>8}  {verdict}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=workload_names(),
                        default=workload_names())
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds "
                        "of BENCHMARK.json, 0.5 with --smoke)")
    parser.add_argument("--trace", metavar="DIR", default=None)
    parser.add_argument("--json", metavar="OUT", default=None)
    parser.add_argument("--compare", metavar="OLD.json", default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--ablate", action="store_true")
    parser.add_argument("--expect-digest", default=None, metavar="HEX",
                        help="digest every sweep run must produce")
    args = parser.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)
    spec = definition()
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else spec["run_seconds"]
    if set(LAYER_MAP) != {m["name"] for m in spec["per_layer"]}:
        print("bench: per-layer metrics of BENCHMARK.json and LAYER_MAP differ",
              file=sys.stderr)
        return 2
    if args.ablate:
        report = {"seed": args.seed, "seconds": args.seconds}
        problems = ablate(args, report)
    else:
        bounds = [
            (m["name"], m["unit"], m["bound"], m["better"])
            for m in spec["end_to_end"]
        ]
        report, problems = measure(args, bounds)
        if args.trace:
            problems += trace(args, report)
        if args.compare:
            problems += compare(report, args.compare, bounds)
        report["layer_map"] = {
            name: {"moves": moves, "workloads": workloads}
            for name, (moves, workloads) in LAYER_MAP.items()
        }
    report["problems"] = problems
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    for problem in problems:
        print(f"bench: FAILED: {problem}", file=sys.stderr)
    print("\nbench: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
