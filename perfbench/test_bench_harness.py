"""Self-test of the benchmark harness at ``--smoke`` sizes (about 30 s).

    python3 -m pytest perfbench/test_bench_harness.py -q

Runs ``bench.py --smoke`` once with traces and checks that every metric
of ``BENCHMARK.json`` is emitted with its unit, that the three fig2
regimes agree on the verdict digest, that traced layer times add up, and
that the harness fails loudly on a wrong expected digest or a missing
program; plus the arithmetic of speed normalization and of the ablation
verdict on made-up numbers.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SWEEP_SELF = ("generation", "compile", "analysis", "bat", "aggregate")


def _bench(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "bench.py"), "--smoke",
         "--runs", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    completed = _bench("--trace", str(out / "traces"),
                       "--json", str(out / "report.json"))
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads((out / "report.json").read_text()), out / "traces"


def test_every_metric_is_emitted_with_its_unit(smoke):
    report, _traces = smoke
    assert set(report["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, entry in report["workloads"].items():
        assert entry["attempted"] >= 1 and entry["failed"] == 0, name
        for metric in SPEC["end_to_end"]:
            emitted = entry["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"], (name, metric)
            assert emitted["n"] == 1 and emitted["median"] > 0, (name, metric)
        for metric in SPEC["per_layer"]:
            assert entry["per_layer"][metric["name"]]["unit"] == metric["unit"]


def test_fig2_regimes_agree_on_the_verdict_digest(smoke):
    report, _traces = smoke
    digests = {
        name: report["workloads"][name]["digests"]
        for name in ("fig2-cold", "fig2-replay", "fig2-jobs2")
    }
    assert all(len(d) == 1 for d in digests.values()), digests
    assert len({d[0] for d in digests.values()}) == 1, digests


def test_traced_layers_account_for_the_traced_sweep(smoke):
    report, traces = smoke
    for name in ("fig2-cold", "fig2-replay", "ablation-64set"):
        layers = {k: v["value"] for k, v in
                  report["workloads"][name]["per_layer"].items()}
        attributed = sum(layers[f"{layer}.self_s"] for layer in SWEEP_SELF)
        assert layers["runner.other_s"] >= 0, name
        assert attributed + layers["runner.other_s"] == pytest.approx(
            layers["trace.unit_s"], rel=1e-9
        ), name
        assert layers["analysis.calls"] > 0 and layers["bat.calls"] > 0, name
    for name in report["workloads"]:
        document = json.loads((traces / f"{name}.json").read_text())
        assert document["traceEvents"], name
        assert all(e["ph"] == "X" for e in document["traceEvents"]), name


def test_a_wrong_expected_digest_fails_the_run():
    completed = _bench("--workload", "fig2-cold",
                       "--expect-digest", "0000000000000000")
    assert completed.returncode != 0
    assert "expected 0000000000000000" in completed.stderr


def test_speed_normalization_scales_each_slice_by_its_own_speed():
    from perfbench.speed import NOMINAL_CHUNK_S, SpeedMeter

    meter = SpeedMeter([])
    # One CPU: nominal speed for the first second, half speed after it.
    times = [i * 0.01 for i in range(300)]
    chunks = [NOMINAL_CHUNK_S if t < 1.0 else 2 * NOMINAL_CHUNK_S for t in times]
    meter._samples = [(times, chunks)]
    assert meter.normalized(0.0, 1.0) == pytest.approx(1.0)
    assert meter.normalized(1.0, 3.0) == pytest.approx(1.0)
    assert meter.normalized(0.0, 3.0) == pytest.approx(2.0)


def test_ablation_verdict_needs_nine_tenths_of_the_rounds():
    from perfbench.bench import ablation_verdict

    base = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    assert ablation_verdict(base, [v * 0.8 for v in base]) == "slower"
    assert ablation_verdict(base, [v * 1.2 for v in base]) == "faster"
    assert ablation_verdict(base, [v * 1.01 for v in base]) == "unresolved"
    mixed = [v * (0.8 if i % 3 else 1.2) for i, v in enumerate(base)]
    assert ablation_verdict(base, mixed) == "unresolved"


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fig2-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
