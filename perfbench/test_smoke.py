"""Smoke test of the benchmark at tiny sizes.

Every workload must pass its checks and emit every metric BENCHMARK.json
declares, with its unit, plus the workload's own report names.  Run:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

REPORT_NAMES = {
    "forge": {"trials_per_s": "1/s", "trial_p50_ms": "ms", "cpu_ms_per_trial": "ms"},
    "honest": {"trials_per_s": "1/s", "trial_p50_ms": "ms", "cpu_ms_per_trial": "ms"},
    "bounds": {"table_s": "s", "table_cpu_s": "s"},
    "bank": {"requests_per_s": "1/s", "mint_p50_ms": "ms", "mint_p90_ms": "ms",
             "round_p50_ms": "ms", "round_p90_ms": "ms", "cpu_ms_per_request": "ms"},
}
COMMON_REPORT_NAMES = {"setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "1", "reference_cpu_ms": "ms"}
LAYER_NAMES = (
    ["protocol.bank_mint", "protocol.holder_verify", "protocol.measure_positions",
     "protocol.bank_check", "adversary.forge_coins"]
    + [f"bounds.{f}.n{n}" for f in ("build_q_matrix", "operator_norm") for n in range(4, 15, 2)]
    + ["service.connect", "service.client.mint", "service.client.measure",
       "service.client.verify", "service.client_verify",
       "service.journal_append.mint", "service.journal_append.check",
       "service.server.bank_mint", "service.server.measure_positions",
       "service.server.bank_check", "service.server.send_message"]
)
# Layers each workload must reach, and the ones it is predicted to bypass.
EXERCISED = {
    "forge": ["adversary.forge_coins", "protocol.bank_mint", "protocol.holder_verify"],
    "honest": ["protocol.bank_mint", "protocol.measure_positions", "protocol.bank_check"],
    "bounds": ["bounds.build_q_matrix.n4", "bounds.operator_norm.n12"],
    "bank": ["service.connect", "service.client_verify", "service.server.bank_mint",
             "service.journal_append.mint", "service.journal_append.check"],
}
BYPASSED = {"forge": ["service.client_verify"], "honest": ["adversary.forge_coins"],
            "bounds": ["protocol.bank_mint"], "bank": ["adversary.forge_coins"]}
SAMPLED_NAMES = ["bounds.q_matrix_mb.n14", "service.journal_bytes.mint", "service.journal_bytes.check",
                 "service.mint_reply_bytes", "service.verify_request_bytes", "trace.overhead_pct"]


def run_bench(workload, trace, cwd=ROOT, run=RUN):
    return subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_per_layer_metrics_cover_the_layers():
    declared = {m["name"] for m in SPEC["per_layer"]}
    expected = {f"{name}.{stat}" for name in LAYER_NAMES for stat in ("calls", "busy_s", "p50_ms")}
    assert declared == expected | set(SAMPLED_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["forge", "honest", "bounds", "bank"])
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert isinstance(emitted["value"], (int, float)), m["name"]
        if not trace:
            assert emitted["value"] > 0, m["name"]
    if trace:
        for name in EXERCISED[workload]:
            assert result["metrics"][f"{name}.calls"]["value"] > 0, name
        for name in BYPASSED[workload]:
            assert result["metrics"][f"{name}.calls"]["value"] == 0, name

    provenance = json.loads(lines[0])["provenance"]
    for key in ("git_sha", "python", "numpy", "nproc", "seed", "params"):
        assert key in provenance
    report = {}
    for line in lines:
        if line.startswith(f"report {workload} "):
            _, _, name, value, unit = line.split()
            report[name] = unit
    names = {"tracing_overhead_pct": "%", "failed_frac": "1"} if trace \
        else dict(REPORT_NAMES[workload], **COMMON_REPORT_NAMES)
    for name, unit in names.items():
        assert report.get(name) == unit, name


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("forge", 0, cwd=tmp_path, run=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
