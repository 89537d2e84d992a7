"""The summary step of scripts/bench_ab.py, on canned perfbench/run.py output."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_ab.py"


@pytest.fixture(scope="module")
def bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_output(workload, fingerprint, rtf, sc=0.3, failed=0):
    """stdout of `run.py --workload <workload> --trace 0`, abridged to the lines bench_ab reads."""
    metrics = {"rtf_cal_p50": {"value": rtf, "unit": "s/s"},
               "spectral_convergence": {"value": sc, "unit": "ratio"}}
    return "\n".join([
        f"perfbench workload={workload} seed=1 seconds=1.0 trace=0",
        'env {"numpy": "2.4.6", "python": "3.11.7"}',
        f"metric rtf_cal_p50 {rtf:.6g} s/s  (median over n=16 requests)",
        f"fingerprint {workload} sha256:{fingerprint}",
        json.dumps({"correct": failed == 0, "attempted": 20, "failed": failed, "metrics": metrics}),
    ]) + "\n"


def test_parse_run_prefixes_metrics_with_the_workload(bench_ab):
    parsed = bench_ab.parse_run(run_output("convert_short", "aa", 0.15), "convert_short")
    assert parsed["env"] == {"numpy": "2.4.6", "python": "3.11.7"}
    assert parsed["fingerprints"] == {"convert_short": "sha256:aa"}
    assert parsed["metrics"] == {"convert_short.rtf_cal_p50": 0.15, "convert_short.spectral_convergence": 0.3}
    assert (parsed["correct"], parsed["attempted"], parsed["failed"]) == (True, 20, 0)


def test_parse_run_all_keeps_prefixed_names(bench_ab):
    sub = [run_output(name, name[:2], 0.1) for name in ("convert_short", "train")]
    combined = {"correct": True, "attempted": 40, "failed": 0,
                "metrics": {"convert_short.rtf_cal_p50": {"value": 0.1, "unit": "s/s"},
                            "train.rtf_cal_p50": {"value": 0.002, "unit": "s/s"}}}
    stdout = "".join(sub) + json.dumps(combined) + "\n"
    parsed = bench_ab.parse_run(stdout, "all")
    assert parsed["fingerprints"] == {"convert_short": "sha256:co", "train": "sha256:tr"}
    assert parsed["metrics"] == {"convert_short.rtf_cal_p50": 0.1, "train.rtf_cal_p50": 0.002}
    assert parsed["attempted"] == 40


def test_summary_medians_quartiles_wins_and_fingerprints(bench_ab):
    base_rtf = [0.150, 0.148, 0.152, 0.149, 0.151]
    change_rtf = [0.130, 0.131, 0.153, 0.129, 0.132]
    runs = []
    for seed, (b, c) in enumerate(zip(base_rtf, change_rtf), start=11):
        fingerprint = f"f{seed}"
        runs.append({"seed": seed, "side": "base",
                     "parsed": bench_ab.parse_run(run_output("convert_short", fingerprint, b), "convert_short")})
        runs.append({"seed": seed, "side": "change",
                     "parsed": bench_ab.parse_run(run_output("convert_short", fingerprint, c), "convert_short")})
    summary = bench_ab.summarise(runs, {"rtf_cal_p50": "lower", "spectral_convergence": "lower"})
    assert summary["seeds"] == [11, 12, 13, 14, 15]
    assert summary["fingerprints"]["convert_short"]["status"] == "unchanged"
    rtf = summary["metrics"]["convert_short.rtf_cal_p50"]
    assert rtf["base"]["median"] == pytest.approx(0.150)
    assert (rtf["base"]["q1"], rtf["base"]["q3"]) == pytest.approx((0.149, 0.151))
    assert rtf["change"]["median"] == pytest.approx(0.131)
    assert rtf["wins"] == {"change": 4, "base": 1, "tie": 0}
    assert summary["metrics"]["convert_short.spectral_convergence"]["wins"] == {"change": 0, "base": 0, "tie": 5}
    lines = bench_ab.summary_lines(summary)
    assert "fingerprints convert_short unchanged" in lines
    assert any(line.startswith("metric convert_short.rtf_cal_p50 base 0.15 [0.149, 0.151] change 0.131 ")
               and "change better in 4/5 pairs" in line for line in lines)


def test_summary_reports_a_changed_fingerprint_and_higher_is_better(bench_ab):
    runs = [
        {"seed": 1, "side": "base", "parsed": bench_ab.parse_run(run_output("sweep", "same", 0.1, sc=0.5), "sweep")},
        {"seed": 1, "side": "change", "parsed": bench_ab.parse_run(run_output("sweep", "other", 0.1, sc=0.4,
                                                                               failed=1), "sweep")},
    ]
    summary = bench_ab.summarise(runs, {"spectral_convergence": "higher"})
    assert summary["fingerprints"]["sweep"] == {
        "status": "changed", "per_seed": {"1": {"base": "sha256:same", "change": "sha256:other"}}}
    sc = summary["metrics"]["sweep.spectral_convergence"]
    assert sc["wins"] == {"change": 0, "base": 1, "tie": 0}
    assert sc["change"] == {"median": 0.4, "q1": 0.4, "q3": 0.4, "values": [0.4]}
    assert summary["verdict"]["change"] == {"correct": False, "failed": 1, "attempted": 20}
    assert "fingerprints sweep changed" in bench_ab.summary_lines(summary)


def test_malloc_env_keeps_only_malloc_variables(bench_ab):
    environ = {"PATH": "/usr/bin", "MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_ARENA_MAX": "2",
               "OMP_NUM_THREADS": "1", "GLIBC_MALLOC": "x"}
    assert list(bench_ab.malloc_env(environ).items()) == [("MALLOC_ARENA_MAX", "2"),
                                                          ("MALLOC_MMAP_THRESHOLD_", "131072")]
    assert bench_ab.malloc_env({"PATH": "/usr/bin"}) == {}
