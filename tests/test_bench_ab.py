"""The summary step of scripts/bench_ab.py, on canned perfbench/run.py output."""

import importlib.util
import json
import os
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


def test_gate_marks_a_metric_worse_than_its_bound_and_passes_one_within(bench_ab):
    # rtf_cal_p50 is 30 % worse against a 25 % bound; spectral_convergence 0.5 % worse against 1 %
    runs = []
    for seed, (b, c) in enumerate([(0.100, 0.131), (0.101, 0.130), (0.099, 0.129)], start=1):
        for side, rtf, sc in (("base", b, 0.300), ("change", c, 0.3015)):
            runs.append({"seed": seed, "side": side,
                         "parsed": bench_ab.parse_run(run_output("convert_short", "f", rtf, sc=sc), "convert_short")})
    specs = {"rtf_cal_p50": {"better": "lower", "bound": 0.25},
             "spectral_convergence": {"better": "lower", "bound": 0.01}}
    summary = bench_ab.summarise(runs, {name: spec["better"] for name, spec in specs.items()})
    summary["gate"] = bench_ab.gate(summary["metrics"], specs)
    assert summary["gate"] == {"pass": False, "breaches": ["convert_short.rtf_cal_p50"],
                               "workloads": ["convert_short"]}
    lines = bench_ab.summary_lines(summary)
    marked = [line.split()[1] for line in lines if line.startswith("metric ") and line.endswith("; BREACH")]
    assert marked == ["convert_short.rtf_cal_p50"]
    assert lines[-1] == "gate fail: 1 breach(es) in convert_short: convert_short.rtf_cal_p50"

    within = specs | {"rtf_cal_p50": {"better": "lower", "bound": 0.35}}
    assert bench_ab.gate(summary["metrics"], within) == {"pass": True, "breaches": [], "workloads": []}


def test_gate_reads_bounds_from_benchmark_json_without_writing_it(bench_ab):
    path = SCRIPT.parents[1] / "BENCHMARK.json"
    before = path.read_bytes()
    specs = bench_ab.end_to_end_specs(path.parent)
    assert specs == {m["name"]: {"better": m["better"], "bound": m["bound"]}
                     for m in json.loads(before)["end_to_end"]}
    assert path.read_bytes() == before


def test_malloc_env_keeps_only_malloc_variables(bench_ab):
    environ = {"PATH": "/usr/bin", "MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_ARENA_MAX": "2",
               "OMP_NUM_THREADS": "1", "GLIBC_MALLOC": "x"}
    assert list(bench_ab.malloc_env(environ).items()) == [("MALLOC_ARENA_MAX", "2"),
                                                          ("MALLOC_MMAP_THRESHOLD_", "131072")]
    assert bench_ab.malloc_env({"PATH": "/usr/bin"}) == {}


def test_tree_hash_covers_edits_and_untracked_files_but_not_ignored_ones(bench_ab, tmp_path):
    def git(*args):
        return bench_ab.git("-c", "user.name=t", "-c", "user.email=t@example.com", *args, cwd=tmp_path)

    git("init", "-q")
    # ctime ignored and an mtime an hour old, so the index's stat data for a.py is trusted
    git("config", "core.trustctime", "false")
    (tmp_path / ".gitignore").write_text("out/\n")
    a_py = tmp_path / "a.py"
    a_py.write_text("x = 1\n")
    mtime_ns = a_py.stat().st_mtime_ns - 3600 * 10**9
    os.utime(a_py, ns=(mtime_ns, mtime_ns))
    git("add", "--all")
    git("commit", "-q", "-m", "start")
    assert bench_ab.tree_hash(tmp_path) == git("rev-parse", "HEAD^{tree}")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "run.log").write_text("ignored\n")
    assert bench_ab.tree_hash(tmp_path) == git("rev-parse", "HEAD^{tree}")

    # an edit of the same size that keeps the mtime matches the index's stat data
    a_py.write_text("x = 2\n")
    os.utime(a_py, ns=(mtime_ns, mtime_ns))
    edited = bench_ab.tree_hash(tmp_path)
    assert edited != git("rev-parse", "HEAD^{tree}")
    a_py.write_text("x = 1\n")
    (tmp_path / "b.py").write_text("y = 1\n")
    untracked = bench_ab.tree_hash(tmp_path)
    assert untracked not in (edited, git("rev-parse", "HEAD^{tree}"))
    # the real index is untouched: b.py is still untracked
    assert git("status", "--porcelain") == "?? b.py"
    git("add", "--all")
    git("commit", "-q", "-m", "add b")
    assert git("rev-parse", "HEAD^{tree}") == untracked


def paired_runs(bench_ab, base_rtf, change_rtf, workload="convert_short", better="lower"):
    runs = []
    for seed, (b, c) in enumerate(zip(base_rtf, change_rtf), start=1):
        for side, rtf in (("base", b), ("change", c)):
            runs.append({"seed": seed, "side": side,
                         "parsed": bench_ab.parse_run(run_output(workload, "f", rtf), workload)})
    return bench_ab.summarise(runs, {"rtf_cal_p50": better, "spectral_convergence": "lower"})["metrics"]


BASE_RTF = [0.090, 0.091, 0.092, 0.093, 0.094, 0.095, 0.096, 0.097, 0.098, 0.099]  # IQR 0.0045


def test_claim_is_met_by_9_of_10_wins_and_a_gap_past_the_base_iqr(bench_ab):
    change = [b - 0.008 for b in BASE_RTF]
    change[9] = BASE_RTF[9]  # a tie counts for neither side
    verdict = bench_ab.claim(paired_runs(bench_ab, BASE_RTF, change), "rtf_cal_p50")["convert_short"]
    assert (verdict["met"], verdict["wins"], verdict["pairs"]) == (True, 9, 10)
    assert verdict["gap"] == pytest.approx(0.008) and verdict["base_iqr"] == pytest.approx(0.0045)
    line = bench_ab.claim_line("rtf_cal_p50", {"convert_short": verdict})
    assert line.startswith("claim rtf_cal_p50: convert_short met (change better in 9/10 pairs, 9/10 needed; ")


def test_claim_is_not_met_by_8_of_10_wins(bench_ab):
    change = [b - 0.008 for b in BASE_RTF]
    change[0] = change[9] = 0.1  # two losses, though the median gap stays past the IQR
    verdict = bench_ab.claim(paired_runs(bench_ab, BASE_RTF, change), "rtf_cal_p50")["convert_short"]
    assert (verdict["met"], verdict["wins"]) == (False, 8)
    assert verdict["gap"] > verdict["base_iqr"]
    assert bench_ab.claim_line("rtf_cal_p50", {"convert_short": verdict}).startswith(
        "claim rtf_cal_p50: convert_short not met (change better in 8/10 pairs")


def test_claim_is_not_met_by_a_gap_inside_the_base_iqr(bench_ab):
    change = [b - 0.002 for b in BASE_RTF]  # wins every pair, by less than the base spread
    verdicts = bench_ab.claim(paired_runs(bench_ab, BASE_RTF, change), "rtf_cal_p50")
    assert list(verdicts) == ["convert_short"]
    assert (verdicts["convert_short"]["met"], verdicts["convert_short"]["wins"]) == (False, 10)


def test_claim_reads_better_and_names_only_gated_metrics(bench_ab):
    # higher is better: a higher change median wins
    metrics = paired_runs(bench_ab, BASE_RTF, [b + 0.008 for b in BASE_RTF], workload="sweep", better="higher")
    assert bench_ab.claim(metrics, "rtf_cal_p50")["sweep"]["met"]
    specs = bench_ab.end_to_end_specs(SCRIPT.parents[1])
    assert bench_ab.parse_args(["--base", "HEAD", "--label", "x", "--claim", "rtf_cal_p50"], specs).claim == \
        "rtf_cal_p50"
    with pytest.raises(SystemExit):
        bench_ab.parse_args(["--base", "HEAD", "--label", "x", "--claim", "vocoder.griffin_lim.self_s"], specs)
