#!/usr/bin/env python3
"""A/B-run perfbench/run.py on a base git ref and on the working tree, and file the result.

Run from anywhere inside a git checkout:

    python3 scripts/bench_ab.py --base HEAD~1 --label my_change --workload convert_short \
        --pairs 10 --seed 701 --seconds 12

The committed files of the base ref are unpacked with ``git archive`` into
a temporary directory, removed again at the end. Each pair runs
``perfbench/run.py --trace 0`` once on each side with the same seed, the
base first on odd seeds and the working tree first on even ones, so host
drift does not favour one side. Only run.py's standard output is read: its
``env`` line, its ``fingerprint`` lines and the JSON object on its last line.

The result goes to ``BENCH_<label>.json`` at the repository root: the
git tree hash of the measured working tree (see ``tree_hash``), the
environment of each side, the ``MALLOC_*`` allocator settings both sides
ran under (``MALLOC_MMAP_THRESHOLD_`` moves ``peak_rss_mb`` by heap layout
alone), the seeds and run order, each side's per-workload
fingerprints, each gated metric's median and quartiles per side, per
metric how many pairs each side won, and the gate. The gate reads each
end-to-end metric's ``better`` and ``bound`` from ``BENCHMARK.json`` (and
never writes it): a metric breaches when its change median is worse than
its base median by more than ``bound * |base median|``. Standard output gets
one ``fingerprints <workload> unchanged|changed`` line per workload, one line
per metric, with ``BREACH`` on each that breaches, and a last ``gate`` line.
With ``--claim METRIC``, naming one of those end-to-end metrics, a last
``claim`` line applies the rule for claiming a gain to that metric on each
workload run: the change wins at least nine tenths of the pairs, ties
counting for neither side, and its median is better than the base median by
more than the base's interquartile range (q3 - q1). The record keeps the
verdict under ``claim``.
The exit status is 0 whenever every run printed a result, whether or not
anything changed, breached or met its claim.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def parse_args(argv, gated=()):
    """The command line; `gated` names the end-to-end metrics that --claim may name."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of the base side")
    parser.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    parser.add_argument("--workload", default="all", help="run.py --workload (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; each next pair adds 1")
    parser.add_argument("--seconds", type=float, default=12.0, help="run.py --seconds")
    parser.add_argument("--claim", metavar="METRIC", choices=sorted(gated),
                        help="an end-to-end metric of BENCHMARK.json: judge a claimed gain in it")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def parse_run(stdout: str, workload: str) -> dict:
    """The env, fingerprints, verdict and gated metric values of one run.py run.

    Metric names are prefixed with their workload, as run.py does for
    ``--workload all``.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    result = json.loads(lines[-1])
    env = None
    fingerprints = {}
    for line in lines[:-1]:
        if line.startswith("env ") and env is None:
            env = json.loads(line[4:])
        elif line.startswith("fingerprint "):
            _, name, value = line.split()
            fingerprints[name] = value
    prefix = "" if workload == "all" else f"{workload}."
    metrics = {prefix + name: entry["value"] for name, entry in result["metrics"].items()}
    return {"env": env, "fingerprints": fingerprints, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def spread(values: list[float]) -> dict:
    """Median and inclusive quartiles; with one value all three are that value."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def summarise(runs: list[dict], better: dict) -> dict:
    """Fingerprint status per workload and per-metric spreads and pair wins.

    runs: one entry per run, {"seed", "side", "parsed"}; better maps a
    metric name without its workload prefix to "lower" or "higher"
    (default "lower").
    """
    by_seed: dict[int, dict] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["parsed"]
    seeds = [s for s in sorted(by_seed) if set(by_seed[s]) == set(SIDES)]
    pairs = [by_seed[s] for s in seeds]
    if not pairs:
        raise ValueError("no seed has a run on both sides")

    fingerprints = {}
    for pair, seed in zip(pairs, seeds):
        for name in sorted(set(pair["base"]["fingerprints"]) | set(pair["change"]["fingerprints"])):
            entry = fingerprints.setdefault(name, {"status": "unchanged", "per_seed": {}})
            base, change = (pair[side]["fingerprints"].get(name) for side in SIDES)
            entry["per_seed"][str(seed)] = {"base": base, "change": change}
            if base is None or base != change:
                entry["status"] = "changed"

    metrics = {}
    names = sorted(set.intersection(*(set(p[side]["metrics"]) for p in pairs for side in SIDES)))
    for name in names:
        direction = better.get(name.split(".", 1)[-1], "lower")
        sign = 1.0 if direction == "lower" else -1.0
        wins = {"change": 0, "base": 0, "tie": 0}
        for pair in pairs:
            delta = sign * (pair["change"]["metrics"][name] - pair["base"]["metrics"][name])
            wins["change" if delta < 0 else "base" if delta > 0 else "tie"] += 1
        metrics[name] = {"better": direction, "wins": wins,
                         **{side: spread([p[side]["metrics"][name] for p in pairs]) for side in SIDES}}

    verdict = {side: {"correct": all(p[side]["correct"] for p in pairs),
                      "failed": sum(p[side]["failed"] for p in pairs),
                      "attempted": sum(p[side]["attempted"] for p in pairs)} for side in SIDES}
    return {"seeds": seeds, "fingerprints": fingerprints, "metrics": metrics, "verdict": verdict}


def gate(metrics: dict, end_to_end: dict) -> dict:
    """The metrics (and their workloads) whose change median is worse than the base
    median by more than bound * |base median|.

    metrics: summarise's "metrics"; end_to_end maps a metric name without its
    workload prefix to {"better", "bound"}. Metrics it does not name have no bound.
    """
    breaches = []
    for name, m in metrics.items():
        spec = end_to_end.get(name.split(".", 1)[-1])
        if spec is None:
            continue
        sign = 1.0 if spec["better"] == "lower" else -1.0
        worse_by = sign * (m["change"]["median"] - m["base"]["median"])
        if worse_by > spec["bound"] * abs(m["base"]["median"]):
            breaches.append(name)
    workloads = sorted({name.split(".", 1)[0] for name in breaches})
    return {"pass": not breaches, "breaches": breaches, "workloads": workloads}


def claim(metrics: dict, name: str) -> dict:
    """Per workload, whether the change shows a gain in metric `name`.

    metrics: summarise's "metrics". The gain holds when the change wins at
    least 9/10 of the pairs (ties count for neither side) and its median is
    better than the base median by more than the base quartile spread.
    """
    verdicts = {}
    for key, m in metrics.items():
        workload, metric = key.split(".", 1)
        if metric != name:
            continue
        sign = 1.0 if m["better"] == "lower" else -1.0
        gap = sign * (m["base"]["median"] - m["change"]["median"])  # > 0: the change is better
        spread = m["base"]["q3"] - m["base"]["q1"]
        wins, pairs = m["wins"]["change"], sum(m["wins"].values())
        verdicts[workload] = {"met": 10 * wins >= 9 * pairs and gap > spread, "wins": wins, "pairs": pairs,
                              "gap": gap, "base_iqr": spread}
    return verdicts


def claim_line(name: str, verdicts: dict) -> str:
    """One line: `claim`'s verdict on metric `name` for each workload."""
    parts = [f"{workload} {'met' if v['met'] else 'not met'} (change better in {v['wins']}/{v['pairs']} pairs, "
             f"9/10 needed; median gain {v['gap']:.6g} against base IQR {v['base_iqr']:.6g})"
             for workload, v in verdicts.items()]
    return f"claim {name}: " + ("; ".join(parts) or "no run measured it")


def summary_lines(summary: dict) -> list[str]:
    """One line per fingerprint, side verdict and metric; a last gate line if summary has a gate."""
    breaches = summary.get("gate", {}).get("breaches", [])
    lines = [f"fingerprints {name} {entry['status']}" for name, entry in summary["fingerprints"].items()]
    for side in SIDES:
        v = summary["verdict"][side]
        lines.append(f"verdict {side} correct={v['correct']} failed={v['failed']} of {v['attempted']}")
    n_pairs = len(summary["seeds"])
    for name, m in summary["metrics"].items():
        base, change = m["base"], m["change"]
        rel = f" ({(change['median'] / base['median'] - 1) * 100:+.1f} %)" if base["median"] else ""
        lines.append(f"metric {name} base {base['median']:.6g} [{base['q1']:.6g}, {base['q3']:.6g}] "
                     f"change {change['median']:.6g} [{change['q1']:.6g}, {change['q3']:.6g}]{rel}; "
                     f"{m['better']} is better; change better in {m['wins']['change']}/{n_pairs} pairs, "
                     f"base in {m['wins']['base']}" + ("; BREACH" if name in breaches else ""))
    if "gate" in summary:
        g = summary["gate"]
        lines.append("gate pass: no end-to-end metric is worse than its bound" if g["pass"] else
                     f"gate fail: {len(g['breaches'])} breach(es) in {', '.join(g['workloads'])}: "
                     f"{', '.join(g['breaches'])}")
    return lines


def malloc_env(environ=os.environ) -> dict:
    """The MALLOC_* variables of `environ`, sorted by name; both sides inherit them."""
    return {name: environ[name] for name in sorted(environ) if name.startswith("MALLOC_")}


def git(*args, cwd=ROOT, env=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, env=env, check=True, capture_output=True, text=True).stdout.strip()


def tree_hash(cwd=ROOT) -> str:
    """The git tree hash of the working tree: tracked files as they are on disk
    and untracked files that .gitignore does not list.

    It is written through an empty temporary index, so the real index is left
    as it was, and every file is hashed: stat data copied from the real index
    can match a file edited since, and git would then skip it. A commit of
    exactly these files has it as `git rev-parse <commit>^{tree}`.
    """
    with tempfile.TemporaryDirectory(prefix="bench-ab-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("add", "--all", cwd=cwd, env=env)
        return git("write-tree", cwd=cwd, env=env)


def run_side(tree: Path, args, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with {proc.returncode}")
    return parse_run(proc.stdout, args.workload)


def end_to_end_specs(tree: Path) -> dict:
    """BENCHMARK.json's end-to-end metrics: name -> {"better", "bound"}."""
    spec = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: {"better": m.get("better", "lower"), "bound": m["bound"]}
            for m in spec.get("end_to_end", [])}


def unpack_commit(commit: str, dest: Path) -> None:
    """The committed files of `commit`, as `git archive` gives them, under dest."""
    blob = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                          capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=blob, check=True)


def main(argv=None) -> int:
    specs = end_to_end_specs(ROOT)
    args = parse_args(argv, specs)
    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    change_commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    change_tree = tree_hash()
    base_dir = Path(tempfile.mkdtemp(prefix="bench-ab-base-"))
    runs = []
    try:
        unpack_commit(base_commit, base_dir)
        trees = {"base": base_dir, "change": ROOT}
        for seed in range(args.seed, args.seed + args.pairs):
            order = SIDES if seed % 2 else SIDES[::-1]
            for position, side in enumerate(order):
                print(f"pair seed {seed}: {side} ({'first' if position == 0 else 'second'})", flush=True)
                runs.append({"seed": seed, "side": side, "first": position == 0,
                             "parsed": run_side(trees[side], args, seed)})
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
    summary = summarise(runs, {name: spec["better"] for name, spec in specs.items()})
    summary["gate"] = gate(summary["metrics"], specs)
    if args.claim:
        summary["claim"] = {"metric": args.claim, "workloads": claim(summary["metrics"], args.claim)}
    record = {
        "label": args.label,
        "command": f"perfbench/run.py --workload {args.workload} --seconds {args.seconds} --trace 0",
        "base": {"ref": args.base, "commit": base_commit},
        "change": {"commit": change_commit, "uncommitted_changes": dirty, "tree": change_tree},
        "order": "base first on odd seeds, change first on even seeds",
        "env": {side: next(r["parsed"]["env"] for r in runs if r["side"] == side) for side in SIDES},
        "malloc_env": malloc_env(),
        **summary,
        "runs": [{"seed": r["seed"], "side": r["side"], "first": r["first"],
                  **{k: r["parsed"][k] for k in ("fingerprints", "correct", "attempted", "failed", "metrics")}}
                 for r in runs],
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in summary_lines(summary):
        print(line)
    if args.claim:
        print(claim_line(args.claim, summary["claim"]["workloads"]))
    print(f"written to {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
