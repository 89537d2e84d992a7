#!/usr/bin/env python3
"""A/B-run perfbench/run.py on a base git ref and on the working tree, and file the result.

Run from anywhere inside a git checkout:

    python3 scripts/bench_ab.py --base HEAD~1 --label my_change --workload convert_short \
        --pairs 10 --seed 701 --seconds 12

The base ref is checked out with ``git worktree add --detach`` into a
temporary directory, removed again at the end. Each pair runs
``perfbench/run.py --trace 0`` once on each side with the same seed, the
base first on odd seeds and the working tree first on even ones, so host
drift does not favour one side. Only run.py's standard output is read: its
``env`` line, its ``fingerprint`` lines and the JSON object on its last line.

The result goes to ``BENCH_<label>.json`` at the repository root: the
environment of each side, the ``MALLOC_*`` allocator settings both sides
ran under (``MALLOC_MMAP_THRESHOLD_`` moves ``peak_rss_mb`` by heap layout
alone), the seeds and run order, each side's per-workload
fingerprints, each gated metric's median and quartiles per side, and per
metric how many pairs each side won. Standard output gets one
``fingerprints <workload> unchanged|changed`` line per workload and one
line per metric. The exit status is 0 whenever every run printed a result,
whether or not anything changed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of the base side")
    parser.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    parser.add_argument("--workload", default="all", help="run.py --workload (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; each next pair adds 1")
    parser.add_argument("--seconds", type=float, default=12.0, help="run.py --seconds")
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


def summary_lines(summary: dict) -> list[str]:
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
                     f"base in {m['wins']['base']}")
    return lines


def malloc_env(environ=os.environ) -> dict:
    """The MALLOC_* variables of `environ`, sorted by name; both sides inherit them."""
    return {name: environ[name] for name in sorted(environ) if name.startswith("MALLOC_")}


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def run_side(tree: Path, args, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with {proc.returncode}")
    return parse_run(proc.stdout, args.workload)


def benchmark_directions(tree: Path) -> dict:
    spec = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m.get("better", "lower") for m in spec.get("end_to_end", [])}


def main(argv=None) -> int:
    args = parse_args(argv)
    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    change_commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    base_dir = Path(tempfile.mkdtemp(prefix="bench-ab-base-"))
    git("worktree", "add", "--detach", str(base_dir), base_commit)
    runs = []
    try:
        trees = {"base": base_dir, "change": ROOT}
        for seed in range(args.seed, args.seed + args.pairs):
            order = SIDES if seed % 2 else SIDES[::-1]
            for position, side in enumerate(order):
                print(f"pair seed {seed}: {side} ({'first' if position == 0 else 'second'})", flush=True)
                runs.append({"seed": seed, "side": side, "first": position == 0,
                             "parsed": run_side(trees[side], args, seed)})
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base_dir)], cwd=ROOT, check=False)
    summary = summarise(runs, benchmark_directions(ROOT))
    record = {
        "label": args.label,
        "command": f"perfbench/run.py --workload {args.workload} --seconds {args.seconds} --trace 0",
        "base": {"ref": args.base, "commit": base_commit},
        "change": {"commit": change_commit, "uncommitted_changes": dirty},
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
    print(f"written to {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
