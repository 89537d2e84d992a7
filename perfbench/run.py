"""prosovc benchmark: seeded workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload convert_short --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload's first operations twice each, once plain
and once with span wrappers installed, and reports per-layer self time and
call counts. Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it name every metric with its unit, the environment and the output
fingerprint. See NOTES.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench-work"
SPAN_ROOT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("convert_short", "convert_long", "train", "sweep")
SETUP_REPEATS = 3
PERCENTILES = (99, 95, 90, 75, 50)
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (git rev-parse failed)"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


class Ledger:
    """Operation counts, quality samples and fingerprint parts of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.quality: dict[str, list[float]] = {}
        self.digests: list[bytes] = []

    def add(self, label, outcome, keep: bool):
        self.attempted += 1
        if outcome is None or outcome.problems:
            self.failed += 1
            for problem in outcome.problems if outcome else ():
                print(f"check failed in {label}: {problem}", file=sys.stderr)
            return False
        if keep:
            for key, values in outcome.quality.items():
                self.quality.setdefault(key, []).extend(values)
            self.digests.append(outcome.digest)
        return True


def run_op(workload, index, workdir, full, tracer=None, request=None):
    """Time one operation, then check it. Returns (outcome or None on error, wall s)."""
    started = time.perf_counter()
    try:
        if tracer is None:
            raw = workload.execute(index, workdir)
        else:
            with tracer.active(request):
                raw = workload.execute(index, workdir)
        wall = time.perf_counter() - started
        return workload.inspect(index, raw, workdir, wall, full), wall
    except Exception:  # one failed operation is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        return None, time.perf_counter() - started


def set_up(workload, workdir, repeats, ledger):
    """Set up `repeats` times; returns raw and calibrated wall times and the losses."""
    calibration = Calibration()
    times, calibrated, losses = [], [], None
    for repeat in range(repeats):
        started = time.perf_counter()
        losses, cold = workload.set_up(workdir)
        times.append(time.perf_counter() - started)
        calibrated.append(times[-1] * calibration.scale(times[-1]))
        ledger.attempted += 1  # the bundle training; it raises if it fails
        ledger.add("cold request", cold, keep=repeat == 0)
    return times, calibrated, losses


def check_quality(workload, workdir, ledger):
    """Untimed probe conversions of reference pairs that add to the quality figures."""
    import workloads

    for i, req in enumerate(workload.probes):
        out = workdir / f"probe{i}.wav"
        try:
            result = workloads.run_convert(req, workdir, out, workload.gl_iters)
            outcome = workloads.inspect_convert(result, req, out, 0.0, full=True)
            workloads.add_spectral_quality(outcome, result)
        except Exception:  # counted as a failed operation
            traceback.print_exc(file=sys.stderr)
            outcome = None
        ledger.add(f"probe conversion {i}", outcome, keep=True)


def report(name, value, unit, note=""):
    print(f"metric {name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def highest_percentile(n: int):
    """Highest tabulated percentile with at least ten samples beyond it."""
    return next((p for p in PERCENTILES if n * (100 - p) / 100 >= 10), None)


class Calibration:
    """A fixed mix of interpreter, FFT, ufunc and BLAS work, independent of prosovc.

    The host's speed drifts by up to ~50 % over tens of seconds, and the drift
    slows this loop and the pipeline alike. Dividing an operation's wall time
    by the loop's, timed on either side of it, cancels most of the drift.
    """

    REFERENCE_S = 0.025  # calibrated times read as if one loop took this long

    def __init__(self):
        import numpy as np

        self.np = np
        self.frames = np.random.default_rng(0).standard_normal((64, 1024))
        self._loop()  # the first loop pays for FFT plans and allocations
        self._before = self._median_loop(0.0)

    def scale(self, wall: float) -> float:
        """Factor that turns the wall time of the operation that just ended into
        calibrated time, from the loop timings before and after it."""
        after = self._median_loop(wall)
        factor = 2.0 * self.REFERENCE_S / (self._before + after)
        self._before = after
        return factor

    def _median_loop(self, op_wall: float) -> float:
        """Median of at least two loop times, run for 3 % of the operation's time."""
        times = [self._loop(), self._loop()]
        while sum(times) < 0.03 * op_wall:
            times.append(self._loop())
        return statistics.median(times)

    def _loop(self) -> float:
        np = self.np
        started = time.perf_counter()
        total = 0.0
        for i in range(60000):
            total += i * 0.5
        for _ in range(8):
            spec = np.fft.rfft(self.frames, axis=1)
            rebuilt = np.fft.irfft(np.abs(spec) * np.exp(1j * np.angle(spec)), axis=1)
            total += float((rebuilt[:, :256] @ rebuilt[:, :256].T)[0, 0])
        return time.perf_counter() - started


def measure(workload, workdir, seconds, ledger):
    """Closed loop until `seconds` have passed, `check_ops` are done and the
    count is a multiple of the workload's `cycle`.

    Returns the outcomes of the successful operations, each paired with its
    calibration scale, and the wall time of every operation.
    """
    calibration = Calibration()
    outcomes, walls = [], []
    started = time.perf_counter()
    index = 0
    while (index < workload.check_ops or index % workload.cycle
           or time.perf_counter() - started < seconds):
        full = index < workload.check_ops
        outcome, wall = run_op(workload, index, workdir, full)
        scale = calibration.scale(wall)
        walls.append(wall)
        if ledger.add(f"{workload.name} op {index}", outcome, keep=full):
            outcomes.append((outcome, scale))
        index += 1
    return outcomes, walls


def end_to_end(workload, workdir, seconds, ledger, losses, setup_times, setup_raw):
    scaled, walls = measure(workload, workdir, seconds, ledger)
    if not scaled:
        raise RuntimeError("no operation succeeded")
    outcomes = [o for o, _ in scaled]
    rtf = [t / o.unit_audio_s for o in outcomes for t in o.unit_times]
    rtf_cal = [t / o.unit_audio_s * scale for o, scale in scaled for t in o.unit_times]
    units = [t for o in outcomes for t in o.unit_times]
    audio_s = sum(o.audio_s for o in outcomes)
    quality = ledger.quality
    gated = [
        ("setup_s", statistics.median(setup_times), "s",
         f"median of {len(setup_times)} calibrated set-ups: "
         + ", ".join(f"{t:.3f}" for t in setup_times)),
        ("rtf_cal_p50", statistics.median(rtf_cal), "s/s",
         f"median over n={len(rtf)} {workload.unit}s of calibrated wall / input audio"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
         "ru_maxrss of this process"),
        ("spectral_convergence", statistics.fmean(quality["spectral_convergence"]), "ratio",
         f"mean of {len(quality['spectral_convergence'])} reference conversions"),
        ("mel_lsd", statistics.fmean(quality["mel_lsd"]), "logmel",
         f"mean of {len(quality['mel_lsd'])} reference conversions"),
        ("final_loss", losses[-1], "mse", "last epoch of the reference bundle training"),
    ]
    printed = [
        ("setup_raw_s", statistics.median(setup_raw), "s",
         f"median of {len(setup_raw)} set-ups: " + ", ".join(f"{t:.3f}" for t in setup_raw)),
        ("rtf_p50", statistics.median(rtf), "s/s", f"median over n={len(rtf)} {workload.unit}s"),
        ("rtf_min", min(rtf), "s/s", f"lowest of n={len(rtf)}"),
        ("audio_s_per_s", audio_s / sum(walls), "s/s", f"{audio_s:.1f} s of audio in {sum(walls):.3f} s"),
    ]
    p = highest_percentile(len(rtf))
    if p is not None and p != 50:
        printed.append((f"rtf_p{p}", statistics.quantiles(rtf, n=100)[p - 1], "s/s", f"n={len(rtf)}"))
    if workload.unit in ("epoch", "level"):
        printed.append((f"{workload.unit}_s_p50", statistics.median(units), "s",
                        f"median over n={len(units)} {workload.unit}s"))
    printed += [
        ("sr_error", statistics.fmean(quality["sr_error"]), "ratio",
         f"mean of {len(quality['sr_error'])} rate-controlled outputs"),
        ("ops_failed_frac", ledger.failed / ledger.attempted, "ratio",
         f"{ledger.failed} of {ledger.attempted} operations, set-up included"),
    ]
    for name, value, unit, note in gated:
        report(name, value, unit, note)
    for name, value, unit, note in printed:
        report(name, value, unit, note + "; not gated")
    return {name: {"value": value, "unit": unit} for name, value, unit, _ in gated}


def per_layer(workload, workdir, ledger, out_path):
    import spans
    import workloads

    tracer = spans.Tracer()
    calibration = Calibration()
    plain_s = traced_s = 0.0  # calibrated, so that host drift does not pose as overhead
    op_walls_ns, f0_requests, f0_pair_levels = {}, set(), 0
    changed = []
    for index in range(workload.check_ops):
        request = f"{index}:{workload.tag(index)}"
        digests = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            outcome, wall = run_op(workload, index, workdir, True,
                                   tracer if traced else None, request)
            if ledger.add(f"{workload.name} op {index} traced={traced}", outcome, keep=not traced):
                digests[traced] = outcome.digest
            if traced:
                traced_s += wall * calibration.scale(wall)
                op_walls_ns[request] = wall * 1e9
            else:
                plain_s += wall * calibration.scale(wall)
        if len(digests) == 2 and digests[True] != digests[False]:
            changed.append(f"tracing changed the output of op {index}")
        if workload.f0_pair_levels(index):
            f0_requests.add(request)
            f0_pair_levels += workload.f0_pair_levels(index)
    tracer.dump(out_path)
    metrics, coverage, problems = spans.analyse(tracer.spans, op_walls_ns)
    ledger.add("trace checks", workloads.Outcome([], 0.0, 0.0, changed + problems), keep=False)
    converts = metrics["pipeline.convert.calls"]
    f0_analyses = sum(1 for s in tracer.spans
                      if s[spans.NAME] == "prosody.extract_prosody" and s[spans.REQUEST] in f0_requests)
    metrics["diffusion.steps_per_request"] = metrics["diffusion.predict_noise.calls"] / converts if converts else 0.0
    metrics["vocoder.gl_iters_per_request"] = metrics["signal_core.stft.calls"] / converts if converts else 0.0
    metrics["prosody.analyses_per_level"] = f0_analyses / f0_pair_levels if f0_pair_levels else 0.0
    metrics["trace_overhead_frac"] = traced_s / plain_s - 1.0
    for key, value in coverage.items():
        print(f"coverage {key} {value:.4f}")
    print(f"spans {len(tracer.spans)} written to {out_path.relative_to(ROOT)}")
    units = {name: "s" if name.endswith(".self_s") else "count" for name in metrics}
    units.update(spans.RATIOS)
    for name, value in metrics.items():
        if value:
            report(name, value, units[name])
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def run_workload(args) -> int:
    import workloads

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ledger = Ledger()
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=WORK_ROOT) as tmp:
        workdir = Path(tmp)
        setup_raw, setup_times, losses = set_up(workload, workdir,
                                                1 if args.trace else SETUP_REPEATS, ledger)
        check_quality(workload, workdir, ledger)
        if args.trace:
            SPAN_ROOT.mkdir(exist_ok=True)
            out_path = SPAN_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
            metrics = per_layer(workload, workdir, ledger, out_path)
        else:
            metrics = end_to_end(workload, workdir, args.seconds, ledger, losses, setup_times,
                                 setup_raw)
    print(f"fingerprint {args.workload} sha256:{workloads.digest(ledger.digests)}")
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so that peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # One client in one process: BLAS runs single threaded unless the caller
    # says otherwise, so the program and the calibration loop share one core.
    for name in THREAD_VARIABLES[:3]:
        os.environ.setdefault(name, "1")
    if not (ROOT / "src" / "prosovc" / "__init__.py").is_file():
        print(f"error: no prosovc package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return run_workload(args)
    except Exception:  # set-up failed or nothing could be measured: no result line
        traceback.print_exc(file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
