"""Seeded inputs, operations and output checks of the benchmark workloads.

Every input is a ``synth.toy_utterance``. The inputs of the timed
operations are drawn from the workload seed. The reference corpus, the
bundle trained on it and the probe conversions that give the quality
figures are the same for every seed, so those figures are exact constants
of the code under test. Set-up writes the inputs as WAV + TSV files, trains
the bundle, saves it as a PFCK checkpoint and runs one cold conversion. The
timed operations read those files back through ``load_wav``,
``load_alignment`` and ``load_bundle``, as ``cli.cmd_convert``,
``cmd_sweep`` and ``cmd_train_toy`` do, but without argparse.

The package is called through module attributes (``pipeline.convert``,
``signal_core.load_wav``, ...) so that the traced run can wrap those calls.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from prosovc import encoders, evaluate, pipeline, rate_control, signal_core, vocoder
from prosovc.synth import toy_utterance, write_alignment
from prosovc.transform import ConversionRate, ModulationSpec

PHONES_PER_SECOND = 3
CORPUS_UTTERANCES = 4  # per speaker, two speakers
CORPUS_SECONDS = 3.0
TRAIN_EPOCHS = 12
CONVERT_GL_ITERS = 60  # the convert default; the sweep keeps its own default of 30
SWEEP_GL_ITERS = 30
REFERENCE_SEED = 0  # the reference corpus and bundle, whatever the workload seed
PROBE_PAIRS = 1
BUNDLE = "bundle.pfck"


@dataclass(frozen=True)
class Utterance:
    name: str
    speaker: str
    seed: int
    base_f0: float
    tilt: float
    duration: float

    def write(self, workdir: Path) -> None:
        # toy_utterance's tilt is a per-sample Python loop: set-up only.
        wave, align = toy_utterance(self.seed, self.base_f0, self.duration, tilt=self.tilt,
                                    n_phones=round(PHONES_PER_SECOND * self.duration))
        signal_core.save_wav(wave, workdir / f"{self.name}.wav")
        write_alignment(align, workdir / f"{self.name}.tsv")


@dataclass(frozen=True)
class Request:
    src: Utterance
    trg: Utterance
    mod: ModulationSpec = ModulationSpec()
    rate_control: bool = False


@dataclass
class Outcome:
    """What one operation produced, as the checks saw it."""

    unit_times: list[float]  # wall seconds per request, per epoch after the first, or per level
    unit_audio_s: float  # input audio seconds behind one unit
    audio_s: float  # input audio seconds the whole operation processed
    problems: list[str] = field(default_factory=list)
    quality: dict[str, list[float]] = field(default_factory=dict)
    digest: bytes = b""


def _draw_utterance(rng, name, speaker, f0_range, tilt_range, duration) -> Utterance:
    return Utterance(name, speaker, int(rng.integers(2**31)), round(float(rng.uniform(*f0_range)), 2),
                     round(float(rng.uniform(*tilt_range)), 3), duration)


def _f32(values) -> bytes:
    return np.ascontiguousarray(values, dtype="<f4").tobytes()


# -- convert requests --------------------------------------------------------------------

def run_convert(req: Request, workdir: Path, out: Path, gl_iters: int = CONVERT_GL_ITERS):
    src = signal_core.load_wav(workdir / f"{req.src.name}.wav")
    trg = signal_core.load_wav(workdir / f"{req.trg.name}.wav")
    align = encoders.load_alignment(workdir / f"{req.src.name}.tsv")
    bundle = pipeline.load_bundle(workdir / BUNDLE)
    result = pipeline.convert(src, trg, align, bundle, req.mod, rate_control=req.rate_control,
                              seed=0, gl_iters=gl_iters)
    signal_core.save_wav(result.wave, out)
    return result


def inspect_convert(result, req: Request, out: Path, wall: float, full: bool) -> Outcome:
    """Per-request checks; with `full`, also the rate error and the output digest."""
    report = result.report
    hop = result.mel.config.hop
    samples = result.wave.samples
    outcome = Outcome([wall], req.src.duration, req.src.duration)
    problems = outcome.problems
    if not np.all(np.isfinite(samples)):
        problems.append("output samples are not finite")
    out_frames = report["out_frames"]
    if result.mel.n_frames != out_frames or report["out_samples"] != len(samples):
        problems.append("report disagrees with the returned mel or wave")
    if len(samples) != (out_frames - 1) * hop:
        problems.append(f"{len(samples)} samples != ({out_frames} - 1) * {hop}")
    if report["rate_control"]:
        expected = rate_control.resampled_length(report["source_frames"], report["applied_rate"])
    else:
        expected = report["source_frames"]
    if out_frames != expected:
        problems.append(f"{out_frames} output frames, expected {expected}")
    if out.stat().st_size != 44 + 2 * len(samples):
        problems.append(f"{out.name} has {out.stat().st_size} bytes for {len(samples)} samples")
    if full:
        if report["rate_control"]:
            achieved = report["source_frames"] / out_frames
            outcome.quality["sr_error"] = [evaluate.sr_ratio_error(report["applied_rate"], achieved)]
        outcome.digest = out.read_bytes() + _f32(result.mel.values)
    return outcome


def add_spectral_quality(outcome: Outcome, result) -> None:
    """Spectral convergence of the vocoder against its target, and the log-mel distance."""
    cfg = result.mel.config
    target = vocoder.mel_to_linear(result.mel)
    rebuilt = np.abs(signal_core.stft(result.wave.samples, cfg, pad_mode="constant"))
    outcome.quality["spectral_convergence"] = [
        float(np.linalg.norm(rebuilt - target) / np.linalg.norm(target))]
    outcome.quality["mel_lsd"] = [evaluate.log_spectral_distance(
        result.mel, signal_core.mel_spectrogram(result.wave, cfg))]


# -- workloads ---------------------------------------------------------------------------

def draw_corpus(rng, prefix: str = "") -> list[Utterance]:
    """2 speakers x CORPUS_UTTERANCES utterances, the first speaker lower-voiced."""
    voices = [("spk0", (110.0, 150.0), (0.0, 0.0)), ("spk1", (190.0, 240.0), (0.3, 0.6))]
    corpus = []
    for speaker, f0_range, tilt_range in voices:
        base_f0 = round(float(rng.uniform(*f0_range)), 2)
        tilt = round(float(rng.uniform(*tilt_range)), 3)
        for utt in range(CORPUS_UTTERANCES):
            corpus.append(Utterance(f"{prefix}{speaker}_utt{utt}", speaker, int(rng.integers(2**31)),
                                    base_f0, tilt, CORPUS_SECONDS))
    return corpus


def train_corpus(corpus: list[Utterance], seed: int, out: Path):
    """`cmd_train_toy` on files under out's directory; returns losses and epoch times."""
    workdir = out.parent
    items = [pipeline.CorpusItem(u.name, u.speaker, signal_core.load_wav(workdir / f"{u.name}.wav"),
                                 encoders.load_alignment(workdir / f"{u.name}.tsv"))
             for u in corpus]
    marks = [time.perf_counter()]
    bundle, losses = pipeline.train_toy(items, epochs=TRAIN_EPOCHS, seed=seed,
                                        log=lambda _msg: marks.append(time.perf_counter()))
    pipeline.save_bundle(out, bundle)
    return losses, np.diff(marks)


class Workload:
    """Set-up shared by every workload, plus the workload's own operations.

    Set-up writes the reference corpus and the workload's seeded inputs,
    trains the toy bundle on the reference corpus, saves it, and converts
    one reference pair cold. That cold request and the probe conversions
    run at the workload's `gl_iters` and give the quality figures; neither
    depends on the seed. `check_ops` is the number of leading operations
    whose outputs feed the fingerprint; every run completes at least that
    many, so it is fixed per seed. Runs stop on a multiple of `cycle`
    operations.
    """

    name = ""
    unit = ""
    check_ops = 1
    cycle = 1
    gl_iters = CONVERT_GL_ITERS

    def __init__(self, seed: int):
        self.seed = seed
        self.corpus = draw_corpus(np.random.default_rng([REFERENCE_SEED, 0]))
        low, high = self.corpus[:CORPUS_UTTERANCES], self.corpus[CORPUS_UTTERANCES:]
        self.cold = Request(low[0], high[0], ModulationSpec(octave_shift=0.25), rate_control=True)
        # Mean-F0 transfer moves voiced F0 by the difference of the means and
        # rejects a downward shift that would drive a voiced frame below zero,
        # so every pair, here and in the workloads, shifts upward.
        self.probes = [Request(low[i], high[i]) for i in range(1, PROBE_PAIRS + 1)]
        self.inputs: list[Utterance] = []

    def set_up(self, workdir: Path) -> tuple[list[float], Outcome]:
        """Returns the bundle's per-epoch losses and the cold request's outcome."""
        for utt in self.corpus + self.inputs:
            utt.write(workdir)
        losses, _ = train_corpus(self.corpus, REFERENCE_SEED, workdir / BUNDLE)
        started = time.perf_counter()
        result = run_convert(self.cold, workdir, workdir / "cold.wav", self.gl_iters)
        wall = time.perf_counter() - started
        outcome = inspect_convert(result, self.cold, workdir / "cold.wav", wall, full=True)
        add_spectral_quality(outcome, result)
        return losses, outcome

    def tag(self, index: int) -> str:
        return self.unit

    def f0_pair_levels(self, index: int) -> int:
        """(pair, level) conversions operation `index` makes in an f0 sweep."""
        return 0

    def execute(self, index: int, workdir: Path):
        """The timed part of operation `index`."""
        raise NotImplementedError

    def inspect(self, index: int, raw, workdir: Path, wall: float, full: bool) -> Outcome:
        """Checks of operation `index`; untimed."""
        raise NotImplementedError


class ConvertWorkload(Workload):
    unit = "request"

    def execute(self, index, workdir):
        req = self.requests[index % len(self.requests)]
        out = workdir / f"out{index % len(self.requests)}.wav"
        return req, out, run_convert(req, workdir, out)

    def inspect(self, index, raw, workdir, wall, full):
        req, out, result = raw
        return inspect_convert(result, req, out, wall, full)


class ConvertShort(ConvertWorkload):
    name = "convert_short"
    check_ops = 16
    pool = 32  # distinct pairs, more than a run uses; a run that needs more repeats them

    def __init__(self, seed):
        super().__init__(seed)
        rng = np.random.default_rng([seed, 1])
        self.requests = []
        for i in range(self.pool):
            src = _draw_utterance(rng, f"src{i}", "src", (100.0, 160.0), (0.0, 0.6), 2.0)
            trg = _draw_utterance(rng, f"trg{i}", "trg", (170.0, 260.0), (0.0, 0.6), 2.0)
            mod = ModulationSpec(octave_shift=float(rng.choice([-0.5, -0.25, 0.0, 0.25, 0.5])),
                                 semitone_shift=float(rng.integers(-4, 5)),
                                 energy_gain=round(float(rng.uniform(-1.0, 1.0)), 2))
            self.requests.append(Request(src, trg, mod, rate_control=(i % 3 == 2)))
            self.inputs += [src, trg]


class ConvertLong(ConvertWorkload):
    name = "convert_long"
    check_ops = pool = 3  # a median of three requests outlasts one slow phase of the host

    def __init__(self, seed):
        super().__init__(seed)
        rng = np.random.default_rng([seed, 2])
        self.requests = []
        for i in range(self.pool):
            src = _draw_utterance(rng, f"src{i}", "src", (100.0, 160.0), (0.0, 0.6), 20.0)
            trg = _draw_utterance(rng, f"trg{i}", "trg", (170.0, 260.0), (0.0, 0.6), 20.0)
            self.requests.append(Request(src, trg))
            self.inputs += [src, trg]


class Train(Workload):
    """Each operation trains on a seeded corpus; the first one's losses and
    checkpoint are the reference every later operation must reproduce."""

    name = "train"
    unit = "epoch"
    check_ops = 2

    def __init__(self, seed):
        super().__init__(seed)
        self.inputs = draw_corpus(np.random.default_rng([seed, 4]), prefix="seeded_")
        self.reference = None

    def execute(self, index, workdir):
        out = workdir / "train.pfck"
        losses, epochs = train_corpus(self.inputs, self.seed, out)
        return out, losses, epochs

    def inspect(self, index, raw, workdir, wall, full):
        out, losses, epochs = raw
        corpus_s = sum(u.duration for u in self.inputs)
        outcome = Outcome(list(epochs[1:]), corpus_s, corpus_s * TRAIN_EPOCHS)
        if len(losses) != TRAIN_EPOCHS or not all(math.isfinite(x) for x in losses):
            outcome.problems.append(f"losses are not {TRAIN_EPOCHS} finite values: {losses}")
        blob = out.read_bytes()
        if self.reference is None:
            self.reference = (losses, blob)
        ref_losses, ref_bytes = self.reference
        if losses != ref_losses:
            outcome.problems.append("losses differ from the first training on the same corpus")
        if blob != ref_bytes:
            outcome.problems.append("checkpoint differs from the first training on the same corpus")
        if full:
            outcome.digest = blob + np.asarray(losses, dtype="<f8").tobytes()
        return outcome


class Sweep(Workload):
    """Each operation is one `cmd_sweep`: load the bundle and the pairs once,
    then one `modulation_sweep` call over every level of one mode. Operations
    alternate f0 and rate mode, in the CLI's level order, and a run stops
    after a rate operation so that both modes weigh the same.
    """

    name = "sweep"
    unit = "level"
    modes = ("f0", "rate")
    check_ops = cycle = len(modes)
    gl_iters = SWEEP_GL_ITERS

    def __init__(self, seed):
        super().__init__(seed)
        rng = np.random.default_rng([seed, 3])
        self.pairs = []
        for i in range(2):
            src = _draw_utterance(rng, f"src{i}", "src", (100.0, 160.0), (0.0, 0.6), 2.0)
            trg = _draw_utterance(rng, f"trg{i}", "trg", (170.0, 260.0), (0.0, 0.6), 2.0)
            self.pairs.append((src, trg))
            self.inputs += [src, trg]

    def tag(self, index):
        return self.modes[index % len(self.modes)]

    def levels(self, index):
        return evaluate.F0_SWEEP_LEVELS if self.tag(index) == "f0" else evaluate.RATE_SWEEP_LEVELS

    def f0_pair_levels(self, index):
        return len(self.pairs) * len(self.levels(index)) if self.tag(index) == "f0" else 0

    def execute(self, index, workdir):
        bundle = pipeline.load_bundle(workdir / BUNDLE)
        pairs = [(signal_core.load_wav(workdir / f"{src.name}.wav"),
                  encoders.load_alignment(workdir / f"{src.name}.tsv"),
                  signal_core.load_wav(workdir / f"{trg.name}.wav"))
                 for src, trg in self.pairs]
        frames = [bundle.mel_cfg.frame_count(len(src)) for src, _, _ in pairs]
        started = time.perf_counter()
        rows = evaluate.modulation_sweep(pairs, bundle, mode=self.tag(index), gl_iters=self.gl_iters)
        return frames, rows, time.perf_counter() - started

    def inspect(self, index, raw, workdir, wall, full):
        frames, rows, call_wall = raw
        mode, levels = self.tag(index), self.levels(index)
        pair_s = sum(src.duration for src, _ in self.pairs)
        outcome = Outcome([call_wall / len(levels)], pair_s, pair_s * len(levels))
        problems = outcome.problems
        if [row["level"] for row in rows] != list(levels):
            problems.append(f"{mode} sweep returned {len(rows)} rows for {len(levels)} levels")
            return outcome
        for level, row in zip(levels, rows):
            if mode == "f0":
                expected = float(np.mean(frames))
                if not row["requested_mean_hz"] > 0:
                    problems.append(f"level {level}: requested mean {row['requested_mean_hz']}")
            else:
                rate = ConversionRate(level).clamped
                expected = float(np.mean([rate_control.resampled_length(t, rate) for t in frames]))
                if row["requested_rate"] != rate or not math.isfinite(row["sr_error"]):
                    problems.append(f"level {level}: bad rate row {row}")
            if row["out_frames"] != expected:
                problems.append(f"level {level}: {row['out_frames']} frames, expected {expected}")
        if full:
            header = evaluate.F0_SWEEP_HEADER
            if mode == "rate":
                outcome.quality["sr_error"] = [row["sr_error"] for row in rows]
                header = evaluate.RATE_SWEEP_HEADER
            outcome.digest = np.array([[row[k] for k in header] for row in rows], dtype="<f8").tobytes()
        return outcome


WORKLOADS = {cls.name: cls for cls in (ConvertShort, ConvertLong, Train, Sweep)}


def digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()
