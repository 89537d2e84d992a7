"""End-to-end orchestration: feature extraction, conversion, and toy training.

The inference path mirrors the intended flow. extract_features analyses
source and target (mel, prosody); analyse_prosody is its prosody half,
which the sweep also runs on its outputs. plan_synthesis forms all a
pair fixes: it transfers the source F0 mean onto the target's, computes
the unit-duration conversion rate, applies each requested modulation,
and takes the speaker vector and the average-mel prior. decode conditions the
diffusion decoder on one requested track and samples 30 steps from the
prior; render optionally re-samples in time and vocodes. convert is
analysis, plan, decode and render in sequence; the sweep plans each pair
once for all its levels, and in rate mode decodes each pair once.

The decoder network (style, condition and noise predictor) runs in float32
in training and in decode alike. train_toy draws its He-normal init in
float64, trains a float32 copy of it, and returns the trained weights
upcast to float64, which is exact. decode runs on float32 copies of the
bundle's weights; the sampler draws no noise, and its state and the
decoded mel stay float64. The bundle and the checkpoint hold float64
parameters, so load_bundle(save_bundle(b)) holds b's weights and configs
bit for bit. The noise schedule is diffusion's fixed one, not part of the
bundle, and the band count is mel_cfg.n_mels alone: the bundle's ModelDims
hold none.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace

import numpy as np

from .conditioning import ModelDims, build_condition, build_style
from .diffusion import (
    DecoderParams,
    TrainBatch,
    init_decoder_params,
    param_shapes,
    predict_noise,
    reverse_sample,
    train_step,
)
from .encoders import Alignment, average_mel_target, speaker_embedding
from .errors import InsufficientData, NonFiniteLoss, UnreadableFile
from .formats import read_pfck, write_pfck
from .prosody import (
    Codebook,
    F0Config,
    ProsodyTrack,
    extract_prosody,
    train_unit_codebook,
    unitize,
)
from .rate_control import resample_mel
from .signal_core import (
    MelConfig,
    MelSpectrogram,
    Waveform,
    highpass_filter,
    mel_spectrogram,
)
from .transform import (
    ConversionRate,
    ModulationSpec,
    conversion_rate,
    f0_mean_transfer,
    modulate,
    voiced_mean,
)
from . import vocoder
from .vocoder import griffin_lim, mel_to_linear

HPF_CUTOFF_HZ = 50.0
DEFAULT_KMEANS_K = 100
DEFAULT_LR = 1e-3
DEFAULT_GL_ITERS = 60

# Decoded log-mels are projected onto the range representable by PCM16
# analysis before vocoding (a full-scale frame tops out near log 8e6 ~ 16).
MEL_LOG_CEIL = 20.0


@dataclass
class ModelBundle:
    """Everything a conversion run needs: weights, codebook, and configs."""

    params: DecoderParams
    dims: ModelDims
    mel_cfg: MelConfig
    f0_cfg: F0Config
    codebook: Codebook


# Checkpoint block -> (ModelBundle attribute, config class), in file order. A block
# holds the class's fields in declaration order, as float64.
_META = {
    "meta.dims": ("dims", ModelDims),
    "meta.melcfg": ("mel_cfg", MelConfig),
    "meta.f0cfg": ("f0_cfg", F0Config),
}


def save_bundle(path, bundle: ModelBundle) -> None:
    blocks = {f"param.{k}": v for k, v in bundle.params.weights.items()}
    for name, (attr, cls) in _META.items():
        cfg = getattr(bundle, attr)
        blocks[name] = np.array([getattr(cfg, f.name) for f in fields(cls)], dtype=np.float64)
    blocks["meta.input_norm"] = np.array([bundle.params.input_shift, bundle.params.input_scale])
    blocks["codebook.centroids"] = bundle.codebook.centroids
    write_pfck(path, blocks)


def _cast(field, value):
    """value as field's declared type, int or float; an int field refuses a value that is not integral."""
    if field.type == "float":
        return float(value)
    if not float(value).is_integer():
        raise ValueError(f"{field.name} {value:g} is not an integer")
    return int(value)


def _block(blocks: dict, name: str, shape: tuple) -> np.ndarray:
    """Take block name out of blocks, refusing it unless finite and of shape."""
    values = blocks.pop(name, None)
    if values is None or values.shape != shape:
        raise UnreadableFile(f"checkpoint block {name} is missing or not of shape {shape}")
    if not np.all(np.isfinite(values)):
        raise UnreadableFile(f"checkpoint block {name} holds non-finite values")
    return values


def _unpack(blocks: dict, name: str, cls):
    """Rebuild config dataclass cls from its meta block, fields in declaration order."""
    cls_fields = fields(cls)
    values = _block(blocks, name, (len(cls_fields),))
    try:
        return cls(**{f.name: _cast(f, v) for f, v in zip(cls_fields, values)})
    except (ValueError, OverflowError) as exc:
        raise UnreadableFile(f"checkpoint block {name} is invalid: {exc}") from exc


def load_bundle(path) -> ModelBundle:
    blocks = read_pfck(path)
    meta = {attr: _unpack(blocks, name, cls) for name, (attr, cls) in _META.items()}
    shift, scale = _block(blocks, "meta.input_norm", (2,))
    if not scale > 0:
        raise UnreadableFile(f"checkpoint block meta.input_norm has input scale {scale}, not > 0")
    shapes = param_shapes(meta["dims"], meta["mel_cfg"].n_mels)
    weights = {name: _block(blocks, f"param.{name}", shape) for name, shape in shapes.items()}
    params = DecoderParams(weights, float(shift), float(scale))
    centroids = blocks.pop("codebook.centroids", None)
    if centroids is None:
        raise UnreadableFile("checkpoint block codebook.centroids is missing")
    try:
        codebook = Codebook(centroids)
        if codebook.dim != meta["mel_cfg"].n_mels:
            raise ValueError(f"{codebook.dim} columns for {meta['mel_cfg'].n_mels} mel bands")
    except ValueError as exc:
        raise UnreadableFile(f"checkpoint block codebook.centroids is invalid: {exc}") from exc
    if blocks:  # every block of the schema was taken out above; name the first other one
        raise UnreadableFile(f"checkpoint block {next(iter(blocks))} is not part of the schema")
    return ModelBundle(params, codebook=codebook, **meta)


@dataclass
class ConvertResult:
    wave: Waveform
    mel: MelSpectrogram
    conditioning_track: ProsodyTrack
    report: dict


@dataclass
class SynthesisPlan:
    """What a source/target pair fixes: one requested track per ModulationSpec,
    the unit conversion rate, speaker vector, prior and the report fields they set."""

    requested: list[ProsodyTrack]
    rate: ConversionRate
    speaker: np.ndarray
    prior: MelSpectrogram
    report: dict


def analyse_prosody(wave: Waveform, mel_cfg: MelConfig, f0_cfg: F0Config) -> ProsodyTrack:
    """The prosody track of the high-passed signal."""
    return extract_prosody(highpass_filter(wave, HPF_CUTOFF_HZ), mel_cfg, f0_cfg)


def extract_features(wave: Waveform, mel_cfg: MelConfig, f0_cfg: F0Config):
    """(mel, prosody track) with the prosody taken from the high-passed signal."""
    mel = mel_spectrogram(wave, mel_cfg)
    return mel, analyse_prosody(wave, mel_cfg, f0_cfg)


def convert(src: Waveform, trg: Waveform, src_align: Alignment, bundle: ModelBundle,
            mod: ModulationSpec = ModulationSpec(), *, rate_control: bool = False,
            seed: int = 0, gl_iters: int = DEFAULT_GL_ITERS) -> ConvertResult:
    """Full inference path: analysis of both waves, plan, decode, then render.
    A given mod.rate_multiplier wins over rate_control's unit conversion rate;
    seed seeds only Griffin-Lim's random start phase, and the CLI leaves it at 0."""
    if gl_iters < 0:
        raise ValueError(f"gl_iters must be >= 0, got {gl_iters}")
    started = time.perf_counter()
    plan = plan_synthesis(extract_features(src, bundle.mel_cfg, bundle.f0_cfg),
                          extract_features(trg, bundle.mel_cfg, bundle.f0_cfg),
                          src_align, bundle, [mod])
    requested = plan.requested[0]
    decoded = decode(plan, requested, bundle)
    rate = plan.rate if rate_control else None
    if mod.rate_multiplier is not None:
        rate = ConversionRate(mod.rate_multiplier)
    wave_out, mel_out = render(decoded, rate, bundle, seed=seed, gl_iters=gl_iters)
    report = {
        **plan.report,
        "octave_shift": mod.octave_shift,
        "semitone_shift": mod.semitone_shift,
        "energy_gain": mod.energy_gain,
        "frame_curve": mod.frame_f0_delta is not None,
        "rate_control": rate is not None,
        "applied_rate": rate.clamped if rate is not None else 1.0,
        "requested_mean_hz": voiced_mean(requested),
        "out_frames": mel_out.n_frames,
        "out_samples": len(wave_out),
        "elapsed_ms": (time.perf_counter() - started) * 1e3,
    }
    return ConvertResult(wave_out, mel_out, requested, report)


def plan_synthesis(src_features, trg_features, src_align: Alignment, bundle: ModelBundle,
                   mods: list[ModulationSpec]) -> SynthesisPlan:
    """The plan of one pair: the source F0 mean moves onto the target's, then each
    spec modulates that track; mod.rate_multiplier plays no part here."""
    mel_src, track_src = src_features
    mel_trg, track_trg = trg_features
    mu_src = voiced_mean(track_src)
    mu_trg = voiced_mean(track_trg)
    transferred = f0_mean_transfer(track_src, mu_trg)
    rc = conversion_rate(unitize(mel_src, bundle.codebook), unitize(mel_trg, bundle.codebook))
    requested = [modulate(transferred, mod) for mod in mods]
    spk = speaker_embedding(mel_trg, bundle.dims.speaker_dim)
    prior = average_mel_target(mel_src, src_align)
    report = {"source_frames": mel_src.n_frames, "mu_src_hz": mu_src, "mu_trg_hz": mu_trg,
              "rc_raw": rc.raw, "rc_clamped": rc.clamped}
    return SynthesisPlan(requested, rc, spk, prior, report)


def _weights_as(weights: dict[str, np.ndarray], dtype) -> dict[str, np.ndarray]:
    """A copy of a weights dict with every array cast to dtype."""
    return {name: arr.astype(dtype) for name, arr in weights.items()}


def decode(plan: SynthesisPlan, requested: ProsodyTrack, bundle: ModelBundle) -> MelSpectrogram:
    """Sample the diffusion decoder from the plan's prior, conditioned on
    requested and the plan's speaker, and clip the mel to the vocodable range.

    The network runs in float32, on float32 copies of the weights (predict_noise
    casts each state); the sampler keeps its state in float64 and draws no noise."""
    weights = _weights_as(bundle.params.weights, np.float32)
    params = replace(bundle.params, weights=weights)

    def denoise(x_t, t):
        style = build_style(plan.speaker, t, weights)
        cond = build_condition(requested, style, weights)
        return predict_noise(x_t, cond, params)

    sampled = reverse_sample(plan.prior.values, denoise)
    return MelSpectrogram(np.clip(sampled, np.log(bundle.mel_cfg.log_floor), MEL_LOG_CEIL),
                          bundle.mel_cfg)


def render(mel: MelSpectrogram, rate: ConversionRate | None, bundle: ModelBundle, *,
           gl_iters: int, seed: int = 0) -> tuple[Waveform, MelSpectrogram]:
    """(wave, vocoded mel): mel re-sampled in time by rate unless it is None, then vocoded.
    seed seeds Griffin-Lim's random start phase; only convert passes one."""
    if rate is not None:
        mel = resample_mel(mel, rate)
    return griffin_lim(mel_to_linear(mel), bundle.mel_cfg, gl_iters, seed), mel


# -- toy training ---------------------------------------------------------------------

@dataclass
class CorpusItem:
    name: str
    speaker: str
    wave: Waveform
    align: Alignment


def _training_pool():
    """A context manager giving train_step's pool, closed on exit: one worker
    when this process may run on 2 or more CPUs (the rule Griffin-Lim's runs
    follow), else None, so that train_step runs its jobs inline."""
    return ThreadPoolExecutor(1) if vocoder._cpu_count() >= 2 else nullcontext()


def train_toy(items: list[CorpusItem], *, epochs: int, seed: int, lr: float = DEFAULT_LR,
              dims: ModelDims = ModelDims(), mel_cfg: MelConfig = MelConfig(),
              kmeans_k: int = DEFAULT_KMEANS_K, log=None):
    """Deterministic toy training over a small same-speaker-paired corpus.

    Returns (bundle, per-epoch mean losses).  Each utterance's example
    (mel, prior, prosody and speaker vector) is built once; each step trains
    on one with the speaker vector of a randomly chosen utterance of the
    same speaker, itself included. The decoder input normalization comes
    from corpus mel statistics. The steps run on float32 weights; the
    bundle holds them as float64.
    """
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    if not items:
        raise InsufficientData("corpus is empty")
    if epochs < 1:
        raise InsufficientData("need at least one epoch")

    f0_cfg = F0Config()
    mels, examples = [], []
    for item in items:
        mel, track = extract_features(item.wave, mel_cfg, f0_cfg)
        mels.append(mel)
        examples.append(TrainBatch(x0=mel.values, prior=average_mel_target(mel, item.align).values,
                                   prosody=track, speaker=speaker_embedding(mel, dims.speaker_dim)))

    codebook = train_unit_codebook(mels, kmeans_k, seed)

    by_speaker: dict[str, list[int]] = {}
    for idx, item in enumerate(items):
        by_speaker.setdefault(item.speaker, []).append(idx)

    all_values = np.concatenate([m.values.ravel() for m in mels])
    shift = float(all_values.mean())
    scale = float(max(all_values.std(), 1e-3))

    rng = np.random.default_rng(seed)
    params = init_decoder_params(dims, mel_cfg.n_mels, rng, input_shift=shift, input_scale=scale)
    params = replace(params, weights=_weights_as(params.weights, np.float32))

    epoch_losses = []
    with _training_pool() as pool:
        for epoch in range(epochs):
            order = rng.permutation(len(items))
            losses = []
            for step, idx in enumerate(order, 1):
                mates = by_speaker[items[idx].speaker]
                mate = examples[mates[int(rng.integers(len(mates)))]]
                try:
                    params, loss = train_step(replace(examples[idx], speaker=mate.speaker), params, lr, rng, pool)
                except NonFiniteLoss as exc:
                    raise NonFiniteLoss(f"{exc} at epoch {epoch + 1}/{epochs}, "
                                        f"step {step}/{len(order)}") from exc
                losses.append(loss)
            epoch_losses.append(float(np.mean(losses)))
            if log is not None:
                log(f"epoch {epoch + 1}/{epochs} loss {epoch_losses[-1]:.6f}")

    params = replace(params, weights=_weights_as(params.weights, np.float64))
    return ModelBundle(params, dims, mel_cfg, f0_cfg, codebook), epoch_losses
