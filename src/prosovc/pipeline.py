"""End-to-end orchestration: feature extraction, conversion, and toy training.

The inference path mirrors the intended flow. extract_features analyses
source and target (mel, prosody). Synthesis is two halves: decode
transfers the source F0 mean onto the target's, computes the unit-duration
conversion rate, applies user modulation, conditions the diffusion decoder
and samples 30 steps from the average-mel prior; render optionally
re-samples in time and vocodes. convert is analysis, decode and render in
sequence; the sweep reuses one analysis for many syntheses, and in rate
mode one decode for every level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .conditioning import ModelDims, build_condition, build_style
from .diffusion import (
    DecoderParams,
    NoiseSchedule,
    TrainBatch,
    init_decoder_params,
    make_schedule,
    named_parameters,
    param_shapes,
    params_from_named,
    predict_noise,
    reverse_sample,
    train_step,
)
from .encoders import Alignment, average_mel_target, speaker_embedding
from .errors import BadSchedule, InsufficientData, NonFiniteLoss, UnreadableFile
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
from .vocoder import griffin_lim, mel_to_linear

HPF_CUTOFF_HZ = 50.0
DEFAULT_KMEANS_K = 100

# Decoded log-mels are projected onto the range representable by PCM16
# analysis before vocoding (a full-scale frame tops out near log 8e6 ~ 16).
MEL_LOG_CEIL = 20.0


@dataclass
class ModelBundle:
    """Everything a conversion run needs: weights, codebook, and configs."""

    params: DecoderParams
    sched: NoiseSchedule
    mel_cfg: MelConfig
    f0_cfg: F0Config = field(default_factory=F0Config)
    codebook: Codebook | None = None

    @property
    def dims(self) -> ModelDims:
        return self.params.dims


def save_bundle(path, bundle: ModelBundle) -> None:
    blocks = {f"param.{k}": v for k, v in named_parameters(bundle.params).items()}
    for name, cfg in (("meta.dims", bundle.dims), ("meta.schedule", bundle.sched),
                      ("meta.melcfg", bundle.mel_cfg), ("meta.f0cfg", bundle.f0_cfg)):
        blocks[name] = np.array([getattr(cfg, f.name) for f in fields(cfg)], dtype=np.float64)
    blocks["meta.input_norm"] = np.array([bundle.params.input_shift, bundle.params.input_scale])
    if bundle.codebook is not None:
        blocks["codebook.centroids"] = bundle.codebook.centroids
    write_pfck(path, blocks)


_CASTS = {"int": int, "float": float}


def _block(blocks: dict, name: str, shape: tuple) -> np.ndarray:
    values = blocks.get(name)
    if values is None or values.shape != shape:
        raise UnreadableFile(f"checkpoint block {name} is missing or not of shape {shape}")
    if not np.all(np.isfinite(values)):
        raise UnreadableFile(f"checkpoint block {name} holds non-finite values")
    return values


def _unpack(blocks: dict, name: str, cls, build=None):
    """Rebuild config dataclass cls from its meta block, fields in declaration order."""
    cls_fields = fields(cls)
    values = _block(blocks, name, (len(cls_fields),))
    try:
        kwargs = {f.name: _CASTS[f.type](v) for f, v in zip(cls_fields, values)}
        return (build or cls)(**kwargs)
    except (ValueError, OverflowError, BadSchedule) as exc:
        raise UnreadableFile(f"checkpoint block {name} is invalid: {exc}") from exc


def load_bundle(path) -> ModelBundle:
    blocks = read_pfck(path)
    dims = _unpack(blocks, "meta.dims", ModelDims)
    sched = _unpack(blocks, "meta.schedule", NoiseSchedule, make_schedule)
    mel_cfg = _unpack(blocks, "meta.melcfg", MelConfig)
    f0_cfg = _unpack(blocks, "meta.f0cfg", F0Config)
    shift, scale = _block(blocks, "meta.input_norm", (2,))
    if not scale > 0:
        raise UnreadableFile(f"checkpoint block meta.input_norm has input scale {scale}, not > 0")
    named = {name: _block(blocks, f"param.{name}", shape) for name, shape in param_shapes(dims).items()}
    params = params_from_named(named, dims, float(shift), float(scale))
    codebook = None
    if "codebook.centroids" in blocks:
        try:
            codebook = Codebook(blocks["codebook.centroids"])
            if codebook.dim != mel_cfg.n_mels:
                raise ValueError(f"{codebook.dim} columns for {mel_cfg.n_mels} mel bands")
        except ValueError as exc:
            raise UnreadableFile(f"checkpoint block codebook.centroids is invalid: {exc}") from exc
    return ModelBundle(params, sched, mel_cfg, f0_cfg, codebook)


@dataclass
class ConvertResult:
    wave: Waveform
    mel: MelSpectrogram
    conditioning_track: ProsodyTrack
    report: dict


def extract_features(wave: Waveform, mel_cfg: MelConfig, f0_cfg: F0Config):
    """(mel, prosody track) with the prosody taken from the high-passed signal."""
    mel = mel_spectrogram(wave, mel_cfg)
    filtered = highpass_filter(wave, HPF_CUTOFF_HZ)
    track = extract_prosody(filtered, mel_cfg, f0_cfg)
    return mel, track


def convert(src: Waveform, trg: Waveform, src_align: Alignment, bundle: ModelBundle,
            mod: ModulationSpec = ModulationSpec(), *, rate_control: bool = False,
            seed: int = 0, gl_iters: int = 60) -> ConvertResult:
    """Full inference path: analysis of both waves, decode, then render."""
    if gl_iters < 0:
        raise ValueError(f"gl_iters must be >= 0, got {gl_iters}")
    started = time.perf_counter()
    src_features = extract_features(src, bundle.mel_cfg, bundle.f0_cfg)
    trg_features = extract_features(trg, bundle.mel_cfg, bundle.f0_cfg)
    decoded = decode(src_features, trg_features, src_align, bundle, mod, seed=seed)
    result = render(decoded, bundle, mod.rate_multiplier, rate_control=rate_control, seed=seed,
                    gl_iters=gl_iters)
    result.report["elapsed_ms"] = (time.perf_counter() - started) * 1e3
    return result


def decode(src_features, trg_features, src_align: Alignment, bundle: ModelBundle,
           mod: ModulationSpec, *, seed: int):
    """The first half of synthesis: from two extract_features results to the
    decoded, clipped mel.

    Returns (mel, requested prosody track, unit conversion rate, report so
    far). mod.rate_multiplier plays no part here; it acts in render.
    """
    mel_src, track_src = src_features
    mel_trg, track_trg = trg_features

    mu_src = voiced_mean(track_src)
    mu_trg = voiced_mean(track_trg)
    transferred = f0_mean_transfer(track_src, mu_trg)

    rc = ConversionRate(1.0)
    if bundle.codebook is not None:
        units_src = unitize(mel_src, bundle.codebook)
        units_trg = unitize(mel_trg, bundle.codebook)
        rc = conversion_rate(units_src, units_trg)

    requested = modulate(transferred, mod)
    spk = speaker_embedding(mel_trg, bundle.dims.speaker_dim)
    prior = average_mel_target(mel_src, src_align)

    params = bundle.params

    def denoise(x_t, t):
        style = build_style(spk, t, params.cond)
        cond = build_condition(requested, style, params.cond)
        return predict_noise(x_t, cond, params)

    rng = np.random.default_rng(seed)
    sampled = reverse_sample(prior.values, denoise, bundle.sched, rng)
    mel_out = MelSpectrogram(np.clip(sampled, np.log(bundle.mel_cfg.log_floor), MEL_LOG_CEIL),
                             bundle.mel_cfg)
    report = {
        "source_frames": mel_src.n_frames,
        "mu_src_hz": mu_src,
        "mu_trg_hz": mu_trg,
        "rc_raw": rc.raw,
        "rc_clamped": rc.clamped,
        "octave_shift": mod.octave_shift,
        "semitone_shift": mod.semitone_shift,
        "energy_gain": mod.energy_gain,
        "frame_curve": mod.frame_f0_delta is not None,
    }
    return mel_out, requested, rc, report


def render(decoded, bundle: ModelBundle, rate_multiplier: float | None, *, rate_control: bool,
           seed: int, gl_iters: int) -> ConvertResult:
    """The second half of synthesis: rate control and vocoding of a decode result.

    A given rate_multiplier wins over rate_control's unit conversion rate.
    """
    mel_out, requested, rc, report = decoded
    applied_rate = None
    if rate_multiplier is not None:
        applied_rate = ConversionRate(rate_multiplier)
    elif rate_control:
        applied_rate = rc
    if applied_rate is not None:
        mel_out = resample_mel(mel_out, applied_rate)

    wave_out = griffin_lim(mel_to_linear(mel_out), bundle.mel_cfg, gl_iters, seed)

    report = {
        **report,
        "rate_control": applied_rate is not None,
        "applied_rate": applied_rate.clamped if applied_rate is not None else 1.0,
        "requested_mean_hz": voiced_mean(requested),
        "out_frames": mel_out.n_frames,
        "out_samples": len(wave_out),
    }
    return ConvertResult(wave_out, mel_out, requested, report)


# -- toy training ---------------------------------------------------------------------

@dataclass
class CorpusItem:
    name: str
    speaker: str
    wave: Waveform
    align: Alignment


def train_toy(items: list[CorpusItem], *, epochs: int, seed: int, lr: float = 1e-3,
              dims: ModelDims = ModelDims(), mel_cfg: MelConfig = MelConfig(),
              f0_cfg: F0Config = F0Config(), sched: NoiseSchedule | None = None,
              kmeans_k: int = DEFAULT_KMEANS_K, log=None):
    """Deterministic toy training over a small same-speaker-paired corpus.

    Returns (bundle, per-epoch mean losses).  The speaker embedding for
    each step comes from a randomly chosen utterance of the same speaker,
    the decoder input normalization from corpus mel statistics.
    """
    if not items:
        raise InsufficientData("corpus is empty")
    if epochs < 1:
        raise InsufficientData("need at least one epoch")
    sched = sched or make_schedule()

    mels, tracks, priors = [], [], []
    for item in items:
        mel, track = extract_features(item.wave, mel_cfg, f0_cfg)
        mels.append(mel)
        tracks.append(track)
        priors.append(average_mel_target(mel, item.align))

    codebook = train_unit_codebook(mels, kmeans_k, seed)

    by_speaker: dict[str, list[int]] = {}
    for idx, item in enumerate(items):
        by_speaker.setdefault(item.speaker, []).append(idx)

    all_values = np.concatenate([m.values.ravel() for m in mels])
    shift = float(all_values.mean())
    scale = float(max(all_values.std(), 1e-3))

    rng = np.random.default_rng(seed)
    params = init_decoder_params(dims, rng, input_shift=shift, input_scale=scale)
    spk_embeddings = [speaker_embedding(m, dims.speaker_dim) for m in mels]

    epoch_losses = []
    for epoch in range(epochs):
        order = rng.permutation(len(items))
        losses = []
        for step, idx in enumerate(order, 1):
            mates = by_speaker[items[idx].speaker]
            spk_idx = mates[int(rng.integers(len(mates)))]
            batch = TrainBatch(
                x0=mels[idx].values,
                prior=priors[idx].values,
                prosody=tracks[idx],
                speaker=spk_embeddings[spk_idx],
            )
            try:
                params, loss = train_step(batch, params, lr, rng, sched)
            except NonFiniteLoss as exc:
                raise NonFiniteLoss(f"{exc} at epoch {epoch + 1}/{epochs}, "
                                    f"step {step}/{len(order)}") from exc
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
        if log is not None:
            log(f"epoch {epoch + 1}/{epochs} loss {epoch_losses[-1]:.6f}")

    bundle = ModelBundle(params, sched, mel_cfg, f0_cfg, codebook)
    return bundle, epoch_losses
