"""Prosody-controllable voice conversion at desk scale."""

from .conditioning import CondParams, ModelDims, build_condition, build_style, step_embedding
from .diffusion import (
    DecoderParams,
    NoiseSchedule,
    TrainBatch,
    forward_diffuse,
    gradient_check,
    init_decoder_params,
    noise_loss,
    predict_noise,
    reverse_sample,
    train_step,
)
from .encoders import Alignment, AlignSegment, average_mel_target, load_alignment, speaker_embedding
from .evaluate import f0_rmse, log_spectral_distance, modulation_sweep, sr_ratio_error
from .pipeline import ModelBundle, convert, load_bundle, save_bundle, train_toy
from .prosody import (
    Codebook,
    F0Config,
    ProsodyTrack,
    UnitSequence,
    extract_f0,
    extract_log_energy,
    extract_prosody,
    speaking_rate,
    train_unit_codebook,
    unitize,
)
from .rate_control import resample_mel
from .signal_core import (
    MelConfig,
    MelSpectrogram,
    Waveform,
    highpass_filter,
    load_wav,
    mel_spectrogram,
    save_wav,
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

__version__ = "0.1.0"
