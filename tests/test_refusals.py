"""Public constructors and functions refuse malformed arguments with a named error."""

import numpy as np
import pytest

from prosovc.conditioning import ModelDims
from prosovc.diffusion import init_decoder_params, predict_noise
from prosovc.encoders import speaker_embedding
from prosovc.errors import ConfigMismatch, InsufficientData, ShapeMismatch, TooShort
from prosovc.evaluate import write_sweep_csv
from prosovc.pipeline import train_toy
from prosovc.prosody import F0Config, ProsodyTrack, UnitSequence, extract_f0, extract_log_energy
from prosovc.signal_core import MelConfig, MelSpectrogram, Waveform, highpass_filter
from prosovc.vocoder import griffin_lim

EMPTY = Waveform(np.zeros(0), 22050)


def predict_with_short_condition():
    params = init_decoder_params(ModelDims(speaker_dim=2, t_embed_dim=2, style_dim=2, cond_hidden=2,
                                           dec_hidden=2), 3, np.random.default_rng(0))
    predict_noise(np.zeros((5, 3)), np.zeros((4, 3)), params)


REFUSALS = {
    "waveform-2d": (lambda: Waveform(np.zeros((2, 3)), 22050), ValueError, "1-D mono"),
    "waveform-rate-0": (lambda: Waveform(np.zeros(3), 0), ValueError, "sample_rate must be positive"),
    "mel-config-no-bands": (lambda: MelConfig(n_mels=0), ValueError, "n_mels must be >= 1"),
    "mel-no-frames": (lambda: MelSpectrogram(np.zeros((0, 80)), MelConfig()), ValueError, "T >= 1"),
    "highpass-empty": (lambda: highpass_filter(EMPTY, 50.0), TooShort, "empty waveform"),
    "track-unequal-lengths": (lambda: ProsodyTrack(np.zeros(3), np.zeros(2, dtype=bool), np.zeros(3)),
                              ValueError, "one frame count"),
    "units-zero-duration": (lambda: UnitSequence(((1, 2), (2, 0))), ValueError, "durations must be >= 1"),
    "units-repeated-id": (lambda: UnitSequence(((1, 2), (1, 3))), ValueError, "distinct unit ids"),
    "f0-empty": (lambda: extract_f0(EMPTY, MelConfig()), TooShort, "empty waveform"),
    # tau_min = max(2, ceil(1000 / 600)) = 2 and tau_max = floor(1000 / 400) = 2
    "f0-degenerate-range": (lambda: extract_f0(Waveform(np.zeros(100), 1000), MelConfig(sample_rate=1000, fmax=500.0),
                                               F0Config(f0_min=400.0, f0_max=600.0)),
                            TooShort, "range is degenerate"),
    "energy-empty": (lambda: extract_log_energy(EMPTY, MelConfig()), TooShort, "empty waveform"),
    "dims-odd-t-embed": (lambda: ModelDims(t_embed_dim=3), ValueError, "t_embed_dim must be even"),
    "predict-noise-condition-shape": (predict_with_short_condition, ShapeMismatch, "!= condition"),
    "train-empty-corpus": (lambda: train_toy([], epochs=1, seed=0), InsufficientData, "corpus is empty"),
    "griffin-lim-bin-count": (lambda: griffin_lim(np.zeros((4, 10)), MelConfig(), 1), ConfigMismatch,
                              "does not match 513 bins"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refused_with_its_error(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error, match=fragment):
        call()


def test_speaker_embedding_of_a_flat_zero_mel_is_the_first_unit_vector():
    # zero band means and deviations project to the zero vector, which has no direction
    vec = speaker_embedding(MelSpectrogram(np.zeros((4, 80)), MelConfig()), 5)
    assert vec.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_sweep_csv_writes_an_int_as_is(tmp_path):
    path = tmp_path / "rows.csv"
    write_sweep_csv(path, [{"level": 0.5, "out_frames": 173}])
    assert path.read_text(encoding="utf-8") == "level,out_frames\n0.5,173\n"
